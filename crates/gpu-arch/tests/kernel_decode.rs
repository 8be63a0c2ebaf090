//! A kernel carries its decode: the [`DecodedKernel`] made when it is
//! built, with the register-file length and the MMA and warp-sync flags
//! that a run sizes itself by. Checked for every workload kernel and for
//! an assembled one, against a fresh decode and against the per-run
//! formulas the simulator used before kernels carried them.

use gpu_arch::{asm, CodeGen, DecodedKernel, Kernel};
use workloads::Scale;

/// Every workload kernel (the Kepler suite under both code generators,
/// the Volta suite with its precisions) and an assembled kernel with an
/// FMMA accumulator high in the file, an HMMA and a SHFL.
fn kernels() -> Vec<Kernel> {
    let suites = [
        workloads::kepler_suite(CodeGen::Cuda7, Scale::Small),
        workloads::kepler_suite(CodeGen::Cuda10, Scale::Small),
        workloads::volta_suite(Scale::Small),
    ];
    let mut kernels: Vec<Kernel> = suites.into_iter().flatten().map(|w| w.kernel).collect();
    let source = "
        .kernel assembled
            S2R.LaneId R20
            SHFL.BFLY R21, R20, 0x1
            HMMA R8, R0, R4, R8
            FMMA R240, R0, R4, R240
            DADD R30, R2, R4
            STG.64 R20, 0, R30
            EXIT
    ";
    kernels.push(asm::assemble(source).expect("the source assembles"));
    kernels
}

/// The register-file length as the simulator worked it out per run: one
/// past the highest register an instruction names, or past the end of
/// an MMA fragment, clamped to `1..=256`.
fn reference_reg_file_len(kernel: &Kernel) -> usize {
    let named = kernel.instrs().iter().flat_map(|i| i.src_regs().into_iter().chain(i.dst_regs()));
    let max_reg_used = named.map(|r| usize::from(r.0) + 1).max().unwrap_or(0);
    let mma = kernel.instrs().iter().filter(|i| i.op.is_mma());
    let fragments = mma.flat_map(|i| {
        let c = if i.op == gpu_arch::Op::Hmma { 4 } else { 8 };
        [(i.srcs[0], 4), (i.srcs[1], 4), (i.srcs[2], c)]
            .into_iter()
            .filter_map(|(src, n)| src.reg().map(|r| usize::from(r.0) + n))
    });
    fragments.fold(max_reg_used, usize::max).clamp(1, 256)
}

#[test]
fn kernels_carry_their_build_time_decode() {
    let (mut mma, mut warp_sync) = (0, 0);
    for kernel in kernels() {
        let (carried, fresh) = (kernel.decoded(), DecodedKernel::new(&kernel));
        let name = &kernel.name;
        assert_eq!(carried.metas().len(), kernel.len(), "{name}");
        assert_eq!(carried.metas().len(), fresh.metas().len(), "{name}");
        for pc in 0..kernel.len() {
            assert_eq!(carried.meta(pc as u32), fresh.meta(pc as u32), "{name} pc {pc}");
            assert_eq!(carried.observed_reads(pc), fresh.observed_reads(pc), "{name} pc {pc}");
            assert_eq!(carried.written_regs(pc), fresh.written_regs(pc), "{name} pc {pc}");
        }
        assert_eq!(carried.reg_file_len(), reference_reg_file_len(&kernel), "{name}");
        let ops = || kernel.instrs().iter().map(|i| i.op);
        assert_eq!(carried.has_mma(), ops().any(|op| op.is_mma()), "{name}");
        assert_eq!(carried.warp_sync(), ops().any(|op| op.is_warp_sync()), "{name}");
        assert_eq!(carried, &fresh, "{name}");
        mma += usize::from(carried.has_mma());
        warp_sync += usize::from(carried.warp_sync());
    }
    // HGEMM-MMA, FGEMM-MMA and the assembled kernel.
    assert_eq!((mma, warp_sync), (3, 3));
}
