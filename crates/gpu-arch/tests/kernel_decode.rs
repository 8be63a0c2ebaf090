//! A kernel carries its decode: the [`DecodedKernel`] made when it is
//! built, with the register-file length and the MMA and warp-sync flags
//! that a run sizes itself by. Checked for every workload kernel and for
//! an assembled one, against a fresh decode and against the per-run
//! formulas the simulator used before kernels carried them. A kernel
//! whose memory op names a register offset is not built at all.

use gpu_arch::{asm, CodeGen, DecodedKernel, Kernel, KernelError, MemWidth, Op};
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

/// The register-file length, worked out from the operands alone: one
/// past the highest register an instruction names, past the high word
/// of a 64-bit pair, or past the end of an MMA fragment; at least one.
fn reference_reg_file_len(kernel: &Kernel) -> usize {
    let mut len = 1;
    for i in kernel.instrs() {
        let pair_sources = matches!(
            i.op,
            Op::Dadd | Op::Dmul | Op::Dfma | Op::Dsetp(_) | Op::D2f | Op::Drcp | Op::Dsqrt
        );
        let store64 = matches!(i.op, Op::Stg(MemWidth::W64) | Op::Sts(MemWidth::W64));
        let c_len = if i.op == Op::Hmma { 4 } else { 8 };
        for (slot, src) in i.srcs.iter().enumerate() {
            let Some(r) = src.reg().filter(|r| !r.is_rz()) else { continue };
            let extent = match slot {
                _ if i.op.is_mma() => [4, 4, c_len][slot],
                2 if store64 => 2,
                _ if pair_sources => 2,
                _ => 1,
            };
            len = len.max(usize::from(r.0) + extent);
        }
        if !i.op.has_no_dst() && !i.dst.is_rz() {
            len = len.max(usize::from(i.dst.0) + if i.op.writes_pair() { 2 } else { 1 });
        }
    }
    len
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

/// A memory address is a base register plus an immediate offset. A
/// register in the offset slot is a build error: the simulator would add
/// it into the address, while the static oracle and the lints read the
/// base register alone. The assembler reports it at the `STG`'s line.
#[test]
fn register_offsets_are_rejected() {
    let source = "
        .kernel reg_offset
            MOV R0, 7
            MOV R1, 4
            STG.32 R14, R1, R0
            EXIT
    ";
    let rejected = asm::assemble(source).err();
    let message = KernelError::RegisterOffset(2).to_string();
    assert_eq!(rejected, Some(asm::AsmError { line: 5, message }));
}
