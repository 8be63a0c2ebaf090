//! End-to-end tests of the execution engine: functional semantics, SIMT
//! control flow, memory, tensor ops, and every fault hook.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely

use gpu_arch::{
    CmpOp, DeviceModel, KernelBuilder, LaunchConfig, MemWidth, Operand, Pred, Reg, SpecialReg,
};
use gpu_sim::{
    run, try_run_with_sink, BitFlip, DueKind, ExecStatus, FaultPlan, GlobalMemory, RunOptions,
    SimError, SiteClass,
};

fn r(i: u8) -> Reg {
    Reg(i)
}
fn imm(v: u32) -> Operand {
    Operand::Imm(v)
}
fn immf(v: f32) -> Operand {
    Operand::imm_f32(v)
}

/// out[i] = a*x[i] + y[i] over 32-bit floats; one thread per element.
fn saxpy_kernel() -> gpu_arch::Kernel {
    let mut b = KernelBuilder::new("saxpy");
    // param0 = x base, param1 = y base, param2 = out base, param3 = a bits
    b.s2r(r(0), SpecialReg::TidX);
    b.s2r(r(1), SpecialReg::CtaidX);
    b.s2r(r(2), SpecialReg::NtidX);
    b.imad(r(0), r(1).into(), r(2).into(), r(0).into()); // gid
    b.shl(r(3), r(0).into(), imm(2)); // byte offset
    b.ldp(r(4), 0);
    b.iadd(r(4), r(4).into(), r(3).into());
    b.ldg(MemWidth::W32, r(5), r(4), 0); // x[i]
    b.ldp(r(6), 1);
    b.iadd(r(6), r(6).into(), r(3).into());
    b.ldg(MemWidth::W32, r(7), r(6), 0); // y[i]
    b.ldp(r(8), 3); // a
    b.ffma(r(9), r(8).into(), r(5).into(), r(7).into());
    b.ldp(r(10), 2);
    b.iadd(r(10), r(10).into(), r(3).into());
    b.stg(MemWidth::W32, r(10), 0, r(9));
    b.exit();
    b.build().unwrap()
}

fn saxpy_setup(n: u32, a: f32) -> (gpu_arch::Kernel, LaunchConfig, GlobalMemory) {
    let kernel = saxpy_kernel();
    let x_base = 0u32;
    let y_base = 4 * n;
    let out_base = 8 * n;
    let mut mem = GlobalMemory::new(12 * n);
    for i in 0..n {
        mem.write_f32_host(x_base + 4 * i, i as f32).unwrap();
        mem.write_f32_host(y_base + 4 * i, 100.0 + i as f32).unwrap();
    }
    let launch = LaunchConfig::new(n / 32, 32, vec![x_base, y_base, out_base, a.to_bits()]);
    (kernel, launch, mem)
}

#[test]
fn saxpy_computes_correctly() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = saxpy_setup(128, 2.0);
    let out = run(&device, &kernel, &launch, mem, &RunOptions::golden());
    assert_eq!(out.status, ExecStatus::Completed);
    for i in 0..128u32 {
        let got = out.memory.read_f32_host(8 * 128 + 4 * i).unwrap();
        assert_eq!(got, 2.0 * i as f32 + 100.0 + i as f32, "i={i}");
    }
    assert!(out.counts.total > 0);
    assert!(!out.fault_triggered);
}

#[test]
fn determinism_same_counts_every_run() {
    let device = DeviceModel::named("k40c");
    let (kernel, launch, mem) = saxpy_setup(64, 1.5);
    let a = run(&device, &kernel, &launch, mem.clone(), &RunOptions::golden());
    let b = run(&device, &kernel, &launch, mem, &RunOptions::golden());
    assert_eq!(a.counts.total, b.counts.total);
    assert_eq!(a.counts.per_unit, b.counts.per_unit);
    assert_eq!(a.memory.raw(), b.memory.raw());
}

#[test]
fn loop_and_predication() {
    // Sum 1..=10 with a guarded backward branch.
    let mut b = KernelBuilder::new("sum");
    b.mov(r(0), imm(0)); // acc
    b.mov(r(1), imm(0)); // i
    b.label("top");
    b.iadd(r(1), r(1).into(), imm(1));
    b.iadd(r(0), r(0).into(), r(1).into());
    b.isetp(Pred(0), CmpOp::Lt, r(1).into(), imm(10));
    b.if_p(Pred(0)).bra("top");
    b.ldp(r(2), 0);
    b.stg(MemWidth::W32, r(2), 0, r(0));
    b.exit();
    let kernel = b.build().unwrap();
    let mem = GlobalMemory::new(4);
    let launch = LaunchConfig::new(1, 1, vec![0]);
    let out = run(&DeviceModel::named("v100"), &kernel, &launch, mem, &RunOptions::golden());
    assert_eq!(out.status, ExecStatus::Completed);
    assert_eq!(out.memory.read_u32_host(0).unwrap(), 55);
}

#[test]
fn warp_divergence_converges() {
    // Even lanes add 1, odd lanes add 2; all store.
    let mut b = KernelBuilder::new("diverge");
    b.s2r(r(0), SpecialReg::TidX);
    b.and(r(1), r(0).into(), imm(1));
    b.isetp(Pred(0), CmpOp::Eq, r(1).into(), imm(0));
    b.mov(r(2), imm(0));
    b.if_p(Pred(0)).iadd(r(2), r(2).into(), imm(1));
    b.if_not_p(Pred(0)).iadd(r(2), r(2).into(), imm(2));
    b.shl(r(3), r(0).into(), imm(2));
    b.ldp(r(4), 0);
    b.iadd(r(4), r(4).into(), r(3).into());
    b.stg(MemWidth::W32, r(4), 0, r(2));
    b.exit();
    let kernel = b.build().unwrap();
    let mem = GlobalMemory::new(4 * 32);
    let launch = LaunchConfig::new(1, 32, vec![0]);
    let out = run(&DeviceModel::named("v100"), &kernel, &launch, mem, &RunOptions::golden());
    assert_eq!(out.status, ExecStatus::Completed);
    for i in 0..32 {
        let expect = if i % 2 == 0 { 1 } else { 2 };
        assert_eq!(out.memory.read_u32_host(4 * i).unwrap(), expect, "lane {i}");
    }
}

#[test]
fn shared_memory_reduction_with_barrier() {
    // Each thread writes tid to shared, barrier, thread 0 sums.
    let n = 64u32;
    let mut b = KernelBuilder::new("reduce");
    b.s2r(r(0), SpecialReg::TidX);
    b.shl(r(1), r(0).into(), imm(2));
    b.sts(MemWidth::W32, r(1), 0, r(0));
    b.bar();
    b.isetp(Pred(0), CmpOp::Ne, r(0).into(), imm(0));
    b.if_p(Pred(0)).bra("done");
    b.mov(r(2), imm(0)); // acc
    b.mov(r(3), imm(0)); // i
    b.label("top");
    b.shl(r(4), r(3).into(), imm(2));
    b.lds(MemWidth::W32, r(5), r(4), 0);
    b.iadd(r(2), r(2).into(), r(5).into());
    b.iadd(r(3), r(3).into(), imm(1));
    b.isetp(Pred(1), CmpOp::Lt, r(3).into(), imm(n));
    b.if_p(Pred(1)).bra("top");
    b.ldp(r(6), 0);
    b.stg(MemWidth::W32, r(6), 0, r(2));
    b.label("done");
    b.exit();
    b.shared(4 * n);
    let kernel = b.build().unwrap();
    let mem = GlobalMemory::new(4);
    let launch = LaunchConfig::new(1, n, vec![0]);
    let out = run(&DeviceModel::named("k40c"), &kernel, &launch, mem, &RunOptions::golden());
    assert_eq!(out.status, ExecStatus::Completed);
    assert_eq!(out.memory.read_u32_host(0).unwrap(), (0..n).sum::<u32>());
}

#[test]
fn fp64_pair_arithmetic() {
    let mut b = KernelBuilder::new("dbl");
    b.ldp(r(0), 0);
    b.ldg(MemWidth::W64, r(2), r(0), 0); // a
    b.ldg(MemWidth::W64, r(4), r(0), 8); // b
    b.dfma(r(6), r(2).into(), r(4).into(), r(2).into()); // a*b + a
    b.stg(MemWidth::W64, r(0), 16, r(6));
    b.exit();
    let kernel = b.build().unwrap();
    let mut mem = GlobalMemory::new(24);
    mem.write_f64_host(0, 2.5).unwrap();
    mem.write_f64_host(8, 3.0).unwrap();
    let launch = LaunchConfig::new(1, 1, vec![0]);
    let out = run(&DeviceModel::named("v100"), &kernel, &launch, mem, &RunOptions::golden());
    assert_eq!(out.status, ExecStatus::Completed);
    assert_eq!(out.memory.read_f64_host(16).unwrap(), 2.5f64 * 3.0 + 2.5);
}

#[test]
fn fp16_arithmetic_and_conversion() {
    let mut b = KernelBuilder::new("half");
    b.mov(r(0), immf(1.5));
    b.f2h(r(1), r(0).into());
    b.mov(r(2), immf(2.0));
    b.f2h(r(3), r(2).into());
    b.hmul(r(4), r(1).into(), r(3).into()); // 3.0 in f16
    b.hadd(r(5), r(4).into(), r(1).into()); // 4.5
    b.hfma(r(6), r(5).into(), r(3).into(), r(1).into()); // 4.5*2+1.5 = 10.5
    b.h2f(r(7), r(6).into());
    b.ldp(r(8), 0);
    b.stg(MemWidth::W32, r(8), 0, r(7));
    b.exit();
    let kernel = b.build().unwrap();
    let mem = GlobalMemory::new(4);
    let launch = LaunchConfig::new(1, 1, vec![0]);
    let out = run(&DeviceModel::named("v100"), &kernel, &launch, mem, &RunOptions::golden());
    assert_eq!(out.memory.read_f32_host(0).unwrap(), 10.5);
}

/// Build a warp MMA kernel computing D = A*B + C on 16x16 fragments, with
/// A = identity-ish pattern loaded from registers set via MOVs.
#[test]
fn mma_matches_reference() {
    use softfloat::F16;
    // Every lane materializes its 8 elements of A and B: A[i][j] = 1 if
    // i==j (identity), B flattened index value = idx/256 scaled.
    let mut b = KernelBuilder::new("mma");
    b.s2r(r(0), SpecialReg::LaneId);
    // Build A (regs 10..14) and B (regs 14..18): loop j=0..8.
    for j in 0..8u32 {
        // idx = lane*8 + j
        b.imad(r(1), r(0).into(), imm(8), imm(j));
        // row = idx / 16, col = idx % 16
        b.shr(r(2), r(1).into(), imm(4));
        b.and(r(3), r(1).into(), imm(15));
        // A element: 1.0 if row == col else 0.0
        b.isetp(Pred(0), CmpOp::Eq, r(2).into(), r(3).into());
        b.mov(r(4), immf(1.0));
        b.mov(r(5), immf(0.0));
        b.sel(r(6), r(4).into(), r(5).into(), Pred(0), false);
        b.f2h(r(6), r(6).into());
        // B element: (idx % 7) as f32 * 0.25
        b.mov(r(7), imm(7));
        // idx % 7 via idx - (idx/7)*7 is tedious; use AND 3 for simplicity:
        b.and(r(7), r(1).into(), imm(3));
        b.i2f(r(8), r(7).into());
        b.fmul(r(8), r(8).into(), immf(0.25));
        b.f2h(r(8), r(8).into());
        // Pack into target registers
        let a_reg = 10 + (j / 2) as u8;
        let b_reg = 14 + (j / 2) as u8;
        if j % 2 == 0 {
            b.mov(r(a_reg), r(6).into());
            b.mov(r(b_reg), r(8).into());
        } else {
            b.shl(r(9), r(6).into(), imm(16));
            b.or(r(a_reg), r(a_reg).into(), r(9).into());
            b.shl(r(9), r(8).into(), imm(16));
            b.or(r(b_reg), r(b_reg).into(), r(9).into());
        }
    }
    // C = 0 (regs 18..26 for FMMA accumulate)
    for j in 0..8u8 {
        b.mov(r(18 + j), immf(0.0));
    }
    b.fmma(r(10), r(14), r(18));
    // Store the 8 accumulators
    b.ldp(r(30), 0);
    b.imad(r(31), r(0).into(), imm(32), r(30).into());
    for j in 0..8u8 {
        b.stg(MemWidth::W32, r(31), 4 * j as u32, r(18 + j));
    }
    b.exit();
    let kernel = b.build().unwrap();
    let mem = GlobalMemory::new(32 * 32);
    let launch = LaunchConfig::new(1, 32, vec![0]);
    let out = run(&DeviceModel::named("v100"), &kernel, &launch, mem, &RunOptions::golden());
    assert_eq!(out.status, ExecStatus::Completed);
    // A is the identity, so D = B: D[idx] = (idx & 3) * 0.25.
    for lane in 0..32u32 {
        for j in 0..8u32 {
            let idx = lane * 8 + j;
            let expect = F16::from_f32((idx & 3) as f32 * 0.25).to_f32();
            let got = out.memory.read_f32_host(lane * 32 + 4 * j).unwrap();
            assert_eq!(got, expect, "element {idx}");
        }
    }
}

#[test]
fn mma_on_a_block_of_partial_warps_is_a_setup_error() {
    // A 16x16x16 MMA reads fragments from all 32 lanes of its warp, so a
    // block that is not a whole number of warps is rejected before the
    // first instruction instead of panicking mid-run.
    let mut b = KernelBuilder::new("mma_partial");
    b.hmma(r(0), r(4), r(8));
    b.exit();
    let kernel = b.build().unwrap();
    let device = DeviceModel::named("v100");
    let try_block = |threads: u32| {
        let launch = LaunchConfig::new(1, threads, vec![]);
        try_run_with_sink(
            &device,
            &kernel,
            &launch,
            GlobalMemory::new(4),
            &RunOptions::golden(),
            None,
        )
    };
    for threads in [16u32, 48] {
        let err = try_block(threads).unwrap_err();
        assert_eq!(err, SimError::PartialWarpMma { block_threads: threads as u64 });
    }
    assert!(try_block(64).unwrap().status.completed());
}

// ---------------- fault hooks ----------------

#[test]
fn instruction_output_flip_causes_sdc() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = saxpy_setup(64, 2.0);
    let golden = run(&device, &kernel, &launch, mem.clone(), &RunOptions::golden());
    let opts = RunOptions::trial(FaultPlan::InstructionOutput {
        nth: 10,
        site: SiteClass::Unit(gpu_arch::FunctionalUnit::Ffma),
        flip: BitFlip::single(30), // high exponent bit: visible
    });
    let faulty = run(&device, &kernel, &launch, mem, &opts);
    assert_eq!(faulty.status, ExecStatus::Completed);
    assert!(faulty.fault_triggered);
    assert_ne!(golden.memory.raw(), faulty.memory.raw(), "flip must be visible");
}

#[test]
fn fault_beyond_dynamic_count_never_triggers() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = saxpy_setup(64, 2.0);
    let opts = RunOptions::trial(FaultPlan::InstructionOutput {
        nth: 1_000_000,
        site: SiteClass::GprWriter,
        flip: BitFlip::single(0),
    });
    let out = run(&device, &kernel, &launch, mem, &opts);
    assert!(!out.fault_triggered);
    assert_eq!(out.status, ExecStatus::Completed);
}

/// A warp-wide FMMA is one `GprWriterNoHalf` site both in the population
/// an injector samples `nth` from and in the count the output hook
/// numbers `nth` in: on FGEMM-MMA the population's last site fires and
/// the one past it does not.
#[test]
fn warp_wide_fmma_is_one_no_half_site() {
    use gpu_arch::{CodeGen, Precision};
    use workloads::{Benchmark, Scale};
    let w = workloads::build(Benchmark::GemmMma, Precision::Single, CodeGen::Cuda10, Scale::Tiny);
    let device = DeviceModel::named("v100-sim");
    let kernel = w.kernel.decoded();
    assert!(
        kernel.has_mma()
            && kernel.metas().iter().any(|m| m.is_mma && m.in_class(SiteClass::GprWriterNoHalf))
    );
    let run_at = |opts: &RunOptions| run(&device, &w.kernel, &w.launch, w.memory.clone(), opts);
    let population = run_at(&RunOptions::golden()).counts.population(SiteClass::GprWriterNoHalf);
    let fires = |nth| {
        let site = SiteClass::GprWriterNoHalf;
        let plan = FaultPlan::InstructionOutput { nth, site, flip: BitFlip::single(0) };
        run_at(&RunOptions::trial(plan)).fault_triggered
    };
    assert!(fires(population - 1), "the last of {population} no-half sites never fires");
    assert!(!fires(population), "a site past the {population} no-half sites fires");
}

#[test]
fn address_flip_low_bit_is_misalignment_due() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = saxpy_setup(64, 2.0);
    let opts = RunOptions::trial(FaultPlan::MemAddress { nth: 0, flip: BitFlip::single(0) });
    let out = run(&device, &kernel, &launch, mem, &opts);
    assert_eq!(out.status, ExecStatus::Due(DueKind::MemoryViolation));
}

#[test]
fn address_flip_high_bit_is_oob_due() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = saxpy_setup(64, 2.0);
    let opts = RunOptions::trial(FaultPlan::MemAddress { nth: 3, flip: BitFlip::single(28) });
    let out = run(&device, &kernel, &launch, mem, &opts);
    assert_eq!(out.status, ExecStatus::Due(DueKind::MemoryViolation));
}

#[test]
fn predicate_flip_changes_loop_count() {
    // The sum-loop kernel from above: flipping the loop predicate once
    // terminates the loop early (or extends it), changing the sum.
    let mut b = KernelBuilder::new("sum");
    b.mov(r(0), imm(0));
    b.mov(r(1), imm(0));
    b.label("top");
    b.iadd(r(1), r(1).into(), imm(1));
    b.iadd(r(0), r(0).into(), r(1).into());
    b.isetp(Pred(0), CmpOp::Lt, r(1).into(), imm(10));
    b.if_p(Pred(0)).bra("top");
    b.ldp(r(2), 0);
    b.stg(MemWidth::W32, r(2), 0, r(0));
    b.exit();
    let kernel = b.build().unwrap();
    let launch = LaunchConfig::new(1, 1, vec![0]);
    let opts = RunOptions::trial(FaultPlan::PredicateOutput { nth: 2 }).watchdog(10_000);
    let out = run(&DeviceModel::named("v100"), &kernel, &launch, GlobalMemory::new(4), &opts);
    assert!(out.fault_triggered);
    assert_eq!(out.status, ExecStatus::Completed);
    assert_eq!(out.memory.read_u32_host(0).unwrap(), 1 + 2 + 3); // exited after i=3
}

#[test]
fn pc_corruption_is_illegal_fetch_or_wild_jump() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = saxpy_setup(64, 2.0);
    // Bit 10 makes the fetch jump +1024 instructions.
    let opts =
        RunOptions::trial(FaultPlan::Pc { at: 5, flip: BitFlip::single(10) }).watchdog(1_000_000);
    let out = run(&device, &kernel, &launch, mem, &opts);
    assert_eq!(out.status, ExecStatus::Due(DueKind::IllegalPc));
}

#[test]
fn watchdog_fires_on_runaway_loop() {
    // A loop whose exit predicate gets flipped into an infinite loop is
    // approximated here by a plain infinite loop with a watchdog.
    let mut b = KernelBuilder::new("spin");
    b.label("top");
    b.iadd(r(0), r(0).into(), imm(1));
    b.bra("top");
    b.exit();
    let kernel = b.build().unwrap();
    let launch = LaunchConfig::new(1, 1, vec![]);
    let opts = RunOptions::golden().watchdog(10_000);
    let out = run(&DeviceModel::named("k40c"), &kernel, &launch, GlobalMemory::new(4), &opts);
    assert_eq!(out.status, ExecStatus::Due(DueKind::Watchdog));
}

#[test]
fn register_bit_flip_without_ecc_corrupts() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = saxpy_setup(32, 2.0);
    let golden = run(&device, &kernel, &launch, mem.clone(), &RunOptions::golden());
    // Flip thread 3's FFMA result (r9) while it is live: thread 3 runs the
    // FFMA (static instr 12) at global instant 32*12+3 = 387 and stores at
    // 483, so a strike at 400 lands between producer and consumer.
    let opts = RunOptions::trial(FaultPlan::RegisterBit {
        block: 0,
        thread: 3,
        reg: 9,
        flip: BitFlip::single(30),
        at: 400,
    })
    .ecc(false);
    let out = run(&device, &kernel, &launch, mem, &opts);
    assert!(out.fault_triggered);
    assert_eq!(out.status, ExecStatus::Completed);
    assert_ne!(golden.memory.raw(), out.memory.raw());
}

#[test]
fn register_bit_flip_with_ecc_is_corrected() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = saxpy_setup(32, 2.0);
    let golden = run(&device, &kernel, &launch, mem.clone(), &RunOptions::golden());
    let opts = RunOptions::trial(FaultPlan::RegisterBit {
        block: 0,
        thread: 3,
        reg: 9,
        flip: BitFlip::single(30),
        at: 400,
    })
    .ecc(true);
    let out = run(&device, &kernel, &launch, mem, &opts);
    assert_eq!(out.status, ExecStatus::Completed);
    assert_eq!(golden.memory.raw(), out.memory.raw(), "ECC must correct");
}

#[test]
fn register_double_bit_with_ecc_is_due() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = saxpy_setup(32, 2.0);
    let opts = RunOptions::trial(FaultPlan::RegisterBit {
        block: 0,
        thread: 3,
        reg: 5,
        flip: BitFlip::double(3, 17),
        at: 120,
    })
    .ecc(true);
    let out = run(&device, &kernel, &launch, mem, &opts);
    assert_eq!(out.status, ExecStatus::Due(DueKind::EccDoubleBit));
}

#[test]
fn global_memory_bit_flip_without_ecc_is_sdc() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = saxpy_setup(32, 2.0);
    let golden = run(&device, &kernel, &launch, mem.clone(), &RunOptions::golden());
    // Strike an input word before any thread reads it.
    let opts = RunOptions::trial(FaultPlan::GlobalMemBit { byte: 16, bit: 27, at: 1, mbu: false })
        .ecc(false);
    let out = run(&device, &kernel, &launch, mem, &opts);
    assert_eq!(out.status, ExecStatus::Completed);
    assert_ne!(golden.memory.raw(), out.memory.raw());
}

#[test]
fn global_memory_bit_flip_with_ecc_is_masked() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = saxpy_setup(32, 2.0);
    let golden = run(&device, &kernel, &launch, mem.clone(), &RunOptions::golden());
    let opts = RunOptions::trial(FaultPlan::GlobalMemBit { byte: 16, bit: 27, at: 1, mbu: false })
        .ecc(true);
    let out = run(&device, &kernel, &launch, mem, &opts);
    assert_eq!(out.status, ExecStatus::Completed);
    assert_eq!(golden.memory.raw(), out.memory.raw());
}

#[test]
fn global_memory_mbu_with_ecc_is_due() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = saxpy_setup(32, 2.0);
    let opts = RunOptions::trial(FaultPlan::GlobalMemBit { byte: 16, bit: 27, at: 1, mbu: true })
        .ecc(true);
    let out = run(&device, &kernel, &launch, mem, &opts);
    assert_eq!(out.status, ExecStatus::Due(DueKind::EccDoubleBit));
}

#[test]
fn out_of_bounds_program_is_due_even_without_faults() {
    let mut b = KernelBuilder::new("oob");
    b.mov(r(0), imm(1 << 20));
    b.ldg(MemWidth::W32, r(1), r(0), 0);
    b.exit();
    let kernel = b.build().unwrap();
    let launch = LaunchConfig::new(1, 1, vec![]);
    let out = run(
        &DeviceModel::named("v100"),
        &kernel,
        &launch,
        GlobalMemory::new(64),
        &RunOptions::golden(),
    );
    assert_eq!(out.status, ExecStatus::Due(DueKind::MemoryViolation));
}

#[test]
fn timing_report_is_populated() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = saxpy_setup(128, 2.0);
    let out = run(&device, &kernel, &launch, mem, &RunOptions::golden());
    assert!(out.timing.cycles > 0.0);
    assert!(out.timing.ipc > 0.0);
    assert!(out.timing.seconds > 0.0);
    assert!(out.timing.achieved_occupancy > 0.0 && out.timing.achieved_occupancy <= 1.0);
}

#[test]
fn mix_counts_sum_to_total() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = saxpy_setup(64, 1.0);
    let out = run(&device, &kernel, &launch, mem, &RunOptions::golden());
    let mix_sum: u64 = out.counts.per_mix.iter().sum();
    let unit_sum: u64 = out.counts.per_unit.iter().sum();
    assert_eq!(mix_sum, out.counts.total);
    assert_eq!(unit_sum, out.counts.total);
    let warp_sum: u64 = out.counts.warp_instrs.iter().sum();
    assert_eq!(warp_sum, out.counts.total);
}

/// Two warps: thread 33 spins on a branch while every other thread waits
/// at `BAR` for it, so after three full rounds (S2R, ISETP, BAR) warp 1
/// is the only warp with a running lane, and it runs alone.
fn straggler_kernel() -> gpu_arch::Kernel {
    let mut b = KernelBuilder::new("straggler");
    b.s2r(r(0), SpecialReg::TidX);
    b.isetp(Pred(0), CmpOp::Ne, r(0).into(), imm(33));
    b.if_p(Pred(0)).bar();
    b.label("spin");
    b.bra("spin");
    b.exit();
    b.build().unwrap()
}

#[test]
fn lone_straggler_trips_the_watchdog_one_round_per_instruction() {
    let device = DeviceModel::named("k40c");
    let kernel = straggler_kernel();
    let launch = LaunchConfig::new(1, 64, vec![]);
    let limit = 10_000;
    let opts = RunOptions::golden().watchdog(limit);
    let plain = run(&device, &kernel, &launch, GlobalMemory::new(4), &opts);
    let mut sink = obs::RecordingSink::new();
    let traced =
        try_run_with_sink(&device, &kernel, &launch, GlobalMemory::new(4), &opts, Some(&mut sink))
            .unwrap();
    for out in [&plain, &traced] {
        assert_eq!(out.status, ExecStatus::Due(DueKind::Watchdog));
        assert_eq!(out.counts.total, limit + 1);
        // The three full rounds retire 64 instructions each; every later
        // round is the straggler's alone and retires one.
        let alone = out.counts.total - 3 * 64;
        assert_eq!(out.rounds, 3 + alone);
    }
    assert_eq!(plain.counts, traced.counts);
    let retired =
        sink.events.iter().filter(|e| matches!(e, obs::TraceEvent::InstrRetired { .. })).count();
    // The instruction past the limit is counted, then trips the watchdog
    // before it is reported.
    assert_eq!(retired as u64, limit);
}

/// Two warps: every thread but 0 exits, then thread 0 alone sums 1..=200
/// in a loop and stores the sum. Instructions 0..192 are the three full
/// rounds; from 192 on every dynamic count is a round top.
fn lone_tail_kernel() -> gpu_arch::Kernel {
    let mut b = KernelBuilder::new("lone-tail");
    b.s2r(r(0), SpecialReg::TidX);
    b.isetp(Pred(0), CmpOp::Ne, r(0).into(), imm(0));
    b.if_p(Pred(0)).exit();
    b.mov(r(1), imm(0));
    b.mov(r(2), imm(0));
    b.label("top");
    b.iadd(r(1), r(1).into(), imm(1));
    b.iadd(r(2), r(2).into(), r(1).into());
    b.isetp(Pred(1), CmpOp::Lt, r(1).into(), imm(200));
    b.if_p(Pred(1)).bra("top");
    b.ldp(r(3), 0);
    b.stg(MemWidth::W32, r(3), 0, r(2));
    b.exit();
    b.build().unwrap()
}

/// The lone-tail kernel's golden run, capturing a snapshot every 256
/// instructions: all three inside the lone stretch.
fn lone_tail_golden() -> (gpu_arch::Kernel, LaunchConfig, std::sync::Arc<gpu_sim::Executed>) {
    let kernel = lone_tail_kernel();
    let launch = LaunchConfig::new(1, 64, vec![0]);
    let opts = RunOptions::golden().ecc(false).snapshot_every(256);
    let golden = run(&DeviceModel::named("k40c"), &kernel, &launch, GlobalMemory::new(4), &opts);
    assert_eq!(golden.status, ExecStatus::Completed);
    assert_eq!(golden.memory.read_u32_host(0).unwrap(), 200 * 201 / 2);
    let at: Vec<u64> = golden.snapshots.iter().map(|s| s.dyn_count()).collect();
    assert_eq!(at, [256, 512, 768]);
    (kernel, launch, std::sync::Arc::new(golden))
}

/// The golden snapshot a campaign resumes `plan` from.
fn nearest(
    golden: &gpu_sim::Executed,
    plan: &FaultPlan,
) -> Option<std::sync::Arc<gpu_sim::EngineSnapshot>> {
    let (k, _) = gpu_sim::trigger_position(&golden.snapshots, &golden.counts, plan);
    k.checked_sub(1).map(|i| std::sync::Arc::clone(&golden.snapshots[i]))
}

#[test]
fn dead_register_flip_in_a_lone_tail_rejoins_at_the_next_snapshot() {
    let device = DeviceModel::named("k40c");
    let (kernel, launch, golden) = lone_tail_golden();
    // R0 is dead once ISETP has read it: a flip of it leaves nothing the
    // rest of the run reads different from golden.
    let plan =
        FaultPlan::RegisterBit { block: 0, thread: 0, reg: 0, flip: BitFlip::single(5), at: 300 };
    let trial = |resume: bool, exit: bool| {
        let opts = RunOptions::trial(plan)
            .ecc(false)
            .resume(if resume { nearest(&golden, &plan) } else { None })
            .exit_through(exit.then(|| std::sync::Arc::clone(&golden)));
        run(&device, &kernel, &launch, GlobalMemory::new(4), &opts)
    };
    let full = trial(false, false);
    assert_eq!(full.exit, None);
    assert!(full.fault_triggered);
    for resume in [false, true] {
        let ended = trial(resume, true);
        let exit = ended.exit.expect("the dead flip rejoins");
        assert_eq!(exit.kind, gpu_sim::ExitKind::Rejoin);
        assert_eq!(exit.skipped_instrs, golden.counts.total - 512, "resume {resume}");
        assert_eq!(ended.status, full.status);
        assert_eq!(ended.memory.raw(), full.memory.raw());
        assert_eq!(ended.counts, full.counts, "resume {resume}");
    }
}

#[test]
fn hidden_plans_inside_a_lone_stretch_fire_at_the_same_instant_from_zero_and_resumed() {
    let device = DeviceModel::named("k40c");
    let (kernel, launch, golden) = lone_tail_golden();
    let at = 600;
    for persist in [gpu_sim::Persistence::Transient, gpu_sim::Persistence::StuckAt] {
        for plan in [
            FaultPlan::SchedulerPriority { at, warp: 0, persist },
            FaultPlan::ActiveMask { at, warp: 0, flip: BitFlip::single(0), persist },
        ] {
            let resume = nearest(&golden, &plan);
            assert_eq!(resume.as_ref().map(|s| s.dyn_count()), Some(512), "{plan:?}");
            let trial = |resume| {
                let opts = RunOptions::trial(plan).ecc(false).watchdog(4_000).resume(resume);
                let mut sink = obs::RecordingSink::new();
                let out = try_run_with_sink(
                    &device,
                    &kernel,
                    &launch,
                    GlobalMemory::new(4),
                    &opts,
                    Some(&mut sink),
                )
                .unwrap();
                let fired: Vec<u64> = sink
                    .events
                    .iter()
                    .filter_map(|e| match e {
                        obs::TraceEvent::FaultInjected { idx, .. } => Some(*idx),
                        _ => None,
                    })
                    .collect();
                (out, fired)
            };
            let (zero, fired) = trial(None);
            let (resumed, fired_resumed) = trial(resume);
            // Every dynamic count of the stretch is a round top.
            assert_eq!(fired, [at], "{plan:?}");
            assert_eq!(fired_resumed, [at], "{plan:?}");
            assert_eq!(zero.status, resumed.status, "{plan:?}");
            assert_eq!(zero.memory.raw(), resumed.memory.raw(), "{plan:?}");
            assert_eq!(zero.counts, resumed.counts, "{plan:?}");
        }
    }
}

/// Each thread counts to 40 in lockstep with the others, then stores its
/// count: a converged loop whose every round retires one instruction per
/// thread.
fn lockstep_kernel() -> gpu_arch::Kernel {
    let mut b = KernelBuilder::new("lockstep");
    b.s2r(r(0), SpecialReg::TidX);
    b.mov(r(1), imm(0));
    b.label("top");
    b.iadd(r(1), r(1).into(), imm(1));
    b.isetp(Pred(1), CmpOp::Lt, r(1).into(), imm(40));
    b.if_p(Pred(1)).bra("top");
    b.shl(r(2), r(0).into(), imm(2));
    b.ldp(r(3), 0);
    b.iadd(r(3), r(3).into(), r(2).into());
    b.stg(MemWidth::W32, r(3), 0, r(1));
    b.exit();
    b.build().unwrap()
}

/// A transient hidden plan that changes nothing rejoins at golden's first
/// snapshot at or past the round top it fires at. Two cases: a mask flip
/// of a lane warp 1 does not have, due inside a round of 48 threads, so
/// the round top it fires at lies past its `at`; and a one-round skip of
/// the only warp at a snapshot's count, after which the round retires
/// nothing and the next round top sits at that same count.
#[test]
fn hidden_plans_that_change_nothing_rejoin_at_the_next_snapshot() {
    use gpu_sim::{BlockExit, ExitKind, Persistence};
    let device = DeviceModel::named("k40c");
    let kernel = lockstep_kernel();
    let transient = Persistence::Transient;
    let cases = [
        (
            48,
            FaultPlan::ActiveMask {
                at: 300,
                warp: 1,
                flip: BitFlip::single(20),
                persist: transient,
            },
            [288, 576, 864],
            576,
        ),
        (
            32,
            FaultPlan::SchedulerPriority { at: 512, warp: 0, persist: transient },
            [256, 512, 768],
            512,
        ),
    ];
    for (threads, plan, points, rejoin_at) in cases {
        let launch = LaunchConfig::new(1, threads, vec![0]);
        let memory = GlobalMemory::new(4 * threads);
        let capture = RunOptions::golden().ecc(false).snapshot_every(256);
        let golden = run(&device, &kernel, &launch, memory.clone(), &capture);
        let at: Vec<u64> = golden.snapshots.iter().map(|s| s.dyn_count()).collect();
        assert_eq!(at[..3], points, "{plan:?}");
        let golden = std::sync::Arc::new(golden);
        let opts = RunOptions::trial(plan).ecc(false);
        let full = run(&device, &kernel, &launch, memory.clone(), &opts);
        assert!(full.fault_triggered, "{plan:?}");
        assert_eq!(full.memory.raw(), golden.memory.raw(), "{plan:?}");
        let exit = opts.exit_through(Some(std::sync::Arc::clone(&golden)));
        let ended = run(&device, &kernel, &launch, memory, &exit);
        let skipped_instrs = golden.counts.total - rejoin_at;
        assert_eq!(
            ended.exit,
            Some(BlockExit { block: 0, skipped_instrs, kind: ExitKind::Rejoin })
        );
        assert_eq!(ended.status, full.status, "{plan:?}");
        assert_eq!(ended.memory.raw(), full.memory.raw(), "{plan:?}");
        assert_eq!(ended.counts, full.counts, "{plan:?}");
    }
}

/// Two lanes of one warp that loop apart: thread 0, at the higher pcs,
/// stores a new address into word X (byte 0) in round 45; thread 1, at
/// the lower pcs, reads X in round 47 and stores to the address it read.
/// A window that covers both issues thread 1's pcs first, so it reads X's
/// old address and stores there before thread 0's claim on X conflicts:
/// an access lane order never makes.
fn stale_read_kernel() -> gpu_arch::Kernel {
    let mut b = KernelBuilder::new("stale_read");
    b.s2r(r(0), SpecialReg::TidX);
    b.ldp(r(3), 0);
    b.isetp(Pred(0), CmpOp::Eq, r(0).into(), imm(0));
    b.if_p(Pred(0)).bra("writer");
    b.label("reader");
    b.iadd(r(1), r(1).into(), imm(1));
    b.isetp(Pred(1), CmpOp::Lt, r(1).into(), imm(14));
    b.if_p(Pred(1)).bra("reader");
    b.ldg(MemWidth::W32, r(5), r(3), 0);
    b.stg(MemWidth::W32, r(5), 0, r(0));
    for _ in 0..60 {
        b.iadd(r(2), r(2).into(), imm(1));
    }
    b.exit();
    b.label("writer");
    b.iadd(r(1), r(1).into(), imm(1));
    b.isetp(Pred(1), CmpOp::Lt, r(1).into(), imm(13));
    b.if_p(Pred(1)).bra("writer");
    b.ldp(r(6), 1);
    b.stg(MemWidth::W32, r(3), 0, r(6));
    b.exit();
    b.build().unwrap()
}

/// A capturing run rolls back a window whose stale read fed a store
/// address (see [`stale_read_kernel`]): the rollback must undo the exit
/// recorder's notes on the word stored to, as well as memory. The plain
/// capture opens a window and rolls it back, and its snapshots and exit
/// table are bit-identical to those of the sink-attached capture, which
/// issues in lane order.
#[test]
fn capture_rollback_undoes_the_exit_recorder_notes() {
    let device = DeviceModel::named("k40c-sim");
    let kernel = stale_read_kernel();
    let launch = LaunchConfig::new(1, 2, vec![0, 128]);
    let mut memory = GlobalMemory::new(256);
    memory.write_u32_host(0, 64).unwrap();
    let opts = RunOptions::golden().ecc(false).snapshot_every(64);
    let plain = run(&device, &kernel, &launch, memory.clone(), &opts);
    let mut sink = obs::CountingSink::default();
    let traced =
        try_run_with_sink(&device, &kernel, &launch, memory, &opts, Some(&mut sink)).unwrap();
    assert_eq!(plain.status, ExecStatus::Completed);
    assert!(plain.windows > 0 && plain.window_rollbacks > 0, "no window rolled back");
    assert_eq!((traced.windows, traced.window_rollbacks), (0, 0));
    assert_eq!(plain.memory.raw(), traced.memory.raw());
    assert_eq!(plain.memory.read_u32_host(128).unwrap(), 1, "the store lane order makes");
    assert_eq!(plain.counts, traced.counts);
    assert_eq!(plain.rounds, traced.rounds);
    assert!(plain.snapshots.len() >= 2, "{} snapshots", plain.snapshots.len());
    assert!(plain.snapshots == traced.snapshots, "snapshot states differ");
    assert!(plain.exit_table.is_some());
    assert!(plain.exit_table == traced.exit_table, "exit tables differ");
}

/// Each of 64 threads loops 40 times over its own word: a load of it, or
/// with `atomic` an atomic add of one to it, then a counter step and the
/// loop branch, and at the end stores its count there. Every lane runs in
/// every round, so the rounds retire 64 instructions each; after the
/// five-instruction prologue, round `5 + 4i + q` runs loop pc `5 + q` on
/// every lane, in iteration `i`.
fn word_loop_kernel(atomic: bool) -> gpu_arch::Kernel {
    let mut b = KernelBuilder::new("word-loop");
    b.s2r(r(0), SpecialReg::TidX);
    b.shl(r(2), r(0).into(), imm(2));
    b.ldp(r(3), 0);
    b.iadd(r(3), r(3).into(), r(2).into());
    b.mov(r(5), imm(1));
    b.label("top");
    if atomic {
        b.atomg_add(Reg::RZ, r(3), 0, r(5));
    } else {
        b.ldg(MemWidth::W32, r(4), r(3), 0);
    }
    b.iadd(r(1), r(1).into(), imm(1));
    b.isetp(Pred(1), CmpOp::Lt, r(1).into(), imm(40));
    b.if_p(Pred(1)).bra("top");
    b.stg(MemWidth::W32, r(3), 0, r(1));
    b.exit();
    b.build().unwrap()
}

/// Run `plan` on the word loop from zero or resumed from golden's nearest
/// snapshot, without a sink and with one, which keeps the repeat exit
/// off; the two must be the same run, and the plain one is returned.
fn against_the_sink(atomic: bool, plan: FaultPlan, resume: bool) -> gpu_sim::Executed {
    let device = DeviceModel::named("v100-sim");
    let kernel = word_loop_kernel(atomic);
    let launch = LaunchConfig::new(1, 64, vec![0]);
    let memory = GlobalMemory::new(256);
    let capture = RunOptions::golden().ecc(false).snapshot_every(256);
    let golden = run(&device, &kernel, &launch, memory.clone(), &capture);
    assert_eq!((golden.status, golden.counts.total), (ExecStatus::Completed, 64 * 167));
    let from = if resume { nearest(&golden, &plan) } else { None };
    assert_eq!(from.is_some(), resume, "{plan:?}");
    let opts = RunOptions::trial(plan).ecc(false).watchdog(4 * 64 * 167).resume(from);
    let plain = run(&device, &kernel, &launch, memory.clone(), &opts);
    let mut sink = obs::CountingSink::default();
    let traced =
        try_run_with_sink(&device, &kernel, &launch, memory, &opts, Some(&mut sink)).unwrap();
    assert_eq!(plain.status, ExecStatus::Due(DueKind::Watchdog), "{plan:?}");
    assert_eq!(traced.repeat_skipped, 0, "{plan:?}: a sink-attached run took the exit");
    assert_eq!(plain.status, traced.status, "{plan:?}");
    assert_eq!(plain.fault_triggered, traced.fault_triggered, "{plan:?}");
    assert_eq!(plain.memory, traced.memory, "{plan:?}");
    assert_eq!(plain.counts, traced.counts, "{plan:?}");
    assert_eq!(plain.rounds, traced.rounds, "{plan:?}");
    assert_eq!(plain.exit, None, "{plan:?}");
    plain
}

/// A stuck-at memory queue that replays every entry from a load in the
/// loop on, and a stuck-at fetch that replays that load's stale fetch at
/// every later fetch, both hang with every lane stuck on one load: the
/// state comes back to itself each round, one period of 64 instructions.
/// The repeat exit takes both, from zero and resumed from golden's nearest
/// snapshot, to the watchdog, and leaves one to two periods to run; the
/// runs equal the sink-attached ones, which never exit.
///
/// The skips follow the save schedule. Under the queue the plan fires in
/// round 45, at lane 5 of iteration 10's load, so the first round top it
/// is seen fired at is 46 × 64 = 2,944: the saves fall at 3,008 and 3,136
/// (lanes 0-4 still move at the first compare, at 3,072), and the compare
/// at 3,200 exits. Under the fetch plan the whole warp replays the load
/// from round 46 on: the first save falls at 3,072 and the compare at
/// 3,136 exits. `k = (limit - exit) / 64 - 1` periods.
#[test]
fn repeating_stuck_at_hangs_take_the_repeat_exit_from_zero_and_resumed() {
    use gpu_sim::{FetchEffect, MemQueueEffect, Persistence};
    let limit = 4 * 64 * 167;
    let stuck = Persistence::StuckAt;
    let cases = [
        (
            FaultPlan::MemQueue {
                nth: 64 * 10 + 5,
                effect: MemQueueEffect::Replay,
                persist: stuck,
            },
            3200,
        ),
        (FaultPlan::Fetch { at: 64 * 46, effect: FetchEffect::StaleReplay, persist: stuck }, 3136),
    ];
    for (plan, exit) in cases {
        let skipped = ((limit - exit) / 64 - 1) * 64;
        for resume in [false, true] {
            let out = against_the_sink(false, plan, resume);
            assert_eq!(out.repeat_skipped, skipped, "{plan:?} resumed {resume}");
            assert_eq!(out.counts.total, limit + 1, "{plan:?} resumed {resume}");
        }
    }
}

/// Stuck-at hangs whose state never comes back: a stale fetch that replays
/// the loop counter's step on every lane (the registers drift), and a
/// stuck-at queue that replays an atomic add with no destination (only
/// global memory drifts). Neither takes the repeat exit, and both equal
/// the sink-attached runs.
#[test]
fn drifting_stuck_at_hangs_do_not_take_the_repeat_exit() {
    use gpu_sim::{FetchEffect, MemQueueEffect, Persistence};
    let stuck = Persistence::StuckAt;
    let cases = [
        (false, FaultPlan::Fetch { at: 64 * 47, effect: FetchEffect::StaleReplay, persist: stuck }),
        (
            true,
            FaultPlan::MemQueue {
                nth: 64 * 10 + 5,
                effect: MemQueueEffect::Replay,
                persist: stuck,
            },
        ),
    ];
    for (atomic, plan) in cases {
        for resume in [false, true] {
            let out = against_the_sink(atomic, plan, resume);
            assert_eq!(out.repeat_skipped, 0, "{plan:?} resumed {resume}");
        }
    }
}
