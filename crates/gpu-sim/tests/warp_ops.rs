//! Tests for warp shuffles, atomics, and value-replacement faults.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely

use gpu_arch::{
    CmpOp, DeviceModel, KernelBuilder, LaunchConfig, MemWidth, Operand, Pred, Reg, ShflMode,
    SpecialReg,
};
use gpu_sim::{run, DueKind, ExecStatus, FaultPlan, GlobalMemory, RunOptions, SiteClass};

fn r(i: u8) -> Reg {
    Reg(i)
}
fn imm(v: u32) -> Operand {
    Operand::Imm(v)
}

#[test]
fn shfl_idx_broadcasts_lane_zero() {
    let mut b = KernelBuilder::new("bcast");
    b.s2r(r(0), SpecialReg::LaneId);
    b.imul(r(1), r(0).into(), imm(10)); // value = lane*10
    b.shfl(ShflMode::Idx, r(2), r(1), imm(0)); // broadcast lane 0
    b.ldp(r(3), 0);
    b.shl(r(4), r(0).into(), imm(2));
    b.iadd(r(3), r(3).into(), r(4).into());
    b.stg(MemWidth::W32, r(3), 0, r(2));
    b.exit();
    let k = b.build().unwrap();
    let out = run(
        &DeviceModel::named("v100-sim"),
        &k,
        &LaunchConfig::new(1, 32, vec![0]),
        GlobalMemory::new(128),
        &RunOptions::golden(),
    );
    assert_eq!(out.status, ExecStatus::Completed);
    for lane in 0..32 {
        assert_eq!(out.memory.read_u32_host(4 * lane).unwrap(), 0, "lane {lane}");
    }
}

#[test]
fn shfl_bfly_reduction_sums_warp() {
    // Classic butterfly reduction: after log2(32) steps every lane holds
    // the warp sum.
    let mut b = KernelBuilder::new("reduce");
    b.s2r(r(0), SpecialReg::LaneId);
    b.iadd(r(1), r(0).into(), imm(1)); // value = lane+1; sum = 32*33/2 = 528
    for delta in [16u32, 8, 4, 2, 1] {
        b.shfl(ShflMode::Bfly, r(2), r(1), imm(delta));
        b.iadd(r(1), r(1).into(), r(2).into());
    }
    b.ldp(r(3), 0);
    b.shl(r(4), r(0).into(), imm(2));
    b.iadd(r(3), r(3).into(), r(4).into());
    b.stg(MemWidth::W32, r(3), 0, r(1));
    b.exit();
    let k = b.build().unwrap();
    let out = run(
        &DeviceModel::named("v100-sim"),
        &k,
        &LaunchConfig::new(1, 32, vec![0]),
        GlobalMemory::new(128),
        &RunOptions::golden(),
    );
    assert_eq!(out.status, ExecStatus::Completed);
    for lane in 0..32 {
        assert_eq!(out.memory.read_u32_host(4 * lane).unwrap(), 528, "lane {lane}");
    }
}

#[test]
fn shfl_up_down_clamp_at_warp_edges() {
    let mut b = KernelBuilder::new("updown");
    b.s2r(r(0), SpecialReg::LaneId);
    b.shfl(ShflMode::Up, r(1), r(0), imm(1)); // lane i gets lane max(i-1,0)
    b.shfl(ShflMode::Down, r(2), r(0), imm(1)); // lane i gets lane min(i+1,31)
    b.ldp(r(3), 0);
    b.shl(r(4), r(0).into(), imm(3));
    b.iadd(r(3), r(3).into(), r(4).into());
    b.stg(MemWidth::W32, r(3), 0, r(1));
    b.stg(MemWidth::W32, r(3), 4, r(2));
    b.exit();
    let k = b.build().unwrap();
    let out = run(
        &DeviceModel::named("v100-sim"),
        &k,
        &LaunchConfig::new(1, 32, vec![0]),
        GlobalMemory::new(256),
        &RunOptions::golden(),
    );
    for lane in 0..32u32 {
        assert_eq!(out.memory.read_u32_host(8 * lane).unwrap(), lane.saturating_sub(1));
        assert_eq!(out.memory.read_u32_host(8 * lane + 4).unwrap(), (lane + 1).min(31));
    }
}

#[test]
fn atomic_add_counts_all_threads() {
    // 64 threads increment one global counter; each also records the old
    // value it saw — all old values must be distinct (atomicity).
    let mut b = KernelBuilder::new("count");
    b.s2r(r(0), SpecialReg::TidX);
    b.s2r(r(6), SpecialReg::CtaidX);
    b.imad(r(0), r(6).into(), imm(32), r(0).into()); // global id
    b.ldp(r(1), 0); // counter base
    b.ldp(r(2), 1); // log base
    b.mov(r(3), imm(1));
    b.atomg_add(r(4), r(1), 0, r(3));
    b.shl(r(5), r(0).into(), imm(2));
    b.iadd(r(2), r(2).into(), r(5).into());
    b.stg(MemWidth::W32, r(2), 0, r(4));
    b.exit();
    let k = b.build().unwrap();
    let out = run(
        &DeviceModel::named("k40c-sim"),
        &k,
        &LaunchConfig::new(2, 32, vec![0, 4]),
        GlobalMemory::new(4 + 4 * 64),
        &RunOptions::golden(),
    );
    assert_eq!(out.status, ExecStatus::Completed);
    assert_eq!(out.memory.read_u32_host(0).unwrap(), 64);
    let mut seen: Vec<u32> =
        (0..64).map(|i| out.memory.read_u32_host(4 + 4 * i).unwrap()).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..64).collect::<Vec<u32>>());
}

#[test]
fn shared_atomic_add_histogram() {
    // Threads bucket tid % 4 into a shared histogram, then thread 0 copies
    // it out.
    let mut b = KernelBuilder::new("hist");
    b.shared(16);
    b.s2r(r(0), SpecialReg::TidX);
    b.and(r(1), r(0).into(), imm(3));
    b.shl(r(1), r(1).into(), imm(2));
    b.mov(r(2), imm(1));
    b.atoms_add(r(3), r(1), 0, r(2));
    b.bar();
    b.isetp(Pred(0), CmpOp::Ne, r(0).into(), imm(0));
    b.if_p(Pred(0)).bra("done");
    b.ldp(r(4), 0);
    for bucket in 0..4u32 {
        b.mov(r(5), imm(bucket * 4));
        b.lds(MemWidth::W32, r(6), r(5), 0);
        b.stg(MemWidth::W32, r(4), bucket * 4, r(6));
    }
    b.label("done");
    b.exit();
    let k = b.build().unwrap();
    let out = run(
        &DeviceModel::named("v100-sim"),
        &k,
        &LaunchConfig::new(1, 64, vec![0]),
        GlobalMemory::new(16),
        &RunOptions::golden(),
    );
    assert_eq!(out.status, ExecStatus::Completed);
    for bucket in 0..4 {
        assert_eq!(out.memory.read_u32_host(4 * bucket).unwrap(), 16, "bucket {bucket}");
    }
}

#[test]
fn misaligned_atomic_is_due() {
    let mut b = KernelBuilder::new("bad");
    b.mov(r(0), imm(2));
    b.mov(r(1), imm(1));
    b.atomg_add(r(2), r(0), 0, r(1));
    b.exit();
    let k = b.build().unwrap();
    let out = run(
        &DeviceModel::named("v100-sim"),
        &k,
        &LaunchConfig::new(1, 1, vec![]),
        GlobalMemory::new(64),
        &RunOptions::golden(),
    );
    assert_eq!(out.status, ExecStatus::Due(DueKind::MemoryViolation));
}

#[test]
fn value_set_fault_zeroes_an_output() {
    // Zero-value injection into the only IADD of a 1-thread kernel.
    let mut b = KernelBuilder::new("zv");
    b.mov(r(0), imm(5));
    b.iadd(r(1), r(0).into(), imm(7)); // 12, replaced by 0
    b.ldp(r(2), 0);
    b.stg(MemWidth::W32, r(2), 0, r(1));
    b.exit();
    let k = b.build().unwrap();
    let launch = LaunchConfig::new(1, 1, vec![0]);
    let opts = RunOptions::trial(FaultPlan::InstructionOutputSet {
        nth: 0,
        site: SiteClass::IntArith,
        value: 0,
    })
    .ecc(false)
    .watchdog(10_000);
    let out = run(&DeviceModel::named("k40c-sim"), &k, &launch, GlobalMemory::new(4), &opts);
    assert_eq!(out.status, ExecStatus::Completed);
    assert!(out.fault_triggered);
    assert_eq!(out.memory.read_u32_host(0).unwrap(), 0);
}

#[test]
fn shfl_output_fault_corrupts_one_lane() {
    let mut b = KernelBuilder::new("shflfault");
    b.s2r(r(0), SpecialReg::LaneId);
    b.shfl(ShflMode::Idx, r(1), r(0), imm(0)); // all lanes get 0
    b.ldp(r(2), 0);
    b.shl(r(3), r(0).into(), imm(2));
    b.iadd(r(2), r(2).into(), r(3).into());
    b.stg(MemWidth::W32, r(2), 0, r(1));
    b.exit();
    let k = b.build().unwrap();
    let launch = LaunchConfig::new(1, 32, vec![0]);
    // 32 S2Rs execute first (one per lane); the warp-wide SHFL is the
    // 33rd GPR-writing instruction.
    let opts = RunOptions::trial(FaultPlan::InstructionOutput {
        nth: 32,
        site: SiteClass::GprWriter,
        flip: gpu_sim::BitFlip::single(4),
    })
    .ecc(false)
    .watchdog(100_000);
    let out = run(&DeviceModel::named("v100-sim"), &k, &launch, GlobalMemory::new(128), &opts);
    assert_eq!(out.status, ExecStatus::Completed);
    assert!(out.fault_triggered);
    // Exactly one lane's stored value differs from 0.
    let corrupted = (0..32).filter(|&l| out.memory.read_u32_host(4 * l).unwrap() != 0).count();
    assert_eq!(corrupted, 1);
}
