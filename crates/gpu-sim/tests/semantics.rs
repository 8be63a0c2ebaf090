//! Instruction-level semantic tests for the less-traveled ops:
//! conversions, saturation, shifts, min/max, SFU functions, selects, and
//! predicate-guard corner cases.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely

use gpu_arch::{
    CmpOp, DeviceModel, KernelBuilder, LaunchConfig, MemWidth, Operand, Pred, Reg, SpecialReg,
};
use gpu_sim::{run, ExecStatus, GlobalMemory, RunOptions};

fn r(i: u8) -> Reg {
    Reg(i)
}
fn imm(v: u32) -> Operand {
    Operand::Imm(v)
}
fn immf(v: f32) -> Operand {
    Operand::imm_f32(v)
}

/// Run a one-thread kernel built by `body`, returning the 32 bytes the
/// kernel stored at the output base (param 0 = 0).
fn run1(body: impl FnOnce(&mut KernelBuilder)) -> GlobalMemory {
    let mut b = KernelBuilder::new("sem");
    body(&mut b);
    b.exit();
    let k = b.build().unwrap();
    let out = run(
        &DeviceModel::named("v100-sim"),
        &k,
        &LaunchConfig::new(1, 1, vec![0]),
        GlobalMemory::new(64),
        &RunOptions::golden(),
    );
    assert_eq!(out.status, ExecStatus::Completed);
    out.memory
}

#[test]
fn f2i_truncates_and_saturates() {
    let mem = run1(|b| {
        b.ldp(r(9), 0);
        b.mov(r(0), immf(3.99));
        b.f2i(r(1), r(0).into());
        b.stg(MemWidth::W32, r(9), 0, r(1));
        b.mov(r(0), immf(-3.99));
        b.f2i(r(1), r(0).into());
        b.stg(MemWidth::W32, r(9), 4, r(1));
        b.mov(r(0), immf(3.0e10)); // > i32::MAX: saturates
        b.f2i(r(1), r(0).into());
        b.stg(MemWidth::W32, r(9), 8, r(1));
        b.mov(r(0), immf(f32::NAN));
        b.f2i(r(1), r(0).into());
        b.stg(MemWidth::W32, r(9), 12, r(1));
    });
    assert_eq!(mem.read_u32_host(0).unwrap() as i32, 3);
    assert_eq!(mem.read_u32_host(4).unwrap() as i32, -3);
    assert_eq!(mem.read_u32_host(8).unwrap() as i32, i32::MAX);
    assert_eq!(mem.read_u32_host(12).unwrap() as i32, 0); // NaN -> 0, like cvt.rzi
}

#[test]
fn conversion_chain_f32_f64_roundtrip() {
    let mem = run1(|b| {
        b.ldp(r(9), 0);
        b.mov(r(0), immf(1.25));
        b.f2d(r(2), r(0).into()); // pair r2:r3
        b.dmul(r(4), r(2).into(), r(2).into()); // 1.5625
        b.d2f(r(1), r(4).into());
        b.stg(MemWidth::W32, r(9), 0, r(1));
    });
    assert_eq!(mem.read_f32_host(0).unwrap(), 1.5625);
}

#[test]
fn half_conversion_rounds_to_nearest_even() {
    let mem = run1(|b| {
        b.ldp(r(9), 0);
        // 1 + 2^-11 is the RNE tie: rounds to 1.0 in binary16.
        b.mov(r(0), immf(1.0 + 2.0f32.powi(-11)));
        b.f2h(r(1), r(0).into());
        b.h2f(r(2), r(1).into());
        b.stg(MemWidth::W32, r(9), 0, r(2));
    });
    assert_eq!(mem.read_f32_host(0).unwrap(), 1.0);
}

#[test]
fn shifts_mask_their_amounts() {
    let mem = run1(|b| {
        b.ldp(r(9), 0);
        b.mov(r(0), imm(0x8000_0001));
        b.shl(r(1), r(0).into(), imm(33)); // 33 & 31 = 1
        b.stg(MemWidth::W32, r(9), 0, r(1));
        b.shr(r(1), r(0).into(), imm(1));
        b.stg(MemWidth::W32, r(9), 4, r(1));
        b.asr(r(1), r(0).into(), imm(1));
        b.stg(MemWidth::W32, r(9), 8, r(1));
    });
    assert_eq!(mem.read_u32_host(0).unwrap(), 0x0000_0002);
    assert_eq!(mem.read_u32_host(4).unwrap(), 0x4000_0000);
    assert_eq!(mem.read_u32_host(8).unwrap(), 0xC000_0000);
}

#[test]
fn imin_imax_are_signed() {
    let mem = run1(|b| {
        b.ldp(r(9), 0);
        b.mov(r(0), Operand::imm_i32(-5));
        b.mov(r(1), imm(3));
        b.imin(r(2), r(0).into(), r(1).into());
        b.imax(r(3), r(0).into(), r(1).into());
        b.stg(MemWidth::W32, r(9), 0, r(2));
        b.stg(MemWidth::W32, r(9), 4, r(3));
    });
    assert_eq!(mem.read_u32_host(0).unwrap() as i32, -5);
    assert_eq!(mem.read_u32_host(4).unwrap() as i32, 3);
}

#[test]
fn fmin_fmax_follow_ieee_like_f32() {
    let mem = run1(|b| {
        b.ldp(r(9), 0);
        b.mov(r(0), immf(-0.5));
        b.mov(r(1), immf(2.5));
        b.fmin(r(2), r(0).into(), r(1).into());
        b.fmax(r(3), r(0).into(), r(1).into());
        b.stg(MemWidth::W32, r(9), 0, r(2));
        b.stg(MemWidth::W32, r(9), 4, r(3));
    });
    assert_eq!(mem.read_f32_host(0).unwrap(), -0.5);
    assert_eq!(mem.read_f32_host(4).unwrap(), 2.5);
}

#[test]
fn sfu_rcp_and_sqrt() {
    let mem = run1(|b| {
        b.ldp(r(9), 0);
        b.mov(r(0), immf(8.0));
        b.frcp(r(1), r(0).into());
        b.fsqrt(r(2), r(0).into());
        b.stg(MemWidth::W32, r(9), 0, r(1));
        b.stg(MemWidth::W32, r(9), 4, r(2));
        // double variants through a pair
        b.f2d(r(4), r(0).into());
        b.drcp(r(6), r(4).into());
        b.d2f(r(3), r(6).into());
        b.stg(MemWidth::W32, r(9), 8, r(3));
        b.dsqrt(r(6), r(4).into());
        b.d2f(r(3), r(6).into());
        b.stg(MemWidth::W32, r(9), 12, r(3));
    });
    assert_eq!(mem.read_f32_host(0).unwrap(), 0.125);
    assert_eq!(mem.read_f32_host(4).unwrap(), 8.0f32.sqrt());
    assert_eq!(mem.read_f32_host(8).unwrap(), 0.125);
    assert_eq!(mem.read_f32_host(12).unwrap(), (8.0f64).sqrt() as f32);
}

#[test]
fn sel_respects_negation() {
    let mem = run1(|b| {
        b.ldp(r(9), 0);
        b.mov(r(0), imm(1));
        b.isetp(Pred(0), CmpOp::Eq, r(0).into(), imm(1)); // true
        b.sel(r(1), imm(10), imm(20), Pred(0), false);
        b.sel(r(2), imm(10), imm(20), Pred(0), true);
        b.stg(MemWidth::W32, r(9), 0, r(1));
        b.stg(MemWidth::W32, r(9), 4, r(2));
    });
    assert_eq!(mem.read_u32_host(0).unwrap(), 10);
    assert_eq!(mem.read_u32_host(4).unwrap(), 20);
}

#[test]
fn guarded_store_is_suppressed() {
    let mem = run1(|b| {
        b.ldp(r(9), 0);
        b.mov(r(0), imm(99));
        b.stg(MemWidth::W32, r(9), 0, r(0));
        b.isetp(Pred(0), CmpOp::Eq, r(0).into(), imm(0)); // false
        b.mov(r(1), imm(7));
        b.if_p(Pred(0)).stg(MemWidth::W32, r(9), 0, r(1)); // suppressed
        b.if_not_p(Pred(0)).stg(MemWidth::W32, r(9), 4, r(1)); // executes
    });
    assert_eq!(mem.read_u32_host(0).unwrap(), 99);
    assert_eq!(mem.read_u32_host(4).unwrap(), 7);
}

#[test]
fn fp_compare_handles_nan_like_setp() {
    let mem = run1(|b| {
        b.ldp(r(9), 0);
        b.mov(r(0), immf(f32::NAN));
        b.mov(r(1), immf(1.0));
        // Ordered comparisons with NaN are false...
        b.fsetp(Pred(0), CmpOp::Lt, r(0).into(), r(1).into());
        b.sel(r(2), imm(1), imm(0), Pred(0), false);
        b.stg(MemWidth::W32, r(9), 0, r(2));
        // ...but NE (setp.neu) is true when unordered.
        b.fsetp(Pred(1), CmpOp::Ne, r(0).into(), r(1).into());
        b.sel(r(2), imm(1), imm(0), Pred(1), false);
        b.stg(MemWidth::W32, r(9), 4, r(2));
    });
    assert_eq!(mem.read_u32_host(0).unwrap(), 0);
    assert_eq!(mem.read_u32_host(4).unwrap(), 1);
}

#[test]
fn bitwise_ops() {
    let mem = run1(|b| {
        b.ldp(r(9), 0);
        b.mov(r(0), imm(0b1100));
        b.mov(r(1), imm(0b1010));
        b.and(r(2), r(0).into(), r(1).into());
        b.or(r(3), r(0).into(), r(1).into());
        b.xor(r(4), r(0).into(), r(1).into());
        b.not(r(5), r(0).into());
        b.stg(MemWidth::W32, r(9), 0, r(2));
        b.stg(MemWidth::W32, r(9), 4, r(3));
        b.stg(MemWidth::W32, r(9), 8, r(4));
        b.stg(MemWidth::W32, r(9), 12, r(5));
    });
    assert_eq!(mem.read_u32_host(0).unwrap(), 0b1000);
    assert_eq!(mem.read_u32_host(4).unwrap(), 0b1110);
    assert_eq!(mem.read_u32_host(8).unwrap(), 0b0110);
    assert_eq!(mem.read_u32_host(12).unwrap(), !0b1100u32);
}

#[test]
fn special_registers_2d() {
    // Check CtaidY/TidY/Ntid propagation in a 2-D launch.
    let mut b = KernelBuilder::new("ids");
    b.s2r(r(0), SpecialReg::TidX);
    b.s2r(r(1), SpecialReg::TidY);
    b.s2r(r(2), SpecialReg::CtaidX);
    b.s2r(r(3), SpecialReg::CtaidY);
    b.s2r(r(4), SpecialReg::NtidX);
    b.s2r(r(5), SpecialReg::NtidY);
    b.s2r(r(6), SpecialReg::NctaidX);
    b.s2r(r(7), SpecialReg::NctaidY);
    // linear global id = ((ctaidY*ntidY + tidY) * (nctaidX*ntidX)) + ctaidX*ntidX + tidX
    b.imad(r(10), r(3).into(), r(5).into(), r(1).into());
    b.imul(r(11), r(6).into(), r(4).into());
    b.imul(r(10), r(10).into(), r(11).into());
    b.imad(r(11), r(2).into(), r(4).into(), r(0).into());
    b.iadd(r(10), r(10).into(), r(11).into());
    b.shl(r(12), r(10).into(), imm(2));
    b.ldp(r(13), 0);
    b.iadd(r(13), r(13).into(), r(12).into());
    b.stg(MemWidth::W32, r(13), 0, r(10));
    b.exit();
    let k = b.build().unwrap();
    let launch =
        gpu_arch::LaunchConfig::new_2d(gpu_arch::Dim::d2(2, 2), gpu_arch::Dim::d2(4, 2), vec![0]);
    let out = run(
        &DeviceModel::named("k40c-sim"),
        &k,
        &launch,
        GlobalMemory::new(4 * 32),
        &RunOptions::golden(),
    );
    assert_eq!(out.status, ExecStatus::Completed);
    for i in 0..32u32 {
        assert_eq!(out.memory.read_u32_host(4 * i).unwrap(), i, "gid {i}");
    }
}

#[test]
fn barrier_with_exited_threads_releases() {
    // Half the block exits before the barrier. Modern GPUs count exited
    // threads as arrived, so the barrier releases — the engine models
    // that, and the run completes.
    let mut b = KernelBuilder::new("divbar");
    b.s2r(r(0), SpecialReg::TidX);
    b.and(r(1), r(0).into(), imm(1));
    b.isetp(Pred(0), CmpOp::Eq, r(1).into(), imm(1));
    b.if_p(Pred(0)).bra("skip");
    b.bar();
    b.label("skip");
    b.exit();
    let k = b.build().unwrap();
    let out = run(
        &DeviceModel::named("v100-sim"),
        &k,
        &LaunchConfig::new(1, 64, vec![]),
        GlobalMemory::new(4),
        &RunOptions::golden(),
    );
    assert_eq!(out.status, ExecStatus::Completed);
}

#[test]
fn warp_sync_with_exited_lane_is_deadlock_due() {
    // A warp-synchronous SHFL requires every lane; if some lanes already
    // exited, the warp can never assemble — a hang the device reports.
    use gpu_arch::ShflMode;
    let mut b = KernelBuilder::new("deadshfl");
    b.s2r(r(0), SpecialReg::LaneId);
    b.isetp(Pred(0), CmpOp::Lt, r(0).into(), imm(16));
    b.if_p(Pred(0)).bra("quit"); // lanes 0..16 exit early
    b.shfl(ShflMode::Idx, r(1), r(0), imm(0));
    b.label("quit");
    b.exit();
    let k = b.build().unwrap();
    let out = run(
        &DeviceModel::named("v100-sim"),
        &k,
        &LaunchConfig::new(1, 32, vec![]),
        GlobalMemory::new(4),
        &RunOptions::golden(),
    );
    assert_eq!(out.status, ExecStatus::Due(gpu_sim::DueKind::BarrierDeadlock));
}
