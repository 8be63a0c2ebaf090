//! Snapshot capture and trial fast-forward: resuming from any golden
//! snapshot must reproduce the from-zero execution bit-for-bit, for every
//! fault-plan family (DESIGN.md §16).

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely

use gpu_arch::{
    CmpOp, DeviceModel, KernelBuilder, LaunchConfig, MemWidth, Operand, Pred, Reg, SpecialReg,
};
use gpu_sim::{
    nearest_snapshot, run, try_run_with_sink, BitFlip, EngineSnapshot, Executed, FaultPlan,
    FetchEffect, GlobalMemory, MemQueueEffect, Persistence, RunOptions, SimError, SiteClass,
    SNAPSHOT_CAP,
};
use std::sync::Arc;

fn r(i: u8) -> Reg {
    Reg(i)
}
fn imm(v: u32) -> Operand {
    Operand::Imm(v)
}

/// Multi-block kernel exercising loads, stores, integer/float arithmetic,
/// a SETP-guarded loop and divergence: out[i] = sum_{k=1..=i%7} k + 2*x[i].
fn fixture() -> (gpu_arch::Kernel, LaunchConfig, GlobalMemory) {
    let mut b = KernelBuilder::new("snapfix");
    b.s2r(r(0), SpecialReg::TidX);
    b.s2r(r(1), SpecialReg::CtaidX);
    b.s2r(r(2), SpecialReg::NtidX);
    b.imad(r(0), r(1).into(), r(2).into(), r(0).into()); // gid
    b.shl(r(3), r(0).into(), imm(2)); // byte offset
    b.ldp(r(4), 0);
    b.iadd(r(4), r(4).into(), r(3).into());
    b.ldg(MemWidth::W32, r(5), r(4), 0); // x[i]
    b.iadd(r(5), r(5).into(), r(5).into()); // 2*x[i]
                                            // bound = gid % 7 via gid - (gid >> 3 roughly): keep it simple, use AND.
    b.and(r(6), r(0).into(), imm(7)); // bound in 0..8
    b.mov(r(7), imm(0)); // acc
    b.mov(r(8), imm(0)); // k
    b.label("top");
    b.isetp(Pred(0), CmpOp::Lt, r(8).into(), r(6).into());
    b.if_p(Pred(0)).iadd(r(8), r(8).into(), imm(1));
    b.if_p(Pred(0)).iadd(r(7), r(7).into(), r(8).into());
    b.if_p(Pred(0)).bra("top");
    b.iadd(r(9), r(7).into(), r(5).into());
    b.ldp(r(10), 1);
    b.iadd(r(10), r(10).into(), r(3).into());
    b.stg(MemWidth::W32, r(10), 0, r(9));
    b.exit();
    let kernel = b.build().unwrap();
    let n = 128u32;
    let mut mem = GlobalMemory::new(8 * n);
    for i in 0..n {
        mem.write_u32_host(4 * i, 3 * i + 1).unwrap();
    }
    let launch = LaunchConfig::new(n / 32, 32, vec![0, 4 * n]);
    (kernel, launch, mem)
}

fn assert_bit_identical(a: &Executed, b: &Executed) {
    assert_eq!(a.status, b.status);
    assert_eq!(a.fault_triggered, b.fault_triggered);
    assert_eq!(a.counts.total, b.counts.total);
    assert_eq!(a.counts.per_unit, b.counts.per_unit);
    assert_eq!(a.counts.per_mix, b.counts.per_mix);
    assert_eq!(a.counts.warp_latency, b.counts.warp_latency);
    assert_eq!(a.counts.warp_instrs, b.counts.warp_instrs);
    assert_eq!(a.counts.sites, b.counts.sites);
    assert_eq!(a.memory.raw(), b.memory.raw());
}

fn golden_with_snapshots(stride: u64) -> (Vec<Arc<EngineSnapshot>>, Executed) {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = fixture();
    let out = run(&device, &kernel, &launch, mem, &RunOptions::golden().snapshot_every(stride));
    assert!(out.status.completed());
    (out.snapshots.clone(), out)
}

/// Divergence before a barrier: each thread spins `tid & 7` loop
/// iterations, stores its tid to shared memory, synchronizes, then thread
/// 0 of each block sums the block's shared array into `out[block]`.
/// Threads reach the barrier at different scheduler rounds, so
/// barrier-counter corruption has partial-arrival states to perturb.
fn barrier_fixture() -> (gpu_arch::Kernel, LaunchConfig, GlobalMemory) {
    let n = 64u32;
    let mut b = KernelBuilder::new("barfix");
    b.s2r(r(0), SpecialReg::TidX);
    b.and(r(6), r(0).into(), imm(7)); // per-thread loop bound
    b.mov(r(8), imm(0));
    b.label("spin");
    b.isetp(Pred(0), CmpOp::Lt, r(8).into(), r(6).into());
    b.if_p(Pred(0)).iadd(r(8), r(8).into(), imm(1));
    b.if_p(Pred(0)).bra("spin");
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
    b.s2r(r(7), SpecialReg::CtaidX);
    b.shl(r(7), r(7).into(), imm(2));
    b.ldp(r(9), 0);
    b.iadd(r(9), r(9).into(), r(7).into());
    b.stg(MemWidth::W32, r(9), 0, r(2));
    b.label("done");
    b.exit();
    b.shared(4 * n);
    let kernel = b.build().unwrap();
    let launch = LaunchConfig::new(2, n, vec![0]);
    (kernel, launch, GlobalMemory::new(8))
}

/// Run `plan` from zero and resumed from its nearest snapshot; both must
/// agree bit-for-bit.
fn check_parity(snapshots: &[Arc<EngineSnapshot>], plan: FaultPlan) -> bool {
    check_parity_on(fixture(), snapshots, plan)
}

/// [`check_parity`] generalized over the fixture.
fn check_parity_on(
    (kernel, launch, mem): (gpu_arch::Kernel, LaunchConfig, GlobalMemory),
    snapshots: &[Arc<EngineSnapshot>],
    plan: FaultPlan,
) -> bool {
    let device = DeviceModel::named("v100");
    // Stuck-at replay faults (mem-queue / fetch) never retire and would
    // spin forever; dyn_count advances identically in both runs, so a
    // watchdog far above any legitimate total preserves parity.
    let opts = RunOptions::trial(plan).watchdog(100_000);
    let from_zero = run(&device, &kernel, &launch, mem.clone(), &opts);
    match nearest_snapshot(snapshots, &plan) {
        Some(snap) => {
            let resumed = try_run_with_sink(
                &device,
                &kernel,
                &launch,
                mem,
                &opts.clone().resume(Some(Arc::clone(snap))),
                None,
            )
            .expect("resume accepted");
            assert!(
                resumed.counts.total >= from_zero.counts.total.saturating_sub(snap.dyn_count())
            );
            assert_bit_identical(&from_zero, &resumed);
            true
        }
        None => false,
    }
}

#[test]
fn snapshot_capture_does_not_change_the_run() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = fixture();
    let plain = run(&device, &kernel, &launch, mem.clone(), &RunOptions::golden());
    let (snapshots, with_snaps) = golden_with_snapshots(200);
    assert!(!snapshots.is_empty(), "expected snapshots on a {}-instr run", plain.counts.total);
    assert_bit_identical(&plain, &with_snaps);
    // Capture points are strictly increasing and mid-run.
    for pair in snapshots.windows(2) {
        assert!(pair[0].dyn_count() < pair[1].dyn_count());
    }
    assert!(snapshots.last().unwrap().dyn_count() < plain.counts.total);
}

#[test]
fn resume_reproduces_every_fault_family_bit_for_bit() {
    let (snapshots, golden) = golden_with_snapshots(150);
    let mut fast_forwarded = 0u32;
    let flip = BitFlip::single(3);
    let sites = golden.counts.sites;
    let mut plans = vec![
        FaultPlan::MemAddress { nth: sites.mem_ops * 3 / 4, flip },
        FaultPlan::PredicateOutput { nth: sites.setp * 3 / 4 },
        FaultPlan::Pc { at: golden.counts.total * 3 / 4, flip },
        FaultPlan::RegisterBit {
            block: u32::MAX,
            thread: 5,
            reg: 7,
            flip,
            at: golden.counts.total / 2,
        },
        FaultPlan::GlobalMemBit { byte: 40, bit: 2, at: golden.counts.total / 2, mbu: false },
        FaultPlan::SharedMemBit {
            block: 1,
            byte: 0,
            bit: 1,
            at: golden.counts.total / 2,
            mbu: true,
        },
        // A fault whose site is never reached: resumes from the last
        // snapshot and still matches (both runs are fault-free).
        FaultPlan::InstructionOutput { nth: u64::MAX, site: SiteClass::GprWriter, flip },
    ];
    for class in [SiteClass::GprWriter, SiteClass::IntArith, SiteClass::Load] {
        plans.push(FaultPlan::InstructionOutput { nth: sites.gpr_writers / 2, site: class, flip });
        plans.push(FaultPlan::InstructionOutputSet {
            nth: sites.gpr_writers - 1,
            site: class,
            value: 0,
        });
    }
    for plan in plans {
        if check_parity(&snapshots, plan) {
            fast_forwarded += 1;
        }
    }
    assert!(fast_forwarded >= 8, "only {fast_forwarded} plans found a usable snapshot");
}

#[test]
fn every_snapshot_of_every_stride_resumes_exactly() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = fixture();
    // A late fault qualifies every snapshot as a resume point.
    let plan = FaultPlan::Pc { at: u64::MAX, flip: BitFlip::single(1) };
    let from_zero = run(&device, &kernel, &launch, mem.clone(), &RunOptions::trial(plan));
    for stride in [75u64, 333, 1024] {
        let (snapshots, _) = golden_with_snapshots(stride);
        assert!(!snapshots.is_empty(), "stride {stride} captured nothing");
        for snap in &snapshots {
            assert!(snap.approx_bytes() > 0);
            let resumed = try_run_with_sink(
                &device,
                &kernel,
                &launch,
                mem.clone(),
                &RunOptions::trial(plan).resume(Some(Arc::clone(snap))),
                None,
            )
            .expect("resume accepted");
            assert_bit_identical(&from_zero, &resumed);
        }
    }
}

#[test]
fn nearest_snapshot_picks_the_latest_preceding() {
    let (snapshots, golden) = golden_with_snapshots(100);
    assert!(snapshots.len() >= 2);
    // A timed fault between the first two capture points must select the
    // first snapshot, not a later one.
    let at = snapshots[0].dyn_count();
    let plan = FaultPlan::Pc { at, flip: BitFlip::single(0) };
    let picked = nearest_snapshot(&snapshots, &plan).expect("found");
    assert_eq!(picked.dyn_count(), snapshots[0].dyn_count());
    // A fault before the first snapshot has no resume point.
    let early = FaultPlan::Pc { at: at - 1, flip: BitFlip::single(0) };
    assert!(nearest_snapshot(&snapshots, &early).is_none());
    // A fault after everything selects the last snapshot.
    let late = FaultPlan::Pc { at: golden.counts.total, flip: BitFlip::single(0) };
    let picked = nearest_snapshot(&snapshots, &late).expect("found");
    assert_eq!(picked.dyn_count(), snapshots.last().unwrap().dyn_count());
    // Golden plans never fast-forward.
    assert!(nearest_snapshot(&snapshots, &FaultPlan::None).is_none());
}

#[test]
fn resume_conflicts_are_rejected() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = fixture();
    let (snapshots, _) = golden_with_snapshots(200);
    let snap = Arc::clone(snapshots.last().unwrap());
    let plan = FaultPlan::Pc { at: u64::MAX, flip: BitFlip::single(0) };
    let conflict = |opts: RunOptions| {
        matches!(
            try_run_with_sink(&device, &kernel, &launch, mem.clone(), &opts, None),
            Err(SimError::ResumeConflict(_))
        )
    };
    // Recording or re-capturing during a resumed run is rejected.
    assert!(conflict(RunOptions::trial(plan).resume(Some(Arc::clone(&snap))).record_sites(true)));
    assert!(conflict(RunOptions::trial(plan).resume(Some(Arc::clone(&snap))).snapshot_every(64)));
    // A golden (fault-free) resume has no site to guard and is rejected.
    assert!(conflict(RunOptions::golden().resume(Some(Arc::clone(&snap)))));
    // A fault that fires inside the skipped prefix is rejected.
    let early = FaultPlan::Pc { at: 0, flip: BitFlip::single(0) };
    assert!(conflict(RunOptions::trial(early).resume(Some(Arc::clone(&snap)))));
    // Geometry mismatch (different memory size) is rejected.
    let bad_mem = GlobalMemory::new(16);
    assert!(matches!(
        try_run_with_sink(
            &device,
            &kernel,
            &launch,
            bad_mem,
            &RunOptions::trial(plan).resume(Some(snap)),
            None,
        ),
        Err(SimError::ResumeConflict(_))
    ));
}

#[test]
fn hidden_faults_resume_bit_identical() {
    // Every hidden-resource plan family, both persistence modes, with a
    // trigger in the run's second half so a snapshot precedes it: the
    // fast-forwarded trial must reproduce the from-zero one exactly.
    let (snapshots, golden) = golden_with_snapshots(150);
    let mid = golden.counts.total / 2;
    let memq_nth = golden.counts.sites.mem_ops * 3 / 4;
    let flip = BitFlip::single(1);
    let mut fast_forwarded = 0u32;
    for persist in [Persistence::Transient, Persistence::StuckAt] {
        let plans = [
            FaultPlan::SchedulerNextPc { at: mid, warp: 1, flip, persist },
            FaultPlan::SchedulerPriority { at: mid, warp: 2, persist },
            FaultPlan::ActiveMask { at: mid, warp: 0, flip: BitFlip::double(0, 7), persist },
            FaultPlan::MemQueue { nth: memq_nth, effect: MemQueueEffect::Drop, persist },
            FaultPlan::MemQueue { nth: memq_nth, effect: MemQueueEffect::Replay, persist },
            FaultPlan::MemQueue { nth: memq_nth, effect: MemQueueEffect::Flag, persist },
            FaultPlan::Fetch { at: mid, effect: FetchEffect::StaleReplay, persist },
            FaultPlan::Fetch {
                at: mid,
                effect: FetchEffect::OpcodeFlip(BitFlip::single(2)),
                persist,
            },
        ];
        for plan in plans {
            if check_parity(&snapshots, plan) {
                fast_forwarded += 1;
            }
        }
    }
    assert!(fast_forwarded >= 12, "only {fast_forwarded} hidden plans found a usable snapshot");

    // Barrier-counter corruption needs a kernel with barriers (and
    // divergent arrival); snapshots come from its own golden run.
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = barrier_fixture();
    let bar_golden = run(&device, &kernel, &launch, mem, &RunOptions::golden().snapshot_every(150));
    assert!(bar_golden.status.completed());
    let bar_mid = bar_golden.counts.total / 2;
    let mut bar_forwarded = 0u32;
    for persist in [Persistence::Transient, Persistence::StuckAt] {
        for phantom in [false, true] {
            let plan = FaultPlan::BarrierCounter { at: bar_mid, phantom, persist };
            if check_parity_on(barrier_fixture(), &bar_golden.snapshots, plan) {
                bar_forwarded += 1;
            }
        }
    }
    assert!(bar_forwarded >= 2, "only {bar_forwarded} barrier plans found a usable snapshot");
}

/// Shared scaffolding for the per-variant resume-conflict tests: a plan
/// whose trigger precedes the snapshot's capture point must never
/// fast-forward — `nearest_snapshot` refuses the snapshot and a forced
/// resume hard-errors as [`SimError::ResumeConflict`]. Hidden-resource
/// corruption (especially stuck-at) perturbs all state from its trigger
/// on, so skipping past it would silently drop the fault.
fn assert_conflict(plan: FaultPlan) {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = fixture();
    let (snapshots, _) = golden_with_snapshots(200);
    let snap = Arc::clone(snapshots.last().unwrap());
    assert!(snap.dyn_count() > 0);
    assert!(
        nearest_snapshot(&[Arc::clone(&snap)], &plan).is_none(),
        "nearest_snapshot accepted a snapshot past the trigger of {plan:?}"
    );
    assert!(
        matches!(
            try_run_with_sink(
                &device,
                &kernel,
                &launch,
                mem,
                &RunOptions::trial(plan).resume(Some(snap)),
                None,
            ),
            Err(SimError::ResumeConflict(_))
        ),
        "forced resume past the trigger of {plan:?} was not rejected"
    );
}

#[test]
fn scheduler_next_pc_cannot_fast_forward_past_trigger() {
    for persist in [Persistence::Transient, Persistence::StuckAt] {
        assert_conflict(FaultPlan::SchedulerNextPc {
            at: 0,
            warp: 0,
            flip: BitFlip::single(0),
            persist,
        });
    }
}

#[test]
fn scheduler_priority_cannot_fast_forward_past_trigger() {
    for persist in [Persistence::Transient, Persistence::StuckAt] {
        assert_conflict(FaultPlan::SchedulerPriority { at: 0, warp: 0, persist });
    }
}

#[test]
fn active_mask_cannot_fast_forward_past_trigger() {
    for persist in [Persistence::Transient, Persistence::StuckAt] {
        assert_conflict(FaultPlan::ActiveMask {
            at: 0,
            warp: 0,
            flip: BitFlip::single(3),
            persist,
        });
    }
}

#[test]
fn barrier_counter_cannot_fast_forward_past_trigger() {
    for persist in [Persistence::Transient, Persistence::StuckAt] {
        for phantom in [false, true] {
            assert_conflict(FaultPlan::BarrierCounter { at: 0, phantom, persist });
        }
    }
}

#[test]
fn mem_queue_cannot_fast_forward_past_trigger() {
    for persist in [Persistence::Transient, Persistence::StuckAt] {
        for effect in [MemQueueEffect::Drop, MemQueueEffect::Replay, MemQueueEffect::Flag] {
            assert_conflict(FaultPlan::MemQueue { nth: 0, effect, persist });
        }
    }
}

#[test]
fn fetch_cannot_fast_forward_past_trigger() {
    for persist in [Persistence::Transient, Persistence::StuckAt] {
        for effect in [FetchEffect::StaleReplay, FetchEffect::OpcodeFlip(BitFlip::single(1))] {
            assert_conflict(FaultPlan::Fetch { at: 0, effect, persist });
        }
    }
}

#[test]
fn capture_count_stays_bounded_by_doubling() {
    // Stride 1 would capture at every scheduler round; the doubling
    // compaction must keep the count at or under SNAPSHOT_CAP.
    let (snapshots, golden) = golden_with_snapshots(1);
    assert!(snapshots.len() <= SNAPSHOT_CAP);
    assert!(snapshots.len() >= SNAPSHOT_CAP / 4, "compaction dropped too much");
    assert!(golden.status.completed());
}
