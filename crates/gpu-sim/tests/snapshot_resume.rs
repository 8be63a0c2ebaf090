//! Snapshot capture and trial fast-forward: resuming from any golden
//! snapshot must reproduce the from-zero execution bit-for-bit, for every
//! fault-plan family (DESIGN.md §16).

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely

use gpu_arch::{
    CmpOp, DeviceModel, InstrMeta, KernelBuilder, LaunchConfig, MemWidth, Operand, Pred, Reg,
    SpecialReg,
};
use gpu_sim::{
    run, run_with_sink, trigger_position, try_run_with_sink, BitFlip, EngineSnapshot, Executed,
    FaultPlan, FetchEffect, GlobalMemory, MemQueueEffect, Persistence, RunOptions, SimError,
    SiteClass, SNAPSHOT_CAP,
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

/// The latest of `golden`'s snapshots that precedes `plan`, as
/// [`trigger_position`] counts them.
fn nearest<'a>(golden: &'a Executed, plan: &FaultPlan) -> Option<&'a Arc<EngineSnapshot>> {
    let (k, _) = trigger_position(&golden.snapshots, &golden.counts, plan);
    k.checked_sub(1).map(|i| &golden.snapshots[i])
}

/// Run `plan` from zero and resumed from the nearest snapshot of the
/// fixture's golden run `golden`; both must agree bit-for-bit.
fn check_parity(golden: &Executed, plan: FaultPlan) -> bool {
    check_parity_on(fixture(), golden, plan)
}

/// [`check_parity`] generalized over the fixture.
fn check_parity_on(
    (kernel, launch, mem): (gpu_arch::Kernel, LaunchConfig, GlobalMemory),
    golden: &Executed,
    plan: FaultPlan,
) -> bool {
    let device = DeviceModel::named("v100");
    // Stuck-at replay faults (mem-queue / fetch) never retire and would
    // spin forever; dyn_count advances identically in both runs, so a
    // watchdog far above any legitimate total preserves parity.
    let opts = RunOptions::trial(plan).watchdog(100_000);
    let from_zero = run(&device, &kernel, &launch, mem.clone(), &opts);
    match nearest(golden, &plan) {
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
    let (_, golden) = golden_with_snapshots(150);
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
        if check_parity(&golden, plan) {
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
fn trigger_position_picks_the_latest_preceding_snapshot() {
    let (snapshots, golden) = golden_with_snapshots(100);
    assert!(snapshots.len() >= 2);
    let picked = |plan: FaultPlan| nearest(&golden, &plan).map(|s| s.dyn_count());
    // A timed fault between the first two capture points must select the
    // first snapshot, not a later one.
    let at = snapshots[0].dyn_count();
    assert_eq!(picked(FaultPlan::Pc { at, flip: BitFlip::single(0) }), Some(at));
    // A fault before the first snapshot has no resume point.
    assert_eq!(picked(FaultPlan::Pc { at: at - 1, flip: BitFlip::single(0) }), None);
    // A fault after everything selects the last snapshot.
    let late = FaultPlan::Pc { at: golden.counts.total, flip: BitFlip::single(0) };
    assert_eq!(picked(late), Some(snapshots.last().unwrap().dyn_count()));
    // Golden plans never fast-forward.
    assert_eq!(picked(FaultPlan::None), None);
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
    // A snapshot past the watchdog limit is rejected: a run from zero
    // trips before it, at the limit plus one.
    let limit = snap.dyn_count();
    assert!(!conflict(RunOptions::trial(plan).watchdog(limit).resume(Some(Arc::clone(&snap)))));
    assert!(conflict(RunOptions::trial(plan).watchdog(limit - 1).resume(Some(Arc::clone(&snap)))));
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

/// The `<=` edge of [`EngineSnapshot::precedes`], for each counter a
/// trigger is numbered in (class matches, memory ops, `SETP`s, the
/// dynamic count): a plan whose trigger equals a snapshot's counter
/// resumes from that snapshot, fires, and matches its run from zero bit
/// for bit; one tick earlier is a conflict. The snapshot's memory-op and
/// `SETP` counts are read off the golden run's trace: the fixture guards
/// neither.
#[test]
fn a_trigger_at_a_snapshots_counter_resumes_and_one_tick_earlier_conflicts() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = fixture();
    let (snapshots, _) = golden_with_snapshots(150);
    let snap = &snapshots[snapshots.len() / 2];
    let mut sink = obs::RecordingSink::new();
    run_with_sink(&device, &kernel, &launch, mem.clone(), &RunOptions::golden(), Some(&mut sink));
    let metas = kernel.decoded().metas();
    let retired_before_snap = |class: fn(&InstrMeta) -> bool| {
        let retired = sink.events.iter().filter(|e| {
            matches!(e, obs::TraceEvent::InstrRetired { idx, pc, .. }
                if *idx < snap.dyn_count() && class(&metas[*pc as usize]))
        });
        retired.count() as u64
    };
    let mem_ops = retired_before_snap(|m| m.is_mem_op);
    let setp = retired_before_snap(|m| m.writes_pred);
    // A plan whose trigger is the counter value it is given.
    type Plan = fn(u64) -> FaultPlan;
    let cases: [(u64, Plan); 6] = [
        (snap.class_matches(SiteClass::IntArith), |nth| FaultPlan::InstructionOutput {
            nth,
            site: SiteClass::IntArith,
            flip: BitFlip::single(3),
        }),
        (mem_ops, |nth| FaultPlan::MemAddress { nth, flip: BitFlip::single(3) }),
        (mem_ops, |nth| FaultPlan::MemQueue {
            nth,
            effect: MemQueueEffect::Drop,
            persist: Persistence::StuckAt,
        }),
        (setp, |nth| FaultPlan::PredicateOutput { nth }),
        (snap.dyn_count(), |at| FaultPlan::Pc { at, flip: BitFlip::single(1) }),
        (snap.dyn_count(), |at| FaultPlan::SchedulerPriority {
            at,
            warp: 0,
            persist: Persistence::Transient,
        }),
    ];
    for (counter, plan) in cases {
        assert!(counter > 0, "{:?}", plan(counter));
        let opts = |n: u64| RunOptions::trial(plan(n)).watchdog(100_000);
        let resumed = |n: u64| {
            let opts = opts(n).resume(Some(Arc::clone(snap)));
            try_run_with_sink(&device, &kernel, &launch, mem.clone(), &opts, None)
        };
        let from_zero = run(&device, &kernel, &launch, mem.clone(), &opts(counter));
        assert!(from_zero.fault_triggered, "{:?}", plan(counter));
        let at_edge = resumed(counter).expect("a trigger at the snapshot's counter resumes");
        assert_bit_identical(&from_zero, &at_edge);
        assert!(
            matches!(resumed(counter - 1), Err(SimError::ResumeConflict(_))),
            "{:?} resumed past its trigger",
            plan(counter - 1)
        );
    }
}

#[test]
fn hidden_faults_resume_bit_identical() {
    // Every hidden-resource plan family, both persistence modes, with a
    // trigger in the run's second half so a snapshot precedes it: the
    // fast-forwarded trial must reproduce the from-zero one exactly.
    let (_, golden) = golden_with_snapshots(150);
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
            if check_parity(&golden, plan) {
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
            if check_parity_on(barrier_fixture(), &bar_golden, plan) {
                bar_forwarded += 1;
            }
        }
    }
    assert!(bar_forwarded >= 2, "only {bar_forwarded} barrier plans found a usable snapshot");
}

/// Shared scaffolding for the per-variant resume-conflict tests: a plan
/// whose trigger precedes the snapshot's capture point must never
/// fast-forward — `precedes` refuses the snapshot and a forced
/// resume hard-errors as [`SimError::ResumeConflict`]. Hidden-resource
/// corruption (especially stuck-at) perturbs all state from its trigger
/// on, so skipping past it would silently drop the fault.
fn assert_conflict(plan: FaultPlan) {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = fixture();
    let (snapshots, _) = golden_with_snapshots(200);
    let snap = Arc::clone(snapshots.last().unwrap());
    assert!(snap.dyn_count() > 0);
    assert!(!snap.precedes(&plan), "precedes accepted a snapshot past the trigger of {plan:?}");
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

/// A trial of `plan` on the fixture through `golden`'s exit table, with
/// `opts` shaping the rest; the full run must agree bit-for-bit.
fn exit_run(golden: &Arc<Executed>, opts: RunOptions) -> Executed {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = fixture();
    let full = run(&device, &kernel, &launch, mem.clone(), &opts);
    let opts = opts.exit_through(Some(Arc::clone(golden)));
    let ended = try_run_with_sink(&device, &kernel, &launch, mem, &opts, None).expect("accepted");
    assert_bit_identical(&full, &ended);
    ended
}

#[test]
fn exit_ends_spent_trials_and_declines_the_rest() {
    let (_, golden) = golden_with_snapshots(150);
    let golden = Arc::new(golden);
    // The fixture's four blocks each read and write only their own slice,
    // so flipping thread 0's first loop test (an extra iteration, a wrong
    // sum) ends the run after block 0.
    let flip = FaultPlan::PredicateOutput { nth: 0 };
    let ended = exit_run(&golden, RunOptions::trial(flip));
    let exit = ended.exit.expect("a spent flip in block 0 exits");
    assert_eq!(exit.block, 0);
    assert!(exit.skipped_instrs > 0);
    // Declines: a plan that never fires, stuck-at and fetch plans, site
    // recording, and a watchdog the skipped blocks would trip.
    let never = FaultPlan::InstructionOutput {
        nth: u64::MAX,
        site: SiteClass::GprWriter,
        flip: BitFlip::single(0),
    };
    let stuck =
        FaultPlan::MemQueue { nth: 3, effect: MemQueueEffect::Drop, persist: Persistence::StuckAt };
    let fetch = FaultPlan::Fetch {
        at: 10,
        effect: FetchEffect::StaleReplay,
        persist: Persistence::Transient,
    };
    for opts in [
        RunOptions::trial(never),
        RunOptions::trial(stuck).watchdog(100_000),
        RunOptions::trial(fetch).watchdog(100_000),
        RunOptions::trial(flip).record_sites(true),
        RunOptions::trial(flip).watchdog(golden.counts.total - 1),
    ] {
        assert_eq!(exit_run(&golden, opts.clone()).exit, None, "{:?} exited", opts.fault);
    }
}

#[test]
fn exit_conflicts_are_rejected() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = fixture();
    let plan = FaultPlan::Pc { at: 5, flip: BitFlip::single(0) };
    let conflict = |golden: Executed, mem: GlobalMemory| {
        let opts = RunOptions::trial(plan).exit_through(Some(Arc::new(golden)));
        matches!(
            try_run_with_sink(&device, &kernel, &launch, mem, &opts, None),
            Err(SimError::ResumeConflict(_))
        )
    };
    // A golden run without an exit table (it captured no snapshots).
    let plain = run(&device, &kernel, &launch, mem.clone(), &RunOptions::golden());
    assert!(plain.exit_table.is_none());
    assert!(conflict(plain, mem));
    // A table of another geometry (different memory size).
    let (_, golden) = golden_with_snapshots(150);
    assert!(conflict(golden, GlobalMemory::new(16)));
}

#[test]
fn capture_survives_a_store_out_of_bounds() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = fixture();
    // Memory op 40 is a store of block 0; bit 20 sends it far past the end.
    let plan = FaultPlan::MemAddress { nth: 40, flip: BitFlip::single(20) };
    let opts = RunOptions::trial(plan).snapshot_every(150);
    let out = run(&device, &kernel, &launch, mem, &opts);
    assert_eq!(out.status, gpu_sim::ExecStatus::Due(gpu_sim::DueKind::MemoryViolation));
    assert!(out.exit_table.is_none(), "a run that faults leaves no exit table");
}

/// Two blocks store the two halves of each word: thread `t` of block `b`
/// writes `t + 100` to half `b` of word `t`.
fn split_word_fixture() -> (gpu_arch::Kernel, LaunchConfig, GlobalMemory) {
    let mut b = KernelBuilder::new("halves");
    b.s2r(r(0), SpecialReg::TidX);
    b.s2r(r(1), SpecialReg::CtaidX);
    b.shl(r(2), r(0).into(), imm(2));
    b.shl(r(3), r(1).into(), imm(1));
    b.iadd(r(2), r(2).into(), r(3).into());
    b.ldp(r(4), 0);
    b.iadd(r(2), r(2).into(), r(4).into());
    b.iadd(r(5), r(0).into(), imm(100));
    b.stg(MemWidth::W16, r(2), 0, r(5));
    b.exit();
    (b.build().unwrap(), LaunchConfig::new(2, 32, vec![0]), GlobalMemory::new(128))
}

#[test]
fn exit_keeps_a_diverged_half_of_a_word_a_later_block_half_writes() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = split_word_fixture();
    let golden =
        run(&device, &kernel, &launch, mem.clone(), &RunOptions::golden().snapshot_every(64));
    let golden = Arc::new(golden);
    // Site 224 is block 0 thread 0's `t + 100`: its half of word 0
    // diverges, and block 1 writes the other half.
    let plan = FaultPlan::InstructionOutput {
        nth: 224,
        site: SiteClass::GprWriter,
        flip: BitFlip::single(3),
    };
    let opts = RunOptions::trial(plan).exit_through(Some(Arc::clone(&golden)));
    let ended = run(&device, &kernel, &launch, mem.clone(), &opts);
    let full = run(&device, &kernel, &launch, mem, &RunOptions::trial(plan));
    assert_bit_identical(&full, &ended);
    assert_ne!(ended.memory.raw(), golden.memory.raw(), "the flip reached word 0");
    assert_eq!(ended.exit, None, "block 1 half-writes the diverged word");
}
