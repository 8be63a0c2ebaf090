//! Hidden-resource fault semantics: scheduler, active-mask, barrier,
//! memory-queue and fetch/decode corruption (DESIGN.md §18). These pin
//! the outcome class of each plan family — the mechanisms behind the
//! paper's Section VII-B claim that DUEs originate in resources
//! architecture-level injectors cannot see.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely

use gpu_arch::{
    CmpOp, DeviceModel, KernelBuilder, LaunchConfig, MemWidth, Operand, Pred, Reg, SpecialReg,
};
use gpu_sim::{
    run, run_with_sink, BitFlip, DueKind, ExecStatus, Executed, FaultPlan, FetchEffect,
    GlobalMemory, MemQueueEffect, Persistence, RunOptions,
};
use obs::{RecordingSink, TraceEvent};

fn r(i: u8) -> Reg {
    Reg(i)
}
fn imm(v: u32) -> Operand {
    Operand::Imm(v)
}

/// One block of 64 threads (two warps): each thread stores `3*tid + 1`
/// to `out[tid]` after a short divergent spin loop.
fn store_fixture() -> (gpu_arch::Kernel, LaunchConfig, GlobalMemory) {
    let n = 64u32;
    let mut b = KernelBuilder::new("hidstore");
    b.s2r(r(0), SpecialReg::TidX);
    b.and(r(6), r(0).into(), imm(3));
    b.mov(r(8), imm(0));
    b.label("spin");
    b.isetp(Pred(0), CmpOp::Lt, r(8).into(), r(6).into());
    b.if_p(Pred(0)).iadd(r(8), r(8).into(), imm(1));
    b.if_p(Pred(0)).bra("spin");
    b.imad(r(1), r(0).into(), imm(3), imm(1)); // 3*tid + 1
    b.shl(r(2), r(0).into(), imm(2));
    b.ldp(r(3), 0);
    b.iadd(r(3), r(3).into(), r(2).into());
    b.stg(MemWidth::W32, r(3), 0, r(1));
    b.exit();
    let kernel = b.build().unwrap();
    let launch = LaunchConfig::new(1, n, vec![0]);
    (kernel, launch, GlobalMemory::new(4 * n))
}

/// Threads store tid to shared memory, synchronize, then thread 0 sums
/// the block into `out[0]`, highest slot first. The long divergent spin
/// before the barrier (tid iterations) spreads arrival across many
/// scheduler rounds, so a phantom early release lets the reader reach
/// high slots while their owners are still spinning.
fn barrier_fixture() -> (gpu_arch::Kernel, LaunchConfig, GlobalMemory) {
    let n = 64u32;
    let mut b = KernelBuilder::new("hidbar");
    b.s2r(r(0), SpecialReg::TidX);
    b.and(r(6), r(0).into(), imm(63));
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
    b.mov(r(2), imm(0));
    b.mov(r(3), imm(n));
    b.label("top");
    b.iadd(r(3), r(3).into(), imm(u32::MAX)); // r3 -= 1
    b.shl(r(4), r(3).into(), imm(2));
    b.lds(MemWidth::W32, r(5), r(4), 0);
    b.iadd(r(2), r(2).into(), r(5).into());
    b.isetp(Pred(1), CmpOp::Ne, r(3).into(), imm(0));
    b.if_p(Pred(1)).bra("top");
    b.ldp(r(9), 0);
    b.stg(MemWidth::W32, r(9), 0, r(2));
    b.label("done");
    b.exit();
    b.shared(4 * n);
    let kernel = b.build().unwrap();
    let launch = LaunchConfig::new(1, n, vec![0]);
    (kernel, launch, GlobalMemory::new(4))
}

fn golden(fx: &(gpu_arch::Kernel, LaunchConfig, GlobalMemory)) -> Executed {
    let out = run(&DeviceModel::named("v100"), &fx.0, &fx.1, fx.2.clone(), &RunOptions::golden());
    assert!(out.status.completed());
    out
}

fn trial(fx: &(gpu_arch::Kernel, LaunchConfig, GlobalMemory), opts: &RunOptions) -> Executed {
    run(&DeviceModel::named("v100"), &fx.0, &fx.1, fx.2.clone(), opts)
}

#[test]
fn stuck_scheduler_priority_starves_the_block_into_a_stall() {
    let fx = store_fixture();
    let g = golden(&fx);
    // Warp 1 is never scheduled again: warp 0 finishes, warp 1 still has
    // runnable lanes, no progress — a scheduler stall, not a deadlock.
    let plan = FaultPlan::SchedulerPriority {
        at: g.counts.total / 4,
        warp: 1,
        persist: Persistence::StuckAt,
    };
    let out = trial(&fx, &RunOptions::trial(plan));
    assert_eq!(out.status, ExecStatus::Due(DueKind::SchedulerStall));
    assert!(out.fault_triggered);
}

#[test]
fn transient_scheduler_priority_glitch_is_masked() {
    let fx = store_fixture();
    let g = golden(&fx);
    // One skipped round only reorders independent lanes: same output.
    let plan = FaultPlan::SchedulerPriority {
        at: g.counts.total / 4,
        warp: 1,
        persist: Persistence::Transient,
    };
    let out = trial(&fx, &RunOptions::trial(plan));
    assert!(out.status.completed());
    assert!(out.fault_triggered);
    assert_eq!(out.memory.raw(), g.memory.raw());
}

#[test]
fn scheduler_next_pc_flip_escaping_the_kernel_is_an_illegal_pc() {
    let fx = store_fixture();
    let g = golden(&fx);
    // Flip a high pc bit on warp 0's scheduler entry: the corrupted
    // next-pc leaves the kernel and the next fetch detects it.
    let plan = FaultPlan::SchedulerNextPc {
        at: g.counts.total / 4,
        warp: 0,
        flip: BitFlip::single(20),
        persist: Persistence::Transient,
    };
    let out = trial(&fx, &RunOptions::trial(plan));
    assert_eq!(out.status, ExecStatus::Due(DueKind::IllegalPc));
    assert!(out.fault_triggered);
}

#[test]
fn active_mask_forced_off_lanes_lose_their_stores() {
    let fx = store_fixture();
    let g = golden(&fx);
    // Force four early lanes of warp 1 off before they store: their
    // output words keep the initial zeros — an SDC, not a DUE.
    let plan = FaultPlan::ActiveMask {
        at: 1,
        warp: 1,
        flip: BitFlip { mask: 0xF },
        persist: Persistence::StuckAt,
    };
    let out = trial(&fx, &RunOptions::trial(plan));
    assert!(out.status.completed());
    assert!(out.fault_triggered);
    for lane in 0..4u32 {
        assert_eq!(out.memory.read_u32_host(4 * (32 + lane)).unwrap(), 0, "lane {lane}");
    }
    assert_ne!(out.memory.raw(), g.memory.raw());
}

#[test]
fn active_mask_reviving_an_exited_lane_fetches_past_the_kernel() {
    let fx = store_fixture();
    let g = golden(&fx);
    // At the round after the last instruction retires every lane has
    // exited with pc one past the EXIT; toggling a mask bit revives lane
    // 0 there and its next fetch leaves the kernel.
    let plan = FaultPlan::ActiveMask {
        at: g.counts.total,
        warp: 0,
        flip: BitFlip::single(0),
        persist: Persistence::Transient,
    };
    let out = trial(&fx, &RunOptions::trial(plan));
    assert_eq!(out.status, ExecStatus::Due(DueKind::IllegalPc));
    assert!(out.fault_triggered);
}

#[test]
fn lost_barrier_arrival_hangs_the_block() {
    let fx = barrier_fixture();
    let g = golden(&fx);
    for persist in [Persistence::Transient, Persistence::StuckAt] {
        let plan = FaultPlan::BarrierCounter { at: g.counts.total / 8, phantom: false, persist };
        let out = trial(&fx, &RunOptions::trial(plan));
        assert_eq!(out.status, ExecStatus::Due(DueKind::BarrierDeadlock));
        assert!(out.fault_triggered);
    }
}

#[test]
fn phantom_barrier_arrival_releases_early_and_corrupts_the_sum() {
    let fx = barrier_fixture();
    let g = golden(&fx);
    assert_eq!(g.memory.read_u32_host(0).unwrap(), (0..64).sum::<u32>());
    // Early release lets thread 0 read shared slots their owners have
    // not written yet: the reduction comes up short (SDC), but nothing
    // hangs — stragglers regroup at the barrier and release normally.
    let plan = FaultPlan::BarrierCounter { at: 1, phantom: true, persist: Persistence::Transient };
    let out = trial(&fx, &RunOptions::trial(plan));
    assert!(out.status.completed());
    assert!(out.fault_triggered);
    assert_ne!(out.memory.read_u32_host(0).unwrap(), g.memory.read_u32_host(0).unwrap());
}

#[test]
fn flagged_mem_queue_entry_raises_a_detected_error() {
    let fx = store_fixture();
    let plan = FaultPlan::MemQueue {
        nth: 0,
        effect: MemQueueEffect::Flag,
        persist: Persistence::Transient,
    };
    let out = trial(&fx, &RunOptions::trial(plan));
    assert_eq!(out.status, ExecStatus::Due(DueKind::MemQueueFault));
    assert!(out.fault_triggered);
}

#[test]
fn dropped_mem_queue_entry_loses_the_store() {
    let fx = store_fixture();
    let g = golden(&fx);
    // Every mem op in this kernel is a store; dropping the first leaves
    // its word stale (zero).
    let plan = FaultPlan::MemQueue {
        nth: 0,
        effect: MemQueueEffect::Drop,
        persist: Persistence::Transient,
    };
    let out = trial(&fx, &RunOptions::trial(plan));
    assert!(out.status.completed());
    assert!(out.fault_triggered);
    let zeros = (0..64).filter(|i| out.memory.read_u32_host(4 * i).unwrap() == 0).count();
    assert_eq!(zeros, 1);
    assert_ne!(out.memory.raw(), g.memory.raw());
}

#[test]
fn stuck_mem_queue_replay_never_retires_and_trips_the_watchdog() {
    let fx = store_fixture();
    let g = golden(&fx);
    let plan = FaultPlan::MemQueue {
        nth: 0,
        effect: MemQueueEffect::Replay,
        persist: Persistence::StuckAt,
    };
    let out = trial(&fx, &RunOptions::trial(plan).watchdog(g.counts.total * 4 + 1000));
    assert_eq!(out.status, ExecStatus::Due(DueKind::Watchdog));
    assert!(out.fault_triggered);
}

#[test]
fn transient_mem_queue_replay_of_an_idempotent_store_is_masked() {
    let fx = store_fixture();
    let g = golden(&fx);
    let plan = FaultPlan::MemQueue {
        nth: 2,
        effect: MemQueueEffect::Replay,
        persist: Persistence::Transient,
    };
    let out = trial(&fx, &RunOptions::trial(plan).watchdog(g.counts.total * 4 + 1000));
    assert!(out.status.completed());
    assert!(out.fault_triggered);
    // The store re-issues once with identical address and value.
    assert_eq!(out.counts.total, g.counts.total + 1);
    assert_eq!(out.memory.raw(), g.memory.raw());
}

#[test]
fn opcode_flip_escaping_the_kernel_is_a_fetch_fault() {
    let fx = store_fixture();
    let g = golden(&fx);
    let plan = FaultPlan::Fetch {
        at: g.counts.total / 2,
        effect: FetchEffect::OpcodeFlip(BitFlip::single(20)),
        persist: Persistence::Transient,
    };
    let out = trial(&fx, &RunOptions::trial(plan));
    assert_eq!(out.status, ExecStatus::Due(DueKind::FetchFault));
    assert!(out.fault_triggered);
}

#[test]
fn stuck_stale_fetch_replays_forever_and_trips_the_watchdog() {
    let fx = store_fixture();
    let g = golden(&fx);
    let plan = FaultPlan::Fetch {
        at: g.counts.total / 2,
        effect: FetchEffect::StaleReplay,
        persist: Persistence::StuckAt,
    };
    let out = trial(&fx, &RunOptions::trial(plan).watchdog(g.counts.total * 4 + 1000));
    assert_eq!(out.status, ExecStatus::Due(DueKind::Watchdog));
    assert!(out.fault_triggered);
}

#[test]
fn hidden_faults_after_the_run_never_fire() {
    let fx = store_fixture();
    let g = golden(&fx);
    let far = g.counts.total * 2;
    let plans = [
        FaultPlan::SchedulerPriority { at: far, warp: 0, persist: Persistence::StuckAt },
        FaultPlan::ActiveMask {
            at: far,
            warp: 0,
            flip: BitFlip::single(0),
            persist: Persistence::StuckAt,
        },
        FaultPlan::BarrierCounter { at: far, phantom: false, persist: Persistence::StuckAt },
        FaultPlan::MemQueue {
            nth: g.counts.sites.mem_ops * 2,
            effect: MemQueueEffect::Flag,
            persist: Persistence::StuckAt,
        },
        FaultPlan::Fetch {
            at: far,
            effect: FetchEffect::StaleReplay,
            persist: Persistence::StuckAt,
        },
    ];
    for plan in plans {
        let out = trial(&fx, &RunOptions::trial(plan));
        assert!(out.status.completed(), "{plan:?}");
        assert!(!out.fault_triggered, "{plan:?}");
        assert_eq!(out.memory.raw(), g.memory.raw());
    }
}

#[test]
fn every_hidden_plan_reports_exactly_one_fault_event() {
    // Stuck-at plans re-apply their corruption every round, fetch, queue
    // entry or barrier episode, but the trace reports the fault once, at
    // the instant it first fires — the same contract transient plans keep.
    let store = store_fixture();
    let barrier = barrier_fixture();
    let at = golden(&store).counts.total / 4;
    for persist in [Persistence::Transient, Persistence::StuckAt] {
        let cases = [
            (&store, FaultPlan::SchedulerNextPc { at, warp: 0, flip: BitFlip::single(1), persist }),
            (&store, FaultPlan::SchedulerPriority { at, warp: 1, persist }),
            (&store, FaultPlan::ActiveMask { at, warp: 1, flip: BitFlip { mask: 0xF }, persist }),
            (&store, FaultPlan::MemQueue { nth: 0, effect: MemQueueEffect::Drop, persist }),
            (&store, FaultPlan::Fetch { at, effect: FetchEffect::StaleReplay, persist }),
            (&barrier, FaultPlan::BarrierCounter { at: 1, phantom: true, persist }),
            (&barrier, FaultPlan::BarrierCounter { at: 1, phantom: false, persist }),
        ];
        for (fx, plan) in cases {
            let opts = RunOptions::trial(plan).watchdog(golden(fx).counts.total * 4 + 1000);
            let mut sink = RecordingSink::new();
            let out = run_with_sink(
                &DeviceModel::named("v100"),
                &fx.0,
                &fx.1,
                fx.2.clone(),
                &opts,
                Some(&mut sink),
            );
            assert!(out.fault_triggered, "{plan:?}");
            let events = sink
                .events
                .iter()
                .filter(|ev| matches!(ev, TraceEvent::FaultInjected { .. }))
                .count();
            assert_eq!(events, 1, "{plan:?}");
        }
    }
}
