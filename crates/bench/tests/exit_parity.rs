//! Early-exit parity (DESIGN.md §16, "Exit" and "Rejoin"): a trial that
//! ends early through its golden run — at a block boundary through the
//! exit table, or inside a block at a snapshot its state rejoins — must
//! give the same `Executed` as one that runs to the end: status, memory
//! bytes, every `Counts` field and whether the plan fired, on kernels
//! that reach each edge of both rules.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely

use gpu_arch::decode::RegLiveness;
use gpu_arch::{CodeGen, DecodedKernel, DeviceModel, Precision};
use gpu_sim::{
    nearest_snapshot, BitFlip, DueKind, ExecStatus, Executed, ExitKind, FaultPlan, MemQueueEffect,
    Persistence, RunOptions, SiteClass, Target,
};
use obs::{MemSpace, RecordingSink, TraceEvent};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use workloads::{build, Benchmark, Scale, Workload};

/// A kernel under test, its device and ECC state, and its golden run
/// with snapshots and exit table.
struct Case {
    workload: Workload,
    device: DeviceModel,
    ecc: bool,
    golden: Arc<Executed>,
}

impl Case {
    fn new(benchmark: Benchmark, precision: Precision, device: &str, ecc: bool) -> Case {
        let workload = build(benchmark, precision, CodeGen::Cuda10, Scale::Small);
        let device = DeviceModel::named(device);
        let golden = workload.execute(&device, &RunOptions::golden().ecc(ecc).snapshot_every(2048));
        assert!(golden.status.completed(), "{} golden failed", workload.name);
        assert!(golden.exit_table.is_some(), "{} golden has no exit table", workload.name);
        Case { workload, device, ecc, golden: Arc::new(golden) }
    }

    /// Run `plan` from its nearest snapshot, as a campaign does, with or
    /// without the exit table.
    fn trial(&self, plan: FaultPlan, watchdog: u64, exit: bool) -> Executed {
        let resume = nearest_snapshot(&self.golden.snapshots, &plan).cloned();
        let opts = RunOptions::trial(plan)
            .ecc(self.ecc)
            .watchdog(watchdog)
            .resume(resume)
            .exit_through(exit.then(|| Arc::clone(&self.golden)));
        self.workload.execute(&self.device, &opts)
    }

    /// Both runs of `plan`; they must agree, and the one without a table
    /// never exits. Returns the run with the table.
    fn parity(&self, plan: FaultPlan, watchdog: u64) -> Result<Executed, String> {
        let full = self.trial(plan, watchdog, false);
        let ended = self.trial(plan, watchdog, true);
        if full.exit.is_some() {
            return Err(format!("{}: {plan:?} exited without a table", self.workload.name));
        }
        let diff = differs(&full, &ended);
        match diff {
            Some(field) => Err(format!(
                "{}: {plan:?} {field} differs with the exit table ({:?})",
                self.workload.name, ended.exit
            )),
            None => Ok(ended),
        }
    }
}

/// The first part of an `Executed` that differs between `a` and `b`.
fn differs(a: &Executed, b: &Executed) -> Option<&'static str> {
    let (x, y) = (&a.counts, &b.counts);
    [
        ("status", a.status != b.status),
        ("memory", a.memory.raw() != b.memory.raw()),
        ("fault_triggered", a.fault_triggered != b.fault_triggered),
        ("total", x.total != y.total),
        ("per_unit", x.per_unit != y.per_unit),
        ("per_mix", x.per_mix != y.per_mix),
        ("warp_latency", x.warp_latency != y.warp_latency),
        ("warp_instrs", x.warp_instrs != y.warp_instrs),
        ("sites", x.sites != y.sites),
    ]
    .into_iter()
    .find_map(|(name, bad)| bad.then_some(name))
}

/// The kernels of the property test: FMXM's 16 blocks, HHOTSPOT's
/// two-byte stores, BFS and MERGESORT's cross-block reads of written
/// words, FLAVA with ECC off for latent corruption kept past the exit,
/// and for the rejoin NW's single block, QUICKSORT's and CCL's
/// data-dependent loops and HGEMM-MMA's warp-synchronous MMA and SHFL.
fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| {
        vec![
            Case::new(Benchmark::Mxm, Precision::Single, "k40c-sim", false),
            Case::new(Benchmark::Hotspot, Precision::Half, "v100-sim", false),
            Case::new(Benchmark::Bfs, Precision::Int32, "k40c-sim", false),
            Case::new(Benchmark::Mergesort, Precision::Int32, "k40c-sim", false),
            Case::new(Benchmark::Lava, Precision::Single, "k40c-sim", false),
            Case::new(Benchmark::Nw, Precision::Int32, "k40c-sim", false),
            Case::new(Benchmark::Quicksort, Precision::Int32, "k40c-sim", false),
            Case::new(Benchmark::Ccl, Precision::Int32, "k40c-sim", false),
            Case::new(Benchmark::GemmMma, Precision::Half, "v100-sim", false),
        ]
    })
}

/// A plan of family `family` drawn from `pick` over `case`'s golden
/// populations.
fn plan_for(case: &Case, family: u8, pick: u64, bit: u32) -> FaultPlan {
    let g = &case.golden;
    let at = pick % g.counts.total;
    let flip = BitFlip::single(bit);
    match family {
        0 => FaultPlan::InstructionOutput {
            nth: pick % g.counts.sites.gpr_writers,
            site: SiteClass::GprWriter,
            flip,
        },
        1 => FaultPlan::InstructionOutputSet {
            nth: pick % g.counts.sites.gpr_writers,
            site: SiteClass::GprWriter,
            value: u64::from(bit) << 20,
        },
        2 => FaultPlan::MemAddress { nth: pick % g.counts.sites.mem_ops.max(1), flip },
        3 => FaultPlan::PredicateOutput { nth: pick % g.counts.sites.setp.max(1) },
        4 => FaultPlan::Pc { at, flip: BitFlip::single(bit % 4) },
        5 => FaultPlan::RegisterBit { block: u32::MAX, thread: u32::MAX, reg: bit as u8, flip, at },
        6 => FaultPlan::GlobalMemBit {
            byte: (pick >> 32) as u32 % g.memory.len(),
            bit,
            at,
            mbu: bit.is_multiple_of(3),
        },
        7 => FaultPlan::SharedMemBit { block: u32::MAX, byte: bit * 4, bit, at, mbu: false },
        8 => FaultPlan::MemQueue {
            nth: pick % g.counts.sites.mem_ops.max(1),
            effect: MemQueueEffect::Drop,
            persist: Persistence::Transient,
        },
        _ => FaultPlan::ActiveMask {
            at,
            warp: bit,
            flip: BitFlip::single(bit),
            persist: Persistence::Transient,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(180))]

    /// Random plans of every family that can exit, on every kernel: the
    /// trial's `Executed` is the same with the exit table and without.
    #[test]
    fn exit_table_is_bit_exact_on_random_plans(
        kernel in 0usize..9,
        family in 0u8..10,
        pick in any::<u64>(),
        bit in 0u32..32,
    ) {
        let case = &cases()[kernel];
        let plan = plan_for(case, family, pick, bit);
        let watchdog = 4 * case.golden.counts.total;
        if let Err(why) = case.parity(plan, watchdog) {
            prop_assert!(false, "{}", why);
        }
    }
}

/// Every kernel of the property test reaches the exit, and most FMXM
/// output-bit flips take it: a corrupted C element is written by its own
/// block and read by none.
#[test]
fn output_flips_reach_the_exit_on_every_kernel() {
    assert!(cases()[0].workload.launch().grid.count() >= 16, "FMXM Small has 16 blocks");
    for case in cases() {
        let watchdog = 4 * case.golden.counts.total;
        let step = case.golden.counts.sites.gpr_writers / 61;
        let mut exits = 0;
        for i in 0..61 {
            let plan = FaultPlan::InstructionOutput {
                nth: i * step,
                site: SiteClass::GprWriter,
                flip: BitFlip::single(i as u32 % 32),
            };
            let ended = case.parity(plan, watchdog).unwrap();
            if let Some(exit) = ended.exit {
                exits += 1;
                assert!(exit.skipped_instrs > 0);
            }
        }
        let name = &case.workload.name;
        assert!(exits > 0, "no {name} trial exited");
        if name == "FMXM" {
            assert!(2 * exits > 61, "only {exits} of 61 FMXM trials exited");
        }
    }
}

/// Global accesses of a golden run by block, from its event stream:
/// (block, word, is write).
fn global_accesses(case: &Case) -> Vec<(u32, u32, bool)> {
    let mut sink = RecordingSink::new();
    let opts = RunOptions::golden().ecc(case.ecc);
    case.workload.execute_traced(&case.device, &opts, &mut sink);
    let mut block = 0u32;
    let mut out = Vec::new();
    for e in &sink.events {
        match *e {
            TraceEvent::InstrRetired { block: b, .. } => block = b,
            TraceEvent::MemAccess { space: MemSpace::Global, write, addr, .. } => {
                out.push((block, addr / 4, write));
            }
            _ => {}
        }
    }
    out
}

/// The dynamic index where block `block` starts in `case`'s golden run.
fn block_start(case: &Case, block: u32) -> u64 {
    let rec =
        case.workload.execute(&case.device, &RunOptions::golden().ecc(case.ecc).record_sites(true));
    rec.sites_record.unwrap().block_windows[block as usize].0
}

/// Strike an output word that block 0 writes and no block reads or
/// writes again, at the first instruction of block 1: the trial exits
/// after block 1 with the strike still latent in its memory.
fn strike_unread_output(case: &Case, mbu: bool) -> Executed {
    let accesses = global_accesses(case);
    let word = accesses
        .iter()
        .filter(|&&(b, _, write)| b == 0 && write)
        .map(|&(_, w, _)| w)
        .find(|&w| accesses.iter().all(|&(b, x, write)| x != w || (b == 0 && write)))
        .expect("block 0 writes an output word");
    let plan = FaultPlan::GlobalMemBit { byte: word * 4, bit: 3, at: block_start(case, 1), mbu };
    let ended = case.parity(plan, u64::MAX).unwrap();
    assert_eq!(ended.exit.map(|e| e.block), Some(1), "the strike is spent in block 1");
    let value = ended.memory.read_u32_host(word * 4).unwrap();
    let golden = case.golden.memory.read_u32_host(word * 4).unwrap();
    assert_eq!(value != golden, !case.ecc, "the flip reaches memory iff ECC is off");
    ended
}

/// ECC on, a double-bit strike nothing reads: the exit keeps it latent
/// and the end-of-kernel scrub raises the DUE the full run raises.
#[test]
fn exit_keeps_latent_double_bit_for_the_scrub() {
    let case = Case::new(Benchmark::Mxm, Precision::Single, "k40c-sim", true);
    let ended = strike_unread_output(&case, true);
    assert_eq!(ended.status, ExecStatus::Due(DueKind::EccDoubleBit));
}

/// ECC off, FLAVA: the kept latent flip is committed by the scrub into
/// the output, as in the full run.
#[test]
fn exit_keeps_latent_flip_in_the_output() {
    let ended = strike_unread_output(&cases()[4], false);
    assert_eq!(ended.status, ExecStatus::Completed);
}

/// A watchdog limit at the golden count: a trial one replayed
/// instruction longer would trip it in the skipped blocks, so the exit
/// declines and the trial ends as the watchdog DUE the full run gives.
#[test]
fn exit_declines_when_the_watchdog_would_trip() {
    let case = &cases()[0];
    let plan = FaultPlan::MemQueue {
        nth: 1,
        effect: MemQueueEffect::Replay,
        persist: Persistence::Transient,
    };
    let ended = case.parity(plan, case.golden.counts.total).unwrap();
    assert_eq!(ended.status, ExecStatus::Due(DueKind::Watchdog));
    assert_eq!(ended.exit, None);
    // With room for the replay the same trial exits after block 0.
    let roomy = case.parity(plan, case.golden.counts.total + 1).unwrap();
    assert_eq!(roomy.exit.map(|e| e.block), Some(0));
}

/// The golden event stream of `case`.
fn golden_events(case: &Case) -> Vec<TraceEvent> {
    let mut sink = RecordingSink::new();
    case.workload.execute_traced(&case.device, &RunOptions::golden().ecc(case.ecc), &mut sink);
    sink.events
}

/// Register-file strikes on NW's thread 5 while it waits at a pc past
/// the middle of the run, each on a register dead (`live` false) or live
/// (`live` true) there, in the order found.
fn nw_strikes(case: &Case, live: bool) -> Vec<FaultPlan> {
    let kernel = case.workload.kernel();
    let sets = RegLiveness::new(kernel, &DecodedKernel::new(kernel)).live_regs();
    let events = golden_events(case);
    let retired: Vec<(u64, u32, u32)> = events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::InstrRetired { idx, lane, pc, .. } => Some((idx, lane, pc)),
            _ => None,
        })
        .collect();
    let half = case.golden.counts.total / 2;
    let mut plans = Vec::new();
    for (k, &(idx, lane, pc)) in retired.iter().enumerate() {
        // The strike lands after instruction `idx - 1`, a scalar one
        // (warp-wide instructions lose timed strikes), while thread 5
        // sits at `pc`.
        if lane != 5 || idx < half || k == 0 || retired[k - 1].1 == u32::MAX {
            continue;
        }
        for r in 0..kernel.regs_per_thread.min(32) as u8 {
            if (sets[pc as usize][0] >> r & 1 == 1) == live {
                plans.push(FaultPlan::RegisterBit {
                    block: 0,
                    thread: 5,
                    reg: r,
                    flip: BitFlip::single(7),
                    at: idx - 1,
                });
            }
        }
        if plans.len() >= 8 {
            break;
        }
    }
    plans
}

/// A flipped register that thread 5 overwrites before reading: at the
/// next golden snapshot the trial's state equals golden's on every live
/// register, so it rejoins there and reports it. NW runs one block, so
/// only a rejoin can end it early.
#[test]
fn dead_register_flip_rejoins_at_the_next_snapshot() {
    let case = &cases()[5];
    assert_eq!(case.workload.launch().grid.count(), 1, "NW runs a 1x1 grid");
    let plan = nw_strikes(case, false)[0];
    let FaultPlan::RegisterBit { at, .. } = plan else { unreachable!() };
    let ended = case.parity(plan, u64::MAX).unwrap();
    let next = case.golden.snapshots.iter().find(|s| s.dyn_count() > at).expect("a later snapshot");
    let exit = ended.exit.expect("the dead flip rejoins");
    assert_eq!(exit.kind, ExitKind::Rejoin);
    assert_eq!(exit.block, 0);
    assert_eq!(exit.skipped_instrs, case.golden.counts.total - next.dyn_count());
    assert!(ended.fault_triggered);
    // The same trial with a watchdog below the golden total declines, and
    // trips the watchdog as the full run does.
    let tight = case.parity(plan, case.golden.counts.total - 1).unwrap();
    assert_eq!(tight.status, ExecStatus::Due(DueKind::Watchdog));
    assert_eq!(tight.exit, None);
}

/// A flipped register that thread 5 may read: a flip that reaches NW's
/// output never rejoins.
#[test]
fn live_register_flip_does_not_rejoin() {
    let case = &cases()[5];
    let sdc = nw_strikes(case, true)
        .into_iter()
        .map(|plan| case.parity(plan, 4 * case.golden.counts.total).unwrap())
        .find(|out| out.status.completed() && out.memory.raw() != case.golden.memory.raw())
        .expect("a live flip reaches the output");
    assert_eq!(sdc.exit, None);
}

/// ECC on, a double-bit strike on a word NW never touches again: the
/// latent corruption differs from every golden snapshot's, so the trial
/// never rejoins, and the end-of-kernel scrub raises the DUE.
#[test]
fn latent_double_bit_never_rejoins() {
    let case = Case::new(Benchmark::Nw, Precision::Int32, "k40c-sim", true);
    let events = golden_events(&case);
    let words = case.golden.memory.len() / 4;
    let mut last_touch = vec![0u64; words as usize];
    for e in &events {
        if let TraceEvent::MemAccess { idx, space: MemSpace::Global, addr, .. } = *e {
            last_touch[(addr / 4) as usize] = idx + 1;
        }
    }
    let (word, &touched) =
        last_touch.iter().enumerate().min_by_key(|&(_, &t)| t).expect("NW has memory");
    let at = touched.max(case.golden.snapshots[0].dyn_count() + 1);
    assert!(at < case.golden.counts.total / 2, "word {word} is left alone early");
    let plan = FaultPlan::GlobalMemBit { byte: word as u32 * 4, bit: 3, at, mbu: true };
    let ended = case.parity(plan, u64::MAX).unwrap();
    assert_eq!(ended.status, ExecStatus::Due(DueKind::EccDoubleBit));
    assert_eq!(ended.exit, None);
}
