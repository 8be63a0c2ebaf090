//! Block-boundary exit parity (DESIGN.md §16, "Exit"): a trial that ends
//! early through the golden run's exit table must give the same
//! `Executed` as one that runs every block — status, memory bytes, every
//! `Counts` field and whether the plan fired — on kernels that reach each
//! edge of the exit rule.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely

use gpu_arch::{CodeGen, DeviceModel, Precision};
use gpu_sim::{
    nearest_snapshot, BitFlip, DueKind, ExecStatus, Executed, FaultPlan, MemQueueEffect,
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
/// words, and FLAVA with ECC off for latent corruption kept past the
/// exit.
fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| {
        vec![
            Case::new(Benchmark::Mxm, Precision::Single, "k40c-sim", false),
            Case::new(Benchmark::Hotspot, Precision::Half, "v100-sim", false),
            Case::new(Benchmark::Bfs, Precision::Int32, "k40c-sim", false),
            Case::new(Benchmark::Mergesort, Precision::Int32, "k40c-sim", false),
            Case::new(Benchmark::Lava, Precision::Single, "k40c-sim", false),
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
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random plans of every family that can exit, on every kernel: the
    /// trial's `Executed` is the same with the exit table and without.
    #[test]
    fn exit_table_is_bit_exact_on_random_plans(
        kernel in 0usize..5,
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
