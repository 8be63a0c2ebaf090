//! Regression pins for the predecode refactor.
//!
//! The decode layer (`gpu_arch::decode`) replaced the engine's per-tick
//! `match ins.op` classification with table lookups over `InstrMeta`, and
//! the injector/profiler/sass-analysis private classification copies with
//! the same shared metadata. That refactor is only sound if it is
//! *bit-identical* end-to-end: same `FaultPlan` dyn-instruction
//! numbering, same `SiteCounts` populations, same injector RNG draws,
//! same campaign tallies. These tests pin concrete pre-refactor values
//! (captured on the seed revision, before the decode layer existed) so
//! any drift fails loudly instead of silently skewing AVF. The campaign
//! tallies are pinned as rows of `telemetry.rs`'s
//! `digest_matrix_is_one_invariant`.

#![allow(clippy::unwrap_used)]

use gpu_arch::{CodeGen, DeviceModel, Op, Precision};
use gpu_sim::{
    trigger_position, BitFlip, DueKind, ExecStatus, Executed, FaultPlan, FetchEffect,
    MemQueueEffect, Persistence, RunOptions, SiteClass, SiteCounts, Target,
};
use obs::{CountingSink, RecordingSink, TraceEvent, TraceSink};
use std::sync::Arc;
use workloads::{build, Benchmark, Scale, Workload};

/// FNV-1a over a byte stream: a stable, dependency-free digest for
/// pinning vectors of counters without pasting thousands of values.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest_u64s(vals: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a(vals.into_iter().flat_map(u64::to_le_bytes))
}

/// The golden run's own digests (counts and SitesRecord) are unchanged by
/// snapshot capture: the capture hook only copies state, never perturbs
/// execution.
#[test]
fn golden_digests_identical_with_and_without_snapshots() {
    let device = DeviceModel::named("v100-sim");
    let w = build(Benchmark::Hotspot, Precision::Half, CodeGen::Cuda10, Scale::Tiny);
    let plain = w.execute(&device, &RunOptions::golden().record_sites(true));
    for stride in [512u64, 4096] {
        let snap =
            w.execute(&device, &RunOptions::golden().record_sites(true).snapshot_every(stride));
        assert_eq!(plain.counts.total, snap.counts.total);
        assert_eq!(plain.counts.per_unit, snap.counts.per_unit);
        assert_eq!(plain.counts.sites, snap.counts.sites);
        assert_eq!(plain.memory.raw(), snap.memory.raw());
        let a = plain.sites_record.as_ref().unwrap();
        let b = snap.sites_record.as_ref().unwrap();
        assert_eq!(a.site_pcs, b.site_pcs);
        assert_eq!(a.block_windows, b.block_windows);
        assert!(!snap.snapshots.is_empty(), "stride {stride} captured nothing");
    }
}

#[test]
fn golden_counts_and_sites_record_pinned() {
    let cases = [
        (
            "mxm_f32_tiny/k40c",
            build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda7, Scale::Tiny),
            DeviceModel::named("k40c-sim"),
            (57344u64, 14446947560695722350u64, 48640u64, 17686690349316740165u64),
        ),
        (
            "hotspot_f16_tiny/v100",
            build(Benchmark::Hotspot, Precision::Half, CodeGen::Cuda10, Scale::Tiny),
            DeviceModel::named("v100-sim"),
            (5184u64, 2033849798692785799u64, 4544u64, 8827934939734633225u64),
        ),
    ];
    for (name, w, device, (total, counts_digest, sites_len, sites_digest)) in cases {
        let opts = RunOptions::golden().record_sites(true);
        let run = w.execute(&device, &opts);
        let c = &run.counts;
        let got_counts = digest_u64s(
            c.per_unit
                .iter()
                .chain(c.per_mix.iter())
                .chain(c.warp_latency.iter())
                .chain(c.warp_instrs.iter())
                .copied()
                .chain([
                    c.sites.gpr_writers,
                    c.sites.gpr_writers_no_half,
                    c.sites.loads,
                    c.sites.mem_ops,
                    c.sites.setp,
                ]),
        );
        let rec = run.sites_record.as_ref().unwrap();
        let got_sites = digest_u64s(
            rec.site_pcs
                .iter()
                .map(|&pc| pc as u64)
                .chain(rec.block_windows.iter().flat_map(|&(s, e)| [s, e])),
        );
        assert_eq!(
            (c.total, got_counts, rec.site_pcs.len() as u64, got_sites),
            (total, counts_digest, sites_len, sites_digest),
            "golden counts / SitesRecord drifted for {name}"
        );
    }
}

/// One lane a lane-boundary row aims its fault at, in each coordinate the
/// trigger-carrying plan families count.
struct Trigger {
    /// What the lane is: its place in a converged warp instruction or
    /// inside a partial run of same-pc lanes.
    name: &'static str,
    /// Thread index within the block of the lane the fault fires on.
    lane: u32,
    /// Linear block the lane belongs to.
    block: u32,
    /// GPR-writer site number of the lane's integer op.
    gpr_nth: u64,
    /// Dynamic index of that integer op (`Pc` and `Fetch` instants).
    issue_at: u64,
    /// Memory-op site number of the lane's global load.
    mem_nth: u64,
    /// Dynamic index of that load (register and global-memory strikes).
    load_at: u64,
    /// The load's address register, struck in the next lane.
    load_reg: u8,
    /// Byte the next lane's load reads.
    next_load_addr: u32,
    /// SETP site number of the lane's predicate write.
    setp_nth: u64,
    /// Dynamic index of the lane's shared load, and the byte the next
    /// lane's shared load reads (no shared memory in FMXM: the strike
    /// lands outside the allocation).
    lds_at: u64,
    next_lds_addr: u32,
    /// Outcome digests, one per plan of [`lane_boundary_plans`].
    digests: [u64; 11],
}

/// One plan of every trigger-carrying `FaultPlan` family, each aimed at
/// `t`'s lane. Register and memory strikes land between the lane and the
/// next one, on state the next lane reads at the same instruction.
fn lane_boundary_plans(t: &Trigger) -> [(&'static str, FaultPlan); 11] {
    let next = t.lane + 1;
    [
        (
            "output",
            FaultPlan::InstructionOutput {
                nth: t.gpr_nth,
                site: SiteClass::GprWriter,
                flip: BitFlip::single(9),
            },
        ),
        (
            "output-set",
            FaultPlan::InstructionOutputSet {
                nth: t.gpr_nth,
                site: SiteClass::GprWriter,
                value: 0xdead_beef,
            },
        ),
        ("mem-address", FaultPlan::MemAddress { nth: t.mem_nth, flip: BitFlip::single(4) }),
        ("predicate", FaultPlan::PredicateOutput { nth: t.setp_nth }),
        ("pc", FaultPlan::Pc { at: t.issue_at, flip: BitFlip::single(1) }),
        (
            "register-bit",
            FaultPlan::RegisterBit {
                block: t.block,
                thread: next,
                reg: t.load_reg,
                flip: BitFlip::single(20),
                at: t.load_at,
            },
        ),
        (
            "global-mem-bit",
            FaultPlan::GlobalMemBit { byte: t.next_load_addr, bit: 30, at: t.load_at, mbu: false },
        ),
        (
            "shared-mem-bit",
            FaultPlan::SharedMemBit {
                block: t.block,
                byte: t.next_lds_addr,
                bit: 3,
                at: t.lds_at,
                mbu: false,
            },
        ),
        (
            "memq-transient",
            FaultPlan::MemQueue {
                nth: t.mem_nth,
                effect: MemQueueEffect::Replay,
                persist: Persistence::Transient,
            },
        ),
        (
            "memq-stuck",
            FaultPlan::MemQueue {
                nth: t.mem_nth,
                effect: MemQueueEffect::Drop,
                persist: Persistence::StuckAt,
            },
        ),
        (
            "fetch",
            FaultPlan::Fetch {
                at: t.issue_at,
                effect: FetchEffect::StaleReplay,
                persist: Persistence::Transient,
            },
        ),
    ]
}

/// FNV digest of everything a trial's outcome is made of: status, memory
/// bytes, every `Counts` field and whether the plan triggered.
fn outcome_digest(run: &Executed) -> u64 {
    let c = &run.counts;
    let counts = digest_u64s(
        [c.total]
            .iter()
            .chain(c.per_unit.iter())
            .chain(c.per_mix.iter())
            .chain(c.warp_latency.iter())
            .chain(c.warp_instrs.iter())
            .copied()
            .chain([
                c.sites.gpr_writers,
                c.sites.gpr_writers_no_half,
                c.sites.loads,
                c.sites.mem_ops,
                c.sites.setp,
            ]),
    );
    fnv1a(
        format!("{:?}", run.status)
            .into_bytes()
            .into_iter()
            .chain(run.memory.raw().iter().copied())
            .chain(counts.to_le_bytes())
            .chain([run.fault_triggered as u8]),
    )
}

/// The cases of [`lane_boundary_outcomes_pinned`]: lanes of FMXM's
/// converged warp instructions and of NW's partial runs.
fn lane_boundary_cases<'w>(mxm: &'w Workload, nw: &'w Workload) -> [(&'w Workload, Trigger); 4] {
    // FMXM: block 1, warp 0 (global warp 2) runs IMAD at idx 19200, LDG
    // at 19392 and ISETP at 19904 as converged 32-lane instructions.
    let converged = |name, lane: u32, next_load_addr, digests| Trigger {
        name,
        lane,
        block: 1,
        gpr_nth: 16384 + lane as u64,
        issue_at: 19200 + lane as u64,
        mem_nth: 2752 + lane as u64,
        load_at: 19392 + lane as u64,
        load_reg: 8,
        next_load_addr,
        setp_nth: 1344 + lane as u64,
        lds_at: 19392 + lane as u64,
        next_lds_addr: 0,
        digests,
    };
    [
        (
            mxm,
            converged(
                "FMXM first lane",
                0,
                20,
                [
                    13013771464315852174,
                    7657369248533707699,
                    7988498804485300974,
                    13004380178626444543,
                    10780924105836251027,
                    13490922538361083051,
                    14564673696871187266,
                    6888000114122540466,
                    16142665647704523613,
                    6471316670812431697,
                    462634776330234208,
                ],
            ),
        ),
        (
            mxm,
            converged(
                "FMXM middle lane",
                16,
                148,
                [
                    15962419814062240649,
                    3247497996934429846,
                    12279004124243259080,
                    9112981702817368664,
                    4773448181989418615,
                    1365556119726808708,
                    8800470532756009509,
                    6888000114122540466,
                    16142665647704523613,
                    6471316670812431697,
                    197409286511564635,
                ],
            ),
        ),
        (
            mxm,
            converged(
                "FMXM last lane",
                31,
                276,
                [
                    9740017349357769233,
                    7948940990773854156,
                    13485557284349019066,
                    14750173354255333339,
                    13919190832654277167,
                    13767675934363822703,
                    10524176511339249115,
                    6888000114122540466,
                    16142665647704523613,
                    6471316670812431697,
                    1365176180991583427,
                ],
            ),
        ),
        (
            // NW's 16-lane warp: lane 6 of 12-lane runs at IADD (idx
            // 4728) and LDG (4764), and of 13-lane runs at LDS (5094)
            // and ISETP (5146).
            nw,
            Trigger {
                name: "NW partial run",
                lane: 6,
                block: 0,
                gpr_nth: 3308,
                issue_at: 4734,
                mem_nth: 562,
                load_at: 4770,
                load_reg: 15,
                next_load_addr: 688,
                setp_nth: 692,
                lds_at: 5100,
                next_lds_addr: 28,
                digests: [
                    4890617365007089323,
                    4890617365007089323,
                    10174392976230468391,
                    10174392976230468391,
                    15414518331820228584,
                    17268595681072214366,
                    2412599640625327374,
                    11995488060262732595,
                    6752292809623589270,
                    15731033695766552031,
                    809224809930066064,
                ],
            },
        ),
    ]
}

/// Faults that fire at the first, a middle and the last lane of a
/// converged FMXM warp instruction, and at a lane inside a partial run of
/// NW's divergent wavefront, give pinned outcomes for every
/// trigger-carrying plan family. Issuing an instruction once per run of
/// same-pc lanes must keep each hook on its lane. Each row also checks,
/// from a traced run, that the fault fired on the lane it aims at.
/// Digests were captured on the lane-at-a-time engine.
#[test]
fn lane_boundary_outcomes_pinned() {
    let mxm = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda7, Scale::Tiny);
    let nw = build(Benchmark::Nw, Precision::Int32, CodeGen::Cuda7, Scale::Tiny);
    let cases = lane_boundary_cases(&mxm, &nw);
    let device = DeviceModel::named("k40c-sim");
    for (w, t) in &cases {
        let watchdog = 4 * w.execute(&device, &RunOptions::golden()).counts.total;
        let mut got = [0u64; 11];
        for (i, (family, plan)) in lane_boundary_plans(t).into_iter().enumerate() {
            let opts = RunOptions::trial(plan).ecc(false).watchdog(watchdog);
            let run = w.execute(&device, &opts);
            got[i] = outcome_digest(&run);
            let mut sink = RecordingSink::new();
            let traced = w.execute_traced(&device, &opts, &mut sink);
            assert_eq!(outcome_digest(&traced), got[i], "{}/{family}: sink perturbed", t.name);
            let fired = sink.events.iter().find_map(|e| match *e {
                TraceEvent::FaultInjected { idx, .. } => Some(idx),
                _ => None,
            });
            let lane = sink.events.iter().find_map(|e| match *e {
                TraceEvent::InstrRetired { idx, lane, .. } if Some(idx) == fired => Some(lane),
                _ => None,
            });
            assert_eq!(lane, Some(t.lane), "{}/{family} fired off its lane", t.name);
        }
        assert_eq!(got, t.digests, "{} lane-boundary outcomes drifted", t.name);
    }
}

/// The block-boundary exit is invisible in outcomes: every plan of
/// [`lane_boundary_outcomes_pinned`] gives the same `Executed` with the
/// golden run's exit table and without it, and some of them do end at a
/// block boundary (FMXM's; NW runs one block and never can).
#[test]
fn lane_boundary_outcomes_identical_with_exit_table() {
    let mxm = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda7, Scale::Tiny);
    let nw = build(Benchmark::Nw, Precision::Int32, CodeGen::Cuda7, Scale::Tiny);
    let device = DeviceModel::named("k40c-sim");
    let mut exits = 0;
    for (w, t) in &lane_boundary_cases(&mxm, &nw) {
        let golden = w.execute(&device, &RunOptions::golden().ecc(false).snapshot_every(4096));
        let golden = Arc::new(golden);
        let watchdog = 4 * golden.counts.total;
        for (family, plan) in lane_boundary_plans(t) {
            let opts = RunOptions::trial(plan).ecc(false).watchdog(watchdog);
            let full = w.execute(&device, &opts);
            let ended = w.execute(&device, &opts.clone().exit_through(Some(Arc::clone(&golden))));
            assert_eq!(full.exit, None);
            assert_eq!(
                outcome_digest(&ended),
                outcome_digest(&full),
                "{}/{family}: the exit table changed the outcome (exit {:?})",
                t.name,
                ended.exit
            );
            exits += u32::from(ended.exit.is_some());
        }
    }
    assert!(exits > 0, "no lane-boundary plan ended at a block boundary");
}

/// Every workload kernel of Table I, each with the device it runs on:
/// the Kepler set at CUDA 7 and the Volta set at CUDA 10, which between
/// them cover every benchmark and precision.
fn every_kernel() -> Vec<(Workload, DeviceModel)> {
    let kepler = workloads::kepler_suite(CodeGen::Cuda7, Scale::Tiny);
    let volta = workloads::volta_suite(Scale::Tiny);
    let on = |ws: Vec<Workload>, device: &str| {
        let device = DeviceModel::named(device);
        ws.into_iter().map(move |w| (w, device.clone()))
    };
    on(kepler, "k40c-sim").chain(on(volta, "v100-sim")).collect()
}

/// One plan of every trigger-carrying `FaultPlan` family, aimed inside
/// the golden run `golden`.
fn family_plans(golden: &Executed) -> Vec<(&'static str, FaultPlan)> {
    let (total, s) = (golden.counts.total, golden.counts.sites);
    let flip = BitFlip::single;
    vec![
        (
            "output",
            FaultPlan::InstructionOutput {
                nth: s.gpr_writers / 2,
                site: SiteClass::GprWriter,
                flip: flip(9),
            },
        ),
        (
            "output-set",
            FaultPlan::InstructionOutputSet {
                nth: s.gpr_writers_no_half / 3,
                site: SiteClass::GprWriterNoHalf,
                value: 0xdead_beef,
            },
        ),
        ("mem-address", FaultPlan::MemAddress { nth: s.mem_ops / 2, flip: flip(2) }),
        ("predicate", FaultPlan::PredicateOutput { nth: s.setp / 2 }),
        ("pc", FaultPlan::Pc { at: total / 2, flip: flip(1) }),
        (
            "register-bit",
            FaultPlan::RegisterBit {
                block: u32::MAX,
                thread: u32::MAX,
                reg: 2,
                flip: flip(3),
                at: total / 3,
            },
        ),
        (
            "global-mem-bit",
            FaultPlan::GlobalMemBit { byte: golden.memory.len() / 2, bit: 30, at: 0, mbu: true },
        ),
        (
            "shared-mem-bit",
            FaultPlan::SharedMemBit { block: u32::MAX, byte: 0, bit: 3, at: total / 2, mbu: false },
        ),
        (
            "scheduler-next-pc",
            FaultPlan::SchedulerNextPc {
                at: total / 2,
                warp: 0,
                flip: flip(2),
                persist: Persistence::Transient,
            },
        ),
        (
            "scheduler-priority",
            FaultPlan::SchedulerPriority { at: total / 2, warp: 0, persist: Persistence::StuckAt },
        ),
        (
            "active-mask",
            FaultPlan::ActiveMask {
                at: total / 2,
                warp: 0,
                flip: flip(5),
                persist: Persistence::Transient,
            },
        ),
        (
            "barrier-counter",
            FaultPlan::BarrierCounter {
                at: total / 3,
                phantom: true,
                persist: Persistence::Transient,
            },
        ),
        (
            "memq",
            FaultPlan::MemQueue {
                nth: s.mem_ops / 2,
                effect: MemQueueEffect::Replay,
                persist: Persistence::Transient,
            },
        ),
        (
            "memq-stuck",
            FaultPlan::MemQueue {
                nth: s.mem_ops / 2,
                effect: MemQueueEffect::Drop,
                persist: Persistence::StuckAt,
            },
        ),
        (
            "fetch",
            FaultPlan::Fetch {
                at: total / 2,
                effect: FetchEffect::OpcodeFlip(flip(1)),
                persist: Persistence::Transient,
            },
        ),
    ]
}

/// Assert that runs `a` and `b` agree on everything they report: status,
/// memory with its latent corruption, every `Counts` field, the sites
/// record, whether the plan fired, the rounds, each snapshot's full
/// state (the hand-off snapshot's included) with its dynamic count and
/// class tallies named first, and the exit table.
fn assert_same_run(a: &Executed, b: &Executed, what: &str) {
    let classes: Vec<SiteClass> = [
        SiteClass::GprWriter,
        SiteClass::GprWriterNoHalf,
        SiteClass::FloatArith,
        SiteClass::HalfArith,
        SiteClass::IntArith,
        SiteClass::Load,
    ]
    .into_iter()
    .chain(Op::ALL.iter().map(|op| SiteClass::Unit(op.functional_unit())))
    .collect();
    let snapshots = |r: &Executed| -> Vec<(u64, Vec<u64>)> {
        let snaps = r.snapshots.iter().chain(&r.handoff);
        snaps
            .map(|s| (s.dyn_count(), classes.iter().map(|&c| s.class_matches(c)).collect()))
            .collect()
    };
    assert_eq!(a.status, b.status, "{what}: status");
    assert!(a.memory == b.memory, "{what}: memory");
    assert_eq!(a.counts, b.counts, "{what}: counts");
    assert_eq!(a.sites_record, b.sites_record, "{what}: sites record");
    assert_eq!(a.fault_triggered, b.fault_triggered, "{what}: fault_triggered");
    assert_eq!(snapshots(a), snapshots(b), "{what}: snapshots");
    let states = |r: &Executed| r.snapshots.iter().chain(&r.handoff).cloned().collect::<Vec<_>>();
    assert!(states(a) == states(b), "{what}: snapshot states");
    assert_eq!(a.rounds, b.rounds, "{what}: rounds");
    assert!(a.exit_table == b.exit_table, "{what}: exit table");
}

/// A run stepped lane by lane (a sink attached) and one stepped run-wide
/// (no sink) are the same run, on every workload kernel: the golden run
/// with its sites record and snapshots, and a trial of every
/// trigger-carrying plan family with its sites record and hand-off.
#[test]
fn lane_by_lane_and_run_wide_steps_agree_on_every_kernel() {
    let mut fired = 0;
    let mut trials = 0;
    for (w, device) in every_kernel() {
        let opts = RunOptions::golden().record_sites(true).snapshot_every(2048);
        let mut sink = CountingSink::default();
        let traced = w.execute_traced(&device, &opts, &mut sink);
        let golden = w.execute(&device, &opts);
        assert!(sink.events > golden.counts.total, "{}: the sink saw no retires", w.name);
        assert!(!golden.snapshots.is_empty(), "{}: no snapshot captured", w.name);
        assert_same_run(&traced, &golden, &format!("{} golden", w.name));
        let watchdog = 4 * golden.counts.total;
        for (family, plan) in family_plans(&golden) {
            let opts = RunOptions::trial(plan)
                .ecc(false)
                .watchdog(watchdog)
                .record_sites(true)
                .hand_off(true);
            let traced = w.execute_traced(&device, &opts, &mut CountingSink::default());
            let run = w.execute(&device, &opts);
            assert_same_run(&traced, &run, &format!("{}/{family}", w.name));
            fired += u32::from(run.fault_triggered);
            trials += 1;
        }
    }
    assert!(fired * 4 > trials * 3, "only {fired} of {trials} plans fired");
}

/// The same comparison without a sites record, which a plain run keeps
/// only when asked: a run stepped lane by lane (a sink attached) and one
/// whose divergent turns may issue in windows (no sink, no record) are
/// the same run on every workload kernel, the golden run with its
/// snapshots and exit table and a trial of every trigger-carrying plan
/// family with its hand-off.
#[test]
fn lane_by_lane_and_windowed_issue_agree_on_every_kernel() {
    let mut fired = 0;
    let mut trials = 0;
    for (w, device) in every_kernel() {
        let opts = RunOptions::golden().snapshot_every(2048);
        let traced = w.execute_traced(&device, &opts, &mut CountingSink::default());
        let golden = w.execute(&device, &opts);
        assert!(!golden.snapshots.is_empty(), "{}: no snapshot captured", w.name);
        assert_same_run(&traced, &golden, &format!("{} golden", w.name));
        let watchdog = 4 * golden.counts.total;
        for (family, plan) in family_plans(&golden) {
            let opts = RunOptions::trial(plan).ecc(false).watchdog(watchdog).hand_off(true);
            let traced = w.execute_traced(&device, &opts, &mut CountingSink::default());
            let run = w.execute(&device, &opts);
            assert_same_run(&traced, &run, &format!("{}/{family}", w.name));
            fired += u32::from(run.fault_triggered);
            trials += 1;
        }
    }
    assert!(fired * 4 > trials * 3, "only {fired} of {trials} plans fired");
}

/// The stuck-at hidden plans, each of which hangs some kernel: a fetch
/// plan that replays the stale instruction, or flips an opcode bit to
/// another pc inside the kernel or to one outside every kernel, from
/// half-way through the golden run on; and a memory queue that replays,
/// drops or flags every entry from half-way through its memory ops on.
fn stuck_at_plans(golden: &Executed) -> Vec<(&'static str, FaultPlan)> {
    let (at, nth) = (golden.counts.total / 2, golden.counts.sites.mem_ops / 2);
    let persist = Persistence::StuckAt;
    let fetch = |effect| FaultPlan::Fetch { at, effect, persist };
    let memq = |effect| FaultPlan::MemQueue { nth, effect, persist };
    vec![
        ("stale-replay", fetch(FetchEffect::StaleReplay)),
        ("opcode-flip-inside", fetch(FetchEffect::OpcodeFlip(BitFlip::single(1)))),
        ("opcode-flip-outside", fetch(FetchEffect::OpcodeFlip(BitFlip::single(14)))),
        ("memq-replay", memq(MemQueueEffect::Replay)),
        ("memq-drop", memq(MemQueueEffect::Drop)),
        ("memq-flag", memq(MemQueueEffect::Flag)),
    ]
}

/// Under a stuck-at fetch or memory-queue plan, a run stepped lane by
/// lane (a sink attached) and one without a sink are the same run, on
/// every workload kernel, the MMA and SHFL kernels included: each plan
/// of [`stuck_at_plans`] from zero and resumed from golden's snapshot
/// before its trigger, to the end or to a watchdog at four golden runs.
/// The resumed run ends as the run from zero does, with the same memory,
/// dynamic count and site counts.
#[test]
fn stuck_at_plans_agree_lane_by_lane_and_run_wide_on_every_kernel() {
    let (mut fired, mut hung, mut resumed, mut trials) = (0, 0, 0, 0);
    for (w, device) in every_kernel() {
        let golden = w.execute(&device, &RunOptions::golden().ecc(false).snapshot_every(2048));
        let watchdog = 4 * golden.counts.total;
        for (family, plan) in stuck_at_plans(&golden) {
            let (before, _) = trigger_position(&golden.snapshots, &golden.counts, &plan);
            let snap = before.checked_sub(1).map(|i| Arc::clone(&golden.snapshots[i]));
            let opts = RunOptions::trial(plan).ecc(false).watchdog(watchdog);
            let traced = w.execute_traced(&device, &opts, &mut CountingSink::default());
            let run = w.execute(&device, &opts);
            let what = format!("{}/{family}", w.name);
            assert_same_run(&traced, &run, &what);
            if snap.is_some() {
                let opts = opts.resume(snap);
                let traced = w.execute_traced(&device, &opts, &mut CountingSink::default());
                let from_snap = w.execute(&device, &opts);
                assert_same_run(&traced, &from_snap, &format!("{what} resumed"));
                assert_eq!(run.status, from_snap.status, "{what}: resumed status");
                assert!(run.memory == from_snap.memory, "{what}: resumed memory");
                assert_eq!(run.counts.total, from_snap.counts.total, "{what}: resumed total");
                assert_eq!(run.counts.sites, from_snap.counts.sites, "{what}: resumed sites");
                resumed += 1;
            }
            fired += u32::from(run.fault_triggered);
            hung += u32::from(run.status == ExecStatus::Due(DueKind::Watchdog));
            trials += 1;
        }
    }
    assert!(fired * 10 > trials * 9, "only {fired} of {trials} plans fired");
    assert!(hung * 4 > trials, "only {hung} of {trials} plans hung");
    assert!(resumed * 2 > trials, "only {resumed} of {trials} plans resumed");
}

/// Where the scheduler round top acts, pinned. On every workload kernel
/// and on Small QUICKSORT (one divergent warp per block) and MERGESORT
/// (four warps per block), the digest covers the golden run's snapshot
/// points and rounds, and for each trigger-carrying plan family resumed
/// from golden's nearest snapshot before its trigger, with an exit golden
/// and a hand-off: the status, the hand-off's dynamic count, the exit
/// (block or rejoin, and where), the rounds, and from a traced run every
/// `FaultInjected` index. The parity tests compare runs that share the
/// round-top code; this one pins its answers. Digests were captured on
/// the engine that ran all four round-top checks every multi-warp round.
#[test]
fn round_top_events_pinned() {
    const PINNED: [(&str, u64); 31] = [
        ("CCL", 9068321429588940503),
        ("BFS", 9522400035565262798),
        ("FLAVA", 1045078711834188208),
        ("FHOTSPOT", 17403779017901108244),
        ("FGAUSSIAN", 5347114173869387258),
        ("FLUD", 10329823676172721492),
        ("NW", 15153976604254599165),
        ("FMXM", 9494153652282012061),
        ("FGEMM", 9937541061798815255),
        ("MERGESORT", 7525150915292068108),
        ("QUICKSORT", 1323654921570438119),
        ("FYOLOV2", 4411793634943208467),
        ("FYOLOV3", 6871264700347704658),
        ("HLAVA", 2297500615088419121),
        ("FLAVA", 1045078711834188208),
        ("DLAVA", 13446947016907030627),
        ("HHOTSPOT", 9819969905659626340),
        ("FHOTSPOT", 15893235243903809611),
        ("DHOTSPOT", 17595398916352673932),
        ("HMXM", 408760321569889534),
        ("FMXM", 15234298817954726540),
        ("DMXM", 2657718185111831958),
        ("HGEMM", 5266229294140649020),
        ("FGEMM", 9937541061798815255),
        ("DGEMM", 2245858768191956417),
        ("HGEMM-MMA", 7113969134251106544),
        ("FGEMM-MMA", 8286161633529985104),
        ("HYOLOV3", 9000481523715547224),
        ("FYOLOV3", 6871264700347704658),
        ("QUICKSORT", 15424323631518236501),
        ("MERGESORT", 12244650907033390431),
    ];
    let sorts = [Benchmark::Quicksort, Benchmark::Mergesort].map(|b| {
        let w = build(b, Precision::Int32, CodeGen::Cuda7, Scale::Small);
        (w, DeviceModel::named("k40c-sim"))
    });
    let mut got = Vec::new();
    for (w, device) in every_kernel().into_iter().chain(sorts) {
        let golden = w.execute(&device, &RunOptions::golden().ecc(false).snapshot_every(2048));
        let golden = Arc::new(golden);
        let points: Vec<u64> = golden.snapshots.iter().map(|s| s.dyn_count()).collect();
        let mut events = format!("{points:?} {}", golden.rounds);
        let watchdog = 4 * golden.counts.total;
        for (family, plan) in family_plans(&golden) {
            let (before, _) = trigger_position(&golden.snapshots, &golden.counts, &plan);
            let resume = before.checked_sub(1).map(|i| Arc::clone(&golden.snapshots[i]));
            let opts = RunOptions::trial(plan)
                .ecc(false)
                .watchdog(watchdog)
                .resume(resume)
                .exit_through(Some(Arc::clone(&golden)))
                .hand_off(true);
            let run = w.execute(&device, &opts);
            let mut sink = RecordingSink::new();
            w.execute_traced(&device, &opts, &mut sink);
            let fired: Vec<u64> = sink
                .events
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::FaultInjected { idx, .. } => Some(idx),
                    _ => None,
                })
                .collect();
            let handoff = run.handoff.as_ref().map(|s| s.dyn_count());
            events += &format!(
                " | {family} {:?} {handoff:?} {:?} {} {fired:?}",
                run.status, run.exit, run.rounds
            );
        }
        got.push((w.name.clone(), fnv1a(events.into_bytes())));
    }
    let pinned: Vec<(String, u64)> = PINNED.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(got, pinned, "round-top events drifted");
}

/// A DUE in the middle of a divergent turn counts every lane before the
/// failing one and the failing lane itself, and no lane after it. In
/// QUICKSORT Small (one warp per block), block 0's turn from dyn 1504
/// finds its lanes at three pcs: LDG R17 via R16 (pc 32), LDG R19 via R18
/// (pc 38) and the loop's BRA (pc 29). A strike on lane 13's R18 at dyn
/// 1503, the last instruction of the turn before, leaves that address
/// misaligned, so lane 13's LDG faults with memory lanes and BRA lanes
/// both below it and above it. Values pinned on the lane-order engine.
#[test]
fn mid_turn_due_counts_through_the_failing_lane() {
    let qs = build(Benchmark::Quicksort, Precision::Int32, CodeGen::Cuda7, Scale::Small);
    let device = DeviceModel::named("k40c-sim");
    let plan = FaultPlan::RegisterBit {
        block: 0,
        thread: 13,
        reg: 18,
        flip: BitFlip::single(1),
        at: 1503,
    };
    let opts = RunOptions::trial(plan).ecc(false);
    let run = qs.execute(&device, &opts);
    let mut sink = RecordingSink::new();
    let traced = qs.execute_traced(&device, &opts, &mut sink);
    assert_same_run(&traced, &run, "QUICKSORT mid-turn DUE");

    // The turn as the golden run takes it, and as far as the trial gets.
    let turn = |events: &[TraceEvent]| -> Vec<(u32, u32)> {
        let turn = events.iter().filter_map(|e| match *e {
            TraceEvent::InstrRetired { idx, lane, pc, .. } if (1504..1536).contains(&idx) => {
                Some((lane, pc))
            }
            _ => None,
        });
        turn.collect()
    };
    let mut golden = RecordingSink::new();
    qs.execute_traced(&device, &RunOptions::golden(), &mut golden);
    let whole = turn(&golden.events);
    assert_eq!(
        whole.iter().map(|&(lane, _)| lane).collect::<Vec<_>>(),
        (0..32).collect::<Vec<_>>()
    );
    let at = |pc: u32, lanes: std::ops::Range<usize>| whole[lanes].iter().any(|&(_, p)| p == pc);
    assert!(at(29, 0..13) && at(29, 14..32), "no lane-local lane on both sides of lane 13");
    assert!(at(32, 0..13) && at(38, 0..13) && at(38, 14..32), "memory lanes missing");
    assert_eq!(whole[13], (13, 38));
    assert_eq!(turn(&sink.events), whole[..14].to_vec(), "the trial's turn is not lanes 0..=13");

    let c = &run.counts;
    assert_eq!(run.status, ExecStatus::Due(DueKind::MemoryViolation));
    assert_eq!(c.total, 1518);
    assert_eq!(
        c.sites,
        SiteCounts {
            gpr_writers: 1015,
            gpr_writers_no_half: 1015,
            loads: 169,
            mem_ops: 245,
            setp: 195
        }
    );
    assert_eq!(c.per_unit, [0, 0, 0, 0, 0, 0, 0, 0, 0, 494, 32, 64, 0, 0, 245, 683]);
    assert_eq!(c.warp_instrs, [1518, 0]);
    assert_eq!(outcome_digest(&run), 4930149083244981319);
}

/// The plain QUICKSORT Small golden run issues its divergent warps in
/// windows: one per block, opened once the lanes have split up, none
/// rolled back, on both code generations. A traced run opens none and
/// is the same run, rounds included. A change that stops windows from
/// opening, or makes the golden run roll one back, fails here.
#[test]
fn quicksort_golden_windows_pinned() {
    let device = DeviceModel::named("k40c-sim");
    for codegen in [CodeGen::Cuda7, CodeGen::Cuda10] {
        let qs = build(Benchmark::Quicksort, Precision::Int32, codegen, Scale::Small);
        let golden = qs.execute(&device, &RunOptions::golden());
        let traced =
            qs.execute_traced(&device, &RunOptions::golden(), &mut CountingSink::default());
        assert_same_run(&traced, &golden, &format!("QUICKSORT {codegen:?} golden"));
        assert_eq!(golden.rounds, traced.rounds, "{codegen:?}: rounds");
        assert_eq!((traced.windows, traced.window_rollbacks), (0, 0), "{codegen:?}: traced");
        assert_eq!((golden.windows, golden.window_rollbacks), (2, 0), "{codegen:?}: windows");
    }
}

/// A run-wide step that raises a DUE at a middle lane counts the lanes
/// before it and the failing lane (retires and site counts) and runs no
/// later lane. A register strike before a converged FMXM warp's LDG
/// (block 1, warp 0, lane 0 at dyn 19392) leaves lane 16's address
/// register misaligned, so the LDG's quiet 32-lane run faults at lane 16.
/// Values pinned on the lane-at-a-time engine.
#[test]
fn mid_run_due_counts_through_the_failing_lane() {
    let mxm = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda7, Scale::Tiny);
    let device = DeviceModel::named("k40c-sim");
    let plan = FaultPlan::RegisterBit {
        block: 1,
        thread: 16,
        reg: 8,
        flip: BitFlip::single(1),
        at: 19391,
    };
    let opts = RunOptions::trial(plan).ecc(false).record_sites(true);
    let run = mxm.execute(&device, &opts);
    let mut sink = RecordingSink::new();
    let traced = mxm.execute_traced(&device, &opts, &mut sink);
    assert_same_run(&traced, &run, "FMXM mid-run DUE");

    // The strike lands before the run, and the run's lanes 0..=16 retire.
    let fired = sink.events.iter().find_map(|e| match *e {
        TraceEvent::FaultInjected { idx, .. } => Some(idx),
        _ => None,
    });
    assert_eq!(fired, Some(19391));
    let ldg: Vec<(u64, u32)> = sink
        .events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::InstrRetired { idx, lane, op: "LDG", .. } if idx >= 19392 => {
                Some((idx, lane))
            }
            _ => None,
        })
        .collect();
    assert_eq!(ldg, (0..=16).map(|l| (19392 + l as u64, l)).collect::<Vec<_>>());

    let c = &run.counts;
    assert_eq!(run.status, ExecStatus::Due(DueKind::MemoryViolation));
    assert_eq!(c.total, 19409);
    assert_eq!(
        c.sites,
        SiteCounts {
            gpr_writers: 16593,
            gpr_writers_no_half: 16593,
            loads: 2705,
            mem_ops: 2769,
            setp: 1344
        }
    );
    assert_eq!(c.per_unit, [0, 0, 1344, 0, 0, 0, 0, 0, 0, 6976, 0, 3072, 0, 0, 2769, 5248]);
    assert_eq!(c.per_mix, [1344, 0, 0, 10048, 0, 2769, 5248]);
    assert_eq!(c.warp_instrs, [7168, 7168, 2545, 2528, 0, 0, 0, 0]);
    let rec = run.sites_record.as_ref().unwrap();
    assert_eq!((rec.site_pcs.len(), rec.mem_pcs.len(), rec.setp_pcs.len()), (16593, 2769, 1344));
    assert_eq!(outcome_digest(&run), 3247497996934429846);
}

/// Where a fault landed: the dynamic index and pc of the last retired
/// instruction, and, once the plan fires, its `FaultInjected` index with
/// the retired instruction it fired at.
#[derive(Default)]
struct Landing {
    retired: (u64, u32),
    fired: Option<(u64, (u64, u32))>,
}

impl TraceSink for Landing {
    fn event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::InstrRetired { idx, pc, .. } => self.retired = (idx, pc),
            TraceEvent::FaultInjected { idx, .. } => {
                self.fired.get_or_insert((idx, self.retired));
            }
            _ => {}
        }
    }
}

/// A positional fault fires on the site its `nth` names. On every
/// workload kernel, each positional plan family (an output fault over
/// the GPR writers and the no-half writers, and on the first MMA site of
/// a kernel that has one; a memory-address fault; a predicate fault),
/// run from zero and resumed from the latest golden snapshot before it,
/// fires at the instruction retired just before: the instruction its
/// `FaultInjected` index names. Its pc must be the one the golden sites
/// record lists at `nth`: the GPR-writer sites filtered by the plan's
/// class, the memory ops or the SETPs.
#[test]
fn positional_faults_land_on_the_recorded_site() {
    let (mut runs, mut resumed, mut mma) = (0, 0, 0);
    for (w, device) in every_kernel() {
        let opts = RunOptions::golden().record_sites(true).snapshot_every(512);
        let golden = w.execute(&device, &opts);
        let rec = golden.sites_record.as_ref().unwrap();
        let instrs = w.kernel().instrs();
        let of_class = |class: SiteClass| -> Vec<u32> {
            let pcs = rec.site_pcs.iter().copied();
            pcs.filter(|&pc| class.matches(instrs[pc as usize].op)).collect()
        };
        let gpr = of_class(SiteClass::GprWriter);
        let no_half = of_class(SiteClass::GprWriterNoHalf);
        let first_mma = gpr.iter().position(|&pc| instrs[pc as usize].op.is_mma());
        let flip = BitFlip::single(4);
        let output =
            |nth: usize, site| FaultPlan::InstructionOutput { nth: nth as u64, site, flip };
        let mut plans = vec![
            (output(gpr.len() * 2 / 3, SiteClass::GprWriter), &gpr),
            (output(no_half.len() * 2 / 3, SiteClass::GprWriterNoHalf), &no_half),
            (FaultPlan::MemAddress { nth: rec.mem_pcs.len() as u64 * 2 / 3, flip }, &rec.mem_pcs),
            (FaultPlan::PredicateOutput { nth: rec.setp_pcs.len() as u64 * 2 / 3 }, &rec.setp_pcs),
        ];
        if let Some(nth) = first_mma {
            plans.push((output(nth, SiteClass::GprWriter), &gpr));
            mma += 1;
        }
        for (plan, pcs) in plans {
            let nth = match plan {
                FaultPlan::InstructionOutput { nth, .. }
                | FaultPlan::MemAddress { nth, .. }
                | FaultPlan::PredicateOutput { nth } => nth as usize,
                _ => unreachable!("positional plans only"),
            };
            let Some(&site_pc) = pcs.get(nth) else { continue };
            let (before, _) = trigger_position(&golden.snapshots, &golden.counts, &plan);
            let snapshot = before.checked_sub(1).map(|i| Arc::clone(&golden.snapshots[i]));
            let opts = RunOptions::trial(plan).watchdog(4 * golden.counts.total);
            let mut landed = Vec::new();
            for resume in [None, snapshot] {
                let ran_resumed = resume.is_some();
                let mut sink = Landing::default();
                w.execute_traced(&device, &opts.clone().resume(resume), &mut sink);
                let what = format!("{} {plan:?} resumed {ran_resumed}", w.name);
                let Some((idx, (retired, pc))) = sink.fired else { panic!("{what}: never fired") };
                assert_eq!(idx, retired, "{what}: fired off the retiring instruction");
                assert_eq!(pc, site_pc, "{what}: landed at pc {pc}, not at site {nth}'s");
                landed.push((idx, pc));
                runs += 1;
                resumed += u32::from(ran_resumed);
            }
            assert!(landed.windows(2).all(|p| p[0] == p[1]), "{}: {landed:?}", w.name);
        }
    }
    assert!(mma >= 1, "no kernel with an MMA site");
    assert!(resumed * 3 > runs, "only {resumed} of {runs} runs resumed from a snapshot");
}
