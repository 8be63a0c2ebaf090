//! Hot-loop throughput of the interpreter: dynamic instructions per
//! second of wall clock, on representative golden runs.
//!
//! This is the number the predecode layer (DESIGN.md §14) exists to move:
//! every campaign pays the `step()` loop thousands of times, so
//! instructions/second is the unit cost of every table and figure. The
//! bench is self-reporting — alongside the human-readable lines it writes
//! `BENCH_sim_throughput.json` (override the path with the
//! `BENCH_JSON_PATH` environment variable) so CI can record the perf
//! trajectory per commit. The golden runs cover converged warps (FMXM,
//! FHOTSPOT, HGEMM-MMA), one divergent kernel, QUICKSORT, whose lanes
//! each sort their own slice and so sit at different pcs in most turns,
//! and `lone_lane_loop`, one thread in a loop of integer ops: it measures
//! a lone lane's per-instruction issue cost, what a hung straggler or the
//! tail of a sort pays for every instruction it runs alone.
//!
//! Three hung trials measure where a campaign's hidden-resource trials
//! spend their time: FHOTSPOT Small on v100-sim under a stuck-at fetch
//! plan that replays the stale instruction and under a stuck-at memory
//! queue that replays every entry, each from half-way through the golden
//! run on, and under a stuck-at stale fetch from a fifth of the way on,
//! run to the campaign watchdog (`4 * golden + 100,000` instructions).
//! The first two come back to one state every round, so the repeat exit
//! (DESIGN.md §16) ends them by whole periods; the third drifts and runs
//! every instruction, which prices the exit's saves and compares on a
//! hang it cannot end. Hangs are reported as wall time per hang, with the
//! instructions the repeat exit skipped: their dyn-instrs/s counts the
//! skipped periods too.
//!
//! The campaign section measures trials/second twice — with the golden
//! snapshot fast-forward and the early exits (DESIGN.md §16) enabled and
//! disabled — and reports the speedup and the shares of executed trials
//! that exited at a block boundary, that rejoined golden and that resumed
//! from a relayed state, plus a snapshot-cache size report
//! (`BENCH_sim_throughput_snapshot_cache.txt`, override with
//! `BENCH_SNAPSHOT_CACHE_PATH`) for the CI artifact.
//!
//! Run modes:
//! * `cargo bench -p bench --bench sim_throughput` — full measurement;
//! * `... -- --test` (or `--smoke`) — CI smoke mode: one warmup and a
//!   short measurement window, still emitting the JSON. Smoke mode
//!   asserts the snapshot-enabled campaign figure made it into the JSON.

use campaign::{golden, Budget, Campaign, SnapshotPolicy};
use gpu_arch::{
    CmpOp, CodeGen, DeviceModel, Kernel, KernelBuilder, LaunchConfig, MemWidth, Operand, Precision,
    Pred, Reg,
};
use gpu_sim::{
    DueKind, ExecStatus, Executed, FaultPlan, FetchEffect, GlobalMemory, MemQueueEffect,
    Persistence, RunOptions, Target,
};
use injector::{Avf, Injector};
use obs::json::{object, Json};
use obs::{CampaignObserver, MetricsRegistry};
use std::hint::black_box;
use std::time::Instant;
use workloads::{build, Benchmark, Scale, Workload};

struct Case {
    name: &'static str,
    target: Box<dyn Target>,
    device: DeviceModel,
}

/// One thread running `LONE_LANE_TRIPS` trips of a five-instruction
/// integer loop, then storing a checksum: the block's only lane, so it
/// issues every instruction alone.
struct LoneLaneLoop {
    kernel: Kernel,
    launch: LaunchConfig,
}

const LONE_LANE_TRIPS: u32 = 100_000;

impl LoneLaneLoop {
    fn new() -> LoneLaneLoop {
        let r = Reg;
        let mut b = KernelBuilder::new("lone-lane-loop");
        b.mov(r(0), Operand::Imm(0));
        b.mov(r(1), Operand::Imm(1));
        b.label("top");
        b.iadd(r(0), r(0).into(), Operand::Imm(1));
        b.imad(r(1), r(1).into(), Operand::Imm(3), r(0).into());
        b.xor(r(2), r(1).into(), r(0).into());
        b.isetp(Pred(0), CmpOp::Lt, r(0).into(), Operand::Imm(LONE_LANE_TRIPS));
        b.if_p(Pred(0)).bra("top");
        b.stg(MemWidth::W32, Reg::RZ, 0, r(2));
        b.exit();
        let kernel = b.build().expect("the lone-lane loop is a valid kernel");
        LoneLaneLoop { kernel, launch: LaunchConfig::new(1, 1, vec![]) }
    }
}

impl Target for LoneLaneLoop {
    fn name(&self) -> &str {
        "LONE-LANE-LOOP"
    }
    fn kernel(&self) -> &Kernel {
        &self.kernel
    }
    fn launch(&self) -> &LaunchConfig {
        &self.launch
    }
    fn fresh_memory(&self) -> GlobalMemory {
        GlobalMemory::new(4)
    }
    fn output_matches(&self, golden: &Executed, faulty: &Executed) -> bool {
        golden.memory.raw() == faulty.memory.raw()
    }
}

/// A golden case of a paper workload.
fn workload(name: &'static str, w: Workload, device: &str) -> Case {
    Case { name, target: Box::new(w), device: DeviceModel::named(device) }
}

struct Measurement {
    name: &'static str,
    dyn_instrs: u64,
    /// Instructions the repeat exit skipped (hangs only).
    repeat_skipped: u64,
    /// Best (minimum) seconds per golden run over the sample set.
    best_secs: f64,
    mean_secs: f64,
    samples: usize,
}

impl Measurement {
    fn instrs_per_sec(&self) -> f64 {
        self.dyn_instrs as f64 / self.best_secs
    }
}

fn measure(case: &Case, budget_secs: f64, min_samples: usize) -> Measurement {
    // One untimed run warms caches and yields the dynamic-instruction
    // count the rates are computed from.
    let golden = case.target.execute_golden(&case.device);
    assert!(golden.status.completed(), "{}: golden run failed", case.name);
    let dyn_instrs = golden.counts.total;

    let (best_secs, mean_secs, samples) = sample(budget_secs, min_samples, || {
        black_box(case.target.execute_golden(&case.device));
    });
    Measurement { name: case.name, dyn_instrs, repeat_skipped: 0, best_secs, mean_secs, samples }
}

/// Time `run` at least `min_samples` times and for at least `budget_secs`:
/// the best and the mean seconds per call, and the number of calls.
fn sample(budget_secs: f64, min_samples: usize, mut run: impl FnMut()) -> (f64, f64, usize) {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_samples || start.elapsed().as_secs_f64() < budget_secs {
        let t = Instant::now();
        run();
        samples.push(t.elapsed().as_secs_f64());
    }
    let best = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    (best, mean, samples.len())
}

/// A hung trial of `w` on `device` under `plan`, which is aimed at the
/// golden run it is given, run to the campaign watchdog: seconds per hang
/// and the instructions the repeat exit skipped, checked against
/// `repeats`.
fn measure_hang(
    name: &'static str,
    w: &Workload,
    device: &DeviceModel,
    plan: impl Fn(&Executed) -> FaultPlan,
    repeats: bool,
    budget_secs: f64,
    min_samples: usize,
) -> Measurement {
    let golden = w.execute_golden(device);
    let watchdog = 4 * golden.counts.total + 100_000;
    let opts = RunOptions::trial(plan(&golden)).watchdog(watchdog);
    let hung = w.execute(device, &opts);
    assert_eq!(hung.status, ExecStatus::Due(DueKind::Watchdog), "{name}: the trial did not hang");
    assert_eq!(hung.repeat_skipped > 0, repeats, "{name}: repeat exit taken");
    let (best_secs, mean_secs, samples) = sample(budget_secs, min_samples, || {
        black_box(w.execute(device, &opts));
    });
    let (dyn_instrs, repeat_skipped) = (hung.counts.total, hung.repeat_skipped);
    Measurement { name, dyn_instrs, repeat_skipped, best_secs, mean_secs, samples }
}

/// End-to-end campaign rate: full injector trials (plan sampling, faulty
/// run, golden compare, tallying) per second of wall clock — the number a
/// campaign's ETA is made of, complementing the per-instruction rate.
struct CampaignMeasurement {
    name: &'static str,
    trials: u64,
    best_secs: f64,
    mean_secs: f64,
    samples: usize,
    /// Share of executed trials that ended at a block boundary; `NaN`
    /// when the exits were not armed.
    exit_share: f64,
    /// Share of executed trials that rejoined golden inside a block;
    /// `NaN` when the exits were not armed.
    rejoin_share: f64,
    /// Share of executed trials that resumed from the state the trial
    /// before them handed off; `NaN` when fast-forward was off.
    relay_share: f64,
}

impl CampaignMeasurement {
    fn trials_per_sec(&self) -> f64 {
        self.trials as f64 / self.best_secs
    }
}

fn measure_campaign(
    name: &'static str,
    workload: &Workload,
    device: &DeviceModel,
    trials: u32,
    snapshots: SnapshotPolicy,
    budget_secs: f64,
    min_samples: usize,
) -> CampaignMeasurement {
    let run_once = |observer| {
        Campaign::new(Avf::new(Injector::NvBitFi), workload, device)
            .budget(Budget::fixed(trials).seed(2021).snapshots(snapshots))
            .observer(observer)
            .run()
            .expect("throughput campaign failed")
    };
    // Warm the golden cache, counting where trials ended.
    let metrics = MetricsRegistry::new();
    black_box(run_once(CampaignObserver::with_metrics(&metrics)));
    let count = |kind: &str| metrics.counter(&format!("campaign.exit.{kind}")).get() as f64;
    let (exited, rejoined) = (count("block"), count("rejoin"));
    let executed = exited + rejoined + count("none");
    let (exit_share, rejoin_share) = (exited / executed, rejoined / executed);
    let snapshot = |kind: &str| metrics.counter(&format!("campaign.snapshot.{kind}")).get() as f64;
    let relay_share = snapshot("relay") / (snapshot("hit") + snapshot("miss"));
    let (best_secs, mean_secs, samples) = sample(budget_secs, min_samples, || {
        black_box(run_once(CampaignObserver::none()));
    });
    CampaignMeasurement {
        name,
        trials: trials as u64,
        best_secs,
        mean_secs,
        samples,
        exit_share,
        rejoin_share,
        relay_share,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test" || a == "--smoke");
    let (budget_secs, min_samples) = if smoke { (0.2, 2) } else { (2.0, 10) };

    let cases = [
        workload(
            "mxm_f32_small",
            build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Small),
            "k40c-sim",
        ),
        workload(
            "hotspot_f32_small",
            build(Benchmark::Hotspot, Precision::Single, CodeGen::Cuda10, Scale::Small),
            "k40c-sim",
        ),
        workload(
            "quicksort_i32_small",
            build(Benchmark::Quicksort, Precision::Int32, CodeGen::Cuda7, Scale::Small),
            "k40c-sim",
        ),
        workload(
            "gemm_mma_h16_small",
            build(Benchmark::GemmMma, Precision::Half, CodeGen::Cuda10, Scale::Small),
            "v100-sim",
        ),
        Case {
            name: "lone_lane_loop",
            target: Box::new(LoneLaneLoop::new()),
            device: DeviceModel::named("k40c-sim"),
        },
    ];

    let results: Vec<Measurement> =
        cases.iter().map(|c| measure(c, budget_secs, min_samples)).collect();

    let hotspot = build(Benchmark::Hotspot, Precision::Single, CodeGen::Cuda10, Scale::Small);
    let volta = DeviceModel::named("v100-sim");
    let persist = Persistence::StuckAt;
    let hangs = [
        measure_hang(
            "hang_stale_replay_hotspot",
            &hotspot,
            &volta,
            |g| FaultPlan::Fetch {
                at: g.counts.total / 2,
                effect: FetchEffect::StaleReplay,
                persist,
            },
            true,
            budget_secs,
            min_samples,
        ),
        measure_hang(
            "hang_memq_replay_hotspot",
            &hotspot,
            &volta,
            |g| FaultPlan::MemQueue {
                nth: g.counts.sites.mem_ops / 2,
                effect: MemQueueEffect::Replay,
                persist,
            },
            true,
            budget_secs,
            min_samples,
        ),
        measure_hang(
            "hang_stale_drift_hotspot",
            &hotspot,
            &volta,
            |g| FaultPlan::Fetch {
                at: g.counts.total / 5,
                effect: FetchEffect::StaleReplay,
                persist,
            },
            false,
            budget_secs,
            min_samples,
        ),
    ];

    for m in &results {
        println!(
            "sim_throughput/{:<26} {:>8.2} M dyn-instrs/s  (best {:.3} ms, mean {:.3} ms, {} dyn instrs, {} samples)",
            m.name,
            m.instrs_per_sec() / 1e6,
            m.best_secs * 1e3,
            m.mean_secs * 1e3,
            m.dyn_instrs,
            m.samples,
        );
    }
    for m in &hangs {
        println!(
            "sim_throughput/{:<26} {:>8.3} ms/hang  (mean {:.3} ms, {} dyn instrs, {} skipped by the repeat exit, {} samples)",
            m.name,
            m.best_secs * 1e3,
            m.mean_secs * 1e3,
            m.dyn_instrs,
            m.repeat_skipped,
            m.samples,
        );
    }

    // Campaign trials/sec, snapshots on vs off: the same workload, seed
    // and trial count, differing only in the fast-forward policy — so the
    // ratio is the speedup the snapshot layer, early exits included, buys.
    let campaign_trials = if smoke { 50 } else { 200 };
    let mxm_tiny = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Tiny);
    let kepler = DeviceModel::named("k40c-sim");
    let campaign_results = [
        measure_campaign(
            "avf_nvbitfi_mxm_f32_tiny",
            &mxm_tiny,
            &kepler,
            campaign_trials,
            SnapshotPolicy::Auto,
            budget_secs,
            min_samples,
        ),
        measure_campaign(
            "avf_nvbitfi_mxm_f32_tiny_nosnap",
            &mxm_tiny,
            &kepler,
            campaign_trials,
            SnapshotPolicy::Off,
            budget_secs,
            min_samples,
        ),
    ];
    for m in &campaign_results {
        println!(
            "sim_throughput/{:<32} {:>8.1} trials/s  exit share {:.2}  rejoin share {:.2}  relay share {:.2}  (best {:.3} ms, mean {:.3} ms, {} trials, {} samples)",
            m.name,
            m.trials_per_sec(),
            m.exit_share,
            m.rejoin_share,
            m.relay_share,
            m.best_secs * 1e3,
            m.mean_secs * 1e3,
            m.trials,
            m.samples,
        );
    }
    let snap_rate = campaign_results[0].trials_per_sec();
    let nosnap_rate = campaign_results[1].trials_per_sec();
    let speedup = snap_rate / nosnap_rate;
    println!("sim_throughput/snapshot_fastforward_speedup {speedup:>8.2}x (snapshots and early exits {snap_rate:.1} vs from-zero {nosnap_rate:.1} trials/s)");

    let path = std::env::var("BENCH_JSON_PATH")
        .unwrap_or_else(|_| "BENCH_sim_throughput.json".to_string());
    let rates = |ms: &[Measurement]| -> Vec<Json> {
        ms.iter()
            .map(|m| {
                object([
                    ("name", Json::Str(m.name.to_string())),
                    ("dyn_instrs", Json::Num(m.dyn_instrs as f64)),
                    ("repeat_skipped", Json::Num(m.repeat_skipped as f64)),
                    ("best_secs", Json::Num(m.best_secs)),
                    ("mean_secs", Json::Num(m.mean_secs)),
                    ("instrs_per_sec", Json::Num(m.instrs_per_sec())),
                ])
            })
            .collect()
    };
    let campaigns = campaign_results.iter().map(|m| {
        object([
            ("name", Json::Str(m.name.to_string())),
            ("trials", Json::Num(m.trials as f64)),
            ("best_secs", Json::Num(m.best_secs)),
            ("mean_secs", Json::Num(m.mean_secs)),
            ("trials_per_sec", Json::Num(m.trials_per_sec())),
            ("exit_share", Json::Num(m.exit_share)),
            ("rejoin_share", Json::Num(m.rejoin_share)),
            ("relay_share", Json::Num(m.relay_share)),
        ])
    });
    let snapshots = object([
        ("case", Json::Str("avf_nvbitfi_mxm_f32_tiny".to_string())),
        ("trials_per_sec_snapshots", Json::Num(snap_rate)),
        ("trials_per_sec_nosnap", Json::Num(nosnap_rate)),
        ("speedup", Json::Num(speedup)),
    ]);
    let json = object([
        ("bench", Json::Str("sim_throughput".to_string())),
        ("unit", Json::Str("dyn_instrs_per_sec".to_string())),
        ("cases", Json::Arr(rates(&results))),
        ("hangs", Json::Arr(rates(&hangs))),
        ("campaigns", Json::Arr(campaigns.collect())),
        ("snapshots", snapshots),
    ])
    .to_string()
        + "\n";
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("sim_throughput: could not write {path}: {e}");
    } else {
        println!("sim_throughput: wrote {path}");
    }

    // Snapshot-cache size report for the CI artifact: which golden runs
    // are cached and how much memory their snapshot sets hold.
    let cache_path = std::env::var("BENCH_SNAPSHOT_CACHE_PATH")
        .unwrap_or_else(|_| "BENCH_sim_throughput_snapshot_cache.txt".to_string());
    let report = golden::cache_report();
    if let Err(e) = std::fs::write(&cache_path, &report) {
        eprintln!("sim_throughput: could not write {cache_path}: {e}");
    } else {
        println!("sim_throughput: wrote {cache_path}");
    }

    if smoke {
        // CI contract: the snapshot-enabled campaign figure must be
        // present (and sane) in the emitted JSON.
        let written = std::fs::read_to_string(&path).expect("smoke: read back BENCH JSON");
        assert!(
            written.contains("\"trials_per_sec_snapshots\""),
            "smoke: snapshot-enabled trials/sec missing from {path}"
        );
        assert!(
            snap_rate > 0.0 && snap_rate.is_finite(),
            "smoke: snapshot-enabled trials/sec not positive: {snap_rate}"
        );
        assert!(
            report.contains("stride="),
            "smoke: snapshot cache report has no cached entries:\n{report}"
        );
    }
}
