//! Acceptance tests for the campaign telemetry pipeline (DESIGN.md §15):
//! a real injector campaign on HHOTSPOT/Volta must produce a valid Chrome
//! trace and a Prometheus snapshot with trial-duration histogram buckets,
//! the span tree must be well-formed, and telemetry must never perturb
//! the architectural result — tallies are bit-identical with telemetry
//! on or off, at any worker count.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use beam::Beam;
use campaign::{Budget, Campaign, CampaignRun, Checkpoint, CheckpointStore, Kind, SnapshotPolicy};
use gpu_arch::{CodeGen, DeviceModel, DeviceRegistry, Precision, SiteClass};
use injector::{Avf, AvfResult, ClassAvf, HiddenAvf, Injector};
use obs::{json, CampaignObserver, MetricsRegistry, SpanBus};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use workloads::{build, build_with, Benchmark, Scale, Workload};

fn hhotspot() -> (Workload, DeviceModel) {
    let w = build(Benchmark::Hotspot, Precision::Half, CodeGen::Cuda10, Scale::Tiny);
    assert_eq!(w.name, "HHOTSPOT");
    (w, DeviceModel::named("v100-sim"))
}

fn run_campaign(
    trials: u32,
    workers: usize,
    observer: CampaignObserver<'_>,
) -> (AvfResult, CampaignRun) {
    let (w, device) = hhotspot();
    Campaign::new(Avf::new(Injector::NvBitFi), &w, &device)
        .budget(Budget::fixed(trials).seed(2021))
        .workers(workers)
        .observer(observer)
        .run_full()
        .expect("telemetry campaign failed")
}

#[test]
fn campaign_emits_valid_chrome_trace_and_prometheus_snapshot() {
    let metrics = MetricsRegistry::new();
    let spans = SpanBus::new();
    let observer = CampaignObserver::with_metrics(&metrics).with_spans(&spans);
    let (_, run) = run_campaign(96, 2, observer);
    assert_eq!(run.trials, 96);

    // The Chrome trace is one valid JSON array of complete/instant
    // events; every event carries the fields chrome://tracing requires.
    let trace = spans.to_chrome_trace();
    let doc = json::parse(&trace).expect("chrome trace must be valid JSON");
    let events = doc.as_arr().expect("chrome trace must be a JSON array");
    assert!(!events.is_empty());
    for event in events {
        let obj = event.as_obj().expect("trace event must be an object");
        let ph = obj.get("ph").and_then(json::Json::as_str).expect("missing ph");
        assert!(ph == "X" || ph == "i", "unexpected phase {ph}");
        assert!(obj.get("name").and_then(json::Json::as_str).is_some());
        assert!(obj.get("ts").is_some() && obj.get("pid").is_some() && obj.get("tid").is_some());
        if ph == "X" {
            assert!(obj.get("dur").is_some(), "complete event without dur");
        }
    }

    // The Prometheus exposition carries the trial-duration histogram with
    // cumulative buckets, plus the outcome counters.
    let prom = metrics.snapshot().to_prometheus_text();
    assert!(prom.contains("# TYPE campaign_trial_micros histogram"));
    assert!(prom.contains("campaign_trial_micros_bucket{le=\""));
    assert!(prom.contains("campaign_trial_micros_bucket{le=\"+Inf\"} 96"));
    assert!(prom.contains("campaign_trial_micros_count 96"));
    assert!(prom.contains("trials_total 96"));
}

#[test]
fn span_tree_is_well_formed() {
    let metrics = MetricsRegistry::new();
    let spans = SpanBus::new();
    let observer = CampaignObserver::with_metrics(&metrics).with_spans(&spans);
    let (_, run) = run_campaign(96, 3, observer);

    let records = spans.records();
    let campaigns: Vec<_> = records.iter().filter(|r| r.cat == "campaign").collect();
    assert_eq!(campaigns.len(), 1, "exactly one campaign span");
    let campaign = campaigns[0];
    assert!(campaign.dur_us.is_some(), "campaign span must be closed");
    assert_eq!(campaign.parent, obs::ROOT_SPAN);

    let shard_ids: std::collections::BTreeSet<u64> =
        records.iter().filter(|r| r.cat == "shard").map(|r| r.id).collect();
    assert_eq!(shard_ids.len() as u32, run.shards, "one span per shard");
    for shard in records.iter().filter(|r| r.cat == "shard") {
        assert_eq!(shard.parent, campaign.id, "shards parent under the campaign");
        assert!(shard.dur_us.is_some(), "shard span must be closed");
    }

    let trials: Vec<_> = records.iter().filter(|r| r.cat == "trial").collect();
    assert_eq!(trials.len() as u64, run.trials, "one span per trial");
    for trial in &trials {
        assert!(trial.dur_us.is_some(), "every trial span must be closed");
        assert!(shard_ids.contains(&trial.parent), "trials parent under a shard");
    }

    // Every executed trial's span carries its four engine phase times;
    // no trial runs a traced engine path of its own.
    let mut timed = 0;
    for trial in &trials {
        let keys: Vec<_> =
            trial.args.iter().map(|(k, _)| *k).filter(|k| PHASES.contains(k)).collect();
        assert!(keys.is_empty() || keys == PHASES, "trial span phase args {keys:?}");
        timed += u64::from(!keys.is_empty());
    }
    assert_eq!(timed, run.executed.total(), "one timed span per executed trial");
    assert!(records.iter().all(|r| r.cat != "engine"), "no engine-phase spans");
}

/// The engine phase times an executed trial reports: its span args, and
/// the `campaign.phase.*` histograms.
const PHASES: [&str; 4] = ["setup_nanos", "blocks_nanos", "scrub_nanos", "timing_nanos"];

/// Metrics alone, or metrics and a span bus.
fn observer<'a>(metrics: &'a MetricsRegistry, spans: Option<&'a SpanBus>) -> CampaignObserver<'a> {
    let observer = CampaignObserver::with_metrics(metrics);
    match spans {
        Some(bus) => observer.with_spans(bus),
        None => observer,
    }
}

/// Samples in each `campaign.phase.*` histogram, in [`PHASES`] order.
fn phase_counts(metrics: &MetricsRegistry) -> [u64; 4] {
    let snap = metrics.snapshot();
    PHASES.map(|p| snap.histograms.get(&format!("campaign.phase.{p}")).map_or(0, |h| h.count))
}

/// Hidden-resource campaigns stratify their outcome counters per hidden
/// class (`campaign.hidden.{class}.{sdc,due,masked}`), the source of the
/// campaign-top hidden-coverage line, and the strata sum back to the
/// campaign tallies.
#[test]
fn hidden_campaign_emits_per_class_counters() {
    let (w, device) = hhotspot();
    let metrics = MetricsRegistry::new();
    let observer = CampaignObserver::with_metrics(&metrics);
    let (result, run) = Campaign::new(HiddenAvf::full(), &w, &device)
        .budget(Budget::fixed(120).seed(2021))
        .observer(observer)
        .run_full()
        .expect("hidden campaign failed");
    assert_eq!(run.trials, 120);

    let snap = metrics.snapshot();
    let sum = |suffix: &str| -> u64 {
        ["scheduler", "fetch", "mask", "barrier", "memq"]
            .iter()
            .filter_map(|c| snap.counters.get(&format!("campaign.hidden.{c}.{suffix}")))
            .sum()
    };
    assert_eq!(sum("sdc"), result.counts.sdc, "{:?}", snap.counters);
    assert_eq!(sum("due"), result.counts.due, "{:?}", snap.counters);
    assert_eq!(sum("masked"), result.counts.masked, "{:?}", snap.counters);
    // Every class the sampler cycles over appears in at least one stratum.
    for class in ["scheduler", "fetch", "mask", "barrier", "memq"] {
        let total: u64 = ["sdc", "due", "masked"]
            .iter()
            .filter_map(|s| snap.counters.get(&format!("campaign.hidden.{class}.{s}")))
            .sum();
        assert!(total > 0, "class {class} never tallied: {:?}", snap.counters);
    }
}

/// The early exits' telemetry is a pure function of the trials:
/// `campaign.exit.block`/`.rejoin`/`.none` and the skipped-instruction
/// histogram are identical at 1 worker and at 4 workers with spans
/// attached, cover every executed trial, and show most FMXM trials
/// ending early. Every executed trial reports its phase times once.
#[test]
fn exit_telemetry_identical_at_any_worker_count() {
    let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda7, Scale::Small);
    let device = DeviceModel::named("k40c-sim");
    let observe = |workers, spans| {
        let metrics = MetricsRegistry::new();
        let (_, run) = Campaign::new(Avf::new(Injector::NvBitFi), &w, &device)
            .budget(Budget::fixed(96).seed(2021))
            .workers(workers)
            .observer(observer(&metrics, spans))
            .run_full()
            .expect("exit campaign failed");
        let snap = metrics.snapshot();
        let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        let skipped = snap.histograms.get("campaign.exit.skipped_instrs").cloned();
        let exits = ["block", "rejoin", "none"].map(|k| count(&format!("campaign.exit.{k}")));
        (run.executed.total(), exits, skipped, phase_counts(&metrics))
    };
    let serial = observe(1, None);
    let spans = SpanBus::new();
    assert_eq!(serial, observe(4, Some(&spans)), "exit telemetry differs between 1 and 4 workers");
    let (executed, [block, rejoin, none], skipped, phases) = serial;
    assert_eq!(phases, [executed; 4], "one phase sample per executed trial");
    assert_eq!(block + rejoin + none, executed, "every executed trial counts once");
    assert!(2 * block > executed, "only {block} of {executed} FMXM trials exited at a block");
    assert!(rejoin > 0, "no FMXM trial rejoined");
    let skipped = skipped.expect("exited trials fill the skipped-instruction histogram");
    assert_eq!(skipped.count, block + rejoin);
}

/// The scheduler-round histogram is a pure function of the trials and
/// the budget, like the fast-forward telemetry it depends on: identical
/// at 1 worker and at 4 workers with spans attached, one sample per
/// executed trial, and never more rounds than the instructions the
/// trials retired. QUICKSORT's hung trials run on one lone lane, about
/// one instruction a round. Every executed trial reports its phase times
/// once. The window histograms are identical alike, one sample per
/// executed trial: QUICKSORT's divergent warps open windows, and fewer
/// of them roll back than commit.
#[test]
fn engine_rounds_identical_at_any_worker_count() {
    let w = build(Benchmark::Quicksort, Precision::Int32, CodeGen::Cuda10, Scale::Small);
    let device = DeviceModel::named("k40c-sim");
    let observe = |workers, spans| {
        let metrics = MetricsRegistry::new();
        let (_, run) = Campaign::new(Avf::new(Injector::NvBitFi), &w, &device)
            .budget(Budget::fixed(128).seed(2021))
            .workers(workers)
            .observer(observer(&metrics, spans))
            .run_full()
            .expect("rounds campaign failed");
        let snap = metrics.snapshot();
        let hist = |name: &str| snap.histograms.get(name).cloned().expect(name);
        let rounds = hist("campaign.engine.rounds");
        let windows =
            ["windows", "window_rollbacks"].map(|k| hist(&format!("campaign.engine.{k}")));
        let dyn_instrs = hist("campaign.trial_dyn_instrs");
        (run.executed.total(), rounds, dyn_instrs, phase_counts(&metrics), windows)
    };
    let serial = observe(1, None);
    let spans = SpanBus::new();
    assert_eq!(serial, observe(4, Some(&spans)), "round telemetry differs between 1 and 4 workers");
    let (executed, rounds, dyn_instrs, phases, [windows, rollbacks]) = serial;
    assert_eq!(phases, [executed; 4], "one phase sample per executed trial");
    assert_eq!(rounds.count, executed, "every executed trial counts once");
    assert!(rounds.sum > 0 && rounds.sum <= dyn_instrs.sum, "{rounds:?} vs {dyn_instrs:?}");
    assert_eq!((windows.count, rollbacks.count), (executed, executed));
    assert!(2 * rollbacks.sum < windows.sum, "{rollbacks:?} of {windows:?} windows rolled back");
}

/// The repeat exit's histogram is a pure function of the trials and the
/// budget too: identical at 1 worker and at 4 with spans attached, one
/// sample per executed trial. In a hidden-resource FHOTSPOT campaign some
/// stuck-at fetch and memory-queue hangs come back to one state and take
/// the exit, and every trial that skipped instructions hung to the
/// watchdog, whose dynamic count the skipped periods are part of.
#[test]
fn repeat_telemetry_identical_at_any_worker_count() {
    let w = build(Benchmark::Hotspot, Precision::Single, CodeGen::Cuda10, Scale::Small);
    let device = DeviceModel::named("v100-sim");
    let observe = |workers, spans| {
        let metrics = MetricsRegistry::new();
        let (_, run) = Campaign::new(HiddenAvf::full(), &w, &device)
            .budget(Budget::fixed(96).seed(2021))
            .workers(workers)
            .observer(observer(&metrics, spans))
            .run_full()
            .expect("repeat campaign failed");
        let snap = metrics.snapshot();
        let hist = |name: &str| snap.histograms.get(name).cloned().expect(name);
        let trips = snap.counters.get("campaign.watchdog.dyn_trips").copied().unwrap_or(0);
        let skipped = hist("campaign.engine.repeat_skipped");
        (run.executed.total(), skipped, hist("campaign.trial_dyn_instrs"), trips)
    };
    let serial = observe(1, None);
    let spans = SpanBus::new();
    assert_eq!(
        serial,
        observe(4, Some(&spans)),
        "repeat telemetry differs between 1 and 4 workers"
    );
    let (executed, skipped, dyn_instrs, trips) = serial;
    assert_eq!(skipped.count, executed, "every executed trial counts once");
    assert!(skipped.sum > 0, "no FHOTSPOT hang took the repeat exit");
    assert!(trips > 0 && skipped.sum < trips * dyn_instrs.max, "{skipped:?} over {trips} trips");
}

/// The fast-forward telemetry is a pure function of the trials and the
/// budget: batches never depend on the worker count, so the relay
/// counter, the snapshot hits and misses and the fast-forwarded
/// instruction histogram are identical at 1 and 4 workers, and FMXM
/// trials relay.
#[test]
fn relay_telemetry_identical_at_any_worker_count() {
    let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Small);
    let device = DeviceModel::named("k40c-sim");
    let observe = |workers| {
        let metrics = MetricsRegistry::new();
        let (_, run) = Campaign::new(Avf::new(Injector::NvBitFi), &w, &device)
            .budget(Budget::fixed(256).seed(2021))
            .workers(workers)
            .observer(CampaignObserver::with_metrics(&metrics))
            .run_full()
            .expect("relay campaign failed");
        let snap = metrics.snapshot();
        let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        let counts = ["hit", "miss", "relay"].map(|k| count(&format!("campaign.snapshot.{k}")));
        let skipped = snap.histograms.get("campaign.snapshot.fastforward_instrs").cloned();
        (run.executed.total(), counts, skipped, run.digest)
    };
    let serial = observe(1);
    assert_eq!(serial, observe(4), "fast-forward telemetry differs between 1 and 4 workers");
    let (executed, [hit, miss, relay], _, _) = serial;
    assert_eq!(hit + miss, executed, "every executed trial counts once");
    assert!(relay > 0 && relay <= hit, "{relay} of {hit} fast-forwarded FMXM trials relayed");
}

/// One cell of a row: how the campaign runs.
#[derive(Clone, Copy, Debug)]
struct Cell {
    workers: usize,
    snapshots: SnapshotPolicy,
    telemetry: bool,
    /// Empty for a whole run. Otherwise the campaign is killed once its
    /// store holds each of these many shards in turn, and resumed through
    /// the store after each kill.
    kills: &'static [u32],
}

/// Kill point of a fixed 160-trial budget's five shards: inside the
/// first 4-shard batch, so the resumed run starts mid-batch.
const FIXED_KILLS: &[u32] = &[3];

/// Kill points of an adaptive budget whose floor is eight shards: inside
/// the first 4-shard batch, then past the floor, where a batch is one
/// shard and the stop rule runs.
const ADAPTIVE_KILLS: &[u32] = &[3, 9];

/// The 16 cells of workers {1, 4} × snapshots {Off, Auto} × telemetry
/// {off, on} × {whole, killed at `kills`}.
fn crossed(kills: &'static [u32]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for workers in [1, 4] {
        for snapshots in [SnapshotPolicy::Off, SnapshotPolicy::Auto] {
            for telemetry in [false, true] {
                for kills in [&[][..], kills] {
                    cells.push(Cell { workers, snapshots, telemetry, kills });
                }
            }
        }
    }
    cells
}

/// Counters the shard fold exports, without the golden-cache hit and
/// miss, which depend on what ran before in the process.
type Counters = BTreeMap<String, u64>;

/// One row of the determinism matrix: run `kind` on `target` and
/// `device` under `budget` in every cell, and hold each cell to `pin`,
/// the (SDC, DUE, Masked) tallies and digest, and to the first cell.
/// Returns the first cell's run and the fold-exported counters of the
/// whole `Auto` cells with telemetry (empty when none had them).
fn row<K: Kind<Workload> + Clone>(
    kind: K,
    target: &Workload,
    device: &DeviceModel,
    budget: &Budget,
    pin: ([u64; 3], u64),
    cells: &[Cell],
) -> (CampaignRun, Counters) {
    let mut first: Option<CampaignRun> = None;
    let mut exported: Option<Counters> = None;
    for &cell in cells {
        let (metrics, spans) = (MetricsRegistry::new(), SpanBus::new());
        let campaign = || {
            let observer = match cell.telemetry {
                true => CampaignObserver::with_metrics(&metrics).with_spans(&spans),
                false => CampaignObserver::none(),
            };
            Campaign::new(kind.clone(), target, device)
                .budget(budget.clone().snapshots(cell.snapshots))
                .workers(cell.workers)
                .observer(observer)
        };
        let run = match cell.kills {
            [] => campaign().run_full().expect("matrix campaign failed").1,
            kills => kill_and_resume(campaign, kills),
        };
        let what = format!("{} {cell:?}", run.label);
        let c = run.counts;
        assert_eq!(([c.sdc, c.due, c.masked], run.digest), (pin.0, pin.1), "{what}: pin");
        if let Some(first) = &first {
            assert_eq!(run.executed, first.executed, "{what}: executed");
            assert_eq!(run.direct, first.direct, "{what}: direct");
            assert_eq!(run.trials, first.trials, "{what}: trials");
            assert_eq!(run.stop, first.stop, "{what}: stop");
            assert_eq!(run.checkpoint, first.checkpoint, "{what}: final checkpoint");
            if cell.kills.is_empty() {
                // Strata cover only the trials run in this process.
                assert_eq!(run.strata_pruned, first.strata_pruned, "{what}: pruned strata");
                assert_eq!(run.strata_sim, first.strata_sim, "{what}: simulated strata");
            }
        }
        let mut counters = metrics.snapshot().counters;
        assert_eq!(
            counters.contains_key("trials") && !spans.is_empty(),
            cell.telemetry,
            "{what}: telemetry"
        );
        // Whole cells with telemetry under one snapshot policy compare
        // their counters across worker counts.
        if cell.telemetry && cell.kills.is_empty() && cell.snapshots == SnapshotPolicy::Auto {
            counters.retain(|name, _| !name.starts_with("campaign.golden."));
            assert_eq!(counters.get("trials"), Some(&run.trials), "{what}: trials counter");
            assert!(counters.keys().any(|k| k.starts_with("site.")), "{what}: {counters:?}");
            match &exported {
                Some(seen) => assert_eq!(&counters, seen, "{what}: fold-exported counters"),
                None => exported = Some(counters),
            }
        }
        first.get_or_insert(run);
    }
    (first.expect("a row runs at least one cell"), exported.unwrap_or_default())
}

/// Run a campaign until its checkpoint sink panics with the first of
/// `kills` shards in its store, then resume it through a new store on
/// the same directory, which reads the checkpoint back from the JSONL on
/// disk; kill the resumed run at the next point the same way, and return
/// the run resumed after the last kill.
fn kill_and_resume<'a, K: Kind<Workload>>(
    campaign: impl Fn() -> Campaign<'a, Workload, K>,
    kills: &[u32],
) -> CampaignRun {
    let dir = std::env::temp_dir().join(format!("digest-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reopen = |saved: &Option<Checkpoint>| {
        let mut store = CheckpointStore::open(&dir).expect("open store");
        if let Some(cp) = saved {
            assert_eq!(
                store.load(&cp.label).expect("load"),
                Some(cp.clone()),
                "checkpoint on disk"
            );
        }
        store
    };
    let mut saved = None;
    for &kill in kills {
        let mut store = reopen(&saved);
        let last = RefCell::new(None);
        let killed = catch_unwind(AssertUnwindSafe(|| {
            campaign()
                .store(&mut store)
                .on_checkpoint(|cp| {
                    if cp.shards_done > kill {
                        // Unwind without the panic hook: no message, no backtrace.
                        resume_unwind(Box::new("killed"));
                    }
                    *last.borrow_mut() = Some(cp.clone());
                })
                .run_full()
        }));
        assert!(killed.is_err(), "the campaign ended before its kill at {kill} shards");
        let last = last.into_inner().or(saved).expect("a checkpoint before the kill");
        assert_eq!(last.shards_done, kill);
        saved = Some(last);
    }
    let mut store = reopen(&saved);
    let run = campaign().store(&mut store).run_full().expect("resumed campaign failed").1;
    assert!(run.resumed_trials > 0, "nothing was resumed");
    assert_eq!(Some(run.resumed_trials), saved.map(|cp| cp.trials));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    run
}

/// Relays, block exits and rejoins fired in a row's whole `Auto` cells.
fn assert_fast_paths_fire(label: &str, exported: &Counters) {
    for name in ["campaign.snapshot.relay", "campaign.exit.block", "campaign.exit.rejoin"] {
        assert!(exported.get(name) > Some(&0), "{label}: no {name} in {exported:?}");
    }
}

/// The determinism contract as one table: every row's tallies and
/// digest are a pure function of its kind, target, device and budget.
/// Each row runs at 1 and 4 workers, with snapshots off and on, with
/// metrics and spans attached or not, and whole or killed and resumed
/// through a checkpoint store: inside the first 4-shard batch, and in
/// the adaptive rows once more past the floor, where a batch is one
/// shard and the stop rule runs. The `Off` cells are also the cells
/// without the exit table: a campaign arms block exits and rejoins only
/// with fast-forward. The whole `Auto` cells carry telemetry at both
/// worker counts, so their fold-exported counters compare; the SASSIFI
/// and Small FMXM rows must relay, exit at a block boundary and rejoin
/// golden there.
///
/// Four rows run part of the 16 cells, to keep the matrix inside the
/// time of the pin tests it replaced. A hidden-resource cell costs ten
/// or more cells of the other Tiny rows, so that row runs one cell per
/// worker count and snapshot policy, with telemetry on in its two
/// killed cells. An `Off` cell of the Small FMXM row costs about ten of
/// its `Auto` cells, so that row runs its eight `Auto` cells and one
/// whole `Off` cell. The registry rows build their device from the spec
/// registry and their workload from the spec's codegen profile; they
/// check spec plumbing, not determinism, so they run one cell each.
///
/// The literal tallies of the fixed-budget SASSIFI, NVBitFI, pruned and
/// hidden rows date from before the decode layer; every digest, and the
/// tallies of the other rows, were recorded before this matrix replaced
/// the per-feature pin tests. The Tiny adaptive rows stop on the CI rule
/// after their 4-shard batches, one shard at a time; the Small FMXM row
/// stops at its ceiling.
#[test]
fn digest_matrix_is_one_invariant() {
    use SnapshotPolicy::{Auto, Off};
    let tiny = |bench, precision, codegen| build(bench, precision, codegen, Scale::Tiny);
    let fmxm7 = tiny(Benchmark::Mxm, Precision::Single, CodeGen::Cuda7);
    let fmxm = tiny(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10);
    let hhotspot = tiny(Benchmark::Hotspot, Precision::Half, CodeGen::Cuda10);
    let flava = tiny(Benchmark::Lava, Precision::Single, CodeGen::Cuda10);
    let small_fmxm = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Small);
    let (k40c, v100) = (DeviceModel::named("k40c-sim"), DeviceModel::named("v100-sim"));
    let pinned = Budget::fixed(160).seed(12021);
    // Eight shards reach the floor.
    let adaptive =
        |ceiling, half_width| Budget::adaptive(64, ceiling, half_width).shard_size(8).seed(2021);
    let sassifi = ([103, 39, 18], 0x8d65_d2c1_c7ef_33ec);
    let nvbitfi = ([52, 66, 42], 0xdda9_6878_5113_21ef);
    let pruned = ([52, 66, 42], 0x35d1_4c7f_fd8c_6d17);
    let half_arith = ([121, 0, 39], 0xfa4d_9738_14f9_e62b);
    let hidden = ([63, 71, 26], 0xf37d_3c7f_62d7_6e96);
    let beam = ([1, 4, 83], 0x1efa_5c45_b6a7_dc33);
    let adaptive_nvbitfi = ([49, 60, 35], 0x1f77_e6c5_40b3_625d);
    let small_nvbitfi = ([80, 32, 16], 0x60ef_6001_d0d1_4d49);
    let (fixed, adaptive_cells) = (crossed(FIXED_KILLS), crossed(ADAPTIVE_KILLS));
    let cell = |workers, snapshots, telemetry, kills| Cell { workers, snapshots, telemetry, kills };
    let quarter = [
        cell(1, Off, false, &[][..]),
        cell(1, Auto, true, FIXED_KILLS),
        cell(4, Off, true, FIXED_KILLS),
        cell(4, Auto, false, &[]),
    ];
    let one_off = cell(4, Off, false, &[]);
    let auto_and_one_off: Vec<_> =
        adaptive_cells.iter().filter(|c| c.snapshots == Auto).copied().chain([one_off]).collect();

    let kind = Avf::new(Injector::Sassifi);
    let (run, exported) = row(kind, &fmxm7, &k40c, &pinned, sassifi, &fixed);
    assert_fast_paths_fire(&run.label, &exported);
    row(Avf::new(Injector::NvBitFi), &hhotspot, &v100, &pinned, nvbitfi, &fixed);
    let kind = Avf::new_pruned(Injector::NvBitFi);
    let (run, exported) = row(kind, &hhotspot, &v100, &pinned, pruned, &fixed);
    assert!(run.executed.total() < 160, "pruning resolved nothing statically");
    for prefix in ["campaign.pruned.", "campaign.verdict.", "direct."] {
        assert!(exported.keys().any(|k| k.starts_with(prefix)), "no {prefix}* in {exported:?}");
    }
    let kind = ClassAvf::new(SiteClass::HalfArith);
    row(kind, &hhotspot, &v100, &pinned, half_arith, &fixed);
    row(HiddenAvf::full(), &fmxm, &v100, &pinned, hidden, &quarter);
    row(Beam::auto(false), &flava, &k40c, &adaptive(128, 0.05), beam, &adaptive_cells);
    let kind = Avf::new(Injector::NvBitFi);
    row(kind, &hhotspot, &v100, &adaptive(256, 0.08), adaptive_nvbitfi, &adaptive_cells);
    let kind = Avf::new(Injector::NvBitFi);
    let budget = adaptive(128, 0.08);
    let (run, exported) = row(kind, &small_fmxm, &k40c, &budget, small_nvbitfi, &auto_and_one_off);
    assert_fast_paths_fire(&run.label, &exported);

    let registry = DeviceRegistry::builtin();
    for (id, bench, precision, injector, pin) in [
        ("k40c", Benchmark::Mxm, Precision::Single, Injector::Sassifi, sassifi),
        ("v100", Benchmark::Hotspot, Precision::Half, Injector::NvBitFi, nvbitfi),
    ] {
        let spec = registry.resolve_spec(id).expect("built-in spec");
        let device = registry.resolve(&format!("{id}-sim")).expect("built-in device");
        let target = build_with(bench, precision, &spec.codegen_profile(), Scale::Tiny);
        let one = [cell(1, Auto, false, &[])];
        row(Avf::new(injector), &target, &device, &pinned, pin, &one);
    }
}
