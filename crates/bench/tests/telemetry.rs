//! Acceptance tests for the campaign telemetry pipeline (DESIGN.md §15):
//! a real injector campaign on HHOTSPOT/Volta must produce a valid Chrome
//! trace and a Prometheus snapshot with trial-duration histogram buckets,
//! the span tree must be well-formed, and telemetry must never perturb
//! the architectural result — tallies are bit-identical with telemetry
//! on or off, at any worker count.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use beam::Beam;
use campaign::{Budget, Campaign, CampaignRun, Checkpoint, Kind, SnapshotPolicy};
use gpu_arch::{CodeGen, DeviceModel, Precision};
use injector::{Avf, AvfResult, HiddenAvf, Injector};
use obs::{json, CampaignObserver, MetricsRegistry, SpanBus};
use std::cell::RefCell;
use workloads::{build, Benchmark, Scale, Workload};

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
    run_avf(Avf::new(Injector::NvBitFi), trials, workers, observer)
}

fn run_avf(
    avf: Avf,
    trials: u32,
    workers: usize,
    observer: CampaignObserver<'_>,
) -> (AvfResult, CampaignRun) {
    let (w, device) = hhotspot();
    Campaign::new(avf, &w, &device)
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

    // Engine-phase spans from sampled trials nest under trial spans.
    let trial_ids: std::collections::BTreeSet<u64> = trials.iter().map(|r| r.id).collect();
    let phases: Vec<_> = records.iter().filter(|r| r.cat == "engine").collect();
    assert!(!phases.is_empty(), "default sampling must trace at least one trial");
    for phase in &phases {
        assert!(trial_ids.contains(&phase.parent), "phases parent under a trial");
        assert!(phase.dur_us.is_some());
    }
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

/// Tallies are bit-identical with telemetry on or off, for the plain and
/// the pruned campaign. With telemetry on, every counter the shard fold
/// exports (`trials`, `outcome.*`, `site.*`, `due.*`, `direct.*`,
/// `campaign.pruned.*`, `campaign.verdict.*`, ...) and both verdict
/// strata maps are identical at 1 and 4 workers. Only the golden-cache
/// hit/miss counters may differ: the first campaign fills the cache.
#[test]
fn tallies_are_bit_identical_with_telemetry_on_or_off() {
    for avf in [Avf::new(Injector::NvBitFi), Avf::new_pruned(Injector::NvBitFi)] {
        let (bare_result, bare) = run_avf(avf, 64, 1, CampaignObserver::none());
        let observe = |workers| {
            let metrics = MetricsRegistry::new();
            let spans = SpanBus::new();
            let observer = CampaignObserver::with_metrics(&metrics).with_spans(&spans);
            let (result, run) = run_avf(avf, 64, workers, observer);
            let mut counters = metrics.snapshot().counters;
            counters.retain(|name, _| !name.starts_with("campaign.golden."));
            (result, run, counters)
        };

        let (observed_result, observed, serial) = observe(1);
        assert_eq!(bare_result.counts, observed_result.counts);
        assert_eq!(bare.counts, observed.counts);
        assert_eq!(bare.executed, observed.executed);
        assert_eq!(bare.direct, observed.direct);
        assert_eq!(bare.strata_pruned, observed.strata_pruned);
        assert_eq!(bare.strata_sim, observed.strata_sim);
        assert_eq!(bare.trials, observed.trials);
        assert_eq!(bare.stop, observed.stop);

        // ... and at any worker count, with telemetry still attached.
        let (wide_result, wide, parallel) = observe(4);
        assert_eq!(bare_result.counts, wide_result.counts);
        assert_eq!(bare.counts, wide.counts);
        assert_eq!(bare.direct, wide.direct);
        assert_eq!(bare.strata_pruned, wide.strata_pruned);
        assert_eq!(bare.strata_sim, wide.strata_sim);
        assert_eq!(bare.trials, wide.trials);
        assert_eq!(serial, parallel, "fold-exported counters differ between 1 and 4 workers");
        assert_eq!(serial.get("trials"), Some(&64));
        assert!(serial.keys().any(|k| k.starts_with("site.")), "{serial:?}");
        if avf.pruned {
            for prefix in ["campaign.pruned.", "campaign.verdict.", "direct."] {
                assert!(serial.keys().any(|k| k.starts_with(prefix)), "no {prefix}* in {serial:?}");
            }
        }
    }
}

/// The early exits' telemetry is a pure function of the trials:
/// `campaign.exit.block`/`.rejoin`/`.none` and the skipped-instruction
/// histogram are identical at 1 and 4 workers, cover every executed
/// trial, and show most FMXM trials ending early.
#[test]
fn exit_telemetry_identical_at_any_worker_count() {
    let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda7, Scale::Small);
    let device = DeviceModel::named("k40c-sim");
    let observe = |workers| {
        let metrics = MetricsRegistry::new();
        let (_, run) = Campaign::new(Avf::new(Injector::NvBitFi), &w, &device)
            .budget(Budget::fixed(96).seed(2021))
            .workers(workers)
            .observer(CampaignObserver::with_metrics(&metrics))
            .run_full()
            .expect("exit campaign failed");
        let snap = metrics.snapshot();
        let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        let skipped = snap.histograms.get("campaign.exit.skipped_instrs").cloned();
        let exits = ["block", "rejoin", "none"].map(|k| count(&format!("campaign.exit.{k}")));
        (run.executed.total(), exits, skipped)
    };
    let serial = observe(1);
    assert_eq!(serial, observe(4), "exit telemetry differs between 1 and 4 workers");
    let (executed, [block, rejoin, none], skipped) = serial;
    assert_eq!(block + rejoin + none, executed, "every executed trial counts once");
    assert!(2 * block > executed, "only {block} of {executed} FMXM trials exited at a block");
    assert!(rejoin > 0, "no FMXM trial rejoined");
    let skipped = skipped.expect("exited trials fill the skipped-instruction histogram");
    assert_eq!(skipped.count, block + rejoin);
}

/// The scheduler-round histogram is a pure function of the trials and
/// the budget, like the fast-forward telemetry it depends on: identical
/// at 1 and 4 workers, one sample per executed trial, and never more
/// rounds than the instructions the trials retired. QUICKSORT's hung
/// trials run on one lone lane, about one instruction a round.
#[test]
fn engine_rounds_identical_at_any_worker_count() {
    let w = build(Benchmark::Quicksort, Precision::Int32, CodeGen::Cuda10, Scale::Small);
    let device = DeviceModel::named("k40c-sim");
    let observe = |workers| {
        let metrics = MetricsRegistry::new();
        let (_, run) = Campaign::new(Avf::new(Injector::NvBitFi), &w, &device)
            .budget(Budget::fixed(128).seed(2021))
            .workers(workers)
            .observer(CampaignObserver::with_metrics(&metrics))
            .run_full()
            .expect("rounds campaign failed");
        let snap = metrics.snapshot();
        let hist = |name: &str| snap.histograms.get(name).cloned().expect(name);
        (run.executed.total(), hist("campaign.engine.rounds"), hist("campaign.trial_dyn_instrs"))
    };
    let serial = observe(1);
    assert_eq!(serial, observe(4), "round telemetry differs between 1 and 4 workers");
    let (executed, rounds, dyn_instrs) = serial;
    assert_eq!(rounds.count, executed, "every executed trial counts once");
    assert!(rounds.sum > 0 && rounds.sum <= dyn_instrs.sum, "{rounds:?} vs {dyn_instrs:?}");
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
    let (executed, [hit, miss, relay], _, digest) = serial;
    assert_eq!(hit + miss, executed, "every executed trial counts once");
    assert!(relay > 0 && relay <= hit, "{relay} of {hit} fast-forwarded FMXM trials relayed");
    assert!(digest.is_some());
}

/// One kind of campaign of the digest matrix.
fn matrix_run<K: Kind<Workload>>(
    kind: K,
    w: &Workload,
    device: &DeviceModel,
    workers: usize,
    snapshots: SnapshotPolicy,
    observer: CampaignObserver<'_>,
    resume: Option<Checkpoint>,
) -> (CampaignRun, Vec<Checkpoint>) {
    // Eight shards reach the floor, so the first ones run in batches and
    // the rest one shard at a time.
    let budget = Budget::adaptive(64, 128, 0.08).shard_size(8).seed(2021).snapshots(snapshots);
    let checkpoints = RefCell::new(Vec::new());
    let mut campaign = Campaign::new(kind, w, device)
        .budget(budget)
        .workers(workers)
        .observer(observer)
        .on_checkpoint(|cp| checkpoints.borrow_mut().push(cp.clone()));
    if let Some(cp) = resume {
        campaign = campaign.resume_from(cp);
    }
    let (_, run) = campaign.run_full().expect("matrix campaign failed");
    (run, checkpoints.into_inner())
}

/// The determinism contract as one matrix: four kinds of campaign, each
/// at 1 and 4 workers, with snapshots off and on, run uninterrupted and
/// killed mid-batch then resumed from its last checkpoint. The 4-worker
/// cells run with metrics and spans attached and the 1-worker cells
/// bare, so every comparison across worker counts also crosses telemetry
/// on and off. Every cell gives the same digest and the same tallies.
#[test]
fn digest_matrix_is_one_invariant() {
    fn cells<K: Kind<Workload> + Clone>(kind: K, w: &Workload, device: &str) {
        let device = DeviceModel::named(device);
        let mut seen: Option<CampaignRun> = None;
        for workers in [1, 4] {
            for snapshots in [SnapshotPolicy::Off, SnapshotPolicy::Auto] {
                let (metrics, spans) = (MetricsRegistry::new(), SpanBus::new());
                let observer = match workers {
                    1 => CampaignObserver::none(),
                    _ => CampaignObserver::with_metrics(&metrics).with_spans(&spans),
                };
                let campaign = |resume| {
                    matrix_run(kind.clone(), w, &device, workers, snapshots, observer, resume)
                };
                let (whole, checkpoints) = campaign(None);
                // Killed after shard 6 of 8, inside the second batch.
                let killed = checkpoints.into_iter().find(|cp| cp.shards_done == 6);
                let killed = killed.expect("a checkpoint inside the second batch");
                let (resumed, _) = campaign(Some(killed));
                for run in [whole, resumed] {
                    let cell = format!("{} workers {workers} {snapshots:?}", run.label);
                    assert!(run.digest.is_some(), "{cell}: no digest");
                    if let Some(first) = &seen {
                        assert_eq!(run.digest, first.digest, "{cell}: digest");
                        assert_eq!(run.counts, first.counts, "{cell}: counts");
                        assert_eq!(run.executed, first.executed, "{cell}: executed");
                        assert_eq!(run.direct, first.direct, "{cell}: direct");
                        assert_eq!(run.trials, first.trials, "{cell}: trials");
                        assert_eq!(run.stop, first.stop, "{cell}: stop");
                    }
                    seen.get_or_insert(run);
                }
                let traced = metrics.snapshot().counters.get("trials").copied().unwrap_or(0);
                assert_eq!(traced > 0 && !spans.is_empty(), workers == 4, "telemetry at {workers}");
            }
        }
    }
    let scale = Scale::Small;
    let mxm = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, scale);
    cells(Avf::new(Injector::NvBitFi), &mxm, "k40c-sim");
    let hhotspot = build(Benchmark::Hotspot, Precision::Half, CodeGen::Cuda10, scale);
    cells(Avf::new_pruned(Injector::NvBitFi), &hhotspot, "v100-sim");
    let fhotspot = build(Benchmark::Hotspot, Precision::Single, CodeGen::Cuda10, scale);
    cells(HiddenAvf::full(), &fhotspot, "v100-sim");
    let flava = build(Benchmark::Lava, Precision::Single, CodeGen::Cuda10, scale);
    cells(Beam::auto(false), &flava, "k40c-sim");
}
