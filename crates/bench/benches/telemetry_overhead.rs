//! Cost of full campaign telemetry (histograms + spans + progress) at
//! default sampling, against the same campaign running bare.
//!
//! The telemetry pipeline's contract is "watchable for free": histograms
//! are striped atomics, spans record only at shard/trial granularity plus
//! one engine-phase-traced trial in [`obs::span::DEFAULT_PHASE_EVERY`],
//! and the disabled hooks inside the engine are a handful of `Option`
//! checks. This bench holds the pipeline to that contract: end-to-end
//! campaign throughput with telemetry on must stay within a few percent
//! of the bare run. The assertion threshold is 3% on the best-of-samples
//! rate; CI runs the `--smoke` mode on every push.
//!
//! Self-reporting like the other benches: writes
//! `BENCH_telemetry_overhead.json` (override with `BENCH_JSON_PATH`).

use campaign::{Budget, Campaign};
use gpu_arch::{CodeGen, DeviceModel, Precision};
use injector::{Avf, Injector};
use obs::json::{object, Json};
use obs::{CampaignObserver, MetricsRegistry, SpanBus};
use std::hint::black_box;
use std::time::Instant;
use workloads::{build, Benchmark, Scale, Workload};

const TRIALS: u32 = 200;

/// One campaign run in the given configuration; returns its wall time.
fn run_once(workload: &Workload, device: &DeviceModel, telemetry: bool) -> f64 {
    let metrics = MetricsRegistry::new();
    let spans = SpanBus::new();
    let t = Instant::now();
    let campaign = Campaign::new(Avf::new(Injector::NvBitFi), workload, device)
        .budget(Budget::fixed(TRIALS).seed(2021));
    let campaign = if telemetry {
        campaign.observer(CampaignObserver::with_metrics(&metrics).with_spans(&spans))
    } else {
        campaign
    };
    let result = campaign.run().expect("overhead campaign failed");
    let secs = t.elapsed().as_secs_f64();
    black_box((result, metrics.snapshot().counters.len(), spans.len()));
    secs
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test" || a == "--smoke");
    // Overhead is a ratio of two noisy minima. The samples are
    // interleaved (bare, telemetry, bare, ...) so clock drift and
    // machine load hit both configurations equally instead of biasing
    // whichever ran second.
    let (budget_secs, min_pairs) = if smoke { (1.5, 6) } else { (8.0, 30) };

    let device = DeviceModel::named("k40c-sim");
    let workload = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Tiny);

    // Warm the golden cache through both paths before timing.
    run_once(&workload, &device, false);
    run_once(&workload, &device, true);

    let mut bare = f64::INFINITY;
    let mut telemetry = f64::INFINITY;
    let mut ratios = Vec::new();
    let start = Instant::now();
    while ratios.len() < min_pairs || start.elapsed().as_secs_f64() < budget_secs {
        let b = run_once(&workload, &device, false);
        let t = run_once(&workload, &device, true);
        bare = bare.min(b);
        telemetry = telemetry.min(t);
        ratios.push(t / b);
    }
    // Median of the paired ratios: each pair ran back-to-back, so a load
    // spike inflates both sides of its ratio roughly equally, and the
    // median discards the pairs where it did not.
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let overhead = ratios[ratios.len() / 2] - 1.0;

    println!(
        "telemetry_overhead/bare      {:>8.1} trials/s  (best {:.3} ms)",
        TRIALS as f64 / bare,
        bare * 1e3
    );
    println!(
        "telemetry_overhead/telemetry {:>8.1} trials/s  (best {:.3} ms)",
        TRIALS as f64 / telemetry,
        telemetry * 1e3
    );
    println!(
        "telemetry_overhead/overhead  {:>8.2}%  (median of {} paired ratios)",
        overhead * 100.0,
        ratios.len()
    );

    let path = std::env::var("BENCH_JSON_PATH")
        .unwrap_or_else(|_| "BENCH_telemetry_overhead.json".to_string());
    let json = object([
        ("bench", Json::Str("telemetry_overhead".to_string())),
        ("trials", Json::Num(TRIALS.into())),
        ("bare_best_secs", Json::Num(bare)),
        ("telemetry_best_secs", Json::Num(telemetry)),
        ("overhead", Json::Num(overhead)),
    ])
    .to_string()
        + "\n";
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("telemetry_overhead: could not write {path}: {e}");
    } else {
        println!("telemetry_overhead: wrote {path}");
    }

    assert!(
        overhead < 0.03,
        "telemetry overhead {:.2}% exceeds the 3% budget (bare {:.3} ms, telemetry {:.3} ms)",
        overhead * 100.0,
        bare * 1e3,
        telemetry * 1e3
    );
    println!("telemetry_overhead: within the 3% budget");
}
