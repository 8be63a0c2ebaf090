//! Engine-level properties, exercised through a cheap Bernoulli campaign
//! kind (every trial is a direct outcome, so no simulation runs and the
//! properties hold for any `Kind`).

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely

use campaign::{Budget, Campaign, CampaignRun, Kind, Sampler, StopReason, TrialPlan};
use gpu_arch::{DeviceModel, FunctionalUnit};
use gpu_sim::{Executed, Target};
use obs::{CampaignObserver, MetricsRegistry, Progress, SpanBus};
use proptest::prelude::*;
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use stats::Outcome;
use std::sync::Arc;

/// A synthetic campaign kind: trials are Bernoulli draws with fixed SDC
/// and DUE probabilities, resolved directly (no simulator execution).
#[derive(Clone, Copy)]
struct Bernoulli {
    sdc: f64,
    due: f64,
}

struct BernoulliSampler {
    sdc: f64,
    due: f64,
}

impl Sampler for BernoulliSampler {
    fn sample(&self, _trial: u64, rng: &mut ChaCha12Rng) -> TrialPlan {
        let roll: f64 = rng.gen();
        let outcome = if roll < self.sdc {
            Outcome::Sdc
        } else if roll < self.sdc + self.due {
            Outcome::Due
        } else {
            Outcome::Masked
        };
        TrialPlan::Direct { outcome, due: None, label: "bernoulli" }
    }
}

impl<T: Target + Sync + ?Sized> Kind<T> for Bernoulli {
    type Sampler = BernoulliSampler;
    type Output = ();

    fn label(&self) -> String {
        "bernoulli".to_string()
    }

    fn ecc(&self) -> bool {
        true
    }

    fn prepare(&self, _: &T, _: &DeviceModel, _: &Arc<Executed>) -> BernoulliSampler {
        BernoulliSampler { sdc: self.sdc, due: self.due }
    }

    fn finish(&self, _: &T, _: &BernoulliSampler, _: &CampaignRun) {}
}

fn run(kind: Bernoulli, budget: Budget, workers: usize) -> CampaignRun {
    let device = DeviceModel::named("k40c-sim");
    let target = microbench::arith(FunctionalUnit::Iadd);
    Campaign::new(kind, &target, &device)
        .budget(budget)
        .workers(workers)
        .run_full()
        .expect("bernoulli campaign cannot fail")
        .1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine never stops before the floor, always stops by the
    /// ceiling, stops early only on shard boundaries with the CI target
    /// met, and its tallies always account for every trial.
    #[test]
    fn floor_and_ceiling_are_honored(
        floor in 1u32..200,
        extra in 0u32..400,
        shard in 1u32..64,
        sdc in 0.0f64..1.0,
        target in 0.01f64..0.2,
        seed in 0u64..1000,
    ) {
        let ceiling = floor + extra;
        let budget = Budget::adaptive(floor, ceiling, target).seed(seed).shard_size(shard);
        let r = run(Bernoulli { sdc, due: 0.0 }, budget, 1);

        prop_assert_eq!(r.counts.total(), r.trials);
        prop_assert!(r.trials >= floor as u64, "stopped before the floor: {}", r.trials);
        prop_assert!(r.trials <= ceiling as u64, "overran the ceiling: {}", r.trials);
        match r.stop {
            StopReason::Ceiling => prop_assert_eq!(r.trials, ceiling as u64),
            StopReason::CiTarget { half_width, trials } => {
                prop_assert_eq!(trials, r.trials);
                prop_assert!(half_width <= target);
                prop_assert!(
                    r.trials.is_multiple_of(shard as u64) || r.trials == ceiling as u64,
                    "early stop off a shard boundary: {} (shard {})",
                    r.trials,
                    shard
                );
            }
        }
    }

    /// Bit-identical results at any worker count.
    #[test]
    fn worker_count_never_changes_counts(
        trials in 1u32..300,
        shard in 1u32..48,
        workers in 2usize..6,
        seed in 0u64..1000,
    ) {
        let budget = Budget::fixed(trials).seed(seed).shard_size(shard);
        let serial = run(Bernoulli { sdc: 0.3, due: 0.2 }, budget.clone(), 1);
        let parallel = run(Bernoulli { sdc: 0.3, due: 0.2 }, budget, workers);
        prop_assert_eq!(serial.counts, parallel.counts);
        prop_assert_eq!(serial.trials, parallel.trials);
    }
}

#[test]
fn skewed_outcomes_stop_early_and_balanced_outcomes_run_to_ceiling() {
    // 2% SDC: the Wilson half-width drops below 0.05 long before 4096.
    let skewed =
        run(Bernoulli { sdc: 0.02, due: 0.0 }, Budget::adaptive(64, 4096, 0.05).seed(9), 1);
    assert!(skewed.stop.stopped_early(), "skewed campaign ran to the ceiling");
    assert!(skewed.trials < 1024, "spent {} trials on a 2% proportion", skewed.trials);
    assert!(skewed.ci_half_width() <= 0.05);

    // 50% SDC with an unreachable target: the ceiling is the only stop.
    let balanced =
        run(Bernoulli { sdc: 0.5, due: 0.0 }, Budget::adaptive(64, 512, 0.01).seed(9), 1);
    assert_eq!(balanced.stop, StopReason::Ceiling);
    assert_eq!(balanced.trials, 512);
}

#[test]
fn different_seeds_draw_different_streams() {
    let a = run(Bernoulli { sdc: 0.3, due: 0.2 }, Budget::fixed(512).seed(1), 1);
    let b = run(Bernoulli { sdc: 0.3, due: 0.2 }, Budget::fixed(512).seed(2), 1);
    assert_eq!(a.trials, b.trials);
    assert_ne!(a.counts, b.counts, "independent seeds produced identical tallies");
}

/// Per-trial telemetry comes from the in-order fold, so shards executed
/// speculatively past the stop boundary and then discarded leave no
/// trace: every per-trial signal agrees with the folded trial count.
#[test]
fn discarded_shards_leave_no_trial_telemetry() {
    let device = DeviceModel::named("k40c-sim");
    let target = microbench::arith(FunctionalUnit::Iadd);
    let metrics = MetricsRegistry::new();
    let progress = Progress::new("bernoulli", 4096, false);
    let spans = SpanBus::new();
    let observer = CampaignObserver {
        metrics: Some(&metrics),
        progress: Some(&progress),
        spans: Some(&spans),
    };
    let (_, run) = Campaign::new(Bernoulli { sdc: 0.02, due: 0.0 }, &target, &device)
        .budget(Budget::adaptive(64, 4096, 0.05).seed(9))
        .workers(4)
        .observer(observer)
        .run_full()
        .expect("bernoulli campaign cannot fail");
    assert!(run.stop.stopped_early(), "the stop must discard speculative shards");

    let snap = metrics.snapshot();
    let trial_spans = spans.records().iter().filter(|r| r.cat == "trial").count() as u64;
    let signals = [
        ("trials counter", snap.counters.get("trials").copied().unwrap_or(0)),
        ("campaign.trial_micros count", snap.histograms["campaign.trial_micros"].count),
        ("Progress::done", progress.done()),
        ("trial spans", trial_spans),
    ];
    for (what, n) in signals {
        assert_eq!(n, run.trials, "{what} disagrees with run.trials");
    }
}
