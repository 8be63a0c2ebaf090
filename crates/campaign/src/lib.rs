//! Unified trial-campaign engine for the reliability toolkit.
//!
//! Both fault-injection campaigns (`injector`) and beam-experiment
//! campaigns (`beam`) are the same loop: sample a perturbation, run the
//! target, classify the outcome, repeat until the statistics are good
//! enough. This crate owns that loop once:
//!
//! * **[`Budget`]** — trial floor/ceiling, the Wilson-CI early-stop
//!   target, the seed, and the shard size ([`Budget::quick`] /
//!   [`Budget::full`] presets match the paper's Section III-D sizing).
//! * **[`Campaign`]** — the builder: a [`Kind`] (what a trial does), a
//!   target, a device, a budget, an observer; `run()` returns the kind's
//!   domain result, `run_full()` adds the engine-level [`CampaignRun`].
//! * **Determinism** — trials are partitioned into shards, each with a
//!   private ChaCha12 stream keyed by `(seed, target, shard index)`;
//!   results are bit-identical at any worker count and across
//!   checkpoint/resume ([`Checkpoint`]).
//! * **[`golden`]** — a process-wide cache of golden (fault-free) runs
//!   keyed by (target content digest, device, ECC), shared across
//!   campaigns.
//! * **[`Runner`]** — how a library helper that needs several campaigns
//!   starts them: [`DirectRunner`] builds and runs each one; the
//!   experiment harness observes, checkpoints and memoizes them.
//!
//! ```
//! use campaign::{Budget, Campaign, Kind, Sampler, TrialPlan};
//! use gpu_arch::DeviceModel;
//! use stats::Outcome;
//! # use gpu_sim::{Executed, Target};
//! # use obs::MetricsRegistry;
//! # use std::sync::Arc;
//!
//! // A kind that resolves every trial directly (no simulation) —
//! // real kinds live in the `injector` and `beam` crates.
//! struct CoinFlip;
//! struct FlipSampler;
//! impl Sampler for FlipSampler {
//!     fn sample(&self, _trial: u64, rng: &mut rand_chacha::ChaCha12Rng) -> TrialPlan {
//!         use rand::Rng;
//!         let outcome = if rng.gen_bool(0.1) { Outcome::Sdc } else { Outcome::Masked };
//!         TrialPlan::Direct { outcome, due: None, label: "flip" }
//!     }
//! }
//! impl<T: Target + Sync + ?Sized> Kind<T> for CoinFlip {
//!     type Sampler = FlipSampler;
//!     type Output = f64;
//!     fn label(&self) -> String { "flip".to_string() }
//!     fn ecc(&self) -> bool { false }
//!     fn prepare(&self, _: &T, _: &DeviceModel, _: &Arc<Executed>) -> FlipSampler { FlipSampler }
//!     fn finish(&self, _: &T, _: &FlipSampler, run: &campaign::CampaignRun) -> f64 {
//!         run.counts.sdc_fraction()
//!     }
//! }
//!
//! let device = DeviceModel::named("k40c-sim");
//! let target = microbench::arith(gpu_arch::FunctionalUnit::Iadd);
//! let sdc = Campaign::new(CoinFlip, &target, &device)
//!     .budget(Budget::adaptive(64, 512, 0.05).seed(7))
//!     .run()
//!     .unwrap();
//! assert!(sdc >= 0.0 && sdc <= 1.0);
//! ```

mod budget;
mod checkpoint;
mod engine;
pub mod golden;
mod runner;
mod store;
mod supervise;

pub use budget::{Budget, SnapshotPolicy};
pub use checkpoint::{Checkpoint, StreamScan, CHECKPOINT_REPORT_KIND};
pub use engine::{
    Campaign, CampaignError, CampaignRun, Kind, Sampler, StopReason, TrialPlan, BATCH_SHARDS,
    QUARANTINE_LABEL,
};
pub use golden::GoldenRequest;
pub use runner::{DirectRunner, Runner};
pub use store::{CheckpointStore, StoreError};
pub use supervise::{QuarantineRecord, QUARANTINE_REPORT_KIND};
