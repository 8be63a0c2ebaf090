//! The campaign engine: seed-deterministic sharded execution with a
//! CI-targeted stop rule and checkpoint/resume.
//!
//! # Determinism contract
//!
//! A campaign partitions its trial indices `0..ceiling` into shards of
//! [`Budget::shard_size`] trials. Shard `s` owns trials
//! `s*size .. min((s+1)*size, ceiling)` and a private ChaCha12 stream
//! seeded by `splitmix64(base ^ s*GOLDEN_GAMMA)` where
//! `base = budget.seed ^ fnv1a(target name)`. Because no RNG state crosses
//! a shard boundary, the outcome of every trial is a pure function of
//! `(budget.seed, shard_size, target, device, kind)` — running with 1
//! worker, N workers, or resuming from any checkpoint produces
//! bit-identical tallies, and the same [`CampaignRun::digest`].
//!
//! # Batches
//!
//! Shards run in batches. While every shard is sure to be folded (all of
//! them under a fixed budget, else those up to the one that reaches the
//! floor) a batch is up to [`BATCH_SHARDS`] consecutive shards, aligned
//! to multiples of it; after that a batch is one shard. A batch samples
//! every trial in trial order, each shard on its own stream, then
//! executes the planned trials in the order their faults fire in the
//! golden run, each from the latest state that precedes its fault: the
//! nearest golden snapshot, or the fault-free state the trial before it
//! handed off (DESIGN.md §16, "Relay"). Where a trial starts never
//! changes what it computes, so batches move only the wall clock and
//! the fast-forward telemetry. Batches depend on shard indices and the
//! budget alone, never on the worker count, so that telemetry is
//! worker-invariant too.
//!
//! # Stop rule
//!
//! Batches are *executed* in waves of up to `workers` at a time but
//! their shards are *folded* strictly in shard order. After each fold
//! (and before starting any new wave) the engine evaluates the budget:
//! past the floor, if the Wilson 95% CI half-widths of both the SDC and
//! DUE fractions are at or below [`Budget::ci_half_width`], it stops with
//! [`StopReason::CiTarget`]; at the ceiling it stops with
//! [`StopReason::Ceiling`]. Shards speculatively executed past a stop
//! boundary are discarded, which keeps the decision independent of the
//! worker count. Batches return one record per trial and the fold is the
//! only reader of those records: it tallies them, extends the digest and
//! emits their telemetry, so a discarded shard leaves none of them
//! behind.

use crate::budget::{watchdog_limit, Budget};
use crate::checkpoint::Checkpoint;
use crate::golden;
use crate::store::CheckpointStore;
use crate::supervise::{panic_message, QuarantineRecord};
use gpu_arch::DeviceModel;
use gpu_sim::{
    trigger_position, BlockExit, DueKind, EngineSnapshot, ExecStatus, Executed, ExitKind,
    FaultPlan, RunOptions, Target,
};
use obs::span::SpanBus;
use obs::{CampaignObserver, MetricsRegistry, SpanRecord};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use stats::{wilson_half_width, Outcome, OutcomeCounts};
use std::collections::BTreeMap;
use std::fmt;
use std::num::NonZeroU64;
use std::ops::{AddAssign, Range};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Shards in one batch while every shard is sure to be folded: 128
/// trials at the default shard size (DESIGN.md §16, "Relay"). A batch
/// samples all its trials, then executes them in the order their faults
/// fire, so each trial can hand its fault-free state to the next. Eight
/// shards relayed more, but held enough records to raise a pruned
/// HHOTSPOT campaign's peak resident memory by 8%.
pub const BATCH_SHARDS: u32 = 4;

/// Direct-tally label for trials that panicked twice and were
/// quarantined. They count as DUEs: like the paper's beam-room crashes,
/// the experiment detected its own failure and produced no output.
pub const QUARANTINE_LABEL: &str = "engine.quarantined";

/// What a sampler decided to do with one trial.
pub enum TrialPlan {
    /// Execute the target with this fault injected and classify the run.
    Fault(FaultPlan),
    /// Resolve the trial without executing (e.g. a beam run with no
    /// strike, or a fault whose site population is empty). The outcome is
    /// tallied under `direct.{label}` instead of a fault-site label.
    Direct {
        /// The predetermined outcome.
        outcome: Outcome,
        /// DUE kind when `outcome == Due` (for `due.*` metrics).
        due: Option<DueKind>,
        /// Stable tally label, e.g. `"beam.unstruck"`.
        label: &'static str,
    },
}

/// Draws one trial's plan. Shared across worker threads, so it must be
/// `Sync`; all per-trial randomness comes from the shard RNG passed in.
pub trait Sampler: Sync {
    /// Plan trial number `trial` (global index, for mode-cycling
    /// samplers); `rng` is the owning shard's private stream.
    fn sample(&self, trial: u64, rng: &mut ChaCha12Rng) -> TrialPlan;

    /// Optional static-verdict stratum for `plan` — a small stable label
    /// (e.g. `"masked"`, `"store"`, `"addr_ctl"`, `"unknown"`). Purely
    /// telemetry: direct trials accumulate under `campaign.pruned.{s}`
    /// and executed trials under `campaign.verdict.{s}.*`, and both maps
    /// surface on [`CampaignRun`]. Must be a pure function of
    /// `(trial, plan)` so retries and worker counts cannot skew the
    /// strata. The default sampler has no strata.
    fn stratum(&self, _trial: u64, _plan: &TrialPlan) -> Option<&'static str> {
        None
    }
}

/// A campaign flavor: how to set up a sampler from the golden run and how
/// to turn the accumulated tallies into a domain result (an AVF estimate,
/// a FIT rate, ...). Implemented by `injector` and `beam`; anything that
/// implements [`Kind`] runs on the same engine and inherits sharding,
/// early stopping, caching and checkpointing.
pub trait Kind<T: Target + Sync + ?Sized> {
    /// Per-campaign sampler state (modes, strike channels, ...).
    type Sampler: Sampler;
    /// Domain result produced by [`Kind::finish`].
    type Output;

    /// Short kind tag used in the campaign label, e.g. `"avf/sassifi"`.
    fn label(&self) -> String;

    /// ECC state for the golden run and every trial.
    fn ecc(&self) -> bool;

    /// Whether the golden run must carry a site-provenance record
    /// ([`gpu_sim::SitesRecord`]). Kinds that statically prune masked
    /// sites need it; everything else leaves the default `false` and
    /// shares the cheaper plain golden.
    fn record_sites(&self) -> bool {
        false
    }

    /// Build the sampler from the golden run.
    fn prepare(&self, target: &T, device: &DeviceModel, golden: &Arc<Executed>) -> Self::Sampler;

    /// Convert the finished run into the domain result.
    fn finish(&self, target: &T, sampler: &Self::Sampler, run: &CampaignRun) -> Self::Output;

    /// Optional kind-specific metrics (compat counters etc.).
    fn export_metrics(&self, _sampler: &Self::Sampler, _run: &CampaignRun, _m: &MetricsRegistry) {}
}

/// Why a campaign stopped.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StopReason {
    /// Ran out of budget: `trials == ceiling`.
    Ceiling,
    /// The CI target was met at a shard boundary past the floor.
    CiTarget {
        /// The worst (largest) tracked half-width at the stop boundary.
        half_width: f64,
        /// Trials spent when the rule fired.
        trials: u64,
    },
}

impl StopReason {
    /// True when the stop rule fired before the ceiling.
    pub fn stopped_early(&self) -> bool {
        matches!(self, StopReason::CiTarget { .. })
    }
}

/// Campaign failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CampaignError {
    /// The golden (fault-free) run did not complete.
    GoldenFailed(String),
    /// A resume checkpoint does not match this campaign's identity or
    /// shard partition.
    CheckpointMismatch(String),
    /// The attached [`CheckpointStore`] failed (lock held, I/O error
    /// after retries).
    Store(String),
    /// A shard worker died outside the supervised per-trial scope (a
    /// bug in the engine itself, not in a trial).
    ShardPanicked(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::GoldenFailed(why) => write!(f, "golden run failed: {why}"),
            CampaignError::CheckpointMismatch(why) => write!(f, "checkpoint mismatch: {why}"),
            CampaignError::Store(why) => write!(f, "checkpoint store: {why}"),
            CampaignError::ShardPanicked(why) => write!(f, "shard worker panicked: {why}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// The engine-level result of a campaign: tallies, stop decision, golden
/// run, and the terminal checkpoint. Kinds wrap this into domain results;
/// callers that want both use [`Campaign::run_full`].
#[derive(Clone, Debug)]
pub struct CampaignRun {
    /// Campaign identity: `kind/device/target`.
    pub label: String,
    /// Outcome tallies over every trial (executed and direct).
    pub counts: OutcomeCounts,
    /// Outcome tallies over executed (fault-injected) trials only.
    pub executed: OutcomeCounts,
    /// Tallies of trials resolved without execution, by direct label.
    pub direct: BTreeMap<String, OutcomeCounts>,
    /// Direct (pruned) trials by sampler-reported verdict stratum.
    /// Covers only trials run in this process, not resumed ones.
    pub strata_pruned: BTreeMap<String, OutcomeCounts>,
    /// Executed trials by sampler-reported verdict stratum (same
    /// coverage caveat). A nonzero `sdc` under a stratum whose verdict
    /// forbids SDCs is a soundness bug in the sampler's static oracle.
    pub strata_sim: BTreeMap<String, OutcomeCounts>,
    /// Total trials spent (including any resumed from a checkpoint).
    pub trials: u64,
    /// Shards folded in (including resumed ones).
    pub shards: u32,
    /// Trials that were replayed from the resume checkpoint, not run here.
    pub resumed_trials: u64,
    /// Why the campaign stopped.
    pub stop: StopReason,
    /// The shared golden run.
    pub golden: Arc<Executed>,
    /// Terminal checkpoint (resuming from it is a no-op).
    pub checkpoint: Checkpoint,
    /// Trials whose first attempt panicked and were replayed (including
    /// those that panicked again and were quarantined).
    pub retries: u64,
    /// Trials that panicked twice and were quarantined (also tallied as
    /// DUEs under `direct.engine.quarantined`).
    pub quarantine: Vec<QuarantineRecord>,
    /// FNV-1a over every trial's (index, outcome, DUE kind, tally label,
    /// stratum) in trial order, resumed trials included: one number that
    /// any change to any trial's result moves. The same at any worker
    /// count, snapshot policy and across a kill and resume; `None` when
    /// the run resumed from a checkpoint written before checkpoints
    /// carried it.
    pub digest: Option<u64>,
}

impl CampaignRun {
    /// Worst (largest) tracked Wilson 95% half-width at the end.
    pub fn ci_half_width(&self) -> f64 {
        max_half_width(&self.counts, self.trials)
    }
}

/// A borrowed callback invoked with each emitted [`Checkpoint`].
type CheckpointSink<'a> = Box<dyn FnMut(&Checkpoint) + 'a>;

/// A configured campaign, ready to run. Build with [`Campaign::new`],
/// chain the builder methods, then call [`Campaign::run`] (domain result)
/// or [`Campaign::run_full`] (domain result plus [`CampaignRun`]).
pub struct Campaign<'a, T: Target + Sync + ?Sized, K: Kind<T>> {
    kind: K,
    target: &'a T,
    device: &'a DeviceModel,
    budget: Budget,
    observer: CampaignObserver<'a>,
    workers: usize,
    sink: Option<CheckpointSink<'a>>,
    resume: Option<Checkpoint>,
    store: Option<&'a mut CheckpointStore>,
}

impl<'a, T: Target + Sync + ?Sized, K: Kind<T>> Campaign<'a, T, K> {
    /// A campaign of `kind` over `target` on `device` with the default
    /// budget ([`Budget::quick`]), one worker, and no observer.
    pub fn new(kind: K, target: &'a T, device: &'a DeviceModel) -> Self {
        Campaign {
            kind,
            target,
            device,
            budget: Budget::default(),
            observer: CampaignObserver::none(),
            workers: 1,
            sink: None,
            resume: None,
            store: None,
        }
    }

    /// Replace the budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Attach metrics/progress observability.
    pub fn observer(mut self, observer: CampaignObserver<'a>) -> Self {
        self.observer = observer;
        self
    }

    /// Worker threads per wave. `0` means one per available CPU. Any
    /// value yields bit-identical results; this only affects wall-clock.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Receive a checkpoint after every folded shard (write them to a
    /// JSONL stream with [`Checkpoint::to_json_line`]).
    pub fn on_checkpoint(mut self, sink: impl FnMut(&Checkpoint) + 'a) -> Self {
        self.sink = Some(Box::new(sink));
        self
    }

    /// Attach a durable [`CheckpointStore`]: a checkpoint is saved to it
    /// after every folded shard, quarantined trials are appended to its
    /// quarantine journal, and — unless [`Campaign::resume_from`] was
    /// given explicitly — the campaign automatically resumes from the
    /// store's last checkpoint for this label.
    pub fn store(mut self, store: &'a mut CheckpointStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Resume from a previously emitted checkpoint instead of starting at
    /// shard 0. The checkpoint must match this campaign's label, seed and
    /// shard size; the completed run is bit-identical to an uninterrupted
    /// one.
    pub fn resume_from(mut self, checkpoint: Checkpoint) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Run the campaign and return the kind's domain result.
    pub fn run(self) -> Result<K::Output, CampaignError> {
        self.run_full().map(|(output, _)| output)
    }

    /// Run the campaign and return the domain result together with the
    /// engine-level [`CampaignRun`] (trials spent, stop reason, golden).
    pub fn run_full(mut self) -> Result<(K::Output, CampaignRun), CampaignError> {
        let ecc = self.kind.ecc();
        let store_damage0 = self.store.as_deref().map_or(0, |s| s.damage_events());
        let golden_timer = obs::Timer::start();
        let stride = self.budget.snapshots.stride();
        let req = golden::GoldenRequest::new(ecc)
            .record_sites(self.kind.record_sites())
            .snapshots(stride);
        let (golden, cache_hit) =
            golden::fetch(self.target, self.device, req).map_err(CampaignError::GoldenFailed)?;
        // Fast-forward is gated by *this* budget's policy, not by whatever
        // a cached golden happens to carry: with the policy off, trials
        // replay from instruction zero even when snapshots are available.
        let ff: Option<&[Arc<EngineSnapshot>]> =
            (stride > 0 && !golden.snapshots.is_empty()).then(|| golden.snapshots.as_slice());
        // The early exits ride the same policy: with fast-forward armed,
        // trials may end through the golden's exit table or rejoin it at a
        // snapshot.
        let exit = ff.and(golden.exit_table.as_ref()).map(|_| &golden);
        if let Some(m) = self.observer.metrics {
            m.counter(if cache_hit { "campaign.golden.hit" } else { "campaign.golden.miss" }).inc();
            golden_timer.observe(&m.histogram("campaign.golden.fetch_micros"));
            m.gauge("campaign.snapshot.cached").set(golden.snapshots.len() as f64);
            let snapshots: u64 = golden.snapshots.iter().map(|s| s.approx_bytes()).sum();
            let exit_table = golden.exit_table.as_ref().map_or(0, |t| t.approx_bytes());
            m.gauge("campaign.snapshot.bytes").set((snapshots + exit_table) as f64);
        }
        let sampler = self.kind.prepare(self.target, self.device, &golden);
        let label = format!("{}/{}/{}", self.kind.label(), self.device.name, self.target.name());
        let shard_size = self.budget.shard_size.max(1) as u64;
        let ceiling = self.budget.effective_ceiling() as u64;
        let floor = self.budget.effective_floor() as u64;
        let ci = self.budget.ci_half_width;
        let total_shards = ceiling.div_ceil(shard_size) as u32;
        // Trial span IDs are keyed off the campaign label + trial index,
        // so a trial's span ID is stable across runs and worker counts
        // (the same function of the FaultPlan draw).
        let key_base = fnv1a(&label);
        let campaign_span = self.observer.spans.map(|bus| {
            let mut span = bus.begin(label.clone(), "campaign", obs::ROOT_SPAN, 0);
            span.arg("ceiling", ceiling.to_string());
            span.arg("shard_size", shard_size.to_string());
            span
        });
        let telemetry = Telemetry {
            observer: self.observer,
            campaign_span: campaign_span.as_ref().map_or(obs::ROOT_SPAN, |s| s.id()),
            key_base,
            ff: ff.is_some(),
            exit: exit.is_some(),
            epoch: Instant::now(),
            epoch_us: self.observer.spans.map_or(0, SpanBus::now_us),
        };
        if let Some(m) = self.observer.metrics {
            m.gauge("campaign.trial_ceiling").set(ceiling as f64);
            m.gauge("campaign.shards_total").set(total_shards as f64);
            if let Some(target) = ci {
                m.gauge("campaign.ci_target").set(target);
            }
        }

        if self.resume.is_none() {
            if let Some(store) = self.store.as_mut() {
                self.resume =
                    store.load(&label).map_err(|e| CampaignError::Store(e.to_string()))?;
            }
        }

        let mut total = Tally::default();
        let mut digest = Some(FNV_OFFSET);
        let mut next_shard = 0u32;
        let mut resumed_trials = 0u64;
        if let Some(cp) = self.resume.take() {
            if cp.label != label {
                return Err(CampaignError::CheckpointMismatch(format!(
                    "checkpoint is for {:?}, campaign is {:?}",
                    cp.label, label
                )));
            }
            if cp.seed != self.budget.seed || cp.shard_size != self.budget.shard_size {
                return Err(CampaignError::CheckpointMismatch(format!(
                    "checkpoint partition (seed {}, shard size {}) != budget (seed {}, shard size {})",
                    cp.seed, cp.shard_size, self.budget.seed, self.budget.shard_size
                )));
            }
            // A checkpoint is only resumable mid-campaign when it sits at
            // a full shard boundary of *this* budget's partition (the
            // final shard of a smaller ceiling may have been partial).
            if cp.shards_done < total_shards && cp.trials != cp.shards_done as u64 * shard_size {
                return Err(CampaignError::CheckpointMismatch(format!(
                    "checkpoint trials {} is not a boundary of {}-trial shards",
                    cp.trials, shard_size
                )));
            }
            resumed_trials = cp.trials;
            next_shard = cp.shards_done.min(total_shards);
            digest = cp.digest;
            total = Tally::resumed(cp);
        }

        let workers = if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.workers
        };
        let ctx = ShardCtx {
            target: self.target,
            device: self.device,
            golden: &golden,
            sampler: &sampler,
            ecc,
            watchdog: watchdog_limit(golden.counts.total),
            ff,
            exit,
            base_seed: self.budget.seed ^ fnv1a(self.target.name()),
            shard_size,
            ceiling,
            spans: self.observer.spans,
            key_base,
        };
        let mut quarantine: Vec<QuarantineRecord> = Vec::new();
        // The shards folded whatever the tallies say: every one under a
        // fixed budget, else those up to the one that reaches the floor.
        let certain = match ci {
            None => total_shards,
            Some(_) => (floor.div_ceil(shard_size) as u32).min(total_shards),
        };

        let mut stop = eval_stop(&total.counts, total.trials, floor, ceiling, ci);
        'campaign: while stop.is_none() && next_shard < total_shards {
            let wave = wave_batches(next_shard, certain, total_shards, workers);
            for shard in ctx.run_wave(wave)? {
                let journaled = quarantine.len();
                total += telemetry.fold(shard, &label, &mut quarantine, &mut digest);
                if let Some(store) = self.store.as_mut() {
                    for rec in &quarantine[journaled..] {
                        store.quarantine(rec).map_err(|e| CampaignError::Store(e.to_string()))?;
                    }
                }
                next_shard += 1;
                stop = eval_stop(&total.counts, total.trials, floor, ceiling, ci);
                // Convergence telemetry at every fold: the live console and
                // progress line both show the current Wilson half-width.
                let half_width = max_half_width(&total.counts, total.trials);
                if let Some(m) = self.observer.metrics {
                    m.gauge("campaign.shards_done").set(next_shard as f64);
                    m.gauge("campaign.ci_half_width").set(half_width);
                    if let Some(p) = self.observer.progress {
                        m.gauge("trials_per_sec").set(p.rate());
                    }
                }
                if let Some(p) = self.observer.progress {
                    p.note_ci(half_width);
                }
                if let Some(bus) = self.observer.spans {
                    bus.instant(
                        "ci-update",
                        telemetry.campaign_span,
                        0,
                        vec![
                            ("trials", total.trials.to_string()),
                            ("half_width", format!("{half_width:.6}")),
                        ],
                    );
                }
                if self.sink.is_some() || self.store.is_some() {
                    let cp = snapshot(&label, &self.budget, next_shard, &total, digest);
                    if let Some(sink) = self.sink.as_mut() {
                        sink(&cp);
                    }
                    if let Some(store) = self.store.as_mut() {
                        let save_timer = obs::Timer::start();
                        store.save(&cp).map_err(|e| CampaignError::Store(e.to_string()))?;
                        if let Some(m) = self.observer.metrics {
                            save_timer.observe(&m.histogram("campaign.store.save_micros"));
                        }
                    }
                }
                if stop.is_some() {
                    // Discard any shards speculatively run past the stop
                    // boundary: the decision must not depend on `workers`.
                    break 'campaign;
                }
            }
        }
        let stop = stop.unwrap_or(StopReason::Ceiling);

        let run = CampaignRun {
            checkpoint: snapshot(&label, &self.budget, next_shard, &total, digest),
            label,
            counts: total.counts,
            executed: total.executed,
            direct: total.direct,
            strata_pruned: total.strata_pruned,
            strata_sim: total.strata_sim,
            trials: total.trials,
            shards: next_shard,
            resumed_trials,
            stop,
            golden,
            retries: total.retries,
            quarantine,
            digest,
        };
        if let Some(mut span) = campaign_span {
            span.arg("trials", run.trials.to_string());
            span.arg(
                "stop",
                match run.stop {
                    StopReason::Ceiling => "ceiling",
                    StopReason::CiTarget { .. } => "ci-target",
                },
            );
            span.end();
        }
        if let Some(m) = self.observer.metrics {
            match run.stop {
                StopReason::CiTarget { .. } => m.counter("campaign.stop.ci_target").inc(),
                StopReason::Ceiling => m.counter("campaign.stop.ceiling").inc(),
            }
            m.gauge("campaign.ci_half_width").set(run.ci_half_width());
            if let Some(p) = self.observer.progress {
                m.gauge("trials_per_sec").set(p.rate());
            }
            if let Some(store) = self.store.as_deref() {
                // Durable-store health: damage seen by this campaign's
                // loads/saves plus stale locks broken when the store was
                // opened.
                let damage = store.damage_events() - store_damage0;
                if damage > 0 {
                    m.counter("campaign.store.damage").add(damage);
                }
                if store.lock_breaks() > 0 {
                    m.counter("campaign.store.lock_broken").add(store.lock_breaks());
                }
            }
            self.kind.export_metrics(&sampler, &run, m);
        }
        let output = self.kind.finish(self.target, &sampler, &run);
        Ok((output, run))
    }
}

/// Everything one trial resolved to. Batches produce these; the in-order
/// shard fold ([`Telemetry::fold`]) is their only reader, so a shard
/// discarded past a stop boundary leaves no tally and no telemetry. A
/// batch holds one per trial until it folds, so they are kept small.
struct TrialRecord {
    trial: u64,
    outcome: Outcome,
    due: Option<DueKind>,
    /// Tally label: the fault site, the direct label, or
    /// [`QUARANTINE_LABEL`].
    label: &'static str,
    stratum: Option<&'static str>,
    /// The trial ran the target and was classified against the golden
    /// run (it was neither resolved directly nor quarantined).
    executed: bool,
    /// The first attempt panicked.
    retried: bool,
    /// The trial resumed from the state an earlier trial of its batch
    /// handed off.
    relayed: bool,
    /// The faulty run's `counts.total`, fast-forwarded prefix and
    /// exit-skipped instructions included (0 when not executed).
    dyn_instrs: u64,
    /// Scheduler rounds the faulty run executed ([`Executed::rounds`];
    /// 0 when not executed). Telemetry only: it depends on where the run
    /// resumed and exited, so the digest leaves it out.
    rounds: u64,
    /// Dynamic instructions skipped by resuming from a golden snapshot
    /// or a relayed state (never at instruction zero); `None` when the
    /// trial replayed from zero.
    fast_forwarded: Option<NonZeroU64>,
    /// Where and how the trial ended early through its golden run, and
    /// the instructions that skipped; `None` when it ran to the end.
    exit: Option<BlockExit>,
    /// When the trial started (its execution, for an executed trial), in
    /// microseconds after its shard run's start, and how long its
    /// sampling and execution took.
    start_us: u32,
    micros: u32,
    /// A trial that panicked twice: the fault plan in flight, if its
    /// sampling got that far, and the panic text.
    quarantined: Option<Box<(Option<FaultPlan>, String)>>,
}

impl TrialRecord {
    /// Trial `trial` resolved as `outcome` under `label`, before
    /// execution and supervision fill in what they add.
    fn new(
        trial: u64,
        outcome: Outcome,
        due: Option<DueKind>,
        label: &'static str,
        stratum: Option<&'static str>,
    ) -> TrialRecord {
        TrialRecord {
            trial,
            outcome,
            due,
            label,
            stratum,
            executed: false,
            retried: false,
            relayed: false,
            dyn_instrs: 0,
            rounds: 0,
            fast_forwarded: None,
            exit: None,
            start_us: 0,
            micros: 0,
            quarantined: None,
        }
    }

    /// A trial quarantined with `plan` in flight after panicking with
    /// `payload`.
    fn quarantine(&mut self, plan: Option<FaultPlan>, payload: &(dyn std::any::Any + Send)) {
        *self = TrialRecord {
            retried: self.retried,
            start_us: self.start_us,
            micros: self.micros,
            quarantined: Some(Box::new((plan, panic_message(payload)))),
            ..TrialRecord::new(self.trial, Outcome::Due, None, QUARANTINE_LABEL, None)
        };
    }
}

/// Outcome tallies over folded trials: one shard's, exported as metrics
/// when it folds, or the campaign's running total, which drives the stop
/// rule, the checkpoints and [`CampaignRun`].
#[derive(Default)]
struct Tally {
    trials: u64,
    counts: OutcomeCounts,
    executed: OutcomeCounts,
    direct: BTreeMap<String, OutcomeCounts>,
    sites: BTreeMap<String, OutcomeCounts>,
    strata_pruned: BTreeMap<String, OutcomeCounts>,
    strata_sim: BTreeMap<String, OutcomeCounts>,
    dues: BTreeMap<String, u64>,
    retries: u64,
    quarantined: u64,
}

impl Tally {
    /// The running total a checkpoint resumes from. Sites, strata, DUE
    /// kinds and retries are not checkpointed; they cover only the trials
    /// run in this process.
    fn resumed(cp: Checkpoint) -> Tally {
        let direct = cp.direct.values().fold(OutcomeCounts::new(), |a, &b| a + b);
        Tally {
            trials: cp.trials,
            counts: cp.counts,
            executed: subtract(cp.counts, direct),
            direct: cp.direct,
            ..Tally::default()
        }
    }

    /// Count one trial. This is the only place a trial becomes tally
    /// entries.
    fn record(&mut self, rec: &TrialRecord) {
        let outcome = rec.outcome;
        self.trials += 1;
        self.counts.record(outcome);
        let (by_label, strata) = if rec.executed {
            self.executed.record(outcome);
            (&mut self.sites, &mut self.strata_sim)
        } else {
            (&mut self.direct, &mut self.strata_pruned)
        };
        bump(by_label, rec.label, |c| c.record(outcome));
        if let Some(s) = rec.stratum {
            bump(strata, s, |c| c.record(outcome));
        }
        if let Some(kind) = rec.due {
            bump(&mut self.dues, kind.name(), |n| *n += 1);
        }
        self.retries += u64::from(rec.retried);
        self.quarantined += u64::from(rec.quarantined.is_some());
    }
}

impl AddAssign for Tally {
    fn add_assign(&mut self, shard: Tally) {
        fn merge<V: AddAssign + Default>(
            into: &mut BTreeMap<String, V>,
            from: BTreeMap<String, V>,
        ) {
            for (key, v) in from {
                *into.entry(key).or_default() += v;
            }
        }
        self.trials += shard.trials;
        self.counts += shard.counts;
        self.executed += shard.executed;
        merge(&mut self.direct, shard.direct);
        merge(&mut self.sites, shard.sites);
        merge(&mut self.strata_pruned, shard.strata_pruned);
        merge(&mut self.strata_sim, shard.strata_sim);
        merge(&mut self.dues, shard.dues);
        self.retries += shard.retries;
        self.quarantined += shard.quarantined;
    }
}

/// Apply `add` to the entry for `key`, allocating the key only on its
/// first occurrence.
fn bump<V: Default>(map: &mut BTreeMap<String, V>, key: &str, add: impl FnOnce(&mut V)) {
    if let Some(v) = map.get_mut(key) {
        return add(v);
    }
    let mut v = V::default();
    add(&mut v);
    map.insert(key.to_owned(), v);
}

/// One executed shard: its trial records in trial order, and its timing.
struct ShardRun {
    index: u32,
    range: Range<u64>,
    /// When the shard's sampling began; trial start offsets count from
    /// here.
    start: Instant,
    /// Its trials' sampling and execution time, summed.
    micros: u64,
    records: Vec<TrialRecord>,
}

/// What the fold reports trials to: the campaign's observer and span
/// identity.
struct Telemetry<'a> {
    observer: CampaignObserver<'a>,
    campaign_span: u64,
    key_base: u64,
    /// Fast-forward is armed: executed trials count snapshot hits,
    /// misses and relays.
    ff: bool,
    /// The early exits are armed: executed trials count block exits,
    /// rejoins and neither.
    exit: bool,
    /// `epoch` on the span bus clock. Trial and shard spans are pushed at
    /// fold time from the `Instant`s the records carry.
    epoch: Instant,
    epoch_us: u64,
}

impl Telemetry<'_> {
    /// Fold one shard in trial order: tally every record once, emit its
    /// telemetry (histograms, snapshot counters, spans, progress ticks),
    /// and append its quarantined trials to `quarantine`. Returns the
    /// shard's tally after exporting it as metrics; the records are
    /// dropped here.
    fn fold(
        &self,
        shard: ShardRun,
        label: &str,
        quarantine: &mut Vec<QuarantineRecord>,
        digest: &mut Option<u64>,
    ) -> Tally {
        let CampaignObserver { metrics, progress, spans } = self.observer;
        let hists = metrics.map(|m| {
            (
                m.histogram("campaign.trial_micros"),
                m.histogram("campaign.trial_dyn_instrs"),
                m.histogram("campaign.engine.rounds"),
            )
        });
        let snap = metrics.filter(|_| self.ff).map(|m| {
            (
                m.counter("campaign.snapshot.hit"),
                m.counter("campaign.snapshot.miss"),
                m.counter("campaign.snapshot.relay"),
                m.histogram("campaign.snapshot.fastforward_instrs"),
            )
        });
        let exits = metrics.filter(|_| self.exit).map(|m| {
            (
                m.counter("campaign.exit.block"),
                m.counter("campaign.exit.rejoin"),
                m.counter("campaign.exit.none"),
                m.histogram("campaign.exit.skipped_instrs"),
            )
        });
        let tid = shard.index as u64 + 1;
        let shard_span = spans.map(|bus| (bus, bus.alloc_id()));
        let mut tally = Tally::default();
        for rec in shard.records {
            tally.record(&rec);
            if let Some(h) = digest.as_mut() {
                *h = digest_record(*h, &rec);
            }
            if let Some((micros, dyn_instrs, rounds)) = &hists {
                micros.observe(u64::from(rec.micros));
                if rec.executed {
                    dyn_instrs.observe(rec.dyn_instrs);
                    rounds.observe(rec.rounds);
                }
            }
            if let Some((hit, miss, relay, skipped)) = snap.as_ref().filter(|_| rec.executed) {
                match rec.fast_forwarded {
                    Some(n) => {
                        hit.inc();
                        skipped.observe(n.get());
                    }
                    None => miss.inc(),
                }
                if rec.relayed {
                    relay.inc();
                }
            }
            if let Some((block, rejoin, none, skipped)) = exits.as_ref().filter(|_| rec.executed) {
                match rec.exit {
                    Some(exit) => {
                        match exit.kind {
                            ExitKind::Block => block.inc(),
                            ExitKind::Rejoin => rejoin.inc(),
                        }
                        skipped.observe(exit.skipped_instrs);
                    }
                    None => none.inc(),
                }
            }
            if let Some((bus, parent)) = shard_span {
                let ts_us = self.bus_us(shard.start) + u64::from(rec.start_us);
                self.push_trial_spans(bus, parent, tid, ts_us, &rec);
            }
            if let Some(p) = progress {
                p.inc();
            }
            if let Some(quarantined) = rec.quarantined {
                let (plan, panic) = *quarantined;
                quarantine.push(QuarantineRecord {
                    label: label.to_string(),
                    trial: rec.trial,
                    shard: shard.index,
                    plan,
                    panic,
                });
            }
        }
        if let Some((bus, id)) = shard_span {
            bus.push(SpanRecord {
                id,
                parent: self.campaign_span,
                name: format!("shard-{}", shard.index),
                cat: "shard",
                tid,
                ts_us: self.bus_us(shard.start),
                dur_us: Some(shard.micros),
                args: vec![
                    ("range", format!("{}..{}", shard.range.start, shard.range.end)),
                    ("trials", tally.trials.to_string()),
                ],
            });
        }
        if let Some(m) = metrics {
            export_shard_metrics(m, &tally, shard.micros);
        }
        tally
    }

    /// `at` on the span bus clock.
    fn bus_us(&self, at: Instant) -> u64 {
        self.epoch_us + at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Push one trial's span, started at `ts_us`, with its FaultPlan-keyed
    /// ID, and its retry, quarantine and watchdog events, stamped at the
    /// trial's end.
    fn push_trial_spans(
        &self,
        bus: &SpanBus,
        shard_span: u64,
        tid: u64,
        ts_us: u64,
        rec: &TrialRecord,
    ) {
        let micros = u64::from(rec.micros);
        let event = |name: &str, args| {
            bus.push(SpanRecord {
                id: bus.alloc_id(),
                parent: shard_span,
                name: name.to_string(),
                cat: "event",
                tid,
                ts_us: ts_us + micros,
                dur_us: None,
                args,
            });
        };
        let trial = rec.trial.to_string();
        if rec.retried {
            event("retry", vec![("trial", trial.clone())]);
        }
        if rec.quarantined.is_some() {
            event("quarantine", vec![("trial", trial.clone())]);
        }
        let mut args = vec![
            ("trial", trial.clone()),
            ("outcome", rec.outcome.to_string()),
            ("site", rec.label.to_string()),
        ];
        if let Some(kind) = rec.due {
            args.push(("due", kind.name().to_string()));
            if kind == DueKind::Watchdog {
                event("watchdog", vec![("trial", trial), ("kind", kind.name().to_string())]);
            }
        }
        bus.push(SpanRecord {
            id: obs::keyed_id(self.key_base, rec.trial),
            parent: shard_span,
            name: "trial".to_string(),
            cat: "trial",
            tid,
            ts_us,
            dur_us: Some(micros),
            args,
        });
    }
}

/// What every shard and trial of one campaign reads, borrowed by the
/// wave, each shard worker and each trial.
struct ShardCtx<'a, T: ?Sized, S> {
    target: &'a T,
    device: &'a DeviceModel,
    golden: &'a Executed,
    sampler: &'a S,
    ecc: bool,
    watchdog: u64,
    ff: Option<&'a [Arc<EngineSnapshot>]>,
    /// The golden run trials exit through, when the exit is armed.
    exit: Option<&'a Arc<Executed>>,
    base_seed: u64,
    shard_size: u64,
    ceiling: u64,
    /// For the sampled engine-phase sink only; the fold pushes every
    /// other span.
    spans: Option<&'a SpanBus>,
    key_base: u64,
}

/// A planned trial waiting in its batch, with its place in trigger
/// order: `(k, position)` from [`trigger_position`], where
/// `snapshots[k - 1]` is its nearest golden snapshot.
struct Pending {
    key: (u32, u64),
    /// Index of its shard within the batch, and of its record there:
    /// trial order, which breaks ties in `key`.
    run: u32,
    rec: u32,
    plan: FaultPlan,
}

/// What executing one plan gave.
struct Ran {
    outcome: Outcome,
    due: Option<DueKind>,
    dyn_instrs: u64,
    rounds: u64,
    exit: Option<BlockExit>,
    handoff: Option<Arc<EngineSnapshot>>,
}

impl<T: Target + Sync + ?Sized, S: Sampler> ShardCtx<'_, T, S> {
    /// Execute `batches` concurrently, one thread each, and return their
    /// shard runs in shard order.
    fn run_wave(&self, batches: Vec<Range<u32>>) -> Result<Vec<ShardRun>, CampaignError> {
        if batches.len() == 1 {
            return Ok(self.run_batch(batches[0].clone()));
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = batches
                .into_iter()
                .map(|batch| scope.spawn(move || self.run_batch(batch)))
                .collect();
            let mut runs = Vec::new();
            for h in handles {
                // Per-trial panics are caught inside the batch; a panic
                // that reaches the join is an engine bug, reported as a
                // typed error instead of poisoning the caller.
                let batch = h.join().map_err(|payload| {
                    CampaignError::ShardPanicked(panic_message(payload.as_ref()))
                })?;
                runs.extend(batch);
            }
            Ok(runs)
        })
    }

    /// Run one batch of shards: sample every trial in trial order,
    /// execute the planned ones in trigger order, relaying each trial's
    /// fault-free state to the next where that skips more prefix than a
    /// golden snapshot, and return the shards' records in trial order.
    fn run_batch(&self, shards: Range<u32>) -> Vec<ShardRun> {
        let mut pending = Vec::new();
        let mut runs: Vec<ShardRun> = shards
            .enumerate()
            .map(|(run, shard)| self.sample_shard(shard, run as u32, &mut pending))
            .collect();
        pending.sort_unstable_by_key(|p| (p.key, p.run, p.rec));
        let mut relay: Option<Arc<EngineSnapshot>> = None;
        for (j, p) in pending.iter().enumerate() {
            let run = &mut runs[p.run as usize];
            let golden =
                self.ff.and_then(|snaps| (p.key.0 as usize).checked_sub(1).map(|i| &snaps[i]));
            let skip = golden.map_or(0, |g| g.dyn_count());
            let relayed = relay.take().filter(|r| r.dyn_count() > skip && r.precedes(&p.plan));
            // Only the next trial can use a hand-off, and only when its
            // nearest golden snapshot is this trial's: one further on lies
            // past this trial's trigger.
            let hand_off =
                self.ff.is_some() && pending.get(j + 1).is_some_and(|n| n.key.0 == p.key.0);
            let rec = &mut run.records[p.rec as usize];
            rec.relayed = relayed.is_some();
            let resume = relayed.or_else(|| golden.cloned());
            let start_us = micros(run.start.elapsed());
            if let Some(next) = self.execute_supervised(rec, p.plan, resume, hand_off) {
                relay = Some(next);
            }
            rec.start_us = start_us;
        }
        for run in &mut runs {
            run.micros = run.records.iter().map(|r| u64::from(r.micros)).sum();
        }
        runs
    }

    /// Sample every trial of `shard` in trial order on the shard's own
    /// stream, under supervision: a sampler that panics is retried once
    /// from an identical stream and, on a second panic, quarantined —
    /// recorded as a DUE under [`QUARANTINE_LABEL`]. Direct trials are
    /// resolved here; planned ones are appended to `pending` as shard
    /// `run` of the batch. The stream state after any trial is the state
    /// after its sampler draws, which is what keeps tallies bit-identical
    /// at any worker count.
    fn sample_shard(&self, shard: u32, run: u32, pending: &mut Vec<Pending>) -> ShardRun {
        let start = Instant::now();
        let first = shard as u64 * self.shard_size;
        let range = first..(first + self.shard_size).min(self.ceiling);
        let mut rng = ChaCha12Rng::seed_from_u64(shard_seed(self.base_seed, shard));
        let mut records = Vec::with_capacity((range.end - range.start) as usize);
        for trial in range.clone() {
            let snap = rng.clone();
            let started = Instant::now();
            let attempt = || {
                let mut r = snap.clone();
                let planned = self.sampler.sample(trial, &mut r);
                let stratum = self.sampler.stratum(trial, &planned);
                (planned, stratum, r)
            };
            let mut retried = false;
            let result = catch_unwind(AssertUnwindSafe(&attempt)).or_else(|_first| {
                retried = true;
                catch_unwind(AssertUnwindSafe(&attempt))
            });
            let mut rec = match result {
                Ok((TrialPlan::Direct { outcome, due, label }, stratum, after)) => {
                    rng = after;
                    TrialRecord::new(trial, outcome, due, label, stratum)
                }
                Ok((TrialPlan::Fault(plan), stratum, after)) => {
                    rng = after;
                    let (k, pos) = match self.ff {
                        Some(snaps) => trigger_position(snaps, &self.golden.counts, &plan),
                        None => (0, 0),
                    };
                    let rec = records.len() as u32;
                    pending.push(Pending { key: (k as u32, pos), run, rec, plan });
                    TrialRecord::new(trial, Outcome::Due, None, plan.site_label(), stratum)
                }
                // The sampler panicked twice: the stream state after its
                // draws is unknowable, but unknowable the same way in
                // every configuration — fall back to the pre-trial state.
                Err(payload) => {
                    rng = snap.clone();
                    let mut rec = TrialRecord::new(trial, Outcome::Due, None, "", None);
                    rec.quarantine(None, payload.as_ref());
                    rec
                }
            };
            rec.start_us = micros(started.duration_since(start));
            rec.micros = micros(started.elapsed());
            rec.retried = retried;
            records.push(rec);
        }
        ShardRun { index: shard, range, start, micros: 0, records }
    }

    /// Execute `plan` for `rec` from `resume`, under supervision: a
    /// panicking run is retried once, unless its sampling already was,
    /// and on a second panic the trial is quarantined with its plan.
    /// Returns the run's hand-off, if it made one.
    fn execute_supervised(
        &self,
        rec: &mut TrialRecord,
        plan: FaultPlan,
        resume: Option<Arc<EngineSnapshot>>,
        hand_off: bool,
    ) -> Option<Arc<EngineSnapshot>> {
        let started = Instant::now();
        let fast_forwarded = resume.as_ref().and_then(|s| NonZeroU64::new(s.dyn_count()));
        let trial = rec.trial;
        let attempt = || self.execute(trial, plan, resume.clone(), hand_off);
        let mut result = catch_unwind(AssertUnwindSafe(&attempt));
        if result.is_err() && !rec.retried {
            // First panic: deterministic retry from the same state.
            rec.retried = true;
            result = catch_unwind(AssertUnwindSafe(&attempt));
        }
        rec.micros = rec.micros.saturating_add(micros(started.elapsed()));
        match result {
            Ok(ran) => {
                rec.executed = true;
                rec.outcome = ran.outcome;
                rec.due = ran.due;
                rec.dyn_instrs = ran.dyn_instrs;
                rec.rounds = ran.rounds;
                rec.fast_forwarded = fast_forwarded;
                rec.exit = ran.exit;
                ran.handoff
            }
            Err(payload) => {
                rec.quarantine(Some(plan), payload.as_ref());
                None
            }
        }
    }

    /// Execute `plan` and classify the run against the golden run. Pure
    /// with respect to the batch state, so a panic anywhere inside loses
    /// nothing and the trial can be replayed.
    fn execute(
        &self,
        trial: u64,
        plan: FaultPlan,
        resume: Option<Arc<EngineSnapshot>>,
        hand_off: bool,
    ) -> Ran {
        // Fast-forward: resume from a golden snapshot or a relayed state
        // at or before the fault site, and end at the first snapshot
        // point or block boundary after which the run is provably golden.
        // The skipped prefix and suffix are bit-identical to the golden
        // run, so the tally is the same either way — only the wall clock
        // changes.
        let opts = RunOptions::trial(plan)
            .ecc(self.ecc)
            .watchdog(self.watchdog)
            .resume(resume)
            .exit_through(self.exit.cloned())
            .hand_off(hand_off);
        // Sampled trials run with the engine-phase sink attached, parented
        // under the trial span the fold pushes, on the shard's track. The
        // sink only timestamps phase events, so architectural results
        // (and therefore tallies) are identical either way.
        let faulty = match self.spans.filter(|bus| bus.sample_phases(trial)) {
            Some(bus) => {
                let tid = trial / self.shard_size + 1;
                let mut sink = obs::SpanSink::new(bus, obs::keyed_id(self.key_base, trial), tid);
                self.target.execute_traced(self.device, &opts, &mut sink)
            }
            None => self.target.execute(self.device, &opts),
        };
        let (outcome, due) = match faulty.status {
            ExecStatus::Due(kind) => (Outcome::Due, Some(kind)),
            ExecStatus::Completed => {
                if self.target.output_matches(self.golden, &faulty) {
                    (Outcome::Masked, None)
                } else {
                    (Outcome::Sdc, None)
                }
            }
        };
        Ran {
            outcome,
            due,
            dyn_instrs: faulty.counts.total,
            rounds: faulty.rounds,
            exit: faulty.exit,
            handoff: faulty.handoff,
        }
    }
}

/// `d` in whole microseconds, saturating.
fn micros(d: std::time::Duration) -> u32 {
    d.as_micros().try_into().unwrap_or(u32::MAX)
}

fn export_shard_metrics(m: &MetricsRegistry, tally: &Tally, micros: u64) {
    m.counter("trials").add(tally.trials);
    add_outcomes(m, "outcome", &tally.counts);
    for (site, c) in &tally.sites {
        add_outcomes(m, &format!("site.{site}"), c);
        // Hidden-resource sites additionally roll up under the
        // `campaign.hidden.*` namespace the coverage dashboards read
        // (`campaign.hidden.scheduler.due`, `campaign.hidden.memq.sdc`,
        // ...), so hidden-site campaigns are distinguishable from
        // architectural ones at a glance.
        if let Some(class) = site.strip_prefix("hidden-") {
            add_outcomes(m, &format!("campaign.hidden.{class}"), c);
        }
    }
    for (kind, n) in &tally.dues {
        m.counter(&format!("due.{kind}")).add(*n);
    }
    if let Some(n) = tally.dues.get(DueKind::Watchdog.name()) {
        m.counter("campaign.watchdog.dyn_trips").add(*n);
    }
    if tally.retries > 0 {
        m.counter("campaign.trial_retries").add(tally.retries);
    }
    if tally.quarantined > 0 {
        m.counter("campaign.quarantined").add(tally.quarantined);
    }
    for (dlabel, c) in &tally.direct {
        add_outcomes(m, &format!("direct.{dlabel}"), c);
    }
    // Verdict strata: pruned totals per stratum, and simulated trials per
    // stratum broken down by outcome (a soundness dashboard — e.g. a
    // nonzero `campaign.verdict.store.due` would falsify the lattice).
    for (s, c) in &tally.strata_pruned {
        m.counter(&format!("campaign.pruned.{s}")).add(c.total());
    }
    for (s, c) in &tally.strata_sim {
        add_outcomes(m, &format!("campaign.verdict.{s}"), c);
    }
    m.counter("campaign.shards").inc();
    m.histogram("campaign.shard_micros").observe(micros);
    let per_sec = tally.trials.saturating_mul(1_000_000) / micros.max(1);
    m.histogram("campaign.shard_trials_per_sec").observe(per_sec);
}

/// Add `c` to the `{prefix}.{sdc,due,masked}` counters, skipping zeros.
fn add_outcomes(m: &MetricsRegistry, prefix: &str, c: &OutcomeCounts) {
    for (suffix, n) in [("sdc", c.sdc), ("due", c.due), ("masked", c.masked)] {
        if n > 0 {
            m.counter(&format!("{prefix}.{suffix}")).add(n);
        }
    }
}

fn snapshot(
    label: &str,
    budget: &Budget,
    shards_done: u32,
    tally: &Tally,
    digest: Option<u64>,
) -> Checkpoint {
    Checkpoint {
        label: label.to_string(),
        seed: budget.seed,
        shard_size: budget.shard_size,
        shards_done,
        trials: tally.trials,
        counts: tally.counts,
        direct: tally.direct.clone(),
        digest,
    }
}

/// The batches of the wave that starts at shard `first`: up to `workers`
/// of them. Among the first `certain` shards a batch runs to the next
/// multiple of [`BATCH_SHARDS`], never past `certain`; after them it is
/// one shard, so a stop boundary discards at most a wave of shards.
/// Batches depend on the shard index and the budget, never on `workers`
/// (a resumed run's first batch starts at its checkpoint).
fn wave_batches(first: u32, certain: u32, total: u32, workers: usize) -> Vec<Range<u32>> {
    let mut batches = Vec::with_capacity(workers.min(total.saturating_sub(first) as usize));
    let mut start = first;
    while batches.len() < workers && start < total {
        let end = if start < certain {
            ((start / BATCH_SHARDS + 1) * BATCH_SHARDS).min(certain)
        } else {
            start + 1
        };
        batches.push(start..end);
        start = end;
    }
    batches
}

fn eval_stop(
    counts: &OutcomeCounts,
    trials: u64,
    floor: u64,
    ceiling: u64,
    ci: Option<f64>,
) -> Option<StopReason> {
    if trials >= ceiling {
        return Some(StopReason::Ceiling);
    }
    let target = ci?;
    if trials < floor {
        return None;
    }
    let half_width = max_half_width(counts, trials);
    (half_width <= target).then_some(StopReason::CiTarget { half_width, trials })
}

/// The stop rule tracks the SDC and DUE proportions (the two quantities
/// every campaign reports); masked is their complement.
fn max_half_width(counts: &OutcomeCounts, trials: u64) -> f64 {
    wilson_half_width(counts.sdc, trials).max(wilson_half_width(counts.due, trials))
}

fn subtract(a: OutcomeCounts, b: OutcomeCounts) -> OutcomeCounts {
    OutcomeCounts {
        sdc: a.sdc.saturating_sub(b.sdc),
        due: a.due.saturating_sub(b.due),
        masked: a.masked.saturating_sub(b.masked),
    }
}

/// FNV-1a over the target name — same mix the legacy entry points used,
/// so different targets at one budget seed get uncorrelated streams.
pub(crate) fn fnv1a(name: &str) -> u64 {
    fnv1a_extend(FNV_OFFSET, name.as_bytes())
}

/// The FNV-1a offset basis: the hash of nothing.
pub(crate) const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a state `h` continued over `bytes`.
pub(crate) fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The campaign digest `h` continued over one trial record: its index,
/// outcome, DUE kind, tally label and stratum (see
/// [`CampaignRun::digest`]). Strings end in a zero byte; an absent one
/// is a lone `0xff`.
fn digest_record(h: u64, rec: &TrialRecord) -> u64 {
    let outcome = match rec.outcome {
        Outcome::Sdc => 0u8,
        Outcome::Due => 1,
        Outcome::Masked => 2,
    };
    let mut h = fnv1a_extend(h, &rec.trial.to_le_bytes());
    h = fnv1a_extend(h, &[outcome]);
    for field in [rec.due.map(DueKind::name), Some(rec.label), rec.stratum] {
        h = match field {
            Some(text) => fnv1a_extend(fnv1a_extend(h, text.as_bytes()), &[0]),
            None => fnv1a_extend(h, &[0xff]),
        };
    }
    h
}

/// SplitMix64-derived per-shard seed: adjacent shard indices map to
/// well-separated ChaCha12 key streams.
fn shard_seed(base: u64, shard: u32) -> u64 {
    let mut z = base ^ (shard as u64).wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_seeds_are_distinct() {
        let base = 0xDEADBEEF;
        let seeds: Vec<u64> = (0..64).map(|s| shard_seed(base, s)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        // And sensitive to the base seed.
        assert_ne!(shard_seed(base, 0), shard_seed(base + 1, 0));
    }

    #[test]
    fn batches_span_certain_shards_then_one_shard_each() {
        let b = BATCH_SHARDS;
        // A fixed budget: every shard is certain, batches are aligned.
        assert_eq!(wave_batches(0, 3 * b, 3 * b, 2), [0..b, b..2 * b]);
        // Resumed mid-batch: the first batch ends at the alignment.
        assert_eq!(wave_batches(1, 3 * b, 3 * b, 2), [1..b, b..2 * b]);
        // Past the floor's shard a batch is one shard.
        assert_eq!(wave_batches(0, b + 1, 3 * b, 4), [0..b, b..b + 1, b + 1..b + 2, b + 2..b + 3]);
        let last = wave_batches(3 * b - 1, b, 3 * b, 4);
        assert_eq!((last.len(), last[0].clone()), (1, 3 * b - 1..3 * b));
    }

    #[test]
    fn stop_rule_honors_floor_ceiling_and_target() {
        let skewed = OutcomeCounts { sdc: 2, due: 1, masked: 197 };
        // Below the floor: never stops even if the CI is tight.
        assert_eq!(eval_stop(&skewed, 200, 400, 1000, Some(0.5)), None);
        // Past the floor with a met target: CI stop.
        match eval_stop(&skewed, 200, 100, 1000, Some(0.05)) {
            Some(StopReason::CiTarget { half_width, trials }) => {
                assert!(half_width <= 0.05);
                assert_eq!(trials, 200);
            }
            other => panic!("expected CI stop, got {other:?}"),
        }
        // Unmet target: keep going.
        assert_eq!(eval_stop(&skewed, 200, 100, 1000, Some(0.001)), None);
        // Ceiling always wins.
        assert_eq!(eval_stop(&skewed, 1000, 100, 1000, None), Some(StopReason::Ceiling));
        // Fixed budgets only stop at the ceiling.
        assert_eq!(eval_stop(&skewed, 200, 100, 1000, None), None);
    }
}
