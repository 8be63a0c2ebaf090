//! Fault tolerance of the campaign engine itself: supervised trials
//! (retry → quarantine), the dynamic-instruction watchdog, and resuming a
//! finished campaign through the crash-consistent checkpoint store.
//! Kill-and-resume equivalence is a column of bench's determinism matrix
//! (`digest_matrix_is_one_invariant` in `crates/bench/tests/telemetry.rs`).

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely

use campaign::{
    Budget, Campaign, CampaignRun, CheckpointStore, Kind, Sampler, TrialPlan, QUARANTINE_LABEL,
};
use gpu_arch::{asm, DeviceModel, Kernel, LaunchConfig};
use gpu_sim::{BitFlip, DueKind, Executed, FaultPlan, GlobalMemory, RunOptions, SiteClass, Target};
use obs::{CampaignObserver, MetricsRegistry};
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use stats::Outcome;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// The sentinel fault plan the chaos target panics on: a PC fault at an
/// address no real sampler would draw.
const CHAOS_AT: u64 = 0xDEAD_BEEF;

fn chaos_plan() -> FaultPlan {
    FaultPlan::Pc { at: CHAOS_AT, flip: BitFlip::single(0) }
}

/// A target that wraps a real micro-benchmark but panics when executed
/// with the sentinel plan — the software double of a trial that crashes
/// the harness. `panics_left` bounds how often it panics, so the same
/// fixture covers both retry-succeeds and quarantine.
struct ChaosTarget<T> {
    inner: T,
    panics_left: AtomicU32,
}

impl<T: Target + Sync> ChaosTarget<T> {
    fn new(inner: T, panics: u32) -> Self {
        ChaosTarget { inner, panics_left: AtomicU32::new(panics) }
    }
}

impl<T: Target + Sync> Target for ChaosTarget<T> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn kernel(&self) -> &Kernel {
        self.inner.kernel()
    }
    fn launch(&self) -> &LaunchConfig {
        self.inner.launch()
    }
    fn fresh_memory(&self) -> GlobalMemory {
        self.inner.fresh_memory()
    }
    fn output_matches(&self, golden: &Executed, faulty: &Executed) -> bool {
        self.inner.output_matches(golden, faulty)
    }
    fn execute(&self, device: &DeviceModel, opts: &RunOptions) -> Executed {
        if matches!(opts.fault, FaultPlan::Pc { at, .. } if at == CHAOS_AT)
            && self
                .panics_left
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
        {
            panic!("chaos: injected harness fault");
        }
        self.inner.execute(device, opts)
    }
}

/// A kind that resolves every trial directly except `chaos_trial`, which
/// executes the sentinel plan against the (chaos) target.
#[derive(Clone, Copy)]
struct ChaosKind {
    chaos_trial: u64,
}

struct ChaosSampler {
    chaos_trial: u64,
}

impl Sampler for ChaosSampler {
    fn sample(&self, trial: u64, rng: &mut ChaCha12Rng) -> TrialPlan {
        let roll: f64 = rng.gen();
        if trial == self.chaos_trial {
            return TrialPlan::Fault(chaos_plan());
        }
        let outcome = if roll < 0.25 { Outcome::Sdc } else { Outcome::Masked };
        TrialPlan::Direct { outcome, due: None, label: "calm" }
    }
}

impl<T: Target + Sync + ?Sized> Kind<T> for ChaosKind {
    type Sampler = ChaosSampler;
    type Output = ();

    fn label(&self) -> String {
        "chaos".to_string()
    }
    fn ecc(&self) -> bool {
        false
    }
    fn prepare(&self, _: &T, _: &DeviceModel, _: &Arc<Executed>) -> ChaosSampler {
        ChaosSampler { chaos_trial: self.chaos_trial }
    }
    fn finish(&self, _: &T, _: &ChaosSampler, _: &CampaignRun) {}
}

fn chaos_run(panics: u32, workers: usize) -> CampaignRun {
    let device = DeviceModel::named("k40c-sim");
    let target = ChaosTarget::new(microbench::arith(gpu_arch::FunctionalUnit::Iadd), panics);
    Campaign::new(ChaosKind { chaos_trial: 37 }, &target, &device)
        .budget(Budget::fixed(96).seed(11).shard_size(16))
        .workers(workers)
        .run_full()
        .expect("supervised campaign must survive panicking trials")
        .1
}

#[test]
fn panicking_trial_is_retried_once_then_succeeds() {
    let run = chaos_run(1, 1);
    assert_eq!(run.retries, 1, "one panic must mean one retry");
    assert!(run.quarantine.is_empty(), "a retried-and-recovered trial is not quarantined");
    assert_eq!(run.counts.total(), 96);
    assert!(!run.direct.contains_key(QUARANTINE_LABEL));
}

#[test]
fn twice_panicking_trial_is_quarantined_and_campaign_continues() {
    let run = chaos_run(u32::MAX, 1);
    assert_eq!(run.retries, 1);
    assert_eq!(run.quarantine.len(), 1);
    let rec = &run.quarantine[0];
    assert_eq!(rec.trial, 37);
    assert_eq!(rec.shard, 37 / 16);
    assert_eq!(rec.plan, Some(chaos_plan()), "the in-flight FaultPlan must be recoverable");
    assert!(rec.panic.contains("chaos"), "panic payload lost: {:?}", rec.panic);
    assert_eq!(rec.label, run.label);
    // The quarantined trial is tallied as a DUE under the dedicated
    // direct label, and every other trial still ran.
    assert_eq!(run.counts.total(), 96);
    assert_eq!(run.direct[QUARANTINE_LABEL].due, 1);
}

#[test]
fn quarantine_tallies_are_identical_at_any_worker_count() {
    let serial = chaos_run(u32::MAX, 1);
    for workers in [2, 3, 5] {
        let parallel = chaos_run(u32::MAX, workers);
        assert_eq!(serial.counts, parallel.counts, "workers={workers}");
        assert_eq!(serial.direct, parallel.direct, "workers={workers}");
        assert_eq!(serial.quarantine, parallel.quarantine, "workers={workers}");
    }
}

// ---------------------------------------------------------------------
// Resume through the durable store.

/// Bernoulli-style kind (no simulation) for cheap many-trial campaigns.
#[derive(Clone, Copy)]
struct Coin;

struct CoinSampler;

impl Sampler for CoinSampler {
    fn sample(&self, _trial: u64, rng: &mut ChaCha12Rng) -> TrialPlan {
        let roll: f64 = rng.gen();
        let outcome = if roll < 0.2 {
            Outcome::Sdc
        } else if roll < 0.35 {
            Outcome::Due
        } else {
            Outcome::Masked
        };
        TrialPlan::Direct { outcome, due: None, label: "coin" }
    }
}

impl<T: Target + Sync + ?Sized> Kind<T> for Coin {
    type Sampler = CoinSampler;
    type Output = ();

    fn label(&self) -> String {
        "coin".to_string()
    }
    fn ecc(&self) -> bool {
        true
    }
    fn prepare(&self, _: &T, _: &DeviceModel, _: &Arc<Executed>) -> CoinSampler {
        CoinSampler
    }
    fn finish(&self, _: &T, _: &CoinSampler, _: &CampaignRun) {}
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("campaign-resilience-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn store_resume_is_a_noop_on_a_finished_campaign() {
    let device = DeviceModel::named("k40c-sim");
    let target = microbench::arith(gpu_arch::FunctionalUnit::Iadd);
    let budget = Budget::fixed(96).seed(5).shard_size(32);
    let dir = scratch_dir("noop");
    let mut store = CheckpointStore::open(&dir).expect("open store");

    let first = Campaign::new(Coin, &target, &device)
        .budget(budget.clone())
        .store(&mut store)
        .run_full()
        .expect("first run")
        .1;
    let second = Campaign::new(Coin, &target, &device)
        .budget(budget)
        .store(&mut store)
        .run_full()
        .expect("second run")
        .1;
    assert_eq!(second.counts, first.counts);
    assert_eq!(second.resumed_trials, second.trials, "everything must come from the store");

    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Hang bound.

/// A kernel that completes instantly fault-free but spins forever when
/// the first MOV's output is corrupted: the loop re-tests R1, which no
/// instruction ever writes again.
const SPIN: &str = r#"
.kernel spin
    MOV R1, 0
loop:
    ISETP.NE P0, R1, 0
    @P0 BRA loop
    EXIT
"#;

struct SpinTarget {
    kernel: Kernel,
    launch: LaunchConfig,
}

impl SpinTarget {
    fn new() -> Self {
        SpinTarget {
            kernel: asm::assemble(SPIN).expect("spin kernel assembles"),
            launch: LaunchConfig::new(1, 32, vec![]),
        }
    }
}

impl Target for SpinTarget {
    fn name(&self) -> &str {
        "SPIN"
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
    fn output_matches(&self, _: &Executed, _: &Executed) -> bool {
        true
    }
}

/// Every trial injects the loop-forever fault.
#[derive(Clone, Copy)]
struct SpinKind;

struct SpinSampler;

impl Sampler for SpinSampler {
    fn sample(&self, _trial: u64, _rng: &mut ChaCha12Rng) -> TrialPlan {
        TrialPlan::Fault(FaultPlan::InstructionOutput {
            nth: 0,
            site: SiteClass::GprWriter,
            flip: BitFlip::single(0),
        })
    }
}

impl<T: Target + Sync + ?Sized> Kind<T> for SpinKind {
    type Sampler = SpinSampler;
    type Output = ();

    fn label(&self) -> String {
        "spin".to_string()
    }
    fn ecc(&self) -> bool {
        false
    }
    fn prepare(&self, _: &T, _: &DeviceModel, _: &Arc<Executed>) -> SpinSampler {
        SpinSampler
    }
    fn finish(&self, _: &T, _: &SpinSampler, _: &CampaignRun) {}
}

/// The spin fault hangs the trial, and the one hang bound ends it as a
/// watchdog DUE after exactly `4 × golden + 100_000` instructions plus
/// the one that trips it, on every host.
#[test]
fn spin_kernel_trips_the_dyn_watchdog() {
    let device = DeviceModel::named("k40c-sim");
    let target = SpinTarget::new();
    let metrics = MetricsRegistry::new();
    let run = Campaign::new(SpinKind, &target, &device)
        .budget(Budget::fixed(1).seed(1))
        .observer(CampaignObserver::with_metrics(&metrics))
        .run_full()
        .expect("dyn-watchdogged campaign")
        .1;
    assert_eq!(run.counts.due, 1);
    let snapshot = metrics.snapshot();
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    assert_eq!(
        counter(&format!("due.{}", DueKind::Watchdog.name())),
        1,
        "counters: {:?}",
        snapshot.counters
    );
    assert_eq!(counter("campaign.watchdog.dyn_trips"), 1);
    let retired = snapshot.histograms.get("campaign.trial_dyn_instrs").expect("dyn histogram");
    assert_eq!(retired.count, 1);
    assert_eq!(retired.sum, 4 * run.golden.counts.total + 100_000 + 1);
}
