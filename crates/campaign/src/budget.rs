//! Campaign sizing: trial floor/ceiling, the CI-targeted stop rule, the
//! seed, the shard size that fixes the deterministic RNG partition, and
//! the per-trial watchdog budgets.

use std::time::Duration;

/// Per-trial watchdog budgets: how long a faulty run may execute before
/// the harness declares it hung.
///
/// The paper's beam setup layers two recovery mechanisms (Section III-A):
/// an application-level timeout that kills a hung kernel, and a host
/// watchdog that power-cycles a machine the timeout cannot save. The
/// simulator mirrors that layering:
///
/// * the **dynamic-instruction bound** — `dyn_factor * golden_total +
///   dyn_slack` — catches faults that keep the program counter moving
///   (corrupted loop bounds, branch targets); it is deterministic, so it
///   is always armed and is part of the tally contract;
/// * the optional **wall-clock bound** ([`Watchdog::wall_budget`]) backs
///   it up in real time, reaping trials whose simulation is slow for
///   host-side reasons the instruction count cannot see. A trial that
///   trips it is tallied as [`gpu_sim::DueKind::HostWatchdog`]. Because a
///   wall-clock trip depends on machine speed, arming it trades strict
///   tally determinism for bounded campaign tail latency — leave it
///   `None` (the default) when bit-identical reproduction matters more
///   than runtime.
#[derive(Clone, Debug, PartialEq)]
pub struct Watchdog {
    /// Dynamic-instruction budget as a multiple of the golden run's
    /// dynamic instruction count.
    pub dyn_factor: u64,
    /// Additive slack on top of `dyn_factor * golden_total`, so that even
    /// tiny kernels get headroom for fault-lengthened execution.
    pub dyn_slack: u64,
    /// Optional per-trial wall-clock budget; `None` disarms the
    /// wall-clock watchdog.
    pub wall_budget: Option<Duration>,
}

impl Watchdog {
    /// The dynamic-instruction limit for a golden run of `golden_total`
    /// instructions (saturating).
    pub fn dyn_limit(&self, golden_total: u64) -> u64 {
        self.dyn_factor.saturating_mul(golden_total).saturating_add(self.dyn_slack)
    }
}

impl Default for Watchdog {
    /// The historical formula: four times the golden dynamic instruction
    /// count plus 100k slack, no wall-clock bound.
    fn default() -> Self {
        Watchdog { dyn_factor: 4, dyn_slack: 100_000, wall_budget: None }
    }
}

/// When the golden run captures engine snapshots for trial fast-forward.
///
/// Snapshots let each injection trial resume from the last golden
/// checkpoint at or before its fault site instead of re-executing the
/// fault-free prefix from instruction zero (DESIGN.md §16). The policy
/// only changes *where trials start*, never what they compute: tallies,
/// site records and golden digests are bit-identical under every variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SnapshotPolicy {
    /// Never capture; every trial replays from instruction zero.
    Off,
    /// Capture every [`SnapshotPolicy::AUTO_STRIDE`] dynamic instructions
    /// (the default): dense enough to skip most of a long golden prefix,
    /// sparse enough that capture cost is noise on tiny kernels.
    #[default]
    Auto,
    /// Capture every `n` dynamic instructions; `0` behaves like `Off`.
    Every(u64),
}

impl SnapshotPolicy {
    /// The capture stride [`SnapshotPolicy::Auto`] uses.
    pub const AUTO_STRIDE: u64 = 4096;

    /// The [`gpu_sim::RunOptions::snapshot_stride`] this policy requests
    /// (`0` disables capture).
    pub fn stride(self) -> u64 {
        match self {
            SnapshotPolicy::Off => 0,
            SnapshotPolicy::Auto => Self::AUTO_STRIDE,
            SnapshotPolicy::Every(n) => n,
        }
    }
}

/// How many trials a campaign runs and when it may stop early.
///
/// A budget fixes the *shape* of a campaign:
///
/// * at least [`Budget::floor`] trials always run;
/// * at most [`Budget::ceiling`] trials ever run;
/// * when [`Budget::ci_half_width`] is set, the campaign stops at the
///   first shard boundary (at or past the floor) where the Wilson 95%
///   confidence interval of **every** tracked outcome fraction (SDC and
///   DUE) has a half-width at or below the target — the paper's "95%
///   confidence intervals lower than 5%" discipline (Section III-D),
///   applied adaptively instead of over-sampling easy targets;
/// * [`Budget::seed`] and [`Budget::shard_size`] together define the
///   deterministic RNG partition: trial `i` belongs to shard
///   `i / shard_size`, and each shard owns an independent ChaCha12 stream
///   keyed by `(seed, target, shard index)`. Results are therefore
///   bit-identical at any worker count — but `shard_size` is part of the
///   seed contract: changing it changes the draws.
#[derive(Clone, Debug, PartialEq)]
pub struct Budget {
    /// Minimum trials before the stop rule may fire.
    pub floor: u32,
    /// Maximum trials; the campaign always stops here.
    pub ceiling: u32,
    /// Wilson 95% CI half-width target for early stopping; `None` runs
    /// the full ceiling (a fixed budget).
    pub ci_half_width: Option<f64>,
    /// Base RNG seed (mixed with the target name and shard index).
    pub seed: u64,
    /// Trials per shard — the early-stop granularity and the unit of
    /// checkpoint/resume.
    pub shard_size: u32,
    /// Per-trial hang detection; see [`Watchdog`].
    pub watchdog: Watchdog,
    /// Golden-snapshot capture for trial fast-forward; see
    /// [`SnapshotPolicy`]. Tallies are identical under every policy.
    pub snapshots: SnapshotPolicy,
}

impl Budget {
    /// Default shard size: small enough that early stopping is responsive,
    /// large enough that per-shard overhead is negligible.
    pub const DEFAULT_SHARD_SIZE: u32 = 32;

    /// A fixed budget: exactly `trials` trials, no early stopping.
    pub fn fixed(trials: u32) -> Self {
        Budget {
            floor: trials,
            ceiling: trials,
            ci_half_width: None,
            seed: 0x5EED,
            shard_size: Self::DEFAULT_SHARD_SIZE,
            watchdog: Watchdog::default(),
            snapshots: SnapshotPolicy::default(),
        }
    }

    /// An adaptive budget: run at least `floor` and at most `ceiling`
    /// trials, stopping once every tracked Wilson 95% CI half-width is at
    /// or below `ci_half_width`.
    pub fn adaptive(floor: u32, ceiling: u32, ci_half_width: f64) -> Self {
        Budget {
            floor,
            ceiling,
            ci_half_width: Some(ci_half_width),
            seed: 0x5EED,
            shard_size: Self::DEFAULT_SHARD_SIZE,
            watchdog: Watchdog::default(),
            snapshots: SnapshotPolicy::default(),
        }
    }

    /// The laptop-scale preset: up to 400 trials (which bounds the Wilson
    /// 95% half-width by ~0.049 even at the worst-case fraction 0.5), with
    /// early stopping at half-width 0.05 — skewed targets finish well
    /// under the ceiling at the same confidence.
    pub fn quick() -> Self {
        Budget { seed: 2021, ..Budget::adaptive(100, 400, 0.05) }
    }

    /// The paper-scale preset: >= 1,000 and up to 4,000 trials per code
    /// (Section III-D), stopping early at half-width 0.025 ("95%
    /// confidence intervals lower than 5%" means a width of 0.05).
    pub fn full() -> Self {
        Budget { seed: 2021, ..Budget::adaptive(1000, 4000, 0.025) }
    }

    /// Replace the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the shard size (part of the determinism contract).
    pub fn shard_size(mut self, trials: u32) -> Self {
        self.shard_size = trials.max(1);
        self
    }

    /// Replace the watchdog configuration.
    pub fn watchdog(mut self, watchdog: Watchdog) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Replace the snapshot policy (trial fast-forward).
    pub fn snapshots(mut self, policy: SnapshotPolicy) -> Self {
        self.snapshots = policy;
        self
    }

    /// Arm the per-trial wall-clock watchdog (see
    /// [`Watchdog::wall_budget`] for the determinism trade-off).
    pub fn wall_budget(mut self, budget: Duration) -> Self {
        self.watchdog.wall_budget = Some(budget);
        self
    }

    /// Replace the CI half-width target.
    pub fn ci_target(mut self, half_width: f64) -> Self {
        self.ci_half_width = Some(half_width);
        self
    }

    /// Drop the CI target: run the full ceiling.
    pub fn exhaustive(mut self) -> Self {
        self.ci_half_width = None;
        self
    }

    /// Multiply floor and ceiling by `factor` (saturating).
    pub fn scaled(mut self, factor: u32) -> Self {
        self.floor = self.floor.saturating_mul(factor);
        self.ceiling = self.ceiling.saturating_mul(factor);
        self
    }

    /// The ceiling with degenerate inputs clamped: at least one trial,
    /// and never below the floor.
    pub(crate) fn effective_ceiling(&self) -> u32 {
        self.ceiling.max(self.floor).max(1)
    }

    /// The floor clamped into `1..=ceiling`.
    pub(crate) fn effective_floor(&self) -> u32 {
        self.floor.clamp(1, self.effective_ceiling())
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::quick()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn fixed_budget_has_no_stop_rule() {
        let b = Budget::fixed(250);
        assert_eq!(b.floor, 250);
        assert_eq!(b.ceiling, 250);
        assert_eq!(b.ci_half_width, None);
    }

    #[test]
    fn presets_are_ordered() {
        let q = Budget::quick();
        let f = Budget::full();
        assert!(q.ceiling < f.ceiling);
        assert!(q.ci_half_width.unwrap() > f.ci_half_width.unwrap());
        assert_eq!(q.seed, f.seed);
    }

    #[test]
    fn builder_chain() {
        let b = Budget::fixed(100).seed(7).shard_size(16).ci_target(0.01);
        assert_eq!(b.seed, 7);
        assert_eq!(b.shard_size, 16);
        assert_eq!(b.ci_half_width, Some(0.01));
        assert_eq!(b.exhaustive().ci_half_width, None);
    }

    #[test]
    fn degenerate_budgets_are_clamped() {
        let b = Budget {
            floor: 10,
            ceiling: 4,
            ci_half_width: None,
            seed: 0,
            shard_size: 8,
            watchdog: Watchdog::default(),
            snapshots: SnapshotPolicy::default(),
        };
        assert_eq!(b.effective_ceiling(), 10);
        assert_eq!(b.effective_floor(), 10);
        let z = Budget::fixed(0);
        assert_eq!(z.effective_ceiling(), 1);
        assert_eq!(z.effective_floor(), 1);
        assert_eq!(Budget::fixed(5).shard_size(0).shard_size, 1);
    }

    #[test]
    fn snapshot_policy_maps_to_strides() {
        assert_eq!(SnapshotPolicy::Off.stride(), 0);
        assert_eq!(SnapshotPolicy::Auto.stride(), SnapshotPolicy::AUTO_STRIDE);
        assert_eq!(SnapshotPolicy::Every(512).stride(), 512);
        assert_eq!(SnapshotPolicy::Every(0).stride(), 0);
        assert_eq!(Budget::fixed(10).snapshots, SnapshotPolicy::Auto);
        let off = Budget::fixed(10).snapshots(SnapshotPolicy::Off);
        assert_eq!(off.snapshots, SnapshotPolicy::Off);
    }

    #[test]
    fn scaled_multiplies_both_bounds() {
        let b = Budget::adaptive(10, 40, 0.05).scaled(10);
        assert_eq!((b.floor, b.ceiling), (100, 400));
    }

    #[test]
    fn watchdog_dyn_limit_matches_formula_and_saturates() {
        let w = Watchdog::default();
        assert_eq!(w.dyn_limit(1000), 4 * 1000 + 100_000);
        assert_eq!(w.dyn_limit(u64::MAX), u64::MAX);
        assert_eq!(Watchdog::default().wall_budget, None);
        let armed = Budget::fixed(10).wall_budget(Duration::from_millis(50));
        assert_eq!(armed.watchdog.wall_budget, Some(Duration::from_millis(50)));
    }
}
