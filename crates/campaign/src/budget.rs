//! Campaign sizing: trial floor/ceiling, the CI-targeted stop rule, the
//! seed, the shard size that fixes the deterministic RNG partition, and
//! the per-trial hang bound.

/// The dynamic-instruction bound past which a trial counts as hung: four
/// times the golden run's `golden_total` dynamic instructions plus 100k
/// slack, so even tiny kernels get headroom for fault-lengthened
/// execution (saturating).
///
/// This is the simulator's analogue of the paper's application-level
/// timeout (Section III-A). It counts instructions, not seconds, so a
/// hung trial ends as [`gpu_sim::DueKind::Watchdog`] at the same
/// instruction on every host and the tally stays a pure function of the
/// seed and the spec.
pub(crate) fn watchdog_limit(golden_total: u64) -> u64 {
    golden_total.saturating_mul(4).saturating_add(100_000)
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

    /// Replace the snapshot policy (trial fast-forward).
    pub fn snapshots(mut self, policy: SnapshotPolicy) -> Self {
        self.snapshots = policy;
        self
    }

    /// Drop the CI target: run the full ceiling.
    pub fn exhaustive(mut self) -> Self {
        self.ci_half_width = None;
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
        let b = Budget::adaptive(100, 400, 0.01).seed(7).shard_size(16);
        assert_eq!(b.seed, 7);
        assert_eq!(b.shard_size, 16);
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
        assert_eq!(Budget::fixed(10).snapshots, SnapshotPolicy::Auto);
        let off = Budget::fixed(10).snapshots(SnapshotPolicy::Off);
        assert_eq!(off.snapshots, SnapshotPolicy::Off);
    }

    #[test]
    fn watchdog_dyn_limit_matches_formula_and_saturates() {
        assert_eq!(watchdog_limit(1000), 4 * 1000 + 100_000);
        assert_eq!(watchdog_limit(u64::MAX), u64::MAX);
    }
}
