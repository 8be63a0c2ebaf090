//! The one way to start a campaign on someone else's behalf.
//!
//! Library helpers that need several campaigns (unit characterization,
//! per-class breakdowns) take a [`Runner`] instead of building each
//! [`Campaign`] themselves, so the caller decides how campaigns run:
//! [`DirectRunner`] just runs them, while the experiment harness
//! observes, checkpoints and memoizes every campaign under its label.

use std::fmt::Debug;

use gpu_arch::DeviceModel;
use gpu_sim::Target;

use crate::{Budget, Campaign, CampaignError, Kind};

/// Runs campaigns for code that only needs their results.
pub trait Runner {
    /// Run one campaign of `kind` on `target` and `device` under
    /// `budget`, known to the runner as `label` (e.g.
    /// `units/Tesla V100 (1-SM sim)/FADD/beam`).
    ///
    /// The kind's `Debug` text and the output's `Clone` let a runner
    /// recognize a campaign it has already run and hand back a copy of
    /// its result.
    ///
    /// # Errors
    /// Whatever the campaign itself fails with (see [`Campaign::run`]).
    fn run<T, K>(
        &mut self,
        label: &str,
        kind: K,
        target: &T,
        device: &DeviceModel,
        budget: &Budget,
    ) -> Result<K::Output, CampaignError>
    where
        T: Target + Sync + ?Sized,
        K: Kind<T> + Debug,
        K::Output: Clone + 'static;
}

/// The runner that builds and runs each campaign and does nothing else:
/// no observer, no checkpoint store, no memo. The label is unused.
#[derive(Clone, Copy, Debug, Default)]
pub struct DirectRunner;

impl Runner for DirectRunner {
    fn run<T, K>(
        &mut self,
        _label: &str,
        kind: K,
        target: &T,
        device: &DeviceModel,
        budget: &Budget,
    ) -> Result<K::Output, CampaignError>
    where
        T: Target + Sync + ?Sized,
        K: Kind<T> + Debug,
        K::Output: Clone + 'static,
    {
        Campaign::new(kind, target, device).budget(budget.clone()).run()
    }
}
