//! Engine snapshots: the golden run's architectural state at periodic
//! dynamic-instruction barriers, so injection trials can fast-forward
//! past their fault-free prefix (DESIGN.md §16).
//!
//! A snapshot captures everything the engine's state is a function of at
//! a block-scheduler round boundary: the register file and predicates of
//! every thread of the resident block, the block's shared memory, global
//! memory (including latent ECC corruption — the scrub position), the
//! dynamic-instruction counter, the accumulated [`Counts`], and the
//! per-site-class match tallies the fault hooks count against. Resuming
//! from a snapshot ([`crate::RunOptions::resume_from`]) reproduces the
//! from-zero execution bit-for-bit **provided the fault site does not
//! precede the snapshot** — which [`nearest`] guarantees by selecting the
//! latest snapshot at or before the plan's trigger point.
//!
//! The parity argument: before a trial's fault fires, the trial executes
//! exactly the golden instruction stream (a single [`FaultPlan`] has no
//! architectural effect until its trigger), so the golden run's state at
//! any earlier round boundary *is* the trial's state at that boundary.

use crate::engine::{Counts, ThreadState};
use crate::fault::FaultPlan;
use crate::memory::{GlobalMemory, SharedMemory};
use gpu_arch::{FunctionalUnit, InstrMeta, SiteClass};
use std::sync::Arc;

/// Maximum snapshots captured per run. When a capture would exceed the
/// cap, every other existing snapshot is dropped and the stride doubles —
/// memory stays bounded for arbitrarily long kernels while the snapshot
/// spacing degrades gracefully (geometric, not cliff-edge).
pub const SNAPSHOT_CAP: usize = 32;

/// The injectable site classes with positional (`nth`-indexed) fault
/// plans, in the order [`ClassTallies::base`] is indexed.
const BASE_CLASSES: [SiteClass; 6] = [
    SiteClass::GprWriter,
    SiteClass::GprWriterNoHalf,
    SiteClass::FloatArith,
    SiteClass::HalfArith,
    SiteClass::IntArith,
    SiteClass::Load,
];

/// Running populations of every fault-hook enumeration: how many
/// guard-passing GPR-writer instructions of each [`SiteClass`] have
/// reached the output-fault hook so far. These mirror the engine's
/// `site_matches` counter *per class* (and per functional unit, for
/// [`SiteClass::Unit`] plans), so a resumed trial can seed its match
/// counter with the exact number of matches the skipped prefix consumed.
///
/// Note this is **not** [`crate::SiteCounts`]: warp-level MMA ticks the
/// `GprWriterNoHalf` match counter (an `FMMA` is a no-half writer) but
/// not the `gpr_writers_no_half` population, so the tallies are counted
/// at the fault-hook call sites themselves.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct ClassTallies {
    /// Matches per positional class, indexed like `BASE_CLASSES`.
    pub(crate) base: [u64; 6],
    /// Guard-passing GPR writers per functional unit (the
    /// [`SiteClass::Unit`] populations).
    pub(crate) unit_writers: [u64; FunctionalUnit::COUNT],
}

impl ClassTallies {
    /// Account one instruction that reached the output-fault hook.
    #[inline]
    pub(crate) fn note(&mut self, meta: &InstrMeta) {
        for (slot, class) in self.base.iter_mut().zip(BASE_CLASSES) {
            if meta.in_class(class) {
                *slot += 1;
            }
        }
        self.unit_writers[meta.unit_index as usize] += 1;
    }

    /// Matches of `site` consumed so far.
    pub(crate) fn class_matches(&self, site: SiteClass) -> u64 {
        match site {
            SiteClass::GprWriter => self.base[0],
            SiteClass::GprWriterNoHalf => self.base[1],
            SiteClass::FloatArith => self.base[2],
            SiteClass::HalfArith => self.base[3],
            SiteClass::IntArith => self.base[4],
            SiteClass::Load => self.base[5],
            SiteClass::Unit(u) => self.unit_writers[u.index()],
        }
    }
}

/// The engine's architectural state at one block-round boundary of a run,
/// sufficient to resume execution from that point (see the module doc for
/// the parity argument). Captured by [`crate::RunOptions::snapshot_stride`],
/// consumed by [`crate::RunOptions::resume_from`].
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    /// Global dynamic-instruction counter at the capture point.
    pub(crate) dyn_count: u64,
    /// Accumulated execution statistics.
    pub(crate) counts: Counts,
    /// Fault-hook match tallies (see [`ClassTallies`]).
    pub(crate) tallies: ClassTallies,
    /// Global memory, including latent ECC corruption (the scrub state).
    pub(crate) global: GlobalMemory,
    /// Linear index of the block that was executing.
    pub(crate) block: u32,
    /// Per-thread register files, predicates, pcs and scheduler states of
    /// the resident block.
    pub(crate) threads: Vec<ThreadState>,
    /// The resident block's shared memory.
    pub(crate) shared: SharedMemory,
    /// Geometry fingerprint: kernel length, grid and block dimensions.
    /// Resume refuses a snapshot whose fingerprint does not match.
    pub(crate) kernel_len: u32,
    pub(crate) grid: (u32, u32),
    pub(crate) block_dim: (u32, u32),
}

impl EngineSnapshot {
    /// The global dynamic-instruction counter at the capture point — how
    /// many instructions a trial resumed from this snapshot skips.
    pub fn dyn_count(&self) -> u64 {
        self.dyn_count
    }

    /// True when `plan`'s trigger point lies at or after this snapshot,
    /// i.e. resuming from here cannot skip the fault site.
    ///
    /// Positional plans (`nth`-indexed) compare against the class match
    /// tally; timed plans (`at`-indexed) compare against the dynamic
    /// counter. [`FaultPlan::None`] has no site and never fast-forwards.
    ///
    /// Hidden-resource plans (scheduler, active mask, barrier, memory
    /// queue, fetch) follow the same rule: their corruption — including
    /// the stuck-at persistence mode, whose perturbation *begins* at the
    /// trigger and never ends — touches no state before the trigger
    /// point, so a snapshot at or before it is sound, and one past it
    /// would fast-forward over state the fault should have perturbed
    /// (the engine hard-errors that resume as a
    /// [`crate::SimError::ResumeConflict`]).
    pub fn precedes(&self, plan: &FaultPlan) -> bool {
        match *plan {
            FaultPlan::None => false,
            FaultPlan::InstructionOutput { nth, site, .. }
            | FaultPlan::InstructionOutputSet { nth, site, .. } => {
                self.tallies.class_matches(site) <= nth
            }
            FaultPlan::MemAddress { nth, .. } | FaultPlan::MemQueue { nth, .. } => {
                self.counts.sites.mem_ops <= nth
            }
            FaultPlan::PredicateOutput { nth } => self.counts.sites.setp <= nth,
            FaultPlan::Pc { at, .. }
            | FaultPlan::RegisterBit { at, .. }
            | FaultPlan::GlobalMemBit { at, .. }
            | FaultPlan::SharedMemBit { at, .. }
            | FaultPlan::SchedulerNextPc { at, .. }
            | FaultPlan::SchedulerPriority { at, .. }
            | FaultPlan::ActiveMask { at, .. }
            | FaultPlan::BarrierCounter { at, .. }
            | FaultPlan::Fetch { at, .. } => self.dyn_count <= at,
        }
    }

    /// Approximate in-memory footprint in bytes (dominated by the memory
    /// images and register files). Used for cache size reporting.
    pub fn approx_bytes(&self) -> u64 {
        let fixed = 256u64;
        let counts = (self.counts.warp_latency.len() + self.counts.warp_instrs.len()) as u64 * 8;
        let global = self.global.len() as u64;
        let shared = self.shared.len() as u64;
        let threads: u64 = self.threads.iter().map(|t| t.regs.len() as u64 * 4 + 8).sum();
        fixed + counts + global + shared + threads
    }

    /// Check that this snapshot was captured under the same geometry the
    /// caller is about to run.
    pub(crate) fn check_geometry(
        &self,
        kernel_len: usize,
        grid: (u32, u32),
        block_dim: (u32, u32),
        memory_len: u32,
    ) -> Result<(), String> {
        if self.kernel_len as usize != kernel_len {
            return Err(format!(
                "snapshot kernel length {} != launch kernel length {kernel_len}",
                self.kernel_len
            ));
        }
        if self.grid != grid || self.block_dim != block_dim {
            return Err(format!(
                "snapshot geometry grid {:?} block {:?} != launch grid {grid:?} block {block_dim:?}",
                self.grid, self.block_dim
            ));
        }
        if self.global.len() != memory_len {
            return Err(format!(
                "snapshot memory size {} != launch memory size {memory_len}",
                self.global.len()
            ));
        }
        Ok(())
    }
}

/// The latest snapshot whose capture point lies at or before `plan`'s
/// trigger — the one that skips the most prefix without skipping the
/// fault site. `None` when the plan is golden, the list is empty, or the
/// fault fires before the first snapshot.
pub fn nearest_snapshot<'a>(
    snapshots: &'a [Arc<EngineSnapshot>],
    plan: &FaultPlan,
) -> Option<&'a Arc<EngineSnapshot>> {
    // Capture order is dyn-count order and every trigger counter is
    // nondecreasing along the run, so the latest qualifying snapshot is
    // the first match scanning backwards.
    snapshots.iter().rev().find(|s| s.precedes(plan))
}
