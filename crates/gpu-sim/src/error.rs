//! Typed simulator errors.
//!
//! The execution engine reports *device* failures as [`crate::DueKind`]s —
//! those are experiment outcomes, not errors. [`SimError`] covers the
//! remaining failure modes of the simulator as a library: malformed
//! launches, options a run cannot honour, and host-side accesses outside
//! an allocation. A kernel cannot fail validation here: every
//! [`gpu_arch::Kernel`] was validated when it was built. Campaign
//! harnesses treat these as values instead of aborting, which is what
//! lets a fleet-scale campaign outlive a bad trial.

use crate::memory::MemoryError;
use std::fmt;

/// A simulator-level (non-outcome) failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The launch configuration has zero threads.
    EmptyLaunch,
    /// A host-side typed access fell outside the allocation.
    HostAccess(MemoryError),
    /// A [`crate::RunOptions::resume_from`] snapshot cannot seed this run:
    /// it was captured under a different kernel/launch/memory geometry,
    /// the options combine resuming with snapshot capture or site
    /// recording, or the fault plan's site precedes the snapshot (the
    /// fault would have fired inside the skipped prefix).
    ResumeConflict(String),
    /// The kernel contains a warp-wide MMA but the block's thread count
    /// is not a whole number of warps, so its last warp cannot hold the
    /// full matrix fragments.
    PartialWarpMma {
        /// Threads per block in the rejected launch.
        block_threads: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptyLaunch => write!(f, "launch has zero threads"),
            SimError::HostAccess(e) => write!(f, "host access: {e}"),
            SimError::ResumeConflict(why) => write!(f, "snapshot resume conflict: {why}"),
            SimError::PartialWarpMma { block_threads } => write!(
                f,
                "MMA needs whole warps, but the block has {block_threads} threads \
                 (not a multiple of {})",
                gpu_arch::WARP_SIZE
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::HostAccess(e) => Some(e),
            SimError::EmptyLaunch
            | SimError::ResumeConflict(_)
            | SimError::PartialWarpMma { .. } => None,
        }
    }
}

impl From<MemoryError> for SimError {
    fn from(e: MemoryError) -> Self {
        SimError::HostAccess(e)
    }
}
