//! Functional + timing architectural GPU simulator.
//!
//! This crate executes [`gpu_arch::Kernel`]s on a modeled device
//! ([`gpu_arch::DeviceModel`]) the way an architecture-level fault-injection
//! study needs it to:
//!
//! * **functional**: per-thread register files, predicates, SIMT warps with
//!   divergence, block barriers, shared and global memory, warp-synchronous
//!   tensor-core MMA — enough to run the paper's 15 workloads bit-exactly;
//! * **observable**: every dynamic instruction is numbered, so a fault plan
//!   ([`FaultPlan`]) can corrupt "the n-th executed FFMA's destination" the
//!   way SASSIFI/NVBitFI sample injection sites, or flip a register-file /
//!   memory bit at a chosen instant;
//! * **detecting**: out-of-bounds accesses, illegal PCs, barrier deadlocks,
//!   watchdog timeouts and ECC double-bit events terminate the run as DUEs
//!   ([`DueKind`]), mirroring the device/CUDA-API exceptions beam tests
//!   observe;
//! * **timed**: an analytic model ([`timing`]) derives cycles, IPC and
//!   achieved occupancy from the executed instruction stream and the
//!   device's issue/latency parameters — the quantities NVPROF reports and
//!   the paper's Equation 4 consumes.
//!
//! The simulator is deterministic: the same kernel, launch and fault plan
//! always produce the same result, which the injection campaigns rely on.

mod engine;
mod error;
mod fault;
mod memory;
mod snapshot;
pub mod timing;

pub use engine::{
    run, run_with_sink, try_run_with_sink, BlockExit, Counts, ExecStatus, Executed, ExitKind,
    RunOptions, SiteCounts, SitesRecord,
};
pub use error::SimError;
pub use fault::{BitFlip, DueKind, FaultPlan, FetchEffect, MemQueueEffect, Persistence, SiteClass};
pub use memory::{GlobalMemory, MemoryError, SharedMemory};
pub use snapshot::{trigger_position, EngineSnapshot, ExitTable, SNAPSHOT_CAP};

/// Anything the fault-injection and beam engines can exercise: a kernel
/// with a launch configuration, a reproducible input image, and an
/// output-acceptance rule.
///
/// Both the 15 paper workloads and the seven micro-benchmark classes
/// implement this, so campaigns are written once.
pub trait Target {
    /// Display name (paper style, e.g. "FHOTSPOT", "IADD").
    fn name(&self) -> &str;
    /// The kernel under test.
    fn kernel(&self) -> &gpu_arch::Kernel;
    /// Launch geometry and parameters.
    fn launch(&self) -> &gpu_arch::LaunchConfig;
    /// A fresh copy of the prepared input memory.
    fn fresh_memory(&self) -> GlobalMemory;
    /// Whether `faulty`'s output is acceptable given `golden`'s.
    fn output_matches(&self, golden: &Executed, faulty: &Executed) -> bool;

    /// True for proprietary-library kernels (SASSIFI cannot instrument
    /// them on Kepler).
    fn proprietary(&self) -> bool {
        self.kernel().proprietary
    }

    /// Execute with explicit options.
    fn execute(&self, device: &gpu_arch::DeviceModel, opts: &RunOptions) -> Executed {
        run(device, self.kernel(), self.launch(), self.fresh_memory(), opts)
    }

    /// Execute with explicit options, streaming trace events to `sink`.
    fn execute_traced(
        &self,
        device: &gpu_arch::DeviceModel,
        opts: &RunOptions,
        sink: &mut dyn obs::TraceSink,
    ) -> Executed {
        run_with_sink(device, self.kernel(), self.launch(), self.fresh_memory(), opts, Some(sink))
    }

    /// Fault-free execution with default options.
    fn execute_golden(&self, device: &gpu_arch::DeviceModel) -> Executed {
        self.execute(device, &RunOptions::default())
    }
}

/// Convenience: execute a kernel with no faults and default options.
///
/// Panics if the launch itself is malformed (zero threads). Returns the
/// completed execution (which may still be a DUE if the *program* is
/// buggy, e.g. accesses out of bounds).
pub fn run_golden(
    device: &gpu_arch::DeviceModel,
    kernel: &gpu_arch::Kernel,
    launch: &gpu_arch::LaunchConfig,
    memory: GlobalMemory,
) -> Executed {
    run(device, kernel, launch, memory, &RunOptions::default())
}
