//! # gpu-reliability
//!
//! A self-contained Rust reproduction of *"Demystifying GPU Reliability:
//! Comparing and Combining Beam Experiments, Fault Simulation, and
//! Profiling"* (dos Santos, Hari, Basso, Carro, Rech — IPDPS 2021).
//!
//! The paper asks whether architecture-level fault injection can predict
//! the failure rates that neutron-beam experiments measure on real GPUs.
//! Real silicon and beam time are not available to a library, so this
//! crate builds the entire experimental apparatus in software:
//!
//! * [`arch`] — a SASS-like ISA and Kepler/Volta device models;
//! * [`sim`] — a deterministic functional + timing GPU simulator with
//!   fault hooks (instruction outputs, registers, memory bits, addresses,
//!   program counters);
//! * [`workloads`] — the paper's fifteen codes (MxM, GEMM, GEMM-MMA,
//!   Hotspot, Lava, Gaussian, LUD, NW, BFS, CCL, Mergesort, Quicksort,
//!   YOLOv2/v3) for every supported precision;
//! * [`microbench`] — the seven synthetic micro-benchmark classes;
//! * [`profiler`] — the NVPROF analogue (instruction mix, IPC, occupancy);
//! * [`injector`] — SASSIFI and NVBitFI models with their documented
//!   capability differences;
//! * [`beam`] — a Monte-Carlo neutron-beam engine over hidden
//!   ground-truth cross-sections;
//! * [`campaign`] — the shared campaign engine: deterministic sharded
//!   execution, CI-targeted early stopping, checkpoint/resume;
//! * [`prediction`] — the paper's Equations 1-4 FIT model and the
//!   beam-vs-prediction comparison;
//! * [`stats`] — FIT/fluence accounting, Poisson and Wilson intervals.
//!
//! ## Quickstart
//!
//! ```
//! use gpu_reliability::prelude::*;
//!
//! // Build a workload and a campaign device.
//! let device = DeviceModel::named("v100-sim");
//! let mxm = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Tiny);
//!
//! // Profile it (Table I / Figure 1 metrics).
//! let profile = profile(&mxm, &device);
//! assert!(profile.phi > 0.0);
//!
//! // Measure its AVF with NVBitFI on the shared campaign engine
//! // (Figure 4). `Budget::quick()` would stop early at a 0.05 CI
//! // half-width; a fixed budget always spends its whole ceiling.
//! let avf = Campaign::new(Avf::new(Injector::NvBitFi), &mxm, &device)
//!     .budget(Budget::fixed(50).seed(1))
//!     .run()
//!     .unwrap();
//! assert!(avf.counts.total() == 50);
//! ```

pub use beam;
pub use campaign;
pub use gpu_arch as arch;
pub use gpu_sim as sim;
pub use injector;
pub use microbench;
pub use obs;
pub use prediction;
pub use profiler;
pub use softfloat;
pub use stats;
pub use workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use beam::{Beam, BeamResult, CrossSections};
    pub use campaign::{
        Budget, Campaign, CampaignRun, Checkpoint, CheckpointStore, DirectRunner, Runner,
        StopReason,
    };
    pub use gpu_arch::{
        Architecture, CodeGen, DeviceModel, FunctionalUnit, MixCategory, Precision,
    };
    pub use gpu_sim::{
        run_golden, BitFlip, DueKind, ExecStatus, FaultPlan, GlobalMemory, RunOptions, SimError,
        SiteClass, Target,
    };
    pub use injector::{Avf, AvfResult, ClassAvf, Injector};
    pub use prediction::{
        characterize_units, compare, memory_footprint, predict, CharacterizeConfig, PredictOptions,
        UnitFits,
    };
    pub use profiler::{profile, KernelProfile};
    pub use stats::{signed_ratio, wilson_half_width, FitRate, Outcome, OutcomeCounts};
    pub use workloads::{build, kepler_suite, volta_suite, Benchmark, Scale, Workload};
    // The deprecated pre-engine entry points (`measure_avf*`, `expose*`,
    // `CampaignConfig`, `BeamConfig`) are no longer re-exported here;
    // migrating callers can still reach them at their crate paths until
    // the forwarders are removed.
}
