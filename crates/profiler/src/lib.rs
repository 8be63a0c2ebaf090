//! Kernel profiler: the NVPROF / Nsight-Compute analogue.
//!
//! Produces the metrics the paper's methodology consumes:
//!
//! * **Table I** per code: static shared memory, registers per thread,
//!   executed IPC, achieved occupancy;
//! * **Figure 1** per code: the dynamic instruction mix split into
//!   FMA / MUL / ADD / INT / MMA / LDST / OTHERS;
//! * the φ factor of Equation 4 (`achieved occupancy x IPC`) that folds
//!   GPU parallelism management into the FIT prediction;
//! * per-functional-unit dynamic instruction fractions `f(INST_i)` of
//!   Equation 2, and per-unit *utilization* (busy fraction of the unit's
//!   lanes), which the beam engine uses to decide how often a strike on a
//!   unit hits in-flight work.

use gpu_arch::{DeviceModel, FunctionalUnit, MixCategory, WARP_SIZE};
use gpu_sim::{Executed, Target};

/// Profile of one kernel execution (one Table I row + one Figure 1 bar).
#[derive(Clone, Debug)]
pub struct KernelProfile {
    /// Workload name (paper style).
    pub name: String,
    /// Static shared memory per block, bytes (Table I "SHARED").
    pub shared_bytes: u32,
    /// Registers per thread (Table I "RF").
    pub regs_per_thread: u16,
    /// Executed warp instructions per cycle per SM (Table I "IPC").
    pub ipc: f64,
    /// Achieved occupancy in `[0, 1]` (Table I "Occupancy").
    pub occupancy: f64,
    /// Equation 4's φ = occupancy x IPC.
    pub phi: f64,
    /// Total dynamic (thread) instructions.
    pub total_instructions: u64,
    /// Dynamic instruction count per functional unit. The engine tallies
    /// these from the predecode tables (`gpu_arch::decode::InstrMeta`),
    /// the same classification the injectors sample from.
    pub unit_counts: [u64; FunctionalUnit::COUNT],
    /// Figure 1 fractions per mix category, from the same predecode
    /// tables as [`KernelProfile::unit_counts`].
    pub mix_fractions: [f64; MixCategory::COUNT],
    /// Modeled kernel wall time in seconds (drives beam fluence).
    pub seconds: f64,
    /// Modeled cycles.
    pub cycles: f64,
    /// Static ACE fraction: of the destination bits the kernel's
    /// (reachable, scalar GPR-writing) instructions produce, the fraction
    /// some path may observe ([`sass_analysis::KernelAnalysis::ace_fraction`]). The static
    /// analogue of the dynamically-measured AVF, reported beside it in
    /// the prediction tables.
    pub static_ace: f64,
    /// Static SDC upper bound: the fraction of GPR-writer site bits whose
    /// value-flow verdict admits an SDC (`StoreReaching` or `Unknown` —
    /// [`sass_analysis::VerdictSummary::sdc_upper`]). A campaign's SDC
    /// AVF provably cannot exceed it.
    pub static_sdc_upper: f64,
    /// Static DUE upper bound: site-bit fraction whose verdict admits a
    /// DUE (proven-DUE bits, `AddressReaching`/`ControlReaching`, or
    /// `Unknown` — [`sass_analysis::VerdictSummary::due_upper`]).
    pub static_due_upper: f64,
}

impl KernelProfile {
    /// Extract a profile from a finished execution. `launch` feeds the
    /// launch-aware static verdict pass (thread-id ranges, parameter
    /// values, allocation bounds); the result is memoized per kernel
    /// digest so repeated profiling is cheap.
    pub fn from_execution(
        name: impl Into<String>,
        target_kernel: &gpu_arch::Kernel,
        launch: &gpu_arch::LaunchConfig,
        out: &Executed,
    ) -> Self {
        let ctx = sass_analysis::AnalysisContext::for_launch(launch, out.memory.len() as u64);
        let analysis = sass_analysis::analyze(target_kernel, &ctx);
        let summary = analysis.summary();
        KernelProfile {
            name: name.into(),
            shared_bytes: target_kernel.shared_bytes,
            regs_per_thread: target_kernel.regs_per_thread,
            ipc: out.timing.ipc,
            occupancy: out.timing.achieved_occupancy,
            phi: out.timing.achieved_occupancy * out.timing.ipc,
            total_instructions: out.counts.total,
            unit_counts: out.counts.per_unit,
            mix_fractions: out.counts.mix_fractions(),
            seconds: out.timing.seconds,
            cycles: out.timing.cycles,
            static_ace: analysis.ace_fraction(),
            static_sdc_upper: summary.sdc_upper(),
            static_due_upper: summary.due_upper(),
        }
    }

    /// Fraction of dynamic instructions executed on `unit` —
    /// `f(INST_i)` in Equation 2.
    pub fn unit_fraction(&self, unit: FunctionalUnit) -> f64 {
        if self.total_instructions == 0 {
            return 0.0;
        }
        self.unit_counts[unit.index()] as f64 / self.total_instructions as f64
    }

    /// Dynamic count for one unit.
    pub fn unit_count(&self, unit: FunctionalUnit) -> u64 {
        self.unit_counts[unit.index()]
    }

    /// Busy fraction of `unit`'s lanes over the kernel's runtime on
    /// `device`: warp-issues to the unit, times the cycles each issue
    /// occupies the unit, over total lane-cycles available.
    ///
    /// The beam engine multiplies each unit's cross-section by this
    /// utilization: a strike on an idle pipe is harmless.
    pub fn unit_utilization(&self, device: &DeviceModel, unit: FunctionalUnit) -> f64 {
        let lanes = device.lanes_for(unit);
        if lanes == 0 || self.cycles <= 0.0 {
            return 0.0;
        }
        let count = self.unit_counts[unit.index()] as f64;
        // Thread-instructions already measure lane-cycles of work for
        // scalar units; MMA counts are per warp and occupy the tensor
        // cores for ~4 cycles.
        let lane_cycles = if matches!(unit, FunctionalUnit::Hmma | FunctionalUnit::Fmma) {
            count * 4.0 * WARP_SIZE as f64
        } else {
            count
        };
        (lane_cycles / (self.cycles * (lanes * device.sms) as f64)).clamp(0.0, 1.0)
    }

    /// Figure 1 fraction for one category.
    pub fn mix(&self, cat: MixCategory) -> f64 {
        self.mix_fractions[cat.index()]
    }

    /// Export the profile's headline quantities — φ (Equation 4's
    /// utilization-weighted IPC), IPC, achieved occupancy, modeled
    /// runtime — as gauges on `metrics`, prefixed `profile.<name>.`.
    pub fn export_metrics(&self, metrics: &obs::MetricsRegistry) {
        let prefix = format!("profile.{}", self.name);
        metrics.gauge(&format!("{prefix}.phi")).set(self.phi);
        metrics.gauge(&format!("{prefix}.ipc")).set(self.ipc);
        metrics.gauge(&format!("{prefix}.occupancy")).set(self.occupancy);
        metrics.gauge(&format!("{prefix}.seconds")).set(self.seconds);
        metrics.gauge(&format!("{prefix}.cycles")).set(self.cycles);
        metrics.gauge(&format!("{prefix}.instructions")).set(self.total_instructions as f64);
        metrics.gauge(&format!("{prefix}.static_ace")).set(self.static_ace);
        metrics.gauge(&format!("{prefix}.static_sdc_upper")).set(self.static_sdc_upper);
        metrics.gauge(&format!("{prefix}.static_due_upper")).set(self.static_due_upper);
    }
}

/// Run the target fault-free on `device` and profile it.
///
/// # Panics
/// Panics if the golden run does not complete — a workload that DUEs
/// fault-free is a bug.
pub fn profile<T: Target + ?Sized>(target: &T, device: &DeviceModel) -> KernelProfile {
    let out = target.execute_golden(device);
    assert!(out.status.completed(), "golden run of {} failed: {:?}", target.name(), out.status);
    KernelProfile::from_execution(target.name(), target.kernel(), target.launch(), &out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_arch::{CodeGen, Precision};
    use workloads::{build, Benchmark, Scale};

    #[test]
    fn mxm_profile_is_fma_dominated() {
        let device = DeviceModel::named("k40c-sim");
        let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Small);
        let p = profile(&w, &device);
        assert!(p.mix(MixCategory::Fma) > 0.1, "fma={}", p.mix(MixCategory::Fma));
        assert!(p.mix(MixCategory::Ldst) > 0.1);
        assert!(p.unit_fraction(FunctionalUnit::Ffma) > 0.1);
        assert!((p.phi - p.ipc * p.occupancy).abs() < 1e-12);
        let s: f64 = p.mix_fractions.iter().sum();
        assert!((s - 1.0).abs() < 1e-9, "mix sums to {s}");
        // Hand-built kernels keep most produced bits live; a zero or full
        // static ACE would mean the analysis collapsed.
        assert!(p.static_ace > 0.5 && p.static_ace <= 1.0, "static_ace={}", p.static_ace);
        // The verdict-lattice bounds are fractions of site bits; both must
        // be nonzero (stores exist, addresses are corruptible) and valid.
        assert!(
            p.static_sdc_upper > 0.0 && p.static_sdc_upper <= 1.0,
            "static_sdc_upper={}",
            p.static_sdc_upper
        );
        assert!(
            p.static_due_upper > 0.0 && p.static_due_upper <= 1.0,
            "static_due_upper={}",
            p.static_due_upper
        );
    }

    #[test]
    fn integer_codes_have_int_heavy_mix() {
        let device = DeviceModel::named("k40c-sim");
        let w = build(Benchmark::Mergesort, Precision::Int32, CodeGen::Cuda10, Scale::Tiny);
        let p = profile(&w, &device);
        assert!(p.mix(MixCategory::Int) > 0.3, "int={}", p.mix(MixCategory::Int));
        assert_eq!(p.mix(MixCategory::Fma), 0.0);
        assert_eq!(p.mix(MixCategory::Mma), 0.0);
    }

    #[test]
    fn gemm_mma_profile_contains_mma() {
        let device = DeviceModel::named("v100-sim");
        let w = build(Benchmark::GemmMma, Precision::Half, CodeGen::Cuda10, Scale::Tiny);
        let p = profile(&w, &device);
        assert!(p.unit_count(FunctionalUnit::Hmma) > 0);
        assert!(p.mix(MixCategory::Mma) > 0.0);
    }

    #[test]
    fn gemm_has_lower_occupancy_than_mxm() {
        // The register-fat library kernel cannot keep as many warps
        // resident (Table I: GEMM occupancy 0.13-0.25 vs MxM 1.0).
        let device = DeviceModel::named("v100-sim");
        let gemm = build(Benchmark::Gemm, Precision::Single, CodeGen::Cuda10, Scale::Profile);
        let mxm = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Profile);
        let pg = profile(&gemm, &device);
        let pm = profile(&mxm, &device);
        assert!(pg.occupancy < pm.occupancy, "gemm {} !< mxm {}", pg.occupancy, pm.occupancy);
    }

    #[test]
    fn unit_utilization_bounded_and_positive() {
        let device = DeviceModel::named("v100-sim");
        let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Small);
        let p = profile(&w, &device);
        let u = p.unit_utilization(&device, FunctionalUnit::Ffma);
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
        // A unit the kernel never touches is idle.
        assert_eq!(p.unit_utilization(&device, FunctionalUnit::Dfma), 0.0);
        // Unsupported units report zero rather than NaN.
        let kepler = DeviceModel::named("k40c-sim");
        assert_eq!(p.unit_utilization(&kepler, FunctionalUnit::Hmma), 0.0);
    }
}
