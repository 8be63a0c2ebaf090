//! Device models: architecture generations, capability tables, and the
//! compiled [`DeviceModel`] every engine layer consumes.
//!
//! Models are **data**: the built-in boards (Tesla K40c, Tesla V100,
//! Titan V, NVIDIA A100) are declarative spec files under
//! `specs/devices/` compiled through [`crate::spec::DeviceSpec`], and
//! looked up with [`DeviceModel::named`] or [`crate::spec::DeviceRegistry`].

use std::fmt;

use crate::op::FunctionalUnit;
use crate::WARP_SIZE;

/// GPU architecture generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Kepler (GK110b, 28 nm planar CMOS). Integer work shares the FP32
    /// pipes; no FP16 arithmetic; no tensor cores.
    Kepler,
    /// Volta (GV100, 16 nm FinFET). Dedicated INT32 cores, FP16 at 2x FP32
    /// rate, 8 tensor cores per SM.
    Volta,
    /// Ampere (GA100-class, 7 nm FinFET). Volta-like lane mix with fewer
    /// but wider third-generation tensor cores.
    Ampere,
}

impl Architecture {
    /// Display name ("Kepler", "Volta", "Ampere").
    pub fn name(self) -> &'static str {
        match self {
            Architecture::Kepler => "Kepler",
            Architecture::Volta => "Volta",
            Architecture::Ampere => "Ampere",
        }
    }

    /// Parse a spec-file token (case-insensitive).
    pub fn parse(token: &str) -> Option<Architecture> {
        match token.to_ascii_lowercase().as_str() {
            "kepler" => Some(Architecture::Kepler),
            "volta" => Some(Architecture::Volta),
            "ampere" => Some(Architecture::Ampere),
            _ => None,
        }
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// ECC configuration for the on-chip memories (register file, shared
/// memory, caches, DRAM). SECDED: single-bit corrected, double-bit
/// detected (raising a DUE interrupt).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EccMode {
    /// SECDED protection on.
    Enabled,
    /// Memories unprotected.
    Disabled,
}

/// The CUDA toolchain generation a workload was "compiled" with.
///
/// SASSIFI instruments CUDA 7 binaries, NVBitFI CUDA 10.1+ binaries
/// (Section VI); the different back-end optimizers generate different SASS
/// for the same source, which the paper identifies as the main driver of
/// the ~18% average AVF difference between the two injectors. Our workload
/// generators consult the [`CodeGenProfile`] derived from this to pick
/// codegen variants (unrolling, dead-code elimination, loop-invariant
/// code motion).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CodeGen {
    /// CUDA 7-era back end: less unrolling, more redundant moves, no
    /// aggressive loop-invariant code motion.
    Cuda7,
    /// CUDA 10.1-era back end: aggressive unrolling and dead-code
    /// elimination; fewer, more "useful" instructions (higher AVF).
    Cuda10,
}

impl CodeGen {
    /// Spec-file token ("cuda7", "cuda10").
    pub fn token(self) -> &'static str {
        match self {
            CodeGen::Cuda7 => "cuda7",
            CodeGen::Cuda10 => "cuda10",
        }
    }

    /// Parse a spec-file token (case-insensitive).
    pub fn parse(token: &str) -> Option<CodeGen> {
        match token.to_ascii_lowercase().as_str() {
            "cuda7" => Some(CodeGen::Cuda7),
            "cuda10" => Some(CodeGen::Cuda10),
            _ => None,
        }
    }

    /// The quirk table this toolchain era branches the workload
    /// generators with. Device specs may override individual knobs
    /// through their `[quirks]` section.
    pub fn profile(self) -> CodeGenProfile {
        match self {
            CodeGen::Cuda7 => CodeGenProfile {
                era: self,
                mxm_unroll: 1,
                licm: false,
                redundant_moves: true,
                strength_reduce: false,
                gemm_reserve_regs: Some(248),
                lava_reserve_regs: 48,
            },
            CodeGen::Cuda10 => CodeGenProfile {
                era: self,
                mxm_unroll: 4,
                licm: true,
                redundant_moves: false,
                strength_reduce: true,
                gemm_reserve_regs: None,
                lava_reserve_regs: 255,
            },
        }
    }
}

/// The codegen-quirk knobs the workload generators branch on: what used
/// to be scattered `match codegen { Cuda7 => ..., Cuda10 => ... }` arms
/// is now one table, derived from [`CodeGen::profile`] and overridable
/// per device spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodeGenProfile {
    /// The toolchain era this profile models (recorded on built
    /// workloads; SASSIFI can only instrument [`CodeGen::Cuda7`]
    /// binaries).
    pub era: CodeGen,
    /// Inner-loop unroll factor of the MxM body (CUDA 10's back end
    /// unrolls 4x; CUDA 7 leaves the loop rolled).
    pub mxm_unroll: u32,
    /// Loop-invariant code motion: hoist invariant address arithmetic
    /// out of stencil loops.
    pub licm: bool,
    /// Emit the redundant register moves older back ends leave behind
    /// (low-AVF filler instructions).
    pub redundant_moves: bool,
    /// Strength-reduce row/column index math into running pointers.
    pub strength_reduce: bool,
    /// Register reservation the era's GEMM library kernel requests;
    /// `None` picks the per-precision tuned footprints of the newer
    /// toolchains.
    pub gemm_reserve_regs: Option<u16>,
    /// Register reservation of the LavaMD kernel (CUDA 7 spills at 48;
    /// CUDA 10 keeps the full 255-register footprint live).
    pub lava_reserve_regs: u16,
}

/// Per-device capability table compiled from the spec: everything the
/// tree used to decide by matching on [`Architecture`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceCaps {
    /// Whether SASSIFI can instrument binaries for this device (CUDA 7
    /// toolchains stopped before Volta).
    pub sassifi: bool,
    /// The toolchain era binaries for this device are built with by
    /// default.
    pub default_codegen: CodeGen,
    /// The micro-benchmark whose beam FIT anchors the Figure 3
    /// normalized axis for this device ("FADD" on Kepler, "HFMA" on
    /// Volta-class parts).
    pub fig3_reference: String,
    /// The arithmetic/MMA micro-benchmark suite of this device, in
    /// Figure 3 axis order (LDST and RF are always appended by the
    /// suite builder). Kepler's list deliberately omits its FP64 pipes:
    /// the paper characterized none of them.
    pub bench_units: Vec<FunctionalUnit>,
}

/// A GPU device configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceModel {
    /// Marketing name.
    pub name: String,
    /// Architecture generation.
    pub arch: Architecture,
    /// Streaming multiprocessors.
    pub sms: u32,
    /// Warp schedulers per SM; each can issue up to
    /// [`DeviceModel::issue_per_scheduler`] instructions per cycle.
    pub schedulers_per_sm: u32,
    /// Instructions each scheduler may issue per cycle.
    pub issue_per_scheduler: u32,
    /// FP32 lanes per SM.
    pub fp32_lanes: u32,
    /// FP64 lanes per SM.
    pub fp64_lanes: u32,
    /// Dedicated INT32 lanes per SM (0 on Kepler: INT shares FP32 pipes).
    pub int32_lanes: u32,
    /// FP16 lanes per SM (0 on Kepler).
    pub fp16_lanes: u32,
    /// Tensor cores per SM.
    pub tensor_cores: u32,
    /// MMA lanes per tensor core (32 on Volta; Ampere's third-generation
    /// cores are 4x wider).
    pub tensor_core_width: u32,
    /// Load/store units per SM.
    pub ldst_units: u32,
    /// Register file bytes per SM (32-bit registers x 4 bytes).
    pub rf_bytes_per_sm: u32,
    /// Shared memory bytes per SM.
    pub shared_bytes_per_sm: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Core clock in Hz (used to convert cycles to seconds for fluence
    /// accounting).
    pub clock_hz: f64,
    /// Relative per-bit SRAM neutron sensitivity of this process node
    /// (Kepler's 28 nm planar is about an order of magnitude more
    /// sensitive than Volta's 16 nm FinFET; Section V-B, \[29\]).
    pub sram_bit_sensitivity: f64,
    /// Whether ECC can be toggled by the user.
    pub ecc_capable: bool,
    /// Spec-driven capability table (injector support, codegen era,
    /// micro-benchmark suite).
    pub caps: DeviceCaps,
}

impl DeviceModel {
    /// Look a device model up by registry id: the built-in ids are
    /// `k40c`, `v100`, `titan-v`, `a100` plus their single-SM campaign
    /// variants `k40c-sim`, `v100-sim`, `titan-v-sim`, `a100-sim`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not in the built-in registry; use
    /// [`crate::spec::DeviceRegistry`] for fallible lookup and for specs
    /// loaded from disk.
    pub fn named(id: &str) -> DeviceModel {
        crate::spec::DeviceRegistry::builtin().model(id).unwrap_or_else(|| {
            panic!(
                "unknown device id {id:?}; built-in ids: {}",
                crate::spec::DeviceRegistry::builtin().ids().join(", ")
            )
        })
    }

    /// The single-SM campaign variant of this model: identical per-SM
    /// microarchitecture scaled to one SM so laptop-scale problem sizes
    /// still reach realistic occupancies. FIT rates scale linearly with
    /// SM count, and every figure is reported in arbitrary units, so the
    /// scaling cancels (see DESIGN.md).
    pub fn sim_variant(&self) -> DeviceModel {
        DeviceModel { name: format!("{} (1-SM sim)", self.name), sms: 1, ..self.clone() }
    }

    /// Execution lanes per SM available to a functional-unit kind.
    ///
    /// On Kepler, integer instructions execute on the FP32 pipes ("the
    /// integer operations are executed in the same hardware as the FP32
    /// operations", Section V-B); FP16 and tensor ops are unsupported
    /// (0 lanes).
    pub fn lanes_for(&self, unit: FunctionalUnit) -> u32 {
        use FunctionalUnit::*;
        match unit {
            Fadd | Fmul | Ffma => self.fp32_lanes,
            Dadd | Dmul | Dfma => self.fp64_lanes,
            Hadd | Hmul | Hfma => self.fp16_lanes,
            Iadd | Imul | Imad => {
                if self.int32_lanes > 0 {
                    self.int32_lanes
                } else {
                    self.fp32_lanes
                }
            }
            Hmma | Fmma => self.tensor_cores * self.tensor_core_width, // warp-wide op
            Ldst => self.ldst_units,
            Other => self.fp32_lanes, // control/convert share main pipes
        }
    }

    /// True when this device can execute the unit at all.
    pub fn supports(&self, unit: FunctionalUnit) -> bool {
        self.lanes_for(unit) > 0
    }

    /// 32-bit registers per SM.
    pub fn regs_per_sm(&self) -> u32 {
        self.rf_bytes_per_sm / 4
    }

    /// How many blocks of the given footprint can be resident on one SM,
    /// limited by registers, shared memory, and thread slots.
    pub fn resident_blocks_per_sm(
        &self,
        regs_per_thread: u16,
        shared_per_block: u32,
        threads_per_block: u32,
    ) -> u32 {
        if threads_per_block == 0 {
            return 0;
        }
        let regs = regs_per_thread.max(16) as u32; // HW allocates >= 16
        let blocks_by_regs = self.regs_per_sm() / (regs * threads_per_block).max(1);
        let blocks_by_shared =
            self.shared_bytes_per_sm.checked_div(shared_per_block).unwrap_or(u32::MAX);
        let blocks_by_threads = self.max_threads_per_sm / threads_per_block;
        blocks_by_regs.min(blocks_by_shared).min(blocks_by_threads)
    }

    /// Theoretical occupancy (resident warps / max warps) for a kernel
    /// footprint: limited by registers, shared memory, and thread slots.
    ///
    /// This is the *static* occupancy bound; the simulator reports
    /// *achieved* occupancy, which is additionally bounded by the grid
    /// having enough blocks to fill all SMs.
    pub fn occupancy_bound(
        &self,
        regs_per_thread: u16,
        shared_per_block: u32,
        threads_per_block: u32,
    ) -> f64 {
        let blocks =
            self.resident_blocks_per_sm(regs_per_thread, shared_per_block, threads_per_block);
        let warps = (blocks * threads_per_block).div_ceil(WARP_SIZE).min(self.max_warps_per_sm);
        warps as f64 / self.max_warps_per_sm as f64
    }

    /// Total CUDA-core count (FP32 lanes x SMs); 2 880 for the K40c.
    pub fn cuda_cores(&self) -> u32 {
        self.fp32_lanes * self.sms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k40c_matches_paper_specs() {
        let d = DeviceModel::named("k40c");
        assert_eq!(d.cuda_cores(), 2880);
        assert_eq!(d.sms, 15);
        assert!(d.ecc_capable);
        // INT shares FP32 pipes on Kepler.
        assert_eq!(d.lanes_for(FunctionalUnit::Iadd), d.fp32_lanes);
        assert!(!d.supports(FunctionalUnit::Hmma));
        assert!(!d.supports(FunctionalUnit::Hadd));
    }

    #[test]
    fn v100_matches_paper_specs() {
        let d = DeviceModel::named("v100");
        assert_eq!(d.sms, 80);
        assert_eq!(d.fp32_lanes, 64);
        assert_eq!(d.int32_lanes, 64);
        assert_eq!(d.fp64_lanes, 32);
        assert_eq!(d.tensor_cores, 8);
        // Dedicated INT32 cores on Volta.
        assert_eq!(d.lanes_for(FunctionalUnit::Imul), 64);
        assert!(d.supports(FunctionalUnit::Hmma));
    }

    #[test]
    fn titan_v_has_no_ecc_toggle() {
        assert!(!DeviceModel::named("titan-v").ecc_capable);
        assert_eq!(DeviceModel::named("titan-v").arch, Architecture::Volta);
    }

    #[test]
    fn a100_is_a_wider_tensor_machine() {
        let d = DeviceModel::named("a100");
        assert_eq!(d.arch, Architecture::Ampere);
        assert_eq!(d.sms, 108);
        assert_eq!(d.tensor_cores, 4);
        // Fewer tensor cores than Volta, but twice the MMA lanes per SM.
        let v = DeviceModel::named("v100");
        assert_eq!(d.lanes_for(FunctionalUnit::Hmma), 2 * v.lanes_for(FunctionalUnit::Hmma));
        assert_eq!(d.shared_bytes_per_sm, 192 * 1024);
    }

    #[test]
    fn kepler_is_more_sensitive_per_bit() {
        assert!(
            DeviceModel::named("k40c").sram_bit_sensitivity
                > 5.0 * DeviceModel::named("v100").sram_bit_sensitivity
        );
    }

    #[test]
    fn sim_variants_scale_to_one_sm() {
        let d = DeviceModel::named("v100-sim");
        assert_eq!(d.sms, 1);
        assert_eq!(d.name, "Tesla V100 (1-SM sim)");
        assert_eq!(d.fp32_lanes, DeviceModel::named("v100").fp32_lanes);
    }

    #[test]
    fn occupancy_bound_by_registers() {
        let d = DeviceModel::named("v100");
        // 255 regs/thread, 256 threads/block: 65536/(255*256) = 1 block,
        // 8 warps resident out of 64.
        let occ = d.occupancy_bound(255, 0, 256);
        assert!((occ - 8.0 / 64.0).abs() < 1e-9, "occ={occ}");
        // Tiny kernels reach full occupancy.
        let occ = d.occupancy_bound(16, 0, 256);
        assert!((occ - 1.0).abs() < 1e-9, "occ={occ}");
    }

    #[test]
    fn occupancy_bound_by_shared_memory() {
        let d = DeviceModel::named("v100");
        // 48 KB/block on a 96 KB SM: 2 blocks of 128 threads = 8 warps.
        let occ = d.occupancy_bound(16, 48 * 1024, 128);
        assert!((occ - 8.0 / 64.0).abs() < 1e-9, "occ={occ}");
    }

    #[test]
    fn occupancy_zero_threads() {
        assert_eq!(DeviceModel::named("v100").occupancy_bound(16, 0, 0), 0.0);
    }

    #[test]
    fn codegen_profiles_pin_the_era_quirks() {
        let p7 = CodeGen::Cuda7.profile();
        assert_eq!(p7.mxm_unroll, 1);
        assert!(p7.redundant_moves && !p7.licm && !p7.strength_reduce);
        assert_eq!(p7.gemm_reserve_regs, Some(248));
        assert_eq!(p7.lava_reserve_regs, 48);
        let p10 = CodeGen::Cuda10.profile();
        assert_eq!(p10.mxm_unroll, 4);
        assert!(!p10.redundant_moves && p10.licm && p10.strength_reduce);
        assert_eq!(p10.gemm_reserve_regs, None);
        assert_eq!(p10.lava_reserve_regs, 255);
    }
}
