//! The fifteen representative codes of the paper (Table I), implemented as
//! SASS-like kernels for the architectural simulator.
//!
//! | Paper code | Here | Notes |
//! |---|---|---|
//! | MxM        | [`Benchmark::Mxm`]       | naive matrix multiply, one thread per output |
//! | GEMM       | [`Benchmark::Gemm`]      | shared-memory tiled, marked `proprietary` (cuBLAS stand-in) |
//! | GEMM-MMA   | [`Benchmark::GemmMma`]   | tensor-core path (Volta only) |
//! | Hotspot    | [`Benchmark::Hotspot`]   | 2-D thermal stencil with shared-memory tiles |
//! | Lava(MD)   | [`Benchmark::Lava`]      | particle interactions within neighbor boxes |
//! | Gaussian   | [`Benchmark::Gaussian`]  | Gaussian elimination, barrier per pivot |
//! | LUD        | [`Benchmark::Lud`]       | LU decomposition, barrier per pivot |
//! | NW         | [`Benchmark::Nw`]        | Needleman-Wunsch wavefront DP (integer) |
//! | BFS        | [`Benchmark::Bfs`]       | level-synchronous breadth-first search (integer) |
//! | CCL        | [`Benchmark::Ccl`]       | connected-component label propagation (integer) |
//! | Mergesort  | [`Benchmark::Mergesort`] | bottom-up merge phases (integer) |
//! | Quicksort  | [`Benchmark::Quicksort`] | per-thread explicit-stack quicksort (integer) |
//! | YOLOv2     | [`Benchmark::Yolov2`]    | small conv-net, conv-as-GEMM, tolerant compare |
//! | YOLOv3     | [`Benchmark::Yolov3`]    | deeper conv-net, tolerant compare |
//!
//! Each workload packages a kernel, launch geometry, prepared input memory
//! and an output-comparison rule, and can be built for any supported
//! [`Precision`] and [`CodeGen`] (the CUDA-7-era vs CUDA-10-era back ends
//! whose codegen differences drive the SASSIFI/NVBitFI AVF gap in the
//! paper).

mod cnn;
mod graph;
mod lava;
mod linalg;
mod matmul;
mod prec;
mod sort;
mod stencil;

pub use prec::PrecEmit;

// Host-side reference models, used by tests, examples and the harness.
pub use cnn::reference as yolo_reference;
pub use graph::{bfs_reference, ccl_reference, nw_reference};
pub use lava::reference as lava_reference;
pub use linalg::{gaussian_reference, lud_reference};
pub use matmul::input_value as matmul_input;
pub use prec::host as prec_host;
pub use sort::{mergesort_reference, quicksort_reference, sort_input};
pub use stencil::reference as hotspot_reference;

use gpu_arch::{CodeGen, CodeGenProfile, Kernel, LaunchConfig, Precision};
use gpu_sim::{Executed, GlobalMemory};
use softfloat::F16;

/// Identifies one of the paper's codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Naive matrix multiplication.
    Mxm,
    /// Tiled library-style GEMM (proprietary stand-in).
    Gemm,
    /// GEMM on the tensor cores (Volta).
    GemmMma,
    /// Thermal stencil.
    Hotspot,
    /// Molecular-dynamics-style particle interactions.
    Lava,
    /// Gaussian elimination.
    Gaussian,
    /// LU decomposition.
    Lud,
    /// Needleman-Wunsch sequence alignment.
    Nw,
    /// Breadth-first search.
    Bfs,
    /// Connected-component labeling.
    Ccl,
    /// Merge sort.
    Mergesort,
    /// Quicksort.
    Quicksort,
    /// Small YOLO-like CNN (v2: shallower, less accurate).
    Yolov2,
    /// Larger YOLO-like CNN (v3: deeper, more accurate).
    Yolov3,
}

impl Benchmark {
    /// The paper's display name, with the precision prefix (e.g.
    /// "FHOTSPOT", "DGEMM", "CCL").
    pub fn display_name(self, precision: Precision) -> String {
        let base = match self {
            Benchmark::Mxm => "MXM",
            Benchmark::Gemm => "GEMM",
            Benchmark::GemmMma => "GEMM-MMA",
            Benchmark::Hotspot => "HOTSPOT",
            Benchmark::Lava => "LAVA",
            Benchmark::Gaussian => "GAUSSIAN",
            Benchmark::Lud => "LUD",
            Benchmark::Nw => "NW",
            Benchmark::Bfs => "BFS",
            Benchmark::Ccl => "CCL",
            Benchmark::Mergesort => "MERGESORT",
            Benchmark::Quicksort => "QUICKSORT",
            Benchmark::Yolov2 => "YOLOV2",
            Benchmark::Yolov3 => "YOLOV3",
        };
        if self == Benchmark::GemmMma {
            // The paper writes HGEMM-MMA / FGEMM-MMA.
            return format!("{}GEMM-MMA", precision.prefix());
        }
        format!("{}{}", precision.prefix(), base)
    }

    /// True for integer codes (no precision variants).
    pub fn is_integer(self) -> bool {
        matches!(
            self,
            Benchmark::Nw
                | Benchmark::Bfs
                | Benchmark::Ccl
                | Benchmark::Mergesort
                | Benchmark::Quicksort
        )
    }
}

/// Problem-size scale. `Tiny` keeps unit tests fast; `Small` is the
/// default for injection/beam campaigns on a laptop-class host.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Minimal sizes for unit tests.
    Tiny,
    /// Campaign sizes (default).
    #[default]
    Small,
    /// Larger sizes that saturate the 1-SM campaign devices, used for the
    /// Table I / Figure 1 profiling harness.
    Profile,
}

/// How a workload decides whether an output is corrupted (SDC).
#[derive(Clone, Debug, PartialEq)]
pub enum CompareSpec {
    /// Byte-exact comparison of an output region — the check the paper's
    /// HPC codes perform against a pre-computed golden output.
    ExactRegion {
        /// Start of the output region.
        offset: u32,
        /// Region length in bytes.
        len: u32,
    },
    /// CNN-style comparison: the top-scoring class must match (faults that
    /// do not change the classification "are not considered errors",
    /// Section VI).
    Classification {
        /// Base address of the score vector.
        offset: u32,
        /// Number of scores.
        count: u32,
        /// Element precision of the scores.
        precision: Precision,
    },
}

impl CompareSpec {
    /// True when `test` is an acceptable output given `golden`.
    pub fn matches(&self, golden: &GlobalMemory, test: &GlobalMemory) -> bool {
        match *self {
            CompareSpec::ExactRegion { offset, len } => {
                let (o, l) = (offset as usize, len as usize);
                golden.raw()[o..o + l] == test.raw()[o..o + l]
            }
            CompareSpec::Classification { offset, count, precision } => {
                argmax_region(golden, offset, count, precision)
                    == argmax_region(test, offset, count, precision)
            }
        }
    }
}

fn argmax_region(mem: &GlobalMemory, offset: u32, count: u32, precision: Precision) -> Option<u32> {
    let mut best: Option<(u32, f64)> = None;
    for i in 0..count {
        let v = read_elem(mem, precision, offset + i * precision.size_bytes());
        if !v.is_nan() {
            match best {
                Some((_, bv)) if bv >= v => {}
                _ => best = Some((i, v)),
            }
        }
    }
    best.map(|(i, _)| i)
}

/// Write one element of the given precision at `addr` (host side).
pub fn write_elem(mem: &mut GlobalMemory, precision: Precision, addr: u32, value: f64) {
    match precision {
        Precision::Int32 => mem.write_u32_host(addr, value as i32 as u32),
        Precision::Half => mem.write_u16_host(addr, F16::from_f64(value).to_bits()),
        Precision::Single => mem.write_f32_host(addr, value as f32),
        Precision::Double => mem.write_f64_host(addr, value),
    }
    .expect("workload buffers are sized by the generator");
}

/// Read one element of the given precision at `addr` (host side).
pub fn read_elem(mem: &GlobalMemory, precision: Precision, addr: u32) -> f64 {
    let read = match precision {
        Precision::Int32 => mem.read_u32_host(addr).map(|v| v as i32 as f64),
        Precision::Half => mem.read_u16_host(addr).map(|v| F16::from_bits(v).to_f64()),
        Precision::Single => mem.read_f32_host(addr).map(f64::from),
        Precision::Double => mem.read_f64_host(addr),
    };
    read.expect("workload buffers are sized by the generator")
}

/// A ready-to-run workload instance.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Paper-style display name (FHOTSPOT, DGEMM, CCL, ...).
    pub name: String,
    /// Which benchmark this is.
    pub benchmark: Benchmark,
    /// Data precision.
    pub precision: Precision,
    /// Toolchain generation the kernel was "compiled" with.
    pub codegen: CodeGen,
    /// The kernel.
    pub kernel: Kernel,
    /// Launch geometry and parameters.
    pub launch: LaunchConfig,
    /// Prepared input memory image.
    pub memory: GlobalMemory,
    /// Output acceptance rule.
    pub compare: CompareSpec,
}

impl gpu_sim::Target for Workload {
    fn name(&self) -> &str {
        &self.name
    }
    fn kernel(&self) -> &Kernel {
        &self.kernel
    }
    fn launch(&self) -> &LaunchConfig {
        &self.launch
    }
    fn fresh_memory(&self) -> GlobalMemory {
        self.memory.clone()
    }
    fn output_matches(&self, golden: &Executed, faulty: &Executed) -> bool {
        self.compare.matches(&golden.memory, &faulty.memory)
    }
}

/// Build a workload instance with a toolchain era's default quirks.
///
/// Equivalent to [`build_with`] using [`CodeGen::profile`]; device specs
/// can override individual quirk knobs, in which case callers pass the
/// spec's profile to [`build_with`] directly.
///
/// # Panics
/// Panics if the benchmark/precision combination is unsupported (e.g.
/// integer codes only support [`Precision::Int32`]; `GemmMma` requires
/// half or single precision).
pub fn build(
    benchmark: Benchmark,
    precision: Precision,
    codegen: CodeGen,
    scale: Scale,
) -> Workload {
    build_with(benchmark, precision, &codegen.profile(), scale)
}

/// Build a workload instance from an explicit codegen-quirk profile.
///
/// The generators branch only on the profile's knobs (unroll factors,
/// LICM, redundant moves, register reservations) — never on the era enum
/// — so spec-file quirk overrides reach every generated kernel.
///
/// # Panics
/// Panics if the benchmark/precision combination is unsupported (e.g.
/// integer codes only support [`Precision::Int32`]; `GemmMma` requires
/// half or single precision).
pub fn build_with(
    benchmark: Benchmark,
    precision: Precision,
    profile: &CodeGenProfile,
    scale: Scale,
) -> Workload {
    if benchmark.is_integer() {
        assert_eq!(precision, Precision::Int32, "{benchmark:?} is an integer code");
    } else {
        assert_ne!(precision, Precision::Int32, "{benchmark:?} is a floating-point code");
    }
    match benchmark {
        Benchmark::Mxm => matmul::mxm(precision, profile, scale),
        Benchmark::Gemm => matmul::gemm(precision, profile, scale),
        Benchmark::GemmMma => matmul::gemm_mma(precision, scale),
        Benchmark::Hotspot => stencil::hotspot(precision, profile, scale),
        Benchmark::Lava => lava::lava(precision, profile, scale),
        Benchmark::Gaussian => linalg::gaussian(precision, profile, scale),
        Benchmark::Lud => linalg::lud(precision, profile, scale),
        Benchmark::Nw => graph::nw(profile, scale),
        Benchmark::Bfs => graph::bfs(profile, scale),
        Benchmark::Ccl => graph::ccl(profile, scale),
        Benchmark::Mergesort => sort::mergesort(profile, scale),
        Benchmark::Quicksort => sort::quicksort(profile, scale),
        Benchmark::Yolov2 => cnn::yolo(2, precision, scale),
        Benchmark::Yolov3 => cnn::yolo(3, precision, scale),
    }
}

/// The Kepler test set of Table I (left half). SASSIFI-era codegen is
/// CUDA 7; pass [`CodeGen::Cuda10`] for the NVBitFI view of the same
/// sources.
pub fn kepler_suite(codegen: CodeGen, scale: Scale) -> Vec<Workload> {
    use Benchmark::*;
    use Precision::*;
    [
        (Ccl, Int32),
        (Bfs, Int32),
        (Lava, Single),
        (Hotspot, Single),
        (Gaussian, Single),
        (Lud, Single),
        (Nw, Int32),
        (Mxm, Single),
        (Gemm, Single),
        (Mergesort, Int32),
        (Quicksort, Int32),
        (Yolov2, Single),
        (Yolov3, Single),
    ]
    .into_iter()
    .map(|(b, p)| build(b, p, codegen, scale))
    .collect()
}

/// The Volta test set of Table I (right half): mixed-precision variants.
pub fn volta_suite(scale: Scale) -> Vec<Workload> {
    use Benchmark::*;
    use Precision::*;
    [
        (Lava, Half),
        (Lava, Single),
        (Lava, Double),
        (Hotspot, Half),
        (Hotspot, Single),
        (Hotspot, Double),
        (Mxm, Half),
        (Mxm, Single),
        (Mxm, Double),
        (Gemm, Half),
        (Gemm, Single),
        (Gemm, Double),
        (GemmMma, Half),
        (GemmMma, Single),
        (Yolov3, Half),
        (Yolov3, Single),
    ]
    .into_iter()
    .map(|(b, p)| build(b, p, CodeGen::Cuda10, scale))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_match_paper() {
        assert_eq!(Benchmark::Hotspot.display_name(Precision::Half), "HHOTSPOT");
        assert_eq!(Benchmark::Gemm.display_name(Precision::Double), "DGEMM");
        assert_eq!(Benchmark::Ccl.display_name(Precision::Int32), "CCL");
        assert_eq!(Benchmark::GemmMma.display_name(Precision::Half), "HGEMM-MMA");
        assert_eq!(Benchmark::Yolov3.display_name(Precision::Single), "FYOLOV3");
    }

    #[test]
    fn elem_roundtrip_all_precisions() {
        let mut mem = GlobalMemory::new(32);
        for (p, v) in [
            (Precision::Int32, -7.0),
            (Precision::Half, 1.5),
            (Precision::Single, 3.25),
            (Precision::Double, -0.125),
        ] {
            write_elem(&mut mem, p, 8, v);
            assert_eq!(read_elem(&mem, p, 8), v, "{p:?}");
        }
    }

    #[test]
    fn classification_compare_tolerates_small_changes() {
        let mut golden = GlobalMemory::new(16);
        let mut test = GlobalMemory::new(16);
        for (i, v) in [0.1f32, 0.9, 0.3, 0.2].iter().enumerate() {
            golden.write_f32_host(4 * i as u32, *v).unwrap();
        }
        for (i, v) in [0.15f32, 0.8, 0.35, 0.1].iter().enumerate() {
            test.write_f32_host(4 * i as u32, *v).unwrap();
        }
        let spec =
            CompareSpec::Classification { offset: 0, count: 4, precision: Precision::Single };
        assert!(spec.matches(&golden, &test)); // argmax still class 1
        test.write_f32_host(8, 2.0).unwrap(); // now class 2 wins
        assert!(!spec.matches(&golden, &test));
    }

    #[test]
    fn exact_compare_detects_single_byte() {
        let golden = GlobalMemory::new(16);
        let mut test = GlobalMemory::new(16);
        let spec = CompareSpec::ExactRegion { offset: 4, len: 8 };
        assert!(spec.matches(&golden, &test));
        test.write_u32_host(0, 5).unwrap(); // outside region: ignored
        assert!(spec.matches(&golden, &test));
        test.write_u32_host(8, 1).unwrap(); // inside region
        assert!(!spec.matches(&golden, &test));
    }

    #[test]
    #[should_panic(expected = "integer code")]
    fn integer_codes_reject_float_precision() {
        build(Benchmark::Ccl, Precision::Single, CodeGen::Cuda10, Scale::Tiny);
    }
}
