//! Systematic variant coverage: every (benchmark, precision, codegen)
//! combination that `build` accepts must construct, validate, complete
//! fault-free on its device, and be self-consistent under the Target
//! trait. Codegen variants of the same source must produce the *same
//! output* (optimizations cannot change semantics).

use gpu_arch::{CodeGen, DeviceModel, Precision};
use gpu_sim::{ExecStatus, Target};
use workloads::{build, read_elem, Benchmark, CompareSpec, Scale, Workload};

const FP_BENCHES: [Benchmark; 7] = [
    Benchmark::Mxm,
    Benchmark::Gemm,
    Benchmark::Hotspot,
    Benchmark::Lava,
    Benchmark::Gaussian,
    Benchmark::Lud,
    Benchmark::Yolov2,
];

const INT_BENCHES: [Benchmark; 5] =
    [Benchmark::Nw, Benchmark::Bfs, Benchmark::Ccl, Benchmark::Mergesort, Benchmark::Quicksort];

fn out_region(w: &Workload) -> (u32, u32, Precision) {
    match w.compare {
        CompareSpec::ExactRegion { offset, len } => (offset, len, w.precision),
        CompareSpec::Classification { offset, count, precision } => {
            (offset, count * precision.size_bytes(), precision)
        }
    }
}

#[test]
fn every_fp_variant_completes_on_volta() {
    let volta = DeviceModel::named("v100-sim");
    for bench in FP_BENCHES {
        for precision in [Precision::Half, Precision::Single, Precision::Double] {
            for codegen in [CodeGen::Cuda7, CodeGen::Cuda10] {
                let w = build(bench, precision, codegen, Scale::Tiny);
                let out = w.execute_golden(&volta);
                assert_eq!(out.status, ExecStatus::Completed, "{} {codegen:?}", w.name);
                assert!(out.counts.total > 0);
            }
        }
    }
}

#[test]
fn every_int_variant_completes_on_kepler() {
    let kepler = DeviceModel::named("k40c-sim");
    for bench in INT_BENCHES {
        for codegen in [CodeGen::Cuda7, CodeGen::Cuda10] {
            let w = build(bench, Precision::Int32, codegen, Scale::Tiny);
            let out = w.execute_golden(&kepler);
            assert_eq!(out.status, ExecStatus::Completed, "{} {codegen:?}", w.name);
        }
    }
}

#[test]
fn codegen_variants_compute_identical_outputs() {
    // The CUDA 7 and CUDA 10 back ends emit different instruction streams
    // for the same source; semantics must not change.
    let kepler = DeviceModel::named("k40c-sim");
    for bench in [
        Benchmark::Mxm,
        Benchmark::Hotspot,
        Benchmark::Gaussian,
        Benchmark::Lud,
        Benchmark::Nw,
        Benchmark::Ccl,
        Benchmark::Mergesort,
        Benchmark::Quicksort,
        Benchmark::Bfs,
        Benchmark::Lava,
    ] {
        let precision = if bench.is_integer() { Precision::Int32 } else { Precision::Single };
        let w7 = build(bench, precision, CodeGen::Cuda7, Scale::Tiny);
        let w10 = build(bench, precision, CodeGen::Cuda10, Scale::Tiny);
        let o7 = w7.execute_golden(&kepler);
        let o10 = w10.execute_golden(&kepler);
        let (off, len, prec) = out_region(&w10);
        let elem = prec.size_bytes();
        for i in 0..(len / elem) {
            let a = read_elem(&o7.memory, prec, off + i * elem);
            let b = read_elem(&o10.memory, prec, off + i * elem);
            assert!(
                a == b || (a.is_nan() && b.is_nan()),
                "{}: element {i}: cu7 {a} vs cu10 {b}",
                w10.name
            );
        }
    }
}

#[test]
fn scales_are_ordered_by_work() {
    let kepler = DeviceModel::named("k40c-sim");
    for bench in [Benchmark::Mxm, Benchmark::Hotspot, Benchmark::Mergesort] {
        let precision = if bench.is_integer() { Precision::Int32 } else { Precision::Single };
        let tiny = build(bench, precision, CodeGen::Cuda10, Scale::Tiny).execute_golden(&kepler);
        let small = build(bench, precision, CodeGen::Cuda10, Scale::Small).execute_golden(&kepler);
        let profile =
            build(bench, precision, CodeGen::Cuda10, Scale::Profile).execute_golden(&kepler);
        assert!(tiny.counts.total < small.counts.total, "{bench:?}");
        assert!(small.counts.total < profile.counts.total, "{bench:?}");
    }
}

#[test]
fn proprietary_flags_cover_library_codes_only() {
    for bench in FP_BENCHES.into_iter().chain(INT_BENCHES) {
        let precision = if bench.is_integer() { Precision::Int32 } else { Precision::Single };
        let w = build(bench, precision, CodeGen::Cuda10, Scale::Tiny);
        let expect = matches!(
            bench,
            Benchmark::Gemm | Benchmark::GemmMma | Benchmark::Yolov2 | Benchmark::Yolov3
        );
        assert_eq!(w.kernel.proprietary, expect, "{}", w.name);
    }
}

#[test]
fn table1_footprints_are_stable() {
    // Regression pin for the Table I resource columns (campaign scale).
    let cases = [
        (Benchmark::Gemm, Precision::Single, 134u16),
        (Benchmark::Gemm, Precision::Double, 234),
        (Benchmark::Lava, Precision::Single, 255),
    ];
    for (bench, precision, regs) in cases {
        let w = build(bench, precision, CodeGen::Cuda10, Scale::Small);
        assert_eq!(w.kernel.regs_per_thread, regs, "{}", w.name);
    }
    let qs = build(Benchmark::Quicksort, Precision::Int32, CodeGen::Cuda10, Scale::Small);
    assert_eq!(qs.kernel.shared_bytes, 328);
}

#[test]
fn workload_names_are_unique_within_suites() {
    use std::collections::HashSet;
    let mut names = HashSet::new();
    for w in workloads::kepler_suite(CodeGen::Cuda7, Scale::Tiny) {
        assert!(names.insert(w.name.clone()), "duplicate {}", w.name);
    }
    names.clear();
    for w in workloads::volta_suite(Scale::Tiny) {
        assert!(names.insert(w.name.clone()), "duplicate {}", w.name);
    }
}
