//! Golden-output validation: every workload must complete fault-free and
//! match its bit-exact host reference.

use gpu_arch::{CodeGen, DeviceModel, Precision};
use gpu_sim::{ExecStatus, Target};
use workloads::{build, read_elem, Benchmark, Scale, Workload};

fn run_ok(w: &Workload, device: &DeviceModel) -> gpu_sim::Executed {
    let out = w.execute_golden(device);
    assert_eq!(out.status, ExecStatus::Completed, "{} did not complete", w.name);
    out
}

fn check_region(w: &Workload, out: &gpu_sim::Executed, offset: u32, expect: &[f64]) {
    let elem = w.precision.size_bytes();
    for (i, &e) in expect.iter().enumerate() {
        let got = read_elem(&out.memory, w.precision, offset + i as u32 * elem);
        assert!(
            got == e || (got.is_nan() && e.is_nan()),
            "{}: element {i}: got {got}, expected {e}",
            w.name
        );
    }
}

fn out_offset(w: &Workload) -> u32 {
    match &w.compare {
        workloads::CompareSpec::ExactRegion { offset, .. } => *offset,
        workloads::CompareSpec::Classification { offset, .. } => *offset,
    }
}

// ------------------------------------------------------------- matmul ---

fn mxm_reference(prec: Precision, n: u32) -> Vec<f64> {
    use workloads::prec_host::{fma, quantize};
    let a = |i: u32, j: u32| quantize(prec, workloads::matmul_input(0, i, j));
    let b = |i: u32, j: u32| quantize(prec, workloads::matmul_input(1, i, j));
    let mut c = vec![0.0; (n * n) as usize];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc = fma(prec, a(i, k), b(k, j), acc);
            }
            c[(i * n + j) as usize] = acc;
        }
    }
    c
}

#[test]
fn mxm_all_precisions_match_reference() {
    let kepler = DeviceModel::named("k40c-sim");
    let volta = DeviceModel::named("v100-sim");
    for (prec, device) in
        [(Precision::Single, &kepler), (Precision::Half, &volta), (Precision::Double, &volta)]
    {
        for cg in [CodeGen::Cuda7, CodeGen::Cuda10] {
            let w = build(Benchmark::Mxm, prec, cg, Scale::Tiny);
            let out = run_ok(&w, device);
            check_region(&w, &out, out_offset(&w), &mxm_reference(prec, 16));
        }
    }
}

#[test]
fn gemm_matches_mxm_results() {
    // The tiled GEMM computes the same product as the naive kernel when
    // the reduction order coincides (tiles iterate k in order).
    let device = DeviceModel::named("v100-sim");
    for prec in [Precision::Single, Precision::Double, Precision::Half] {
        let w = build(Benchmark::Gemm, prec, CodeGen::Cuda10, Scale::Tiny);
        let out = run_ok(&w, &device);
        check_region(&w, &out, out_offset(&w), &mxm_reference(prec, 16));
    }
}

#[test]
fn gemm_mma_matches_tensor_reference() {
    use softfloat::F16;
    let device = DeviceModel::named("v100-sim");
    for prec in [Precision::Half, Precision::Single] {
        let w = build(Benchmark::GemmMma, prec, CodeGen::Cuda10, Scale::Tiny);
        let out = run_ok(&w, &device);
        // Reference: f16 inputs, f32 accumulate per 16-wide fragment with
        // a (16x16x16) MMA per step; HMMA rounds the accumulator to f16
        // after each MMA.
        let n = 16u32;
        let q = |v: f64| {
            if prec == Precision::Half {
                F16::from_f64(v).to_f64()
            } else {
                v as f32 as f64
            }
        };
        let a = |i: u32, j: u32| F16::from_f64(q(workloads::matmul_input(0, i, j))).to_f32();
        let b = |i: u32, j: u32| F16::from_f64(q(workloads::matmul_input(1, i, j))).to_f32();
        let elem = prec.size_bytes();
        let c_base = out_offset(&w);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0f32;
                for k in 0..n {
                    acc += a(i, k) * b(k, j);
                }
                let expect =
                    if prec == Precision::Half { F16::from_f32(acc).to_f64() } else { acc as f64 };
                let got = read_elem(&out.memory, prec, c_base + (i * n + j) * elem);
                assert_eq!(got, expect, "{} element ({i},{j})", w.name);
            }
        }
    }
}

// ------------------------------------------------------------ stencil ---

#[test]
fn hotspot_matches_reference() {
    let volta = DeviceModel::named("v100-sim");
    for prec in [Precision::Half, Precision::Single, Precision::Double] {
        for cg in [CodeGen::Cuda7, CodeGen::Cuda10] {
            let w = build(Benchmark::Hotspot, prec, cg, Scale::Tiny);
            let out = run_ok(&w, &volta);
            let expect = workloads::hotspot_reference(prec, 8);
            check_region(&w, &out, out_offset(&w), &expect);
        }
    }
}

// --------------------------------------------------------------- lava ---

#[test]
fn lava_matches_reference() {
    let volta = DeviceModel::named("v100-sim");
    for prec in [Precision::Half, Precision::Single, Precision::Double] {
        let w = build(Benchmark::Lava, prec, CodeGen::Cuda10, Scale::Tiny);
        let out = run_ok(&w, &volta);
        let expect = workloads::lava_reference(prec, 2);
        check_region(&w, &out, out_offset(&w), &expect);
    }
}

// ------------------------------------------------------------- linalg ---

#[test]
fn gaussian_matches_reference() {
    let kepler = DeviceModel::named("k40c-sim");
    for cg in [CodeGen::Cuda7, CodeGen::Cuda10] {
        let w = build(Benchmark::Gaussian, Precision::Single, cg, Scale::Tiny);
        let out = run_ok(&w, &kepler);
        let expect = workloads::gaussian_reference(Precision::Single, 8);
        check_region(&w, &out, out_offset(&w), &expect);
    }
}

#[test]
fn lud_matches_reference() {
    let kepler = DeviceModel::named("k40c-sim");
    let w = build(Benchmark::Lud, Precision::Single, CodeGen::Cuda10, Scale::Tiny);
    let out = run_ok(&w, &kepler);
    let expect = workloads::lud_reference(Precision::Single, 8);
    check_region(&w, &out, out_offset(&w), &expect);
}

// -------------------------------------------------------------- graph ---

#[test]
fn nw_matches_reference() {
    let kepler = DeviceModel::named("k40c-sim");
    let w = build(Benchmark::Nw, Precision::Int32, CodeGen::Cuda10, Scale::Tiny);
    let out = run_ok(&w, &kepler);
    let expect: Vec<f64> = workloads::nw_reference(16).into_iter().map(|v| v as f64).collect();
    check_region(&w, &out, out_offset(&w), &expect);
}

#[test]
fn bfs_matches_reference() {
    let kepler = DeviceModel::named("k40c-sim");
    let w = build(Benchmark::Bfs, Precision::Int32, CodeGen::Cuda7, Scale::Tiny);
    let out = run_ok(&w, &kepler);
    let expect: Vec<f64> = workloads::bfs_reference(32, 8).into_iter().map(|v| v as f64).collect();
    check_region(&w, &out, out_offset(&w), &expect);
}

#[test]
fn ccl_matches_reference() {
    let kepler = DeviceModel::named("k40c-sim");
    let w = build(Benchmark::Ccl, Precision::Int32, CodeGen::Cuda10, Scale::Tiny);
    let out = run_ok(&w, &kepler);
    let expect: Vec<f64> = workloads::ccl_reference(8, 8).into_iter().map(|v| v as f64).collect();
    check_region(&w, &out, out_offset(&w), &expect);
}

// --------------------------------------------------------------- sort ---

#[test]
fn mergesort_sorts() {
    let kepler = DeviceModel::named("k40c-sim");
    let w = build(Benchmark::Mergesort, Precision::Int32, CodeGen::Cuda10, Scale::Tiny);
    let out = run_ok(&w, &kepler);
    let expect: Vec<f64> =
        workloads::mergesort_reference(64).into_iter().map(|v| v as f64).collect();
    check_region(&w, &out, out_offset(&w), &expect);
}

#[test]
fn quicksort_sorts_chunks() {
    let kepler = DeviceModel::named("k40c-sim");
    let w = build(Benchmark::Quicksort, Precision::Int32, CodeGen::Cuda7, Scale::Tiny);
    let out = run_ok(&w, &kepler);
    let expect: Vec<f64> =
        workloads::quicksort_reference(8).into_iter().map(|v| v as f64).collect();
    check_region(&w, &out, out_offset(&w), &expect);
}

// ---------------------------------------------------------------- cnn ---

#[test]
fn yolo_scores_match_reference() {
    let volta = DeviceModel::named("v100-sim");
    for version in [2u32, 3] {
        for prec in [Precision::Half, Precision::Single] {
            let bench = if version == 2 { Benchmark::Yolov2 } else { Benchmark::Yolov3 };
            let w = build(bench, prec, CodeGen::Cuda10, Scale::Tiny);
            let out = run_ok(&w, &volta);
            let expect = workloads::yolo_reference(version, prec, Scale::Tiny);
            check_region(&w, &out, out_offset(&w), &expect);
        }
    }
}

// -------------------------------------------------------------- suite ---

#[test]
fn kepler_suite_builds_and_completes() {
    let kepler = DeviceModel::named("k40c-sim");
    for w in workloads::kepler_suite(CodeGen::Cuda7, Scale::Tiny) {
        let out = w.execute_golden(&kepler);
        assert_eq!(out.status, ExecStatus::Completed, "{}", w.name);
        assert!(out.counts.total > 0, "{}", w.name);
        // Self-comparison always matches.
        assert!(w.output_matches(&out, &out), "{}", w.name);
    }
}

#[test]
fn volta_suite_builds_and_completes() {
    let volta = DeviceModel::named("v100-sim");
    for w in workloads::volta_suite(Scale::Tiny) {
        let out = w.execute_golden(&volta);
        assert_eq!(out.status, ExecStatus::Completed, "{}", w.name);
        assert!(w.output_matches(&out, &out), "{}", w.name);
    }
}
