//! Cross-crate integration tests: the paper's methodology end to end, at
//! test scale, asserting the qualitative findings the reproduction is
//! supposed to preserve.

use gpu_reliability::prelude::*;

fn tiny(benchmark: Benchmark, precision: Precision, codegen: CodeGen) -> Workload {
    build(benchmark, precision, codegen, Scale::Tiny)
}

fn avf(
    injector: Injector,
    w: &Workload,
    device: &DeviceModel,
    trials: u32,
    seed: u64,
) -> AvfResult {
    Campaign::new(Avf::new(injector), w, device)
        .budget(Budget::fixed(trials).seed(seed))
        .run()
        .unwrap()
}

fn beam(w: &Workload, device: &DeviceModel, runs: u32, ecc: bool, seed: u64) -> BeamResult {
    Campaign::new(Beam::auto(ecc), w, device).budget(Budget::fixed(runs).seed(seed)).run().unwrap()
}

#[test]
fn every_workload_runs_on_its_device() {
    let kepler = DeviceModel::named("k40c-sim");
    let volta = DeviceModel::named("v100-sim");
    for w in kepler_suite(CodeGen::Cuda7, Scale::Tiny) {
        assert_eq!(w.execute_golden(&kepler).status, ExecStatus::Completed, "{}", w.name);
    }
    for w in volta_suite(Scale::Tiny) {
        assert_eq!(w.execute_golden(&volta).status, ExecStatus::Completed, "{}", w.name);
    }
}

#[test]
fn beam_and_injection_agree_on_determinism() {
    let device = DeviceModel::named("k40c-sim");
    let w = tiny(Benchmark::Hotspot, Precision::Single, CodeGen::Cuda10);
    let a = avf(Injector::NvBitFi, &w, &device, 80, 5);
    let b = avf(Injector::NvBitFi, &w, &device, 80, 5);
    assert_eq!(a.counts, b.counts);
    let ba = beam(&w, &device, 400, true, 5);
    let bb = beam(&w, &device, 400, true, 5);
    assert_eq!(ba.counts, bb.counts);
}

#[test]
fn sassifi_capability_matrix_matches_paper() {
    let kepler = DeviceModel::named("k40c-sim");
    let volta = DeviceModel::named("v100-sim");
    let mxm = tiny(Benchmark::Mxm, Precision::Single, CodeGen::Cuda7);
    let gemm = tiny(Benchmark::Gemm, Precision::Single, CodeGen::Cuda7);
    let yolo = tiny(Benchmark::Yolov2, Precision::Single, CodeGen::Cuda7);
    // SASSIFI: Kepler only, no proprietary libraries.
    assert!(Injector::Sassifi.supports(&mxm, &kepler).is_ok());
    assert!(Injector::Sassifi.supports(&mxm, &volta).is_err());
    assert!(Injector::Sassifi.supports(&gemm, &kepler).is_err());
    assert!(Injector::Sassifi.supports(&yolo, &kepler).is_err());
    // NVBitFI: everything.
    assert!(Injector::NvBitFi.supports(&gemm, &volta).is_ok());
    assert!(Injector::NvBitFi.supports(&yolo, &kepler).is_ok());
}

#[test]
fn cnn_avf_is_far_below_matrix_multiply() {
    // Section VI: "CNN's AVF is extremely low" thanks to classification
    // tolerance, while matrix multiplication has the highest AVF.
    let device = DeviceModel::named("v100-sim");
    let mxm = tiny(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10);
    let yolo = tiny(Benchmark::Yolov2, Precision::Single, CodeGen::Cuda10);
    let mxm_avf = avf(Injector::NvBitFi, &mxm, &device, 250, 9);
    let yolo_avf = avf(Injector::NvBitFi, &yolo, &device, 250, 9);
    assert!(
        yolo_avf.sdc_avf() < mxm_avf.sdc_avf() / 3.0,
        "yolo {} !<< mxm {}",
        yolo_avf.sdc_avf(),
        mxm_avf.sdc_avf()
    );
}

#[test]
fn integer_codes_have_lower_sdc_avf_than_float_codes() {
    // Section VI: floating-point codes (Gaussian, LUD, MxM, Lava) have
    // the highest AVF; integer codes (CCL & friends) the smallest.
    let device = DeviceModel::named("k40c-sim");
    let lava = tiny(Benchmark::Lava, Precision::Single, CodeGen::Cuda7);
    let ccl = tiny(Benchmark::Ccl, Precision::Int32, CodeGen::Cuda7);
    let lava_avf = avf(Injector::Sassifi, &lava, &device, 250, 13);
    let ccl_avf = avf(Injector::Sassifi, &ccl, &device, 250, 13);
    assert!(
        ccl_avf.sdc_avf() < lava_avf.sdc_avf(),
        "ccl {} !< lava {}",
        ccl_avf.sdc_avf(),
        lava_avf.sdc_avf()
    );
}

#[test]
fn ecc_reduces_beam_sdc_rate() {
    let device = DeviceModel::named("k40c-sim");
    let w = tiny(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10);
    let off = beam(&w, &device, 2500, false, 21);
    let on = beam(&w, &device, 2500, true, 21);
    assert!(
        off.sdc_fit.fit > 1.5 * on.sdc_fit.fit,
        "ECC off {} !>> on {}",
        off.sdc_fit.fit,
        on.sdc_fit.fit
    );
}

#[test]
fn volta_fit_grows_with_precision() {
    // Section VI: "for all the codes, independent of the ECC status,
    // increasing the precision increases the code FIT rate."
    let device = DeviceModel::named("v100-sim");
    let mut fits = Vec::new();
    for p in [Precision::Half, Precision::Single, Precision::Double] {
        let w = build(Benchmark::Mxm, p, CodeGen::Cuda10, Scale::Tiny);
        let r = beam(&w, &device, 4000, false, 17);
        fits.push((w.name.clone(), r.sdc_fit.fit));
    }
    assert!(fits[0].1 < fits[2].1, "H {} !< D {} ({fits:?})", fits[0].1, fits[2].1);
}

#[test]
fn prediction_pipeline_produces_finite_comparisons() {
    let device = DeviceModel::named("k40c-sim");
    let benches = gpu_reliability::microbench::suite(&device);
    let units = characterize_units(
        &mut DirectRunner,
        &device,
        &benches,
        &CharacterizeConfig {
            beam: Budget::fixed(500).seed(31),
            injection: Budget::fixed(60).seed(31),
        },
    )
    .expect("unit characterization");
    let w = tiny(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10);
    let prof = profile(&w, &device);
    let w_avf = avf(Injector::NvBitFi, &w, &device, 120, 31);
    let feet = memory_footprint(&w, &device, &prof);
    let pred = predict(&prof, &w_avf, &units, &feet, &PredictOptions::default());
    let beam_res = beam(&w, &device, 1200, true, 31);
    let row = compare(&w.name, &beam_res, &pred);
    assert!(row.sdc_ratio.is_finite());
    assert!(row.due_underestimation > 1.0, "DUE factor {}", row.due_underestimation);
}

#[test]
fn phi_factor_changes_prediction_by_the_profiled_phi() {
    let device = DeviceModel::named("k40c-sim");
    let benches = gpu_reliability::microbench::suite(&device);
    let units = characterize_units(
        &mut DirectRunner,
        &device,
        &benches,
        &CharacterizeConfig {
            beam: Budget::fixed(400).seed(37),
            injection: Budget::fixed(50).seed(37),
        },
    )
    .expect("unit characterization");
    let w = tiny(Benchmark::Hotspot, Precision::Single, CodeGen::Cuda10);
    let prof = profile(&w, &device);
    let w_avf = avf(Injector::NvBitFi, &w, &device, 100, 37);
    let feet = memory_footprint(&w, &device, &prof);
    let with_phi =
        predict(&prof, &w_avf, &units, &feet, &PredictOptions { ecc: true, use_phi: true });
    let without =
        predict(&prof, &w_avf, &units, &feet, &PredictOptions { ecc: true, use_phi: false });
    let ratio = with_phi.sdc_fit / without.sdc_fit;
    assert!((ratio - prof.phi).abs() < 1e-9, "ratio {ratio} != phi {}", prof.phi);
}

#[test]
fn hidden_resources_dominate_due_but_not_sdc() {
    // The structural claim behind Section VII-B: beam DUEs mostly come
    // from channels no injector can reach.
    let device = DeviceModel::named("k40c-sim");
    let w = tiny(Benchmark::Gaussian, Precision::Single, CodeGen::Cuda10);
    let r = beam(&w, &device, 3000, true, 41);
    assert!(r.due_fit.fit > r.sdc_fit.fit, "DUE {} !> SDC {}", r.due_fit.fit, r.sdc_fit.fit);
}
