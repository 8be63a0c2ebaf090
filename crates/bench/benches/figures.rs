//! Benchmarks wrapping each table/figure regeneration at
//! micro campaign sizes — one bench target per experiment, as the
//! per-experiment index in DESIGN.md requires. (The `repro` binary runs
//! the full-size versions; these measure the harness cost itself.)

mod common;

use beam::Beam;
use campaign::{Budget, Campaign, DirectRunner};
use common::bench;
use gpu_arch::{CodeGen, DeviceModel, Precision};
use injector::{Avf, Injector};
use prediction::{
    characterize_units, memory_footprint, predict, CharacterizeConfig, PredictOptions,
};
use profiler::profile;
use workloads::{build, Benchmark, Scale};

fn table1_profiles() {
    let device = DeviceModel::named("k40c-sim");
    let w = build(Benchmark::Gemm, Precision::Single, CodeGen::Cuda10, Scale::Small);
    bench("table1_profile_one_code", 10, || profile(&w, &device));
}

fn fig1_mix() {
    let device = DeviceModel::named("k40c-sim");
    let w = build(Benchmark::Lava, Precision::Single, CodeGen::Cuda7, Scale::Small);
    bench("fig1_mix_one_code", 10, || profile(&w, &device).mix_fractions);
}

fn fig3_microbench() {
    let device = DeviceModel::named("k40c-sim");
    let mb = microbench::arith(gpu_arch::FunctionalUnit::Fadd);
    bench("fig3/beam_one_microbench_500_runs", 10, || {
        Campaign::new(Beam::auto(true), &mb, &device)
            .budget(Budget::fixed(500).seed(1))
            .run()
            .unwrap()
    });
}

fn fig4_avf() {
    let device = DeviceModel::named("k40c-sim");
    let w = build(Benchmark::Hotspot, Precision::Single, CodeGen::Cuda7, Scale::Tiny);
    bench("fig4/avf_campaign_100_injections", 10, || {
        Campaign::new(Avf::new(Injector::Sassifi), &w, &device)
            .budget(Budget::fixed(100).seed(1))
            .run()
            .unwrap()
    });
}

fn fig5_beam() {
    let device = DeviceModel::named("k40c-sim");
    let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Tiny);
    bench("fig5/beam_campaign_500_runs", 10, || {
        Campaign::new(Beam::auto(false), &w, &device)
            .budget(Budget::fixed(500).seed(1))
            .run()
            .unwrap()
    });
}

fn fig6_prediction() {
    // The prediction step itself (unit characterization amortized out).
    let device = DeviceModel::named("k40c-sim");
    let units = characterize_units(
        &mut DirectRunner,
        &device,
        &microbench::suite(&device),
        &CharacterizeConfig {
            beam: Budget::fixed(300).seed(1),
            injection: Budget::fixed(40).seed(1),
        },
    )
    .expect("unit characterization");
    let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Tiny);
    let prof = profile(&w, &device);
    let avf = Campaign::new(Avf::new(Injector::NvBitFi), &w, &device)
        .budget(Budget::fixed(60).seed(1))
        .run()
        .unwrap();
    let feet = memory_footprint(&w, &device, &prof);
    bench("fig6_predict_one_code", 10, || {
        predict(&prof, &avf, &units, &feet, &PredictOptions::default())
    });
}

fn ablate_phi() {
    // The phi ablation: predictions with and without Equation 4's factor
    // (accuracy consequences are reported by `repro ablate`; this measures
    // that toggling phi is free).
    let device = DeviceModel::named("k40c-sim");
    let units = characterize_units(
        &mut DirectRunner,
        &device,
        &microbench::suite(&device),
        &CharacterizeConfig {
            beam: Budget::fixed(300).seed(2),
            injection: Budget::fixed(40).seed(2),
        },
    )
    .expect("unit characterization");
    let w = build(Benchmark::Hotspot, Precision::Single, CodeGen::Cuda10, Scale::Tiny);
    let prof = profile(&w, &device);
    let avf = Campaign::new(Avf::new(Injector::NvBitFi), &w, &device)
        .budget(Budget::fixed(60).seed(2))
        .run()
        .unwrap();
    let feet = memory_footprint(&w, &device, &prof);
    bench("ablate_phi_toggle", 10, || {
        let a = predict(&prof, &avf, &units, &feet, &PredictOptions { ecc: true, use_phi: true });
        let b = predict(&prof, &avf, &units, &feet, &PredictOptions { ecc: true, use_phi: false });
        (a.sdc_fit, b.sdc_fit)
    });
}

fn main() {
    table1_profiles();
    fig1_mix();
    fig3_microbench();
    fig4_avf();
    fig5_beam();
    fig6_prediction();
    ablate_phi();
}
