//! Benchmarks of the simulation substrate itself: golden-run throughput
//! for representative kernels and the cost of one injection/beam run.
//! These are the unit costs every figure campaign pays thousands of
//! times.

mod common;

use common::bench;
use gpu_arch::{CodeGen, DeviceModel, FunctionalUnit, Precision};
use gpu_sim::{BitFlip, FaultPlan, RunOptions, SiteClass, Target};
use workloads::{build, Benchmark, Scale};

fn golden_runs() {
    let kepler = DeviceModel::named("k40c-sim");
    let volta = DeviceModel::named("v100-sim");
    let cases = [
        ("mxm_f32", build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Small)),
        (
            "hotspot_f32",
            build(Benchmark::Hotspot, Precision::Single, CodeGen::Cuda10, Scale::Small),
        ),
        ("mergesort", build(Benchmark::Mergesort, Precision::Int32, CodeGen::Cuda10, Scale::Small)),
        ("yolov2_f32", build(Benchmark::Yolov2, Precision::Single, CodeGen::Cuda10, Scale::Small)),
    ];
    for (name, w) in &cases {
        bench(&format!("golden/{name}"), 20, || w.execute_golden(&kepler));
    }
    let mma = build(Benchmark::GemmMma, Precision::Half, CodeGen::Cuda10, Scale::Small);
    bench("golden/gemm_mma_h16", 20, || mma.execute_golden(&volta));
}

fn fault_runs() {
    let device = DeviceModel::named("k40c-sim");
    let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Small);
    let golden = w.execute_golden(&device);
    let watchdog = golden.counts.total * 4;

    let output = RunOptions::trial(FaultPlan::InstructionOutput {
        nth: 5000,
        site: SiteClass::Unit(FunctionalUnit::Ffma),
        flip: BitFlip::single(12),
    })
    .ecc(false)
    .watchdog(watchdog);
    bench("fault_run/instruction_output", 20, || w.execute(&device, &output));
    let register = RunOptions::trial(FaultPlan::RegisterBit {
        block: 0,
        thread: 7,
        reg: 16,
        flip: BitFlip::single(3),
        at: 10_000,
    })
    .ecc(false)
    .watchdog(watchdog);
    bench("fault_run/register_bit", 20, || w.execute(&device, &register));
}

fn main() {
    golden_runs();
    fault_runs();
}
