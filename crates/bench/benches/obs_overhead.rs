//! Cost of the engine's trace hook points, on the same golden workload:
//!
//! * `no_sink` — `run`, which is `run_with_sink(.., None)`: the disabled
//!   path, one `Option` check per hook point;
//! * `counting_sink` — the cheapest enabled sink, measuring the floor
//!   cost of actually constructing and delivering every event.

mod common;

use common::bench;
use gpu_arch::{CodeGen, DeviceModel, Precision};
use gpu_sim::{run_with_sink, RunOptions, Target};
use obs::CountingSink;
use workloads::{build, Benchmark, Scale};

fn main() {
    let device = DeviceModel::named("k40c-sim");
    let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Small);
    let opts = RunOptions::default();

    bench("obs_overhead/no_sink", 30, || w.execute_golden(&device));
    bench("obs_overhead/counting_sink", 30, || {
        let mut sink = CountingSink::default();
        let out = run_with_sink(
            &device,
            w.kernel(),
            w.launch(),
            w.fresh_memory(),
            &opts,
            Some(&mut sink),
        );
        (out, sink.events)
    });
}
