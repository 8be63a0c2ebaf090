//! Full reliability assessment of one workload: the paper's complete
//! methodology end to end, on a single code.
//!
//! 1. beam-measure the functional units (micro-benchmarks, Figure 3);
//! 2. measure the workload's AVF by fault injection (Figure 4);
//! 3. profile the workload (Table I);
//! 4. predict its FIT from 1-3 (Equations 1-4);
//! 5. beam-measure the workload and compare (Figure 6).
//!
//! ```text
//! cargo run --release --example reliability_assessment [BENCH]
//! ```
//! where `BENCH` is one of `mxm|gemm|hotspot|lava|nw|bfs` (default `hotspot`).

use gpu_reliability::prelude::*;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "hotspot".into());
    let benchmark = match which.as_str() {
        "mxm" => Benchmark::Mxm,
        "gemm" => Benchmark::Gemm,
        "lava" => Benchmark::Lava,
        "nw" => Benchmark::Nw,
        "bfs" => Benchmark::Bfs,
        _ => Benchmark::Hotspot,
    };
    let precision = if benchmark.is_integer() { Precision::Int32 } else { Precision::Single };

    let device = DeviceModel::named("k40c-sim");
    let w = build(benchmark, precision, CodeGen::Cuda10, Scale::Small);
    println!("assessing {} on {}\n", w.name, device.name);

    // 1. Characterize the functional units with beam micro-benchmarks.
    println!("[1/5] characterizing functional units (beam micro-benchmarks)...");
    let benches = microbench_suite();
    let char_cfg = CharacterizeConfig {
        beam: Budget::fixed(2000).seed(11),
        injection: Budget::fixed(150).seed(11),
    };
    let units = characterize_units(&mut DirectRunner, &device, &benches, &char_cfg)
        .expect("unit characterization");
    for u in [FunctionalUnit::Fadd, FunctionalUnit::Ffma, FunctionalUnit::Iadd] {
        println!("      {u}: SDC FIT/work {:.3e}", units.sdc_per_work(u));
    }

    // 2. AVF by injection.
    println!("[2/5] measuring AVF (NVBitFI, 600 injections)...");
    let avf = Campaign::new(Avf::new(Injector::NvBitFi), &w, &device)
        .budget(Budget::fixed(600).seed(11))
        .run()
        .unwrap();
    println!("      SDC {:.3}  DUE {:.3}  Masked {:.3}", avf.sdc_avf(), avf.due_avf(), avf.masked);

    // 3. Profile.
    println!("[3/5] profiling...");
    let prof = profile(&w, &device);
    println!("      IPC {:.2}  occupancy {:.2}  phi {:.2}", prof.ipc, prof.occupancy, prof.phi);

    // 4. Predict.
    println!("[4/5] predicting FIT (Equations 1-4)...");
    let feet = memory_footprint(&w, &device, &prof);
    let pred_on = predict(&prof, &avf, &units, &feet, &PredictOptions { ecc: true, use_phi: true });
    let pred_off =
        predict(&prof, &avf, &units, &feet, &PredictOptions { ecc: false, use_phi: true });
    println!(
        "      predicted SDC FIT: ECC on {:.3e} | ECC off {:.3e}",
        pred_on.sdc_fit, pred_off.sdc_fit
    );

    // 5. Beam-measure and compare.
    println!("[5/5] beam campaigns (ECC on and off)...");
    let beam_budget = Budget::fixed(4000).seed(11);
    let beam_on =
        Campaign::new(Beam::auto(true), &w, &device).budget(beam_budget.clone()).run().unwrap();
    let beam_off = Campaign::new(Beam::auto(false), &w, &device).budget(beam_budget).run().unwrap();
    let row_on = compare(&w.name, &beam_on, &pred_on);
    let row_off = compare(&w.name, &beam_off, &pred_off);
    println!("\n== {} ==", w.name);
    println!(
        "   ECC ON : beam {:.3e}  predicted {:.3e}  ratio {:+.1}",
        row_on.measured_sdc, row_on.predicted_sdc, row_on.sdc_ratio
    );
    println!(
        "   ECC OFF: beam {:.3e}  predicted {:.3e}  ratio {:+.1}",
        row_off.measured_sdc, row_off.predicted_sdc, row_off.sdc_ratio
    );
    println!("   DUE underestimation (ECC on): {:.0}x", row_on.due_underestimation);
    println!("\n(the paper finds most SDC ratios within 5x and DUEs underestimated by orders of magnitude)");
}

fn microbench_suite() -> Vec<microbench::MicroBench> {
    gpu_reliability::microbench::suite(&DeviceModel::named("k40c"))
}

use gpu_reliability::microbench;
