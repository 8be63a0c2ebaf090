//! Quickstart: run one workload on the simulated GPU, profile it, inject
//! one fault, and see what happens.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gpu_reliability::prelude::*;

fn main() {
    // A Volta-class campaign device (single SM; see DESIGN.md) and the
    // naive matrix-multiplication workload in single precision.
    let device = DeviceModel::named("v100-sim");
    let mxm = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, Scale::Small);

    // 1. Fault-free (golden) execution.
    let golden = mxm.execute_golden(&device);
    assert_eq!(golden.status, ExecStatus::Completed);
    println!("== golden run of {} ==", mxm.name);
    println!("   dynamic instructions : {}", golden.counts.total);
    println!("   modeled cycles       : {:.0}", golden.timing.cycles);
    println!("   executed IPC         : {:.2}", golden.timing.ipc);
    println!("   achieved occupancy   : {:.2}", golden.timing.achieved_occupancy);

    // 2. Profile: the Table I / Figure 1 view.
    let profile = profile(&mxm, &device);
    println!("\n== profile ==");
    println!("   registers/thread     : {}", profile.regs_per_thread);
    println!("   shared mem/block     : {} B", profile.shared_bytes);
    println!("   phi (occ x IPC)      : {:.2}", profile.phi);
    print!("   instruction mix      :");
    for cat in MixCategory::ALL {
        print!(" {cat}={:.0}%", profile.mix(cat) * 100.0);
    }
    println!();

    // 3. Inject a single bit flip into the 1000th FFMA's output, the way
    //    an architecture-level injector does.
    let opts = RunOptions::trial(FaultPlan::InstructionOutput {
        nth: 1000,
        site: SiteClass::Unit(FunctionalUnit::Ffma),
        flip: BitFlip::single(30),
    })
    .ecc(false)
    .watchdog(golden.counts.total * 4);
    let faulty = mxm.execute(&device, &opts);
    let outcome = match faulty.status {
        ExecStatus::Due(kind) => format!("DUE ({kind})"),
        ExecStatus::Completed if mxm.output_matches(&golden, &faulty) => "Masked".to_string(),
        ExecStatus::Completed => "SDC (corrupted output)".to_string(),
    };
    println!("\n== single injected fault ==");
    println!("   flipped bit 30 of FFMA #1000 -> {outcome}");

    // 4. An adaptive AVF campaign (Figure 4 in miniature). The engine
    //    stops as soon as the Wilson 95% CI half-width on the SDC and DUE
    //    proportions reaches the quick-profile target, or at the ceiling.
    let budget = Budget::quick().seed(7);
    let ceiling = budget.ceiling;
    let (avf, outcome) = Campaign::new(Avf::new(Injector::NvBitFi), &mxm, &device)
        .budget(budget)
        .run_full()
        .unwrap();
    println!("\n== NVBitFI AVF, adaptive campaign ==");
    println!("   SDC {:.2}  DUE {:.2}  Masked {:.2}", avf.sdc_avf(), avf.due_avf(), avf.masked);
    match outcome.stop {
        StopReason::CiTarget { half_width, trials } => println!(
            "   stopped early: {trials} of {ceiling} budgeted trials \
             (95% CI half-width {half_width:.3})"
        ),
        StopReason::Ceiling => println!("   ran to the {ceiling}-trial ceiling"),
    }
}
