//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro table1   Table I   (shared / registers / IPC / occupancy)
//! repro fig1     Figure 1  (instruction mix per code)
//! repro fig3     Figure 3  (micro-benchmark FIT rates)
//! repro fig4     Figure 4  (AVF per code, SASSIFI vs NVBitFI)
//! repro fig5     Figure 5  (beam FIT per code, ECC off/on)
//! repro fig6     Figure 6  (fault simulation vs beam ratio)
//! repro due      Section VII-B (DUE underestimation factors)
//! repro gap      Section VII-B closure (DUE gap vs hidden coverage)
//! repro ablate   phi / injector-capability / MBU ablations
//! repro codegen  CUDA7-vs-CUDA10 AVF study (same injector)
//! repro breakdown  per-instruction-class AVF decomposition
//! repro convergence  AVF CI width vs campaign size
//! repro device   full pipeline on a spec-resolved device (--device)
//! repro all      table1, fig1, fig3-fig6, due and gap, in order
//! ```
//!
//! Device selection (anywhere on the command line):
//!
//! ```text
//! --list-devices       print the device registry (builtins plus any
//!                      --device-dir specs) and exit
//! --device NAME|PATH   resolve the target device for `repro device` by
//!                      registry id (k40c, v100, titan-v, a100, ...) or
//!                      by `.spec` file path; recorded in the run report
//! --device-dir DIR     load every `*.spec` under DIR into the registry
//!                      before resolving (bring-your-own-device)
//! ```
//!
//! Observability flags (anywhere on the command line):
//!
//! ```text
//! --metrics-out FILE   write one JSON line per campaign (outcome tallies
//!                      by site class and DUE kind, trials/sec, profile
//!                      φ/IPC/occupancy gauges) to FILE instead of stdout
//! --trace-out FILE     capture a JSONL trace of one demonstration
//!                      injection trial (FMXM on Kepler) to FILE
//! --progress           render a stderr progress meter per campaign
//! --progress-interval MS  minimum milliseconds between progress renders
//!                      (default 200; implies --progress)
//! --checkpoint-dir DIR durable checkpoints: every campaign the command
//!                      starts keeps its own store in DIR/<campaign
//!                      label>/ (e.g. DIR/fig4/Kepler/SASSIFI/FMXM/),
//!                      saves shard-boundary checkpoints there, and a
//!                      re-run resumes each campaign from its last
//!                      checkpoint (kill-safe)
//! --spans-out FILE     write campaign → shard → trial spans, each
//!                      executed trial with its engine phase times, as
//!                      Chrome Trace Event Format JSON (load in
//!                      chrome://tracing or Perfetto)
//! --status-dir DIR     publish status.json + status.prom into DIR every
//!                      second while campaigns run (watch live with
//!                      `campaign-top --dir DIR`; scrape status.prom
//!                      with Prometheus)
//! ```
//!
//! Campaign sizes honor `REPRO_PROFILE=quick|full` (default `quick`).

use std::fs::File;
use std::io::{BufWriter, Write};

use bench::{
    avf_breakdown, codegen_comparison, convergence, device_pipeline, due_analysis, fig1, fig3,
    fig4, fig5, fig6, hidden_gap_closure, render, table1, CampaignObservation, DeviceReport,
    GapClosure, HarnessConfig, ObserveCtx,
};
use gpu_arch::{DeviceRegistry, DeviceSpec};
use obs::RunReport;

struct Flags {
    metrics_out: Option<String>,
    trace_out: Option<String>,
    progress: bool,
    progress_interval: Option<std::time::Duration>,
    checkpoint_dir: Option<String>,
    spans_out: Option<String>,
    status_dir: Option<String>,
    device: Option<String>,
    device_dir: Option<String>,
    list_devices: bool,
}

/// Split observability flags out of the argument list; everything else is
/// returned as positional arguments.
fn parse_flags(args: Vec<String>) -> (Flags, Vec<String>) {
    let mut flags = Flags {
        metrics_out: None,
        trace_out: None,
        progress: false,
        progress_interval: None,
        checkpoint_dir: None,
        spans_out: None,
        status_dir: None,
        device: None,
        device_dir: None,
        list_devices: false,
    };
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    let file_arg = |flag: &str, it: &mut std::vec::IntoIter<String>| match it.next() {
        Some(path) => path,
        None => {
            eprintln!("{flag} requires a FILE argument");
            std::process::exit(2);
        }
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--metrics-out" => flags.metrics_out = Some(file_arg("--metrics-out", &mut it)),
            "--trace-out" => flags.trace_out = Some(file_arg("--trace-out", &mut it)),
            "--progress" => flags.progress = true,
            "--progress-interval" => {
                let ms = file_arg("--progress-interval", &mut it);
                let ms: u64 = ms.parse().unwrap_or_else(|_| {
                    eprintln!("--progress-interval requires a millisecond count, got {ms:?}");
                    std::process::exit(2);
                });
                flags.progress = true;
                flags.progress_interval = Some(std::time::Duration::from_millis(ms));
            }
            "--checkpoint-dir" => {
                flags.checkpoint_dir = Some(file_arg("--checkpoint-dir", &mut it));
            }
            "--spans-out" => flags.spans_out = Some(file_arg("--spans-out", &mut it)),
            "--status-dir" => flags.status_dir = Some(file_arg("--status-dir", &mut it)),
            "--device" => flags.device = Some(file_arg("--device", &mut it)),
            "--device-dir" => flags.device_dir = Some(file_arg("--device-dir", &mut it)),
            "--list-devices" => flags.list_devices = true,
            _ => rest.push(a),
        }
    }
    (flags, rest)
}

/// Capture a JSONL trace of one injection trial: the 11th dynamic
/// single-precision arithmetic instruction of FMXM (tiny, Kepler) has one
/// output bit flipped, and every engine hook point streams to `path`.
fn write_demo_trace(path: &str) {
    use gpu_arch::{CodeGen, Precision};
    use gpu_sim::{BitFlip, ExecStatus, FaultPlan, RunOptions, SiteClass, Target};
    let device = gpu_arch::DeviceModel::named("k40c-sim");
    let w = workloads::build(
        workloads::Benchmark::Mxm,
        Precision::Single,
        CodeGen::Cuda10,
        workloads::Scale::Tiny,
    );
    let file = BufWriter::new(File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {path}: {e}");
        std::process::exit(1);
    }));
    let mut sink = obs::JsonlTraceSink::new(file);
    let opts = RunOptions::trial(FaultPlan::InstructionOutput {
        nth: 10,
        site: SiteClass::FloatArith,
        flip: BitFlip::single(3),
    })
    .ecc(false);
    let out = w.execute_traced(&device, &opts, &mut sink);
    let mut writer = sink.into_inner();
    writer.flush().expect("flush trace file");
    let mut report = RunReport::new("trace");
    report
        .push_str("target", &w.name)
        .push_str("path", path)
        .push_uint("instructions", out.counts.total)
        .push_str(
            "status",
            match out.status {
                ExecStatus::Completed => "completed",
                ExecStatus::Due(kind) => kind.name(),
            },
        );
    println!("{}", report.to_json_line());
}

fn main() {
    let (flags, args) = parse_flags(std::env::args().skip(1).collect());
    let what = args.first().map(String::as_str).unwrap_or("help").to_string();
    let cfg = HarnessConfig::from_env();

    // Device registry: builtins plus any --device-dir overlays; shared by
    // --list-devices and the `device` command's --device resolution.
    let mut registry = DeviceRegistry::builtin().clone();
    if let Some(dir) = &flags.device_dir {
        if let Err(e) = registry.add_dir(std::path::Path::new(dir), false) {
            eprintln!("--device-dir {dir}: {e}");
            std::process::exit(1);
        }
    }
    if flags.list_devices {
        print!("{}", render::device_list(&registry.summaries()));
        return;
    }
    let device_spec: Option<DeviceSpec> = flags.device.as_ref().map(|token| {
        registry.resolve_spec(token).unwrap_or_else(|e| {
            eprintln!("--device {token}: {e}");
            std::process::exit(1);
        })
    });

    if let Some(path) = &flags.trace_out {
        write_demo_trace(path);
        if args.is_empty() {
            return; // trace-only invocation
        }
    }

    // Campaign observations go to --metrics-out when given, stdout
    // otherwise (before the human tables render).
    let mut sink: Box<dyn Write> = match &flags.metrics_out {
        Some(path) => Box::new(BufWriter::new(File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        }))),
        None => Box::new(std::io::stdout()),
    };
    let mut campaigns = 0u64;
    let mut gap_set: Option<GapClosure> = None;
    let mut device_set: Option<DeviceReport> = None;
    let spans = flags.spans_out.as_ref().map(|_| obs::SpanBus::new());
    let publisher = flags.status_dir.as_ref().map(|dir| {
        match obs::SnapshotPublisher::start(dir, std::time::Duration::from_secs(1)) {
            Ok(publisher) => publisher,
            Err(e) => {
                eprintln!("cannot start status publisher in {dir}: {e}");
                std::process::exit(1);
            }
        }
    });
    let (stores, digest) = {
        let mut observe = |o: CampaignObservation| {
            campaigns += 1;
            sink.write_all(o.to_json_line().as_bytes()).expect("write campaign metrics");
            sink.write_all(b"\n").expect("write campaign metrics");
        };
        let mut ctx = ObserveCtx::default();
        ctx.progress = flags.progress;
        ctx.progress_interval = flags.progress_interval;
        ctx.observe = Some(&mut observe);
        ctx.checkpoint_root = flags.checkpoint_dir.as_ref().map(Into::into);
        ctx.spans = spans.as_ref();
        ctx.publisher = publisher.as_ref();

        match what.as_str() {
            "table1" => print!("{}", render::table1(&table1(&cfg, &mut ctx))),
            "fig1" => print!("{}", render::fig1(&fig1(&cfg))),
            "fig3" => print!("{}", render::fig3(&fig3(&cfg, &mut ctx))),
            "fig4" => print!("{}", render::fig4(&fig4(&cfg, &mut ctx))),
            "fig5" => print!("{}", render::fig5(&fig5(&cfg, &mut ctx))),
            "fig6" => {
                let set = fig6(&cfg, &mut ctx);
                print!("{}", render::fig6(&set));
                println!();
                print!("{}", render::due(&due_analysis(&set)));
            }
            "ablate" => print!("{}", bench::ablations::render(&cfg, &mut ctx)),
            "codegen" => print!("{}", render::codegen(&codegen_comparison(&cfg, &mut ctx))),
            "breakdown" => print!("{}", render::breakdown(&avf_breakdown(&cfg, &mut ctx))),
            "convergence" => {
                let rows = convergence(&cfg, &mut ctx, workloads::Benchmark::Hotspot);
                print!("{}", render::convergence(&rows))
            }
            "due" => {
                let set = fig6(&cfg, &mut ctx);
                print!("{}", render::due(&due_analysis(&set)));
            }
            "gap" => {
                let set = hidden_gap_closure(&cfg, &mut ctx);
                print!("{}", render::gap(&set));
                gap_set = Some(set);
            }
            "device" => {
                let Some(spec) = &device_spec else {
                    eprintln!(
                        "repro device requires --device <name|path>; \
                         see --list-devices for the registry"
                    );
                    std::process::exit(2);
                };
                let report = device_pipeline(&cfg, &mut ctx, spec);
                print!("{}", render::device_report(&report));
                device_set = Some(report);
            }
            "all" => {
                print!("{}", render::table1(&table1(&cfg, &mut ctx)));
                println!();
                print!("{}", render::fig1(&fig1(&cfg)));
                println!();
                print!("{}", render::fig3(&fig3(&cfg, &mut ctx)));
                println!();
                print!("{}", render::fig4(&fig4(&cfg, &mut ctx)));
                println!();
                print!("{}", render::fig5(&fig5(&cfg, &mut ctx)));
                println!();
                let set = fig6(&cfg, &mut ctx);
                print!("{}", render::fig6(&set));
                println!();
                print!("{}", render::due(&due_analysis(&set)));
                println!();
                let gaps = hidden_gap_closure(&cfg, &mut ctx);
                print!("{}", render::gap(&gaps));
                gap_set = Some(gaps);
            }
            _ => {
                eprintln!(
                    "usage: repro <table1|fig1|fig3|fig4|fig5|fig6|due|gap|ablate|codegen|convergence|breakdown|device|all>\n\
                     \x20      [--device NAME|PATH] [--device-dir DIR] [--list-devices]\n\
                     \x20      [--metrics-out FILE] [--trace-out FILE] [--progress]\n\
                     \x20      [--progress-interval MS] [--checkpoint-dir DIR]\n\
                     \x20      [--spans-out FILE] [--status-dir DIR]\n\
                     env:   REPRO_PROFILE=quick|full (default quick)"
                );
                std::process::exit(2);
            }
        }
        (ctx.store_log().clone(), ctx.digest())
    };
    // Gap-closure rows join the campaign observations in the metrics
    // stream, one `{"report":"hidden_gap",...}` line per ladder rung.
    if let Some(set) = &gap_set {
        sink.write_all(set.to_json_lines().as_bytes()).expect("write gap metrics");
    }
    // Device comparison rows likewise, one `{"report":"device_row",...}`
    // line per (code, ECC) point.
    if let Some(set) = &device_set {
        sink.write_all(set.to_json_lines().as_bytes()).expect("write device metrics");
    }
    sink.flush().expect("flush metrics");
    for error in &stores.errors {
        eprintln!("checkpoint-store: error: {error}");
    }
    for warning in &stores.warnings {
        eprintln!("checkpoint-store: {warning}");
    }
    if let (Some(bus), Some(path)) = (&spans, &flags.spans_out) {
        bus.write_chrome_trace(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("cannot write spans to {path}: {e}");
            std::process::exit(1);
        });
    }
    drop(publisher); // join the interval thread; final publish on drop

    // Machine-readable run summary, after the human-readable tables.
    let mut report = RunReport::new("run");
    report
        .push_str("command", &what)
        .push_str(
            "profile",
            &std::env::var("REPRO_PROFILE").unwrap_or_else(|_| "quick".to_string()),
        )
        .push_uint("campaigns", campaigns);
    // One digest over every campaign's trials: two runs of a command
    // agree on every trial iff they print the same one.
    if let Some(digest) = digest {
        report.push_str("digest", &format!("{digest:016x}"));
    }
    // Identify the target silicon in the archived run artifact.
    if let Some(spec) = &device_spec {
        report
            .push_str("device", &spec.name)
            .push_str("device_id", &spec.id)
            .push_str("device_arch", spec.arch.name())
            .push_uint("device_sms", spec.sms as u64);
    }
    if let Some(path) = &flags.metrics_out {
        report.push_str("metrics_out", path);
    }
    if let (Some(bus), Some(path)) = (&spans, &flags.spans_out) {
        report.push_str("spans_out", path).push_uint("spans", bus.len() as u64);
    }
    if let Some(dir) = &flags.status_dir {
        report.push_str("status_dir", dir);
    }
    if let Some(dir) = &flags.checkpoint_dir {
        report
            .push_str("checkpoint_dir", dir)
            .push_uint("store_errors", stores.errors.len() as u64)
            .push_uint("store_damage_events", stores.damage_events)
            .push_uint("store_lock_breaks", stores.lock_breaks);
    }
    println!("{}", report.to_json_line());
    // The tables are complete, but a campaign that could not open its
    // checkpoint store ran without kill-safety: fail the run.
    if !stores.errors.is_empty() {
        std::process::exit(1);
    }
}
