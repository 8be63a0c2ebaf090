//! `sass-run` — assemble and execute a SASS-like kernel from a text file
//! on a simulated device.
//!
//! ```text
//! sass-run <file.sass> [--device kepler|volta] [--grid N] [--block N]
//!          [--mem BYTES] [--param WORD]... [--dump OFFSET LEN] [--trace N]
//!          [--trace-out FILE]
//! ```
//!
//! The kernel text uses the `gpu_arch::asm` syntax (see that module's
//! docs). Parameters become the constant bank read by `LDP`; `--dump`
//! hex-dumps a region of global memory after the run. `--trace N` lists
//! the first N retired instructions with their disassembly. `--trace-out`
//! streams every engine hook-point event (instruction retired, memory
//! access, barrier, branch, fault, DUE) as JSON lines to FILE; the run
//! always ends with one machine-readable `{"report":"sass-run",...}`
//! line on stdout. Malformed arguments and launches the simulator rejects
//! (a zero-thread launch, say) exit with status 2.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::process::exit;
use std::str::FromStr;

use gpu_arch::{asm, DeviceModel, Kernel, LaunchConfig};
use gpu_sim::{try_run_with_sink, ExecStatus, GlobalMemory, RunOptions};
use obs::{JsonlTraceSink, RunReport, TraceEvent, TraceSink};

const USAGE: &str = "usage: sass-run <file.sass> [--device kepler|volta] [--grid N] [--block N] \
                     [--mem BYTES] [--param WORD]... [--dump OFF LEN] [--trace N] \
                     [--trace-out FILE]";

struct Args {
    path: String,
    device: DeviceModel,
    grid: u32,
    block: u32,
    mem_bytes: u32,
    params: Vec<u32>,
    dump: Option<(u32, u32)>,
    trace: usize,
    trace_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let path = it.next().ok_or("missing <file.sass>")?.clone();
    let mut out = Args {
        path,
        device: DeviceModel::named("v100-sim"),
        grid: 1,
        block: 32,
        mem_bytes: 4096,
        params: Vec::new(),
        dump: None,
        trace: 0,
        trace_out: None,
    };
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        let mut value =
            || it.next().map(String::as_str).ok_or_else(|| format!("{flag} requires a value"));
        match flag {
            "--device" => {
                out.device = match value()? {
                    "kepler" => DeviceModel::named("k40c-sim"),
                    "volta" => DeviceModel::named("v100-sim"),
                    other => return Err(format!("unknown device `{other}`")),
                }
            }
            "--grid" => out.grid = number(flag, value()?)?,
            "--block" => out.block = number(flag, value()?)?,
            "--mem" => out.mem_bytes = number(flag, value()?)?,
            "--param" => out.params.push(word(value()?)?),
            "--trace" => out.trace = number(flag, value()?)?,
            "--trace-out" => out.trace_out = Some(value()?.to_string()),
            "--dump" => out.dump = Some((word(value()?)?, word(value()?)?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if let Some((off, len)) = out.dump {
        if off.checked_add(len).is_none_or(|end| end > out.mem_bytes) {
            return Err(format!("--dump {off} {len} leaves the {}-byte memory", out.mem_bytes));
        }
    }
    Ok(out)
}

fn number<T: FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {flag} value `{s}`"))
}

/// A 32-bit word in decimal or `0x` hex.
fn word(s: &str) -> Result<u32, String> {
    match s.strip_prefix("0x") {
        Some(h) => u32::from_str_radix(h, 16),
        None => s.parse(),
    }
    .map_err(|_| format!("bad word `{s}`"))
}

/// The run's trace sink: prints the first `remaining` retired
/// instructions with the kernel's disassembly (`--trace N`) and forwards
/// every event to the `--trace-out` stream, if any.
struct Listing<'k> {
    kernel: &'k Kernel,
    remaining: usize,
    jsonl: Option<JsonlTraceSink<BufWriter<File>>>,
}

impl TraceSink for Listing<'_> {
    fn event(&mut self, ev: &TraceEvent) {
        if let TraceEvent::InstrRetired { idx, block, warp, lane, pc, .. } = *ev {
            if self.remaining > 0 {
                self.remaining -= 1;
                let ins = &self.kernel.instrs()[pc as usize];
                if lane == u32::MAX {
                    println!("[{idx:>6}] warp{warp:<3} {ins}");
                } else {
                    println!("[{idx:>6}] b{block} t{lane:<3} /*{pc:04}*/ {ins}");
                }
            }
        }
        if let Some(jsonl) = self.jsonl.as_mut() {
            jsonl.event(ev);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("sass-run: {e}\n{USAGE}");
        exit(2);
    });
    let path = &args.path;
    let source = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    let kernel = asm::assemble(&source).unwrap_or_else(|e| {
        eprintln!("assembly error in {path}: {e}");
        exit(1);
    });

    println!(
        "kernel `{}`: {} instructions, {} regs/thread, {} B shared",
        kernel.name,
        kernel.len(),
        kernel.regs_per_thread,
        kernel.shared_bytes
    );
    let launch = LaunchConfig::new(args.grid, args.block, args.params);
    let jsonl = args.trace_out.as_deref().map(|path| {
        let file = File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            exit(1);
        });
        JsonlTraceSink::new(BufWriter::new(file))
    });
    let mut listing = Listing { kernel: &kernel, remaining: args.trace, jsonl };
    let out = try_run_with_sink(
        &args.device,
        &kernel,
        &launch,
        GlobalMemory::new(args.mem_bytes),
        &RunOptions::golden(),
        Some(&mut listing),
    )
    .unwrap_or_else(|e| {
        eprintln!("sass-run: {e}");
        exit(2);
    });
    if let Some(jsonl) = listing.jsonl {
        if let Err(e) = jsonl.into_inner().flush() {
            eprintln!("cannot write trace file: {e}");
            exit(1);
        }
    }
    match out.status {
        ExecStatus::Completed => println!(
            "completed: {} dynamic instructions, {:.0} modeled cycles, IPC {:.2}",
            out.counts.total, out.timing.cycles, out.timing.ipc
        ),
        ExecStatus::Due(kind) => println!("DUE: {kind}"),
    }
    let mut report = RunReport::new("sass-run");
    report
        .push_str("kernel", &kernel.name)
        .push_str(
            "status",
            match out.status {
                ExecStatus::Completed => "completed",
                ExecStatus::Due(kind) => kind.name(),
            },
        )
        .push_uint("instructions", out.counts.total)
        .push_float("cycles", out.timing.cycles)
        .push_float("ipc", out.timing.ipc)
        .push_float("occupancy", out.timing.achieved_occupancy);
    if let Some(path) = &args.trace_out {
        report.push_str("trace_out", path);
    }
    println!("{}", report.to_json_line());
    if let Some((off, len)) = args.dump {
        println!("memory[{off:#x}..{:#x}]:", off + len);
        let raw = out.memory.raw();
        for row in (off..off + len).step_by(16) {
            print!("  {row:08x}:");
            for b in row..(row + 16).min(off + len) {
                print!(" {:02x}", raw[b as usize]);
            }
            println!();
        }
    }
}
