//! `sass-lint` — static verifier for SASS-like kernels.
//!
//! ```text
//! sass-lint <file.sass> [--grid N] [--block N] [--param WORD]...
//!           [--global-bytes N] [--deny-warnings] [--allow LINT]...
//!           [--format text|json] [--verdicts]
//! sass-lint --workloads [--deny-warnings] [--allow LINT]...
//!           [--format text|json] [--verdicts]
//! ```
//!
//! Runs the `sass-analysis` verifier (CFG + dataflow lints: uninitialized
//! register reads, dead GPR and predicate writes, unreachable blocks,
//! redundant guards, barriers under divergent control flow,
//! unsynchronized shared-memory access pairs, out-of-range `LDP`
//! parameter indices) over a kernel assembled from `gpu_arch::asm` text,
//! or — with `--workloads` — over every built-in paper workload kernel.
//!
//! Beyond the lints, every kernel gets a **fault-verdict summary**: the
//! value-flow verdict lattice (`sass_analysis::verdict`) partitions the
//! kernel's injectable site bits into masked / proven-DUE / store /
//! addr+ctl / unknown strata and derives the static SDC/DUE upper
//! bounds. `--verdicts` additionally prints the per-site verdict table
//! (single-file mode) or the per-kernel strata summary (`--workloads`).
//!
//! Launch flags give the verifier and the verdict pass the launch
//! context the bounds checks need: `--param` words populate the constant
//! bank `LDP` reads, `--global-bytes` sizes the out-of-bounds proofs.
//!
//! `--allow LINT` (repeatable, by stable lint name, e.g.
//! `--allow dead-write`) exempts a lint from the exit-status computation
//! — its diagnostics are still printed/serialized, flagged `allowed` —
//! so CI can deny warnings without chasing intentional fixtures.
//!
//! `--format json` emits one machine-readable document on stdout
//! (per-kernel diagnostics plus the verdict summary) for CI artifacts.
//!
//! Exit status: 0 clean, 1 non-allowed diagnostics at error severity (or
//! any non-allowed diagnostic under `--deny-warnings`), 2 usage error.

use gpu_arch::{asm, CodeGen, Kernel, LaunchConfig};
use sass_analysis::{
    analyze, verify_with_launch, AnalysisContext, Diagnostic, Severity, VerdictSummary,
};
use workloads::{kepler_suite, volta_suite, Scale};

/// Stable names of every lint, for `--allow` validation.
const LINT_NAMES: [&str; 8] = [
    "uninitialized-read",
    "dead-write",
    "unreachable-block",
    "divergent-barrier",
    "shared-race",
    "ldp-out-of-range",
    "dead-predicate-write",
    "redundant-guard",
];

const USAGE: &str = "usage: sass-lint <file.sass> [--grid N] [--block N] [--param WORD]... [--global-bytes N] [--deny-warnings] [--allow LINT]... [--format text|json] [--verdicts]\n       sass-lint --workloads [--deny-warnings] [--allow LINT]... [--format text|json] [--verdicts]";

enum Format {
    Text,
    Json,
}

/// Everything reported about one kernel.
struct KernelReport {
    name: String,
    diags: Vec<Diagnostic>,
    summary: VerdictSummary,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_error("no arguments");
    }

    let mut path: Option<String> = None;
    let mut all_workloads = false;
    let mut deny_warnings = false;
    let mut verdicts = false;
    let mut format = Format::Text;
    let mut allowed: Vec<String> = Vec::new();
    let mut grid = 1u32;
    let mut block = 32u32;
    let mut global_bytes: Option<u64> = None;
    let mut params = Vec::new();

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        // The flag's value: the next argument, which must be there.
        let mut value = || {
            i += 1;
            args.get(i)
                .map(String::as_str)
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match flag {
            "--workloads" => all_workloads = true,
            "--deny-warnings" => deny_warnings = true,
            "--verdicts" => verdicts = true,
            "--format" => {
                format = match value() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => usage_error(&format!("bad --format `{other}` (expected text|json)")),
                };
            }
            "--allow" => {
                let name = value();
                if !LINT_NAMES.contains(&name) {
                    usage_error(&format!(
                        "unknown lint `{name}` for --allow (one of: {})",
                        LINT_NAMES.join(", ")
                    ));
                }
                allowed.push(name.to_string());
            }
            "--grid" => grid = number(flag, value()),
            "--block" => block = number(flag, value()),
            "--global-bytes" => global_bytes = Some(number(flag, value())),
            "--param" => params.push(parse_word(value())),
            other if other.starts_with("--") => usage_error(&format!("unknown flag `{other}`")),
            file => {
                if path.replace(file.to_string()).is_some() {
                    usage_error("multiple input files given");
                }
            }
        }
        i += 1;
    }

    let mut reports = Vec::new();
    if all_workloads {
        let mut suites = kepler_suite(CodeGen::Cuda7, Scale::Tiny);
        suites.extend(kepler_suite(CodeGen::Cuda10, Scale::Tiny));
        suites.extend(volta_suite(Scale::Tiny));
        for w in &suites {
            use gpu_sim::Target;
            let ctx = AnalysisContext::for_launch(&w.launch, w.fresh_memory().len() as u64);
            reports.push(KernelReport {
                name: w.name.clone(),
                diags: verify_with_launch(&w.kernel, &w.launch),
                summary: analyze(&w.kernel, &ctx).summary(),
            });
        }
    } else {
        let Some(path) = path else { usage_error("no input file (or pass --workloads)") };
        let source = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        let kernel = match asm::assemble(&source) {
            Ok(k) => k,
            Err(e) => {
                eprintln!("assembly error in {path}: {e}");
                std::process::exit(1);
            }
        };
        let launch = LaunchConfig::new(grid, block, params);
        let ctx = AnalysisContext { launch: Some(launch.clone()), global_bytes };
        reports.push(KernelReport {
            name: kernel.name.clone(),
            diags: verify_with_launch(&kernel, &launch),
            summary: analyze(&kernel, &ctx).summary(),
        });
        if verdicts && matches!(format, Format::Text) {
            print_site_table(&kernel, &ctx);
        }
    }

    // Exit status from non-allowed diagnostics only.
    let mut worst: Option<Severity> = None;
    for r in &reports {
        for d in r.diags.iter().filter(|d| !allowed.iter().any(|a| a == d.kind.name())) {
            if worst.is_none_or(|w| d.severity > w) {
                worst = Some(d.severity);
            }
        }
    }
    let failed = matches!(worst, Some(Severity::Error)) || (deny_warnings && worst.is_some());

    match format {
        Format::Text => {
            for r in &reports {
                for d in &r.diags {
                    let tag =
                        if allowed.iter().any(|a| a == d.kind.name()) { " (allowed)" } else { "" };
                    println!("{}: {d}{tag}", r.name);
                }
                if verdicts || !all_workloads {
                    print_summary(&r.name, &r.summary);
                }
            }
            if all_workloads {
                println!("linted {} workload kernels", reports.len());
            }
        }
        Format::Json => print_json(&reports, &allowed, worst, failed),
    }

    if failed {
        std::process::exit(1);
    }
}

/// One `strata ...` line per kernel: the verdict-lattice partition of the
/// kernel's site bits plus the derived outcome upper bounds.
fn print_summary(name: &str, s: &VerdictSummary) {
    println!(
        "{name}: strata masked={:.3} proven-due={:.3} store={:.3} addr-ctl={:.3} unknown={:.3} | sdc<={:.3} due<={:.3}",
        s.masked,
        s.proven_due,
        s.store,
        s.addr_ctl,
        s.unknown,
        s.sdc_upper(),
        s.due_upper()
    );
}

/// Per-site verdict table (single-file mode): one row per GPR site (the
/// static oracle's: a reachable scalar GPR writer), predicate writer or
/// memory op, with the output/predicate/address verdicts and any
/// proven-DUE output bits.
fn print_site_table(kernel: &Kernel, ctx: &AnalysisContext) {
    let a = analyze(kernel, ctx);
    let decoded = kernel.decoded();
    println!(
        "{:>4}  {:<10} {:<8} {:<8} {:<8} proven-due-bits",
        "pc", "op", "output", "pred", "addr"
    );
    for pc in 0..kernel.len() as u32 {
        let meta = decoded.meta(pc);
        let gpr_site = a.gpr_site(pc);
        if !gpr_site && !meta.writes_pred && !meta.is_mem_op {
            continue;
        }
        let cell = |on: bool, s: &'static str| if on { s } else { "-" };
        let due = a.output_due_bits(pc);
        let due_cell = if due.bits != 0 {
            format!("{:#010x} {:?}", due.bits, due.kind.expect("bits imply kind"))
        } else {
            "-".to_string()
        };
        println!(
            "{pc:>4}  {:<10} {:<8} {:<8} {:<8} {due_cell}",
            format!("{:?}", kernel.instrs()[pc as usize].op),
            cell(gpr_site, a.output_verdict(pc).name()),
            cell(meta.writes_pred, a.predicate_verdict(pc).name()),
            cell(meta.is_mem_op, a.mem_verdict(pc).name()),
        );
    }
}

/// Minimal JSON escaping: the only dynamic strings are lint messages and
/// kernel names, which are ASCII, but escape defensively anyway.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_json(reports: &[KernelReport], allowed: &[String], worst: Option<Severity>, failed: bool) {
    let mut out = String::from("{\n  \"kernels\": [\n");
    for (ki, r) in reports.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": {},\n", json_str(&r.name)));
        out.push_str("      \"diagnostics\": [");
        for (di, d) in r.diags.iter().enumerate() {
            if di > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n        {{\"lint\": {}, \"severity\": {}, \"pc\": {}, \"message\": {}, \"allowed\": {}}}",
                json_str(d.kind.name()),
                json_str(&d.severity.to_string()),
                d.pc,
                json_str(&d.message),
                allowed.iter().any(|a| a == d.kind.name()),
            ));
        }
        if !r.diags.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("],\n");
        let s = &r.summary;
        out.push_str(&format!(
            "      \"verdicts\": {{\"masked\": {}, \"proven_due\": {}, \"store\": {}, \"addr_ctl\": {}, \"unknown\": {}, \"sdc_upper\": {}, \"due_upper\": {}}}\n",
            s.masked,
            s.proven_due,
            s.store,
            s.addr_ctl,
            s.unknown,
            s.sdc_upper(),
            s.due_upper()
        ));
        out.push_str(if ki + 1 < reports.len() { "    },\n" } else { "    }\n" });
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"worst\": {},\n",
        worst.map_or("null".to_string(), |w| json_str(&w.to_string()))
    ));
    out.push_str(&format!("  \"failed\": {failed}\n}}"));
    println!("{out}");
}

/// Print `msg` and the usage line, and exit with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2)
}

/// The value of a numeric flag; a malformed one is a usage error.
fn number<T: std::str::FromStr>(flag: &str, s: &str) -> T {
    s.parse().unwrap_or_else(|_| usage_error(&format!("bad {flag} value `{s}`")))
}

/// A 32-bit `--param` word in decimal or `0x` hex.
fn parse_word(s: &str) -> u32 {
    match s.strip_prefix("0x") {
        Some(h) => u32::from_str_radix(h, 16).ok(),
        None => s.parse().ok(),
    }
    .unwrap_or_else(|| usage_error(&format!("bad --param word `{s}`")))
}
