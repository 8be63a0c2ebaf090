//! `perfbench` — how fast fault-injection and beam campaigns run, end to
//! end and layer by layer.
//!
//! ```text
//! perfbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!           [--sets N] [--smoke]
//! ```
//!
//! Each workload rep runs as its own child process, one at a time: a
//! closed loop with one client. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`; the
//! metric names, units, and regression bounds come from `BENCHMARK.json`.
//! Times are medians over reps, in seconds at the host's nominal speed.
//! See README.md beside this file for the workloads and what each metric
//! should move.

mod host;
mod layers;
mod stats;
mod timed;
mod workload;

use obs::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use workload::{Mode, RepResult};

/// The benchmark definition this binary reports against.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The seconds a set is sized for (`--seconds`; `run_seconds` in
/// `BENCHMARK.json`); see [`reps_per_set`].
const DEFAULT_SECONDS: f64 = 16.0;
const MIN_REPS: usize = 2;

/// Set-up time is short and noisy, so after each rep this many
/// set-up-only children add cold set-up samples to the rep's own, spread
/// over the whole set.
const SETUPS_PER_REP: usize = 5;

/// Reps of `workload` in one set: as many as fit in `seconds` on the
/// baseline host, and at least [`MIN_REPS`]. The count depends on
/// `seconds` alone, never on how fast the reps turn out, so two commits
/// measured at one `--seconds` take their medians over the same number
/// of reps.
fn reps_per_set(workload: &str, seconds: f64) -> usize {
    ((seconds / workload::rep_seconds(workload)).floor() as usize).max(MIN_REPS)
}

const USAGE: &str = "usage: perfbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
                 [--sets N] [--smoke]
workloads: avf_mxm avf_hotspot_pruned beam_mix fig4_sweep (default: all)";

/// An end-to-end metric as `BENCHMARK.json` defines it.
struct EndToEnd {
    name: String,
    unit: String,
    higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    bound: f64,
}

struct Definition {
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<String>,
}

fn definition() -> Result<Definition, String> {
    let doc = obs::json::parse(BENCHMARK_JSON)?;
    let list = |key: &str| {
        doc.as_obj()
            .and_then(|o| o.get(key))
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json lacks {key}"))
    };
    let field = |m: &Json, key: &str| {
        m.as_obj().and_then(|o| o.get(key)).cloned().ok_or(format!("metric lacks {key}"))
    };
    let text = |m: &Json, key: &str| -> Result<String, String> {
        field(m, key)?.as_str().map(str::to_string).ok_or(format!("{key} is not a string"))
    };
    let mut end_to_end = Vec::new();
    for m in list("end_to_end")? {
        let metric = EndToEnd {
            name: text(m, "name")?,
            unit: text(m, "unit")?,
            higher_is_better: text(m, "better")? == "higher",
            bound: field(m, "bound")?.as_num().ok_or("bound is not a number")?,
        };
        if e2e_value(&RepResult::default(), &metric.name).is_none() {
            return Err(format!("BENCHMARK.json names unknown metric {}", metric.name));
        }
        end_to_end.push(metric);
    }
    let per_layer = list("per_layer")?.iter().map(|m| text(m, "name")).collect::<Result<_, _>>()?;
    Ok(Definition { end_to_end, per_layer })
}

/// An end-to-end metric of one rep; `setup_s` is pooled separately.
fn e2e_value(rep: &RepResult, name: &str) -> Option<f64> {
    match name {
        "trials_per_s" => Some(rep.trials as f64 / rep.run_s),
        "wall_s" => Some(rep.wall_s),
        "setup_s" => Some(rep.setup_s),
        "peak_rss_mib" => Some(rep.peak_rss_mib),
        _ => None,
    }
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    smoke: bool,
    /// Child mode: run one rep of this workload and report it.
    rep: Option<String>,
    /// Child mode: trace the rep and write its spans here.
    trace_file: Option<PathBuf>,
    /// Child mode: stop after the set-up.
    setup_only: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: workload::PIN_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: 1,
        smoke: false,
        rep: None,
        trace_file: None,
        setup_only: false,
    };
    let mut it = argv;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--setup-only" => args.setup_only = true,
            _ => {
                let value = it.next().ok_or(format!("{flag} needs a value"))?;
                parse_value(&mut args, &flag, value)?;
            }
        }
    }
    if args.workloads.is_empty() {
        args.workloads.extend(workload::NAMES.map(String::from));
    }
    Ok(args)
}

fn parse_value(args: &mut Args, flag: &str, value: String) -> Result<(), String> {
    let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
    match flag {
        "--workload" if workload::exists(&value) => args.workloads.push(value),
        "--workload" => return Err(bad("a workload name")),
        "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
        "--seconds" => {
            args.seconds = value.parse().ok().filter(|s: &f64| *s >= 0.0).ok_or(bad("seconds"))?;
        }
        "--trace" => {
            args.trace = match value.as_str() {
                "0" => false,
                "1" => true,
                _ => return Err(bad("0 or 1")),
            }
        }
        "--sets" => args.sets = value.parse().ok().filter(|&n| n >= 1).ok_or(bad("a count"))?,
        "--rep" if workload::exists(&value) => args.rep = Some(value),
        "--rep" => return Err(bad("a workload name")),
        "--trace-file" => args.trace_file = Some(PathBuf::from(value)),
        _ => return Err(format!("unknown flag {flag}")),
    }
    Ok(())
}

/// Run one rep of `name` as a child process and wait for its report.
fn spawn_rep(args: &Args, name: &str, mode: Mode) -> Result<RepResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--rep", name, "--seed", &args.seed.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    match mode {
        Mode::Timed => {}
        Mode::Traced(file) => {
            cmd.arg("--trace-file").arg(file);
        }
        Mode::SetupOnly => {
            cmd.arg("--setup-only");
        }
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a {name} rep: {e}"))?;
    if !out.status.success() {
        return Err(format!("{name} rep exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    RepResult::from_json_line(stdout.lines().last().unwrap_or_default())
}

/// One set of measurements of a workload.
struct Set {
    reps: Vec<RepResult>,
    /// Cold set-up seconds: every rep's, and the set-up-only children's.
    setups: Vec<f64>,
}

/// Everything measured for one workload.
struct Measured {
    name: String,
    sets: Vec<Set>,
    traced: Option<RepResult>,
}

impl Measured {
    /// Every rep that ran the campaigns, the traced one last.
    fn reps(&self) -> impl Iterator<Item = &RepResult> {
        self.sets.iter().flat_map(|s| &s.reps).chain(&self.traced)
    }

    /// The samples of an end-to-end metric in one set, or in all of them:
    /// one per untraced rep, or one per cold set-up for `setup_s`. The
    /// reported value is their median.
    fn samples(&self, set: Option<usize>, metric: &str) -> Vec<f64> {
        let sets = match set {
            Some(s) => &self.sets[s..=s],
            None => &self.sets[..],
        };
        sets.iter()
            .flat_map(|s| match metric {
                "setup_s" => s.setups.clone(),
                _ => s.reps.iter().filter_map(|r| e2e_value(r, metric)).collect(),
            })
            .collect()
    }

    /// How much slower than nominal the host ran the untraced reps: their
    /// median wall time as it passed over their median at nominal speed.
    fn slowdown(&self) -> f64 {
        let reps = || self.sets.iter().flat_map(|s| &s.reps);
        let raw: Vec<f64> = reps().map(|r| r.raw_wall_s).collect();
        let nominal: Vec<f64> = reps().map(|r| r.wall_s).collect();
        stats::median(&raw) / stats::median(&nominal)
    }
}

fn measure(args: &Args, name: &str, trace_dir: &Path) -> Result<Measured, String> {
    let mut m = Measured { name: name.to_string(), sets: Vec::new(), traced: None };
    let (reps, setups_per_rep) =
        if args.smoke { (1, 0) } else { (reps_per_set(name, args.seconds), SETUPS_PER_REP) };
    for _ in 0..args.sets {
        let mut set = Set { reps: Vec::new(), setups: Vec::new() };
        for _ in 0..reps {
            let rep = spawn_rep(args, name, Mode::Timed)?;
            set.setups.push(rep.setup_s);
            set.reps.push(rep);
            for _ in 0..setups_per_rep {
                set.setups.push(spawn_rep(args, name, Mode::SetupOnly)?.setup_s);
            }
        }
        m.sets.push(set);
    }
    if args.trace || args.smoke {
        let file = trace_dir.join(format!("trace-{name}.json"));
        m.traced = Some(spawn_rep(args, name, Mode::Traced(&file))?);
        println!("{name}: Chrome trace written to {}", file.display());
    }
    Ok(m)
}

/// Failed operations and problems found in one workload's reps: campaign
/// errors, retried and quarantined trials, campaigns that computed a
/// golden run while timed, and tallies that differ from the pins (at the
/// pinned seed and full budgets) or from the first rep.
fn check(args: &Args, m: &Measured) -> (u64, Vec<String>) {
    let tallies = |r: &RepResult| -> Vec<(String, u64)> {
        r.campaigns.iter().map(|c| (c.label.clone(), c.digest)).collect()
    };
    let pinned = workload::pins(&m.name);
    let reference: Vec<(String, u64)> = if args.seed == workload::PIN_SEED && !args.smoke {
        pinned.iter().map(|&(l, d)| (l.to_string(), d)).collect()
    } else {
        m.reps().next().map(tallies).unwrap_or_default()
    };
    let mut failed = 0;
    let mut problems = Vec::new();
    for rep in m.reps() {
        failed += rep.errors;
        let campaigns = rep.campaigns.iter();
        failed += campaigns.clone().map(|c| c.retries + c.quarantined).sum::<u64>();
        for c in campaigns.filter(|c| c.golden_hits != 1 || c.golden_misses != 0) {
            failed += 1;
            problems.push(format!("{}: {} computed a golden run while timed", m.name, c.label));
        }
        let got = tallies(rep);
        if got != reference {
            failed += 1;
            problems.push(format!("{}: tallies {got:x?} differ from {reference:x?}", m.name));
        }
    }
    (failed, problems)
}

/// Median, quartiles and count of `samples`, for the report.
fn describe(samples: &[f64]) -> String {
    let (q1, median, q3) = stats::quartiles(samples);
    format!("median {median:.4} [{q1:.4} .. {q3:.4}] n={}", samples.len())
}

fn run(args: &Args) -> Result<bool, String> {
    let def = definition()?;
    let trace_dir = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or("target".into()))
        .join("perfbench");
    if args.trace || args.smoke {
        std::fs::create_dir_all(&trace_dir)
            .map_err(|e| format!("cannot create {}: {e}", trace_dir.display()))?;
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("perfbench: seed {}, {cpus} CPUs, one rep process at a time", args.seed);

    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let prefix = args.workloads.len() > 1;
    let mut metrics = String::from("{");
    for name in &args.workloads {
        let m = measure(args, name, &trace_dir)?;
        let (f, problems) = check(args, &m);
        attempted += m.reps().map(|r| r.trials).sum::<u64>();
        failed += f;
        correct &= problems.is_empty();
        for p in &problems {
            println!("FAIL {p}");
        }
        if let Some(rep) = m.reps().next() {
            for c in &rep.campaigns {
                println!("{name}: {} trials={} tallies={:016x}", c.label, c.trials, c.digest);
            }
        }
        let key =
            |metric: &str| if prefix { format!("{name}/{metric}") } else { metric.to_string() };
        println!("{name}: the host ran {:.2}x slower than nominal", m.slowdown());
        for e in &def.end_to_end {
            let samples = m.samples(None, &e.name);
            let value = stats::median(&samples);
            println!("{name:<20} {:<14} {:<9} {}", e.name, e.unit, describe(&samples));
            if !args.trace {
                layers::push_json(&mut metrics, &key(&e.name), value, &e.unit);
            }
            for s in 1..m.sets.len() {
                let median = |set| stats::median(&m.samples(Some(set), &e.name));
                let (base, again) = (median(0), median(s));
                let worse = if e.higher_is_better { base - again } else { again - base } / base;
                let verdict = if worse <= e.bound { "within" } else { "OUTSIDE" };
                println!(
                    "{name:<20} {:<14} set {} vs set 1: {:+.2}% worse, {verdict} the {:.0}% bound",
                    e.name,
                    s + 1,
                    worse * 100.0,
                    e.bound * 100.0
                );
            }
        }
        if let Some(traced) = &m.traced {
            // Wall time as it passed on both sides: the traced rep runs no
            // calibration slices, which would show up in its spans.
            let raw_trials_per_s = |r: &RepResult| r.trials as f64 / r.raw_run_s;
            let untraced: Vec<f64> =
                m.sets.iter().flat_map(|s| &s.reps).map(raw_trials_per_s).collect();
            let overhead = raw_trials_per_s(traced) / stats::median(&untraced);
            let mut layers = traced.layers.clone();
            layers.push(layers::Metric {
                name: "bench.trace_overhead".into(),
                value: overhead,
                unit: "ratio".into(),
            });
            for l in &layers {
                println!("{name:<20} {:<28} {:>14.4} {}", l.name, l.value, l.unit);
            }
            for declared in &def.per_layer {
                match layers.iter().find(|l| &l.name == declared) {
                    Some(l) if args.trace => {
                        layers::push_json(&mut metrics, &key(&l.name), l.value, &l.unit)
                    }
                    Some(_) => {}
                    // Smoke budgets may be too small for the p99 tail.
                    None if args.smoke => {}
                    None => {
                        correct = false;
                        println!("FAIL {name}: the traced rep did not report {declared}");
                    }
                }
            }
        }
    }
    metrics.push('}');
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{metrics}}}",
        attempted.max(1)
    );
    Ok(correct && failed == 0)
}

fn main() {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(name) = &args.rep {
        let mode = match &args.trace_file {
            Some(file) => Mode::Traced(file),
            None if args.setup_only => Mode::SetupOnly,
            None => Mode::Timed,
        };
        match workload::run_rep(started, name, args.seed, args.smoke, mode) {
            Ok(rep) => println!("{}", rep.to_json_line()),
            Err(e) => {
                eprintln!("perfbench: {name} rep failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_what_the_binary_reports() {
        let def = definition().expect("BENCHMARK.json parses");
        assert!(def.end_to_end.iter().any(|e| e.name == "setup_s" && e.unit == "s"));
        let doc = obs::json::parse(BENCHMARK_JSON).unwrap();
        assert_eq!(doc.as_obj().unwrap()["run_seconds"].as_num(), Some(DEFAULT_SECONDS));
        // The per-layer metrics a traced rep reports on a workload with
        // enough executed trials for a p99 tail, plus the overhead ratio
        // the parent adds.
        let spans: Vec<timed::Span> = std::iter::once(timed::Span {
            name: "campaign",
            end_ns: 1_000_000,
            ..timed::Span::default()
        })
        .chain((0..1000).map(|i| timed::Span {
            name: "execute",
            start_ns: i * 1000,
            end_ns: i * 1000 + 500,
            parent: Some(0),
            trial: Some(i),
            ..timed::Span::default()
        }))
        .collect();
        let probes = layers::Probes { trials: 1000, ..layers::Probes::default() };
        let mut names: Vec<String> =
            layers::metrics(&spans, &probes).unwrap().into_iter().map(|m| m.name).collect();
        names.push("bench.trace_overhead".into());
        let mut declared = def.per_layer.clone();
        names.sort();
        declared.sort();
        assert_eq!(names, declared);
    }

    #[test]
    fn arguments_parse_as_benchmark_json_calls_them() {
        let argv = ["--workload", "beam_mix", "--seed", "7", "--seconds", "10", "--trace", "1"];
        let args = parse_args(argv.into_iter().map(String::from)).unwrap();
        assert_eq!(args.workloads, ["beam_mix"]);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert!(parse_args(["--workload", "nope"].into_iter().map(String::from)).is_err());
        assert!(parse_args(["--trace", "2"].into_iter().map(String::from)).is_err());
        let all = parse_args(std::iter::empty()).unwrap();
        assert_eq!(all.workloads, workload::NAMES);
    }

    #[test]
    fn a_set_has_a_fixed_number_of_reps_that_fits_its_seconds() {
        for name in workload::NAMES {
            let reps = reps_per_set(name, DEFAULT_SECONDS);
            assert!(reps >= MIN_REPS, "{name}");
            let fits = reps as f64 * workload::rep_seconds(name) <= DEFAULT_SECONDS;
            assert!(fits || reps == MIN_REPS, "{name}");
        }
        assert_eq!(reps_per_set("avf_mxm", 0.0), MIN_REPS);
    }
}
