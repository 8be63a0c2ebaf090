//! The four campaign workloads, and one rep of one of them.
//!
//! A rep is one child process. It sets up cold (build the workloads,
//! fetch each golden run with exactly the request its campaign will make,
//! prepare each campaign kind) and then runs the campaigns warm, each
//! through `Campaign::run_full` with one worker and a metrics registry, as
//! `repro` runs them, followed by the profile `repro` takes after every
//! campaign. The campaigns' budgets take the benchmark seed. A
//! [`Meter`] times the rep at the host's nominal speed.

use crate::host::{self, Meter, Segment};
use crate::layers::{self, Metric, Probes};
use crate::timed::{self, TimedKind, TimedTarget};
use beam::Beam;
use campaign::{golden, Budget, Campaign, GoldenRequest, Kind};
use gpu_arch::{CodeGen, DecodedKernel, DeviceModel, Precision};
use injector::{Avf, HiddenAvf, Injector};
use obs::json::{emit_f64, escape_str, Json};
use obs::{CampaignObserver, MetricsRegistry};
use stats::OutcomeCounts;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use workloads::{Benchmark, Scale, Workload};

/// Workload names, in the order a full run measures them.
pub const NAMES: [&str; 4] = ["avf_mxm", "avf_hotspot_pruned", "beam_mix", "fig4_sweep"];

/// Seconds one rep of `workload` takes at nominal speed on the baseline
/// host (see README.md), its set-up-only children included. It sizes a
/// set; it is never measured at run time.
pub fn rep_seconds(workload: &str) -> f64 {
    match workload {
        "avf_mxm" => 3.9,
        "avf_hotspot_pruned" => 3.9,
        "beam_mix" => 7.6,
        _ => 10.2,
    }
}

/// The seed the tally pins were taken at.
pub const PIN_SEED: u64 = 2021;

/// Digests of every campaign's tallies at [`PIN_SEED`] and full budgets:
/// (workload, campaign label, digest), in campaign order. A change that
/// alters any tally, or the work a workload does, shows here.
const PINS: &[(&str, &str, u64)] = &[
    ("avf_mxm", "avf/nvbitfi/Tesla K40c (1-SM sim)/FMXM", 0xb3fe55b458af215e),
    ("avf_hotspot_pruned", "avf/nvbitfi+prune/Tesla V100 (1-SM sim)/HHOTSPOT", 0xc22e3619cc446501),
    ("beam_mix", "beam/ecc-off/Tesla K40c (1-SM sim)/FLAVA", 0x8eb491812a40d3f5),
    ("beam_mix", "beam/ecc-on/Tesla V100 (1-SM sim)/HGEMM-MMA", 0x3bf7fa6605f3d88f),
    ("fig4_sweep", "avf/sassifi/Tesla K40c (1-SM sim)/BFS", 0xb18dbacb56b2b411),
    ("fig4_sweep", "avf/sassifi/Tesla K40c (1-SM sim)/BFS", 0xa304f5f22ae737fd),
    ("fig4_sweep", "avf/sassifi/Tesla K40c (1-SM sim)/NW", 0xf5ea56173c2e025d),
    ("fig4_sweep", "avf/sassifi/Tesla K40c (1-SM sim)/NW", 0x234cf853e2b5be47),
    ("fig4_sweep", "avf/sassifi/Tesla K40c (1-SM sim)/MERGESORT", 0xcfc99f5a1dccb554),
    ("fig4_sweep", "avf/sassifi/Tesla K40c (1-SM sim)/MERGESORT", 0x37c49c02244ca30c),
    ("fig4_sweep", "avf/sassifi/Tesla K40c (1-SM sim)/QUICKSORT", 0x164b18e74da50c37),
    ("fig4_sweep", "avf/sassifi/Tesla K40c (1-SM sim)/QUICKSORT", 0xf385e0f2619fd974),
    ("fig4_sweep", "avf/nvbitfi/Tesla K40c (1-SM sim)/CCL", 0x518c8263a662ae86),
    ("fig4_sweep", "avf/nvbitfi/Tesla K40c (1-SM sim)/CCL", 0x1b7434b8696ed456),
    ("fig4_sweep", "avf/nvbitfi/Tesla K40c (1-SM sim)/BFS", 0xe1c773661c0f7522),
    ("fig4_sweep", "avf/nvbitfi/Tesla K40c (1-SM sim)/BFS", 0x24d5bfdec0b54ad2),
    ("fig4_sweep", "avf/nvbitfi/Tesla K40c (1-SM sim)/NW", 0xf87476206665852a),
    ("fig4_sweep", "avf/nvbitfi/Tesla K40c (1-SM sim)/NW", 0xabd355f10ea5eb91),
    ("fig4_sweep", "avf/nvbitfi/Tesla K40c (1-SM sim)/MERGESORT", 0xc3ddd31203fc22d1),
    ("fig4_sweep", "avf/nvbitfi/Tesla K40c (1-SM sim)/MERGESORT", 0xd44cbf5534f6e919),
    ("fig4_sweep", "avf/nvbitfi/Tesla K40c (1-SM sim)/QUICKSORT", 0xdb48525f79686254),
    ("fig4_sweep", "avf/nvbitfi/Tesla K40c (1-SM sim)/QUICKSORT", 0xd9900336a8d7f4e4),
    ("fig4_sweep", "avf/hidden/full/Tesla V100 (1-SM sim)/FHOTSPOT", 0xafa891816d4edfc1),
    ("fig4_sweep", "avf/hidden/full/Tesla V100 (1-SM sim)/FHOTSPOT", 0xda7f1606d0200539),
];

#[derive(Clone)]
enum KindSpec {
    Avf(Avf),
    Hidden(HiddenAvf),
    Beam(Box<Beam>),
}

struct CampaignSpec {
    kind: KindSpec,
    benchmark: Benchmark,
    precision: Precision,
    codegen: CodeGen,
    device: &'static str,
    /// One campaign per budget, all on the one set-up.
    budgets: Vec<Budget>,
}

/// The campaigns of `workload`, or `None` for an unknown name. `smoke`
/// cuts every budget to a sixteenth.
fn campaigns(workload: &str, seed: u64, smoke: bool) -> Option<Vec<CampaignSpec>> {
    use Benchmark::*;
    use Precision::*;
    let fixed = |n: u32| vec![Budget::fixed(if smoke { n / 16 } else { n }).seed(seed)];
    let quick = if smoke { Budget::adaptive(16, 32, 0.05) } else { Budget::quick() };
    // Where an adaptive campaign stops, and how many hung trials it draws,
    // move the sweep's time with the seed. Each campaign runs at two
    // budget seeds, which halves that variance.
    let quick = vec![quick.clone().seed(seed), quick.seed(seed ^ 0x9e37_79b9_7f4a_7c15)];
    let spec = |kind, benchmark, precision, codegen, device, budgets| CampaignSpec {
        kind,
        benchmark,
        precision,
        codegen,
        device,
        budgets,
    };
    Some(match workload {
        "avf_mxm" => vec![spec(
            KindSpec::Avf(Avf::new(Injector::NvBitFi)),
            Mxm,
            Single,
            CodeGen::Cuda10,
            "k40c-sim",
            fixed(2048),
        )],
        "avf_hotspot_pruned" => vec![spec(
            KindSpec::Avf(Avf::new_pruned(Injector::NvBitFi)),
            Hotspot,
            Half,
            CodeGen::Cuda10,
            "v100-sim",
            fixed(32768),
        )],
        // How many of its trials a beam seed sends to the engine varies by
        // several percent, so the budgets are large enough to average it.
        "beam_mix" => vec![
            spec(
                KindSpec::Beam(Box::new(Beam::auto(false))),
                Lava,
                Single,
                CodeGen::Cuda10,
                "k40c-sim",
                fixed(8000),
            ),
            spec(
                KindSpec::Beam(Box::new(Beam::auto(true))),
                GemmMma,
                Half,
                CodeGen::Cuda10,
                "v100-sim",
                fixed(80000),
            ),
        ],
        // SASSIFI CCL and hidden-resource FMXM are left out: their time is
        // a lottery over a few hung trials of 20-300 ms each (see README.md).
        "fig4_sweep" => {
            let mut specs = Vec::new();
            let sweep = [
                (Injector::Sassifi, CodeGen::Cuda7, &[Bfs, Nw, Mergesort, Quicksort][..]),
                (Injector::NvBitFi, CodeGen::Cuda10, &[Ccl, Bfs, Nw, Mergesort, Quicksort]),
            ];
            for (injector, codegen, benchmarks) in sweep {
                for &benchmark in benchmarks {
                    let kind = KindSpec::Avf(Avf::new(injector));
                    specs.push(spec(kind, benchmark, Int32, codegen, "k40c-sim", quick.clone()));
                }
            }
            let kind = KindSpec::Hidden(HiddenAvf::full());
            specs.push(spec(kind, Hotspot, Single, CodeGen::Cuda10, "v100-sim", quick));
            specs
        }
        _ => return None,
    })
}

/// One campaign's result as the parent process checks it.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignTally {
    pub label: String,
    /// [`digest`] of the tallies.
    pub digest: u64,
    pub trials: u64,
    /// Golden-cache hits and misses the campaign reported.
    pub golden_hits: u64,
    pub golden_misses: u64,
    pub retries: u64,
    pub quarantined: u64,
}

/// What one rep measured. Times are seconds at the host's nominal speed
/// (see [`crate::host`]); the `raw_` ones are wall time as it passed.
#[derive(Clone, Debug, Default)]
pub struct RepResult {
    /// The cold set-up phase.
    pub setup_s: f64,
    /// The `run_full` calls.
    pub run_s: f64,
    pub raw_run_s: f64,
    /// From the start of the child's `main` to its report.
    pub wall_s: f64,
    pub raw_wall_s: f64,
    pub trials: u64,
    /// Peak resident memory less file-backed pages, when the rep ends.
    pub peak_rss_mib: f64,
    /// Campaigns that returned an error.
    pub errors: u64,
    pub campaigns: Vec<CampaignTally>,
    /// Per-layer metrics; traced reps only.
    pub layers: Vec<Metric>,
}

impl RepResult {
    /// The rep as one JSON line, the child-to-parent protocol.
    pub fn to_json_line(&self) -> String {
        let mut out = String::from("{");
        for (key, x) in [
            ("setup_s", self.setup_s),
            ("run_s", self.run_s),
            ("raw_run_s", self.raw_run_s),
            ("wall_s", self.wall_s),
            ("raw_wall_s", self.raw_wall_s),
            ("trials", self.trials as f64),
            ("peak_rss_mib", self.peak_rss_mib),
            ("errors", self.errors as f64),
        ] {
            let _ = write!(out, "\"{key}\":");
            emit_f64(&mut out, x);
            out.push(',');
        }
        out.push_str("\"campaigns\":[");
        for (i, c) in self.campaigns.iter().enumerate() {
            out.push_str(if i > 0 { ",{\"label\":" } else { "{\"label\":" });
            escape_str(&mut out, &c.label);
            let _ = write!(
                out,
                ",\"digest\":\"{:016x}\",\"trials\":{},\"golden_hits\":{},\"golden_misses\":{},\"retries\":{},\"quarantined\":{}}}",
                c.digest, c.trials, c.golden_hits, c.golden_misses, c.retries, c.quarantined
            );
        }
        out.push_str("],\"layers\":{");
        for m in &self.layers {
            layers::push_json(&mut out, &m.name, m.value, &m.unit);
        }
        out.push_str("}}");
        out
    }

    /// Parse [`RepResult::to_json_line`]'s output.
    pub fn from_json_line(line: &str) -> Result<RepResult, String> {
        let doc = obs::json::parse(line)?;
        let obj = doc.as_obj().ok_or("rep report is not an object")?;
        let num = |o: &BTreeMap<String, Json>, key: &str| {
            o.get(key).and_then(Json::as_num).ok_or(format!("rep report lacks {key}"))
        };
        let mut rep = RepResult {
            setup_s: num(obj, "setup_s")?,
            run_s: num(obj, "run_s")?,
            raw_run_s: num(obj, "raw_run_s")?,
            wall_s: num(obj, "wall_s")?,
            raw_wall_s: num(obj, "raw_wall_s")?,
            trials: num(obj, "trials")? as u64,
            peak_rss_mib: num(obj, "peak_rss_mib")?,
            errors: num(obj, "errors")? as u64,
            ..RepResult::default()
        };
        for c in obj.get("campaigns").and_then(Json::as_arr).ok_or("rep report lacks campaigns")? {
            let c = c.as_obj().ok_or("campaign entry is not an object")?;
            let text = |key: &str| {
                c.get(key).and_then(Json::as_str).ok_or(format!("campaign entry lacks {key}"))
            };
            rep.campaigns.push(CampaignTally {
                label: text("label")?.to_string(),
                digest: u64::from_str_radix(text("digest")?, 16).map_err(|e| e.to_string())?,
                trials: num(c, "trials")? as u64,
                golden_hits: num(c, "golden_hits")? as u64,
                golden_misses: num(c, "golden_misses")? as u64,
                retries: num(c, "retries")? as u64,
                quarantined: num(c, "quarantined")? as u64,
            });
        }
        for (name, m) in
            obj.get("layers").and_then(Json::as_obj).ok_or("rep report lacks layers")?
        {
            let m = m.as_obj().ok_or("layer entry is not an object")?;
            let unit = m.get("unit").and_then(Json::as_str).ok_or("layer entry lacks unit")?;
            rep.layers.push(Metric {
                name: name.clone(),
                value: num(m, "value")?,
                unit: unit.to_string(),
            });
        }
        Ok(rep)
    }
}

/// FNV-1a, 64-bit.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// A digest of a campaign's tallies: label, trial count, outcome counts
/// over all and over executed trials, and the counts per direct label.
pub fn digest(
    label: &str,
    trials: u64,
    counts: &OutcomeCounts,
    executed: &OutcomeCounts,
    direct: &BTreeMap<String, OutcomeCounts>,
) -> u64 {
    let mut text = format!("{label}|{trials}");
    let mut push = |name: &str, c: &OutcomeCounts| {
        let _ = write!(text, "|{name}:{},{},{}", c.sdc, c.due, c.masked);
    };
    push("all", counts);
    push("executed", executed);
    for (name, c) in direct {
        push(name, c);
    }
    fnv1a(&text)
}

/// The pinned digests of `workload`'s campaigns, in campaign order.
pub fn pins(workload: &str) -> Vec<(&'static str, u64)> {
    PINS.iter().filter(|(w, _, _)| *w == workload).map(|&(_, label, d)| (label, d)).collect()
}

/// Known workload name?
pub fn exists(workload: &str) -> bool {
    NAMES.contains(&workload)
}

/// The rep's peak resident memory less its file-backed pages: `VmHWM`
/// minus `RssFile` and `RssShmem` from `/proc/self/status`. How many pages
/// of the executable and its libraries are resident depends on the page
/// cache, not on the program, and would add noise of a few percent.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or(format!("no {key} in /proc/self/status"))
    };
    Ok((kib("VmHWM:")? - kib("RssFile:")? - kib("RssShmem:")?) / 1024.0)
}

struct Prepared {
    spec: CampaignSpec,
    workload: Workload,
    device: DeviceModel,
}

/// Fetch the golden run exactly as the campaigns will ask for it (their
/// budgets differ only in seed), then prepare the kind once, so the timed
/// campaigns find everything cached.
fn set_up<K: Kind<Workload>>(kind: &K, p: &Prepared, probes: &mut Probes) -> Result<(), String> {
    let req = GoldenRequest::new(kind.ecc())
        .record_sites(kind.record_sites())
        .snapshots(p.spec.budgets[0].snapshots.stride());
    let (golden, _) = timed::span("golden_fetch", || golden::fetch(&p.workload, &p.device, req))?;
    probes.golden_instrs += golden.counts.total;
    probes.snapshot_bytes += golden.snapshots.iter().map(|s| s.approx_bytes()).sum::<u64>();
    timed::span("prepare", || drop(black_box(kind.prepare(&p.workload, &p.device, &golden))));
    Ok(())
}

/// A rep's timeline: the meter that cuts it, and its segments summed
/// over the `run_full` calls and over everything.
struct Timeline {
    meter: Meter,
    run: Segment,
    wall: Segment,
}

/// Run one campaign warm and the profile after it, adding its tally and
/// times to `rep`. The meter cuts at shard folds, so that long campaigns
/// are calibrated as they run, and where the campaign and the profile end.
fn run_campaign<K: Kind<Workload>>(
    kind: K,
    p: &Prepared,
    budget: Budget,
    traced: bool,
    probes: &mut Probes,
    timeline: &mut Timeline,
    rep: &mut RepResult,
) {
    let metrics = MetricsRegistry::new();
    let observer = CampaignObserver::with_metrics(&metrics);
    let mut run = Segment::default();
    let meter = &mut timeline.meter;
    let on_fold = |_: &campaign::Checkpoint| {
        if meter.elapsed() >= host::MIN_SEGMENT_S {
            run += meter.cut();
        }
    };
    let result = timed::span("campaign", || {
        if traced {
            let target = TimedTarget(&p.workload);
            let run = Campaign::new(TimedKind(kind), &target, &p.device)
                .budget(budget)
                .workers(1)
                .observer(observer)
                .on_checkpoint(on_fold)
                .run_full();
            timed::set_trial(None);
            run.map(|(_, run)| run)
        } else {
            Campaign::new(kind, &p.workload, &p.device)
                .budget(budget)
                .workers(1)
                .observer(observer)
                .on_checkpoint(on_fold)
                .run_full()
                .map(|(_, run)| run)
        }
    });
    run += timeline.meter.cut();
    timeline.run += run;
    timeline.wall += run;
    timed::span("profile", || profiler::profile(&p.workload, &p.device).export_metrics(&metrics));
    timeline.wall += timeline.meter.cut();
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: campaign on {} failed: {e}", p.workload.name);
            rep.errors += 1;
            return;
        }
    };
    let count = |name: &str| metrics.counter(name).get();
    probes.direct += run.trials - run.executed.total();
    rep.trials += run.trials;
    rep.campaigns.push(CampaignTally {
        label: run.label.clone(),
        digest: digest(&run.label, run.trials, &run.counts, &run.executed, &run.direct),
        trials: run.trials,
        golden_hits: count("campaign.golden.hit"),
        golden_misses: count("campaign.golden.miss"),
        retries: run.retries,
        quarantined: run.quarantine.len() as u64,
    });
}

/// Mean microseconds of `f` over `n` calls.
fn probe_us(n: u32, f: impl Fn()) -> f64 {
    let started = Instant::now();
    for _ in 0..n {
        f();
    }
    started.elapsed().as_secs_f64() * 1e6 / f64::from(n)
}

/// Probes of costs the engine pays once per executed trial, 1000 calls
/// per kernel, averaged over the rep's kernels.
fn probe_per_trial_costs(prepared: &[Prepared], probes: &mut Probes) -> Result<(), String> {
    const CALLS: u32 = 1000;
    let (mut decode, mut timing) = (0.0, 0.0);
    for p in prepared {
        let kernel = &p.workload.kernel;
        decode += probe_us(CALLS, || {
            black_box(black_box(kernel).validate()).expect("built kernels validate");
            black_box(DecodedKernel::new(black_box(kernel)));
        });
        let (golden, _) = golden::fetch(&p.workload, &p.device, GoldenRequest::default())?;
        timing += probe_us(CALLS, || {
            black_box(gpu_sim::timing::analyze(
                &p.device,
                kernel,
                &p.workload.launch,
                black_box(&golden.counts),
            ));
        });
    }
    let n = prepared.len() as f64;
    probes.decode_us = decode / n;
    probes.timing_us = timing / n;
    Ok(())
}

/// What a rep does after its set-up.
pub enum Mode<'a> {
    /// Run the campaigns.
    Timed,
    /// Run the campaigns with spans recorded around every layer boundary,
    /// compute the per-layer metrics, and write the spans to this file
    /// as a Chrome trace.
    Traced(&'a Path),
    /// Stop after the set-up: one more cold set-up sample.
    SetupOnly,
}

/// Run one rep of `workload` in this process.
pub fn run_rep(
    main_started: Instant,
    workload: &str,
    seed: u64,
    smoke: bool,
    mode: Mode,
) -> Result<RepResult, String> {
    let specs = campaigns(workload, seed, smoke).ok_or(format!("unknown workload {workload}"))?;
    let traced = matches!(mode, Mode::Traced(_));
    if traced {
        timed::start();
    }
    let mut probes = Probes::default();
    let mut rep = RepResult::default();
    let (meter, start_up) = Meter::start(main_started, !traced);
    let mut timeline = Timeline { meter, run: Segment::default(), wall: start_up };

    let prepared = timed::span("setup", || -> Result<Vec<Prepared>, String> {
        let mut prepared = Vec::new();
        for spec in specs {
            let workload = timed::span("build", || {
                workloads::build(spec.benchmark, spec.precision, spec.codegen, Scale::Small)
            });
            let device = DeviceModel::named(spec.device);
            let p = Prepared { spec, workload, device };
            match &p.spec.kind {
                KindSpec::Avf(k) => set_up(k, &p, &mut probes)?,
                KindSpec::Hidden(k) => set_up(k, &p, &mut probes)?,
                KindSpec::Beam(k) => set_up(k.as_ref(), &p, &mut probes)?,
            }
            prepared.push(p);
        }
        Ok(prepared)
    })?;
    let setup = timeline.meter.cut();
    rep.setup_s = setup.s;
    timeline.wall += setup;

    if !matches!(mode, Mode::SetupOnly) {
        for p in &prepared {
            for budget in p.spec.budgets.iter().cloned() {
                let (probes, timeline, rep) = (&mut probes, &mut timeline, &mut rep);
                match p.spec.kind.clone() {
                    KindSpec::Avf(k) => run_campaign(k, p, budget, traced, probes, timeline, rep),
                    KindSpec::Hidden(k) => {
                        run_campaign(k, p, budget, traced, probes, timeline, rep)
                    }
                    KindSpec::Beam(k) => run_campaign(*k, p, budget, traced, probes, timeline, rep),
                }
            }
        }
    }
    if let Mode::Traced(path) = mode {
        probe_per_trial_costs(&prepared, &mut probes)?;
        let spans = timed::finish();
        probes.trials = rep.trials;
        rep.layers = layers::metrics(&spans, &probes)?;
        std::fs::write(path, timed::chrome_trace(&spans))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    rep.peak_rss_mib = peak_rss_mib()?;
    timeline.wall += timeline.meter.cut();
    (rep.run_s, rep.raw_run_s) = (timeline.run.s, timeline.run.raw_s);
    (rep.wall_s, rep.raw_wall_s) = (timeline.wall.s, timeline.wall.raw_s);
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_is_defined() {
        for name in NAMES {
            let specs = campaigns(name, PIN_SEED, false).expect(name);
            assert!(!specs.is_empty(), "{name}");
        }
        let sweep = campaigns("fig4_sweep", 1, false).unwrap();
        assert_eq!(sweep.len(), 10);
        for spec in &sweep {
            let seeds: Vec<u64> = spec.budgets.iter().map(|b| b.seed).collect();
            assert_eq!(seeds, [1, 1 ^ 0x9e37_79b9_7f4a_7c15]);
        }
        assert!(campaigns("nope", 1, false).is_none());
    }

    #[test]
    fn tally_digest_is_stable_and_sensitive() {
        let counts = OutcomeCounts { sdc: 12, due: 3, masked: 85 };
        let executed = OutcomeCounts { sdc: 12, due: 3, masked: 40 };
        let mut direct = BTreeMap::new();
        direct.insert("static-masked".to_string(), OutcomeCounts { sdc: 0, due: 0, masked: 45 });
        let d = digest("avf/nvbitfi/k40c-sim/FMXM", 100, &counts, &executed, &direct);
        // The pinned value: a change here invalidates every pin.
        assert_eq!(d, 0xdcd8_6714_7069_633c);
        let moved = OutcomeCounts { masked: 84, sdc: 13, ..counts };
        assert_ne!(d, digest("avf/nvbitfi/k40c-sim/FMXM", 100, &moved, &executed, &direct));
        assert_ne!(
            d,
            digest("avf/nvbitfi/k40c-sim/FMXM", 100, &counts, &executed, &BTreeMap::new())
        );
        assert_ne!(d, digest("avf/nvbitfi/k40c-sim/FMXM", 101, &counts, &executed, &direct));
    }

    #[test]
    fn rep_report_round_trips() {
        let rep = RepResult {
            setup_s: 0.5,
            run_s: 3.5,
            raw_run_s: 4.25,
            wall_s: 4.25,
            raw_wall_s: 5.0,
            trials: 2048,
            peak_rss_mib: 20.5,
            errors: 0,
            campaigns: vec![CampaignTally {
                label: "beam/ecc-on/v100-sim/HGEMM-MMA".to_string(),
                digest: u64::MAX - 5,
                trials: 2048,
                golden_hits: 1,
                golden_misses: 0,
                retries: 0,
                quarantined: 0,
            }],
            layers: vec![Metric {
                name: "gpu_sim.share".to_string(),
                value: 0.99,
                unit: "fraction".to_string(),
            }],
        };
        let back = RepResult::from_json_line(&rep.to_json_line()).unwrap();
        assert_eq!(back.to_json_line(), rep.to_json_line());
    }
}
