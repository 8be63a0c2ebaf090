//! Per-layer metrics of a traced rep, computed from its spans.

use crate::stats;
use crate::timed::Span;
use obs::json::{emit_f64, escape_str};

/// Numbers the traced rep measures outside its spans.
#[derive(Clone, Debug, Default)]
pub struct Probes {
    /// Summed `approx_bytes` of the golden runs' snapshots.
    pub snapshot_bytes: u64,
    /// Dynamic instructions of the golden runs fetched during set-up.
    pub golden_instrs: u64,
    /// Trials the campaigns ran, and how many never reached the engine.
    pub trials: u64,
    pub direct: u64,
    /// Mean microseconds of one `Kernel::validate` + `DecodedKernel::new`.
    pub decode_us: f64,
    /// Mean microseconds of one `timing::analyze`.
    pub timing_us: f64,
}

/// One per-layer metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Append `"name":{"value":...,"unit":"..."}` to the JSON object being
/// built in `out`.
pub fn push_json(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    escape_str(out, name);
    out.push_str(":{\"value\":");
    emit_f64(out, value);
    out.push_str(",\"unit\":");
    escape_str(out, unit);
    out.push('}');
}

/// How far the self times under the campaign spans may stray from their
/// wall time before the span accounting counts as broken.
const ACCOUNTING_TOLERANCE: f64 = 0.05;

/// A span's duration minus the part of it its children cover. Children
/// may overlap or reach past their parent; only their union inside the
/// parent's interval counts.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

fn total_ns<'a>(spans: impl Iterator<Item = &'a Span>) -> (u64, usize) {
    spans.fold((0, 0), |(t, n), s| (t + s.dur_ns(), n + 1))
}

fn per(total: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// The per-layer metrics of one traced rep.
///
/// # Errors
/// When the self times of everything under the campaign spans do not sum
/// to the campaign wall time within [`ACCOUNTING_TOLERANCE`], or the rep
/// executed no trial.
pub fn metrics(spans: &[Span], probes: &Probes) -> Result<Vec<Metric>, String> {
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let under = |parent: &'static str| {
        spans.iter().filter(move |s| s.parent.is_some_and(|p| spans[p].name == parent))
    };
    let selfs = self_times(spans);
    let mut in_campaign = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        in_campaign[i] = s.name == "campaign" || s.parent.is_some_and(|p| in_campaign[p]);
    }
    let (campaign_ns, _) = total_ns(named("campaign"));
    let campaign_self: u64 =
        spans.iter().zip(&selfs).filter(|(s, _)| s.name == "campaign").map(|(_, &t)| t).sum();
    let accounted: u64 = selfs.iter().zip(&in_campaign).filter(|(_, &c)| c).map(|(&t, _)| t).sum();
    let wall = campaign_ns.max(1) as f64;
    if (accounted as f64 / wall - 1.0).abs() > ACCOUNTING_TOLERANCE {
        return Err(format!(
            "layer self times sum to {accounted} ns but the campaigns took {campaign_ns} ns"
        ));
    }

    let executes: Vec<&Span> = named("execute").collect();
    if executes.is_empty() {
        return Err("the traced rep executed no trial".to_string());
    }
    let exec_us: Vec<f64> = executes.iter().map(|s| s.dur_ns() as f64 / 1e3).collect();
    let exec_ns: u64 = executes.iter().map(|s| s.dur_ns()).sum();
    let (instrs, skipped) = executes
        .iter()
        .filter_map(|s| s.exec)
        .fold((0, 0), |(i, k), n| (i + n.instrs, k + n.skipped));
    let (watchdog_ns, watchdogs) =
        total_ns(executes.iter().copied().filter(|s| s.exec.is_some_and(|n| n.watchdog)));
    let (build_ns, _) = total_ns(named("build"));
    let (fetch_ns, _) = total_ns(under("setup").filter(|s| s.name == "golden_fetch"));
    let (prepare_ns, _) = total_ns(under("setup").filter(|s| s.name == "prepare"));
    let (sample_ns, samples) = total_ns(named("sample"));
    let (fresh_ns, _) = total_ns(named("fresh_memory").filter(|s| s.trial.is_some()));
    let (compare_ns, compares) = total_ns(named("compare"));
    let (profile_ns, _) = total_ns(named("profile"));
    let n = executes.len();

    let mut out = Vec::new();
    let mut put = |name: &str, value: f64, unit: &str| {
        out.push(Metric { name: name.to_string(), value, unit: unit.to_string() });
    };
    let ms = |ns: u64| ns as f64 / 1e6;
    let minstr_per_s = |instrs: u64, ns: u64| instrs as f64 / ns.max(1) as f64 * 1e3;
    put("workloads.build_ms", ms(build_ns), "ms");
    put("workloads.compare_us", per(compare_ns as f64 / 1e3, compares), "us");
    put("campaign.golden_fetch_ms", ms(fetch_ns), "ms");
    put("campaign.snapshot_kib", probes.snapshot_bytes as f64 / 1024.0, "KiB");
    put("campaign.ff_skip_frac", skipped as f64 / (instrs + skipped).max(1) as f64, "fraction");
    put("campaign.self_share", campaign_self as f64 / wall, "fraction");
    put("campaign.trials", probes.trials as f64, "count");
    put("kind.prepare_ms", ms(prepare_ns), "ms");
    put("kind.sample_ns", per(sample_ns as f64, samples), "ns");
    put("kind.direct_frac", per(probes.direct as f64, probes.trials as usize), "fraction");
    put("gpu_arch.decode_us", probes.decode_us, "us");
    put("gpu_sim.execute_us_p50", stats::percentile(&exec_us, 50), "us");
    // The tail is the highest percentile with ten samples beyond it, and
    // its name says which one it is.
    if let Some(tail) = stats::tail_percent(n).filter(|&p| p > 50) {
        put(&format!("gpu_sim.execute_us_p{tail}"), stats::percentile(&exec_us, tail), "us");
    }
    put("gpu_sim.execute_n", n as f64, "count");
    put("gpu_sim.minstr_per_s", minstr_per_s(instrs, exec_ns), "Minstr/s");
    put("gpu_sim.instrs_per_trial", per(instrs as f64, n), "count");
    put("gpu_sim.golden_minstr_per_s", minstr_per_s(probes.golden_instrs, fetch_ns), "Minstr/s");
    put("gpu_sim.mem_setup_us", per(fresh_ns as f64 / 1e3, n), "us");
    put("gpu_sim.timing_us", probes.timing_us, "us");
    put("gpu_sim.watchdog_share", watchdog_ns as f64 / exec_ns.max(1) as f64, "fraction");
    put("gpu_sim.watchdog_trials", watchdogs as f64, "count");
    put("gpu_sim.share", exec_ns as f64 / wall, "fraction");
    put("profiler.profile_ms", ms(profile_ns), "ms");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, ..Span::default() }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("campaign", 0, 100, None),
            // Two children overlapping each other: their union is 10..50.
            span("execute", 10, 40, Some(0)),
            span("compare", 30, 50, Some(0)),
            // A grandchild nested in the first child.
            span("fresh_memory", 15, 20, Some(1)),
            // A child reaching past its parent counts only inside it.
            span("sample", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), [100 - 40 - 10, 30 - 5, 20, 5, 30]);
    }

    #[test]
    fn accounting_covers_the_campaign_wall_time() {
        let mut exec = span("execute", 20, 80, Some(1));
        exec.exec = Some(crate::timed::ExecNote { instrs: 600, skipped: 200, watchdog: false });
        let spans = [
            span("setup", 0, 10, None),
            span("campaign", 10, 110, None),
            span("sample", 10, 20, Some(1)),
            exec,
            span("compare", 80, 90, Some(1)),
        ];
        let m = metrics(&spans, &Probes { trials: 1, ..Probes::default() }).unwrap();
        let get = |name: &str| m.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(get("campaign.self_share"), 0.2);
        assert_eq!(get("gpu_sim.share"), 0.6);
        assert_eq!(get("campaign.ff_skip_frac"), 0.25);
        assert_eq!(get("gpu_sim.instrs_per_trial"), 600.0);
        assert_eq!(get("gpu_sim.execute_n"), 1.0);
        // One sample supports no tail percentile.
        assert!(!m.iter().any(|m| m.name.starts_with("gpu_sim.execute_us_p9")));
        // A span that escapes its parent breaks the accounting.
        let mut broken = spans.to_vec();
        broken.push(span("sample", 100, 200, Some(1)));
        assert!(metrics(&broken, &Probes::default()).is_err());
    }
}
