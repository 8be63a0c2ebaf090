//! Text rendering of a published [`StatusSnapshot`] — the `campaign-top`
//! live view. Pure string-in/string-out so the rendering is testable; the
//! binary adds the screen-clearing and polling loop.

use std::fmt::Write as _;

use crate::metrics::MetricsSnapshot;
use crate::publish::StatusSnapshot;

fn fmt_ms(us: u64) -> String {
    if us >= 10_000 {
        format!("{:.1}ms", us as f64 / 1000.0)
    } else {
        format!("{us}us")
    }
}

fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_string()
    } else {
        format!("{:.2}%", 100.0 * part as f64 / whole as f64)
    }
}

/// Render one status snapshot as a small multi-line dashboard.
pub fn render_status(status: &StatusSnapshot) -> String {
    let m: &MetricsSnapshot = &status.snapshot;
    let counter = |name: &str| m.counters.get(name).copied().unwrap_or(0);
    let gauge = |name: &str| m.gauges.get(name).copied();

    let mut out = String::with_capacity(512);
    let _ = writeln!(out, "campaign   {}", status.campaign);
    if !status.device.is_empty() {
        let _ = writeln!(out, "device     {}", status.device);
    }

    let trials = counter("trials");
    let ceiling = gauge("campaign.trial_ceiling").unwrap_or(0.0) as u64;
    let rate = gauge("trials_per_sec").unwrap_or(0.0);
    let _ = write!(out, "trials     {trials}");
    if ceiling > 0 {
        let _ = write!(out, "/{ceiling}");
    }
    if rate > 0.0 {
        let _ = write!(out, " · {rate:.1}/s");
    }
    let _ = writeln!(
        out,
        " · sdc {} · due {} · masked {}",
        pct(counter("outcome.sdc"), trials),
        pct(counter("outcome.due"), trials),
        pct(counter("outcome.masked"), trials)
    );

    let done = gauge("campaign.shards_done").unwrap_or(0.0) as u64;
    let total = gauge("campaign.shards_total").unwrap_or(0.0) as u64;
    if total > 0 {
        let width = 24usize;
        let filled = ((done as f64 / total as f64) * width as f64).round() as usize;
        let _ = writeln!(
            out,
            "shards     {done}/{total} [{}{}]",
            "#".repeat(filled.min(width)),
            "-".repeat(width - filled.min(width))
        );
    }

    if let Some(hw) = gauge("campaign.ci_half_width").filter(|x| x.is_finite()) {
        let _ = write!(out, "ci         half-width {hw:.4}");
        if let Some(target) = gauge("campaign.ci_target").filter(|x| x.is_finite()) {
            let _ = write!(out, " (target {target:.4})");
        }
        out.push('\n');
    }

    if let Some(h) = m.histograms.get("campaign.trial_micros") {
        let _ = writeln!(
            out,
            "latency    trial p50 {} · p90 {} · p99 {} · mean {}",
            fmt_ms(h.quantile(0.5)),
            fmt_ms(h.quantile(0.9)),
            fmt_ms(h.quantile(0.99)),
            fmt_ms(h.mean() as u64)
        );
    }

    let _ = writeln!(
        out,
        "events     retries {} · quarantined {} · watchdog {} · golden hit/miss {}/{}",
        counter("campaign.trial_retries"),
        counter("campaign.quarantined"),
        counter("campaign.watchdog.dyn_trips"),
        counter("campaign.golden.hit"),
        counter("campaign.golden.miss"),
    );

    let snap_hit = counter("campaign.snapshot.hit");
    let snap_miss = counter("campaign.snapshot.miss");
    if snap_hit + snap_miss > 0 {
        let _ = write!(out, "snapshots  fast-forwarded {}", pct(snap_hit, snap_hit + snap_miss));
        let relay = counter("campaign.snapshot.relay");
        let _ = write!(out, " · relayed {}", pct(relay, snap_hit + snap_miss));
        if let Some(h) = m.histograms.get("campaign.snapshot.fastforward_instrs") {
            let _ = write!(out, " · skipped p50 {} instrs", h.quantile(0.5));
        }
        if let Some(cached) = gauge("campaign.snapshot.cached").filter(|&x| x > 0.0) {
            let kib = gauge("campaign.snapshot.bytes").unwrap_or(0.0) / 1024.0;
            let _ = write!(out, " · cached {cached:.0} ({kib:.0} KiB)");
        }
        out.push('\n');
    }

    let pruned_masked = counter("campaign.pruned.masked");
    let pruned_store = counter("campaign.pruned.store");
    let pruned_addr_ctl = counter("campaign.pruned.addr_ctl");
    let pruned_unknown = counter("campaign.pruned.unknown");
    let pruned = pruned_masked + pruned_store + pruned_addr_ctl + pruned_unknown;
    if pruned > 0 {
        let _ = writeln!(
            out,
            "pruned     {} of trials static · masked {pruned_masked} · store {pruned_store} · addr+ctl {pruned_addr_ctl} · unknown {pruned_unknown}",
            pct(pruned, trials),
        );
    }

    let mut hidden_total = 0u64;
    let mut hidden_parts = String::new();
    for class in ["scheduler", "fetch", "mask", "barrier", "memq"] {
        let n: u64 = ["sdc", "due", "masked"]
            .iter()
            .map(|s| counter(&format!("campaign.hidden.{class}.{s}")))
            .sum();
        if n > 0 {
            let due = counter(&format!("campaign.hidden.{class}.due"));
            let _ = write!(hidden_parts, " · {class} {n} (due {})", pct(due, n));
        }
        hidden_total += n;
    }
    if hidden_total > 0 {
        let _ = writeln!(out, "hidden     {} of trials{hidden_parts}", pct(hidden_total, trials));
    }

    if let Some(digest) = status.digest {
        let _ = writeln!(out, "digest     {digest:016x}");
    }

    let damage = counter("campaign.store.damage");
    let locks = counter("campaign.store.lock_broken");
    if damage > 0 || locks > 0 {
        let _ = writeln!(out, "store      damage {damage} · locks broken {locks}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn renders_the_whole_dashboard() {
        let reg = MetricsRegistry::new();
        reg.counter("trials").add(1000);
        reg.counter("outcome.sdc").add(101);
        reg.counter("outcome.due").add(22);
        reg.counter("outcome.masked").add(877);
        reg.counter("campaign.trial_retries").add(1);
        reg.counter("campaign.store.damage").add(2);
        reg.gauge("trials_per_sec").set(433.25);
        reg.gauge("campaign.trial_ceiling").set(20000.0);
        reg.gauge("campaign.shards_done").set(12.0);
        reg.gauge("campaign.shards_total").set(32.0);
        reg.gauge("campaign.ci_half_width").set(0.061);
        reg.gauge("campaign.ci_target").set(0.05);
        let h = reg.histogram("campaign.trial_micros");
        for _ in 0..100 {
            h.observe(2100);
        }
        reg.counter("campaign.pruned.masked").add(120);
        reg.counter("campaign.pruned.addr_ctl").add(80);
        reg.counter("campaign.hidden.scheduler.sdc").add(3);
        reg.counter("campaign.hidden.scheduler.due").add(9);
        reg.counter("campaign.hidden.scheduler.masked").add(8);
        reg.counter("campaign.hidden.memq.due").add(5);
        reg.counter("campaign.snapshot.hit").add(750);
        reg.counter("campaign.snapshot.miss").add(250);
        reg.counter("campaign.snapshot.relay").add(300);
        reg.gauge("campaign.snapshot.cached").set(7.0);
        reg.gauge("campaign.snapshot.bytes").set(58368.0);
        let ff = reg.histogram("campaign.snapshot.fastforward_instrs");
        for _ in 0..10 {
            ff.observe(4096);
        }
        let status = StatusSnapshot {
            campaign: "avf/Volta/HHOTSPOT".into(),
            device: "Tesla V100 (1-SM sim)".into(),
            snapshot: reg.snapshot(),
            digest: Some(0x0123_4567_89ab_cdef),
        };
        let text = render_status(&status);
        assert!(text.contains("campaign   avf/Volta/HHOTSPOT"));
        assert!(text.contains("device     Tesla V100 (1-SM sim)"));
        assert!(text.contains("trials     1000/20000 · 433.2/s"));
        assert!(text.contains("sdc 10.10%"));
        assert!(text.contains("shards     12/32 ["));
        assert!(text.contains("ci         half-width 0.0610 (target 0.0500)"));
        assert!(text.contains("latency    trial p50"));
        assert!(text.contains("retries 1"));
        assert!(text.contains("snapshots  fast-forwarded 75.00% · relayed 30.00%"), "{text}");
        assert!(text.contains("digest     0123456789abcdef"));
        assert!(text.contains("cached 7 (57 KiB)"));
        assert!(text.contains("store      damage 2"));
        assert!(text
            .contains("pruned     20.00% of trials static · masked 120 · store 0 · addr+ctl 80"));
        assert!(
            text.contains(
                "hidden     2.50% of trials · scheduler 20 (due 45.00%) · memq 5 (due 100.00%)"
            ),
            "{text}"
        );
    }

    #[test]
    fn renders_sparse_snapshots_without_panicking() {
        let status = StatusSnapshot::default();
        let text = render_status(&status);
        assert!(text.contains("trials     0"));
        assert!(!text.contains("device"));
        assert!(!text.contains("shards"));
        assert!(!text.contains("snapshots"));
        assert!(!text.contains("store"));
        assert!(!text.contains("pruned"));
        assert!(!text.contains("hidden"));
        assert!(!text.contains("digest"));
    }
}
