//! Structured run reporting and campaign progress.
//!
//! [`RunReport`] is an ordered set of key/value fields serialized as one
//! JSON line — the machine-readable companion to the human-readable tables
//! the `bench` binaries print. [`Progress`] is a rate/ETA meter for long
//! campaigns (stderr only; its output is presentation, never trace
//! content, so wall-clock use here does not break determinism).
//! [`CampaignObserver`] bundles the optional hooks campaign loops accept.

use std::io::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::{emit_f64, escape_str};
use crate::metrics::MetricsRegistry;
use crate::span::SpanBus;

/// One report field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Str(String),
    Int(i64),
    UInt(u64),
    Float(f64),
    Bool(bool),
}

/// An ordered, append-only record serialized as a single JSON line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    fields: Vec<(String, Value)>,
}

impl RunReport {
    /// Start a report; `kind` becomes the leading `"report"` field so
    /// consumers can route lines without schema knowledge.
    pub fn new(kind: &str) -> Self {
        let mut r = RunReport::default();
        r.push_str("report", kind);
        r
    }

    fn push(&mut self, key: &str, value: Value) -> &mut Self {
        self.fields.push((key.to_string(), value));
        self
    }

    pub fn push_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.push(key, Value::Str(value.to_string()))
    }

    pub fn push_int(&mut self, key: &str, value: i64) -> &mut Self {
        self.push(key, Value::Int(value))
    }

    pub fn push_uint(&mut self, key: &str, value: u64) -> &mut Self {
        self.push(key, Value::UInt(value))
    }

    pub fn push_float(&mut self, key: &str, value: f64) -> &mut Self {
        self.push(key, Value::Float(value))
    }

    pub fn push_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.push(key, Value::Bool(value))
    }

    pub fn fields(&self) -> &[(String, Value)] {
        &self.fields
    }

    /// One JSON object in field-insertion order, no trailing newline.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64 + self.fields.len() * 24);
        out.push('{');
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_str(&mut out, k);
            out.push(':');
            match v {
                Value::Str(s) => escape_str(&mut out, s),
                Value::Int(x) => out.push_str(&x.to_string()),
                Value::UInt(x) => out.push_str(&x.to_string()),
                Value::Float(x) => emit_f64(&mut out, *x),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
        out.push('}');
        out
    }
}

/// Throttled stderr progress meter: completed/total, trials/sec, ETA and
/// (when the campaign reports one) the current CI half-width.
pub struct Progress {
    label: String,
    total: u64,
    done: AtomicU64,
    started: Instant,
    enabled: bool,
    interval: Duration,
    /// Latest CI half-width (f64 bits; NaN = not reported yet).
    ci_bits: AtomicU64,
    last_render: Mutex<Instant>,
}

impl Progress {
    /// `enabled = false` makes every method a cheap no-render counter
    /// update, so campaign code can pass one unconditionally.
    pub fn new(label: impl Into<String>, total: u64, enabled: bool) -> Self {
        let now = Instant::now();
        Progress {
            label: label.into(),
            total,
            done: AtomicU64::new(0),
            started: now,
            enabled,
            interval: Duration::from_millis(200),
            ci_bits: AtomicU64::new(f64::NAN.to_bits()),
            last_render: Mutex::new(now),
        }
    }

    /// Change the minimum time between renders (default 200ms).
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// Report the current Wilson-CI half-width; shown on the next render.
    pub fn note_ci(&self, half_width: f64) {
        self.ci_bits.store(half_width.to_bits(), Ordering::Relaxed);
    }

    /// Record one completed trial (thread-safe).
    pub fn inc(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.enabled {
            return;
        }
        // Render at most once per interval; always render the last one.
        let mut last = match self.last_render.try_lock() {
            Ok(guard) => guard,
            Err(_) => return,
        };
        if done < self.total && last.elapsed() < self.interval {
            return;
        }
        *last = Instant::now();
        let rate = self.rate();
        let eta = if rate > 0.0 { (self.total.saturating_sub(done)) as f64 / rate } else { 0.0 };
        let ci = f64::from_bits(self.ci_bits.load(Ordering::Relaxed));
        let ci_part = if ci.is_finite() { format!(", ci ±{ci:.4}") } else { String::new() };
        eprint!(
            "\r{}: {}/{} trials ({:.0}/s, ETA {:.1}s{ci_part})   ",
            self.label, done, self.total, rate, eta
        );
        let _ = io::stderr().flush();
    }

    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// Completed trials per second of wall time so far.
    pub fn rate(&self) -> f64 {
        let secs = self.started.elapsed().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.done() as f64 / secs
        }
    }

    /// Terminate the meter line (no-op when disabled).
    pub fn finish(&self) {
        if self.enabled {
            eprintln!(
                "\r{}: {}/{} trials ({:.0}/s, done)      ",
                self.label,
                self.done(),
                self.total,
                self.rate()
            );
        }
    }
}

/// Optional observation hooks a campaign loop accepts: a metrics registry
/// to tally into, a progress meter to tick and a span bus to trace into.
/// `CampaignObserver::none()` (or `Default`) observes nothing and adds no
/// per-trial cost beyond a few `Option` checks.
#[derive(Default, Clone, Copy)]
pub struct CampaignObserver<'a> {
    pub metrics: Option<&'a MetricsRegistry>,
    pub progress: Option<&'a Progress>,
    pub spans: Option<&'a SpanBus>,
}

impl<'a> CampaignObserver<'a> {
    pub fn none() -> Self {
        Self::default()
    }

    pub fn with_metrics(metrics: &'a MetricsRegistry) -> Self {
        CampaignObserver { metrics: Some(metrics), ..Self::default() }
    }

    pub fn with_spans(mut self, spans: &'a SpanBus) -> Self {
        self.spans = Some(spans);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn report_serializes_in_insertion_order() {
        let mut r = RunReport::new("campaign");
        r.push_str("name", "FMXM")
            .push_uint("trials", 1000)
            .push_int("delta", -3)
            .push_float("avf", 0.125)
            .push_bool("ecc", true);
        let line = r.to_json_line();
        assert_eq!(
            line,
            r#"{"report":"campaign","name":"FMXM","trials":1000,"delta":-3,"avf":0.125,"ecc":true}"#
        );
        assert!(json::parse(&line).is_ok());
    }

    #[test]
    fn progress_counts_without_rendering() {
        let p = Progress::new("test", 10, false);
        for _ in 0..10 {
            p.inc();
        }
        assert_eq!(p.done(), 10);
        assert!(p.rate() > 0.0);
        p.finish();
    }
}
