//! Campaign span bus: campaign → shard → trial spans.
//!
//! A [`SpanBus`] collects timed spans and instant events from a campaign
//! run and exports them as Chrome Trace Event Format (loadable in
//! `chrome://tracing` or Perfetto). Span *timing* is wall-clock
//! (presentation side, like `Progress`); span *identity* is deterministic:
//! trial spans use FaultPlan-keyed IDs derived from the campaign label and
//! trial index via [`keyed_id`], so the same trial gets the same span ID
//! on every run and at every worker count.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::escape_str;

/// Parent ID for top-level spans.
pub const ROOT_SPAN: u64 = 0;

/// Deterministic span ID for item `n` under key `base` (splitmix64
/// finalizer). The high bit is set so keyed IDs never collide with
/// bus-allocated sequential IDs.
pub fn keyed_id(base: u64, n: u64) -> u64 {
    let mut z = base ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) | (1 << 63)
}

/// One recorded span (`dur_us: Some`) or instant event (`dur_us: None`).
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    /// Category: `"campaign"`, `"shard"`, `"trial"` or `"event"`.
    pub cat: &'static str,
    /// Track the span renders on (campaign = 0, shard `s` = `s + 1`).
    pub tid: u64,
    pub ts_us: u64,
    pub dur_us: Option<u64>,
    pub args: Vec<(&'static str, String)>,
}

/// Thread-safe collector for one campaign's spans.
#[derive(Debug)]
pub struct SpanBus {
    started: Instant,
    records: Mutex<Vec<SpanRecord>>,
    next_id: AtomicU64,
}

impl Default for SpanBus {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanBus {
    pub fn new() -> Self {
        SpanBus {
            started: Instant::now(),
            records: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// Microseconds since the bus was created.
    pub fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Allocate a fresh sequential span ID.
    pub fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Append a fully-formed record (low-level; `begin`/`instant` cover
    /// the common cases).
    pub fn push(&self, record: SpanRecord) {
        self.records.lock().unwrap_or_else(|e| e.into_inner()).push(record);
    }

    /// Open a span with a bus-allocated ID. The span closes (records
    /// itself with its duration) on `end()` or drop, so a panic that
    /// unwinds through a guard still closes it.
    pub fn begin(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        parent: u64,
        tid: u64,
    ) -> OpenSpan<'_> {
        OpenSpan {
            bus: self,
            id: self.alloc_id(),
            parent,
            tid,
            t0_us: self.now_us(),
            name: name.into(),
            cat,
            args: Vec::new(),
            closed: false,
        }
    }

    /// Record an instant event (retry, quarantine, watchdog trip, CI
    /// update) at the current time.
    pub fn instant(
        &self,
        name: impl Into<String>,
        parent: u64,
        tid: u64,
        args: Vec<(&'static str, String)>,
    ) {
        self.push(SpanRecord {
            id: self.alloc_id(),
            parent,
            name: name.into(),
            cat: "event",
            tid,
            ts_us: self.now_us(),
            dur_us: None,
            args,
        });
    }

    /// Copy of everything recorded so far.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.records.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    pub fn len(&self) -> usize {
        self.records.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Chrome Trace Event Format: a JSON array of complete (`"ph":"X"`)
    /// and instant (`"ph":"i"`) events, timestamps in microseconds.
    pub fn to_chrome_trace(&self) -> String {
        let records = self.records.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::with_capacity(records.len() * 128 + 16);
        out.push('[');
        for (i, r) in records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":");
            escape_str(&mut out, &r.name);
            let _ = write!(
                out,
                ",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
                r.cat,
                if r.dur_us.is_some() { "X" } else { "i" },
                r.ts_us,
                r.tid
            );
            match r.dur_us {
                Some(d) => {
                    let _ = write!(out, ",\"dur\":{d}");
                }
                None => out.push_str(",\"s\":\"t\""),
            }
            let _ =
                write!(out, ",\"args\":{{\"id\":\"{:#x}\",\"parent\":\"{:#x}\"", r.id, r.parent);
            for (k, v) in &r.args {
                out.push(',');
                escape_str(&mut out, k);
                out.push(':');
                escape_str(&mut out, v);
            }
            out.push_str("}}");
        }
        out.push_str("\n]\n");
        out
    }

    /// Write the Chrome trace to `path` (tmp file + atomic rename).
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_chrome_trace())?;
        std::fs::rename(&tmp, path)
    }
}

/// A span opened on a [`SpanBus`], recorded when ended or dropped.
pub struct OpenSpan<'a> {
    bus: &'a SpanBus,
    id: u64,
    parent: u64,
    tid: u64,
    t0_us: u64,
    name: String,
    cat: &'static str,
    args: Vec<(&'static str, String)>,
    closed: bool,
}

impl OpenSpan<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// Attach a key/value argument rendered in the trace viewer.
    pub fn arg(&mut self, key: &'static str, value: impl Into<String>) {
        self.args.push((key, value.into()));
    }

    /// Close the span, recording its duration.
    pub fn end(self) {
        drop(self);
    }
}

impl Drop for OpenSpan<'_> {
    fn drop(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.bus.push(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            cat: self.cat,
            tid: self.tid,
            ts_us: self.t0_us,
            dur_us: Some(self.bus.now_us().saturating_sub(self.t0_us)),
            args: std::mem::take(&mut self.args),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn spans_nest_and_close() {
        let bus = SpanBus::new();
        let campaign = bus.begin("campaign", "campaign", ROOT_SPAN, 0);
        let cid = campaign.id();
        let mut shard = bus.begin("shard-0", "shard", cid, 1);
        shard.arg("trials", "4");
        let sid = shard.id();
        bus.begin("trial", "trial", sid, 1).end();
        bus.instant("retry", sid, 1, vec![("trial", "3".into())]);
        shard.end();
        campaign.end();

        let records = bus.records();
        assert_eq!(records.len(), 4);
        // Closed in LIFO order: trial, instant, shard, campaign.
        assert_eq!(records[0].cat, "trial");
        assert_eq!(records[0].parent, sid);
        assert!(records[0].dur_us.is_some());
        assert_eq!(records[1].dur_us, None);
        assert_eq!(records[3].parent, ROOT_SPAN);
    }

    #[test]
    fn dropped_span_still_records() {
        let bus = SpanBus::new();
        {
            let _span = bus.begin("shard-1", "shard", ROOT_SPAN, 2);
            // Simulates unwinding without an explicit end().
        }
        let records = bus.records();
        assert_eq!(records.len(), 1);
        assert!(records[0].dur_us.is_some());
    }

    #[test]
    fn keyed_ids_are_stable_and_distinct() {
        let a = keyed_id(42, 0);
        assert_eq!(a, keyed_id(42, 0));
        assert_ne!(a, keyed_id(42, 1));
        assert_ne!(a, keyed_id(43, 0));
        // High bit marks keyed IDs so they never collide with sequential
        // bus-allocated ones.
        assert!(a & (1 << 63) != 0);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_complete_events() {
        let bus = SpanBus::new();
        let span = bus.begin("campaign \"q\"", "campaign", ROOT_SPAN, 0);
        bus.instant("watchdog", span.id(), 1, vec![("trial", "9".into())]);
        span.end();

        let trace = bus.to_chrome_trace();
        let doc = json::parse(&trace).expect("chrome trace parses");
        let events = doc.as_arr().expect("array");
        assert_eq!(events.len(), 2);
        let by_ph = |ph: &str| {
            events
                .iter()
                .find(|e| e.as_obj().unwrap()["ph"].as_str() == Some(ph))
                .unwrap()
                .as_obj()
                .unwrap()
                .clone()
        };
        let complete = by_ph("X");
        assert!(complete["dur"].as_num().is_some());
        assert_eq!(complete["name"].as_str(), Some("campaign \"q\""));
        assert_eq!(complete["pid"].as_num(), Some(1.0));
        let instant = by_ph("i");
        assert_eq!(instant["s"].as_str(), Some("t"));
        assert_eq!(instant["args"].as_obj().unwrap()["trial"].as_str(), Some("9"));
    }

    #[test]
    fn chrome_trace_preserves_the_tree() {
        let bus = SpanBus::new();
        let parent = bus.begin("shard-0", "shard", ROOT_SPAN, 1);
        let child = bus.begin("trial", "trial", parent.id(), 1);
        let (pid, cid) = (parent.id(), child.id());
        child.end();
        parent.end();

        let doc = json::parse(&bus.to_chrome_trace()).expect("chrome trace parses");
        let events = doc.as_arr().expect("array");
        assert_eq!(events.len(), 2);
        let args = events[0].as_obj().unwrap()["args"].as_obj().unwrap().clone();
        assert_eq!(args["id"].as_str(), Some(format!("{cid:#x}").as_str()));
        assert_eq!(args["parent"].as_str(), Some(format!("{pid:#x}").as_str()));
    }
}
