//! Campaign metrics: counters, gauges and histograms behind a registry,
//! snapshotable to JSONL and CSV.
//!
//! All instruments are lock-free on the update path (`AtomicU64`) so the
//! parallel campaign workers can tally outcomes without contention;
//! the registry itself takes a mutex only on instrument *creation* and
//! snapshot. Campaign code therefore resolves its instruments once, before
//! the hot loop.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::{self, escape_str, Json};

/// Monotonic event tally.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins float value (φ, IPC, trials/sec, ETA, ...).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { bits: AtomicU64::new(0.0f64.to_bits()) }
    }
}

impl Gauge {
    pub fn set(&self, x: f64) {
        self.bits.store(x.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of power-of-two histogram buckets: bucket 0 holds value 0,
/// bucket `i` holds values with `floor(log2(v)) == i - 1`.
const HISTOGRAM_BUCKETS: usize = 65;

/// Number of independent update stripes per histogram. Each thread hashes
/// to one stripe, so concurrent workers touch disjoint cache lines; the
/// snapshot folds stripes back together (addition is order-independent,
/// so snapshots stay deterministic for a given set of observations).
const HISTOGRAM_STRIPES: usize = 8;

/// One stripe of histogram state. Cache-line aligned so two stripes never
/// share a line at their boundary.
#[derive(Debug)]
#[repr(align(64))]
struct HistogramStripe {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramStripe {
    fn default() -> Self {
        HistogramStripe {
            buckets: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Stripe this thread updates. Threads are assigned round-robin on first
/// touch, which spreads a pool of campaign workers evenly across stripes.
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % HISTOGRAM_STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// Log₂-bucketed histogram of `u64` observations (e.g. per-trial sim
/// microseconds, dynamic instruction counts, fsync latencies). Updates are
/// lock-free and striped per thread; min/max are shared atomics.
#[derive(Debug)]
pub struct Histogram {
    stripes: [HistogramStripe; HISTOGRAM_STRIPES],
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            stripes: [(); HISTOGRAM_STRIPES].map(|_| HistogramStripe::default()),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn observe(&self, v: u64) {
        let stripe = &self.stripes[stripe_index()];
        stripe.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        stripe.count.fetch_add(1, Ordering::Relaxed);
        stripe.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Bucket that `v` lands in.
    pub fn bucket_index(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive value range covered by bucket `i`.
    pub fn bucket_range(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 0)
        } else {
            (1u64 << (i - 1), (1u64 << (i - 1)) + ((1u64 << (i - 1)) - 1))
        }
    }

    pub fn count(&self) -> u64 {
        self.stripes.iter().map(|s| s.count.load(Ordering::Relaxed)).sum()
    }

    pub fn sum(&self) -> u64 {
        self.stripes.iter().map(|s| s.sum.load(Ordering::Relaxed)).sum()
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: self.sum(),
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
            buckets: (0..HISTOGRAM_BUCKETS)
                .filter_map(|i| {
                    let n: u64 =
                        self.stripes.iter().map(|s| s.buckets[i].load(Ordering::Relaxed)).sum();
                    (n > 0).then_some((i as u32, n))
                })
                .collect(),
        }
    }
}

/// Wall-clock stopwatch feeding histograms in microseconds. Timing is
/// presentation-side only (never trace content), so it does not break the
/// determinism contract.
#[derive(Debug)]
pub struct Timer {
    started: Instant,
}

impl Timer {
    pub fn start() -> Self {
        Timer { started: Instant::now() }
    }

    pub fn elapsed_micros(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Record the elapsed microseconds into `hist` and return them.
    pub fn observe(self, hist: &Histogram) -> u64 {
        let us = self.elapsed_micros();
        hist.observe(us);
        us
    }
}

/// Named instruments for one campaign (or one process).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Consistent-enough point-in-time copy of every instrument. (Each
    /// instrument is read atomically; the set is read under the creation
    /// locks.)
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self.gauges.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// `(bucket index, count)` for non-empty buckets only.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the value at quantile `q` (clamped to `[0,1]`), at
    /// log₂-bucket resolution: the inclusive upper edge of the bucket the
    /// rank-`ceil(q·count)` observation falls in, clamped to the observed
    /// max. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= target {
                let (_, hi) = Histogram::bucket_range(idx as usize);
                return hi.min(self.max);
            }
        }
        self.max
    }

    /// Fold `other` into `self`: counts add, ranges widen. Merging is
    /// commutative and associative, so per-worker snapshots fold to the
    /// same result in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut merged: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for &(idx, n) in &other.buckets {
            *merged.entry(idx).or_default() += n;
        }
        self.buckets = merged.into_iter().collect();
    }
}

/// Point-in-time copy of a [`MetricsRegistry`], serializable to a JSON
/// line or CSV rows and parseable back (for tooling and the round-trip
/// tests).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Fold `other` into `self`: counters and histograms add; gauges are
    /// last-write-wins (`other` wins where both define a gauge). Counter
    /// and histogram merging is commutative/associative, so snapshots from
    /// 1..N workers fold to an identical combined snapshot regardless of
    /// fold order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// One JSON object, no trailing newline. Key order is deterministic
    /// (sorted), so identical snapshots serialize byte-identically.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_str(&mut out, k);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_str(&mut out, k);
            out.push(':');
            json::emit_f64(&mut out, *v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_str(&mut out, k);
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                h.count, h.sum, h.min, h.max
            ));
            for (j, (idx, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{idx},{n}]"));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Parse a line produced by [`Self::to_json_line`].
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let doc = json::parse(line.trim())?;
        let obj = doc.as_obj().ok_or("snapshot is not an object")?;
        let mut snap = MetricsSnapshot::default();
        if let Some(counters) = obj.get("counters").and_then(Json::as_obj) {
            for (k, v) in counters {
                let x = v.as_num().ok_or_else(|| format!("counter {k} not a number"))?;
                snap.counters.insert(k.clone(), x as u64);
            }
        }
        if let Some(gauges) = obj.get("gauges").and_then(Json::as_obj) {
            for (k, v) in gauges {
                match v {
                    Json::Null => {
                        snap.gauges.insert(k.clone(), f64::NAN);
                    }
                    _ => {
                        let x = v.as_num().ok_or_else(|| format!("gauge {k} not a number"))?;
                        snap.gauges.insert(k.clone(), x);
                    }
                }
            }
        }
        if let Some(hists) = obj.get("histograms").and_then(Json::as_obj) {
            for (k, v) in hists {
                let h = v.as_obj().ok_or_else(|| format!("histogram {k} not an object"))?;
                let field = |name: &str| -> Result<u64, String> {
                    h.get(name)
                        .and_then(Json::as_num)
                        .map(|x| x as u64)
                        .ok_or_else(|| format!("histogram {k} missing {name}"))
                };
                let buckets = h
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("histogram {k} missing buckets"))?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_arr().ok_or("bucket not a pair")?;
                        match pair {
                            [i, n] => Ok((
                                i.as_num().ok_or("bad bucket index")? as u32,
                                n.as_num().ok_or("bad bucket count")? as u64,
                            )),
                            _ => Err("bucket not a pair".to_string()),
                        }
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                snap.histograms.insert(
                    k.clone(),
                    HistogramSnapshot {
                        count: field("count")?,
                        sum: field("sum")?,
                        min: field("min")?,
                        max: field("max")?,
                        buckets,
                    },
                );
            }
        }
        Ok(snap)
    }

    /// CSV rows: `kind,name,field,value`, header included. Histograms emit
    /// one row per summary field plus one per non-empty bucket.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,field,value\n");
        let csv_name = |name: &str| {
            if name.contains([',', '"', '\n']) {
                format!("\"{}\"", name.replace('"', "\"\""))
            } else {
                name.to_string()
            }
        };
        for (k, v) in &self.counters {
            out.push_str(&format!("counter,{},value,{v}\n", csv_name(k)));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge,{},value,{v}\n", csv_name(k)));
        }
        for (k, h) in &self.histograms {
            let name = csv_name(k);
            out.push_str(&format!("histogram,{name},count,{}\n", h.count));
            out.push_str(&format!("histogram,{name},sum,{}\n", h.sum));
            out.push_str(&format!("histogram,{name},min,{}\n", h.min));
            out.push_str(&format!("histogram,{name},max,{}\n", h.max));
            for (idx, n) in &h.buckets {
                let (lo, hi) = Histogram::bucket_range(*idx as usize);
                out.push_str(&format!("histogram,{name},bucket[{lo}..={hi}],{n}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_math() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("trials");
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        // Same name resolves to the same instrument.
        reg.counter("trials").inc();
        assert_eq!(c.get(), 11);

        let g = reg.gauge("phi");
        g.set(1.25);
        assert_eq!(reg.gauge("phi").get(), 1.25);
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1034);
        assert!((h.mean() - 1034.0 / 6.0).abs() < 1e-12);
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_range(0), (0, 0));
        assert_eq!(Histogram::bucket_range(2), (2, 3));
        let snap = h.snapshot();
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 1024);
        assert_eq!(snap.buckets, vec![(0, 1), (1, 1), (2, 2), (3, 1), (11, 1)]);
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let reg = Arc::new(MetricsRegistry::new());
        let c = reg.counter("n");
        let h = reg.histogram("h");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(reg.histogram("h").count(), 8000);
    }

    #[test]
    fn histogram_quantiles_hit_bucket_upper_bounds() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.observe(v);
        }
        let snap = h.snapshot();
        // Rank-1 observation is 1; rank-50 lands in bucket [32..=63];
        // the top ranks land in [64..=127] but clamp to the observed max.
        assert_eq!(snap.quantile(0.0), 1);
        assert_eq!(snap.quantile(0.5), 63);
        assert_eq!(snap.quantile(1.0), 100);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);

        let single = {
            let h = Histogram::default();
            h.observe(7);
            h.snapshot()
        };
        assert_eq!(single.quantile(0.5), 7);
        assert_eq!(single.quantile(0.99), 7);
    }

    #[test]
    fn histogram_snapshots_merge_commutatively() {
        let a = {
            let h = Histogram::default();
            for v in [0, 1, 5, 900] {
                h.observe(v);
            }
            h.snapshot()
        };
        let b = {
            let h = Histogram::default();
            for v in [3, 5, 1 << 40] {
                h.observe(v);
            }
            h.snapshot()
        };
        let combined = {
            let h = Histogram::default();
            for v in [0, 1, 5, 900, 3, 5, 1 << 40] {
                h.observe(v);
            }
            h.snapshot()
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, combined);
        assert_eq!(ba, combined);

        // Merging into / from empty is the identity.
        let mut empty = HistogramSnapshot::default();
        empty.merge(&combined);
        assert_eq!(empty, combined);
        let mut c = combined.clone();
        c.merge(&HistogramSnapshot::default());
        assert_eq!(c, combined);
    }

    #[test]
    fn striped_updates_fold_into_one_deterministic_snapshot() {
        // Many threads (more than stripes) hammer one histogram; the
        // snapshot must account for every observation exactly once and be
        // identical to a single-threaded run over the same multiset.
        let h = Histogram::default();
        std::thread::scope(|s| {
            for t in 0..16 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..500u64 {
                        h.observe(i + t % 2);
                    }
                });
            }
        });
        let reference = Histogram::default();
        for t in 0..16u64 {
            for i in 0..500u64 {
                reference.observe(i + t % 2);
            }
        }
        assert_eq!(h.snapshot(), reference.snapshot());
    }

    #[test]
    fn metrics_snapshots_merge_across_workers() {
        let w1 = MetricsRegistry::new();
        w1.counter("trials").add(10);
        w1.histogram("t").observe(100);
        let w2 = MetricsRegistry::new();
        w2.counter("trials").add(5);
        w2.counter("outcome.sdc").add(2);
        w2.gauge("phi").set(1.5);
        w2.histogram("t").observe(7);

        let mut m12 = w1.snapshot();
        m12.merge(&w2.snapshot());
        assert_eq!(m12.counters["trials"], 15);
        assert_eq!(m12.counters["outcome.sdc"], 2);
        assert_eq!(m12.gauges["phi"], 1.5);
        assert_eq!(m12.histograms["t"].count, 2);
        assert_eq!(m12.histograms["t"].sum, 107);

        let mut m21 = w2.snapshot();
        m21.merge(&w1.snapshot());
        // Counter/histogram content is order-independent.
        assert_eq!(m21.counters, m12.counters);
        assert_eq!(m21.histograms, m12.histograms);
    }

    #[test]
    fn timer_observes_microseconds() {
        let h = Histogram::default();
        let t = Timer::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let us = t.observe(&h);
        assert!(us >= 1_000, "timer measured {us}us");
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), us);
    }

    #[test]
    fn snapshot_json_round_trip() {
        let reg = MetricsRegistry::new();
        reg.counter("outcome.sdc").add(12);
        reg.counter("outcome.masked").add(88);
        reg.gauge("profile.phi").set(2.375);
        reg.gauge("trials_per_sec").set(1234.5);
        let h = reg.histogram("site.index");
        for v in [5, 900, 3, 77, 0] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let line = snap.to_json_line();
        let back = MetricsSnapshot::from_json_line(&line).unwrap();
        assert_eq!(back, snap);
        // Serialization is deterministic.
        assert_eq!(back.to_json_line(), line);
    }

    #[test]
    fn snapshot_csv_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("a").inc();
        reg.gauge("b").set(0.5);
        reg.histogram("c").observe(2);
        let csv = reg.snapshot().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "kind,name,field,value");
        assert!(lines.contains(&"counter,a,value,1"));
        assert!(lines.contains(&"gauge,b,value,0.5"));
        assert!(lines.contains(&"histogram,c,bucket[2..=3],1"));
    }
}
