//! Process-wide golden-run cache.
//!
//! Every campaign needs the fault-free reference execution of its target,
//! and the old entry points recomputed it per call — `fig6` alone ran the
//! same golden dozens of times. The cache keys on everything that makes a
//! golden run unique (the target's content digest, [`target_digest`], the
//! device and the ECC state) and hands out `Arc<Executed>` so concurrent
//! campaigns share one copy.
//!
//! Requests are described by [`GoldenRequest`]: one [`fetch`] entry point
//! covers plain goldens, site-recorded goldens (`record_sites`) and
//! snapshot-carrying goldens (`snapshot_stride`, the trial fast-forward
//! substrate of DESIGN.md §16). A cached run may serve a *weaker* request
//! — a recorded run answers a plain fetch, and any run answers a fetch
//! that asked for no snapshots — but never the reverse, so callers always
//! get at least what they asked for.
//!
//! The cache is bounded: past [`CACHE_CAPACITY`] entries the oldest
//! insertion is evicted (golden runs are cheap to recompute relative to a
//! campaign; the bound just keeps long `repro all` sessions from pinning
//! every workload's output memory at once).

use crate::engine::{fnv1a_extend, FNV_OFFSET};
use gpu_arch::DeviceModel;
use gpu_sim::{Executed, RunOptions, Target};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// Maximum cached golden runs.
pub const CACHE_CAPACITY: usize = 32;

/// What a caller needs from a golden run; the argument to [`fetch`].
///
/// The default request is the cheapest: ECC off, no site record, no
/// snapshots. Build richer requests with the chainable setters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GoldenRequest {
    /// Run with the ECC memory model enabled.
    pub ecc: bool,
    /// Carry a [`gpu_sim::SitesRecord`] (site provenance for statically
    /// pruned campaigns); the returned run's `sites_record` is `Some`.
    pub record_sites: bool,
    /// Capture an engine snapshot every this many dynamic instructions
    /// (`0` disables capture); the returned run's `snapshots` is
    /// non-empty for any run longer than one stride.
    pub snapshot_stride: u64,
}

impl GoldenRequest {
    /// A plain golden request with the given ECC state.
    pub fn new(ecc: bool) -> Self {
        GoldenRequest { ecc, ..GoldenRequest::default() }
    }

    /// Request a site-provenance record.
    pub fn record_sites(mut self, on: bool) -> Self {
        self.record_sites = on;
        self
    }

    /// Request snapshot capture at `stride` dynamic instructions
    /// (`0` disables).
    pub fn snapshots(mut self, stride: u64) -> Self {
        self.snapshot_stride = stride;
        self
    }
}

/// A content digest of `target`: FNV-1a over its name, its kernel
/// (instructions and resource footprint), its launch (geometry and
/// parameters) and its input memory image. This is what "the same
/// target" means to the golden cache and to any memo of finished
/// campaigns: two targets with one digest execute identically on every
/// device. The name is part of it because it also seeds a campaign's
/// trial streams. The output comparison rule is not: targets built the
/// same way compare their outputs the same way.
pub fn target_digest<T: Target + ?Sized>(target: &T) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    target.name().hash(&mut h);
    target.kernel().hash(&mut h);
    target.launch().hash(&mut h);
    h.write(target.fresh_memory().raw());
    h.finish()
}

/// [`Hasher`] over the engine's FNV-1a, so derived `Hash` impls feed
/// [`target_digest`]. A kernel hashes as thousands of small writes, which
/// FNV-1a takes about four times faster than the std SipHash hasher.
struct Fnv(u64);

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_extend(self.0, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct GoldenKey {
    /// [`target_digest`] of the target.
    target: u64,
    device: String,
    ecc: bool,
    /// Whether the run carries a [`gpu_sim::SitesRecord`]. Recorded runs
    /// are a superset of plain ones, so a plain fetch may reuse a
    /// recorded entry (but not vice versa).
    recorded: bool,
    /// Snapshot capture stride (0 = none). A no-snapshot fetch may reuse
    /// an entry captured at any stride; a snapshot fetch needs an exact
    /// stride match (capture points are part of the fast-forward
    /// contract).
    snapshot_stride: u64,
}

impl GoldenKey {
    /// Whether a cached entry with this key satisfies a request whose
    /// exact key is `want`: identical identity fields, and at least the
    /// requested extras.
    fn serves(&self, want: &GoldenKey) -> bool {
        self.target == want.target
            && self.device == want.device
            && self.ecc == want.ecc
            && (self.recorded || !want.recorded)
            && (want.snapshot_stride == 0 || self.snapshot_stride == want.snapshot_stride)
    }
}

struct GoldenCache {
    map: HashMap<GoldenKey, Arc<Executed>>,
    /// Insertion order for FIFO eviction, with each target's name for
    /// [`cache_report`].
    order: Vec<(GoldenKey, String)>,
}

static CACHE: OnceLock<Mutex<GoldenCache>> = OnceLock::new();

fn cache() -> &'static Mutex<GoldenCache> {
    CACHE.get_or_init(|| Mutex::new(GoldenCache { map: HashMap::new(), order: Vec::new() }))
}

fn key<T: Target + ?Sized>(target: &T, device: &DeviceModel, req: GoldenRequest) -> GoldenKey {
    GoldenKey {
        target: target_digest(target),
        device: device.name.clone(),
        ecc: req.ecc,
        recorded: req.record_sites,
        snapshot_stride: req.snapshot_stride,
    }
}

/// Fetch (or compute and insert) the golden run of `target` on `device`
/// satisfying `req`. Returns the run and whether it was a cache hit.
///
/// A hit may come from a *richer* cached entry (recorded when `req` asked
/// plain, snapshot-carrying when `req` asked for none); richer entries
/// are scanned in insertion order, so the choice is deterministic.
///
/// # Errors
/// Returns the failure status description if the golden run does not
/// complete (a target that cannot run fault-free cannot be campaigned).
pub fn fetch<T: Target + ?Sized>(
    target: &T,
    device: &DeviceModel,
    req: GoldenRequest,
) -> Result<(Arc<Executed>, bool), String> {
    let want = key(target, device, req);
    {
        let cache = cache().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(hit) = cache.map.get(&want) {
            return Ok((Arc::clone(hit), true));
        }
        // A richer run (recorded, or snapshotted when we need none) is the
        // same execution plus extras; share it instead of recomputing.
        // Insertion-order scan keeps the pick deterministic.
        for (k, _) in &cache.order {
            if k.serves(&want) {
                if let Some(hit) = cache.map.get(k) {
                    return Ok((Arc::clone(hit), true));
                }
            }
        }
    }
    // Compute outside the lock: concurrent misses on the same key waste a
    // run but never block each other, and the results are identical.
    let opts = RunOptions::golden()
        .ecc(req.ecc)
        .record_sites(req.record_sites)
        .snapshot_every(req.snapshot_stride);
    let golden = target.execute(device, &opts);
    if !golden.status.completed() {
        return Err(format!("golden run of {} failed: {:?}", target.name(), golden.status));
    }
    let golden = Arc::new(golden);
    let mut cache = cache().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if !cache.map.contains_key(&want) {
        if cache.map.len() >= CACHE_CAPACITY {
            let (oldest, _) = cache.order.remove(0);
            cache.map.remove(&oldest);
        }
        cache.map.insert(want.clone(), Arc::clone(&golden));
        cache.order.push((want, target.name().to_string()));
    }
    Ok((golden, false))
}

/// One line per cached golden run: target, device, extras, and the size
/// of any snapshot set and exit table — the CI snapshot-cache size
/// report.
pub fn cache_report() -> String {
    let cache = cache().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut out = String::new();
    let _ = writeln!(out, "golden cache: {} of {} entries", cache.order.len(), CACHE_CAPACITY);
    for (k, name) in &cache.order {
        let Some(run) = cache.map.get(k) else { continue };
        let snap_bytes: u64 = run.snapshots.iter().map(|s| s.approx_bytes()).sum();
        let exit_bytes = run.exit_table.as_ref().map_or(0, |t| t.approx_bytes());
        let _ = writeln!(
            out,
            "  {} on {} ecc={} recorded={} stride={} snapshots={} ({} KiB) exit table {:.1} KiB",
            name,
            k.device,
            k.ecc,
            k.recorded,
            k.snapshot_stride,
            run.snapshots.len(),
            snap_bytes / 1024,
            exit_bytes as f64 / 1024.0,
        );
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use gpu_arch::FunctionalUnit;

    #[test]
    fn second_fetch_hits_and_shares_the_run() {
        let device = DeviceModel::named("k40c-sim");
        let target = microbench::arith(FunctionalUnit::Iadd);
        let (first, hit_a) = fetch(&target, &device, GoldenRequest::new(false)).unwrap();
        let (second, hit_b) = fetch(&target, &device, GoldenRequest::new(false)).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&first, &second));
        // ECC state is part of the key.
        let (_, hit_ecc) = fetch(&target, &device, GoldenRequest::new(true)).unwrap();
        assert!(!hit_ecc);
    }

    #[test]
    fn target_identity_is_content_not_name_or_sizes() {
        let device = DeviceModel::named("k40c-sim");
        let fadd = microbench::arith(FunctionalUnit::Fadd);
        // Same name, launch and memory size, different instructions.
        let mut fmul = microbench::arith(FunctionalUnit::Fmul);
        fmul.name = fadd.name.clone();
        assert_eq!(fmul.kernel.len(), fadd.kernel.len());
        assert_eq!(fmul.memory.len(), fadd.memory.len());
        assert_ne!(target_digest(&fadd), target_digest(&fmul));
        let (a, _) = fetch(&fadd, &device, GoldenRequest::new(true)).unwrap();
        let (b, hit) = fetch(&fmul, &device, GoldenRequest::new(true)).unwrap();
        assert!(!hit, "a different kernel under one name must not share a golden run");
        assert!(!Arc::ptr_eq(&a, &b));
        // The launch parameters and the input image are part of it too.
        let mut params = fadd.clone();
        params.launch.params.push(0);
        assert_ne!(target_digest(&fadd), target_digest(&params));
        let mut input = fadd.clone();
        let word = input.memory.read_u32_host(0).unwrap();
        input.memory.write_u32_host(0, word ^ 1).unwrap();
        assert_ne!(target_digest(&fadd), target_digest(&input));
        assert_eq!(target_digest(&fadd), target_digest(&fadd.clone()));
    }

    #[test]
    fn recorded_fetch_carries_provenance_and_serves_plain_fetches() {
        let device = DeviceModel::named("v100-sim");
        let target = microbench::arith(FunctionalUnit::Ffma);
        let req = GoldenRequest::new(false).record_sites(true);
        let (rec, hit) = fetch(&target, &device, req).unwrap();
        assert!(!hit);
        let sites = rec.sites_record.as_ref().expect("recorded golden has provenance");
        assert_eq!(sites.site_pcs.len() as u64, rec.counts.sites.gpr_writers);
        assert_eq!(sites.block_windows.len() as u64, target.launch().grid.count());
        // A plain fetch reuses the recorded entry instead of recomputing.
        let (plain, hit_plain) = fetch(&target, &device, GoldenRequest::new(false)).unwrap();
        assert!(hit_plain);
        assert!(Arc::ptr_eq(&rec, &plain));
    }

    #[test]
    fn snapshot_fetch_needs_exact_stride_but_serves_plain() {
        let device = DeviceModel::named("v100-sim");
        let target = microbench::arith(FunctionalUnit::Fmul);
        let (snap, hit) = fetch(&target, &device, GoldenRequest::new(false).snapshots(64)).unwrap();
        assert!(!hit);
        assert!(!snap.snapshots.is_empty(), "stride 64 should capture on a microbench");
        // A plain fetch reuses the snapshot-carrying entry.
        let (plain, hit_plain) = fetch(&target, &device, GoldenRequest::new(false)).unwrap();
        assert!(hit_plain);
        assert!(Arc::ptr_eq(&snap, &plain));
        // A different stride is a different run.
        let (other, hit_other) =
            fetch(&target, &device, GoldenRequest::new(false).snapshots(128)).unwrap();
        assert!(!hit_other);
        assert!(!Arc::ptr_eq(&snap, &other));
        // The report names the cached snapshot sets and exit tables.
        assert!(snap.exit_table.is_some(), "a capturing golden carries an exit table");
        let report = cache_report();
        assert!(report.contains("stride=64"), "report was:\n{report}");
        assert!(report.contains("exit table"), "report was:\n{report}");
    }
}
