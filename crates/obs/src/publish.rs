//! Periodic snapshot publishing for live consumers.
//!
//! [`SnapshotPublisher`] runs a background thread that snapshots the
//! attached [`MetricsRegistry`] every interval and writes two files into a
//! status directory via tmp-file + atomic rename, so readers never see a
//! torn file:
//!
//! * `status.json` — one [`StatusSnapshot`] JSON line (campaign label +
//!   full metrics snapshot), consumed by `campaign-top` and the future
//!   campaign-server;
//! * `status.prom` — the same snapshot in Prometheus text exposition.
//!
//! The publisher outlives individual campaigns: `set_campaign` swaps which
//! registry is being published, and dropping the publisher performs one
//! final publish so the files always reflect the end state.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::json::{self, escape_str, Json};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};

/// A published point-in-time view of one campaign.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatusSnapshot {
    pub campaign: String,
    /// Resolved device-model name the campaign targets (empty when the
    /// publisher predates device attribution or none applies).
    pub device: String,
    pub snapshot: MetricsSnapshot,
    /// The finished campaign's digest over its trials, once known (see
    /// `campaign::CampaignRun::digest`).
    pub digest: Option<u64>,
}

impl StatusSnapshot {
    /// `{"report":"status","campaign":...,"device":...,"metrics":{...}}`,
    /// with `"digest":"<16 hex digits>"` after the device once known, no
    /// newline.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"report\":\"status\",\"campaign\":");
        escape_str(&mut out, &self.campaign);
        out.push_str(",\"device\":");
        escape_str(&mut out, &self.device);
        if let Some(digest) = self.digest {
            out.push_str(&format!(",\"digest\":\"{digest:016x}\""));
        }
        out.push_str(",\"metrics\":");
        out.push_str(&self.snapshot.to_json_line());
        out.push('}');
        out
    }

    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let doc = json::parse(line.trim())?;
        let obj = doc.as_obj().ok_or("status is not an object")?;
        let campaign =
            obj.get("campaign").and_then(Json::as_str).ok_or("missing campaign")?.to_string();
        // Absent in files written before device attribution existed.
        let device = obj.get("device").and_then(Json::as_str).unwrap_or("").to_string();
        let digest = match obj.get("digest") {
            None => None,
            Some(hex) => Some(
                hex.as_str()
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .ok_or("digest is not a hex string")?,
            ),
        };
        let metrics = obj.get("metrics").ok_or("missing metrics")?;
        // Re-serialize the sub-object through the snapshot parser. The
        // metrics object is small; simplicity beats zero-copy here.
        let snapshot = MetricsSnapshot::from_json_line(&metrics.to_string())?;
        Ok(StatusSnapshot { campaign, device, snapshot, digest })
    }
}

/// Atomically write `contents` to `dir/name` via `dir/name.tmp` + rename.
pub fn write_atomic(dir: &Path, name: &str, contents: &str) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, dir.join(name))
}

/// The campaign being published: label, device, registry and digest.
type Current = (String, String, Arc<MetricsRegistry>, Option<u64>);

struct PublisherShared {
    dir: PathBuf,
    current: Mutex<Option<Current>>,
    stop: AtomicBool,
}

impl PublisherShared {
    fn publish(&self) -> io::Result<()> {
        // The guard is held across both writes: the interval thread and
        // `publish_now` share one tmp-file name per status file, and two
        // unserialized publishers could rename a half-written tmp file.
        let current = self.current.lock().unwrap_or_else(|e| e.into_inner());
        let Some((campaign, device, registry, digest)) = current.as_ref() else {
            return Ok(());
        };
        let status = StatusSnapshot {
            campaign: campaign.clone(),
            device: device.clone(),
            snapshot: registry.snapshot(),
            digest: *digest,
        };
        write_atomic(&self.dir, "status.json", &(status.to_json_line() + "\n"))?;
        write_atomic(&self.dir, "status.prom", &status.snapshot.to_prometheus_text())
    }
}

/// Background interval publisher of campaign status files.
pub struct SnapshotPublisher {
    shared: Arc<PublisherShared>,
    thread: Option<JoinHandle<()>>,
}

impl SnapshotPublisher {
    /// Create `dir` and start publishing every `interval`. Nothing is
    /// written until a campaign is attached via [`Self::set_campaign`].
    pub fn start(dir: impl Into<PathBuf>, interval: Duration) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let shared = Arc::new(PublisherShared {
            dir,
            current: Mutex::new(None),
            stop: AtomicBool::new(false),
        });
        let worker = Arc::clone(&shared);
        let thread = std::thread::Builder::new().name("obs-publisher".into()).spawn(move || {
            let tick = Duration::from_millis(25).min(interval);
            let mut since_publish = interval; // publish promptly once attached
            while !worker.stop.load(Ordering::Relaxed) {
                if since_publish >= interval {
                    let _ = worker.publish();
                    since_publish = Duration::ZERO;
                }
                std::thread::sleep(tick);
                since_publish += tick;
            }
        })?;
        Ok(SnapshotPublisher { shared, thread: Some(thread) })
    }

    /// Attach (or replace) the campaign being published. `device` is the
    /// resolved device-model name the campaign targets (so `campaign-top`
    /// and archived `status.json` identify the silicon).
    pub fn set_campaign(
        &self,
        label: impl Into<String>,
        device: impl Into<String>,
        metrics: Arc<MetricsRegistry>,
    ) {
        *self.shared.current.lock().unwrap_or_else(|e| e.into_inner()) =
            Some((label.into(), device.into(), metrics, None));
    }

    /// Record the attached campaign's digest once it has finished.
    pub fn set_digest(&self, digest: Option<u64>) {
        if let Some(current) =
            self.shared.current.lock().unwrap_or_else(|e| e.into_inner()).as_mut()
        {
            current.3 = digest;
        }
    }

    /// Synchronously publish the current snapshot now.
    pub fn publish_now(&self) -> io::Result<()> {
        self.shared.publish()
    }

    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }
}

impl Drop for SnapshotPublisher {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        // Final publish so the files reflect the campaign's end state.
        let _ = self.shared.publish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("obs-publish-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn status_snapshot_round_trips() {
        let reg = MetricsRegistry::new();
        reg.counter("trials").add(42);
        reg.gauge("campaign.ci_half_width").set(0.125);
        reg.histogram("campaign.trial_micros").observe(900);
        let status = StatusSnapshot {
            campaign: "avf/Volta/HHOTSPOT".into(),
            device: "Tesla V100".into(),
            snapshot: reg.snapshot(),
            digest: None,
        };
        let line = status.to_json_line();
        let back = StatusSnapshot::from_json_line(&line).unwrap();
        assert_eq!(back, status);
        let digested = StatusSnapshot { digest: Some(u64::MAX - 7), ..status };
        let line = digested.to_json_line();
        assert!(line.contains("\"digest\":\"fffffffffffffff8\""), "{line}");
        assert_eq!(StatusSnapshot::from_json_line(&line).unwrap(), digested);
    }

    #[test]
    fn publisher_writes_both_files_atomically() {
        let dir = temp_dir("files");
        let publisher =
            SnapshotPublisher::start(&dir, Duration::from_secs(3600)).expect("publisher");
        let reg = Arc::new(MetricsRegistry::new());
        reg.counter("trials").add(7);
        publisher.set_campaign("test/campaign", "Tesla K40c", Arc::clone(&reg));
        publisher.publish_now().expect("publish");

        let json = std::fs::read_to_string(dir.join("status.json")).expect("status.json");
        let status = StatusSnapshot::from_json_line(&json).expect("parse status");
        assert_eq!(status.campaign, "test/campaign");
        assert_eq!(status.device, "Tesla K40c");
        assert_eq!(status.snapshot.counters["trials"], 7);
        assert_eq!(status.digest, None);
        publisher.set_digest(Some(0xabc));
        publisher.publish_now().expect("publish");
        let json = std::fs::read_to_string(dir.join("status.json")).expect("status.json");
        assert_eq!(StatusSnapshot::from_json_line(&json).expect("parse").digest, Some(0xabc));

        let prom = std::fs::read_to_string(dir.join("status.prom")).expect("status.prom");
        assert!(prom.contains("trials_total 7"));

        reg.counter("trials").add(1);
        drop(publisher); // final publish on drop
        let json = std::fs::read_to_string(dir.join("status.json")).expect("status.json");
        assert!(json.contains("\"trials\":8"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interval_thread_publishes_without_explicit_calls() {
        let dir = temp_dir("interval");
        let publisher =
            SnapshotPublisher::start(&dir, Duration::from_millis(10)).expect("publisher");
        let reg = Arc::new(MetricsRegistry::new());
        reg.counter("trials").add(1);
        publisher.set_campaign("bg", "", Arc::clone(&reg));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !dir.join("status.json").exists() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(dir.join("status.json").exists(), "interval publish never happened");
        drop(publisher);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
