//! Campaign checkpoints: one JSON line per snapshot, written through
//! [`obs::RunReport`] and parsed back with [`obs::json`].
//!
//! A checkpoint captures everything the engine needs to resume at a
//! shard boundary: the campaign identity (label + seed + shard size),
//! how many shards are folded in, and the accumulated outcome tallies.
//! Because every shard owns a self-contained RNG stream, resuming from a
//! checkpoint and running to the end is bit-identical to an uninterrupted
//! campaign. Site-class and DUE-kind observability tallies are *not*
//! checkpointed — they live in the caller's [`obs::MetricsRegistry`] and
//! only cover the shards run in the current process.

use obs::json::{self, Json};
use obs::RunReport;
use stats::OutcomeCounts;
use std::collections::BTreeMap;

/// The JSONL `"report"` tag of a checkpoint line.
pub const CHECKPOINT_REPORT_KIND: &str = "campaign.checkpoint";

/// A resumable campaign snapshot at a shard boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Campaign identity: `kind/device/target`.
    pub label: String,
    /// Budget seed the shards were keyed with.
    pub seed: u64,
    /// Shard size of the partition (part of the determinism contract).
    pub shard_size: u32,
    /// Shards folded in so far; the next shard to run.
    pub shards_done: u32,
    /// Trials accounted so far.
    pub trials: u64,
    /// Outcome tallies over all trials.
    pub counts: OutcomeCounts,
    /// Tallies of trials resolved without execution, keyed by the
    /// sampler's direct label (e.g. `beam.unstruck`).
    pub direct: BTreeMap<String, OutcomeCounts>,
    /// The campaign digest over the trials folded so far (see
    /// [`crate::CampaignRun::digest`]).
    pub digest: u64,
}

impl Checkpoint {
    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut r = RunReport::new(CHECKPOINT_REPORT_KIND);
        // The seed is a string: JSON numbers parse as f64, which rounds
        // seeds past 2^53.
        r.push_str("label", &self.label)
            .push_str("seed", &self.seed.to_string())
            .push_uint("shard_size", self.shard_size as u64)
            .push_uint("shards_done", self.shards_done as u64)
            .push_uint("trials", self.trials)
            .push_uint("sdc", self.counts.sdc)
            .push_uint("due", self.counts.due)
            .push_uint("masked", self.counts.masked)
            .push_str("digest", &format!("{:016x}", self.digest));
        for (label, c) in &self.direct {
            r.push_uint(&format!("direct.{label}.sdc"), c.sdc)
                .push_uint(&format!("direct.{label}.due"), c.due)
                .push_uint(&format!("direct.{label}.masked"), c.masked);
        }
        r.to_json_line()
    }

    /// Parse a checkpoint line produced by [`Checkpoint::to_json_line`].
    pub fn parse(line: &str) -> Result<Checkpoint, String> {
        let parsed = json::parse(line)?;
        let obj = parsed.as_obj().ok_or("checkpoint line is not a JSON object")?;
        if obj.get("report").and_then(Json::as_str) != Some(CHECKPOINT_REPORT_KIND) {
            return Err(format!("not a {CHECKPOINT_REPORT_KIND} line"));
        }
        let str_field = |k: &str| -> Result<String, String> {
            obj.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("checkpoint missing string field {k:?}"))
        };
        let uint_field = |k: &str| -> Result<u64, String> {
            obj.get(k)
                .and_then(Json::as_num)
                .filter(|v| v.is_finite() && *v >= 0.0)
                .map(|v| v as u64)
                .ok_or_else(|| format!("checkpoint missing numeric field {k:?}"))
        };
        let seed = str_field("seed")?
            .parse()
            .map_err(|_| "checkpoint field \"seed\" is not a decimal string")?;
        let digest = u64::from_str_radix(&str_field("digest")?, 16)
            .map_err(|_| "checkpoint field \"digest\" is not a hex string")?;
        let mut direct: BTreeMap<String, OutcomeCounts> = BTreeMap::new();
        for (key, value) in obj {
            let Some(rest) = key.strip_prefix("direct.") else { continue };
            let Some((label, outcome)) = rest.rsplit_once('.') else {
                return Err(format!("malformed direct tally key {key:?}"));
            };
            let n = value
                .as_num()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("non-numeric direct tally {key:?}"))?
                as u64;
            let c = direct.entry(label.to_string()).or_default();
            match outcome {
                "sdc" => c.sdc = n,
                "due" => c.due = n,
                "masked" => c.masked = n,
                other => return Err(format!("unknown outcome {other:?} in {key:?}")),
            }
        }
        let cp = Checkpoint {
            label: str_field("label")?,
            seed,
            shard_size: uint_field("shard_size")? as u32,
            shards_done: uint_field("shards_done")? as u32,
            trials: uint_field("trials")?,
            counts: OutcomeCounts {
                sdc: uint_field("sdc")?,
                due: uint_field("due")?,
                masked: uint_field("masked")?,
            },
            direct,
            digest,
        };
        if cp.counts.total() != cp.trials {
            return Err(format!(
                "inconsistent checkpoint: {} tallied outcomes for {} trials",
                cp.counts.total(),
                cp.trials
            ));
        }
        Ok(cp)
    }

    /// Scan a JSONL stream for the last checkpoint for `label`, reporting
    /// what was seen along the way.
    ///
    /// Three kinds of line are distinguished:
    ///
    /// * a parseable checkpoint — the last one whose label matches wins;
    /// * a *foreign* line — valid JSON that is not a
    ///   `campaign.checkpoint` report (progress lines, run reports);
    ///   these are expected in shared streams and are not counted as
    ///   damage;
    /// * a *rejected* line — unparseable JSON, or a checkpoint report
    ///   that fails validation (truncated tail after a crash, torn
    ///   write, inconsistent tallies). These are tolerated — the scan
    ///   falls back to the previous parseable checkpoint — but counted,
    ///   so recovery can warn that history was lost.
    pub fn scan_stream(text: &str, label: &str) -> StreamScan {
        let mut scan = StreamScan::default();
        for raw in text.lines() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            scan.lines_scanned += 1;
            let parsed = match json::parse(line) {
                Ok(v) => v,
                Err(why) => {
                    scan.reject(&why);
                    continue;
                }
            };
            let is_checkpoint =
                parsed.as_obj().and_then(|obj| obj.get("report")).and_then(Json::as_str)
                    == Some(CHECKPOINT_REPORT_KIND);
            if !is_checkpoint {
                continue; // foreign but well-formed: not damage
            }
            match Checkpoint::parse(line) {
                Ok(cp) => {
                    if cp.label == label {
                        scan.checkpoint = Some(cp);
                    }
                }
                Err(why) => scan.reject(&why),
            }
        }
        scan
    }
}

/// What [`Checkpoint::scan_stream`] saw: the recovered checkpoint (if
/// any) plus damage diagnostics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamScan {
    /// The last parseable checkpoint whose label matched.
    pub checkpoint: Option<Checkpoint>,
    /// Non-empty lines examined.
    pub lines_scanned: u64,
    /// Lines that were unparseable JSON or failed checkpoint validation.
    pub lines_rejected: u64,
    /// The first rejection's parse error, for the recovery warning.
    pub first_error: Option<String>,
}

impl StreamScan {
    fn reject(&mut self, why: &str) {
        self.lines_rejected += 1;
        if self.first_error.is_none() {
            self.first_error = Some(why.to_string());
        }
    }

    /// True when the stream contained lines that had to be discarded.
    pub fn damaged(&self) -> bool {
        self.lines_rejected > 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut direct = BTreeMap::new();
        direct.insert("beam.unstruck".to_string(), OutcomeCounts { sdc: 0, due: 0, masked: 70 });
        direct.insert("beam.direct".to_string(), OutcomeCounts { sdc: 1, due: 4, masked: 2 });
        Checkpoint {
            label: "beam/ecc-on/SK40c/FMXM".to_string(),
            seed: 2021,
            shard_size: 32,
            shards_done: 4,
            trials: 128,
            counts: OutcomeCounts { sdc: 11, due: 13, masked: 104 },
            direct,
            digest: 0x0123_4567_89ab_cdef,
        }
    }

    #[test]
    fn json_round_trip() {
        let cp = sample();
        let line = cp.to_json_line();
        assert!(line.contains("\"report\":\"campaign.checkpoint\""));
        assert_eq!(Checkpoint::parse(&line).unwrap(), cp);
    }

    #[test]
    fn seeds_past_2_pow_53_round_trip() {
        let cp = Checkpoint { seed: u64::MAX - 1, ..sample() };
        assert_eq!(Checkpoint::parse(&cp.to_json_line()).unwrap(), cp);
    }

    #[test]
    fn lines_without_a_string_seed_or_a_hex_digest_are_rejected() {
        let line = sample().to_json_line();
        let numeric_seed = line.replace("\"seed\":\"2021\"", "\"seed\":2021");
        let no_digest = line.replace(",\"digest\":\"0123456789abcdef\"", "");
        let bad_digest = line.replace("0123456789abcdef", "not hex");
        for bad in [numeric_seed, no_digest, bad_digest] {
            assert_ne!(bad, line);
            assert!(Checkpoint::parse(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parse_rejects_foreign_and_inconsistent_lines() {
        assert!(Checkpoint::parse("{\"report\":\"run\"}").is_err());
        assert!(Checkpoint::parse("not json").is_err());
        let mut cp = sample();
        cp.trials += 1; // no longer equals counts.total()
        assert!(Checkpoint::parse(&cp.to_json_line()).is_err());
    }

    #[test]
    fn scan_stream_picks_last_checkpoint_for_label() {
        let mut early = sample();
        early.shards_done = 2;
        early.trials = 64;
        early.counts = OutcomeCounts { sdc: 5, due: 7, masked: 52 };
        early.direct.clear();
        let late = sample();
        let mut other = sample();
        other.label = "something/else".to_string();
        let stream = format!(
            "{}\n{{\"report\":\"run\",\"campaigns\":3}}\n{}\n{}\n",
            early.to_json_line(),
            late.to_json_line(),
            other.to_json_line()
        );
        assert_eq!(Checkpoint::scan_stream(&stream, &late.label).checkpoint, Some(late));
        assert_eq!(Checkpoint::scan_stream(&stream, "missing").checkpoint, None);
    }

    #[test]
    fn scan_stream_counts_damage_and_recovers_previous_checkpoint() {
        let good = sample();
        let mut torn = good.to_json_line();
        torn.truncate(torn.len() / 2); // crash mid-write
        let stream = format!(
            "{}\n{{\"report\":\"run\",\"campaigns\":3}}\nnot json at all\n{torn}\n",
            good.to_json_line()
        );
        let scan = Checkpoint::scan_stream(&stream, &good.label);
        assert_eq!(scan.checkpoint, Some(good));
        assert_eq!(scan.lines_scanned, 4);
        // The foreign-but-valid run report is not damage; the garbage
        // line and the torn checkpoint are.
        assert_eq!(scan.lines_rejected, 2);
        assert!(scan.damaged());
        assert!(scan.first_error.is_some());
    }

    #[test]
    fn scan_stream_rejects_inconsistent_checkpoint_lines() {
        let mut cp = sample();
        cp.trials += 1; // violates counts.total() == trials
        let scan = Checkpoint::scan_stream(&cp.to_json_line(), &cp.label);
        assert_eq!(scan.checkpoint, None);
        assert_eq!(scan.lines_rejected, 1);
        assert!(scan.first_error.unwrap().contains("inconsistent"));
    }

    #[test]
    fn scan_stream_on_clean_stream_reports_no_damage() {
        let cp = sample();
        let scan = Checkpoint::scan_stream(&cp.to_json_line(), &cp.label);
        assert_eq!(scan.checkpoint, Some(cp));
        assert_eq!((scan.lines_scanned, scan.lines_rejected), (1, 0));
        assert!(!scan.damaged());
        assert_eq!(scan.first_error, None);
    }
}
