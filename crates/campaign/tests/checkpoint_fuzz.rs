//! Fuzz of checkpoint recovery: `Checkpoint::parse` and
//! `Checkpoint::scan_stream` read JSONL a crash may have torn, so they
//! must never panic on any line, and every valid checkpoint must
//! round-trip through `Checkpoint::to_json_line`.

#![allow(clippy::unwrap_used)]

use campaign::Checkpoint;
use proptest::prelude::*;
use stats::OutcomeCounts;
use std::collections::BTreeMap;

/// Strings over all of ASCII, control characters and JSON's quote and
/// backslash included, so escaping is exercised.
fn ascii(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..0x80, 0..max_len)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

/// Strings rich in JSON structure, so the parser's every arm is reached.
fn json_junk() -> impl Strategy<Value = String> {
    const CHARSET: &[u8] = b"{}[]\":,.-+0123456789eEtruefalsn \\/u";
    prop::collection::vec(0usize..CHARSET.len(), 0..200)
        .prop_map(|idx| idx.into_iter().map(|i| CHARSET[i] as char).collect())
}

/// Outcome counts small enough that their sums stay exact in JSON.
fn counts() -> impl Strategy<Value = OutcomeCounts> {
    (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40).prop_map(|(sdc, due, masked)| OutcomeCounts {
        sdc,
        due,
        masked,
    })
}

/// Any valid checkpoint.
fn checkpoint() -> impl Strategy<Value = Checkpoint> {
    let identity = (ascii(24), any::<u64>(), any::<u32>(), any::<u32>());
    let direct = prop::collection::vec((ascii(12), counts()), 0..4);
    (identity, counts(), direct, any::<u64>()).prop_map(
        |((label, seed, shard_size, shards_done), c, d, digest)| Checkpoint {
            label,
            seed,
            shard_size,
            shards_done,
            trials: c.total(),
            counts: c,
            direct: d.into_iter().collect::<BTreeMap<_, _>>(),
            digest,
        },
    )
}

/// `line` damaged at `at` (wrapping) by `how`: torn there, a character
/// dropped, or one of `junk`'s spliced in.
fn damaged(line: &str, at: usize, how: u8, junk: &str) -> String {
    let at = at % (line.len() + 1);
    match how % 3 {
        0 => line[..at].to_string(),
        1 => format!("{}{}", &line[..at], line.get(at + 1..).unwrap_or("")),
        _ => format!("{}{junk}{}", &line[..at], &line[at..]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn valid_checkpoints_round_trip(cp in checkpoint()) {
        let line = cp.to_json_line();
        prop_assert!(!line.contains('\n'), "a checkpoint is one line");
        prop_assert_eq!(Checkpoint::parse(&line).unwrap(), cp);
    }

    #[test]
    fn parse_never_panics_on_damaged_lines(
        cp in checkpoint(),
        at in 0usize..4096,
        how in 0u8..3,
        junk in json_junk(),
    ) {
        let line = damaged(&cp.to_json_line(), at, how, &junk);
        if let Ok(parsed) = Checkpoint::parse(&line) {
            prop_assert_eq!(parsed.counts.total(), parsed.trials);
        }
        let scan = Checkpoint::scan_stream(&line, &cp.label);
        prop_assert!(scan.lines_rejected <= scan.lines_scanned);
    }

    #[test]
    fn parse_and_scan_never_panic_on_junk(text in json_junk()) {
        let _ = Checkpoint::parse(&text);
        let scan = Checkpoint::scan_stream(&text, "");
        prop_assert!(scan.lines_rejected <= scan.lines_scanned);
    }

    /// A stream of checkpoints for two labels, torn lines and foreign
    /// reports: the scan recovers the last checkpoint for its label and
    /// counts every torn line as damage.
    #[test]
    fn scan_recovers_the_last_valid_checkpoint(
        cps in prop::collection::vec((checkpoint(), any::<bool>(), 0u8..3, any::<usize>()), 1..12),
    ) {
        let label = "avf/nvbitfi/k40c-sim/FMXM";
        let mut text = String::new();
        let mut expected = None;
        let mut torn = 0;
        for (mut cp, mine, kind, at) in cps {
            if mine {
                cp.label = label.to_string();
            }
            let line = cp.to_json_line();
            match kind {
                0 => {
                    if mine {
                        expected = Some(cp);
                    }
                    text.push_str(&line);
                }
                // A crash mid-write: a strict, non-empty prefix.
                1 => {
                    torn += 1;
                    text.push_str(&line[..1 + at % (line.len() - 1)]);
                }
                _ => text.push_str("{\"report\":\"run\",\"campaigns\":3}"),
            }
            text.push('\n');
        }
        let scan = Checkpoint::scan_stream(&text, label);
        prop_assert_eq!(scan.checkpoint, expected);
        prop_assert_eq!(scan.lines_rejected, torn);
    }
}

/// Nesting deeper than the JSON parser recurses is an error, not a stack
/// overflow.
#[test]
fn deeply_nested_lines_are_rejected() {
    let line = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    assert!(Checkpoint::parse(&line).is_err());
    assert_eq!(Checkpoint::scan_stream(&line, "x").lines_rejected, 1);
}
