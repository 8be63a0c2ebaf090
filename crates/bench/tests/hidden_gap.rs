//! Acceptance test for the Section VII-B closure: the beam-vs-predicted
//! DUE gap must shrink monotonically as hidden-injection coverage grows,
//! from the paper's orders-of-magnitude register-only underestimation to
//! within 2x at full coverage.
//!
//! When `HIDDEN_GAP_JSON_PATH` is set (as in CI), the per-rung rows are
//! also written there as JSON lines for the gap-closure artifact.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bench::{hidden_gap_closure, Budget, GapClosure, HarnessConfig, ObserveCtx};
use workloads::Scale;

fn micro() -> HarnessConfig {
    HarnessConfig {
        scale: Scale::Tiny,
        profile_scale: Scale::Tiny,
        injection: Budget::fixed(60).seed(1234),
        beam: Budget::fixed(2000).seed(1234),
        bench_beam: Budget::fixed(400).seed(1234),
        bench_injection: Budget::fixed(40).seed(1234),
    }
}

fn write_artifact(set: &GapClosure) {
    if let Ok(path) = std::env::var("HIDDEN_GAP_JSON_PATH") {
        std::fs::write(&path, set.to_json_lines())
            .unwrap_or_else(|e| panic!("cannot write gap artifact to {path}: {e}"));
    }
}

#[test]
fn due_gap_closes_monotonically_with_hidden_coverage() {
    let set = hidden_gap_closure(&micro(), &mut ObserveCtx::default());
    write_artifact(&set);

    let codes = set.codes();
    assert!(codes.len() >= 2, "need at least two workloads, got {codes:?}");
    assert!(set.levels >= 3, "need at least three coverage levels, got {}", set.levels);

    for code in codes {
        let ladder = set.ladder(code);
        assert_eq!(ladder.len(), set.levels, "{code}: missing rungs");

        // The ground truth is fixed per code; only the prediction moves.
        for r in &ladder {
            assert_eq!(r.measured_due, ladder[0].measured_due, "{code}: beam truth drifted");
            assert!(r.gap.is_finite() && r.gap > 0.0, "{code}/{}: gap {}", r.coverage, r.gap);
        }

        // Coverage grows rung by rung and the gap never widens.
        for pair in ladder.windows(2) {
            assert!(
                pair[1].rate_coverage >= pair[0].rate_coverage,
                "{code}: rate coverage regressed {} -> {}",
                pair[0].coverage,
                pair[1].coverage
            );
            assert!(
                pair[1].gap <= pair[0].gap,
                "{code}: gap widened {} ({:.1}x) -> {} ({:.1}x)",
                pair[0].coverage,
                pair[0].gap,
                pair[1].coverage,
                pair[1].gap
            );
        }

        // Register-only reproduces the paper's blind spot; full coverage
        // closes it. (Probed margins: none >= 68x, full <= 1.8x.)
        let none = ladder.first().unwrap();
        let full = ladder.last().unwrap();
        assert_eq!(none.coverage, "none");
        assert_eq!(none.predicted_hidden_due, 0.0);
        assert!(none.gap >= 10.0, "{code}: register-only gap only {:.1}x", none.gap);
        assert_eq!(full.coverage, "full");
        assert!((full.rate_coverage - 1.0).abs() < 1e-9, "{code}: {}", full.rate_coverage);
        assert!(full.gap <= 2.0, "{code}: full-coverage gap still {:.2}x", full.gap);
        assert!(full.gap < none.gap, "{code}: ladder closed nothing");
        assert!(
            full.predicted_hidden_due > 0.0 && full.predicted_hidden_due <= full.predicted_due,
            "{code}: hidden share {} of {}",
            full.predicted_hidden_due,
            full.predicted_due
        );
    }

    // The artifact rows are well-formed JSON lines.
    let json = set.to_json_lines();
    for line in json.lines() {
        let doc = obs::json::parse(line).expect("gap row must be valid JSON");
        let obj = doc.as_obj().expect("gap row must be an object");
        assert_eq!(obj.get("report").and_then(obs::json::Json::as_str), Some("hidden_gap"));
        assert!(obj.get("gap").is_some() && obj.get("coverage").is_some());
    }
    assert_eq!(json.lines().count(), set.rows.len());
}
