//! Registry pins for the device-spec layer.
//!
//! `gpu_arch::spec` replaced the hand-written device constructors with
//! validated spec files compiled to the same models. That refactor is
//! only sound if a campaign built entirely from the registry — device
//! resolved by token, workload built with the spec's codegen-quirk
//! profile — is *bit-identical* to the pre-spec pipeline: same RNG draw
//! order, same tallies, same golden digests. These tests pin the golden
//! counts of `decode_parity.rs` against a spec file read from disk; the
//! registry-built campaigns are rows of `telemetry.rs`'s
//! `digest_matrix_is_one_invariant`, on the same tallies as the pre-spec
//! rows.

#![allow(clippy::unwrap_used)]

use std::path::Path;

use gpu_arch::{DeviceRegistry, Precision};
use gpu_sim::{RunOptions, Target};
use workloads::{build_with, Benchmark, Scale};

/// A spec resolved *from its file on disk* (the `--device PATH` route)
/// drives the golden engine to the same pinned digests as the registry
/// id — file parsing, validation, and model compilation are all on the
/// campaign-critical path here.
#[test]
fn file_resolved_spec_reproduces_pinned_golden_counts() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let registry = DeviceRegistry::builtin();
    let spec =
        registry.resolve_spec(root.join("specs/devices/k40c.spec").to_str().unwrap()).unwrap();
    let device = spec.sim_model();
    let w = build_with(Benchmark::Mxm, Precision::Single, &spec.codegen_profile(), Scale::Tiny);
    let run = w.execute(&device, &RunOptions::golden().record_sites(true));
    // Same pins as decode_parity::golden_counts_and_sites_record_pinned.
    assert_eq!(run.counts.total, 57344, "golden dynamic-instruction count drifted");
    assert_eq!(
        run.sites_record.as_ref().unwrap().site_pcs.len(),
        48640,
        "golden injectable-site population drifted"
    );
}

/// `-sim` tokens resolve to the single-SM campaign variant with the
/// full board's identity preserved in the name.
#[test]
fn sim_tokens_resolve_to_campaign_variants() {
    let registry = DeviceRegistry::builtin();
    for id in ["k40c", "v100", "titan-v", "a100"] {
        let full = registry.resolve(id).unwrap();
        let sim = registry.resolve(&format!("{id}-sim")).unwrap();
        assert_eq!(sim.sms, 1, "{id}-sim is not a 1-SM variant");
        assert!(full.sms > 1, "{id} full board lost its SM count");
        assert!(
            sim.name.starts_with(&full.name),
            "{id}-sim name {:?} does not carry the board name {:?}",
            sim.name,
            full.name
        );
    }
}
