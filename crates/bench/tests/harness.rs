//! Smoke tests for the experiment harness: every table/figure function
//! runs end to end at micro campaign sizes and produces well-formed data
//! and renderable text. The one-path tests check that every campaign an
//! experiment starts, library helpers' included, goes through the
//! observing runner: quiet, observed and resumed runs agree row for row.
//! The memo test checks that a campaign repeated in one ctx reuses the
//! first run without changing any row.

use std::path::{Path, PathBuf};

use bench::ablations::ablate_mbu;
use bench::{
    avf_breakdown, codegen_comparison, convergence, due_analysis, fig1, fig3, fig4, fig5, fig6,
    hidden_gap_closure, table1, Budget, CampaignObservation, HarnessConfig, ObserveCtx,
};
use workloads::{Benchmark, Scale};

fn micro() -> HarnessConfig {
    HarnessConfig {
        scale: Scale::Tiny,
        profile_scale: Scale::Tiny,
        injection: Budget::fixed(40).seed(1234),
        beam: Budget::fixed(300).seed(1234),
        bench_beam: Budget::fixed(250).seed(1234),
        bench_injection: Budget::fixed(25).seed(1234),
    }
}

#[test]
fn table1_covers_both_devices() {
    let rows = table1(&micro(), &mut ObserveCtx::default());
    assert!(rows.iter().any(|r| r.device == "Kepler"));
    assert!(rows.iter().any(|r| r.device == "Volta"));
    assert_eq!(rows.iter().filter(|r| r.device == "Kepler").count(), 13);
    assert_eq!(rows.iter().filter(|r| r.device == "Volta").count(), 16);
    for r in &rows {
        assert!(r.ipc >= 0.0 && r.occupancy >= 0.0 && r.occupancy <= 1.0, "{r:?}");
    }
    let text = bench::render::table1(&rows);
    assert!(text.contains("FGEMM"));
}

#[test]
fn fig1_fractions_sum_to_one() {
    let rows = fig1(&micro());
    for r in &rows {
        let s: f64 = r.fractions.iter().sum();
        assert!((s - 1.0).abs() < 1e-9, "{}: {s}", r.name);
    }
}

#[test]
fn fig3_has_reference_normalization() {
    let rows = fig3(&micro(), &mut ObserveCtx::default());
    // The normalization reference (FADD DUE on Kepler) must be 1.0.
    let fadd = rows.iter().find(|r| r.device == "Kepler" && r.name == "FADD").unwrap();
    assert!((fadd.due_norm - 1.0).abs() < 1e-9);
    // RF appears per megabyte.
    assert!(rows.iter().any(|r| r.name == "RF/MB"));
    // Volta carries the tensor benches.
    assert!(rows.iter().any(|r| r.device == "Volta" && r.name == "HMMA"));
}

#[test]
fn fig4_respects_injector_capabilities() {
    let rows = fig4(&micro(), &mut ObserveCtx::default());
    // No SASSIFI rows for proprietary codes.
    assert!(!rows
        .iter()
        .any(|r| r.injector == injector::Injector::Sassifi && r.name.contains("GEMM")));
    assert!(!rows
        .iter()
        .any(|r| r.injector == injector::Injector::Sassifi && r.name.contains("YOLO")));
    // No SASSIFI rows on Volta at all.
    assert!(!rows.iter().any(|r| r.device == "Volta" && r.injector == injector::Injector::Sassifi));
    for r in &rows {
        let s = r.sdc + r.due + r.masked;
        assert!((s - 1.0).abs() < 1e-9, "{}: {s}", r.name);
    }
}

#[test]
fn fig5_rows_follow_the_paper_layout() {
    let rows = fig5(&micro(), &mut ObserveCtx::default());
    // Kepler: 9 ECC-off rows + 13 ECC-on rows; Volta: 12 off + 4 on.
    assert_eq!(rows.iter().filter(|r| r.device == "Kepler" && !r.ecc).count(), 9);
    assert_eq!(rows.iter().filter(|r| r.device == "Kepler" && r.ecc).count(), 13);
    assert_eq!(rows.iter().filter(|r| r.device == "Volta" && !r.ecc).count(), 12);
    assert_eq!(rows.iter().filter(|r| r.device == "Volta" && r.ecc).count(), 4);
}

#[test]
fn fig6_and_due_analysis_are_complete() {
    let set = fig6(&micro(), &mut ObserveCtx::default());
    assert!(set.rows.len() > 40, "only {} comparisons", set.rows.len());
    // Every Kepler non-proprietary code appears with both AVF sources.
    let sassifi_rows =
        set.rows.iter().filter(|r| r.injector == injector::Injector::Sassifi).count();
    assert!(sassifi_rows > 10);
    let due = due_analysis(&set);
    assert_eq!(due.len(), 4);
    let text = bench::render::fig6(&set);
    assert!(text.contains("geometric mean") || text.contains("Averages"));
}

#[test]
fn codegen_study_produces_ratios() {
    let rows = codegen_comparison(&micro(), &mut ObserveCtx::default());
    assert_eq!(rows.len(), 8);
    for r in &rows {
        assert!(r.avf_cuda7 >= 0.0 && r.avf_cuda10 >= 0.0);
        assert!(r.dyn_cuda7 >= r.dyn_cuda10, "{}: optimizer grew the code", r.name);
    }
}

#[test]
fn convergence_ci_shrinks() {
    let rows = convergence(&micro(), &mut ObserveCtx::default(), Benchmark::Hotspot);
    assert_eq!(rows.len(), 6);
    assert!(
        rows.last().unwrap().ci_width < rows.first().unwrap().ci_width,
        "CI did not shrink: {rows:?}"
    );
}

/// Run `experiment` with an observing ctx that checkpoints under `root`;
/// returns the rows (as their `Debug` text, which prints every `f64`
/// exactly) and the observations it emitted.
fn observed<R: std::fmt::Debug>(
    root: &Path,
    experiment: &impl Fn(&mut ObserveCtx<'_>) -> R,
) -> (String, Vec<CampaignObservation>) {
    let mut seen = Vec::new();
    let mut observe = |o| seen.push(o);
    let mut ctx = ObserveCtx::default();
    ctx.observe = Some(&mut observe);
    ctx.checkpoint_root = Some(root.to_path_buf());
    let rows = format!("{:?}", experiment(&mut ctx));
    let log = ctx.store_log();
    assert!(log.errors.is_empty() && log.warnings.is_empty(), "{log:?}");
    drop(ctx);
    (rows, seen)
}

/// The one-path contract for an experiment that starts `campaigns`
/// campaigns: a quiet run, an observing run with a fresh checkpoint root
/// and a second run on that root return identical rows; each observing
/// run emits one observation per campaign under distinct labels; and the
/// second run resumes every campaign from its terminal checkpoint, so no
/// shard executes (no `trials` counter anywhere).
fn check_one_path<R: std::fmt::Debug>(
    tag: &str,
    campaigns: usize,
    experiment: impl Fn(&mut ObserveCtx<'_>) -> R,
) {
    let quiet = format!("{:?}", experiment(&mut ObserveCtx::default()));
    let root: PathBuf =
        std::env::temp_dir().join(format!("bench-harness-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let (rows, seen) = observed(&root, &experiment);
    assert_eq!(rows, quiet, "{tag}: observing changed the rows");
    assert_eq!(seen.len(), campaigns, "{tag}: one observation per campaign");
    let mut labels: Vec<&str> = seen.iter().map(|o| o.campaign.as_str()).collect();
    labels.sort_unstable();
    labels.dedup();
    assert_eq!(labels.len(), campaigns, "{tag}: campaign labels collide: {labels:?}");
    assert!(seen.iter().all(|o| o.snapshot.counters.get("trials").is_some_and(|&n| n > 0)));

    let (resumed, seen) = observed(&root, &experiment);
    assert_eq!(resumed, quiet, "{tag}: resuming changed the rows");
    assert_eq!(seen.len(), campaigns, "{tag}: one observation per resumed campaign");
    for o in &seen {
        assert!(!o.snapshot.counters.contains_key("trials"), "{}: ran a shard", o.campaign);
    }
    std::fs::remove_dir_all(&root).expect("remove checkpoint root");
}

#[test]
fn convergence_runs_every_campaign_through_the_one_path() {
    check_one_path("convergence", 6, |ctx| convergence(&micro(), ctx, Benchmark::Hotspot));
}

#[test]
fn codegen_runs_every_campaign_through_the_one_path() {
    // CUDA 7 and CUDA 10 builds share a workload name, so only the
    // harness label keeps their checkpoints apart.
    check_one_path("codegen", 16, |ctx| codegen_comparison(&micro(), ctx));
}

#[test]
fn mbu_ablation_runs_every_campaign_through_the_one_path() {
    // Four cross-section variants of one beam campaign identity.
    check_one_path("mbu", 4, |ctx| ablate_mbu(&micro(), ctx));
}

#[test]
fn gap_closure_runs_every_campaign_through_the_one_path() {
    // Volta unit characterization: a beam and a de-masking AVF campaign
    // per micro-benchmark, beam only for RF. Then per code (FMXM,
    // FHOTSPOT) one AVF and one beam campaign, plus one hidden-class
    // campaign per live hidden class: four on FMXM (it has no barrier),
    // all five on FHOTSPOT.
    let benches = microbench::suite(&bench::experiments::devices().1).len();
    check_one_path("gap", 2 * benches - 1 + 2 * 2 + 4 + 5, |ctx| hidden_gap_closure(&micro(), ctx));
}

#[test]
fn avf_breakdown_runs_every_campaign_through_the_one_path() {
    // One class-AVF campaign per populated site class of each code:
    // FMXM and FHOTSPOT have float, integer and load sites; NW and
    // MERGESORT integer and load sites.
    check_one_path("breakdown", 3 + 3 + 2 + 2, |ctx| avf_breakdown(&micro(), ctx));
}

#[test]
fn repeated_campaigns_reuse_the_first_run() {
    // Figure 6 repeats Figure 3's micro-benchmark beams, Figure 4's AVF
    // campaigns and Figure 5's beam campaigns under its own labels.
    let cfg = micro();
    let alone = format!("{:?}", fig6(&cfg, &mut ObserveCtx::default()));
    let mut seen: Vec<CampaignObservation> = Vec::new();
    let mut observe = |o| seen.push(o);
    let spans = obs::SpanBus::new();
    let mut ctx = ObserveCtx::default();
    ctx.observe = Some(&mut observe);
    ctx.spans = Some(&spans);
    fig3(&cfg, &mut ctx);
    fig4(&cfg, &mut ctx);
    fig5(&cfg, &mut ctx);
    let after = format!("{:?}", fig6(&cfg, &mut ctx));
    drop(ctx);
    assert_eq!(after, alone, "reusing earlier campaigns changed Figure 6");

    let mut reused = 0;
    for (i, o) in seen.iter().enumerate() {
        let Some(first) = &o.reused else { continue };
        reused += 1;
        let earlier = seen[..i].iter().find(|e| &e.campaign == first).unwrap_or_else(|| {
            panic!("{} reuses {first}, which was not emitted before", o.campaign)
        });
        assert!(earlier.reused.is_none(), "{}: reuses a reused line", o.campaign);
        assert!(o.digest.is_some() && o.digest == earlier.digest, "{}: digest differs", o.campaign);
        assert_eq!(o.snapshot, earlier.snapshot, "{}: metrics differ", o.campaign);
    }
    assert!(reused > 0, "Figure 6 reused nothing");
    // A reused line runs no campaign, so no shard either: every campaign
    // span belongs to a line that ran.
    let ran = spans.records().iter().filter(|r| r.cat == "campaign").count();
    assert_eq!(ran, seen.len() - reused, "a reused campaign ran");
}
