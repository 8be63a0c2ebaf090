//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **φ factor** (Equation 4): prediction accuracy with and without the
//!    `occupancy x IPC` parallelism term — the paper's central modeling
//!    addition over prior work;
//! 2. **injector capability**: what NVBitFI's missing half-precision
//!    support costs on a binary16 workload (Section VII-A's HHotspot
//!    analysis);
//! 3. **MBU rate**: how the multiple-bit-upset probability moves the
//!    ECC-on DUE rate (SECDED detects exactly the double-bit events).

use crate::experiments::{devices, HarnessConfig, ObserveCtx};
use beam::{Beam, CrossSections};
use gpu_arch::{CodeGen, Precision};
use gpu_sim::SiteClass;
use injector::{Avf, ClassAvf, Injector};
use prediction::{
    characterize_units, memory_footprint, predict, CharacterizeConfig, PredictOptions,
};
use profiler::profile;
use stats::signed_ratio;
use workloads::{build, Benchmark};

/// One row of the φ ablation.
#[derive(Clone, Debug)]
pub struct PhiRow {
    /// Workload name.
    pub name: String,
    /// |signed ratio| with φ applied.
    pub with_phi: f64,
    /// |signed ratio| without φ.
    pub without_phi: f64,
}

/// φ ablation over a few Kepler codes (ECC on).
pub fn ablate_phi(cfg: &HarnessConfig, ctx: &mut ObserveCtx<'_>) -> Vec<PhiRow> {
    let (kepler, _) = devices();
    let char_cfg =
        CharacterizeConfig { beam: cfg.bench_beam.clone(), injection: cfg.bench_injection.clone() };
    let units = characterize_units(&kepler, &microbench::suite(&kepler), &char_cfg);

    let mut rows = Vec::new();
    for bench in [Benchmark::Mxm, Benchmark::Hotspot, Benchmark::Gaussian, Benchmark::Mergesort] {
        let precision = if bench.is_integer() { Precision::Int32 } else { Precision::Single };
        let w = build(bench, precision, CodeGen::Cuda10, cfg.scale);
        let prof = profile(&w, &kepler);
        let label = format!("ablate/phi/NVBitFI/{}", w.name);
        let avf = ctx.run(&label, Avf::new(Injector::NvBitFi), &w, &kepler, &cfg.injection);
        let feet = memory_footprint(&w, &kepler, &prof);
        let label = format!("ablate/phi/ecc-on/{}", w.name);
        let measured = ctx.run(&label, Beam::auto(true), &w, &kepler, &cfg.beam);
        let with_phi =
            predict(&prof, &avf, &units, &feet, &PredictOptions { ecc: true, use_phi: true });
        let without =
            predict(&prof, &avf, &units, &feet, &PredictOptions { ecc: true, use_phi: false });
        rows.push(PhiRow {
            name: w.name.clone(),
            with_phi: signed_ratio(measured.sdc_fit.fit, with_phi.sdc_fit).abs(),
            without_phi: signed_ratio(measured.sdc_fit.fit, without.sdc_fit).abs(),
        });
    }
    rows
}

/// The half-precision capability ablation.
#[derive(Clone, Debug)]
pub struct HalfCapabilityResult {
    /// SDC AVF NVBitFI reports on HHOTSPOT (no half-precision sites).
    pub avf_without_half: f64,
    /// SDC AVF a hypothetical half-capable injector measures.
    pub avf_with_half: f64,
    /// Beam-measured SDC FIT of HHOTSPOT (ECC on).
    pub beam_fit: f64,
    /// Prediction using the real NVBitFI AVF (float-sibling substitution).
    pub predicted_without_half: f64,
    /// Prediction using the half-capable AVF.
    pub predicted_with_half: f64,
}

/// What NVBitFI's half-precision gap costs on HHotspot (Section VII-A).
pub fn ablate_half_capability(
    cfg: &HarnessConfig,
    ctx: &mut ObserveCtx<'_>,
) -> HalfCapabilityResult {
    let (_, volta) = devices();
    let char_cfg =
        CharacterizeConfig { beam: cfg.bench_beam.clone(), injection: cfg.bench_injection.clone() };
    let units = characterize_units(&volta, &microbench::suite(&volta), &char_cfg);

    let h = build(Benchmark::Hotspot, Precision::Half, CodeGen::Cuda10, cfg.scale);
    let f = build(Benchmark::Hotspot, Precision::Single, CodeGen::Cuda10, cfg.scale);
    let prof = profile(&h, &volta);
    let feet = memory_footprint(&h, &volta, &prof);

    // Real NVBitFI: cannot touch half ops; the paper substitutes the
    // float variant's AVF.
    let label = format!("ablate/half/NVBitFI/{}", f.name);
    let avf_f = ctx.run(&label, Avf::new(Injector::NvBitFi), &f, &volta, &cfg.injection);
    // Hypothetical injector with half support: all GPR writers.
    let label = format!("ablate/half/gpr-writer/{}", h.name);
    let avf_h = ctx.run(&label, ClassAvf::new(SiteClass::GprWriter), &h, &volta, &cfg.injection);

    let label = format!("ablate/half/ecc-on/{}", h.name);
    let measured = ctx.run(&label, Beam::auto(true), &h, &volta, &cfg.beam);
    let p_without =
        predict(&prof, &avf_f, &units, &feet, &PredictOptions { ecc: true, use_phi: true });
    let p_with =
        predict(&prof, &avf_h, &units, &feet, &PredictOptions { ecc: true, use_phi: true });

    HalfCapabilityResult {
        avf_without_half: avf_f.sdc_avf(),
        avf_with_half: avf_h.sdc_avf(),
        beam_fit: measured.sdc_fit.fit,
        predicted_without_half: p_without.sdc_fit,
        predicted_with_half: p_with.sdc_fit,
    }
}

/// One row of the MBU sweep.
#[derive(Clone, Debug)]
pub struct MbuRow {
    /// MBU probability used.
    pub mbu: f64,
    /// ECC-on SDC FIT.
    pub sdc_fit: f64,
    /// ECC-on DUE FIT.
    pub due_fit: f64,
}

/// Sweep the multiple-bit-upset probability and measure the ECC-on rates:
/// SECDED converts exactly the MBU fraction into detections.
pub fn ablate_mbu(cfg: &HarnessConfig, ctx: &mut ObserveCtx<'_>) -> Vec<MbuRow> {
    let (kepler, _) = devices();
    let w = build(Benchmark::Mxm, Precision::Single, CodeGen::Cuda10, cfg.scale);
    let mut rows = Vec::new();
    for mbu in [0.0, 0.02, 0.10, 0.30] {
        let mut xsec = CrossSections::ground_truth(&kepler);
        xsec.mbu_probability = mbu;
        let label = format!("ablate/mbu/{mbu}/{}", w.name);
        let r = ctx.run(&label, Beam::auto(true).with_xsec(xsec), &w, &kepler, &cfg.beam);
        rows.push(MbuRow { mbu, sdc_fit: r.sdc_fit.fit, due_fit: r.due_fit.fit });
    }
    rows
}

/// Render all three ablations.
pub fn render(cfg: &HarnessConfig, ctx: &mut ObserveCtx<'_>) -> String {
    use std::fmt::Write;
    let mut out = String::new();

    let _ = writeln!(out, "Ablation 1: phi = occupancy x IPC (Equation 4)");
    let _ = writeln!(out, "{:-<56}", "");
    let _ = writeln!(out, "{:<12} {:>14} {:>14}", "code", "|ratio| w/ phi", "w/o phi");
    let rows = ablate_phi(cfg, ctx);
    for r in &rows {
        let _ = writeln!(out, "{:<12} {:>14.1} {:>14.1}", r.name, r.with_phi, r.without_phi);
    }
    let gm = |v: Vec<f64>| stats::geometric_mean(&v);
    let _ = writeln!(
        out,
        "geo-mean     {:>14.1} {:>14.1}",
        gm(rows.iter().map(|r| r.with_phi).collect()),
        gm(rows.iter().map(|r| r.without_phi).collect())
    );

    let _ = writeln!(out, "\nAblation 2: NVBitFI half-precision capability (HHOTSPOT)");
    let _ = writeln!(out, "{:-<56}", "");
    let h = ablate_half_capability(cfg, ctx);
    let _ = writeln!(out, "  AVF, float-sibling substitution : {:.3}", h.avf_without_half);
    let _ = writeln!(out, "  AVF, half-capable injector      : {:.3}", h.avf_with_half);
    let _ = writeln!(out, "  beam SDC FIT                    : {:.3e}", h.beam_fit);
    let _ = writeln!(
        out,
        "  prediction (substituted AVF)    : {:.3e}  ({:+.1}x)",
        h.predicted_without_half,
        signed_ratio(h.beam_fit, h.predicted_without_half)
    );
    let _ = writeln!(
        out,
        "  prediction (half-capable AVF)   : {:.3e}  ({:+.1}x)",
        h.predicted_with_half,
        signed_ratio(h.beam_fit, h.predicted_with_half)
    );

    let _ = writeln!(out, "\nAblation 3: MBU probability vs ECC-on rates (FMXM, Kepler)");
    let _ = writeln!(out, "{:-<56}", "");
    let _ = writeln!(out, "{:>6} {:>14} {:>14}", "MBU", "SDC FIT", "DUE FIT");
    for r in ablate_mbu(cfg, ctx) {
        let _ = writeln!(out, "{:>5.0}% {:>14.3e} {:>14.3e}", r.mbu * 100.0, r.sdc_fit, r.due_fit);
    }
    out
}
