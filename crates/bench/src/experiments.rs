//! One function per table/figure of the paper.
//!
//! Every function returns plain data; [`crate::render`] turns it into the
//! textual tables the `repro` binary prints. The per-experiment index in
//! DESIGN.md maps each function to its paper counterpart.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use beam::{Beam, BeamResult};
use campaign::{Budget, Campaign, CheckpointStore, Kind};
use gpu_arch::{CodeGen, DeviceModel, DeviceSpec, MixCategory, Precision};
use gpu_sim::Target;
use injector::{Avf, AvfResult, HiddenClass, HiddenCoverage, Injector};
use obs::{CampaignObserver, MetricsRegistry, MetricsSnapshot, Progress, RunReport};
use prediction::{
    characterize_units, compare, memory_footprint, predict, predict_hidden, CharacterizeConfig,
    ComparisonRow, PredictOptions, UnitFits,
};
use profiler::profile;
use workloads::{build, build_with, kepler_suite, volta_suite, Benchmark, Scale, Workload};

/// Campaign sizing for the harness: one [`Budget`] per campaign family.
///
/// Injection budgets are adaptive (CI-targeted early stopping) in the
/// presets; beam budgets stay fixed because the fluence accounting — and
/// the paper's Poisson error-count statistics — assume a predetermined
/// number of accounted runs.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Workload scale for injection/beam campaigns.
    pub scale: Scale,
    /// Workload scale for the profiling experiments (Table I, Figure 1).
    pub profile_scale: Scale,
    /// Budget per workload AVF campaign.
    pub injection: Budget,
    /// Budget per workload beam campaign.
    pub beam: Budget,
    /// Budget per micro-benchmark beam campaign (Figure 3).
    pub bench_beam: Budget,
    /// Budget per micro-benchmark injection campaign (FIT de-masking AVF).
    pub bench_injection: Budget,
}

impl HarnessConfig {
    /// Laptop-scale settings: every figure regenerates in minutes.
    pub fn quick() -> Self {
        HarnessConfig {
            scale: Scale::Small,
            profile_scale: Scale::Profile,
            injection: Budget::quick(),
            beam: Budget::fixed(4000).seed(2021),
            bench_beam: Budget::fixed(3000).seed(2021),
            bench_injection: Budget::fixed(200).seed(2021),
        }
    }

    /// Larger campaigns approaching the paper's statistics (>=4,000
    /// injections per code).
    pub fn full() -> Self {
        HarnessConfig {
            injection: Budget::full(),
            beam: Budget::fixed(40_000).seed(2021),
            bench_beam: Budget::fixed(20_000).seed(2021),
            bench_injection: Budget::fixed(1000).seed(2021),
            ..HarnessConfig::quick()
        }
    }

    /// Reads `REPRO_PROFILE` (`quick` default, `full`) from the
    /// environment.
    pub fn from_env() -> Self {
        match std::env::var("REPRO_PROFILE").as_deref() {
            Ok("full") => HarnessConfig::full(),
            _ => HarnessConfig::quick(),
        }
    }
}

/// The campaign devices: a 1-SM Kepler and a 1-SM Volta (see DESIGN.md on
/// SM-count scaling).
pub fn devices() -> (DeviceModel, DeviceModel) {
    (DeviceModel::named("k40c-sim"), DeviceModel::named("v100-sim"))
}

// -------------------------------------------------------- observability --

/// One campaign's worth of metrics, labeled for routing into a JSONL
/// stream (`repro --metrics-out`).
#[derive(Clone, Debug)]
pub struct CampaignObservation {
    /// Campaign label, e.g. `fig4/Kepler/SASSIFI/FMXM`.
    pub campaign: String,
    /// Resolved device-model name the campaign ran on.
    pub device: String,
    /// Final metrics: outcome tallies, trials/sec, profile gauges.
    pub snapshot: MetricsSnapshot,
}

impl CampaignObservation {
    /// One JSON line:
    /// `{"report":"campaign","campaign":...,"device":...,"metrics":{...}}`.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"report\":\"campaign\",\"campaign\":");
        obs::json::escape_str(&mut out, &self.campaign);
        out.push_str(",\"device\":");
        obs::json::escape_str(&mut out, &self.device);
        out.push_str(",\"metrics\":");
        out.push_str(&self.snapshot.to_json_line());
        out.push('}');
        out
    }
}

/// What the per-campaign checkpoint stores reported over a run, for the
/// run report.
#[derive(Clone, Debug, Default)]
pub struct StoreLog {
    /// Stores that could not be opened (the campaign then ran without
    /// checkpointing), one message per campaign.
    pub errors: Vec<String>,
    /// Recovery diagnostics: damaged lines skipped, stale locks broken.
    pub warnings: Vec<String>,
    /// Damage events summed over every store.
    pub damage_events: u64,
    /// Stale locks broken, summed over every store.
    pub lock_breaks: u64,
}

/// The observation hooks every campaign-running experiment takes.
///
/// [`ObserveCtx::default`] is quiet: no observer, no progress, no
/// checkpoints. Each campaign an experiment starts goes through one
/// runner that attaches metrics, progress, spans and the status
/// publisher only when something consumes them, checkpoints under
/// `checkpoint_root`, and hands one [`CampaignObservation`] to
/// `observe`. Tallies are identical with any combination of hooks.
/// Campaigns started inside library helpers
/// ([`characterize_units`], [`injector::measure_hidden_breakdown`],
/// [`injector::measure_avf_breakdown`], [`beam::characterize_hidden`])
/// are not observed.
#[derive(Default)]
pub struct ObserveCtx<'a> {
    /// Render stderr progress meters while campaigns run.
    pub progress: bool,
    /// Minimum time between progress renders (`repro --progress-interval`;
    /// `None` keeps the 200ms default).
    pub progress_interval: Option<std::time::Duration>,
    /// Receives one observation per campaign, in execution order.
    pub observe: Option<&'a mut dyn FnMut(CampaignObservation)>,
    /// Durable checkpoint root (`repro --checkpoint-dir`): each campaign
    /// keeps its own [`CheckpointStore`] in `<root>/<campaign label>/`,
    /// saves shard-boundary checkpoints there and resumes from its last
    /// one. Per-label directories keep campaigns the engine would label
    /// alike (same kind, device and target name) apart.
    pub checkpoint_root: Option<PathBuf>,
    /// Span bus collecting campaign → shard → trial → engine-phase spans
    /// across every campaign in the run (`repro --spans-out`).
    pub spans: Option<&'a obs::SpanBus>,
    /// Live status publisher (`repro --status-dir`): re-pointed at each
    /// campaign's registry as it starts, so `campaign-top` always shows
    /// the campaign currently running.
    pub publisher: Option<&'a obs::SnapshotPublisher>,
    stores: StoreLog,
}

impl ObserveCtx<'_> {
    /// Checkpoint-store errors, warnings and counters gathered so far.
    pub fn store_log(&self) -> &StoreLog {
        &self.stores
    }

    fn emit(&mut self, label: &str, device: &DeviceModel, metrics: &MetricsRegistry) {
        if let Some(observe) = self.observe.as_mut() {
            observe(CampaignObservation {
                campaign: label.to_string(),
                device: device.name.clone(),
                snapshot: metrics.snapshot(),
            });
        }
    }

    /// Run one campaign of any [`Kind`] under the harness label `label`.
    pub(crate) fn run<T: Target + Sync + ?Sized, K: Kind<T>>(
        &mut self,
        label: &str,
        kind: K,
        target: &T,
        device: &DeviceModel,
        budget: &Budget,
    ) -> K::Output {
        let mut store = self.checkpoint_root.as_deref().and_then(|root| {
            CheckpointStore::open(checkpoint_dir(root, label))
                .map_err(|e| self.stores.errors.push(format!("{label}: {e}")))
                .ok()
        });
        let metrics = (self.observe.is_some() || self.publisher.is_some())
            .then(|| Arc::new(MetricsRegistry::new()));
        // The meter also feeds the `trials_per_sec` gauge, so observed
        // campaigns carry one even when nothing is rendered.
        let meter = (self.progress || metrics.is_some()).then(|| {
            let meter = Progress::new(label, budget.ceiling as u64, self.progress);
            match self.progress_interval {
                Some(interval) => meter.with_interval(interval),
                None => meter,
            }
        });
        if let (Some(publisher), Some(metrics)) = (self.publisher, &metrics) {
            publisher.set_campaign(label, device.name.clone(), Arc::clone(metrics));
        }
        let observer = CampaignObserver {
            metrics: metrics.as_deref(),
            progress: meter.as_ref(),
            spans: self.spans,
        };
        let mut campaign =
            Campaign::new(kind, target, device).budget(budget.clone()).observer(observer);
        if let Some(store) = store.as_mut() {
            campaign = campaign.store(store);
        }
        let output = campaign.run().unwrap_or_else(|e| panic!("campaign {label} failed: {e}"));
        if let Some(meter) = &meter {
            meter.finish();
        }
        if let Some(store) = &store {
            let log = &mut self.stores;
            log.warnings.extend(store.warnings().iter().map(|w| format!("{label}: {w}")));
            log.damage_events += store.damage_events();
            log.lock_breaks += store.lock_breaks();
        }
        if let Some(metrics) = metrics {
            profile(target, device).export_metrics(&metrics);
            if let Some(publisher) = self.publisher {
                let _ = publisher.publish_now();
            }
            self.emit(label, device, &metrics);
        }
        output
    }
}

/// `<root>/<label>`, one directory level per `/`-separated label part,
/// with anything outside `[A-Za-z0-9._=-]` replaced by `_` so a label
/// can never climb out of the root.
fn checkpoint_dir(root: &Path, label: &str) -> PathBuf {
    label.split('/').fold(root.to_path_buf(), |dir, part| {
        let part: String = part
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || "._=-".contains(c) { c } else { '_' })
            .collect();
        dir.join(match part.as_str() {
            "" | "." | ".." => "_".to_string(),
            _ => part,
        })
    })
}

// ------------------------------------------------------------- Table I --

/// One Table I row.
#[derive(Clone, Debug)]
pub struct ProfileRow {
    /// "Kepler" or "Volta".
    pub device: &'static str,
    /// Workload name.
    pub name: String,
    /// Bytes of shared memory per block.
    pub shared: u32,
    /// Registers per thread.
    pub regs: u16,
    /// Executed IPC.
    pub ipc: f64,
    /// Achieved occupancy.
    pub occupancy: f64,
}

/// Regenerate Table I: per-code shared memory, registers, IPC, occupancy.
/// Runs no campaign; each code's profile (φ/IPC/occupancy gauges) goes
/// to `ctx`'s observer as one observation.
pub fn table1(cfg: &HarnessConfig, ctx: &mut ObserveCtx<'_>) -> Vec<ProfileRow> {
    let (kepler, volta) = devices();
    let mut rows = Vec::new();
    let sets = [
        ("Kepler", &kepler, kepler_suite(CodeGen::Cuda7, cfg.profile_scale)),
        ("Volta", &volta, volta_suite(cfg.profile_scale)),
    ];
    for (device_label, dm, suite) in sets {
        for w in suite {
            let p = profile(&w, dm);
            if ctx.observe.is_some() {
                let metrics = MetricsRegistry::new();
                p.export_metrics(&metrics);
                ctx.emit(&format!("table1/{device_label}/{}", w.name), dm, &metrics);
            }
            rows.push(ProfileRow {
                device: device_label,
                name: w.name.clone(),
                shared: p.shared_bytes,
                regs: p.regs_per_thread,
                ipc: p.ipc,
                occupancy: p.occupancy,
            });
        }
    }
    rows
}

// ------------------------------------------------------------ Figure 1 --

/// One Figure 1 bar: the instruction mix of a code.
#[derive(Clone, Debug)]
pub struct MixRow {
    /// "Kepler" or "Volta".
    pub device: &'static str,
    /// Workload name.
    pub name: String,
    /// Fractions in [`MixCategory::ALL`] order.
    pub fractions: [f64; MixCategory::COUNT],
}

/// Regenerate Figure 1: instruction-type percentages per code.
pub fn fig1(cfg: &HarnessConfig) -> Vec<MixRow> {
    let (kepler, volta) = devices();
    let mut rows = Vec::new();
    for w in kepler_suite(CodeGen::Cuda7, cfg.profile_scale) {
        let p = profile(&w, &kepler);
        rows.push(MixRow { device: "Kepler", name: w.name.clone(), fractions: p.mix_fractions });
    }
    for w in volta_suite(cfg.profile_scale) {
        let p = profile(&w, &volta);
        rows.push(MixRow { device: "Volta", name: w.name.clone(), fractions: p.mix_fractions });
    }
    rows
}

// ------------------------------------------------------------ Figure 3 --

/// One Figure 3 bar pair: a micro-benchmark's SDC and DUE FIT.
#[derive(Clone, Debug)]
pub struct Fig3Row {
    /// "Kepler" or "Volta".
    pub device: &'static str,
    /// Micro-benchmark name ("FADD", "HMMA", "RF/MB", ...).
    pub name: String,
    /// Raw SDC FIT (arbitrary units).
    pub sdc_fit: f64,
    /// Raw DUE FIT.
    pub due_fit: f64,
    /// SDC normalized to the device's reference DUE (FADD on Kepler, HFMA
    /// on Volta), as in the figure.
    pub sdc_norm: f64,
    /// Normalized DUE.
    pub due_norm: f64,
}

fn fig3_device(
    device: &DeviceModel,
    cfg: &HarnessConfig,
    ctx: &mut ObserveCtx<'_>,
) -> Vec<Fig3Row> {
    let label = device.arch.name();
    let benches = microbench::suite(device);
    let mut raws: Vec<(String, BeamResult, Option<f64>)> = Vec::new();
    for mb in &benches {
        let is_rf = mb.name == "RF";
        let obs_label = format!("fig3/{label}/{}", mb.name);
        let res = ctx.run(&obs_label, Beam::auto(!is_rf), mb, device, &cfg.bench_beam);
        let per_mb = if is_rf {
            // Report the register file per megabyte, as the figure does.
            let golden = mb.execute_golden(device);
            let resident_threads = golden.timing.resident_warps * 32.0 * device.sms as f64;
            let bits = mb.kernel.regs_per_thread.max(16) as f64 * 32.0 * resident_threads;
            Some(8_388_608.0 / bits) // bits per megabyte / exposed bits
        } else {
            None
        };
        raws.push((mb.name.clone(), res, per_mb));
    }
    // Normalization reference from the device spec: FADD DUE on Kepler,
    // HFMA DUE on Volta/Ampere.
    let reference_name = device.caps.fig3_reference.as_str();
    let reference = raws
        .iter()
        .find(|(n, _, _)| n == reference_name)
        .map(|(_, r, _)| r.due_fit.fit)
        .filter(|&v| v > 0.0)
        .unwrap_or(1.0);
    raws.into_iter()
        .map(|(name, r, per_mb)| {
            let scale = per_mb.unwrap_or(1.0);
            let display = if name == "RF" { "RF/MB".to_string() } else { name };
            Fig3Row {
                device: label,
                name: display,
                sdc_fit: r.sdc_fit.fit * scale,
                due_fit: r.due_fit.fit * scale,
                sdc_norm: r.sdc_fit.fit * scale / reference,
                due_norm: r.due_fit.fit * scale / reference,
            }
        })
        .collect()
}

/// Regenerate Figure 3: micro-benchmark FIT rates, both devices.
pub fn fig3(cfg: &HarnessConfig, ctx: &mut ObserveCtx<'_>) -> Vec<Fig3Row> {
    let (kepler, volta) = devices();
    let mut rows = fig3_device(&kepler, cfg, ctx);
    rows.extend(fig3_device(&volta, cfg, ctx));
    rows
}

// ------------------------------------------------------------ Figure 4 --

/// One Figure 4 stacked bar: a code's AVF under one injector.
#[derive(Clone, Debug)]
pub struct AvfRow {
    /// "Kepler" or "Volta".
    pub device: &'static str,
    /// Workload name.
    pub name: String,
    /// "SASSIFI" or "NVBitFI".
    pub injector: Injector,
    /// SDC AVF.
    pub sdc: f64,
    /// DUE AVF.
    pub due: f64,
    /// Masked fraction.
    pub masked: f64,
}

impl AvfRow {
    fn from(device: &'static str, r: &AvfResult) -> AvfRow {
        AvfRow {
            device,
            name: r.target.clone(),
            injector: r.injector,
            sdc: r.sdc_avf(),
            due: r.due_avf(),
            masked: r.masked,
        }
    }
}

/// The Volta Figure 4 set: F and D variants of the mixed-precision codes.
fn volta_fig4_set(scale: Scale) -> Vec<Workload> {
    use Benchmark::*;
    use Precision::*;
    [
        (Hotspot, Single),
        (Hotspot, Double),
        (Lava, Single),
        (Lava, Double),
        (Mxm, Single),
        (Mxm, Double),
        (Gemm, Single),
        (Gemm, Double),
        (Yolov2, Single),
        (Yolov3, Single),
    ]
    .into_iter()
    .map(|(b, p)| build(b, p, CodeGen::Cuda10, scale))
    .collect()
}

/// Regenerate Figure 4: per-code AVF. On Kepler both injectors run (each
/// on the codegen it supports); on Volta only NVBitFI. SASSIFI rows are
/// absent for proprietary-library codes, as on real hardware.
pub fn fig4(cfg: &HarnessConfig, ctx: &mut ObserveCtx<'_>) -> Vec<AvfRow> {
    let (kepler, volta) = devices();
    let mut rows = Vec::new();
    let budget = &cfg.injection;

    for w in kepler_suite(CodeGen::Cuda7, cfg.scale) {
        if Injector::Sassifi.supports(&w, &kepler).is_ok() {
            let label = format!("fig4/Kepler/SASSIFI/{}", w.name);
            let r = ctx.run(&label, Avf::new(Injector::Sassifi), &w, &kepler, budget);
            rows.push(AvfRow::from("Kepler", &r));
        }
    }
    for w in kepler_suite(CodeGen::Cuda10, cfg.scale) {
        let label = format!("fig4/Kepler/NVBitFI/{}", w.name);
        let r = ctx.run(&label, Avf::new(Injector::NvBitFi), &w, &kepler, budget);
        rows.push(AvfRow::from("Kepler", &r));
    }
    for w in volta_fig4_set(cfg.scale) {
        let label = format!("fig4/Volta/NVBitFI/{}", w.name);
        let r = ctx.run(&label, Avf::new(Injector::NvBitFi), &w, &volta, budget);
        rows.push(AvfRow::from("Volta", &r));
    }
    rows
}

// ------------------------------------------------------------ Figure 5 --

/// One Figure 5 bar pair: a code's beam SDC/DUE FIT under one ECC state.
#[derive(Clone, Debug)]
pub struct BeamRow {
    /// "Kepler" or "Volta".
    pub device: &'static str,
    /// Workload name.
    pub name: String,
    /// ECC enabled?
    pub ecc: bool,
    /// Raw FITs.
    pub sdc_fit: f64,
    /// Raw DUE FIT.
    pub due_fit: f64,
    /// Observed error counts backing the estimate.
    pub sdc_errors: u64,
    /// DUE count.
    pub due_errors: u64,
}

/// The Kepler ECC-OFF beam set of Figure 5.
fn kepler_ecc_off_set(scale: Scale) -> Vec<Workload> {
    use Benchmark::*;
    [Hotspot, Lava, Mxm, Nw, Mergesort, Quicksort, Gemm, Yolov2, Yolov3]
        .into_iter()
        .map(|b| {
            let p = if b.is_integer() { Precision::Int32 } else { Precision::Single };
            build(b, p, CodeGen::Cuda10, scale)
        })
        .collect()
}

/// The Volta beam sets of Figure 5: (ECC OFF, ECC ON).
fn volta_fig5_sets(scale: Scale) -> (Vec<Workload>, Vec<Workload>) {
    use Benchmark::*;
    use Precision::*;
    let off = [
        (Hotspot, Half),
        (Hotspot, Single),
        (Hotspot, Double),
        (Lava, Half),
        (Lava, Single),
        (Lava, Double),
        (Mxm, Half),
        (Mxm, Single),
        (Mxm, Double),
        (Gemm, Half),
        (Gemm, Single),
        (Gemm, Double),
    ]
    .into_iter()
    .map(|(b, p)| build(b, p, CodeGen::Cuda10, scale))
    .collect();
    let on = [(GemmMma, Half), (GemmMma, Single), (Yolov3, Half), (Yolov3, Single)]
        .into_iter()
        .map(|(b, p)| build(b, p, CodeGen::Cuda10, scale))
        .collect();
    (off, on)
}

/// The `ecc-on`/`ecc-off` part of a beam campaign label.
fn ecc_label(ecc: bool) -> &'static str {
    if ecc {
        "ecc-on"
    } else {
        "ecc-off"
    }
}

fn beam_row(
    device: &'static str,
    w: &Workload,
    dm: &DeviceModel,
    ecc: bool,
    cfg: &HarnessConfig,
    ctx: &mut ObserveCtx<'_>,
) -> BeamRow {
    let label = format!("fig5/{device}/{}/{}", ecc_label(ecc), w.name);
    let res = ctx.run(&label, Beam::auto(ecc), w, dm, &cfg.beam);
    BeamRow {
        device,
        name: w.name.clone(),
        ecc,
        sdc_fit: res.sdc_fit.fit,
        due_fit: res.due_fit.fit,
        sdc_errors: res.counts.sdc,
        due_errors: res.counts.due,
    }
}

/// Regenerate Figure 5: workload beam FIT rates, ECC off and on.
pub fn fig5(cfg: &HarnessConfig, ctx: &mut ObserveCtx<'_>) -> Vec<BeamRow> {
    let (kepler, volta) = devices();
    let mut rows = Vec::new();
    for w in kepler_ecc_off_set(cfg.scale) {
        rows.push(beam_row("Kepler", &w, &kepler, false, cfg, ctx));
    }
    for w in kepler_suite(CodeGen::Cuda10, cfg.scale) {
        rows.push(beam_row("Kepler", &w, &kepler, true, cfg, ctx));
    }
    let (off, on) = volta_fig5_sets(cfg.scale);
    for w in off {
        rows.push(beam_row("Volta", &w, &volta, false, cfg, ctx));
    }
    for w in on {
        rows.push(beam_row("Volta", &w, &volta, true, cfg, ctx));
    }
    rows
}

// ------------------------------------------------------------ Figure 6 --

/// One Figure 6 point plus its DUE-channel companion.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// "Kepler" or "Volta".
    pub device: &'static str,
    /// Workload name.
    pub name: String,
    /// ECC state of the comparison.
    pub ecc: bool,
    /// AVF source series ("SASSIFI", "NVBitFI").
    pub injector: Injector,
    /// The comparison itself.
    pub row: ComparisonRow,
}

/// All Figure 6 data plus the unit characterization it used.
#[derive(Clone, Debug)]
pub struct ComparisonSet {
    /// Individual code comparisons.
    pub rows: Vec<Fig6Row>,
    /// Kepler unit FITs (measured).
    pub kepler_units: UnitFits,
    /// Volta unit FITs (measured).
    pub volta_units: UnitFits,
}

impl ComparisonSet {
    /// Geometric-mean |ratio| for a (device, ecc, injector) series.
    pub fn average_magnitude(&self, device: &str, ecc: bool, injector: Injector) -> f64 {
        let mags: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.device == device && r.ecc == ecc && r.injector == injector)
            .map(|r| r.row.sdc_ratio.abs())
            .filter(|m| m.is_finite())
            .collect();
        stats::geometric_mean(&mags)
    }

    /// Fraction of predictions within `factor`x of the measurement.
    pub fn within_factor(&self, factor: f64) -> f64 {
        let all: Vec<&Fig6Row> = self.rows.iter().filter(|r| r.row.sdc_ratio.is_finite()).collect();
        if all.is_empty() {
            return f64::NAN;
        }
        let close = all.iter().filter(|r| r.row.sdc_ratio.abs() <= factor).count();
        close as f64 / all.len() as f64
    }

    /// Average DUE underestimation factor for a (device, ecc) group.
    pub fn due_factor(&self, device: &str, ecc: bool) -> f64 {
        let f: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.device == device && r.ecc == ecc)
            .map(|r| r.row.due_underestimation)
            .filter(|v| v.is_finite() && *v > 0.0)
            .collect();
        stats::geometric_mean(&f)
    }
}

/// AVF lookup strategy mirroring Section VII: SASSIFI on the CUDA 7 build;
/// NVBitFI on the CUDA 10 build; proprietary codes on Kepler borrow the
/// Volta NVBitFI AVF; half-precision codes borrow their single-precision
/// sibling's AVF (NVBitFI cannot inject into half instructions).
struct AvfBank {
    kepler_sassifi: Vec<AvfResult>,
    kepler_nvbitfi: Vec<AvfResult>,
    volta_nvbitfi: Vec<AvfResult>,
}

impl AvfBank {
    fn find<'a>(pool: &'a [AvfResult], name: &str) -> Option<&'a AvfResult> {
        pool.iter().find(|r| r.target == name)
    }

    /// The AVF used for predicting `name` on Kepler with `injector`.
    fn kepler(&self, name: &str, injector: Injector) -> Option<&AvfResult> {
        let pool = match injector {
            Injector::Sassifi => &self.kepler_sassifi,
            Injector::NvBitFi => &self.kepler_nvbitfi,
        };
        Self::find(pool, name)
            // Proprietary-library codes: borrow the Volta NVBitFI AVF
            // (Section III-D's substitution).
            .or_else(|| Self::find(&self.volta_nvbitfi, name))
    }

    /// The AVF used for predicting `name` on Volta.
    fn volta(&self, w: &Workload) -> Option<&AvfResult> {
        if w.precision == Precision::Half {
            // NVBitFI cannot inject into half-precision instructions; the
            // paper substitutes the float variant's AVF.
            let sibling = w.benchmark.display_name(Precision::Single);
            return Self::find(&self.volta_nvbitfi, &sibling)
                .or_else(|| Self::find(&self.volta_nvbitfi, &w.name));
        }
        Self::find(&self.volta_nvbitfi, &w.name)
    }
}

/// Regenerate Figure 6 (and the Section VII-B DUE analysis): beam-measured
/// vs predicted SDC FIT for every code, ECC off and on, both devices.
pub fn fig6(cfg: &HarnessConfig, ctx: &mut ObserveCtx<'_>) -> ComparisonSet {
    let (kepler, volta) = devices();
    let char_cfg =
        CharacterizeConfig { beam: cfg.bench_beam.clone(), injection: cfg.bench_injection.clone() };

    // 1. Characterize the functional units on both devices (Figure 3 data
    //    in usable form).
    let kepler_units = characterize_units(&kepler, &microbench::suite(&kepler), &char_cfg);
    let volta_units = characterize_units(&volta, &microbench::suite(&volta), &char_cfg);

    // 2. AVF banks.
    let mut bank = AvfBank {
        kepler_sassifi: Vec::new(),
        kepler_nvbitfi: Vec::new(),
        volta_nvbitfi: Vec::new(),
    };
    for w in kepler_suite(CodeGen::Cuda7, cfg.scale) {
        if Injector::Sassifi.supports(&w, &kepler).is_ok() {
            let label = format!("fig6/Kepler/SASSIFI/{}", w.name);
            let r = ctx.run(&label, Avf::new(Injector::Sassifi), &w, &kepler, &cfg.injection);
            bank.kepler_sassifi.push(r);
        }
    }
    for w in kepler_suite(CodeGen::Cuda10, cfg.scale) {
        let label = format!("fig6/Kepler/NVBitFI/{}", w.name);
        let r = ctx.run(&label, Avf::new(Injector::NvBitFi), &w, &kepler, &cfg.injection);
        bank.kepler_nvbitfi.push(r);
    }
    // Volta AVFs: every (benchmark, precision) the Volta comparisons need,
    // plus single-precision variants of the Kepler proprietary codes.
    let mut volta_avf_targets = volta_suite(cfg.scale);
    volta_avf_targets.push(build(Benchmark::Yolov2, Precision::Single, CodeGen::Cuda10, cfg.scale));
    for w in &volta_avf_targets {
        if w.precision == Precision::Half {
            continue; // predictions use the float sibling
        }
        let label = format!("fig6/Volta/NVBitFI/{}", w.name);
        let r = ctx.run(&label, Avf::new(Injector::NvBitFi), w, &volta, &cfg.injection);
        bank.volta_nvbitfi.push(r);
    }

    // 3. Per-code comparisons.
    let mut rows = Vec::new();

    // Kepler, both ECC states. The beam runs the CUDA 10 build.
    let kepler_sets: [(bool, Vec<Workload>); 2] =
        [(false, kepler_ecc_off_set(cfg.scale)), (true, kepler_suite(CodeGen::Cuda10, cfg.scale))];
    for (ecc, set) in kepler_sets {
        for w in &set {
            let prof = profile(w, &kepler);
            let feet = memory_footprint(w, &kepler, &prof);
            let label = format!("fig6/Kepler/{}/{}", ecc_label(ecc), w.name);
            let measured = ctx.run(&label, Beam::auto(ecc), w, &kepler, &cfg.beam);
            for injector in [Injector::Sassifi, Injector::NvBitFi] {
                let Some(avf) = bank.kepler(&w.name, injector) else { continue };
                let pred = predict(
                    &prof,
                    avf,
                    &kepler_units,
                    &feet,
                    &PredictOptions { ecc, use_phi: true },
                );
                rows.push(Fig6Row {
                    device: "Kepler",
                    name: w.name.clone(),
                    ecc,
                    injector,
                    row: compare(&w.name, &measured, &pred),
                });
            }
        }
    }

    // Volta.
    let (off, on) = volta_fig5_sets(cfg.scale);
    for (ecc, set) in [(false, off), (true, on)] {
        for w in &set {
            let prof = profile(w, &volta);
            let feet = memory_footprint(w, &volta, &prof);
            let label = format!("fig6/Volta/{}/{}", ecc_label(ecc), w.name);
            let measured = ctx.run(&label, Beam::auto(ecc), w, &volta, &cfg.beam);
            let Some(avf) = bank.volta(w) else { continue };
            let pred =
                predict(&prof, avf, &volta_units, &feet, &PredictOptions { ecc, use_phi: true });
            rows.push(Fig6Row {
                device: "Volta",
                name: w.name.clone(),
                ecc,
                injector: Injector::NvBitFi,
                row: compare(&w.name, &measured, &pred),
            });
        }
    }

    ComparisonSet { rows, kepler_units, volta_units }
}

// ------------------------------------------------- Section VII-B (DUE) --

/// Aggregated DUE underestimation factors per (device, ECC) group.
#[derive(Clone, Debug)]
pub struct DueSummary {
    /// Group label, e.g. "Kepler ECC OFF".
    pub group: String,
    /// Geometric-mean measured/predicted DUE factor.
    pub factor: f64,
}

/// The Section VII-B analysis: how badly fault simulation underestimates
/// DUE rates.
pub fn due_analysis(set: &ComparisonSet) -> Vec<DueSummary> {
    let mut out = Vec::new();
    for (device, ecc) in [("Kepler", false), ("Kepler", true), ("Volta", false), ("Volta", true)] {
        let factor = set.due_factor(device, ecc);
        out.push(DueSummary {
            group: format!("{device} ECC {}", if ecc { "ON" } else { "OFF" }),
            factor,
        });
    }
    out
}

// --------------------------------- hidden-resource DUE gap closure --

/// One rung of the hidden-coverage ladder for one code: how close the
/// DUE prediction gets to the beam measurement when the injector reaches
/// this subset of hidden resources.
#[derive(Clone, Debug)]
pub struct GapRow {
    /// "Kepler" or "Volta".
    pub device: &'static str,
    /// Workload name.
    pub name: String,
    /// Coverage label ("none", "scheduler", ..., "full").
    pub coverage: String,
    /// Live hidden classes the coverage reaches on this code.
    pub covered: usize,
    /// Fraction of the code's hidden strike rate the coverage reaches.
    pub rate_coverage: f64,
    /// Beam-measured DUE FIT (the ground truth, fixed per code).
    pub measured_due: f64,
    /// Predicted DUE FIT at this coverage.
    pub predicted_due: f64,
    /// The hidden-resource share of `predicted_due`.
    pub predicted_hidden_due: f64,
    /// Measured / predicted: the Section VII-B underestimation factor.
    pub gap: f64,
}

/// The full gap-closure ladder: per code, the DUE prediction gap at each
/// hidden-coverage level, from register-only ("none", today's injectors)
/// to full hidden-resource coverage.
#[derive(Clone, Debug)]
pub struct GapClosure {
    /// Rows grouped by code, coverage levels in ladder order.
    pub rows: Vec<GapRow>,
    /// Coverage levels per code.
    pub levels: usize,
}

impl GapClosure {
    /// Distinct code names, in run order.
    pub fn codes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for r in &self.rows {
            if !out.contains(&r.name.as_str()) {
                out.push(&r.name);
            }
        }
        out
    }

    /// One code's rows, in ladder order.
    pub fn ladder(&self, name: &str) -> Vec<&GapRow> {
        self.rows.iter().filter(|r| r.name == name).collect()
    }

    /// One JSON line per rung (`{"report":"hidden_gap",...}`), for the CI
    /// gap-closure artifact. Non-finite values (an infinite gap when
    /// nothing is predicted) are written as `null`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.rows.len() * 160);
        for r in &self.rows {
            let mut line = RunReport::new("hidden_gap");
            line.push_str("device", r.device)
                .push_str("code", &r.name)
                .push_str("coverage", &r.coverage)
                .push_uint("covered", r.covered as u64)
                .push_float("rate_coverage", r.rate_coverage)
                .push_float("measured_due", r.measured_due)
                .push_float("predicted_due", r.predicted_due)
                .push_float("predicted_hidden_due", r.predicted_hidden_due)
                .push_float("gap", r.gap);
            out.push_str(&line.to_json_line());
            out.push('\n');
        }
        out
    }
}

/// The coverage ladder the gap study climbs: register-only, one hidden
/// class, the SM-front-end classes, everything.
fn coverage_ladder() -> [HiddenCoverage; 4] {
    [
        HiddenCoverage::none(),
        HiddenCoverage::of(&[HiddenClass::Scheduler]),
        HiddenCoverage::of(&[HiddenClass::Scheduler, HiddenClass::Fetch, HiddenClass::Mask]),
        HiddenCoverage::full(),
    ]
}

/// The Section VII-B closure experiment: hold the beam DUE measurement
/// and the architectural (register-level) prediction fixed per code, then
/// grow the hidden-injection coverage rung by rung and watch the
/// measured/predicted DUE gap shrink from its orders-of-magnitude
/// register-only size toward 1.
///
/// Everything on the prediction side is measured blind: hidden strike
/// rates come from [`beam::characterize_hidden`] (a simulated calibration
/// experiment, not the ground-truth cross-sections) and the per-class
/// P(DUE | strike) from [`injector::measure_hidden_breakdown`] campaigns.
pub fn hidden_gap_closure(cfg: &HarnessConfig, ctx: &mut ObserveCtx<'_>) -> GapClosure {
    let (_, volta) = devices();
    let char_cfg =
        CharacterizeConfig { beam: cfg.bench_beam.clone(), injection: cfg.bench_injection.clone() };
    let units = characterize_units(&volta, &microbench::suite(&volta), &char_cfg);
    let rates = beam::characterize_hidden(&volta, cfg.beam.ceiling, cfg.beam.seed);
    let ladder = coverage_ladder();

    let mut rows = Vec::new();
    for bench in [Benchmark::Mxm, Benchmark::Hotspot] {
        let w = build(bench, Precision::Single, CodeGen::Cuda10, cfg.scale);
        let prof = profile(&w, &volta);
        let feet = memory_footprint(&w, &volta, &prof);
        let label = format!("gap/Volta/NVBitFI/{}", w.name);
        let avf = ctx.run(&label, Avf::new(Injector::NvBitFi), &w, &volta, &cfg.injection);
        let label = format!("gap/Volta/ecc-on/{}", w.name);
        let measured = ctx.run(&label, Beam::auto(true), &w, &volta, &cfg.beam);
        let breakdown = injector::measure_hidden_breakdown(&w, &volta, &cfg.injection);
        let base =
            predict(&prof, &avf, &units, &feet, &PredictOptions { ecc: true, use_phi: true });
        for coverage in ladder {
            let term = predict_hidden(&prof, &rates, &breakdown, coverage);
            let row = compare(&w.name, &measured, &base.with_hidden(&term));
            rows.push(GapRow {
                device: "Volta",
                name: w.name.clone(),
                coverage: coverage.label(),
                covered: breakdown.per_class.iter().filter(|(c, _)| coverage.covers(*c)).count(),
                rate_coverage: term.rate_coverage,
                measured_due: row.measured_due,
                predicted_due: row.predicted_due,
                predicted_hidden_due: row.predicted_hidden_due,
                gap: row.due_underestimation,
            });
        }
    }
    GapClosure { rows, levels: ladder.len() }
}

// -------------------------------------------- spec-driven device run --

/// One workload's beam-vs-prediction comparison from a spec-resolved
/// device run (the hidden DUE term is always included at full coverage).
#[derive(Clone, Debug)]
pub struct DeviceRow {
    /// Workload name.
    pub name: String,
    /// ECC state of the comparison.
    pub ecc: bool,
    /// AVF source series.
    pub injector: Injector,
    /// The comparison itself.
    pub row: ComparisonRow,
}

/// The full-pipeline report for an arbitrary device resolved from the
/// registry or a user spec file (`repro device --device <name|path>`).
#[derive(Clone, Debug)]
pub struct DeviceReport {
    /// Registry id of the spec the run resolved.
    pub id: String,
    /// Marketing name of the board the spec describes.
    pub device: String,
    /// Architecture generation name.
    pub arch: String,
    /// SM count of the full board (campaigns run the 1-SM variant).
    pub sms: u32,
    /// Measured functional-unit FITs on this device.
    pub units: UnitFits,
    /// Per-code comparisons, ECC states in spec-capability order.
    pub rows: Vec<DeviceRow>,
}

impl DeviceReport {
    /// One JSON line per comparison (`{"report":"device_row",...}`), for
    /// the metrics stream / CI device artifact. Non-finite values (a NaN
    /// `sdc_ratio` when no SDC was measured) are written as `null`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.rows.len() * 200);
        for r in &self.rows {
            let mut line = RunReport::new("device_row");
            line.push_str("id", &self.id)
                .push_str("device", &self.device)
                .push_str("arch", &self.arch)
                .push_str("code", &r.name)
                .push_bool("ecc", r.ecc)
                .push_str("injector", &r.injector.to_string())
                .push_float("measured_sdc", r.row.measured_sdc)
                .push_float("predicted_sdc", r.row.predicted_sdc)
                .push_float("sdc_ratio", r.row.sdc_ratio)
                .push_float("measured_due", r.row.measured_due)
                .push_float("predicted_due", r.row.predicted_due)
                .push_float("predicted_hidden_due", r.row.predicted_hidden_due);
            out.push_str(&line.to_json_line());
            out.push('\n');
        }
        out
    }
}

/// The codes a spec-driven device run compares (one dense arithmetic
/// kernel, one stencil, one irregular molecular-dynamics kernel).
fn device_suite() -> [Benchmark; 3] {
    [Benchmark::Mxm, Benchmark::Hotspot, Benchmark::Lava]
}

/// Run the paper's whole methodology — unit characterization, register
/// AVF, hidden-resource calibration + injection, beam exposure,
/// prediction — on one spec-resolved device and report Figure 6-style
/// comparison rows. Everything downstream of the spec is table-driven:
/// workloads build with the spec's codegen-quirk profile, the injector
/// follows the spec's tooling capability (SASSIFI where supported,
/// NVBitFI otherwise), and beam campaigns run only the ECC states the
/// board can actually be put in.
pub fn device_pipeline(
    cfg: &HarnessConfig,
    ctx: &mut ObserveCtx<'_>,
    spec: &DeviceSpec,
) -> DeviceReport {
    // Campaigns run the derived single-SM variant (see DESIGN.md on
    // SM-count scaling); the report carries the full board's identity.
    let device = spec.sim_model();
    let char_cfg =
        CharacterizeConfig { beam: cfg.bench_beam.clone(), injection: cfg.bench_injection.clone() };
    let units = characterize_units(&device, &microbench::suite(&device), &char_cfg);
    let rates = beam::characterize_hidden(&device, cfg.beam.ceiling, cfg.beam.seed);
    let codegen = spec.codegen_profile();
    let injector_kind = if spec.sassifi { Injector::Sassifi } else { Injector::NvBitFi };
    let ecc_states: &[bool] = if spec.ecc_toggle { &[false, true] } else { &[true] };

    let mut rows = Vec::new();
    for bench in device_suite() {
        let w = build_with(bench, Precision::Single, &codegen, cfg.scale);
        let prof = profile(&w, &device);
        let feet = memory_footprint(&w, &device, &prof);
        let label = format!("device/{}/{injector_kind}/{}", spec.id, w.name);
        let avf = ctx.run(&label, Avf::new(injector_kind), &w, &device, &cfg.injection);
        let breakdown = injector::measure_hidden_breakdown(&w, &device, &cfg.injection);
        let term = predict_hidden(&prof, &rates, &breakdown, HiddenCoverage::full());
        for &ecc in ecc_states {
            let label = format!("device/{}/{}/{}", spec.id, ecc_label(ecc), w.name);
            let measured = ctx.run(&label, Beam::auto(ecc), &w, &device, &cfg.beam);
            let pred = predict(&prof, &avf, &units, &feet, &PredictOptions { ecc, use_phi: true })
                .with_hidden(&term);
            rows.push(DeviceRow {
                name: w.name.clone(),
                ecc,
                injector: injector_kind,
                row: compare(&w.name, &measured, &pred),
            });
        }
    }
    DeviceReport {
        id: spec.id.clone(),
        device: spec.name.clone(),
        arch: spec.arch.name().to_string(),
        sms: spec.sms,
        units,
        rows,
    }
}

// ------------------------------------------- compiler-generation study --

/// One row of the codegen comparison: the same source, two back ends,
/// one injector.
#[derive(Clone, Debug)]
pub struct CodegenRow {
    /// Workload name (CUDA 10 naming).
    pub name: String,
    /// SDC AVF of the CUDA 7-era binary.
    pub avf_cuda7: f64,
    /// SDC AVF of the CUDA 10-era binary.
    pub avf_cuda10: f64,
    /// Dynamic instructions of each binary (the optimizer's footprint).
    pub dyn_cuda7: u64,
    /// CUDA 10 dynamic count.
    pub dyn_cuda10: u64,
}

/// Isolate the compiler-generation effect the paper identifies as the
/// main driver of the SASSIFI/NVBitFI AVF gap (Section VI): measure the
/// same codes with the *same* injector (NVBitFI) on both codegen levels.
/// Optimized code executes fewer, more "useful" instructions, raising
/// the probability that a corrupted value reaches the output.
pub fn codegen_comparison(cfg: &HarnessConfig, ctx: &mut ObserveCtx<'_>) -> Vec<CodegenRow> {
    let (kepler, _) = devices();
    let mut avf = |codegen: &str, w: &Workload| {
        let label = format!("codegen/{codegen}/{}", w.name);
        ctx.run(&label, Avf::new(Injector::NvBitFi), w, &kepler, &cfg.injection)
    };
    let mut rows = Vec::new();
    for bench in [
        Benchmark::Mxm,
        Benchmark::Hotspot,
        Benchmark::Lava,
        Benchmark::Gaussian,
        Benchmark::Lud,
        Benchmark::Nw,
        Benchmark::Ccl,
        Benchmark::Mergesort,
    ] {
        let precision = if bench.is_integer() { Precision::Int32 } else { Precision::Single };
        let w7 = build(bench, precision, CodeGen::Cuda7, cfg.scale);
        let w10 = build(bench, precision, CodeGen::Cuda10, cfg.scale);
        let a7 = avf("cuda7", &w7);
        let a10 = avf("cuda10", &w10);
        let g7 = w7.execute_golden(&kepler);
        let g10 = w10.execute_golden(&kepler);
        rows.push(CodegenRow {
            name: w10.name.clone(),
            avf_cuda7: a7.sdc_avf(),
            avf_cuda10: a10.sdc_avf(),
            dyn_cuda7: g7.counts.total,
            dyn_cuda10: g10.counts.total,
        });
    }
    rows
}

// ----------------------------------------------- campaign convergence --

/// One point of the convergence study.
#[derive(Clone, Debug)]
pub struct ConvergenceRow {
    /// Injection count.
    pub injections: u32,
    /// SDC AVF point estimate.
    pub sdc_avf: f64,
    /// Wilson 95% CI width (`hi - lo`).
    pub ci_width: f64,
}

/// How the AVF estimate converges with campaign size — the paper sizes
/// campaigns so that "95% confidence intervals \[are\] lower than 5%"
/// (Section III-D).
pub fn convergence(
    cfg: &HarnessConfig,
    ctx: &mut ObserveCtx<'_>,
    benchmark: Benchmark,
) -> Vec<ConvergenceRow> {
    let (kepler, _) = devices();
    let precision = if benchmark.is_integer() { Precision::Int32 } else { Precision::Single };
    let w = build(benchmark, precision, CodeGen::Cuda10, cfg.scale);
    let mut rows = Vec::new();
    for n in [100u32, 250, 500, 1000, 2000, 4000] {
        let label = format!("convergence/{}/{n}", w.name);
        let budget = Budget::fixed(n).seed(cfg.injection.seed);
        let r = ctx.run(&label, Avf::new(Injector::NvBitFi), &w, &kepler, &budget);
        rows.push(ConvergenceRow {
            injections: n,
            sdc_avf: r.sdc_avf(),
            ci_width: r.sdc.2 - r.sdc.1,
        });
    }
    rows
}

// ------------------------------------------------- per-class AVF table --

/// Per-site-class AVF rows for a few representative codes — the
/// decomposition the paper's conclusion asks for ("identify which
/// instruction or resource, once corrupted, is more likely to affect the
/// GPU computation").
#[derive(Clone, Debug)]
pub struct BreakdownRow {
    /// Workload name.
    pub name: String,
    /// Class label ("FP", "INT", "LD", "HALF").
    pub class: &'static str,
    /// SDC AVF for injections restricted to that class.
    pub sdc: f64,
    /// DUE AVF.
    pub due: f64,
}

/// Measure per-class AVFs for a representative code set.
pub fn avf_breakdown(cfg: &HarnessConfig) -> Vec<BreakdownRow> {
    use gpu_sim::SiteClass;
    let (kepler, _) = devices();
    let label = |c: SiteClass| match c {
        SiteClass::FloatArith => "FP",
        SiteClass::HalfArith => "HALF",
        SiteClass::IntArith => "INT",
        SiteClass::Load => "LD",
        _ => "?",
    };
    let mut rows = Vec::new();
    for bench in [Benchmark::Mxm, Benchmark::Hotspot, Benchmark::Nw, Benchmark::Mergesort] {
        let precision = if bench.is_integer() { Precision::Int32 } else { Precision::Single };
        let w = build(bench, precision, CodeGen::Cuda10, cfg.scale);
        let b = injector::measure_avf_breakdown(&w, &kepler, &cfg.injection);
        for (class, r) in &b.per_class {
            rows.push(BreakdownRow {
                name: w.name.clone(),
                class: label(*class),
                sdc: r.sdc_avf(),
                due: r.due_avf(),
            });
        }
    }
    rows
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn row(sdc_ratio: f64) -> ComparisonRow {
        ComparisonRow {
            name: "FMXM".to_string(),
            measured_sdc: 0.0,
            predicted_sdc: 1.5,
            sdc_ratio,
            measured_due: 2.0,
            predicted_due: 0.0,
            due_underestimation: f64::INFINITY,
            static_ace: 0.5,
            static_sdc_upper: 1.0,
            static_due_upper: 1.0,
            predicted_hidden_due: 0.0,
        }
    }

    /// Parse every line and return the named field of each.
    fn field(lines: &str, key: &str) -> Vec<obs::json::Json> {
        lines
            .lines()
            .map(|line| {
                let doc = obs::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
                doc.as_obj().expect("object")[key].clone()
            })
            .collect()
    }

    #[test]
    fn artifact_lines_stay_valid_json_with_non_finite_values() {
        use obs::json::Json;
        // No measured SDC makes the signed ratio NaN; no predicted DUE
        // makes the gap infinite.
        let gap = GapClosure {
            rows: vec![GapRow {
                device: "Volta",
                name: "FMXM".to_string(),
                coverage: "none".to_string(),
                covered: 0,
                rate_coverage: 0.0,
                measured_due: 2.0,
                predicted_due: 0.0,
                predicted_hidden_due: 0.0,
                gap: f64::INFINITY,
            }],
            levels: 1,
        };
        assert_eq!(field(&gap.to_json_lines(), "gap"), [Json::Null]);
        assert_eq!(field(&gap.to_json_lines(), "covered"), [Json::Num(0.0)]);

        let report = DeviceReport {
            id: "a100".to_string(),
            device: "A100".to_string(),
            arch: "Ampere".to_string(),
            sms: 108,
            units: UnitFits::default(),
            rows: vec![
                DeviceRow {
                    name: "FMXM".into(),
                    ecc: true,
                    injector: Injector::NvBitFi,
                    row: row(f64::NAN),
                },
                DeviceRow {
                    name: "FMXM".into(),
                    ecc: false,
                    injector: Injector::NvBitFi,
                    row: row(-2.0),
                },
            ],
        };
        let lines = report.to_json_lines();
        assert_eq!(field(&lines, "sdc_ratio"), [Json::Null, Json::Num(-2.0)]);
        assert_eq!(field(&lines, "injector")[0], Json::Str("NVBitFI".into()));
    }
}
