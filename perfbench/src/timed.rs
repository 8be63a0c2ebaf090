//! Span recording from outside the program, for the traced rep.
//!
//! The benchmark never attaches the engine's own `SpanBus`: it wraps the
//! workload, the campaign kind and its sampler in [`TimedTarget`],
//! [`TimedKind`] and [`TimedSampler`], which implement the public
//! `gpu_sim::Target`, `campaign::Kind` and `campaign::Sampler` traits,
//! forward every method, and record a span around the calls that are a
//! layer boundary. Spans live in a thread-local buffer; a campaign with
//! one worker runs every trial on the calling thread, so one buffer sees
//! the whole rep. When no recorder is installed, [`span`] is a plain call.

use campaign::{CampaignRun, Kind, Sampler, TrialPlan};
use gpu_arch::{DeviceModel, Kernel, LaunchConfig};
use gpu_sim::{DueKind, ExecStatus, Executed, GlobalMemory, RunOptions, Target};
use obs::json::{emit_f64, escape_str};
use obs::MetricsRegistry;
use rand_chacha::ChaCha12Rng;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorded list.
    pub parent: Option<usize>,
    /// The trial index passed to `Sampler::sample` when the span opened.
    pub trial: Option<u64>,
    /// For `execute` spans: instructions the engine ran (excluding a
    /// fast-forwarded prefix), instructions fast-forwarded, and whether
    /// the run ended on a watchdog.
    pub exec: Option<ExecNote>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExecNote {
    pub instrs: u64,
    pub skipped: u64,
    pub watchdog: bool,
}

struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    static TRIAL: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Install a recorder on this thread; spans are kept from now on.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() =
            Some(Recorder { t0: Instant::now(), spans: Vec::new(), open: Vec::new() });
    });
}

/// Remove this thread's recorder and return its spans.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map(|rec| rec.spans).unwrap_or_default())
}

/// Mark the trial that subsequent spans belong to (`None` outside trials).
pub fn set_trial(trial: Option<u64>) {
    TRIAL.with(|t| t.set(trial));
}

/// An open span; closed when dropped, so a trial that panics still
/// closes its spans before the engine retries it.
pub struct Guard {
    idx: Option<usize>,
    exec: Option<ExecNote>,
}

impl Guard {
    pub fn note(&mut self, exec: ExecNote) {
        self.exec = Some(exec);
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].end_ns = rec.t0.elapsed().as_nanos() as u64;
                rec.spans[idx].exec = self.exec;
                if let Some(pos) = rec.open.iter().rposition(|&i| i == idx) {
                    rec.open.truncate(pos);
                }
            }
        });
    }
}

/// Open a span named `name` under the innermost open span.
pub fn enter(name: &'static str) -> Guard {
    let trial = TRIAL.with(Cell::get);
    let idx = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let idx = rec.spans.len();
            let now = rec.t0.elapsed().as_nanos() as u64;
            let parent = rec.open.last().copied();
            rec.spans.push(Span { name, start_ns: now, end_ns: now, parent, trial, exec: None });
            rec.open.push(idx);
            idx
        })
    });
    Guard { idx, exec: None }
}

/// Run `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _guard = enter(name);
    f()
}

/// The spans in Chrome Trace Event Format: complete events with
/// microsecond timestamps, nested by time on one thread, each carrying
/// its parent's index and its trial in `args`. Opens in Perfetto.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120 + 4);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        out.push_str(if i > 0 { ",\n{\"name\":" } else { "\n{\"name\":" });
        escape_str(&mut out, s.name);
        out.push_str(",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":");
        emit_f64(&mut out, s.start_ns as f64 / 1e3);
        out.push_str(",\"dur\":");
        emit_f64(&mut out, s.dur_ns() as f64 / 1e3);
        let _ = write!(out, ",\"args\":{{\"span\":{i}");
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        if let Some(t) = s.trial {
            let _ = write!(out, ",\"trial\":{t}");
        }
        if let Some(e) = s.exec {
            let _ = write!(
                out,
                ",\"instrs\":{},\"skipped\":{},\"watchdog\":{}",
                e.instrs, e.skipped, e.watchdog
            );
        }
        out.push_str("}}");
    }
    out.push_str("\n]\n");
    out
}

/// A workload whose memory set-up, execution and output comparison are
/// timed. `execute` calls `gpu_sim::run` on `fresh_memory()` exactly as
/// the trait's default does; no workload overrides it.
pub struct TimedTarget<'a, T: ?Sized>(pub &'a T);

impl<T: Target + ?Sized> Target for TimedTarget<'_, T> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn kernel(&self) -> &Kernel {
        self.0.kernel()
    }
    fn launch(&self) -> &LaunchConfig {
        self.0.launch()
    }
    fn fresh_memory(&self) -> GlobalMemory {
        span("fresh_memory", || self.0.fresh_memory())
    }
    fn output_matches(&self, golden: &Executed, faulty: &Executed) -> bool {
        span("compare", || self.0.output_matches(golden, faulty))
    }
    fn proprietary(&self) -> bool {
        self.0.proprietary()
    }
    fn execute(&self, device: &DeviceModel, opts: &RunOptions) -> Executed {
        let memory = self.fresh_memory();
        let mut guard = enter("execute");
        let out = gpu_sim::run(device, self.kernel(), self.launch(), memory, opts);
        guard.note(exec_note(opts, &out));
        out
    }
    fn execute_traced(
        &self,
        device: &DeviceModel,
        opts: &RunOptions,
        sink: &mut dyn obs::TraceSink,
    ) -> Executed {
        let memory = self.fresh_memory();
        let mut guard = enter("execute");
        let out =
            gpu_sim::run_with_sink(device, self.kernel(), self.launch(), memory, opts, Some(sink));
        guard.note(exec_note(opts, &out));
        out
    }
    // `execute_golden` keeps the trait default, which goes through the
    // timed `execute` above.
}

fn exec_note(opts: &RunOptions, out: &Executed) -> ExecNote {
    let skipped = opts.resume_from.as_ref().map_or(0, |s| s.dyn_count());
    ExecNote {
        instrs: out.counts.total.saturating_sub(skipped),
        skipped,
        watchdog: matches!(out.status, ExecStatus::Due(DueKind::Watchdog | DueKind::HostWatchdog)),
    }
}

/// A campaign kind whose `prepare` is timed and whose sampler is wrapped.
pub struct TimedKind<K>(pub K);

impl<'a, T: Target + Sync + ?Sized, K: Kind<T>> Kind<TimedTarget<'a, T>> for TimedKind<K> {
    type Sampler = TimedSampler<K::Sampler>;
    type Output = K::Output;

    fn label(&self) -> String {
        self.0.label()
    }
    fn ecc(&self) -> bool {
        self.0.ecc()
    }
    fn record_sites(&self) -> bool {
        self.0.record_sites()
    }
    fn prepare(
        &self,
        target: &TimedTarget<'a, T>,
        device: &DeviceModel,
        golden: &Arc<Executed>,
    ) -> Self::Sampler {
        TimedSampler(span("prepare", || self.0.prepare(target.0, device, golden)))
    }
    fn finish(
        &self,
        target: &TimedTarget<'a, T>,
        sampler: &Self::Sampler,
        run: &CampaignRun,
    ) -> K::Output {
        self.0.finish(target.0, &sampler.0, run)
    }
    fn export_metrics(&self, sampler: &Self::Sampler, run: &CampaignRun, m: &MetricsRegistry) {
        self.0.export_metrics(&sampler.0, run, m);
    }
}

/// A sampler that marks the current trial and times each draw.
pub struct TimedSampler<S>(pub S);

impl<S: Sampler> Sampler for TimedSampler<S> {
    fn sample(&self, trial: u64, rng: &mut ChaCha12Rng) -> TrialPlan {
        // Valid because campaigns run with one worker: every span until
        // the next draw belongs to this trial.
        set_trial(Some(trial));
        span("sample", || self.0.sample(trial, rng))
    }
    fn stratum(&self, trial: u64, plan: &TrialPlan) -> Option<&'static str> {
        self.0.stratum(trial, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_the_trial() {
        start();
        span("outer", || {
            set_trial(Some(7));
            span("inner", || {});
            let _ = std::panic::catch_unwind(|| span("panics", || panic!("trial panic")));
            span("after", || {});
        });
        set_trial(None);
        let spans = finish();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.trial)).collect();
        assert_eq!(
            names,
            [
                ("outer", None, None),
                ("inner", Some(0), Some(7)),
                ("panics", Some(0), Some(7)),
                ("after", Some(0), Some(7)),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let trace = obs::json::parse(&chrome_trace(&spans)).expect("valid JSON");
        let events = trace.as_arr().expect("an event array");
        assert_eq!(events.len(), spans.len());
        let args = events[1].as_obj().and_then(|e| e["args"].as_obj()).expect("args");
        assert_eq!(args["trial"].as_num(), Some(7.0));
        assert_eq!(args["parent"].as_num(), Some(0.0));
        // Without a recorder, spans cost a call and record nothing.
        span("unrecorded", || {});
        assert!(finish().is_empty());
    }
}
