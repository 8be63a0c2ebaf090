//! The execution engine: a deterministic functional SIMT interpreter with
//! fault hooks.
//!
//! Blocks execute sequentially (the paper's workloads have no inter-block
//! synchronization); threads within a block execute in a fixed round-robin
//! order, warp by warp, each lane one instruction per turn. A warp's lanes
//! that sit at the same pc form a run: the instruction is fetched,
//! decoded and resolved once per run, then executed over the run's lanes
//! in lane order. This makes the global dynamic-instruction counter — the
//! coordinate system every [`FaultPlan`] uses — fully deterministic.

use crate::error::SimError;
use crate::fault::{
    BitFlip, DueKind, FaultPlan, FetchEffect, MemQueueEffect, Persistence, SiteClass,
};
use crate::memory::{GlobalMemory, SharedMemory};
use crate::snapshot::{
    trigger_counter, ClassTallies, EngineSnapshot, ExitRecorder, ExitTable, Geometry, SNAPSHOT_CAP,
};
use crate::timing::{self, TimingReport};
use gpu_arch::decode::{FP32_ARITH_UNITS, FP64_ARITH_UNITS, HALF_ARITH_UNITS, INT_ARITH_UNITS};
use gpu_arch::{
    CmpOp, DeviceModel, FunctionalUnit, Instr, InstrMeta, Kernel, LaunchConfig, MemWidth,
    MixCategory, Op, Operand, Reg, SpecialReg, WARP_SIZE,
};
use obs::{MemSpace, TraceEvent, TraceSink};
use softfloat::F16;
use std::sync::Arc;

/// Forward an event to the installed sink, if any. Event construction
/// happens inside the branch, so with no sink each hook point costs one
/// `Option` check and nothing else; `bench/benches/obs_overhead.rs` times
/// that disabled path against an enabled counting sink.
macro_rules! emit {
    ($ctx:expr, $ev:expr) => {
        if let Some(sink) = $ctx.sink.as_deref_mut() {
            let ev = $ev;
            sink.event(&ev);
        }
    };
}

/// Options controlling a single execution.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// SECDED ECC on the memories and register file.
    pub ecc: bool,
    /// The (single) fault to exercise.
    pub fault: FaultPlan,
    /// Abort as a [`DueKind::Watchdog`] DUE once this many dynamic
    /// instructions have executed. Injectors derive this from the golden
    /// run; `u64::MAX` disables the watchdog.
    pub watchdog_limit: u64,
    /// Record the static pc of every dynamic injectable GPR-writer site
    /// (and per-block dynamic-count windows) into
    /// [`Executed::sites_record`]. Golden runs backing statically-pruned
    /// campaigns turn this on; it is off by default because the record
    /// grows with the dynamic instruction count.
    pub record_sites: bool,
    /// Capture an [`EngineSnapshot`] into [`Executed::snapshots`] roughly
    /// every this many dynamic instructions (at the next block-scheduler
    /// round boundary). Zero (the default) disables capture. Golden runs
    /// backing fast-forwarded campaigns turn this on; past
    /// [`SNAPSHOT_CAP`] snapshots the stride doubles and every other
    /// snapshot is dropped, bounding memory.
    pub snapshot_stride: u64,
    /// Start execution from this snapshot instead of instruction 0,
    /// skipping the bit-identical fault-free prefix. The snapshot must
    /// come from a golden run of the same kernel/launch/memory geometry,
    /// and the fault plan's trigger must not precede its capture point
    /// ([`EngineSnapshot::precedes`]; [`crate::trigger_position`] counts
    /// the snapshots that qualify, the last of them skipping the most);
    /// violations are [`SimError::ResumeConflict`]s. Incompatible with
    /// [`RunOptions::record_sites`] and [`RunOptions::snapshot_stride`].
    pub resume_from: Option<Arc<EngineSnapshot>>,
    /// The golden run that may end this trial early once its fault plan
    /// is spent, in one of two ways (see [`Executed::exit`]):
    ///
    /// * a block exit: at a block boundary after which no later block
    ///   reads a word where the trial differs from golden, the engine
    ///   builds the final state from the golden's [`Executed::exit_table`]
    ///   instead of running the later blocks;
    /// * a rejoin: at a scheduler round top where golden captured one of
    ///   its [`Executed::snapshots`], if the trial's state equals the
    ///   snapshot's on everything the rest of the run can read (memories
    ///   with their latent corruption, thread states, pcs, predicates and
    ///   the registers live at each thread's pc), the rest of the run is
    ///   golden's and the trial ends there with golden's final memory.
    ///
    /// The result is bit-identical either way. A golden of another
    /// geometry, or one without a table, is a
    /// [`SimError::ResumeConflict`]. The engine never ends a trial early
    /// with a sink attached, while recording sites or capturing
    /// snapshots, under a stuck-at or fetch plan, or when the watchdog
    /// would trip in the part it skips.
    pub exit_from: Option<Arc<Executed>>,
    /// Hand the trial's fault-free state on to a later trial: at the
    /// first scheduler round top where the plan's trigger is within one
    /// round (its counter plus the running lanes passes the trigger) and
    /// the plan has not fired, capture an [`EngineSnapshot`] into
    /// [`Executed::handoff`]. Before its trigger a trial's state is the
    /// golden run's, so the snapshot serves [`EngineSnapshot::precedes`]
    /// and [`RunOptions::resume_from`] exactly as a golden one captured
    /// there would (DESIGN.md §16, "Relay"). Nothing is captured at the
    /// point the run started from. Incompatible with
    /// [`RunOptions::snapshot_stride`].
    pub hand_off: bool,
}

impl RunOptions {
    /// Options for a golden (fault-free) run: the defaults.
    pub fn golden() -> Self {
        Self::default()
    }

    /// Options for an injection trial exercising `fault`.
    pub fn trial(fault: FaultPlan) -> Self {
        RunOptions { fault, ..Self::default() }
    }

    /// Set the ECC state (see [`RunOptions::ecc`]).
    pub fn ecc(mut self, on: bool) -> Self {
        self.ecc = on;
        self
    }

    /// Set the dynamic-instruction watchdog limit (see
    /// [`RunOptions::watchdog_limit`]).
    pub fn watchdog(mut self, limit: u64) -> Self {
        self.watchdog_limit = limit;
        self
    }

    /// Toggle site-provenance recording (see [`RunOptions::record_sites`]).
    pub fn record_sites(mut self, on: bool) -> Self {
        self.record_sites = on;
        self
    }

    /// Capture engine snapshots every `stride` dynamic instructions; zero
    /// disables (see [`RunOptions::snapshot_stride`]).
    pub fn snapshot_every(mut self, stride: u64) -> Self {
        self.snapshot_stride = stride;
        self
    }

    /// Resume from a golden-run snapshot, or run from instruction 0 when
    /// `None` (see [`RunOptions::resume_from`]).
    pub fn resume(mut self, snapshot: Option<Arc<EngineSnapshot>>) -> Self {
        self.resume_from = snapshot;
        self
    }

    /// End the trial early through `golden`'s exit table, or run every
    /// block when `None` (see [`RunOptions::exit_from`]).
    pub fn exit_through(mut self, golden: Option<Arc<Executed>>) -> Self {
        self.exit_from = golden;
        self
    }

    /// Ask for a hand-off snapshot (see [`RunOptions::hand_off`]).
    pub fn hand_off(mut self, on: bool) -> Self {
        self.hand_off = on;
        self
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            ecc: true,
            fault: FaultPlan::None,
            watchdog_limit: u64::MAX,
            record_sites: false,
            snapshot_stride: 0,
            resume_from: None,
            exit_from: None,
            hand_off: false,
        }
    }
}

/// How the run terminated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecStatus {
    /// All threads exited normally.
    Completed,
    /// The device raised a detected unrecoverable error.
    Due(DueKind),
}

impl ExecStatus {
    /// True when the run completed without a detected error.
    pub fn completed(self) -> bool {
        matches!(self, ExecStatus::Completed)
    }
}

/// Dynamic instruction counts collected during execution.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Total dynamic instructions (thread-instructions; warp-wide MMA
    /// counts once per warp).
    pub total: u64,
    /// Per functional-unit kind (dense-indexed by
    /// [`FunctionalUnit::index`]).
    pub per_unit: [u64; FunctionalUnit::COUNT],
    /// Per Figure-1 mix category.
    pub per_mix: [u64; MixCategory::COUNT],
    /// Serial latency sum per warp (global warp index), in cycles.
    pub warp_latency: Vec<u64>,
    /// Dynamic instructions per warp.
    pub warp_instrs: Vec<u64>,
    /// Populations of the injectable site classes (instructions that
    /// executed with their guard passing), used by injectors to sample
    /// `nth` uniformly.
    pub sites: SiteCounts,
}

/// Counts of dynamic instructions per injectable site class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteCounts {
    /// Instructions that wrote a general-purpose register.
    pub gpr_writers: u64,
    /// GPR writers excluding binary16 arithmetic (NVBitFI's view).
    pub gpr_writers_no_half: u64,
    /// Load instructions (global + shared).
    pub loads: u64,
    /// All memory instructions (loads + stores), the `MemAddress` space.
    pub mem_ops: u64,
    /// Predicate-writing instructions (`SETP` family).
    pub setp: u64,
}

impl Counts {
    /// Add what golden run `fin` retired after `at`: the scalar counts,
    /// and the per-warp counts of warps `from` on (`at`'s per-warp
    /// counts read as zero where it has none).
    fn add_suffix(&mut self, fin: &Counts, at: &Counts, from: usize) {
        self.total += fin.total - at.total;
        for (c, (f, a)) in self.per_unit.iter_mut().zip(fin.per_unit.iter().zip(&at.per_unit)) {
            *c += f - a;
        }
        for (c, (f, a)) in self.per_mix.iter_mut().zip(fin.per_mix.iter().zip(&at.per_mix)) {
            *c += f - a;
        }
        let (s, f, a) = (&mut self.sites, &fin.sites, &at.sites);
        s.gpr_writers += f.gpr_writers - a.gpr_writers;
        s.gpr_writers_no_half += f.gpr_writers_no_half - a.gpr_writers_no_half;
        s.loads += f.loads - a.loads;
        s.mem_ops += f.mem_ops - a.mem_ops;
        s.setp += f.setp - a.setp;
        for (mine, fin, at) in [
            (&mut self.warp_latency, &fin.warp_latency, &at.warp_latency),
            (&mut self.warp_instrs, &fin.warp_instrs, &at.warp_instrs),
        ] {
            for (w, c) in mine.iter_mut().enumerate().skip(from) {
                *c += fin[w] - at.get(w).copied().unwrap_or(0);
            }
        }
    }

    /// How many sites of `class` the run offers a fault plan: the
    /// population an injector samples `nth` from. For the arithmetic
    /// classes and [`SiteClass::Unit`] it counts every instruction of
    /// their units.
    pub fn population(&self, class: SiteClass) -> u64 {
        let units = |us: &[FunctionalUnit]| us.iter().map(|&u| self.unit(u)).sum();
        match class {
            SiteClass::GprWriter => self.sites.gpr_writers,
            SiteClass::GprWriterNoHalf => self.sites.gpr_writers_no_half,
            SiteClass::FloatArith => units(&FP32_ARITH_UNITS) + units(&FP64_ARITH_UNITS),
            SiteClass::HalfArith => units(&HALF_ARITH_UNITS),
            SiteClass::IntArith => units(&INT_ARITH_UNITS),
            SiteClass::Load => self.sites.loads,
            SiteClass::Unit(u) => self.unit(u),
        }
    }

    /// Dynamic count for one unit kind.
    pub fn unit(&self, u: FunctionalUnit) -> u64 {
        self.per_unit[u.index()]
    }

    /// Dynamic count for one mix category.
    pub fn mix(&self, m: MixCategory) -> u64 {
        self.per_mix[m.index()]
    }

    /// Fraction of dynamic instructions in each mix category (Figure 1
    /// bars). `NaN`s when nothing executed.
    pub fn mix_fractions(&self) -> [f64; MixCategory::COUNT] {
        let mut out = [f64::NAN; MixCategory::COUNT];
        if self.total > 0 {
            for (i, c) in self.per_mix.iter().enumerate() {
                out[i] = *c as f64 / self.total as f64;
            }
        }
        out
    }
}

/// Per-site provenance recorded during a golden run (see
/// [`RunOptions::record_sites`]).
///
/// `site_pcs[n]` is the static pc of the `n`-th dynamic GPR-writer site —
/// the same enumeration `FaultPlan::InstructionOutput { nth, .. }`
/// samples, so `site_pcs[nth]` (after filtering by the plan's
/// [`SiteClass`](crate::SiteClass)) tells a pruner which *instruction* a
/// planned corruption would land on. Warp-level MMA/SHFL sites appear
/// once per warp, matching their single `gpr_writers` tick.
///
/// `block_windows[b]` is the half-open `[start, end)` range of global
/// dynamic instruction indices during which linear block `b` was resident
/// (blocks execute sequentially), locating time-triggered register-file
/// strikes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SitesRecord {
    /// Static pc of each dynamic GPR-writer site, in execution order.
    pub site_pcs: Vec<u32>,
    /// Per linear block: `[start, end)` window of dynamic indices.
    pub block_windows: Vec<(u64, u64)>,
    /// Static pc of each dynamic memory-op site (`MemAddress` faults
    /// count these), in execution order.
    pub mem_pcs: Vec<u32>,
    /// Static pc of each dynamic predicate-writer site
    /// (`PredicateOutput` faults count these), in execution order.
    pub setp_pcs: Vec<u32>,
}

/// The result of one execution.
#[derive(Clone, Debug)]
pub struct Executed {
    /// Termination status.
    pub status: ExecStatus,
    /// Final global memory (the workload's outputs live here).
    pub memory: GlobalMemory,
    /// Dynamic instruction statistics.
    pub counts: Counts,
    /// Scheduler rounds this run executed: rounds in which some warp of
    /// the resident block had a running lane, counted from where the run
    /// started (a resumed run does not count the snapshot's prefix, and
    /// an early exit does not count the skipped rest). A lone warp that
    /// takes several turns back to back takes one round per turn, so the
    /// instructions the run executed divided by this is the mean a round
    /// retired.
    pub rounds: u64,
    /// Analytic timing (cycles, IPC, achieved occupancy, wall time).
    pub timing: TimingReport,
    /// Whether the fault plan's trigger point was actually reached.
    pub fault_triggered: bool,
    /// Site provenance, present iff [`RunOptions::record_sites`] was set.
    pub sites_record: Option<SitesRecord>,
    /// Engine snapshots captured at [`RunOptions::snapshot_stride`]
    /// intervals, empty unless capture was enabled. Trials fast-forward by
    /// resuming from the latest one that precedes their fault plan, the
    /// `k`-th for `k` the first field of [`crate::trigger_position`].
    pub snapshots: Vec<Arc<EngineSnapshot>>,
    /// The exit table of a completed run that captured snapshots; trials
    /// end early through it (see [`RunOptions::exit_from`]).
    pub exit_table: Option<Arc<ExitTable>>,
    /// Where and how a trial ended early through
    /// [`RunOptions::exit_from`]; `None` when it ran to the end.
    pub exit: Option<BlockExit>,
    /// The state a later trial may resume from, when
    /// [`RunOptions::hand_off`] asked for one and the run reached it.
    pub handoff: Option<Arc<EngineSnapshot>>,
}

/// Where a trial ended early: the rest of its run after block `block`
/// (a block exit) or from a point inside it (a rejoin) was not run, and
/// its `skipped_instrs` dynamic instructions came from the golden run.
/// [`Executed::counts`] includes them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockExit {
    /// Linear index of the last block that ran, in part for a rejoin.
    pub block: u32,
    /// Dynamic instructions of the part of the run that did not run.
    pub skipped_instrs: u64,
    /// How the trial ended.
    pub kind: ExitKind,
}

/// The two ways a trial ends early through [`RunOptions::exit_from`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitKind {
    /// At a block boundary, through the golden run's exit table.
    Block,
    /// Inside a block, at a golden snapshot whose state the trial's
    /// equals on everything the rest of the run can read.
    Rejoin,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TState {
    Running,
    AtBarrier,
    Exited,
}

/// A thread's architectural state as stored inside an [`EngineSnapshot`],
/// apart from its registers, which the snapshot keeps in one vector:
/// predicates, pc and scheduler state.
#[derive(Clone, Debug)]
pub(crate) struct ThreadState {
    /// Predicate register bits.
    pub(crate) preds: u8,
    /// Program counter.
    pub(crate) pc: u32,
    pub(crate) state: TState,
}

struct Thread {
    /// The register file, [`Ctx::reg_file`] registers long.
    regs: Box<[u32]>,
    preds: u8,
    pc: u32,
    state: TState,
    tid_x: u32,
    tid_y: u32,
}

impl Thread {
    /// This thread's state, its registers appended to `regs`.
    fn to_state(&self, regs: &mut Vec<u32>) -> ThreadState {
        regs.extend_from_slice(&self.regs);
        ThreadState { preds: self.preds, pc: self.pc, state: self.state }
    }

    /// Whether the rest of the run reads the same from this thread as
    /// from `st`, whose registers are `regs`: the same scheduler state, pc
    /// and predicates, and, unless the thread has exited, the same value
    /// in every register in `live` (`None`: a pc past the kernel's end,
    /// which never matches).
    fn same_as(&self, st: &ThreadState, regs: &[u32], live: Option<&[u32; 8]>) -> bool {
        if self.pc != st.pc || self.preds != st.preds || self.state != st.state {
            return false;
        }
        if self.state == TState::Exited {
            return true;
        }
        let Some(live) = live else { return false };
        live.iter().enumerate().all(|(w, &bits)| {
            let mut bits = bits;
            while bits != 0 {
                let r = w * 32 + bits.trailing_zeros() as usize;
                let reg = |regs: &[u32]| regs.get(r).copied().unwrap_or(0);
                if reg(&self.regs) != reg(regs) {
                    return false;
                }
                bits &= bits - 1;
            }
            true
        })
    }

    /// Thread `t` restored from `st`, whose registers are `regs`.
    fn from_state(st: &ThreadState, regs: &[u32], t: u32, block_x: u32) -> Thread {
        Thread {
            regs: regs.into(),
            preds: st.preds,
            pc: st.pc,
            state: st.state,
            tid_x: t % block_x,
            tid_y: t / block_x,
        }
    }

    fn set_reg(&mut self, r: Reg, v: u32) {
        if !r.is_rz() {
            self.regs[r.0 as usize] = v;
        }
    }

    fn pred(&self, p: gpu_arch::Pred) -> bool {
        if p.is_pt() {
            true
        } else {
            self.preds & (1 << p.0) != 0
        }
    }

    fn set_pred(&mut self, p: gpu_arch::Pred, v: bool) {
        if !p.is_pt() {
            if v {
                self.preds |= 1 << p.0;
            } else {
                self.preds &= !(1 << p.0);
            }
        }
    }
}

/// Snapshot-capture state, present only when
/// [`RunOptions::snapshot_stride`] is nonzero.
struct Capture {
    /// Current stride (doubles when the cap compacts).
    stride: u64,
    /// Next dynamic-instruction count at which to capture.
    next_due: u64,
    snapshots: Vec<Arc<EngineSnapshot>>,
    /// The exit table under construction; `None` for grids too large
    /// for its block tags.
    exit: Option<ExitRecorder>,
}

struct Ctx<'a> {
    kernel: &'a Kernel,
    /// Registers in each thread's file (see [`reg_file_len`]).
    reg_file: usize,
    launch: &'a LaunchConfig,
    opts: &'a RunOptions,
    global: GlobalMemory,
    counts: Counts,
    dyn_count: u64,
    /// Scheduler rounds run so far (see [`Executed::rounds`]).
    rounds: u64,
    /// Guard-passing sites per class so far, which the output hook counts
    /// its `nth` in; the memory and predicate hooks count theirs in
    /// `counts.sites`.
    tallies: ClassTallies,
    fault_triggered: bool,
    /// One-shot latch for hidden-resource faults: set when the plan's
    /// corruption first fires, so transient plans apply exactly once and
    /// stuck-at plans emit a single trace event.
    hidden_fired: bool,
    current_block: u32,
    record: Option<SitesRecord>,
    cap: Option<Capture>,
    /// The dynamic count the run started from while a hand-off is still
    /// to come (see [`hand_off`]).
    handoff_from: Option<u64>,
    handoff: Option<Arc<EngineSnapshot>>,
    /// Armed when a spent trial may rejoin its golden run.
    rejoin: Option<Rejoin<'a>>,
    sink: Option<&'a mut (dyn TraceSink + 'a)>,
}

/// Where a trial stands against its golden run's snapshots, for the
/// round-top rejoin check (see [`rejoin_here`]).
struct Rejoin<'a> {
    golden: &'a Executed,
    table: &'a ExitTable,
    /// Index of the first golden snapshot not yet behind the trial.
    next: usize,
    /// The thread that differed at the last comparison, tried first.
    last_diff: usize,
}

impl<'a> Rejoin<'a> {
    /// The golden snapshot taken at `here` (block and dynamic count), if
    /// there is one, moving the cursor past every one before it.
    fn snapshot_at(&mut self, here: (u32, u64)) -> Option<&'a EngineSnapshot> {
        let snaps = &self.golden.snapshots;
        while snaps.get(self.next).is_some_and(|s| (s.block, s.dyn_count) < here) {
            self.next += 1;
        }
        snaps.get(self.next).map(|s| &**s).filter(|s| (s.block, s.dyn_count) == here)
    }
}

/// Execute `kernel` on `device` with the given launch, memory image and
/// options.
///
/// # Panics
/// Panics on every setup failure [`try_run_with_sink`] reports as a
/// [`SimError`] (callers construct kernels through the validating
/// builder).
pub fn run(
    device: &DeviceModel,
    kernel: &Kernel,
    launch: &LaunchConfig,
    memory: GlobalMemory,
    opts: &RunOptions,
) -> Executed {
    run_with_sink(device, kernel, launch, memory, opts, None)
}

/// [`run`] with an optional trace sink receiving the engine's hook-point
/// events (instruction retired, memory access, fault injected, DUE
/// raised, barrier and branch events).
///
/// Event `idx` fields carry the global dynamic instruction number — the
/// coordinate system [`FaultPlan`] sites use — so traces align with
/// injection plans. Event content is a pure function of the run: two
/// identical invocations produce identical event streams.
pub fn run_with_sink<'a>(
    device: &DeviceModel,
    kernel: &'a Kernel,
    launch: &'a LaunchConfig,
    memory: GlobalMemory,
    opts: &'a RunOptions,
    sink: Option<&'a mut (dyn TraceSink + 'a)>,
) -> Executed {
    match try_run_with_sink(device, kernel, launch, memory, opts, sink) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// [`run_with_sink`] with setup failures surfaced as values: a zero-thread
/// launch or a kernel that fails validation returns a [`SimError`] instead
/// of panicking, so campaign harnesses can quarantine a bad target rather
/// than abort.
///
/// # Errors
/// [`SimError::EmptyLaunch`], [`SimError::InvalidKernel`],
/// [`SimError::PartialWarpMma`] or [`SimError::ResumeConflict`]; device
/// failures during execution are outcomes ([`ExecStatus::Due`]), never
/// errors.
pub fn try_run_with_sink<'a>(
    device: &DeviceModel,
    kernel: &'a Kernel,
    launch: &'a LaunchConfig,
    memory: GlobalMemory,
    opts: &'a RunOptions,
    sink: Option<&'a mut (dyn TraceSink + 'a)>,
) -> Result<Executed, SimError> {
    if launch.total_threads() == 0 {
        return Err(SimError::EmptyLaunch);
    }
    kernel.validate().map_err(SimError::InvalidKernel)?;
    let block_threads = launch.block.count();
    if !block_threads.is_multiple_of(WARP_SIZE as u64)
        && kernel.instrs.iter().any(|i| i.op.is_mma())
    {
        return Err(SimError::PartialWarpMma { block_threads });
    }
    let geometry = Geometry::of(kernel, launch, memory.len());
    if opts.hand_off && opts.snapshot_stride != 0 {
        return Err(SimError::ResumeConflict(
            "cannot hand off state during a capturing run".to_string(),
        ));
    }
    if let Some(snap) = opts.resume_from.as_deref() {
        if opts.record_sites {
            return Err(SimError::ResumeConflict(
                "cannot record sites during a resumed run (the skipped prefix's sites \
                 would be missing)"
                    .to_string(),
            ));
        }
        if opts.snapshot_stride != 0 {
            return Err(SimError::ResumeConflict(
                "cannot capture snapshots during a resumed run".to_string(),
            ));
        }
        snap.geometry.check("snapshot", &geometry).map_err(SimError::ResumeConflict)?;
        if !snap.precedes(&opts.fault) {
            return Err(SimError::ResumeConflict(
                "fault plan's trigger precedes the snapshot capture point".to_string(),
            ));
        }
    }

    // The golden data a trial may exit through, when it is allowed to.
    let exit = match opts.exit_from.as_deref() {
        None => None,
        Some(golden) => {
            let table = golden.exit_table.as_deref().ok_or_else(|| {
                SimError::ResumeConflict("exit golden run carries no exit table".to_string())
            })?;
            table.check_geometry(&geometry).map_err(SimError::ResumeConflict)?;
            let allowed = sink.is_none()
                && !opts.record_sites
                && opts.snapshot_stride == 0
                && opts.fault.fires_once();
            allowed.then_some((golden, table))
        }
    };

    // Decode once per launch: the hot loop below only does table lookups
    // over the per-pc `InstrMeta`, never re-classifying opcodes. Phase
    // events bracket it so span traces can attribute setup time.
    let mut sink = sink;
    if let Some(s) = sink.as_deref_mut() {
        s.event(&TraceEvent::PhaseBegin { idx: 0, phase: "decode" });
    }
    let metas: Vec<InstrMeta> = kernel.instrs.iter().map(InstrMeta::new).collect();
    if let Some(s) = sink.as_deref_mut() {
        s.event(&TraceEvent::PhaseEnd { idx: 0, phase: "decode" });
    }

    let warps_per_block = launch.warps_per_block() as usize;
    let total_warps = warps_per_block * launch.grid.count() as usize;
    let cap = (opts.snapshot_stride > 0).then(|| Capture {
        stride: opts.snapshot_stride,
        next_due: opts.snapshot_stride,
        snapshots: Vec::new(),
        exit: ExitRecorder::new(kernel, &memory, launch.grid.count()),
    });
    let reg_file = reg_file_len(kernel);
    let mut ctx = Ctx {
        kernel,
        reg_file,
        launch,
        opts,
        global: memory,
        counts: Counts {
            warp_latency: vec![0; total_warps],
            warp_instrs: vec![0; total_warps],
            ..Counts::default()
        },
        dyn_count: 0,
        rounds: 0,
        tallies: ClassTallies::default(),
        fault_triggered: false,
        hidden_fired: false,
        current_block: 0,
        record: opts.record_sites.then(SitesRecord::default),
        // A rejoin ends the run at the golden total, so it needs room.
        rejoin: exit
            .filter(|(golden, _)| golden.counts.total <= opts.watchdog_limit)
            .map(|(golden, table)| Rejoin { golden, table, next: 0, last_diff: 0 }),
        cap,
        handoff_from: opts.hand_off.then(|| opts.resume_from.as_ref().map_or(0, |s| s.dyn_count)),
        handoff: None,
        sink,
    };

    // A trial that may exit keeps the image it started from: the exit
    // reads golden values of words before their first write from it.
    let mut input = None;
    let resume = opts.resume_from.as_deref();
    if let Some(snap) = resume {
        // Seed the context with the golden run's state at the capture
        // point: the trial's fault-free prefix is bit-identical to the
        // golden run, so this is exactly the state a from-zero execution
        // would have reached. The site counts the fault hooks number
        // their `nth` in come with it, keeping site numbering global
        // (relative to instruction 0, not the resume offset).
        ctx.dyn_count = snap.dyn_count;
        ctx.counts = snap.counts.clone();
        ctx.tallies = snap.tallies.clone();
        let image = std::mem::replace(&mut ctx.global, snap.global.clone());
        input = exit.map(|_| image);
    } else if exit.is_some() {
        input = Some(ctx.global.clone());
    }

    let mut status = ExecStatus::Completed;
    let mut exited = None;
    'blocks: for by in 0..launch.grid.y {
        for bx in 0..launch.grid.x {
            let block_linear = by * launch.grid.x + bx;
            if resume.is_some_and(|s| block_linear < s.block) {
                continue; // completed inside the snapshot's prefix
            }
            let init = resume.filter(|s| s.block == block_linear);
            ctx.current_block = block_linear;
            let window_start = ctx.dyn_count;
            emit!(ctx, TraceEvent::PhaseBegin { idx: window_start, phase: "block" });
            let result = run_block(&mut ctx, &metas, bx, by, block_linear, init);
            emit!(ctx, TraceEvent::PhaseEnd { idx: ctx.dyn_count, phase: "block" });
            if let Some(rec) = ctx.record.as_mut() {
                rec.block_windows.push((window_start, ctx.dyn_count));
            }
            match result {
                Err(due) => {
                    status = ExecStatus::Due(due);
                    break 'blocks;
                }
                Ok(Some(rejoined)) => {
                    exited = Some(rejoined);
                    break 'blocks;
                }
                Ok(None) => {}
            }
            if let Some(rec) = ctx.cap.as_mut().and_then(|c| c.exit.as_mut()) {
                rec.end_block(&ctx.counts);
            }
            // A spent plan: try to end the run here.
            if let (Some((golden, table)), Some(input)) = (exit, &input) {
                if ctx.fault_triggered && u64::from(block_linear) + 1 < launch.grid.count() {
                    exited = exit_after(&mut ctx, golden, table, input, block_linear);
                    if exited.is_some() {
                        break 'blocks;
                    }
                }
            }
        }
    }

    // End-of-kernel ECC sweep over memory that was struck but never read.
    if status == ExecStatus::Completed {
        emit!(ctx, TraceEvent::PhaseBegin { idx: ctx.dyn_count, phase: "ecc-scrub" });
        if ctx.global.scrub(opts.ecc) {
            status = ExecStatus::Due(DueKind::EccDoubleBit);
        }
        emit!(ctx, TraceEvent::PhaseEnd { idx: ctx.dyn_count, phase: "ecc-scrub" });
    }

    if let ExecStatus::Due(kind) = status {
        emit!(ctx, TraceEvent::DueRaised { idx: ctx.dyn_count, kind: kind.name() });
    }

    let timing = timing::analyze(device, kernel, launch, &ctx.counts);
    let (snapshots, exit_table) = match ctx.cap {
        Some(cap) => {
            let table = cap.exit.filter(|_| status.completed()).map(|r| r.finish(geometry));
            (cap.snapshots, table.map(Arc::new))
        }
        None => (Vec::new(), None),
    };
    Ok(Executed {
        status,
        memory: ctx.global,
        counts: ctx.counts,
        rounds: ctx.rounds,
        timing,
        fault_triggered: ctx.fault_triggered,
        sites_record: ctx.record,
        snapshots,
        exit_table,
        exit: exited,
        handoff: ctx.handoff,
    })
}

/// How many registers each thread's file holds: one past the highest
/// register an instruction of `kernel` reads or writes, the high halves
/// of pairs and MMA fragments included. No instruction touches a register
/// past it, so one that a strike flips there is masked.
fn reg_file_len(kernel: &Kernel) -> usize {
    let fragments = kernel.instrs.iter().filter(|i| i.op.is_mma()).flat_map(|i| {
        let c = if i.op == Op::Hmma { 4 } else { 8 };
        [(i.srcs[0], 4), (i.srcs[1], 4), (i.srcs[2], c)]
            .into_iter()
            .filter_map(|(src, n)| src.reg().map(|r| usize::from(r.0) + n))
    });
    fragments.fold(usize::from(kernel.max_reg_used()), usize::max).clamp(1, 256)
}

/// End a spent trial after block `block` if the rest of its run is
/// provably golden (see [`ExitTable`]): the watchdog would not trip in
/// the skipped blocks and none of them reads a word where the trial
/// differs from golden. Then memory and counts become what running those
/// blocks would have left.
fn exit_after(
    ctx: &mut Ctx<'_>,
    golden: &Executed,
    table: &ExitTable,
    input: &GlobalMemory,
    block: u32,
) -> Option<BlockExit> {
    let at = table.boundary(block);
    let skipped = golden.counts.total - at.total;
    if ctx.dyn_count.saturating_add(skipped) > ctx.opts.watchdog_limit
        || !table.exit_memory(block, &mut ctx.global, &golden.memory, input)
    {
        return None;
    }
    Some(finish_from(ctx, golden, at, block, ExitKind::Block))
}

/// End the trial in block `block` as if it ran on from a point where
/// golden had counts `at`: add what golden retired from there to the end,
/// for the scalar counts and for the warps that can still change. Those
/// are the later blocks' after a block exit, and also this block's after
/// a rejoin; per-warp counts missing from `at` read as zero.
fn finish_from(
    ctx: &mut Ctx<'_>,
    golden: &Executed,
    at: &Counts,
    block: u32,
    kind: ExitKind,
) -> BlockExit {
    let skipped = golden.counts.total - at.total;
    ctx.dyn_count += skipped;
    let first_block = match kind {
        ExitKind::Block => block + 1,
        ExitKind::Rejoin => block,
    };
    let from = first_block as usize * ctx.launch.warps_per_block() as usize;
    ctx.counts.add_suffix(&golden.counts, at, from);
    BlockExit { block, skipped_instrs: skipped, kind }
}

/// At a scheduler round top of block `block`: if the spent trial's state
/// equals that of the golden snapshot taken at this same point (block and
/// dynamic count) on everything the rest of the run can read, the rest of
/// the run is golden's, so end the trial here with golden final memory.
///
/// Compared: shared and global memory with their latent corruption, then
/// per thread the scheduler state, pc, predicates and, unless the thread
/// has exited, the registers live at its pc (see [`ExitTable`]). The
/// snapshots are walked with a cursor, and the thread that differed last
/// time is tried first, so trials that never rejoin pay little. Kept out
/// of line: inlined into `run_block`, the interpreter loop read 1-3%
/// slower on perfbench's avf_mxm and avf_hotspot_pruned (2-vCPU x86-64
/// VM).
#[inline(never)]
fn rejoin_here(
    ctx: &mut Ctx<'_>,
    block: u32,
    threads: &[Thread],
    shared: &SharedMemory,
) -> Option<BlockExit> {
    let rj = ctx.rejoin.as_mut()?;
    let (golden, table) = (rj.golden, rj.table);
    let snap = rj.snapshot_at((block, ctx.dyn_count))?;
    if *shared != snap.shared || ctx.global != snap.global {
        return None;
    }
    let same = |t: usize| {
        threads[t].same_as(&snap.threads[t], snap.thread_regs(t), table.live_regs(threads[t].pc))
    };
    let first = rj.last_diff;
    if let Some(t) =
        std::iter::once(first).chain((0..threads.len()).filter(|&t| t != first)).find(|&t| !same(t))
    {
        rj.last_diff = t;
        return None;
    }
    ctx.global.adopt(&golden.memory);
    Some(finish_from(ctx, golden, &snap.counts, block, ExitKind::Rejoin))
}

/// Capture an [`EngineSnapshot`] of the current state (called at a
/// block-round boundary, so `threads`/`shared` are between instructions).
/// Past [`SNAPSHOT_CAP`] snapshots, drops every other one and doubles the
/// stride.
fn capture_snapshot(
    ctx: &mut Ctx<'_>,
    block_linear: u32,
    threads: &[Thread],
    shared: &SharedMemory,
) {
    let snap = Arc::new(snapshot_here(ctx, block_linear, threads, shared));
    let Some(cap) = ctx.cap.as_mut() else { return };
    cap.snapshots.push(snap);
    if cap.snapshots.len() > SNAPSHOT_CAP {
        let mut idx = 0usize;
        cap.snapshots.retain(|_| {
            idx += 1;
            idx.is_multiple_of(2)
        });
        cap.stride = cap.stride.saturating_mul(2);
    }
    cap.next_due = ctx.dyn_count.saturating_add(cap.stride);
}

/// The current state as an [`EngineSnapshot`].
fn snapshot_here(
    ctx: &Ctx<'_>,
    block_linear: u32,
    threads: &[Thread],
    shared: &SharedMemory,
) -> EngineSnapshot {
    let mut regs = Vec::with_capacity(threads.len() * ctx.reg_file);
    let threads = threads.iter().map(|t| t.to_state(&mut regs)).collect();
    EngineSnapshot {
        dyn_count: ctx.dyn_count,
        counts: ctx.counts.clone(),
        tallies: ctx.tallies.clone(),
        global: ctx.global.clone(),
        block: block_linear,
        threads,
        regs,
        shared: shared.clone(),
        geometry: Geometry::of(ctx.kernel, ctx.launch, ctx.global.len()),
    }
}

/// At a scheduler round top of a trial asked for a hand-off: once the
/// plan's trigger is within this round, capture the state into
/// [`Executed::handoff`] and ask for nothing more.
///
/// Within a round every running lane retires at most one instruction,
/// and each instruction ticks a trigger counter at most once. So while
/// the counter plus the running lanes stays at or below the trigger, the
/// plan cannot fire before the next round top, and the first round top
/// past that is the last one known to precede the fault. The snapshot is
/// taken there, before the hidden round tick, like a golden capture; a
/// state no further on than where the run started is not handed off.
#[inline(never)]
fn hand_off(
    ctx: &mut Ctx<'_>,
    block_linear: u32,
    threads: &[Thread],
    shared: &SharedMemory,
    running_lanes: u64,
) {
    // How many more ticks the trigger counter needs; `None` when the plan
    // has no trigger or is already past it, and nothing is handed off.
    let gap = trigger_counter(
        &ctx.opts.fault,
        |c| ctx.tallies.class_matches(c),
        &ctx.counts.sites,
        ctx.dyn_count,
    )
    .and_then(|(counter, trigger)| trigger.checked_sub(counter));
    if let Some(gap) = gap {
        if gap >= running_lanes {
            return;
        }
    }
    let past_start = ctx.handoff_from.is_some_and(|from| ctx.dyn_count > from);
    if gap.is_some() && past_start && !ctx.fault_triggered {
        ctx.handoff = Some(Arc::new(snapshot_here(ctx, block_linear, threads, shared)));
    }
    ctx.handoff_from = None;
}

fn run_block(
    ctx: &mut Ctx<'_>,
    metas: &[InstrMeta],
    bx: u32,
    by: u32,
    block_linear: u32,
    init: Option<&EngineSnapshot>,
) -> Result<Option<BlockExit>, DueKind> {
    let block = ctx.launch.block;
    let nthreads = block.count() as usize;
    let (mut shared, mut threads): (SharedMemory, Vec<Thread>) = match init {
        // Resume: restore the snapshot's mid-block state. The capture
        // point was the top of this scheduler loop, so starting the loop
        // over the restored state continues the run exactly.
        Some(snap) => (
            snap.shared.clone(),
            snap.threads
                .iter()
                .enumerate()
                .map(|(t, st)| Thread::from_state(st, snap.thread_regs(t), t as u32, block.x))
                .collect(),
        ),
        None => (
            SharedMemory::new(ctx.kernel.shared_bytes),
            (0..nthreads)
                .map(|t| Thread {
                    regs: vec![0; ctx.reg_file].into_boxed_slice(),
                    preds: 0,
                    pc: 0,
                    state: TState::Running,
                    tid_x: t as u32 % block.x,
                    tid_y: t as u32 / block.x,
                })
                .collect(),
        ),
    };

    let nwarps = nthreads.div_ceil(WARP_SIZE as usize);
    let warps_per_block = ctx.launch.warps_per_block() as usize;
    let mut running = Running::new(&threads, nwarps);
    // A fetch fault rewrites one lane's pc just before that lane fetches,
    // so under a fetch plan every lane issues on its own.
    let lane_fetch = matches!(ctx.opts.fault, FaultPlan::Fetch { .. });

    loop {
        if ctx.cap.as_ref().is_some_and(|cap| ctx.dyn_count >= cap.next_due) {
            capture_snapshot(ctx, block_linear, &threads, &shared);
        } else if ctx.handoff_from.is_some() {
            hand_off(ctx, block_linear, &threads, &shared, running.lanes());
        }
        if ctx.fault_triggered {
            if let Some(rejoined) = rejoin_here(ctx, block_linear, &threads, &shared) {
                return Ok(Some(rejoined));
            }
        }
        // Hidden scheduler/mask faults fire at round boundaries — which
        // snapshot capture points also are, so from-zero and resumed
        // executions fire at the same instant.
        let round = hidden_round_tick(ctx, &mut threads, &mut running);
        if running.live == 0 {
            return Ok(None);
        }
        ctx.rounds += 1;
        let mut progress = false;
        let mut starved = false;

        for w in 0..nwarps {
            if running.masks[w] == 0 {
                continue;
            }
            if round.skip == Some(w) {
                // The scheduler passes this warp over. A transient
                // priority glitch still counts as scheduler progress (the
                // warp runs next round); a stuck entry starves the warp —
                // if nothing else can proceed, that is a scheduler stall,
                // not a barrier deadlock.
                if round.stuck {
                    starved = true;
                } else {
                    progress = true;
                }
                continue;
            }
            let at = WarpPos {
                bx,
                by,
                block: block_linear,
                in_block: w as u32,
                global: block_linear as usize * warps_per_block + w,
            };
            loop {
                let retired =
                    turn(ctx, metas, &mut threads, &mut shared, &mut running, at, lane_fetch)?;
                progress |= retired;
                // A lone warp whose turn retired an instruction takes its
                // turn in the next round at once: the rest of this round
                // skips every other warp and releases no barrier, and the
                // next round's top does nothing unless a round-top event
                // is due (DESIGN.md §16, "Straggler rounds").
                let lone = retired && running.live == 1 && running.masks[w] != 0;
                if !lone || !round_top_idle(ctx, block_linear) {
                    break;
                }
                ctx.rounds += 1;
                progress = false; // the next round's, so far
            }
        }

        // Barrier-counter corruption: armed from the trigger instant on;
        // a transient fault perturbs the first barrier episode it
        // reaches, a stuck-at fault perturbs every one.
        let barrier_fault = match ctx.opts.fault {
            FaultPlan::BarrierCounter { at, phantom, persist } if ctx.dyn_count >= at => {
                match persist {
                    Persistence::Transient if ctx.hidden_fired => None,
                    _ => Some(phantom),
                }
            }
            _ => None,
        };

        // Barrier release: no lane running, so every live thread waits.
        if running.live == 0 {
            if barrier_fault == Some(false) {
                // Lost arrival: the counter is short one and never
                // reaches zero — the barrier hangs.
                hidden_fault_fired(ctx, ctx.dyn_count, 0);
                return Err(DueKind::BarrierDeadlock);
            }
            release_barrier(ctx, &mut threads, &mut running, block_linear);
            progress = true;
        } else if barrier_fault == Some(true)
            && threads.iter().any(|t| t.state == TState::AtBarrier)
        {
            // Phantom arrival: the counter hits zero early and releases
            // the lanes already waiting while stragglers are still on
            // their way (they will gather at the barrier again and the
            // regular release picks them up — skewed, not hung).
            hidden_fault_fired(ctx, ctx.dyn_count, 1);
            release_barrier(ctx, &mut threads, &mut running, block_linear);
            progress = true;
        }

        if !progress {
            return Err(if starved { DueKind::SchedulerStall } else { DueKind::BarrierDeadlock });
        }
    }
}

/// The running lanes of each warp of the resident block, so a round
/// visits only the warps that have work: bit `i` of `masks[w]` stands for
/// thread `w * WARP_SIZE + i`, and `live` counts the warps with a lane
/// set. A lane's scheduler state changes only in its warp's turn (`BAR`,
/// `EXIT`), at a barrier release and at a hidden active-mask flip, and
/// each of those refolds the warps it touched.
struct Running {
    masks: Vec<u32>,
    live: usize,
}

impl Running {
    fn new(threads: &[Thread], nwarps: usize) -> Running {
        let mut running = Running { masks: vec![0; nwarps], live: 0 };
        for w in 0..nwarps {
            running.refold(threads, w);
        }
        running
    }

    /// Read warp `w`'s running lanes off its threads again.
    fn refold(&mut self, threads: &[Thread], w: usize) {
        let lo = w * WARP_SIZE as usize;
        let hi = (lo + WARP_SIZE as usize).min(threads.len());
        let mask = threads[lo..hi]
            .iter()
            .enumerate()
            .fold(0u32, |m, (i, t)| m | ((t.state == TState::Running) as u32) << i);
        self.live = self.live + usize::from(mask != 0) - usize::from(self.masks[w] != 0);
        self.masks[w] = mask;
    }

    /// How many lanes of the block are running.
    fn lanes(&self) -> u64 {
        self.masks.iter().map(|m| u64::from(m.count_ones())).sum()
    }
}

/// Give warp `at.in_block` one turn: step each lane that was running when
/// the turn began once, in lane order, a run of consecutive lanes at one
/// pc at a time, then refold the warp's running lanes if one of them may
/// have arrived at the barrier or exited. Returns whether an instruction
/// retired: a warp-synchronous op whose lanes have not all arrived
/// retires none.
fn turn(
    ctx: &mut Ctx<'_>,
    metas: &[InstrMeta],
    threads: &mut [Thread],
    shared: &mut SharedMemory,
    running: &mut Running,
    at: WarpPos,
    lane_fetch: bool,
) -> Result<bool, DueKind> {
    // Copy the kernel reference out of `ctx` so instruction borrows are
    // independent of the `&mut ctx` passed to the executors.
    let kernel = ctx.kernel;
    let w = at.in_block as usize;
    let lo = w * WARP_SIZE as usize;
    let hi = (lo + WARP_SIZE as usize).min(threads.len());
    // Bit `i` stands for lane `lo + i`. Only a lane's own step changes its
    // pc or state during the warp's turn, so the lanes still pending keep
    // the pc they had when the turn began.
    let mut pending = running.masks[w];
    let mut retired = false;
    let mut parked = false;
    while pending != 0 {
        let first = lo + pending.trailing_zeros() as usize;
        if lane_fetch {
            hidden_fetch_fault(ctx, threads, first)?;
        }
        let pc = threads[first].pc;
        // The run: the pending lanes from `first` on, up to the first one
        // at another pc.
        let mut run = 0u32;
        while pending != 0 && threads[lo + pending.trailing_zeros() as usize].pc == pc {
            run |= pending & pending.wrapping_neg();
            pending &= pending - 1;
            if lane_fetch {
                break;
            }
        }
        if pc as usize >= kernel.instrs.len() {
            return Err(DueKind::IllegalPc);
        }
        let ins = &kernel.instrs[pc as usize];
        let meta = &metas[pc as usize];

        if meta.is_warp_sync {
            // Warp-synchronous: issues once every lane of the warp is
            // running at this pc. A run over the whole warp is that;
            // otherwise lanes that stepped earlier in this turn may just
            // have arrived, so look at the warp.
            let whole_warp = run == u32::MAX >> (WARP_SIZE as usize - (hi - lo));
            if !whole_warp && !warp_converged_at(&threads[lo..hi], pc)? {
                continue; // the other lanes will catch up
            }
            // One warp instruction: account it once, on the owning warp's
            // slot; its destination write is one site, noted after its
            // output hook has read the count.
            retire(ctx, meta, at.global, u32::MAX, pc)?;
            let warp = &mut threads[lo..hi];
            if meta.is_mma {
                exec_mma(ctx, meta, warp, ins);
            } else {
                exec_shfl(ctx, meta, warp, ins);
            }
            note_gpr_site(ctx, meta, pc, 1);
            for t in warp.iter_mut() {
                t.pc = pc + 1;
            }
            // The whole warp advanced: its turn is over.
            retired = true;
            break;
        }

        // Execute the run in lane order: in bulk when no fault hook can
        // fire inside it and no sink watches, else lane by lane, each
        // lane on its own through the same body.
        if ctx.sink.is_none() && quiet(ctx, meta, run.count_ones() as u64) {
            step::<true>(ctx, ins, meta, threads, run, at, shared)?;
        } else {
            let mut lanes = run;
            while lanes != 0 {
                let lane = lanes & lanes.wrapping_neg();
                lanes &= lanes - 1;
                step::<false>(ctx, ins, meta, threads, lane, at, shared)?;
            }
        }
        parked |= matches!(meta.op, Op::Bar | Op::Exit);
        retired = true;
    }
    if parked {
        running.refold(threads, w);
    }
    Ok(retired)
}

/// Whether the scheduler round top at the current dynamic count has
/// nothing to do but start the round, so a lone warp may take its next
/// turn at once: no snapshot capture is due, no hand-off is pending, no
/// golden snapshot the trial could rejoin sits here, and no hidden
/// scheduler, mask or barrier plan acts here (from its `at` on, until a
/// transient one has fired).
#[inline]
fn round_top_idle(ctx: &mut Ctx<'_>, block: u32) -> bool {
    if ctx.cap.as_ref().is_some_and(|cap| ctx.dyn_count >= cap.next_due)
        || ctx.handoff_from.is_some()
    {
        return false;
    }
    let hidden = match ctx.opts.fault {
        FaultPlan::SchedulerNextPc { at, persist, .. }
        | FaultPlan::SchedulerPriority { at, persist, .. }
        | FaultPlan::ActiveMask { at, persist, .. }
        | FaultPlan::BarrierCounter { at, persist, .. } => {
            ctx.dyn_count >= at && !(persist == Persistence::Transient && ctx.hidden_fired)
        }
        _ => false,
    };
    if hidden {
        return false;
    }
    let here = (block, ctx.dyn_count);
    !(ctx.fault_triggered && ctx.rejoin.as_mut().is_some_and(|rj| rj.snapshot_at(here).is_some()))
}

/// Release every lane waiting at the block barrier, reporting the release
/// when any lane was waiting.
fn release_barrier(
    ctx: &mut Ctx<'_>,
    threads: &mut [Thread],
    running: &mut Running,
    block_linear: u32,
) {
    let mut released: u32 = 0;
    for (i, t) in threads.iter_mut().enumerate() {
        if t.state == TState::AtBarrier {
            t.state = TState::Running;
            running.masks[i / WARP_SIZE as usize] |= 1 << (i % WARP_SIZE as usize);
            released += 1;
        }
    }
    running.live = running.masks.iter().filter(|&&m| m != 0).count();
    if released > 0 {
        emit!(
            ctx,
            TraceEvent::BarrierRelease { idx: ctx.dyn_count, block: block_linear, lanes: released }
        );
    }
}

/// Whether every lane of `warp` is running at `pc`, so a warp-synchronous
/// op there can issue. An exited lane never arrives: the warp deadlocks.
#[cold]
fn warp_converged_at(warp: &[Thread], pc: u32) -> Result<bool, DueKind> {
    if warp.iter().any(|t| t.state == TState::Exited) {
        return Err(DueKind::BarrierDeadlock);
    }
    Ok(warp.iter().all(|t| t.state == TState::Running && t.pc == pc))
}

/// Where an issuing warp sits: its block's grid coordinates and linear
/// index, its index within the block and its global warp index.
#[derive(Clone, Copy)]
struct WarpPos {
    bx: u32,
    by: u32,
    block: u32,
    in_block: u32,
    global: usize,
}

/// Whether the next `n` lanes to retire, all executing the instruction
/// `meta` describes, can do so in bulk: no fault hook can fire at any of
/// them and the watchdog cannot trip. They take the dynamic indices
/// `[start, start + n)`, and tick the site count a fault hook numbers
/// its `nth` in once apiece only when the instruction is in the hook's
/// class.
fn quiet(ctx: &Ctx<'_>, meta: &InstrMeta, n: u64) -> bool {
    let start = ctx.dyn_count;
    let end = start + n;
    if end > ctx.opts.watchdog_limit {
        return false;
    }
    let outside = |target: u64, counter: u64| target < counter || target >= counter + n;
    match ctx.opts.fault {
        // Hidden scheduler, mask and barrier faults fire between rounds,
        // and a fetch fault before a lone lane's fetch (under a fetch
        // plan every run is one lane).
        FaultPlan::None
        | FaultPlan::SchedulerNextPc { .. }
        | FaultPlan::SchedulerPriority { .. }
        | FaultPlan::ActiveMask { .. }
        | FaultPlan::BarrierCounter { .. }
        | FaultPlan::Fetch { .. } => true,
        FaultPlan::InstructionOutput { nth, site, .. }
        | FaultPlan::InstructionOutputSet { nth, site, .. } => {
            !meta.in_class(site) || outside(nth, ctx.tallies.class_matches(site))
        }
        FaultPlan::MemAddress { nth, .. }
        | FaultPlan::MemQueue { nth, persist: Persistence::Transient, .. } => {
            !meta.is_mem_op || outside(nth, ctx.counts.sites.mem_ops)
        }
        FaultPlan::MemQueue { nth, persist: Persistence::StuckAt, .. } => {
            !meta.is_mem_op || ctx.counts.sites.mem_ops + n <= nth
        }
        FaultPlan::PredicateOutput { nth } => {
            !meta.writes_pred || outside(nth, ctx.counts.sites.setp)
        }
        FaultPlan::Pc { at, .. }
        | FaultPlan::RegisterBit { at, .. }
        | FaultPlan::GlobalMemBit { at, .. }
        | FaultPlan::SharedMemBit { at, .. } => outside(at, start),
    }
}

/// Mark the fault plan as triggered and report it to the sink; every
/// fault hook goes through here, so the fault event has one shape. `idx`
/// is the dynamic instruction the corruption lands on. Cold, so the
/// per-instruction fault hooks that call it stay small enough to inline.
#[cold]
fn fault_fired(ctx: &mut Ctx<'_>, idx: u64, detail: u64) {
    ctx.fault_triggered = true;
    emit!(ctx, TraceEvent::FaultInjected { idx, site: ctx.opts.fault.site_label(), detail });
}

/// [`fault_fired`] for hidden-resource plans, latched by
/// `Ctx::hidden_fired`: only the first firing is reported, so a stuck-at
/// plan that re-applies its corruption every round or barrier episode
/// still emits one event. Returns whether this was the first firing.
#[cold]
fn hidden_fault_fired(ctx: &mut Ctx<'_>, idx: u64, detail: u64) -> bool {
    let first = !ctx.hidden_fired;
    if first {
        ctx.hidden_fired = true;
        fault_fired(ctx, idx, detail);
    }
    first
}

/// Per-round effect of a hidden scheduler-priority fault, computed by
/// [`hidden_round_tick`].
#[derive(Clone, Copy, Default)]
struct RoundHidden {
    /// Warp (index within the resident block) the scheduler passes over
    /// this round.
    skip: Option<usize>,
    /// The skip is permanent (stuck-at priority): a block that cannot
    /// progress without the starved warp is a [`DueKind::SchedulerStall`].
    stuck: bool,
}

/// Fire hidden scheduler-entry and active-mask faults at a scheduler-round
/// boundary: the first round whose dynamic counter has reached the plan's
/// `at`, and — for stuck-at persistence — every round after. Snapshot
/// capture points are themselves round boundaries and resumed runs replay
/// rounds identically past them, so from-zero and fast-forwarded trials
/// fire at the same instant.
fn hidden_round_tick(
    ctx: &mut Ctx<'_>,
    threads: &mut [Thread],
    running: &mut Running,
) -> RoundHidden {
    let nthreads = threads.len();
    let nwarps = running.masks.len();
    let warp_span = |warp: u32| {
        let w = warp as usize % nwarps.max(1);
        let lo = w * WARP_SIZE as usize;
        (w, lo, (lo + WARP_SIZE as usize).min(nthreads))
    };
    match ctx.opts.fault {
        FaultPlan::SchedulerNextPc { at, warp, flip, persist } if ctx.dyn_count >= at => {
            let first = hidden_fault_fired(ctx, ctx.dyn_count, flip.mask);
            let (_, lo, hi) = warp_span(warp);
            match persist {
                // The scheduler entry's next-pc field takes one upset.
                Persistence::Transient if first => {
                    for th in &mut threads[lo..hi] {
                        if th.state == TState::Running {
                            th.pc ^= flip.mask as u32;
                        }
                    }
                }
                // Stuck-at-one bits: re-asserted every round.
                Persistence::StuckAt => {
                    for th in &mut threads[lo..hi] {
                        if th.state == TState::Running {
                            th.pc |= flip.mask as u32;
                        }
                    }
                }
                Persistence::Transient => {}
            }
            RoundHidden::default()
        }
        FaultPlan::SchedulerPriority { at, warp, persist } if ctx.dyn_count >= at => {
            let first = hidden_fault_fired(ctx, ctx.dyn_count, warp as u64);
            let (w, _, _) = warp_span(warp);
            match persist {
                Persistence::Transient if first => RoundHidden { skip: Some(w), stuck: false },
                Persistence::StuckAt => RoundHidden { skip: Some(w), stuck: true },
                Persistence::Transient => RoundHidden::default(),
            }
        }
        FaultPlan::ActiveMask { at, warp, flip, persist } if ctx.dyn_count >= at => {
            let first = hidden_fault_fired(ctx, ctx.dyn_count, flip.mask);
            let (w, lo, hi) = warp_span(warp);
            let apply = match persist {
                Persistence::Transient => first,
                Persistence::StuckAt => true,
            };
            if apply {
                for (i, th) in threads[lo..hi].iter_mut().enumerate() {
                    if flip.mask & (1u64 << i) == 0 {
                        continue;
                    }
                    th.state = match (persist, th.state) {
                        // Stuck-at-zero mask bit: the lane is forced off.
                        (Persistence::StuckAt, _) => TState::Exited,
                        // Transient toggle: exited lanes revive at their
                        // final pc, on-lanes drop off.
                        (Persistence::Transient, TState::Exited) => TState::Running,
                        (Persistence::Transient, _) => TState::Exited,
                    };
                }
                running.refold(threads, w);
            }
            RoundHidden::default()
        }
        _ => RoundHidden::default(),
    }
}

/// Fire a hidden fetch/decode fault for the lane about to fetch: the one
/// issuing the dynamic instruction numbered `at` (transient), or every
/// fetch from that instant on (stuck-at). A flipped instruction index
/// that leaves the kernel is detected at decode as a
/// [`DueKind::FetchFault`].
fn hidden_fetch_fault(
    ctx: &mut Ctx<'_>,
    threads: &mut [Thread],
    lane: usize,
) -> Result<(), DueKind> {
    let FaultPlan::Fetch { at, effect, persist } = ctx.opts.fault else {
        return Ok(());
    };
    let fire = match persist {
        Persistence::Transient => ctx.dyn_count == at && !ctx.hidden_fired,
        Persistence::StuckAt => ctx.dyn_count >= at,
    };
    if !fire {
        return Ok(());
    }
    let detail = match effect {
        FetchEffect::StaleReplay => 0,
        FetchEffect::OpcodeFlip(flip) => flip.mask,
    };
    hidden_fault_fired(ctx, ctx.dyn_count, detail);
    let pc = threads[lane].pc;
    match effect {
        FetchEffect::StaleReplay => threads[lane].pc = pc.saturating_sub(1),
        FetchEffect::OpcodeFlip(flip) => {
            let corrupted = pc ^ flip.mask as u32;
            if corrupted as usize >= ctx.kernel.instrs.len() {
                return Err(DueKind::FetchFault);
            }
            threads[lane].pc = corrupted;
        }
    }
    Ok(())
}

/// Number one retired instruction of `global_warp` at `pc`, account it,
/// run the watchdog check and report it to the sink; `lane` is the
/// thread index within the block, or `u32::MAX` for a warp-wide
/// instruction. Returns the global dynamic index the instruction
/// received. A bulk run retires its lanes in [`step`] instead.
#[inline]
fn retire(
    ctx: &mut Ctx<'_>,
    meta: &InstrMeta,
    global_warp: usize,
    lane: u32,
    pc: u32,
) -> Result<u64, DueKind> {
    let idx = ctx.dyn_count;
    ctx.dyn_count += 1;
    account(ctx, meta, global_warp, 1);
    if ctx.dyn_count > ctx.opts.watchdog_limit {
        return Err(DueKind::Watchdog);
    }
    emit!(
        ctx,
        TraceEvent::InstrRetired {
            idx,
            block: ctx.current_block,
            warp: global_warp as u32,
            lane,
            pc,
            op: meta.op.base_name(),
        }
    );
    Ok(idx)
}

/// Add `n` retired instructions of `global_warp` at one pc to the counts.
#[inline]
fn account(ctx: &mut Ctx<'_>, meta: &InstrMeta, global_warp: usize, n: u64) {
    ctx.counts.total += n;
    ctx.counts.per_unit[meta.unit_index as usize] += n;
    ctx.counts.per_mix[meta.mix_index as usize] += n;
    if let Some(slot) = ctx.counts.warp_latency.get_mut(global_warp) {
        // The slot accumulates *lane*-granularity latency; the timing
        // model divides by the warp width to recover the warp's serial
        // chain. Warp-wide MMA's addend is pre-scaled by the warp width.
        *slot += meta.warp_latency_add * n;
    }
    if let Some(slot) = ctx.counts.warp_instrs.get_mut(global_warp) {
        *slot += n;
    }
}

/// Note `n` dynamic GPR-writer sites at `pc`: their population tick,
/// their provenance records and their class tallies. Warp-wide MMA/SHFL
/// sites count here too but do not tick `gpr_writers_no_half` (see
/// [`ClassTallies`]); [`note_sites`] ticks that population for scalar
/// ops.
#[inline(always)]
fn note_gpr_site(ctx: &mut Ctx<'_>, meta: &InstrMeta, pc: u32, n: u64) {
    ctx.counts.sites.gpr_writers += n;
    if let Some(rec) = ctx.record.as_mut() {
        rec.site_pcs.extend(std::iter::repeat_n(pc, n as usize));
    }
    ctx.tallies.note(meta, n);
}

/// Note `n` guard-passing executions of the scalar instruction at `pc`;
/// only guard-passing instructions are injectable. Ticks the site-class
/// populations with their provenance records and class tallies: the
/// counts every positional fault hook numbers its `nth` in, which is why
/// a step notes its sites only after its lanes' hooks have read them.
/// The populations and the injectors' samplers read the same precomputed
/// `InstrMeta` classes (`gpu_arch::decode`), whose decode tests pin the
/// class/unit correspondence exhaustively, so they cannot silently drift
/// apart.
#[inline(always)]
fn note_sites(ctx: &mut Ctx<'_>, meta: &InstrMeta, pc: u32, n: u64) {
    if n == 0 {
        return;
    }
    if meta.writes_gpr() {
        note_gpr_site(ctx, meta, pc, n);
        if meta.in_class(SiteClass::GprWriterNoHalf) {
            ctx.counts.sites.gpr_writers_no_half += n;
        }
    }
    if meta.is_load() {
        ctx.counts.sites.loads += n;
    }
    if meta.is_mem_op {
        ctx.counts.sites.mem_ops += n;
        if let Some(rec) = ctx.record.as_mut() {
            rec.mem_pcs.extend(std::iter::repeat_n(pc, n as usize));
        }
    }
    if meta.writes_pred {
        ctx.counts.sites.setp += n;
        if let Some(rec) = ctx.record.as_mut() {
            rec.setp_pcs.extend(std::iter::repeat_n(pc, n as usize));
        }
    }
}

/// Report a global-memory read that happened, or a write about to land,
/// to the exit table under construction, if this run builds one.
#[inline]
fn note_global(ctx: &mut Ctx<'_>, addr: u32, bytes: u32, write: bool) {
    if let Some(rec) = ctx.cap.as_mut().and_then(|c| c.exit.as_mut()) {
        if write {
            rec.write(addr, bytes, ctx.current_block, &ctx.global);
        } else {
            rec.read(addr, bytes, ctx.current_block);
        }
    }
}

/// Apply time-triggered fault plans (register-file / memory bit strikes,
/// PC corruption) that fire at global instant `at`.
#[allow(clippy::too_many_arguments)]
fn apply_timed_faults(
    ctx: &mut Ctx<'_>,
    threads: &mut [Thread],
    lane: usize,
    block_linear: u32,
    shared: &mut SharedMemory,
    executed_idx: u64,
) -> Result<(), DueKind> {
    match ctx.opts.fault {
        FaultPlan::RegisterBit { block, thread, reg, flip, at } if at == executed_idx => {
            fault_fired(ctx, executed_idx, flip.mask);
            let tgt_block = if block == u32::MAX { block_linear } else { block };
            if tgt_block != block_linear {
                return Ok(()); // target block not resident: masked
            }
            let t = if thread == u32::MAX {
                (at % threads.len() as u64) as usize
            } else {
                thread as usize
            };
            if let Some(th) = threads.get_mut(t) {
                if th.state != TState::Exited {
                    if ctx.opts.ecc {
                        // SECDED on the register file: single-bit flips are
                        // corrected; a double-bit flip raises a DUE.
                        if flip.bits() >= 2 {
                            return Err(DueKind::EccDoubleBit);
                        }
                    } else {
                        let r =
                            (reg as usize).min(254) % ctx.kernel.regs_per_thread.max(1) as usize;
                        if let Some(reg) = th.regs.get_mut(r) {
                            *reg ^= flip.mask as u32;
                        }
                    }
                }
            }
        }
        FaultPlan::GlobalMemBit { byte, bit, at, mbu } if at == executed_idx => {
            fault_fired(ctx, executed_idx, byte as u64);
            ctx.global.strike_bit(byte, bit);
            if mbu {
                ctx.global.strike_bit(byte, (bit + 1) % 32);
            }
        }
        FaultPlan::SharedMemBit { block, byte, bit, at, mbu } if at == executed_idx => {
            fault_fired(ctx, executed_idx, byte as u64);
            let tgt_block = if block == u32::MAX { block_linear } else { block };
            if tgt_block == block_linear {
                shared.strike_bit(byte, bit);
                if mbu {
                    shared.strike_bit(byte, (bit + 1) % 32);
                }
            }
        }
        FaultPlan::Pc { at, flip } if at == executed_idx => {
            fault_fired(ctx, executed_idx, flip.mask);
            let th = &mut threads[lane];
            th.pc ^= flip.mask as u32;
            // Validity is checked at the next fetch.
        }
        _ => {}
    }
    Ok(())
}

/// What an output-level fault does to the produced value.
#[derive(Clone, Copy)]
enum OutputCorruption {
    Flip(BitFlip),
    Set(u64),
}

impl OutputCorruption {
    fn apply32(self, v: u32) -> u32 {
        match self {
            OutputCorruption::Flip(f) => v ^ f.mask as u32,
            OutputCorruption::Set(x) => x as u32,
        }
    }

    fn apply64(self, v: u64) -> u64 {
        match self {
            OutputCorruption::Flip(f) => v ^ f.mask,
            OutputCorruption::Set(x) => x,
        }
    }
}

/// Should an `InstructionOutput`/`InstructionOutputSet` fault fire for
/// this instruction? Returns the corruption if so.
#[inline(always)]
fn output_fault(ctx: &mut Ctx<'_>, meta: &InstrMeta) -> Option<OutputCorruption> {
    let (nth, site, corruption) = match ctx.opts.fault {
        FaultPlan::InstructionOutput { nth, site, flip } => {
            (nth, site, OutputCorruption::Flip(flip))
        }
        FaultPlan::InstructionOutputSet { nth, site, value } => {
            (nth, site, OutputCorruption::Set(value))
        }
        _ => return None,
    };
    if meta.in_class(site) && ctx.tallies.class_matches(site) == nth {
        let detail = match corruption {
            OutputCorruption::Flip(f) => f.mask,
            OutputCorruption::Set(v) => v,
        };
        fault_fired(ctx, ctx.dyn_count - 1, detail);
        return Some(corruption);
    }
    None
}

/// Should a `MemAddress` fault fire for this memory op?
fn addr_fault(ctx: &mut Ctx<'_>) -> Option<BitFlip> {
    match ctx.opts.fault {
        FaultPlan::MemAddress { nth, flip } if ctx.counts.sites.mem_ops == nth => {
            fault_fired(ctx, ctx.dyn_count - 1, flip.mask);
            Some(flip)
        }
        _ => None,
    }
}

/// Should a `MemQueue` fault fire for this memory op? Counts the same
/// dynamic memory-op enumeration [`addr_fault`] does. A stuck-at plan
/// corrupts every queue entry from `nth` onward.
fn memq_fault(ctx: &mut Ctx<'_>) -> Option<MemQueueEffect> {
    let FaultPlan::MemQueue { nth, effect, persist } = ctx.opts.fault else {
        return None;
    };
    let my = ctx.counts.sites.mem_ops;
    let fire = match persist {
        Persistence::Transient => my == nth,
        Persistence::StuckAt => my >= nth,
    };
    if !fire {
        return None;
    }
    hidden_fault_fired(ctx, ctx.dyn_count - 1, my);
    Some(effect)
}

/// Should a `PredicateOutput` fault fire for this SETP?
fn pred_fault(ctx: &mut Ctx<'_>) -> bool {
    match ctx.opts.fault {
        FaultPlan::PredicateOutput { nth } if ctx.counts.sites.setp == nth => {
            fault_fired(ctx, ctx.dyn_count - 1, 1);
            true
        }
        _ => false,
    }
}

/// A source operand resolved once per run: a register each lane reads,
/// or one value every lane reads (an immediate; RZ and an absent operand
/// read 0).
#[derive(Clone, Copy)]
enum Src {
    Reg(usize),
    Val(u32),
}

impl Src {
    fn of(o: Operand) -> Src {
        match o {
            Operand::Reg(r) if !r.is_rz() => Src::Reg(r.0 as usize),
            Operand::Imm(v) => Src::Val(v),
            _ => Src::Val(0),
        }
    }

    #[inline(always)]
    fn u32(self, th: &Thread) -> u32 {
        match self {
            Src::Reg(r) => th.regs[r],
            Src::Val(v) => v,
        }
    }

    /// The register pair starting here, low word first.
    #[inline(always)]
    fn u64(self, th: &Thread) -> u64 {
        match self {
            Src::Reg(r) => (th.regs[r] as u64) | ((th.regs[r + 1] as u64) << 32),
            Src::Val(v) => v as u64,
        }
    }

    #[inline(always)]
    fn i32(self, th: &Thread) -> i32 {
        self.u32(th) as i32
    }

    #[inline(always)]
    fn f32(self, th: &Thread) -> f32 {
        f32::from_bits(self.u32(th))
    }

    #[inline(always)]
    fn f64(self, th: &Thread) -> f64 {
        f64::from_bits(self.u64(th))
    }

    #[inline(always)]
    fn f16(self, th: &Thread) -> F16 {
        F16::from_bits(self.u32(th) as u16)
    }
}

/// What one lane's execution of a scalar op writes back.
enum Write {
    None,
    W32(u32),
    W64(u64),
    Pred(bool),
}

/// The lane an op arm executes: its thread index within the block and the
/// global dynamic index it retired as.
#[derive(Clone, Copy)]
struct Lane {
    lane: usize,
    idx: u64,
}

/// A memory op's access, resolved once per run: the space, the direction
/// and the width.
#[derive(Clone, Copy)]
struct Access {
    global: bool,
    write: bool,
    bytes: u32,
}

impl Access {
    /// The DUE an access outside the space, or a misaligned one, raises.
    fn violation(self) -> DueKind {
        if self.global {
            DueKind::MemoryViolation
        } else {
            DueKind::SharedViolation
        }
    }

    /// The address a lane's access reaches: `addr` with the lane's memory
    /// fault hooks applied (a lone lane only; a bulk run has none to
    /// fire), reported to the sink and checked for alignment. `None` is a
    /// dropped queue entry, which never reaches memory: a load's or an
    /// atomic's destination keeps its stale value, and a store is lost.
    #[inline(always)]
    fn address<const BULK: bool>(
        self,
        ctx: &mut Ctx<'_>,
        th: &mut Thread,
        l: Lane,
        pc: u32,
        mut addr: u32,
    ) -> Result<Option<u32>, DueKind> {
        if !BULK {
            if let Some(flip) = addr_fault(ctx) {
                addr ^= flip.mask as u32;
            }
            match memq_fault(ctx) {
                // Poisoned queue entry: detected at dispatch.
                Some(MemQueueEffect::Flag) => return Err(DueKind::MemQueueFault),
                Some(MemQueueEffect::Drop) => return Ok(None),
                // Un-retired entry: the same instruction issues again
                // next round.
                Some(MemQueueEffect::Replay) => th.pc = pc,
                None => {}
            }
        }
        emit!(
            ctx,
            TraceEvent::MemAccess {
                idx: l.idx,
                space: if self.global { MemSpace::Global } else { MemSpace::Shared },
                write: self.write,
                addr,
                bytes: self.bytes,
            }
        );
        if !addr.is_multiple_of(self.bytes) {
            return Err(self.violation());
        }
        Ok(Some(addr))
    }

    /// Read the access's bytes at `addr`; a global read is reported to
    /// the exit table under construction.
    #[inline(always)]
    fn read(self, ctx: &mut Ctx<'_>, shared: &mut SharedMemory, addr: u32) -> Result<u64, DueKind> {
        let res = if self.global {
            ctx.global.device_read(addr, self.bytes, ctx.opts.ecc)
        } else {
            shared.device_read(addr, self.bytes, ctx.opts.ecc)
        };
        match res {
            Err(_) => Err(self.violation()),
            Ok((_, true)) => Err(DueKind::EccDoubleBit),
            Ok((value, false)) => {
                if self.global {
                    note_global(ctx, addr, self.bytes, false);
                }
                Ok(value)
            }
        }
    }

    /// Write `value` to the access's bytes at `addr`; a global write is
    /// reported to the exit table under construction first.
    #[inline(always)]
    fn store(
        self,
        ctx: &mut Ctx<'_>,
        shared: &mut SharedMemory,
        addr: u32,
        value: u64,
    ) -> Result<(), DueKind> {
        let res = if self.global {
            note_global(ctx, addr, self.bytes, true);
            ctx.global.device_write(addr, self.bytes, value)
        } else {
            shared.device_write(addr, self.bytes, value)
        };
        res.map_err(|_| self.violation())
    }
}

/// A scalar instruction dispatched over a run of lanes, resolved once for the
/// run (see [`step`]), with the lanes it has retired so far.
struct Dispatch<'i, const BULK: bool> {
    ins: &'i Instr,
    meta: &'i InstrMeta,
    at: WarpPos,
    pc: u32,
    /// Bit `i` stands for thread `lo + i` of the block.
    run: u32,
    lo: usize,
    /// The destination register; `None` for RZ.
    dst: Option<usize>,
    /// Lanes retired, and how many of them passed their guard.
    ran: u64,
    passed: u64,
}

impl<const BULK: bool> Dispatch<'_, BULK> {
    /// Execute the run's lanes in lane order: retire each, test its
    /// guard, and for a lane whose guard passes run `exec` and write its
    /// result back. A predicated-off lane retires (and is counted) but has
    /// no architectural effect. Each lane's pc moves to the next
    /// instruction before `exec`, which may send it elsewhere. Stops at
    /// the first lane that raises a DUE, which counts as retired.
    #[inline(always)]
    fn each<'c>(
        &mut self,
        ctx: &mut Ctx<'c>,
        threads: &mut [Thread],
        shared: &mut SharedMemory,
        mut exec: impl FnMut(
            &mut Ctx<'c>,
            &mut SharedMemory,
            &mut Thread,
            Lane,
        ) -> Result<Write, DueKind>,
    ) -> Result<(), DueKind> {
        let (ins, meta, at, pc, guard) = (self.ins, self.meta, self.at, self.pc, self.meta.guard);
        let mut lanes = self.run;
        while lanes != 0 {
            let lane = self.lo + lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            let idx = if BULK {
                ctx.dyn_count + self.ran
            } else {
                retire(ctx, meta, at.global, lane as u32, pc)?
            };
            self.ran += 1;
            let th = &mut threads[lane];
            th.pc = pc + 1;
            if !guard.is_none_or(|g| g.passes(th.pred(g.pred))) {
                if ins.op == Op::Bra {
                    // A guarded-off branch is the engine's divergence
                    // signal: the lane falls through while taken lanes
                    // jump.
                    emit!(
                        ctx,
                        TraceEvent::Branch {
                            idx,
                            block: at.block,
                            warp: at.global as u32,
                            lane: lane as u32,
                            target: ins.target.unwrap_or(pc + 1),
                            taken: false,
                        }
                    );
                }
                continue;
            }
            self.passed += 1;
            // Output-value fault injection, then write-back.
            match exec(ctx, shared, th, Lane { lane, idx })? {
                Write::None => {}
                Write::W32(mut v) => {
                    if !BULK {
                        if let Some(c) = output_fault(ctx, meta) {
                            v = c.apply32(v);
                        }
                    }
                    if let Some(d) = self.dst {
                        th.regs[d] = v;
                    }
                }
                Write::W64(mut v) => {
                    if !BULK {
                        if let Some(c) = output_fault(ctx, meta) {
                            v = c.apply64(v);
                        }
                    }
                    if let Some(d) = self.dst {
                        th.regs[d] = v as u32;
                        th.regs[d + 1] = (v >> 32) as u32;
                    }
                }
                Write::Pred(mut v) => {
                    if !BULK && pred_fault(ctx) {
                        v = !v;
                    }
                    let Some(pdst) = ins.pdst else { unreachable!("validated SETP has pdst") };
                    th.set_pred(pdst, v);
                }
            }
        }
        Ok(())
    }
}

/// Execute the scalar instruction `ins` at the pc its lanes share over
/// `run`, a run of warp `at`'s lanes (bit `i` stands for lane `i` of the
/// warp): the one body every scalar op runs through.
///
/// The op, its sources, its destination and the site bookkeeping are
/// resolved once per run; each op arm then loops over the run's lanes,
/// doing only the lane's guard test, its arithmetic or memory access, its
/// write-back and its pc. A `BULK` run, one that [`quiet`] admits with no
/// sink attached, adds its retire counts and site counts once for the
/// lanes that ran: a lane that raised a DUE is counted, and no lane after
/// it runs. Otherwise `run` is one lane, which retires, goes through every
/// fault hook and reports every event on its own; its site counts are
/// noted after its hooks read them.
fn step<const BULK: bool>(
    ctx: &mut Ctx<'_>,
    ins: &Instr,
    meta: &InstrMeta,
    threads: &mut [Thread],
    run: u32,
    at: WarpPos,
    shared: &mut SharedMemory,
) -> Result<(), DueKind> {
    let lo = at.in_block as usize * WARP_SIZE as usize;
    let pc = threads[lo + run.trailing_zeros() as usize].pc;
    let [a, b, c] = ins.srcs.map(Src::of);
    let dst = (!ins.dst.is_rz()).then_some(ins.dst.0 as usize);
    let mut dispatch = Dispatch::<BULK> { ins, meta, at, pc, run, lo, dst, ran: 0, passed: 0 };

    // An op whose lanes each touch only their own registers.
    macro_rules! lanes {
        (|$th:ident| $write:expr) => {
            dispatch.each(ctx, threads, shared, |_, _, $th, _| Ok($write))
        };
    }
    let ordered = |cmp: CmpOp, ord: Option<std::cmp::Ordering>| match ord {
        Some(ord) => cmp.eval_ord(ord),
        None => cmp == CmpOp::Ne, // unordered
    };

    let result = match ins.op {
        Op::Fadd => lanes!(|th| Write::W32((a.f32(th) + b.f32(th)).to_bits())),
        Op::Fmul => lanes!(|th| Write::W32((a.f32(th) * b.f32(th)).to_bits())),
        Op::Ffma => lanes!(|th| Write::W32(a.f32(th).mul_add(b.f32(th), c.f32(th)).to_bits())),
        Op::Fmin => lanes!(|th| Write::W32(a.f32(th).min(b.f32(th)).to_bits())),
        Op::Fmax => lanes!(|th| Write::W32(a.f32(th).max(b.f32(th)).to_bits())),
        Op::Fsetp(cmp) => lanes!(|th| Write::Pred(ordered(cmp, a.f32(th).partial_cmp(&b.f32(th))))),
        Op::F2i => lanes!(|th| Write::W32(a.f32(th) as i32 as u32)),
        Op::I2f => lanes!(|th| Write::W32((a.i32(th) as f32).to_bits())),
        Op::F2d => lanes!(|th| Write::W64((a.f32(th) as f64).to_bits())),
        Op::D2f => lanes!(|th| Write::W32((a.f64(th) as f32).to_bits())),
        Op::F2h => lanes!(|th| Write::W32(F16::from_f32(a.f32(th)).to_bits() as u32)),
        Op::Frcp => lanes!(|th| Write::W32((1.0 / a.f32(th)).to_bits())),
        Op::Fsqrt => lanes!(|th| Write::W32(a.f32(th).sqrt().to_bits())),
        Op::Drcp => lanes!(|th| Write::W64((1.0 / a.f64(th)).to_bits())),
        Op::Dsqrt => lanes!(|th| Write::W64(a.f64(th).sqrt().to_bits())),
        Op::H2f => lanes!(|th| Write::W32(a.f16(th).to_f32().to_bits())),
        Op::Dadd => lanes!(|th| Write::W64((a.f64(th) + b.f64(th)).to_bits())),
        Op::Dmul => lanes!(|th| Write::W64((a.f64(th) * b.f64(th)).to_bits())),
        Op::Dfma => lanes!(|th| Write::W64(a.f64(th).mul_add(b.f64(th), c.f64(th)).to_bits())),
        Op::Dsetp(cmp) => lanes!(|th| Write::Pred(ordered(cmp, a.f64(th).partial_cmp(&b.f64(th))))),
        Op::Hadd => lanes!(|th| Write::W32(a.f16(th).add(b.f16(th)).to_bits() as u32)),
        Op::Hmul => lanes!(|th| Write::W32(a.f16(th).mul(b.f16(th)).to_bits() as u32)),
        Op::Hfma => lanes!(|th| Write::W32(a.f16(th).fma(b.f16(th), c.f16(th)).to_bits() as u32)),
        Op::Hsetp(cmp) => lanes!(|th| Write::Pred(ordered(cmp, a.f16(th).partial_cmp(b.f16(th))))),
        Op::Iadd => lanes!(|th| Write::W32(a.i32(th).wrapping_add(b.i32(th)) as u32)),
        Op::Imul => lanes!(|th| Write::W32(a.i32(th).wrapping_mul(b.i32(th)) as u32)),
        Op::Imad => {
            lanes!(
                |th| Write::W32(a.i32(th).wrapping_mul(b.i32(th)).wrapping_add(c.i32(th)) as u32)
            )
        }
        Op::Isetp(cmp) => lanes!(|th| Write::Pred(cmp.eval_ord(a.i32(th).cmp(&b.i32(th))))),
        Op::Imin => lanes!(|th| Write::W32(a.i32(th).min(b.i32(th)) as u32)),
        Op::Imax => lanes!(|th| Write::W32(a.i32(th).max(b.i32(th)) as u32)),
        Op::Shl => lanes!(|th| Write::W32(a.u32(th) << (b.u32(th) & 31))),
        Op::Shr => lanes!(|th| Write::W32(a.u32(th) >> (b.u32(th) & 31))),
        Op::Asr => lanes!(|th| Write::W32((a.i32(th) >> (b.u32(th) & 31)) as u32)),
        Op::And => lanes!(|th| Write::W32(a.u32(th) & b.u32(th))),
        Op::Or => lanes!(|th| Write::W32(a.u32(th) | b.u32(th))),
        Op::Xor => lanes!(|th| Write::W32(a.u32(th) ^ b.u32(th))),
        Op::Not => lanes!(|th| Write::W32(!a.u32(th))),
        Op::Mov => lanes!(|th| Write::W32(a.u32(th))),
        Op::Sel => {
            let Some((p, neg)) = ins.psrc else { unreachable!("validated SEL has psrc") };
            lanes!(|th| Write::W32(if th.pred(p) != neg { a.u32(th) } else { b.u32(th) }))
        }
        Op::S2r(sr) => {
            let launch = ctx.launch;
            dispatch.each(ctx, threads, shared, |_, _, th, l| {
                Ok(Write::W32(match sr {
                    SpecialReg::TidX => th.tid_x,
                    SpecialReg::TidY => th.tid_y,
                    SpecialReg::CtaidX => at.bx,
                    SpecialReg::CtaidY => at.by,
                    SpecialReg::NtidX => launch.block.x,
                    SpecialReg::NtidY => launch.block.y,
                    SpecialReg::NctaidX => launch.grid.x,
                    SpecialReg::NctaidY => launch.grid.y,
                    SpecialReg::LaneId => (l.lane as u32) % WARP_SIZE,
                    SpecialReg::WarpId => at.in_block,
                }))
            })
        }
        Op::Ldp => {
            let params = &ctx.launch.params;
            lanes!(|th| Write::W32(params.get(a.u32(th) as usize).copied().unwrap_or(0)))
        }
        Op::Ldg(w) | Op::Lds(w) => {
            let acc =
                Access { global: matches!(ins.op, Op::Ldg(_)), write: false, bytes: w.bytes() };
            dispatch.each(ctx, threads, shared, |ctx, shared, th, l| {
                let addr = a.u32(th).wrapping_add(b.u32(th));
                let Some(addr) = acc.address::<BULK>(ctx, th, l, pc, addr)? else {
                    return Ok(Write::None);
                };
                let value = acc.read(ctx, shared, addr)?;
                Ok(match w {
                    MemWidth::W64 => Write::W64(value),
                    _ => Write::W32(value as u32),
                })
            })
        }
        Op::Stg(w) | Op::Sts(w) => {
            let acc =
                Access { global: matches!(ins.op, Op::Stg(_)), write: true, bytes: w.bytes() };
            dispatch.each(ctx, threads, shared, |ctx, shared, th, l| {
                let addr = a.u32(th).wrapping_add(b.u32(th));
                let Some(addr) = acc.address::<BULK>(ctx, th, l, pc, addr)? else {
                    return Ok(Write::None);
                };
                let value = match w {
                    MemWidth::W64 => c.u64(th),
                    MemWidth::W16 => (c.u32(th) & 0xFFFF) as u64,
                    _ => c.u32(th) as u64,
                };
                acc.store(ctx, shared, addr, value)?;
                Ok(Write::None)
            })
        }
        Op::AtomGAdd | Op::AtomSAdd => {
            let acc = Access { global: ins.op == Op::AtomGAdd, write: true, bytes: 4 };
            dispatch.each(ctx, threads, shared, |ctx, shared, th, l| {
                let addr = a.u32(th).wrapping_add(b.u32(th));
                let Some(addr) = acc.address::<BULK>(ctx, th, l, pc, addr)? else {
                    return Ok(Write::None);
                };
                let old = acc.read(ctx, shared, addr)? as u32;
                acc.store(ctx, shared, addr, old.wrapping_add(c.u32(th)) as u64)?;
                Ok(Write::W32(old))
            })
        }
        Op::Shfl(_) => unreachable!("SHFL handled at warp level"),
        Op::Hmma | Op::Fmma => unreachable!("MMA handled at warp level"),
        Op::Bra => {
            let Some(target) = ins.target else { unreachable!("validated branch has target") };
            dispatch.each(ctx, threads, shared, |ctx, _, th, l| {
                th.pc = target;
                emit!(
                    ctx,
                    TraceEvent::Branch {
                        idx: l.idx,
                        block: at.block,
                        warp: at.global as u32,
                        lane: l.lane as u32,
                        target,
                        taken: true,
                    }
                );
                Ok(Write::None)
            })
        }
        Op::Bar => dispatch.each(ctx, threads, shared, |ctx, _, th, l| {
            th.state = TState::AtBarrier;
            emit!(
                ctx,
                TraceEvent::BarrierArrive {
                    idx: l.idx,
                    block: at.block,
                    warp: at.global as u32,
                    lane: l.lane as u32,
                }
            );
            Ok(Write::None)
        }),
        Op::Exit => lanes!(|th| {
            th.state = TState::Exited;
            Write::None
        }),
        Op::Nop => lanes!(|_th| Write::None),
    };

    let Dispatch { ran, passed, .. } = dispatch;
    note_sites(ctx, meta, pc, passed);
    if BULK {
        ctx.dyn_count += ran;
        account(ctx, meta, at.global, ran);
        return result;
    }
    result?;
    let lane = lo + run.trailing_zeros() as usize;
    apply_timed_faults(ctx, threads, lane, at.block, shared, ctx.dyn_count - 1)
}

/// Execute a warp-synchronous 16x16x16 MMA.
///
/// Fragment layout: lane `l` holds elements `l*8 .. l*8+8` of each
/// row-major 16x16 matrix. A and B elements are binary16, packed two per
/// register starting at the named base register. The C/D fragment is
/// binary16-packed for `HMMA` and one binary32 per register for `FMMA`.
/// Products accumulate in binary32 and round once at the end (HMMA).
fn exec_mma(ctx: &mut Ctx<'_>, meta: &InstrMeta, warp: &mut [Thread], ins: &Instr) {
    debug_assert_eq!(warp.len(), WARP_SIZE as usize, "setup rejects MMA on partial warps");
    let (Some(a), Some(b), Some(c)) = (ins.srcs[0].reg(), ins.srcs[1].reg(), ins.srcs[2].reg())
    else {
        unreachable!("validated MMA has register fragments")
    };
    let (a_base, b_base, c_base) = (a.0 as usize, b.0 as usize, c.0 as usize);
    let is_hmma = ins.op == Op::Hmma;

    let mut a_m = [[0f32; 16]; 16];
    let mut b_m = [[0f32; 16]; 16];
    let mut c_m = [[0f32; 16]; 16];
    for (l, th) in warp.iter().enumerate() {
        for j in 0..8 {
            let idx = l * 8 + j;
            let (row, col) = (idx / 16, idx % 16);
            let a_bits = th.regs[a_base + j / 2];
            let a_half = if j % 2 == 0 { a_bits & 0xFFFF } else { a_bits >> 16 };
            a_m[row][col] = F16::from_bits(a_half as u16).to_f32();
            let b_bits = th.regs[b_base + j / 2];
            let b_half = if j % 2 == 0 { b_bits & 0xFFFF } else { b_bits >> 16 };
            b_m[row][col] = F16::from_bits(b_half as u16).to_f32();
            c_m[row][col] = if is_hmma {
                let c_bits = th.regs[c_base + j / 2];
                let c_half = if j % 2 == 0 { c_bits & 0xFFFF } else { c_bits >> 16 };
                F16::from_bits(c_half as u16).to_f32()
            } else {
                f32::from_bits(th.regs[c_base + j])
            };
        }
    }

    let mut d = [[0f32; 16]; 16];
    for r in 0..16 {
        for cc in 0..16 {
            let mut acc = c_m[r][cc];
            for k in 0..16 {
                acc += a_m[r][k] * b_m[k][cc];
            }
            d[r][cc] = acc;
        }
    }

    // Output fault: corrupt one D element, selected by the plan's nth.
    if let Some(c) = output_fault(ctx, meta) {
        let nth = match ctx.opts.fault {
            FaultPlan::InstructionOutput { nth, .. }
            | FaultPlan::InstructionOutputSet { nth, .. } => nth,
            _ => 0,
        };
        let idx = (nth % 256) as usize;
        let (r, cc) = (idx / 16, idx % 16);
        if is_hmma {
            let bits = c.apply32(F16::from_f32(d[r][cc]).to_bits() as u32) as u16;
            d[r][cc] = F16::from_bits(bits).to_f32();
        } else {
            d[r][cc] = f32::from_bits(c.apply32(d[r][cc].to_bits()));
        }
    }

    for (l, th) in warp.iter_mut().enumerate() {
        for j in 0..8 {
            let idx = l * 8 + j;
            let (row, col) = (idx / 16, idx % 16);
            if is_hmma {
                let half = F16::from_f32(d[row][col]).to_bits() as u32;
                let reg = c_base + j / 2;
                if j % 2 == 0 {
                    th.regs[reg] = (th.regs[reg] & 0xFFFF_0000) | half;
                } else {
                    th.regs[reg] = (th.regs[reg] & 0x0000_FFFF) | (half << 16);
                }
            } else {
                th.regs[c_base + j] = d[row][col].to_bits();
            }
        }
    }

    // Timed faults (register/memory strikes, PC corruption) are matched
    // only against scalar instructions' indices (`at == executed_idx` in
    // `apply_timed_faults`), so one whose instant is this MMA's index is
    // never applied: the strike is lost. Warp-wide SHFL loses them alike.
}

/// Execute a warp-synchronous shuffle: every lane reads `srcs[0]` from
/// the lane selected by the mode and `srcs[1]`, simultaneously.
fn exec_shfl(ctx: &mut Ctx<'_>, meta: &InstrMeta, warp: &mut [Thread], ins: &Instr) {
    let Op::Shfl(mode) = ins.op else { unreachable!("exec_shfl on non-SHFL") };
    let width = warp.len();
    let (value, select) = (Src::of(ins.srcs[0]), Src::of(ins.srcs[1]));
    // Every lane reads the pre-exchange values (simultaneous exchange
    // semantics).
    let values: Vec<u32> = warp.iter().map(|th| value.u32(th)).collect();
    let mut results: Vec<u32> = warp
        .iter()
        .enumerate()
        .map(|(l, th)| {
            let sel = select.u32(th) as usize;
            let src_lane = match mode {
                gpu_arch::ShflMode::Idx => sel % width.max(1),
                gpu_arch::ShflMode::Up => l.saturating_sub(sel),
                gpu_arch::ShflMode::Down => (l + sel).min(width - 1),
                gpu_arch::ShflMode::Bfly => (l ^ sel) % width.max(1),
            };
            values[src_lane]
        })
        .collect();
    // One output fault can land on one lane's result.
    if let Some(c) = output_fault(ctx, meta) {
        let nth = match ctx.opts.fault {
            FaultPlan::InstructionOutput { nth, .. }
            | FaultPlan::InstructionOutputSet { nth, .. } => nth,
            _ => 0,
        };
        let lane = (nth as usize) % width.max(1);
        results[lane] = c.apply32(results[lane]);
    }
    for (th, v) in warp.iter_mut().zip(results) {
        th.set_reg(ins.dst, v);
    }
}
