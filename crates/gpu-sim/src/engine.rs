//! The execution engine: a deterministic functional SIMT interpreter with
//! fault hooks.
//!
//! Blocks execute sequentially (the paper's workloads have no inter-block
//! synchronization); threads within a block execute in a fixed round-robin
//! order, warp by warp, each lane one instruction per turn, in lane order.
//! This makes the global dynamic-instruction counter — the coordinate
//! system every [`FaultPlan`] uses — fully deterministic. A run neither
//! validates nor decodes its kernel: a [`Kernel`] is both when it is
//! built, and carries its [`gpu_arch::DecodedKernel`], which sizes the
//! register files and whose per-pc [`InstrMeta`] the hot loop reads. A
//! warp's lanes that sit at the same pc next to each other form a run:
//! the instruction is fetched, looked up and resolved once per run, then
//! executed over the run's lanes.
//!
//! A divergent turn issues in one of two ways: in lane order, a run at a
//! time, or inside a window (below) that covers it. "Nothing can tell"
//! the order lanes issue in means no sink watches, no sites record is
//! kept, no fetch plan acts and no fault hook or watchdog can fire
//! anywhere in the lanes issued.
//!
//! Each scheduler round-top action (snapshot capture, hand-off, golden
//! rejoin, the repeat exit and the hidden round tick) returns its next
//! tick: the first dynamic count at which it can act again. A block keeps
//! the least of them as its horizon, and every round top below it only
//! starts the round. When one warp of a block is left with running
//! lanes, it takes its turns back to back up to that horizon. If that
//! warp has one running lane and nothing can tell, the lane steps on its
//! own, one instruction per round, up to the horizon or the first point a
//! fault hook or the watchdog could fire (see `step_lone_lane`).
//!
//! Where a block's warps diverge enough and nothing can tell, a round top
//! below the horizon may instead open a window over the next rounds: each
//! warp's lanes issue by pc, lowest pc first, up to as many instructions
//! apiece as the window has rounds, so lanes that reach one pc in
//! different rounds issue together. Memory lanes claim the words they
//! touch first; a cross-lane conflict, a DUE or a pc that leaves the
//! kernel rolls the window back, exit-table notes included, for lane
//! order to re-run (see `open_window`). Capturing runs open windows too:
//! a snapshot falls due only at a round top the horizon stops a window
//! before. Every divergent turn no window covers goes in lane order.

use crate::error::SimError;
use crate::fault::{
    BitFlip, DueKind, FaultPlan, FetchEffect, MemQueueEffect, Persistence, SiteClass, Stage,
    Trigger,
};
use crate::memory::{GlobalMemory, SharedMemory};
use crate::snapshot::{EngineSnapshot, ExitRecorder, ExitTable, Geometry, SNAPSHOT_CAP};
use crate::timing::{self, TimingReport};
use gpu_arch::decode::{FP32_ARITH_UNITS, FP64_ARITH_UNITS, HALF_ARITH_UNITS, INT_ARITH_UNITS};
use gpu_arch::{
    CmpOp, DeviceModel, FunctionalUnit, Instr, InstrMeta, Kernel, LaunchConfig, MemOp, MemWidth,
    MixCategory, Op, Operand, Reg, SpecialReg, WARP_SIZE,
};
use obs::{MemSpace, TraceEvent, TraceSink};
use softfloat::F16;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

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
    /// the snapshots that qualify, the last of them skipping the most),
    /// and its capture point must not lie past
    /// [`RunOptions::watchdog_limit`], where a run from instruction 0 trips
    /// first; violations are [`SimError::ResumeConflict`]s. Incompatible
    /// with [`RunOptions::record_sites`] and [`RunOptions::snapshot_stride`].
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

/// Dynamic instruction counts collected during execution: the one set
/// of counters a run keeps. A run's position is read off them: `total`
/// is the dynamic count, `sites` and `unit_writers` the counts every
/// positional fault hook numbers its `nth` in.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Total dynamic instructions (thread-instructions; warp-wide MMA
    /// counts once per warp): the global index the next instruction
    /// takes.
    pub total: u64,
    /// Per functional-unit kind (dense-indexed by
    /// [`FunctionalUnit::index`]).
    pub per_unit: [u64; FunctionalUnit::COUNT],
    /// Per Figure-1 mix category.
    pub per_mix: [u64; MixCategory::COUNT],
    /// Guard-passing GPR writers per functional unit (dense-indexed like
    /// `per_unit`), which [`Counts::class_matches`] sums into the unit
    /// and arithmetic classes.
    pub unit_writers: [u64; FunctionalUnit::COUNT],
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
    /// Every scalar counter, each paired with the same counter of
    /// `other`: the one list the whole-count arithmetic below walks.
    /// `self` is destructured whole, so a field added to `Counts` fails
    /// to compile here until it is listed (the per-warp counts are
    /// walked apart, since they are not all of one length).
    fn scalars_with<'c>(
        &'c mut self,
        other: &'c Counts,
    ) -> impl Iterator<Item = (&'c mut u64, &'c u64)> {
        let Counts {
            total,
            per_unit,
            per_mix,
            unit_writers,
            warp_latency: _,
            warp_instrs: _,
            sites,
        } = self;
        let SiteCounts { gpr_writers, gpr_writers_no_half, loads, mem_ops, setp } = sites;
        let o = &other.sites;
        [
            (total, &other.total),
            (gpr_writers, &o.gpr_writers),
            (gpr_writers_no_half, &o.gpr_writers_no_half),
            (loads, &o.loads),
            (mem_ops, &o.mem_ops),
            (setp, &o.setp),
        ]
        .into_iter()
        .chain(per_unit.iter_mut().zip(&other.per_unit))
        .chain(per_mix.iter_mut().zip(&other.per_mix))
        .chain(unit_writers.iter_mut().zip(&other.unit_writers))
    }

    /// Add what golden run `fin` retired after `at`: the scalar counts,
    /// and the per-warp counts of warps `from` on (`at`'s per-warp
    /// counts read as zero where it has none).
    fn add_suffix(&mut self, fin: &Counts, at: &Counts, from: usize) {
        // `fin` never reads below `at`, so no counter goes below zero.
        for (c, f) in self.scalars_with(fin) {
            *c += f;
        }
        for (c, a) in self.scalars_with(at) {
            *c -= a;
        }
        for (mine, fin, at) in [
            (&mut self.warp_latency, &fin.warp_latency, &at.warp_latency),
            (&mut self.warp_instrs, &fin.warp_instrs, &at.warp_instrs),
        ] {
            for (w, c) in mine.iter_mut().enumerate().skip(from) {
                *c += fin[w] - at.get(w).copied().unwrap_or(0);
            }
        }
    }

    /// Make these counts a copy of `from`, reusing their buffers.
    fn copy_from(&mut self, from: &Counts) {
        for (c, f) in self.scalars_with(from) {
            *c = *f;
        }
        self.warp_latency.clone_from(&from.warp_latency);
        self.warp_instrs.clone_from(&from.warp_instrs);
    }

    /// Add `k` more periods to these counts, a period being what they
    /// gained since `at` (see [`repeat_exit`]).
    fn add_periods(&mut self, at: &Counts, k: u64) {
        let per_warp = self
            .warp_latency
            .iter_mut()
            .zip(&at.warp_latency)
            .chain(self.warp_instrs.iter_mut().zip(&at.warp_instrs));
        for (c, a) in per_warp {
            *c += k * (*c - a);
        }
        for (c, a) in self.scalars_with(at) {
            *c += k * (*c - a);
        }
    }

    /// `class`'s count with per-unit counts `units`: the one rule from a
    /// site class to the counters it reads. The classes that cut across
    /// units read their own [`SiteCounts`] field, the arithmetic classes
    /// sum `units` over their unit groups (the correspondence
    /// `gpu_arch::decode` checks over every op), and a unit class reads
    /// its unit's slot.
    fn by_class(&self, class: SiteClass, units: &[u64; FunctionalUnit::COUNT]) -> u64 {
        let sum = |us: &[FunctionalUnit]| us.iter().map(|u| units[u.index()]).sum();
        match class {
            SiteClass::GprWriter => self.sites.gpr_writers,
            SiteClass::GprWriterNoHalf => self.sites.gpr_writers_no_half,
            SiteClass::FloatArith => sum(&FP32_ARITH_UNITS) + sum(&FP64_ARITH_UNITS),
            SiteClass::HalfArith => sum(&HALF_ARITH_UNITS),
            SiteClass::IntArith => sum(&INT_ARITH_UNITS),
            SiteClass::Load => self.sites.loads,
            SiteClass::Unit(u) => units[u.index()],
        }
    }

    /// How many sites of `class` the run offers a fault plan: the
    /// population an injector samples `nth` from. For the arithmetic
    /// classes and [`SiteClass::Unit`] it counts every instruction of
    /// their units.
    pub fn population(&self, class: SiteClass) -> u64 {
        self.by_class(class, &self.per_unit)
    }

    /// How many guard-passing sites of `class` the run has passed: the
    /// count the output fault hook numbers a plan's `nth` in, so a run
    /// resumed from counts taken mid-run numbers its sites as a run from
    /// zero does. For the classes that cut across units it equals
    /// [`Counts::population`]; for the others it counts only the units'
    /// guard-passing GPR writers.
    pub fn class_matches(&self, class: SiteClass) -> u64 {
        self.by_class(class, &self.unit_writers)
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
    /// retired. The periods the repeat exit skips count: the run still
    /// goes on to its end.
    pub rounds: u64,
    /// Windows the run opened (DESIGN.md §16, "Windows"), the ones it
    /// rolled back included. Like `rounds`, telemetry: no digest reads it.
    pub windows: u64,
    /// Windows the run rolled back and re-ran in lane order.
    pub window_rollbacks: u64,
    /// Dynamic instructions the repeat exit skipped (DESIGN.md §16,
    /// "Repeat exit"): whole periods of a hang whose state came back to
    /// itself, added to `counts` and `rounds` without running them. The
    /// run still ends at the watchdog. Telemetry, like `rounds`.
    pub repeat_skipped: u64,
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
    /// Wall time of the run's phases. Presentation only: no tally, digest
    /// or control decision reads it.
    pub phases: PhaseNanos,
}

/// Wall time of one run's phases in nanoseconds, read from the clock at
/// the phase boundaries only: five reads a run, never per block or round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Validation, decode, and the memory restore from a snapshot or a
    /// relayed state.
    pub setup: u64,
    /// The block loop, block exits and rejoins included.
    pub blocks: u64,
    /// The end-of-kernel ECC scrub.
    pub scrub: u64,
    /// The analytic timing model.
    pub timing: u64,
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ThreadState {
    /// Predicate register bits.
    pub(crate) preds: u8,
    /// Program counter.
    pub(crate) pc: u32,
    pub(crate) state: TState,
}

struct Thread {
    /// The register file, [`gpu_arch::DecodedKernel::reg_file_len`]
    /// registers long.
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

    /// Whether this thread is `st` exactly, its registers being `regs`.
    fn is(&self, st: &ThreadState, regs: &[u32]) -> bool {
        ThreadState { preds: self.preds, pc: self.pc, state: self.state } == *st
            && *self.regs == *regs
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
    launch: &'a LaunchConfig,
    opts: &'a RunOptions,
    global: GlobalMemory,
    /// Everything the run has counted so far, and its position: the
    /// dynamic count (`counts.total`) and the site counts the fault hooks
    /// number their `nth` in ([`Counts::class_matches`] for the output
    /// hook, `counts.sites` for the memory and predicate hooks).
    counts: Counts,
    /// Scheduler rounds run so far (see [`Executed::rounds`]).
    rounds: u64,
    /// Instructions the repeat exit skipped (see [`repeat_exit`]).
    repeat_skipped: u64,
    /// The fault plan's trigger, decoded once per run.
    trigger: Option<Trigger>,
    /// Set when the plan first fires: transient plans then apply no
    /// more, and a stuck-at plan reports no further fault event.
    fault_triggered: bool,
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
    /// The first golden snapshot taken at or after `here` (block and
    /// dynamic count) in `here`'s block, if there is one, moving the
    /// cursor past every one before `here`.
    fn next_in_block(&mut self, here: (u32, u64)) -> Option<&'a EngineSnapshot> {
        let snaps = &self.golden.snapshots;
        while snaps.get(self.next).is_some_and(|s| (s.block, s.counts.total) < here) {
            self.next += 1;
        }
        snaps.get(self.next).map(|s| &**s).filter(|s| s.block == here.0)
    }
}

/// Execute `kernel` on `device` with the given launch, memory image and
/// options.
///
/// # Panics
/// Panics on every setup failure [`try_run_with_sink`] reports as a
/// [`SimError`].
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
/// launch or options the run cannot honour return a [`SimError`] instead
/// of panicking, so campaign harnesses can quarantine a bad target rather
/// than abort. The kernel needs no check: it was validated and decoded
/// when it was built.
///
/// # Errors
/// [`SimError::EmptyLaunch`], [`SimError::PartialWarpMma`] or
/// [`SimError::ResumeConflict`]; device failures during execution are
/// outcomes ([`ExecStatus::Due`]), never errors.
pub fn try_run_with_sink<'a>(
    device: &DeviceModel,
    kernel: &'a Kernel,
    launch: &'a LaunchConfig,
    memory: GlobalMemory,
    opts: &'a RunOptions,
    sink: Option<&'a mut (dyn TraceSink + 'a)>,
) -> Result<Executed, SimError> {
    let started = Instant::now();
    if launch.total_threads() == 0 {
        return Err(SimError::EmptyLaunch);
    }
    let block_threads = launch.block.count();
    if !block_threads.is_multiple_of(WARP_SIZE as u64) && kernel.decoded().has_mma() {
        return Err(SimError::PartialWarpMma { block_threads });
    }
    let geometry = Geometry::of(kernel, launch, memory.len());
    let trigger = opts.fault.trigger();
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
        if !snap.precedes(&opts.fault) || snap.counts.total > opts.watchdog_limit {
            return Err(SimError::ResumeConflict(
                "fault plan's trigger or watchdog limit precedes the snapshot capture point"
                    .to_string(),
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
                && trigger.is_some_and(|t| t.fires_once());
            allowed.then_some((golden, table))
        }
    };

    // The kernel was decoded when it was built: the hot loop below only
    // does table lookups over its per-pc `InstrMeta`, never re-classifying
    // opcodes. Trace sinks still see the decode phase open and close.
    let mut sink = sink;
    if let Some(s) = sink.as_deref_mut() {
        s.event(&TraceEvent::PhaseBegin { idx: 0, phase: "decode" });
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
    let mut ctx = Ctx {
        kernel,
        launch,
        opts,
        global: memory,
        counts: Counts {
            warp_latency: vec![0; total_warps],
            warp_instrs: vec![0; total_warps],
            ..Counts::default()
        },
        rounds: 0,
        repeat_skipped: 0,
        trigger,
        fault_triggered: false,
        current_block: 0,
        record: opts.record_sites.then(SitesRecord::default),
        // A rejoin ends the run at the golden total, so it needs room.
        rejoin: exit
            .filter(|(golden, _)| golden.counts.total <= opts.watchdog_limit)
            .map(|(golden, table)| Rejoin { golden, table, next: 0, last_diff: 0 }),
        cap,
        handoff_from: opts
            .hand_off
            .then(|| opts.resume_from.as_ref().map_or(0, |s| s.counts.total)),
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
        // would have reached. The dynamic count and the site counts the
        // fault hooks number their `nth` in come with its counts, keeping
        // site numbering global (relative to instruction 0, not the
        // resume offset).
        ctx.counts = snap.counts.clone();
        let image = std::mem::replace(&mut ctx.global, snap.global.clone());
        input = exit.map(|_| image);
    } else if exit.is_some() {
        input = Some(ctx.global.clone());
    }

    let mut windows = Windows::new(&ctx);
    let setup_done = Instant::now();
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
            let window_start = ctx.counts.total;
            emit!(ctx, TraceEvent::PhaseBegin { idx: window_start, phase: "block" });
            let result = run_block(&mut ctx, &mut windows, bx, by, block_linear, init);
            emit!(ctx, TraceEvent::PhaseEnd { idx: ctx.counts.total, phase: "block" });
            if let Some(rec) = ctx.record.as_mut() {
                rec.block_windows.push((window_start, ctx.counts.total));
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

    let blocks_done = Instant::now();
    // End-of-kernel ECC sweep over memory that was struck but never read.
    if status == ExecStatus::Completed {
        emit!(ctx, TraceEvent::PhaseBegin { idx: ctx.counts.total, phase: "ecc-scrub" });
        if ctx.global.scrub(opts.ecc) {
            status = ExecStatus::Due(DueKind::EccDoubleBit);
        }
        emit!(ctx, TraceEvent::PhaseEnd { idx: ctx.counts.total, phase: "ecc-scrub" });
    }

    if let ExecStatus::Due(kind) = status {
        emit!(ctx, TraceEvent::DueRaised { idx: ctx.counts.total, kind: kind.name() });
    }

    let scrub_done = Instant::now();
    let timing = timing::analyze(device, kernel, launch, &ctx.counts);
    let timing_done = Instant::now();
    let nanos = |from: Instant, to: Instant| to.duration_since(from).as_nanos() as u64;
    let phases = PhaseNanos {
        setup: nanos(started, setup_done),
        blocks: nanos(setup_done, blocks_done),
        scrub: nanos(blocks_done, scrub_done),
        timing: nanos(scrub_done, timing_done),
    };
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
        windows: windows.opened,
        window_rollbacks: windows.rolled_back,
        repeat_skipped: ctx.repeat_skipped,
        timing,
        fault_triggered: ctx.fault_triggered,
        sites_record: ctx.record,
        snapshots,
        exit_table,
        exit: exited,
        handoff: ctx.handoff,
        phases,
    })
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
    if ctx.counts.total.saturating_add(skipped) > ctx.opts.watchdog_limit
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
/// Otherwise returns the first dynamic count at which a round top may
/// rejoin: the next golden snapshot in the block once the plan has fired,
/// and before that the earliest count the plan can fire at.
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
) -> ControlFlow<BlockExit, u64> {
    let now = ctx.counts.total;
    let Some(rj) = ctx.rejoin.as_mut() else { return ControlFlow::Continue(u64::MAX) };
    if !ctx.fault_triggered {
        // The earliest count the plan can fire at. A hidden plan fires
        // at a round top, after this check, and a round may retire
        // nothing, so the next round top can sit at that very count.
        return ControlFlow::Continue(now.saturating_add(ctx.trigger_gap().unwrap_or(0)));
    }
    let (golden, table) = (rj.golden, rj.table);
    let Some(snap) = rj.next_in_block((block, now)) else { return ControlFlow::Continue(u64::MAX) };
    if snap.counts.total > now {
        return ControlFlow::Continue(snap.counts.total);
    }
    // A snapshot here: past it, the cursor finds the next one.
    let differs = ControlFlow::Continue(now + 1);
    if *shared != snap.shared || ctx.global != snap.global {
        return differs;
    }
    let same = |t: usize| {
        threads[t].same_as(&snap.threads[t], snap.thread_regs(t), table.live_regs(threads[t].pc))
    };
    let first = rj.last_diff;
    if let Some(t) =
        std::iter::once(first).chain((0..threads.len()).filter(|&t| t != first)).find(|&t| !same(t))
    {
        rj.last_diff = t;
        return differs;
    }
    ctx.global.adopt(&golden.memory);
    ControlFlow::Break(finish_from(ctx, golden, &snap.counts, block, ExitKind::Rejoin))
}

/// At a scheduler round top, where `threads`/`shared` are between
/// instructions: capture an [`EngineSnapshot`] of the current state if one
/// is due, and return the dynamic count the next one is due at
/// (`u64::MAX` for a run that captures none). Past [`SNAPSHOT_CAP`]
/// snapshots, drops every other one and doubles the stride.
fn capture_snapshot(
    ctx: &mut Ctx<'_>,
    block_linear: u32,
    threads: &[Thread],
    shared: &SharedMemory,
) -> u64 {
    match &ctx.cap {
        Some(cap) if ctx.counts.total >= cap.next_due => {}
        cap => return cap.as_ref().map_or(u64::MAX, |cap| cap.next_due),
    }
    let snap = Arc::new(snapshot_here(ctx, block_linear, threads, shared));
    let Some(cap) = ctx.cap.as_mut() else { return u64::MAX };
    cap.snapshots.push(snap);
    if cap.snapshots.len() > SNAPSHOT_CAP {
        let mut idx = 0usize;
        cap.snapshots.retain(|_| {
            idx += 1;
            idx.is_multiple_of(2)
        });
        cap.stride = cap.stride.saturating_mul(2);
    }
    cap.next_due = ctx.counts.total.saturating_add(cap.stride);
    cap.next_due
}

/// The current state as an [`EngineSnapshot`].
fn snapshot_here(
    ctx: &Ctx<'_>,
    block_linear: u32,
    threads: &[Thread],
    shared: &SharedMemory,
) -> EngineSnapshot {
    let mut regs = Vec::with_capacity(threads.len() * ctx.kernel.decoded().reg_file_len());
    let threads = threads.iter().map(|t| t.to_state(&mut regs)).collect();
    EngineSnapshot {
        counts: ctx.counts.clone(),
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
/// [`Executed::handoff`] and ask for nothing more (`u64::MAX`). Until then
/// returns the first dynamic count at which a round top may hand off.
///
/// Within a round every running lane retires at most one instruction,
/// and each instruction ticks a trigger counter at most once. So while
/// the counter plus the running lanes stays at or below the trigger, the
/// plan cannot fire before the next round top, and the first round top
/// past that is the last one known to precede the fault. The snapshot is
/// taken there, before the hidden round tick, like a golden capture; a
/// state no further on than where the run started is not handed off.
/// Until the plan fires only a barrier release brings lanes back, so no
/// round top below `now + gap + 1 - lanes` hands off.
#[inline(never)]
fn hand_off(
    ctx: &mut Ctx<'_>,
    block_linear: u32,
    threads: &[Thread],
    shared: &SharedMemory,
    running: &Running,
) -> u64 {
    let Some(from) = ctx.handoff_from else { return u64::MAX };
    // `None` when nothing is handed off.
    let gap = ctx.trigger_gap();
    if let Some(wait) = gap.and_then(|gap| gap.checked_sub(running.lanes())) {
        return ctx.counts.total.saturating_add(wait).saturating_add(1);
    }
    if gap.is_some() && ctx.counts.total > from && !ctx.fault_triggered {
        ctx.handoff = Some(Arc::new(snapshot_here(ctx, block_linear, threads, shared)));
    }
    ctx.handoff_from = None;
    u64::MAX
}

impl Ctx<'_> {
    /// How many more ticks the trigger counter needs to reach the
    /// trigger; `None` when the plan has no trigger or the counter is
    /// past it.
    #[inline(always)]
    fn trigger_gap(&self) -> Option<u64> {
        let t = self.trigger?;
        t.value.checked_sub(t.count(&self.counts))
    }

    /// Whether the plan acts at the fetch (see [`turn`]).
    fn lane_fetch(&self) -> bool {
        self.trigger.is_some_and(|t| t.stage == Stage::Fetch)
    }
}

/// Instructions from the round top a plan is first seen fired at to the
/// repeat exit's first save; each later save waits twice as long as the
/// one before.
const REPEAT_FIRST_SAVE: u64 = 64;

/// The repeat exit's state in one block (see [`repeat_exit`]).
struct Repeat {
    /// The dynamic count the next save falls due at; `None` until the
    /// plan has fired.
    next_save: Option<u64>,
    /// Instructions from the last save, or from the round top the plan
    /// was first seen fired at, to the next save: [`REPEAT_FIRST_SAVE`],
    /// doubled at each save.
    spacing: u64,
    /// The last save's state and the rounds run by then, compared at the
    /// next round top. Boxed, so `run_block`'s frame stays small.
    saved: Option<Box<(EngineSnapshot, u64)>>,
}

impl Repeat {
    /// The repeat exit's state for a block of `ctx`'s run, if the exit may
    /// act in it: under a plan that goes on acting once it has fired (a
    /// fetch or stuck-at hidden plan), with a watchdog and with no sink,
    /// no sites record and no snapshot capture.
    fn armed(ctx: &Ctx<'_>) -> Option<Repeat> {
        let armed = ctx.trigger.is_some_and(|t| !t.fires_once())
            && ctx.sink.is_none()
            && ctx.record.is_none()
            && ctx.cap.is_none()
            && ctx.opts.watchdog_limit != u64::MAX;
        armed.then_some(Repeat { next_save: None, spacing: REPEAT_FIRST_SAVE, saved: None })
    }
}

/// At a scheduler round top of block `block`: end a hang whose state has
/// come back to itself at the watchdog, by whole periods (DESIGN.md §16,
/// "Repeat exit"). Once the plan has fired, the state is saved at spaced
/// round tops, the first [`REPEAT_FIRST_SAVE`] instructions after the
/// plan is first seen fired and each later one twice as far on as the
/// last, and compared at the round top after each save: every thread's
/// pc, scheduler state, predicates and registers, then shared and global
/// memory with their latent corruption. A fired plan of this kind acts
/// through that state and through trigger tests that stay true once
/// they are true, so an equal state repeats what the round between added
/// for as long as the run goes on: its `d` instructions, every count and
/// the rounds. The exit adds `k = (watchdog_limit -
/// now) / d - 1` such periods at once, so at least one period still runs
/// and the watchdog trips at the instruction it would have tripped at.
///
/// Returns the first count at which it may act again: before the plan
/// fires, the earliest count it can fire at (as [`rejoin_here`]); then
/// the next save, or the round top after a save; and never once the exit
/// is taken, or while a hand-off is still to come. Kept out of line like
/// [`rejoin_here`].
#[inline(never)]
fn repeat_exit(
    ctx: &mut Ctx<'_>,
    repeat: &mut Option<Repeat>,
    block: u32,
    threads: &[Thread],
    shared: &SharedMemory,
) -> u64 {
    let Some(rp) = repeat.as_mut().filter(|_| ctx.handoff_from.is_none()) else {
        return u64::MAX;
    };
    let now = ctx.counts.total;
    if !ctx.fault_triggered {
        return now.saturating_add(ctx.trigger_gap().unwrap_or(0));
    }
    if let Some(saved) = rp.saved.take() {
        let (snap, rounds) = &*saved;
        let d = now - snap.counts.total;
        let room = ctx.opts.watchdog_limit.saturating_sub(now);
        let k = room.checked_div(d).and_then(|n| n.checked_sub(1)).filter(|&k| k > 0);
        let same = || {
            threads.iter().enumerate().all(|(t, th)| th.is(&snap.threads[t], snap.thread_regs(t)))
                && *shared == snap.shared
                && ctx.global == snap.global
        };
        if let Some(k) = k.filter(|_| same()) {
            ctx.counts.add_periods(&snap.counts, k);
            ctx.rounds += k * (ctx.rounds - rounds);
            ctx.repeat_skipped += k * d;
            *repeat = None;
            return u64::MAX;
        }
    }
    let due = *rp.next_save.get_or_insert(now.saturating_add(rp.spacing));
    if now < due {
        return due;
    }
    rp.saved = Some(Box::new((snapshot_here(ctx, block, threads, shared), ctx.rounds)));
    rp.spacing = rp.spacing.saturating_mul(2);
    rp.next_save = Some(now.saturating_add(rp.spacing));
    now + 1
}

fn run_block(
    ctx: &mut Ctx<'_>,
    windows: &mut Windows,
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
                    regs: vec![0; ctx.kernel.decoded().reg_file_len()].into_boxed_slice(),
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
    // A fetch fault rewrites the pc of the lanes about to fetch, so under
    // a fetch plan a turn's lanes go on their own until the plan fires
    // (see [`turn`]), and no window or lone-lane stretch runs.
    let lane_fetch = ctx.lane_fetch();
    let lone_lane = unobserved(ctx);
    let mut repeat = Repeat::armed(ctx);
    // The first dynamic count at which a round top may do more than start
    // the round: the least of the counts its five actions return when
    // they run. A round top below it skips them (DESIGN.md §16, "One
    // horizon").
    let mut horizon = 0;
    let block_pos = WarpPos {
        bx,
        by,
        block: block_linear,
        in_block: 0,
        global: block_linear as usize * warps_per_block,
    };
    // A round top may run this round and the next ones as one window,
    // where the warps diverge enough and nothing can tell (DESIGN.md §16,
    // "Windows").
    macro_rules! window {
        () => {
            windows.due(ctx.rounds)
                && open_window(
                    ctx,
                    windows,
                    &mut threads,
                    &mut shared,
                    &mut running,
                    block_pos,
                    horizon,
                )
        };
    }

    loop {
        let mut round = RoundHidden::default();
        if ctx.counts.total >= horizon {
            let capture = capture_snapshot(ctx, block_linear, &threads, &shared);
            horizon = capture.min(hand_off(ctx, block_linear, &threads, &shared, &running));
            match rejoin_here(ctx, block_linear, &threads, &shared) {
                ControlFlow::Break(rejoined) => return Ok(Some(rejoined)),
                ControlFlow::Continue(next) => horizon = horizon.min(next),
            }
            horizon = horizon.min(repeat_exit(ctx, &mut repeat, block_linear, &threads, &shared));
            let (hidden, next) = hidden_round_tick(ctx, &mut threads, &mut running);
            (round, horizon) = (hidden, horizon.min(next));
        }
        if running.live == 0 {
            return Ok(None);
        }
        ctx.rounds += 1;
        let windowed = round.skip.is_none() && window!();
        let mut progress = windowed;
        let mut starved = false;

        for w in 0..nwarps {
            if windowed || running.masks[w] == 0 {
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
            let at = WarpPos { in_block: w as u32, global: block_pos.global + w, ..block_pos };
            // A lone warp whose turn retired an instruction takes its
            // turn in the next round at once: the rest of this round
            // skips every other warp and releases no barrier, and the
            // round tops before `horizon` do nothing but start the round.
            // A lone running lane steps on its own where nothing can
            // tell (DESIGN.md §16, "Straggler rounds"), and each later
            // turn is a round top that may open a window.
            let mut top = false;
            loop {
                let retired = (top && window!())
                    || turn(ctx, &mut threads, &mut shared, &mut running, at, lane_fetch)?;
                progress |= retired;
                if !retired || running.live != 1 || running.masks[w] == 0 {
                    break;
                }
                if lone_lane && running.masks[w].is_power_of_two() {
                    let lane = running.masks[w];
                    step_lone_lane(ctx, &mut threads, &mut shared, at, lane, horizon)?;
                }
                if ctx.counts.total >= horizon {
                    break;
                }
                ctx.rounds += 1;
                progress = false; // the next round's, so far
                top = true;
            }
        }

        // Barrier-counter corruption: armed from the trigger instant on;
        // a transient fault perturbs the first barrier episode it
        // reaches, a stuck-at fault perturbs every one.
        let barrier_fault = match ctx.opts.fault {
            FaultPlan::BarrierCounter { at, phantom, persist }
                if ctx.counts.total >= at
                    && !(persist == Persistence::Transient && ctx.fault_triggered) =>
            {
                Some(phantom)
            }
            _ => None,
        };

        // Barrier release: no lane running, so every live thread waits.
        // Released lanes run again, so the next round top runs its
        // actions afresh; the hidden tick holds the horizon at a barrier
        // plan's `at` until a phantom release.
        if running.live == 0 {
            if barrier_fault == Some(false) {
                // Lost arrival: the counter is short one and never
                // reaches zero — the barrier hangs.
                hidden_fault_fired(ctx, ctx.counts.total, 0);
                return Err(DueKind::BarrierDeadlock);
            }
            release_barrier(ctx, &mut threads, &mut running, block_linear);
            (progress, horizon) = (true, 0);
        } else if barrier_fault == Some(true)
            && threads.iter().any(|t| t.state == TState::AtBarrier)
        {
            // Phantom arrival: the counter hits zero early and releases
            // the lanes already waiting while stragglers are still on
            // their way (they will gather at the barrier again and the
            // regular release picks them up — skewed, not hung).
            hidden_fault_fired(ctx, ctx.counts.total, 1);
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
/// the turn began once, then refold the warp's running lanes if one of
/// them may have arrived at the barrier or exited. Returns whether an
/// instruction retired: a warp-synchronous op whose lanes have not all
/// arrived retires none.
///
/// The lanes go in lane order, a run of consecutive lanes at one pc at a
/// time ([`take_run`]). Under a fetch plan (`lane_fetch`) each run passes
/// through the fetch hook ([`hidden_fetch_fault`]) first, and a run is
/// one lane until the plan has fired, so the lane it fires on goes alone,
/// or always with a sink attached, which sees each lane fetch in lane
/// order. Once a plan has fired, every fetch of pc `p` reads the same
/// `f(p)` whichever lane makes it, so a stuck-at plan moves a whole run
/// at once and a spent transient one leaves runs as they are. This is
/// the path of every turn no window ([`open_window`]) covers, divergent
/// or not.
fn turn(
    ctx: &mut Ctx<'_>,
    threads: &mut [Thread],
    shared: &mut SharedMemory,
    running: &mut Running,
    at: WarpPos,
    lane_fetch: bool,
) -> Result<bool, DueKind> {
    // Take the kernel's tables out of `ctx` so instruction borrows are
    // independent of the `&mut ctx` passed to the executors.
    let (instrs, metas) = (ctx.kernel.instrs(), ctx.kernel.decoded().metas());
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
        let alone = lane_fetch && (ctx.sink.is_some() || !ctx.fault_triggered);
        let (mut pc, run) = take_run(threads, lo, &mut pending, alone);
        if lane_fetch {
            pc = hidden_fetch_fault(ctx, threads, lo, run, pc)?;
        }
        if pc as usize >= instrs.len() {
            return Err(DueKind::IllegalPc);
        }
        let (ins, meta) = (&instrs[pc as usize], &metas[pc as usize]);

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
        if ctx.sink.is_none() && run.count_ones() as u64 <= quiet_span(ctx, Some(meta)) {
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

/// Take a run off `pending` (bit `i` stands for lane `lo + i`): its first
/// lane and the lanes after it at the same pc, up to the first one at
/// another pc, or the first lane alone when `alone`: under a fetch plan
/// that has not fired, whose hook must see each lane's fetch at its own
/// dynamic count, or under any fetch plan with a sink attached (see
/// [`turn`]). Returns the run's pc and lanes.
#[inline(always)]
fn take_run(threads: &[Thread], lo: usize, pending: &mut u32, alone: bool) -> (u32, u32) {
    let pc = threads[lo + pending.trailing_zeros() as usize].pc;
    let mut run = 0u32;
    while *pending != 0 && threads[lo + pending.trailing_zeros() as usize].pc == pc {
        run |= *pending & pending.wrapping_neg();
        *pending &= *pending - 1;
        if alone {
            break;
        }
    }
    (pc, run)
}

/// Whether nothing but the fault hooks and the watchdog, which
/// [`quiet_span`] rules out, can tell the order lanes issue in: no sink
/// watches, no sites record is kept and no fetch plan rewrites pcs. A
/// fetch plan moves the runs of a turn ([`turn`]), but a window or a lone
/// lane's stretch has no fetch hook, so it keeps both off.
fn unobserved(ctx: &Ctx<'_>) -> bool {
    !ctx.lane_fetch() && ctx.sink.is_none() && ctx.record.is_none()
}

/// Step the one running lane of lone warp `at` (`lane` is its bit in the
/// warp's mask) on its own, one instruction per round, through the
/// run-wide body, while the dynamic count stays below the round tops'
/// `horizon` and within [`quiet_span`], so no round top between acts and
/// no fault hook or watchdog can fire. Each instruction is a whole round:
/// no other warp has a running lane, and this warp's turn is the one
/// step. A `BAR`, an `EXIT`, a warp-synchronous op and a pc outside the
/// kernel are left to [`turn`].
fn step_lone_lane(
    ctx: &mut Ctx<'_>,
    threads: &mut [Thread],
    shared: &mut SharedMemory,
    at: WarpPos,
    lane: u32,
    horizon: u64,
) -> Result<(), DueKind> {
    let (instrs, metas) = (ctx.kernel.instrs(), ctx.kernel.decoded().metas());
    let th = at.in_block as usize * WARP_SIZE as usize + lane.trailing_zeros() as usize;
    let end = horizon.min(ctx.counts.total.saturating_add(quiet_span(ctx, None)));
    while ctx.counts.total < end {
        let pc = threads[th].pc as usize;
        let Some(meta) = metas.get(pc) else { break };
        if meta.is_warp_sync || matches!(meta.op, Op::Bar | Op::Exit) {
            break;
        }
        ctx.rounds += 1;
        step::<true>(ctx, &instrs[pc], meta, threads, lane, at, shared)?;
    }
    Ok(())
}

/// Rounds a window waits before testing for divergence again, after a
/// test found too little.
const RETEST_ROUNDS: u64 = 32;

/// A window opens only where the block's turns would issue at least one
/// run past each warp's first for every this many running lanes: a
/// window's bookkeeping costs every running lane a little, converged
/// warps' lanes included, and only the runs it merges pay for that. A
/// FMXM block, whose warps stay converged but for a lane a fault sends
/// astray, opens none.
const LANES_PER_EXTRA_RUN: u64 = 8;

/// A run's windowed issue (DESIGN.md §16, "Windows"): whether a window
/// may ever open, the round count from which one may be tried again,
/// what the windows did, and their buffers, made when the first window
/// opens and reused for the rest of the run.
struct Windows {
    /// Nothing but the fault hooks, the watchdog and the round tops can
    /// tell the order lanes issue in: no sink, no sites record, no fetch
    /// plan (whose hook only a turn runs, fired or not), and no
    /// warp-synchronous op in the kernel; and the block's threads fit a
    /// [`Claim`]. A capture's round tops bound a window
    /// through the horizon, and its exit recorder is rolled back with it.
    allowed: bool,
    next_try: u64,
    opened: u64,
    rolled_back: u64,
    bufs: Option<Box<WindowBufs>>,
}

impl Windows {
    fn new(ctx: &Ctx<'_>) -> Windows {
        let allowed = unobserved(ctx)
            && !ctx.kernel.decoded().warp_sync()
            && ctx.launch.block.count() <= Claim::LANES as u64;
        Windows { allowed, next_try: 0, opened: 0, rolled_back: 0, bufs: None }
    }

    /// Whether the round top of round `rounds` may try a window.
    #[inline]
    fn due(&self, rounds: u64) -> bool {
        self.allowed && rounds >= self.next_try
    }
}

/// What a window needs besides the engine state: where each warp's lanes
/// wait, the memory words it claimed, and the state it started from.
struct WindowBufs {
    /// Per pc, the lanes of the issuing warp waiting there, and one bit
    /// per pc whose lanes are not empty.
    at_pc: Vec<u32>,
    occupied: Vec<u64>,
    /// The window being run, which marks its claims.
    epoch: u16,
    global: Claims,
    shared: Claims,
    /// The running lanes' registers, predicates, pcs and states, in lane
    /// order, and the counts, as the window found them.
    regs: Vec<u32>,
    states: Vec<ThreadState>,
    counts: Counts,
    /// In a run that builds an exit table, the recorder as the window
    /// found it.
    recorder: Option<ExitRecorder>,
}

impl WindowBufs {
    fn new(ctx: &Ctx<'_>, shared: &SharedMemory) -> WindowBufs {
        let pcs = ctx.kernel.len();
        WindowBufs {
            at_pc: vec![0; pcs],
            occupied: vec![0; pcs.div_ceil(64)],
            epoch: 0,
            global: Claims::new(ctx.global.words()),
            shared: Claims::new(shared.flat().words()),
            regs: Vec::new(),
            states: Vec::new(),
            counts: Counts::default(),
            recorder: None,
        }
    }

    /// Wait lane `i` of the issuing warp at `pc`.
    #[inline]
    fn park(&mut self, pc: usize, i: usize) {
        self.at_pc[pc] |= 1 << i;
        self.occupied[pc / 64] |= 1 << (pc % 64);
    }

    /// Take the lanes at the lowest pc any lane of the issuing warp waits
    /// at, with that pc.
    #[inline]
    fn take_lowest(&mut self) -> Option<(usize, u32)> {
        let k = self.occupied.iter().position(|&bits| bits != 0)?;
        let pc = k * 64 + self.occupied[k].trailing_zeros() as usize;
        self.occupied[k] &= self.occupied[k] - 1;
        Some((pc, std::mem::take(&mut self.at_pc[pc])))
    }

    /// Start a window: save the running lanes' state, the counts and the
    /// exit recorder, and drop the last window's claims.
    fn save(&mut self, ctx: &Ctx<'_>, threads: &[Thread], running: &Running) {
        self.regs.clear();
        self.states.clear();
        for t in running_threads(running) {
            self.states.push(threads[t].to_state(&mut self.regs));
        }
        self.counts.copy_from(&ctx.counts);
        if self.epoch == u16::MAX {
            self.global.reset();
            self.shared.reset();
            self.epoch = 0;
        }
        self.epoch += 1;
        self.global.undo.clear();
        self.shared.undo.clear();
        self.recorder = ctx.cap.as_ref().and_then(|c| c.exit.clone());
    }

    /// Put back everything the window changed: the running lanes' state,
    /// the memory words it wrote, the exit recorder, the counts and the
    /// dynamic count.
    fn restore(
        &mut self,
        ctx: &mut Ctx<'_>,
        threads: &mut [Thread],
        shared: &mut SharedMemory,
        running: &Running,
    ) {
        let n = ctx.kernel.decoded().reg_file_len();
        for (k, t) in running_threads(running).enumerate() {
            let (th, st) = (&mut threads[t], &self.states[k]);
            th.regs.copy_from_slice(&self.regs[k * n..(k + 1) * n]);
            (th.preds, th.pc, th.state) = (st.preds, st.pc, st.state);
        }
        for (claims, memory) in [(&self.global, &mut ctx.global), (&self.shared, shared.flat_mut())]
        {
            for &(w, old) in &claims.undo {
                memory.set_word(w as usize, old);
            }
        }
        if let (Some(rec), Some(saved)) =
            (ctx.cap.as_mut().and_then(|c| c.exit.as_mut()), self.recorder.take())
        {
            *rec = saved;
        }
        ctx.counts.copy_from(&self.counts);
        self.at_pc.fill(0);
        self.occupied.fill(0);
    }
}

/// The block threads of `running`'s lanes, in lane order.
fn running_threads(running: &Running) -> impl Iterator<Item = usize> + '_ {
    running.masks.iter().enumerate().flat_map(|(w, &mask)| {
        let lo = w * WARP_SIZE as usize;
        (0..WARP_SIZE as usize).filter(move |i| mask & (1 << i) != 0).map(move |i| lo + i)
    })
}

/// The words of one memory space a window has claimed: per word, the
/// window that last claimed it and how, and the old value of each word
/// this window wrote, for a rollback.
struct Claims {
    words: Vec<Claim>,
    undo: Vec<(u32, u32)>,
}

/// One word's claim, four bytes like the word: the window that made it
/// (the epoch), and the claiming thread with the `WRITTEN` and
/// `READ_BY_OTHERS` flags.
#[derive(Clone, Copy, Default)]
struct Claim {
    epoch: u16,
    lane: u16,
}

impl Claim {
    const WRITTEN: u16 = 1 << 15;
    const READ_BY_OTHERS: u16 = 1 << 14;
    /// Blocks of more threads than this open no window.
    const LANES: usize = 1 << 14;
}

impl Claims {
    fn new(words: usize) -> Claims {
        Claims { words: vec![Claim::default(); words], undo: Vec::new() }
    }

    /// Forget every epoch's claims, for epochs to count from 1 again.
    fn reset(&mut self) {
        self.words.fill(Claim::default());
    }

    /// Claim word `w` of `memory` for thread `lane` in window `epoch`, to
    /// write or to read. Fails where one lane would read a word another
    /// writes, or two lanes would write one word. A word's first write
    /// notes its old value.
    #[inline]
    fn claim(
        &mut self,
        memory: &GlobalMemory,
        epoch: u16,
        w: usize,
        lane: u16,
        write: bool,
    ) -> bool {
        let c = &mut self.words[w];
        if c.epoch != epoch {
            *c = Claim { epoch, lane };
        } else if c.lane & !(Claim::WRITTEN | Claim::READ_BY_OTHERS) != lane {
            // Another lane's word: lanes may only share reads.
            if write || c.lane & Claim::WRITTEN != 0 {
                return false;
            }
            c.lane |= Claim::READ_BY_OTHERS;
            return true;
        }
        if !write {
            return true;
        }
        if c.lane & Claim::READ_BY_OTHERS != 0 {
            return false;
        }
        if c.lane & Claim::WRITTEN == 0 {
            c.lane |= Claim::WRITTEN;
            self.undo.push((w as u32, memory.word(w)));
        }
        true
    }
}

/// The most rounds a window opened at this round top may cover, with
/// `lanes` lanes running: the largest `R` such that every round top
/// inside it lies below `horizon` (`counts.total + (R - 1) * lanes <
/// horizon`) and its at most `R * lanes` instructions lie within
/// [`quiet_span`].
fn window_rounds(ctx: &Ctx<'_>, horizon: u64, lanes: u64) -> u64 {
    if horizon <= ctx.counts.total || lanes == 0 {
        return 0;
    }
    let below_horizon = (horizon - 1 - ctx.counts.total) / lanes + 1;
    below_horizon.min(quiet_span(ctx, None) / lanes)
}

/// How many more runs of adjacent same-pc lanes than warps the block's
/// next turns would issue, counting the warps with running lanes; `None`
/// when a lane's pc has left the kernel, which lane order reports.
fn extra_runs(threads: &[Thread], running: &Running, pcs: usize) -> Option<u64> {
    let mut extra = 0;
    for (w, &mask) in running.masks.iter().enumerate() {
        if mask == 0 {
            continue;
        }
        let lo = w * WARP_SIZE as usize;
        let mut last = threads[lo + mask.trailing_zeros() as usize].pc;
        let mut rest = mask;
        while rest != 0 {
            let pc = threads[lo + rest.trailing_zeros() as usize].pc;
            rest &= rest - 1;
            if pc as usize >= pcs {
                return None;
            }
            extra += u64::from(pc != last);
            last = pc;
        }
    }
    Some(extra)
}

/// At a round top where the block's warps diverge enough (see
/// [`LANES_PER_EXTRA_RUN`]), run the next rounds as one window
/// (DESIGN.md §16, "Windows") and return whether it ran: each warp's
/// lanes issue by pc, lowest pc first, so lanes that reach one pc in
/// different rounds go through one step. Each lane runs
/// at most [`window_rounds`] instructions and stops at a `BAR` or
/// `EXIT`, and the window adds the most instructions any lane ran to the
/// rounds, this round included.
///
/// A window that would let one lane read a word another writes, or two
/// lanes write one word, that raises a DUE, or that sends a lane outside
/// the kernel, is rolled back to its start and returns `false`; lane
/// order then runs the rounds it reached. Kept out of line, like
/// [`rejoin_here`], so `run_block`'s loop keeps its size; a run in which
/// no window may open never calls it.
#[inline(never)]
fn open_window(
    ctx: &mut Ctx<'_>,
    win: &mut Windows,
    threads: &mut [Thread],
    shared: &mut SharedMemory,
    running: &mut Running,
    block: WarpPos,
    horizon: u64,
) -> bool {
    // A miss backs off, for latent corruption, a fault hook or the
    // watchdog may stay within two rounds for the rest of the run. Two
    // do not: a horizon within two rounds is passed a round or so later,
    // and its round top sets the next one; a pc outside the kernel ends
    // the run in this round.
    if ctx.global.corrupted_words() != 0 || shared.corrupted_words() != 0 {
        win.next_try = ctx.rounds + RETEST_ROUNDS;
        return false;
    }
    let lanes = running.lanes();
    let rounds = window_rounds(ctx, horizon, lanes);
    if rounds < 2 {
        if quiet_span(ctx, None) < 2 * lanes {
            win.next_try = ctx.rounds + RETEST_ROUNDS;
        }
        return false;
    }
    match extra_runs(threads, running, ctx.kernel.len()) {
        Some(extra) if extra > 0 && extra * LANES_PER_EXTRA_RUN >= lanes => {}
        Some(_) => {
            win.next_try = ctx.rounds + RETEST_ROUNDS;
            return false;
        }
        None => return false,
    }
    let bufs = win.bufs.get_or_insert_with(|| Box::new(WindowBufs::new(ctx, shared)));
    bufs.save(ctx, threads, running);
    win.opened += 1;
    match run_window(ctx, bufs, threads, shared, running, block, rounds) {
        Ok(most) => {
            ctx.rounds += most - 1;
            for w in 0..running.masks.len() {
                if running.masks[w] != 0 {
                    running.refold(threads, w);
                }
            }
            true
        }
        Err(most) => {
            bufs.restore(ctx, threads, shared, running);
            win.rolled_back += 1;
            win.next_try = ctx.rounds + most.max(1);
            false
        }
    }
}

/// Run a window of at most `rounds` rounds over the running lanes, warp
/// by warp. Returns the most instructions a lane ran, as `Err` when the
/// window must roll back.
fn run_window(
    ctx: &mut Ctx<'_>,
    bufs: &mut WindowBufs,
    threads: &mut [Thread],
    shared: &mut SharedMemory,
    running: &Running,
    block: WarpPos,
    rounds: u64,
) -> Result<u64, u64> {
    let (instrs, metas) = (ctx.kernel.instrs(), ctx.kernel.decoded().metas());
    let pcs = instrs.len();
    let mut most = 0;
    for (w, &mask) in running.masks.iter().enumerate() {
        if mask == 0 {
            continue;
        }
        let at = WarpPos { in_block: w as u32, global: block.global + w, ..block };
        let lo = w * WARP_SIZE as usize;
        let mut ran = [0u64; WARP_SIZE as usize];
        let mut rest = mask;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            bufs.park(threads[lo + i].pc as usize, i);
        }
        while let Some((pc, group)) = bufs.take_lowest() {
            let (ins, meta) = (&instrs[pc], &metas[pc]);
            let claimed =
                !meta.is_mem_op || claim_group(ctx, bufs, shared, ins, meta, threads, lo, group);
            if !claimed || step::<true>(ctx, ins, meta, threads, group, at, shared).is_err() {
                return Err(most.max(1 + ran.iter().copied().max().unwrap_or(0)));
            }
            let mut lanes = group;
            while lanes != 0 {
                let i = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                ran[i] += 1;
                let th = &threads[lo + i];
                if th.state != TState::Running || ran[i] == rounds {
                    continue;
                }
                if th.pc as usize >= pcs {
                    return Err(most.max(ran[i] + 1));
                }
                bufs.park(th.pc as usize, i);
            }
        }
        most = most.max(ran.iter().copied().max().unwrap_or(0));
    }
    Ok(most)
}

/// Claim the words the guard-passing lanes of `group` (lanes of the warp
/// whose first thread is `lo`) touch at memory op `ins`, checking that
/// each address lies in its space and is aligned. Returns whether every
/// claim held.
#[allow(clippy::too_many_arguments)]
fn claim_group(
    ctx: &Ctx<'_>,
    bufs: &mut WindowBufs,
    shared: &SharedMemory,
    ins: &Instr,
    meta: &InstrMeta,
    threads: &[Thread],
    lo: usize,
    group: u32,
) -> bool {
    let Some(MemOp { global, stores: write, bytes, .. }) = ins.op.mem() else { return false };
    let (claims, memory) =
        if global { (&mut bufs.global, &ctx.global) } else { (&mut bufs.shared, shared.flat()) };
    let (a, b) = (Src::of(ins.srcs[0]), Src::of(ins.srcs[1]));
    let mut lanes = group;
    while lanes != 0 {
        let i = lanes.trailing_zeros() as usize;
        lanes &= lanes - 1;
        let th = &threads[lo + i];
        if !meta.guard.is_none_or(|g| g.passes(th.pred(g.pred))) {
            continue;
        }
        let addr = a.u32(th).wrapping_add(b.u32(th));
        if !addr.is_multiple_of(bytes)
            || u64::from(addr) + u64::from(bytes) > u64::from(memory.len())
        {
            return false;
        }
        for word in addr / 4..=(addr + bytes - 1) / 4 {
            if !claims.claim(memory, bufs.epoch, word as usize, (lo + i) as u16, write) {
                return false;
            }
        }
    }
    true
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
            TraceEvent::BarrierRelease {
                idx: ctx.counts.total,
                block: block_linear,
                lanes: released
            }
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

/// How many of the next lanes to retire can do so without a fault hook
/// firing at any of them and without the watchdog tripping: executing
/// the instruction `meta` describes, or any instructions for `None`. They
/// take the next dynamic indices, and tick the site count a fault hook
/// numbers its `nth` in at most once apiece, and only for an instruction
/// in the hook's class.
#[inline]
fn quiet_span(ctx: &Ctx<'_>, meta: Option<&InstrMeta>) -> u64 {
    let room = ctx.opts.watchdog_limit.saturating_sub(ctx.counts.total);
    // Only a plan that acts in a step has a hook there, and only an
    // instruction that ticks its counter can reach it. The others act
    // between rounds, or at a run's fetch before it issues ([`turn`]).
    let Some(t) =
        ctx.trigger.filter(|t| t.stage == Stage::Step && meta.is_none_or(|m| t.ticked_by(m)))
    else {
        return room;
    };
    let gap = ctx.trigger_gap();
    let hooked = match t.persist {
        // Ticks before the counter reaches the trigger; none ever do
        // once the counter is past it.
        Persistence::Transient => gap.unwrap_or(u64::MAX),
        // A stuck-at queue corrupts every entry from `nth` on. Once it
        // has fired, a run applies the corruption to each of its memory
        // lanes itself ([`Access::new`]); any instructions (`None`, a
        // window or a lone lane's stretch) still stop here.
        Persistence::StuckAt if meta.is_some() && ctx.fault_triggered => u64::MAX,
        Persistence::StuckAt => gap.unwrap_or(0),
    };
    room.min(hooked)
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

/// [`fault_fired`] for hidden-resource plans, the first time one fires:
/// a stuck-at plan that re-applies its corruption every round, barrier
/// episode, fetch or queue entry still emits one event. Returns whether
/// this was the first firing.
#[cold]
fn hidden_fault_fired(ctx: &mut Ctx<'_>, idx: u64, detail: u64) -> bool {
    let first = !ctx.fault_triggered;
    if first {
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
///
/// Also returns the first dynamic count at which a round top may need
/// the tick again: the plan's `at` for a scheduler, mask or barrier plan
/// until a transient one has fired. A barrier plan fires at the end of a
/// round, which a lone warp's back-to-back turns skip.
fn hidden_round_tick(
    ctx: &mut Ctx<'_>,
    threads: &mut [Thread],
    running: &mut Running,
) -> (RoundHidden, u64) {
    let nthreads = threads.len();
    let nwarps = running.masks.len();
    let warp_span = |warp: u32| {
        let w = warp as usize % nwarps.max(1);
        let lo = w * WARP_SIZE as usize;
        (w, lo, (lo + WARP_SIZE as usize).min(nthreads))
    };
    let round = match ctx.opts.fault {
        FaultPlan::SchedulerNextPc { at, warp, flip, persist } if ctx.counts.total >= at => {
            let first = hidden_fault_fired(ctx, ctx.counts.total, flip.mask);
            let (_, lo, hi) = warp_span(warp);
            let mask = flip.mask as u32;
            for th in threads[lo..hi].iter_mut().filter(|th| th.state == TState::Running) {
                match persist {
                    // The scheduler entry's next-pc field takes one upset.
                    Persistence::Transient if first => th.pc ^= mask,
                    // Stuck-at-one bits: re-asserted every round.
                    Persistence::StuckAt => th.pc |= mask,
                    Persistence::Transient => {}
                }
            }
            RoundHidden::default()
        }
        FaultPlan::SchedulerPriority { at, warp, persist } if ctx.counts.total >= at => {
            let first = hidden_fault_fired(ctx, ctx.counts.total, warp as u64);
            let (w, _, _) = warp_span(warp);
            match persist {
                Persistence::Transient if first => RoundHidden { skip: Some(w), stuck: false },
                Persistence::StuckAt => RoundHidden { skip: Some(w), stuck: true },
                Persistence::Transient => RoundHidden::default(),
            }
        }
        FaultPlan::ActiveMask { at, warp, flip, persist } if ctx.counts.total >= at => {
            let first = hidden_fault_fired(ctx, ctx.counts.total, flip.mask);
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
    };
    let next = match ctx.trigger {
        Some(t)
            if matches!(t.stage, Stage::RoundTop | Stage::RoundEnd)
                && !(ctx.fault_triggered && t.fires_once()) =>
        {
            t.value
        }
        _ => u64::MAX,
    };
    (round, next)
}

/// Fire a hidden fetch/decode fault for the run about to fetch pc `pc`
/// (bit `i` of `run` stands for thread `lo + i`): at the fetch of the
/// dynamic instruction numbered `at` (transient), or at every fetch from
/// that instant on (stuck-at). The fetch reads `pc - 1` (a stale replay)
/// or `pc` with the flip's bits flipped, the same for every lane, so the
/// whole run moves there; returns the pc the run fetched. A flipped
/// instruction index that leaves the kernel is detected at decode as a
/// [`DueKind::FetchFault`] on the run's first lane, before it moves.
/// Before the plan has fired, [`turn`] makes the run one lane, so the
/// plan fires on exactly the lane that fetches at `at`.
fn hidden_fetch_fault(
    ctx: &mut Ctx<'_>,
    threads: &mut [Thread],
    lo: usize,
    run: u32,
    pc: u32,
) -> Result<u32, DueKind> {
    let FaultPlan::Fetch { at, effect, persist } = ctx.opts.fault else {
        return Ok(pc);
    };
    let fire = match persist {
        Persistence::Transient => ctx.counts.total == at && !ctx.fault_triggered,
        Persistence::StuckAt => ctx.counts.total >= at,
    };
    if !fire {
        return Ok(pc);
    }
    let (detail, fetched) = match effect {
        FetchEffect::StaleReplay => (0, pc.saturating_sub(1)),
        FetchEffect::OpcodeFlip(flip) => (flip.mask, pc ^ flip.mask as u32),
    };
    hidden_fault_fired(ctx, ctx.counts.total, detail);
    if matches!(effect, FetchEffect::OpcodeFlip(_)) && fetched as usize >= ctx.kernel.len() {
        return Err(DueKind::FetchFault);
    }
    let mut lanes = run;
    while lanes != 0 {
        threads[lo + lanes.trailing_zeros() as usize].pc = fetched;
        lanes &= lanes - 1;
    }
    Ok(fetched)
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
    let idx = ctx.counts.total;
    account(ctx, meta, global_warp, 1);
    if ctx.counts.total > ctx.opts.watchdog_limit {
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

/// Note `n` dynamic GPR-writer sites at `pc`: the GPR-writer populations,
/// the writers of the instruction's unit and the provenance records.
/// Warp-wide MMA/SHFL sites count here too, once per warp.
#[inline(always)]
fn note_gpr_site(ctx: &mut Ctx<'_>, meta: &InstrMeta, pc: u32, n: u64) {
    ctx.counts.sites.gpr_writers += n;
    if meta.in_class(SiteClass::GprWriterNoHalf) {
        ctx.counts.sites.gpr_writers_no_half += n;
    }
    ctx.counts.unit_writers[meta.unit_index as usize] += n;
    if let Some(rec) = ctx.record.as_mut() {
        rec.site_pcs.extend(std::iter::repeat_n(pc, n as usize));
    }
}

/// Note `n` guard-passing executions of the scalar instruction at `pc`;
/// only guard-passing instructions are injectable. Ticks the site-class
/// populations and the per-unit writers with their provenance records:
/// the counts every positional fault hook numbers its `nth` in, which is why
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
    if meta.in_class(site) && ctx.counts.class_matches(site) == nth {
        let detail = match corruption {
            OutputCorruption::Flip(f) => f.mask,
            OutputCorruption::Set(v) => v,
        };
        fault_fired(ctx, ctx.counts.total - 1, detail);
        return Some(corruption);
    }
    None
}

/// Should a `MemAddress` fault fire for this memory op?
fn addr_fault(ctx: &mut Ctx<'_>) -> Option<BitFlip> {
    match ctx.opts.fault {
        FaultPlan::MemAddress { nth, flip } if ctx.counts.sites.mem_ops == nth => {
            fault_fired(ctx, ctx.counts.total - 1, flip.mask);
            Some(flip)
        }
        _ => None,
    }
}

/// Should a `MemQueue` fault fire for this memory op? Counts the same
/// dynamic memory-op enumeration [`addr_fault`] does. A stuck-at plan
/// corrupts every queue entry from `nth` onward: this hook fires it on a
/// lone lane, and once it has fired, a run-wide step applies its effect
/// to each memory lane without the hook ([`Access::new`]).
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
    hidden_fault_fired(ctx, ctx.counts.total - 1, my);
    Some(effect)
}

/// Should a `PredicateOutput` fault fire for this SETP?
fn pred_fault(ctx: &mut Ctx<'_>) -> bool {
    match ctx.opts.fault {
        FaultPlan::PredicateOutput { nth } if ctx.counts.sites.setp == nth => {
            fault_fired(ctx, ctx.counts.total - 1, 1);
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

/// A memory op's access, resolved once per run: its [`MemOp`], and what
/// a stuck-at memory queue does to each lane.
#[derive(Clone, Copy)]
struct Access {
    mem: MemOp,
    /// The effect of a stuck-at `MemQueue` plan that has fired, on every
    /// lane of a `BULK` run; `None` otherwise, and for a lone lane, whose
    /// hook applies it.
    queue: Option<MemQueueEffect>,
}

impl Access {
    /// The access of a run of `BULK` or lone lanes of memory op `op`.
    #[inline(always)]
    fn new<const BULK: bool>(ctx: &Ctx<'_>, op: Op) -> Access {
        let Some(mem) = op.mem() else { unreachable!("a memory op's arm") };
        let queue = match ctx.opts.fault {
            FaultPlan::MemQueue { effect, persist: Persistence::StuckAt, .. }
                if BULK && ctx.fault_triggered =>
            {
                Some(effect)
            }
            _ => None,
        };
        Access { mem, queue }
    }

    /// The address a lane's access reaches: `addr` with the lane's memory
    /// fault hooks applied (a lone lane only; a bulk run has none to
    /// fire, but applies a fired stuck-at queue's effect), reported to
    /// the sink and checked for alignment. `None` is a dropped queue
    /// entry, which never reaches memory: a load's or an atomic's
    /// destination keeps its stale value, and a store is lost.
    #[inline(always)]
    fn address<const BULK: bool>(
        self,
        ctx: &mut Ctx<'_>,
        th: &mut Thread,
        l: Lane,
        pc: u32,
        mut addr: u32,
    ) -> Result<Option<u32>, DueKind> {
        let queue = if BULK {
            self.queue
        } else {
            if let Some(flip) = addr_fault(ctx) {
                addr ^= flip.mask as u32;
            }
            memq_fault(ctx)
        };
        match queue {
            // Poisoned queue entry: detected at dispatch.
            Some(MemQueueEffect::Flag) => return Err(DueKind::MemQueueFault),
            Some(MemQueueEffect::Drop) => return Ok(None),
            // Un-retired entry: the same instruction issues again next
            // round.
            Some(MemQueueEffect::Replay) => th.pc = pc,
            None => {}
        }
        emit!(
            ctx,
            TraceEvent::MemAccess {
                idx: l.idx,
                space: if self.mem.global { MemSpace::Global } else { MemSpace::Shared },
                write: self.mem.stores,
                addr,
                bytes: self.mem.bytes,
            }
        );
        if !addr.is_multiple_of(self.mem.bytes) {
            return Err(DueKind::violation(self.mem));
        }
        Ok(Some(addr))
    }

    /// Read the access's bytes at `addr`; a global read is reported to
    /// the exit table under construction.
    #[inline(always)]
    fn read(self, ctx: &mut Ctx<'_>, shared: &mut SharedMemory, addr: u32) -> Result<u64, DueKind> {
        let MemOp { global, bytes, .. } = self.mem;
        let res = if global {
            ctx.global.device_read(addr, bytes, ctx.opts.ecc)
        } else {
            shared.device_read(addr, bytes, ctx.opts.ecc)
        };
        match res {
            Err(_) => Err(DueKind::violation(self.mem)),
            Ok((_, true)) => Err(DueKind::EccDoubleBit),
            Ok((value, false)) => {
                if global {
                    note_global(ctx, addr, bytes, false);
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
        let MemOp { global, bytes, .. } = self.mem;
        let res = if global {
            note_global(ctx, addr, bytes, true);
            ctx.global.device_write(addr, bytes, value)
        } else {
            shared.device_write(addr, bytes, value)
        };
        res.map_err(|_| DueKind::violation(self.mem))
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
                ctx.counts.total + self.ran
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
/// `run`, some of warp `at`'s lanes (bit `i` stands for lane `i` of the
/// warp): a run of adjacent lanes, a window's lanes at one pc, or a lone
/// lane. This is the one body every scalar op runs through.
///
/// The op, its sources, its destination and the site bookkeeping are
/// resolved once per run; each op arm then loops over the run's lanes,
/// doing only the lane's guard test, its arithmetic or memory access, its
/// write-back and its pc. A `BULK` run, one within [`quiet_span`] with no
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
    // A memory op's lanes, each reaching the address `a + b` names through
    // `acc` ([`Access::address`]) before its body runs; a dropped queue
    // entry skips the body. A run no fired stuck-at queue acts on goes
    // through a copy of the body whose access carries no queue effect, so
    // the body every workload runs tests none per lane.
    macro_rules! mem_lanes {
        ($acc:ident, |$ctx:ident, $shared:ident, $th:ident, $addr:ident| $body:expr) => {
            match $acc.queue {
                None => {
                    let $acc = Access { queue: None, ..$acc };
                    mem_lanes!(@each $acc, |$ctx, $shared, $th, $addr| $body)
                }
                Some(_) => mem_lanes!(@each $acc, |$ctx, $shared, $th, $addr| $body),
            }
        };
        (@each $acc:ident, |$ctx:ident, $shared:ident, $th:ident, $addr:ident| $body:expr) => {
            dispatch.each(ctx, threads, shared, |$ctx, $shared, $th, l| {
                let addr = a.u32($th).wrapping_add(b.u32($th));
                let Some($addr) = $acc.address::<BULK>($ctx, $th, l, pc, addr)? else {
                    return Ok(Write::None);
                };
                $body
            })
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
            let acc = Access::new::<BULK>(ctx, ins.op);
            mem_lanes!(acc, |ctx, shared, th, addr| {
                let value = acc.read(ctx, shared, addr)?;
                Ok(match w {
                    MemWidth::W64 => Write::W64(value),
                    _ => Write::W32(value as u32),
                })
            })
        }
        Op::Stg(w) | Op::Sts(w) => {
            let acc = Access::new::<BULK>(ctx, ins.op);
            mem_lanes!(acc, |ctx, shared, th, addr| {
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
            let acc = Access::new::<BULK>(ctx, ins.op);
            mem_lanes!(acc, |ctx, shared, th, addr| {
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
        account(ctx, meta, at.global, ran);
        return result;
    }
    result?;
    let lane = lo + run.trailing_zeros() as usize;
    apply_timed_faults(ctx, threads, lane, at.block, shared, ctx.counts.total - 1)
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
        let nth = ctx.trigger.map_or(0, |t| t.value);
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
        let nth = ctx.trigger.map_or(0, |t| t.value);
        let lane = (nth as usize) % width.max(1);
        results[lane] = c.apply32(results[lane]);
    }
    for (th, v) in warp.iter_mut().zip(results) {
        th.set_reg(ins.dst, v);
    }
}
