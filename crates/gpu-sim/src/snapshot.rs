//! Engine snapshots: the golden run's architectural state at periodic
//! dynamic-instruction barriers, so injection trials can fast-forward
//! past their fault-free prefix (DESIGN.md §16).
//!
//! A snapshot captures everything the engine's state is a function of at
//! a block-scheduler round boundary: the register file and predicates of
//! every thread of the resident block, the block's shared memory, global
//! memory (including latent ECC corruption — the scrub position), the
//! dynamic-instruction counter, the accumulated [`Counts`], and the
//! per-site-class tallies the output fault hook counts against. Resuming
//! from a snapshot ([`crate::RunOptions::resume_from`]) reproduces the
//! from-zero execution bit-for-bit **provided the fault site does not
//! precede the snapshot** ([`EngineSnapshot::precedes`]); the latest
//! snapshot that qualifies is the one [`trigger_position`] places the
//! plan after.
//!
//! The parity argument: before a trial's fault fires, the trial executes
//! exactly the golden instruction stream (a single [`FaultPlan`] has no
//! architectural effect until its trigger), so the golden run's state at
//! any earlier round boundary *is* the trial's state at that boundary.
//! The same argument lets a trial hand its own state at a round top just
//! before its trigger to a later trial ([`crate::RunOptions::hand_off`]):
//! that snapshot is as good as one golden would have captured there.
//!
//! A capturing golden run also builds an [`ExitTable`], which lets a
//! trial skip the other end of its run once its fault is spent: the
//! blocks after one it ends in, once they provably run as in golden, or
//! the rest of the run from a snapshot whose state it rejoins.

use crate::engine::{Counts, ThreadState};
use crate::fault::{FaultPlan, Trigger};
use crate::memory::{GlobalMemory, SharedMemory};
use gpu_arch::decode::RegLiveness;
use gpu_arch::decode::{FP32_ARITH_UNITS, FP64_ARITH_UNITS, HALF_ARITH_UNITS, INT_ARITH_UNITS};
use gpu_arch::{FunctionalUnit, InstrMeta, Kernel, LaunchConfig, SiteClass};
use std::fmt;
use std::sync::Arc;

/// Maximum snapshots captured per run. When a capture would exceed the
/// cap, every other existing snapshot is dropped and the stride doubles —
/// memory stays bounded for arbitrarily long kernels while the snapshot
/// spacing degrades gracefully (geometric, not cliff-edge).
pub const SNAPSHOT_CAP: usize = 32;

/// Running populations of every output-hook enumeration: how many
/// guard-passing GPR-writer instructions of each [`SiteClass`] (and of
/// each functional unit, for [`SiteClass::Unit`] plans) a run has passed.
/// The output hook numbers a plan's `nth` in its class's tally, so a
/// resumed trial that starts from a snapshot's tallies numbers its sites
/// as a run from zero does.
///
/// Only the per-unit writers and the two classes that cut across units
/// are ticked. Every noted instruction writes a GPR, so the GprWriter
/// tally is the sum over units, and the float, half and integer
/// arithmetic classes are sums over their unit groups (the
/// correspondence `gpu_arch::decode` checks over every op).
///
/// Note this is **not** [`crate::SiteCounts`]: warp-level MMA ticks the
/// `GprWriterNoHalf` tally (an `FMMA` is a no-half writer) but not the
/// `gpr_writers_no_half` population.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct ClassTallies {
    /// [`SiteClass::GprWriterNoHalf`] matches.
    no_half: u64,
    /// [`SiteClass::Load`] matches.
    loads: u64,
    /// Guard-passing GPR writers per functional unit (the
    /// [`SiteClass::Unit`] populations).
    unit_writers: [u64; FunctionalUnit::COUNT],
}

impl ClassTallies {
    /// Account `n` executions of an instruction that reached the
    /// output-fault hook.
    #[inline]
    pub(crate) fn note(&mut self, meta: &InstrMeta, n: u64) {
        self.unit_writers[meta.unit_index as usize] += n;
        if meta.in_class(SiteClass::GprWriterNoHalf) {
            self.no_half += n;
        }
        if meta.is_load() {
            self.loads += n;
        }
    }

    /// Add `k` more periods to these tallies, a period being what they
    /// gained since `at` (the engine's repeat exit).
    pub(crate) fn add_periods(&mut self, at: &ClassTallies, k: u64) {
        let ClassTallies { no_half, loads, unit_writers } = self;
        let ClassTallies { no_half: at_no_half, loads: at_loads, unit_writers: at_unit } = at;
        let units = unit_writers.iter_mut().zip(at_unit);
        for (c, a) in [(no_half, at_no_half), (loads, at_loads)].into_iter().chain(units) {
            *c += k * (*c - a);
        }
    }

    /// Matches of `site` consumed so far.
    pub(crate) fn class_matches(&self, site: SiteClass) -> u64 {
        let units = |us: &[FunctionalUnit]| us.iter().map(|u| self.unit_writers[u.index()]).sum();
        match site {
            SiteClass::GprWriter => self.unit_writers.iter().sum(),
            SiteClass::GprWriterNoHalf => self.no_half,
            SiteClass::FloatArith => units(&FP32_ARITH_UNITS) + units(&FP64_ARITH_UNITS),
            SiteClass::HalfArith => units(&HALF_ARITH_UNITS),
            SiteClass::IntArith => units(&INT_ARITH_UNITS),
            SiteClass::Load => self.loads,
            SiteClass::Unit(u) => self.unit_writers[u.index()],
        }
    }
}

/// The engine's architectural state at one block-round boundary of a run,
/// sufficient to resume execution from that point (see the module doc for
/// the parity argument). Captured by [`crate::RunOptions::snapshot_stride`],
/// consumed by [`crate::RunOptions::resume_from`]. Two snapshots are equal
/// when every part of the state they hold is.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineSnapshot {
    /// Global dynamic-instruction counter at the capture point.
    pub(crate) dyn_count: u64,
    /// Accumulated execution statistics.
    pub(crate) counts: Counts,
    /// Fault-hook match tallies (see [`ClassTallies`]).
    pub(crate) tallies: ClassTallies,
    /// Global memory, including latent ECC corruption (the scrub state).
    pub(crate) global: GlobalMemory,
    /// Linear index of the block that was executing.
    pub(crate) block: u32,
    /// Per-thread predicates, pcs and scheduler states of the resident
    /// block.
    pub(crate) threads: Vec<ThreadState>,
    /// Every thread's register file, one after another, all of one
    /// length (see [`EngineSnapshot::thread_regs`]).
    pub(crate) regs: Vec<u32>,
    /// The resident block's shared memory.
    pub(crate) shared: SharedMemory,
    /// Resume refuses a snapshot whose fingerprint does not match.
    pub(crate) geometry: Geometry,
}

impl EngineSnapshot {
    /// The global dynamic-instruction counter at the capture point — how
    /// many instructions a trial resumed from this snapshot skips.
    pub fn dyn_count(&self) -> u64 {
        self.dyn_count
    }

    /// How many guard-passing sites of `site` the run had passed at the
    /// capture point: the first `nth` a positional plan of that class can
    /// still reach from here.
    pub fn class_matches(&self, site: SiteClass) -> u64 {
        self.tallies.class_matches(site)
    }

    /// True when `plan`'s trigger point lies at or after this snapshot:
    /// the counter its trigger is numbered in (class matches, memory ops,
    /// `SETP`s or the dynamic count) reads at most the trigger here, so
    /// resuming from here cannot skip the fault site. Every family, the
    /// stuck-at hidden plans included, touches no state before its
    /// trigger. [`FaultPlan::None`] has no trigger and never
    /// fast-forwards; a forced resume past a trigger is a
    /// [`crate::SimError::ResumeConflict`].
    pub fn precedes(&self, plan: &FaultPlan) -> bool {
        plan.trigger().is_some_and(|t| self.count(&t) <= t.value)
    }

    /// `t`'s counter read off this snapshot.
    fn count(&self, t: &Trigger) -> u64 {
        t.count(|c| self.tallies.class_matches(c), &self.counts.sites, self.dyn_count)
    }

    /// Approximate in-memory footprint in bytes (dominated by the memory
    /// images and register files). Used for cache size reporting.
    pub fn approx_bytes(&self) -> u64 {
        let fixed = 256u64;
        let counts = (self.counts.warp_latency.len() + self.counts.warp_instrs.len()) as u64 * 8;
        let global = self.global.len() as u64;
        let shared = self.shared.len() as u64;
        let threads = (self.threads.len() * std::mem::size_of::<ThreadState>()) as u64;
        fixed + counts + global + shared + threads + self.regs.len() as u64 * 4
    }

    /// Thread `t`'s registers.
    pub(crate) fn thread_regs(&self, t: usize) -> &[u32] {
        let file = self.regs.len() / self.threads.len().max(1);
        &self.regs[t * file..(t + 1) * file]
    }
}

/// Where `plan`'s trigger falls in a golden run that captured
/// `snapshots` and ended with counts `fin`: how many of the snapshots
/// precede it (so `snapshots[k - 1]` is the latest one a trial of it can
/// resume from, and `k == 0` means none), and an estimate of the golden
/// dynamic-instruction index it fires at. The estimate interpolates the
/// plan's trigger counter between the counters of the states around it:
/// the run's start, the snapshots, and `fin` (whose class tallies are
/// estimated from [`Counts::population`]).
/// Sorting plans by it puts plans of every family in the order a run
/// reaches them, up to that estimate. `(0, 0)` for [`FaultPlan::None`].
pub fn trigger_position(
    snapshots: &[Arc<EngineSnapshot>],
    fin: &Counts,
    plan: &FaultPlan,
) -> (usize, u64) {
    let Some(t) = plan.trigger() else { return (0, 0) };
    let k = snapshots.iter().rposition(|s| s.count(&t) <= t.value).map_or(0, |i| i + 1);
    let at = |s: &EngineSnapshot| (s.count(&t), s.dyn_count);
    // Every counter reads 0 at the run's start.
    let (c0, d0) = k.checked_sub(1).map_or((0, 0), |i| at(&snapshots[i]));
    let fin_count = || t.count(|c| fin.population(c), &fin.sites, fin.total);
    let (c1, d1) = snapshots.get(k).map_or_else(|| (fin_count(), fin.total), |s| at(s));
    if c1 <= c0 || d1 <= d0 {
        return (k, d0);
    }
    let frac = u128::from(t.value.clamp(c0, c1) - c0);
    (k, d0 + (frac * u128::from(d1 - d0) / u128::from(c1 - c0)) as u64)
}

/// The shape a run's golden data is only valid for: kernel length, grid
/// and block dimensions, and memory size. Snapshots and exit tables carry
/// the fingerprint of the golden run that made them; a run that resumes
/// from or exits through them must match it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Geometry {
    pub(crate) kernel_len: usize,
    pub(crate) grid: (u32, u32),
    pub(crate) block_dim: (u32, u32),
    pub(crate) memory_len: u32,
}

impl Geometry {
    /// The geometry of launching `kernel` over `launch` on `memory_len`
    /// bytes of global memory.
    pub(crate) fn of(kernel: &Kernel, launch: &LaunchConfig, memory_len: u32) -> Geometry {
        Geometry {
            kernel_len: kernel.len(),
            grid: (launch.grid.x, launch.grid.y),
            block_dim: (launch.block.x, launch.block.y),
            memory_len,
        }
    }

    /// Check that golden data of this geometry (`what` names it in the
    /// error) fits a run of geometry `run`.
    pub(crate) fn check(&self, what: &str, run: &Geometry) -> Result<(), String> {
        if self.kernel_len != run.kernel_len {
            return Err(format!(
                "{what} kernel length {} != launch kernel length {}",
                self.kernel_len, run.kernel_len
            ));
        }
        if self.grid != run.grid || self.block_dim != run.block_dim {
            return Err(format!(
                "{what} geometry grid {:?} block {:?} != launch grid {:?} block {:?}",
                self.grid, self.block_dim, run.grid, run.block_dim
            ));
        }
        if self.memory_len != run.memory_len {
            return Err(format!(
                "{what} memory size {} != launch memory size {}",
                self.memory_len, run.memory_len
            ));
        }
        Ok(())
    }
}

/// Flag bit of [`ExitTable`]'s per-word last-writer tags: the bytes of
/// the word do not all share its last-writing block.
const MIXED: u16 = 0x8000;

/// A golden value of a word that a later block overwrites: its value from
/// the end of block `since - 1` until that write.
#[derive(Clone, PartialEq)]
struct HistoryEntry {
    word: u32,
    since: u16,
    value: u32,
}

/// What a golden run records so that a spent trial can end at a block
/// boundary (DESIGN.md §16, "Exit").
///
/// Blocks share nothing but global memory: a block starts with fresh
/// registers and shared memory. So once a trial's fault can no longer act
/// and no later block reads a word where the trial differs from golden,
/// every later block runs exactly as it does in golden, and the trial's
/// end state follows from the table and the golden run's final state:
///
/// * the golden [`Counts`] at each block boundary (the scalar fields;
///   `total` is the dynamic-instruction index). The per-warp vectors of
///   later blocks come from golden final counts: their warps are disjoint;
/// * per word, the last block that reads it and the last block that
///   writes it, flagged when its bytes have different last writers
///   (two-byte stores);
/// * the golden value of a word between two writes, where a block after
///   the first write reads it. Every other golden value at a boundary is
///   the golden final one, or the input image's before the first write.
///
/// Block tags are `block + 1`, with 0 for "never". Built whenever a run
/// captures snapshots; consumed through [`crate::RunOptions::exit_from`].
///
/// The table also carries, per pc, the registers live on entry to it
/// ([`RegLiveness::live_regs`]), so a trial can rejoin golden at one of
/// its snapshots while dead registers still differ (DESIGN.md §16,
/// "Rejoin"). Two tables are equal when every part of them is.
#[derive(PartialEq)]
pub struct ExitTable {
    geometry: Geometry,
    bounds: Vec<Counts>,
    last_read: Vec<u16>,
    last_write: Vec<u16>,
    /// Sorted by word, then by `since`.
    history: Vec<HistoryEntry>,
    /// Per pc: bit `r % 32` of word `r / 32` is set when register `r`
    /// may be read before it is overwritten.
    live: Vec<[u32; 8]>,
}

impl fmt::Debug for ExitTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExitTable")
            .field("blocks", &self.bounds.len())
            .field("words", &self.last_read.len())
            .field("history", &self.history.len())
            .finish()
    }
}

impl ExitTable {
    /// Approximate in-memory footprint in bytes, for cache size reporting.
    pub fn approx_bytes(&self) -> u64 {
        let fixed = std::mem::size_of::<Self>();
        let bounds = self.bounds.len() * std::mem::size_of::<Counts>();
        let words = (self.last_read.len() + self.last_write.len()) * 2;
        let history = self.history.len() * std::mem::size_of::<HistoryEntry>();
        let live = self.live.len() * std::mem::size_of::<[u32; 8]>();
        (fixed + bounds + words + history + live) as u64
    }

    /// The registers live on entry to `pc`; `None` past the kernel's end.
    pub(crate) fn live_regs(&self, pc: u32) -> Option<&[u32; 8]> {
        self.live.get(pc as usize)
    }

    /// Check that this table was recorded under geometry `run`.
    pub(crate) fn check_geometry(&self, run: &Geometry) -> Result<(), String> {
        self.geometry.check("exit table", run)
    }

    /// Golden counts at the end of block `block`.
    pub(crate) fn boundary(&self, block: u32) -> &Counts {
        &self.bounds[block as usize]
    }

    /// The golden value at the end of the block tagged `k` of word `w`,
    /// which a later block writes and reads: the latest value recorded
    /// since `k` or before, else the input image's.
    fn value_at(&self, w: usize, k: u16, input: &GlobalMemory) -> u32 {
        let after = self.history.partition_point(|e| (e.word, e.since) <= (w as u32, k));
        match self.history[..after].last() {
            Some(e) if e.word == w as u32 => e.value,
            _ => input.word(w),
        }
    }

    /// Decide whether blocks after `block` can be skipped for a trial
    /// whose global memory is `trial`, and if so make `trial` what it
    /// would be after them: golden final memory where a later block
    /// writes, the trial's own bytes and latent corruption elsewhere.
    /// Declines when a later block reads a word that differs from golden
    /// or carries latent corruption, and when a later block writes part
    /// of a word that differs from golden final. `golden` is the golden
    /// run's final memory and `input` the image both runs started from.
    pub(crate) fn exit_memory(
        &self,
        block: u32,
        trial: &mut GlobalMemory,
        golden: &GlobalMemory,
        input: &GlobalMemory,
    ) -> bool {
        let k = block as u16 + 1;
        if trial.corrupted().any(|w| self.last_read[w] > k) {
            return false;
        }
        let tags = self.last_read.iter().zip(&self.last_write);
        for (w, (&read, &write)) in tags.clone().enumerate() {
            let read_later = read > k;
            let written_later = write & !MIXED > k;
            if !read_later && !written_later {
                continue;
            }
            let t = trial.word(w);
            let ok = if read_later {
                t == if written_later { self.value_at(w, k, input) } else { golden.word(w) }
            } else {
                write & MIXED == 0 || t == golden.word(w)
            };
            if !ok {
                return false;
            }
        }
        for (w, (_, &write)) in tags.enumerate() {
            if write & !MIXED > k {
                trial.adopt_word(w, golden);
            }
        }
        true
    }
}

/// Builds an [`ExitTable`] during a capturing run; the engine reports
/// every global read, every global write (before it lands) and every
/// block end to it.
#[derive(Clone)]
pub(crate) struct ExitRecorder {
    memory_len: usize,
    last_read: Vec<u16>,
    last_write: Vec<u16>,
    /// Per word: the bytes its last-writing block wrote.
    written: Vec<u8>,
    /// The value each overwritten word held since its previous writer.
    history: Vec<HistoryEntry>,
    bounds: Vec<Counts>,
    live: Vec<[u32; 8]>,
}

impl ExitRecorder {
    /// A recorder for a run of `kernel` over `memory`, or `None` when the
    /// grid has too many blocks for the table's tags. The live-register
    /// sets are worked out here, before the run allocates its snapshots,
    /// so the analysis' scratch memory is reused rather than added to the
    /// run's peak.
    pub(crate) fn new(kernel: &Kernel, memory: &GlobalMemory, blocks: u64) -> Option<ExitRecorder> {
        if blocks >= u64::from(MIXED) {
            return None;
        }
        let words = memory.words();
        Some(ExitRecorder {
            memory_len: memory.len() as usize,
            last_read: vec![0; words],
            last_write: vec![0; words],
            written: vec![0; words],
            history: Vec::new(),
            bounds: Vec::with_capacity(blocks as usize),
            live: RegLiveness::new(kernel).live_regs(),
        })
    }

    /// Block `block` read `bytes` bytes at `addr`.
    #[inline]
    pub(crate) fn read(&mut self, addr: u32, bytes: u32, block: u32) {
        let tag = block as u16 + 1;
        for w in addr / 4..=(addr + bytes - 1) / 4 {
            self.last_read[w as usize] = tag;
        }
    }

    /// Block `block` is about to write `bytes` bytes at `addr` of
    /// `memory`. A write out of bounds faults instead, and a run that
    /// faults leaves no table.
    #[inline]
    pub(crate) fn write(&mut self, addr: u32, bytes: u32, block: u32, memory: &GlobalMemory) {
        if u64::from(addr) + u64::from(bytes) > u64::from(memory.len()) {
            return;
        }
        let tag = block as u16 + 1;
        for w in addr / 4..=(addr + bytes - 1) / 4 {
            let i = w as usize;
            let since = self.last_write[i];
            if since != tag {
                if since != 0 {
                    self.history.push(HistoryEntry { word: w, since, value: memory.word(i) });
                }
                self.last_write[i] = tag;
                self.written[i] = 0;
            }
            let lo = addr.max(w * 4) - w * 4;
            let hi = (addr + bytes).min(w * 4 + 4) - w * 4;
            self.written[i] |= ((1u8 << hi) - 1) & !((1u8 << lo) - 1);
        }
    }

    /// The next block in launch order has finished with `counts`.
    pub(crate) fn end_block(&mut self, counts: &Counts) {
        self.bounds.push(Counts { warp_latency: Vec::new(), warp_instrs: Vec::new(), ..*counts });
    }

    /// The table of a completed run of geometry `geometry`.
    pub(crate) fn finish(self, geometry: Geometry) -> ExitTable {
        let ExitRecorder {
            memory_len,
            last_read,
            mut last_write,
            written,
            mut history,
            bounds,
            live,
        } = self;
        for (w, (tag, &bytes)) in last_write.iter_mut().zip(&written).enumerate() {
            let full = (1u8 << (memory_len - w * 4).min(4)) - 1;
            if *tag != 0 && bytes != full {
                *tag |= MIXED;
            }
        }
        // A value matters only if a block after its writer reads it.
        history.retain(|e| last_read[e.word as usize] > e.since);
        history.sort_unstable_by_key(|e| (e.word, e.since));
        history.shrink_to_fit();
        ExitTable { geometry, bounds, last_read, last_write, history, live }
    }
}
