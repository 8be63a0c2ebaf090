//! Engine snapshots: the golden run's architectural state at periodic
//! dynamic-instruction barriers, so injection trials can fast-forward
//! past their fault-free prefix (DESIGN.md §16).
//!
//! A snapshot captures everything the engine's state is a function of at
//! a block-scheduler round boundary: the register file and predicates of
//! every thread of the resident block, the block's shared memory, global
//! memory (including latent ECC corruption — the scrub position), the
//! dynamic-instruction counter, the accumulated [`Counts`], and the
//! per-site-class match tallies the fault hooks count against. Resuming
//! from a snapshot ([`crate::RunOptions::resume_from`]) reproduces the
//! from-zero execution bit-for-bit **provided the fault site does not
//! precede the snapshot** — which [`nearest`] guarantees by selecting the
//! latest snapshot at or before the plan's trigger point.
//!
//! The parity argument: before a trial's fault fires, the trial executes
//! exactly the golden instruction stream (a single [`FaultPlan`] has no
//! architectural effect until its trigger), so the golden run's state at
//! any earlier round boundary *is* the trial's state at that boundary.
//!
//! A capturing golden run also builds an [`ExitTable`], which lets a
//! trial skip the other end of its run once its fault is spent: the
//! blocks after one it ends in, once they provably run as in golden, or
//! the rest of the run from a snapshot whose state it rejoins.

use crate::engine::{Counts, ThreadState};
use crate::fault::FaultPlan;
use crate::memory::{GlobalMemory, SharedMemory};
use gpu_arch::decode::RegLiveness;
use gpu_arch::{DecodedKernel, FunctionalUnit, InstrMeta, Kernel, LaunchConfig, SiteClass};
use std::fmt;
use std::sync::Arc;

/// Maximum snapshots captured per run. When a capture would exceed the
/// cap, every other existing snapshot is dropped and the stride doubles —
/// memory stays bounded for arbitrarily long kernels while the snapshot
/// spacing degrades gracefully (geometric, not cliff-edge).
pub const SNAPSHOT_CAP: usize = 32;

/// The injectable site classes with positional (`nth`-indexed) fault
/// plans, in the order [`ClassTallies::base`] is indexed.
const BASE_CLASSES: [SiteClass; 6] = [
    SiteClass::GprWriter,
    SiteClass::GprWriterNoHalf,
    SiteClass::FloatArith,
    SiteClass::HalfArith,
    SiteClass::IntArith,
    SiteClass::Load,
];

/// Running populations of every fault-hook enumeration: how many
/// guard-passing GPR-writer instructions of each [`SiteClass`] have
/// reached the output-fault hook so far. These mirror the engine's
/// `site_matches` counter *per class* (and per functional unit, for
/// [`SiteClass::Unit`] plans), so a resumed trial can seed its match
/// counter with the exact number of matches the skipped prefix consumed.
///
/// Note this is **not** [`crate::SiteCounts`]: warp-level MMA ticks the
/// `GprWriterNoHalf` match counter (an `FMMA` is a no-half writer) but
/// not the `gpr_writers_no_half` population, so the tallies are counted
/// at the fault-hook call sites themselves.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct ClassTallies {
    /// Matches per positional class, indexed like `BASE_CLASSES`.
    pub(crate) base: [u64; 6],
    /// Guard-passing GPR writers per functional unit (the
    /// [`SiteClass::Unit`] populations).
    pub(crate) unit_writers: [u64; FunctionalUnit::COUNT],
}

impl ClassTallies {
    /// Account one instruction that reached the output-fault hook.
    #[inline]
    pub(crate) fn note(&mut self, meta: &InstrMeta) {
        for (slot, class) in self.base.iter_mut().zip(BASE_CLASSES) {
            if meta.in_class(class) {
                *slot += 1;
            }
        }
        self.unit_writers[meta.unit_index as usize] += 1;
    }

    /// Matches of `site` consumed so far.
    pub(crate) fn class_matches(&self, site: SiteClass) -> u64 {
        match site {
            SiteClass::GprWriter => self.base[0],
            SiteClass::GprWriterNoHalf => self.base[1],
            SiteClass::FloatArith => self.base[2],
            SiteClass::HalfArith => self.base[3],
            SiteClass::IntArith => self.base[4],
            SiteClass::Load => self.base[5],
            SiteClass::Unit(u) => self.unit_writers[u.index()],
        }
    }
}

/// The engine's architectural state at one block-round boundary of a run,
/// sufficient to resume execution from that point (see the module doc for
/// the parity argument). Captured by [`crate::RunOptions::snapshot_stride`],
/// consumed by [`crate::RunOptions::resume_from`].
#[derive(Clone, Debug)]
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
    /// Per-thread register files, predicates, pcs and scheduler states of
    /// the resident block.
    pub(crate) threads: Vec<ThreadState>,
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

    /// True when `plan`'s trigger point lies at or after this snapshot,
    /// i.e. resuming from here cannot skip the fault site.
    ///
    /// Positional plans (`nth`-indexed) compare against the class match
    /// tally; timed plans (`at`-indexed) compare against the dynamic
    /// counter. [`FaultPlan::None`] has no site and never fast-forwards.
    ///
    /// Hidden-resource plans (scheduler, active mask, barrier, memory
    /// queue, fetch) follow the same rule: their corruption — including
    /// the stuck-at persistence mode, whose perturbation *begins* at the
    /// trigger and never ends — touches no state before the trigger
    /// point, so a snapshot at or before it is sound, and one past it
    /// would fast-forward over state the fault should have perturbed
    /// (the engine hard-errors that resume as a
    /// [`crate::SimError::ResumeConflict`]).
    pub fn precedes(&self, plan: &FaultPlan) -> bool {
        match *plan {
            FaultPlan::None => false,
            FaultPlan::InstructionOutput { nth, site, .. }
            | FaultPlan::InstructionOutputSet { nth, site, .. } => {
                self.tallies.class_matches(site) <= nth
            }
            FaultPlan::MemAddress { nth, .. } | FaultPlan::MemQueue { nth, .. } => {
                self.counts.sites.mem_ops <= nth
            }
            FaultPlan::PredicateOutput { nth } => self.counts.sites.setp <= nth,
            FaultPlan::Pc { at, .. }
            | FaultPlan::RegisterBit { at, .. }
            | FaultPlan::GlobalMemBit { at, .. }
            | FaultPlan::SharedMemBit { at, .. }
            | FaultPlan::SchedulerNextPc { at, .. }
            | FaultPlan::SchedulerPriority { at, .. }
            | FaultPlan::ActiveMask { at, .. }
            | FaultPlan::BarrierCounter { at, .. }
            | FaultPlan::Fetch { at, .. } => self.dyn_count <= at,
        }
    }

    /// Approximate in-memory footprint in bytes (dominated by the memory
    /// images and register files). Used for cache size reporting.
    pub fn approx_bytes(&self) -> u64 {
        let fixed = 256u64;
        let counts = (self.counts.warp_latency.len() + self.counts.warp_instrs.len()) as u64 * 8;
        let global = self.global.len() as u64;
        let shared = self.shared.len() as u64;
        let threads: u64 = self.threads.iter().map(|t| t.regs.len() as u64 * 4 + 8).sum();
        fixed + counts + global + shared + threads
    }
}

/// The latest snapshot whose capture point lies at or before `plan`'s
/// trigger — the one that skips the most prefix without skipping the
/// fault site. `None` when the plan is golden, the list is empty, or the
/// fault fires before the first snapshot.
pub fn nearest_snapshot<'a>(
    snapshots: &'a [Arc<EngineSnapshot>],
    plan: &FaultPlan,
) -> Option<&'a Arc<EngineSnapshot>> {
    // Capture order is dyn-count order and every trigger counter is
    // nondecreasing along the run, so the latest qualifying snapshot is
    // the first match scanning backwards.
    snapshots.iter().rev().find(|s| s.precedes(plan))
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
            kernel_len: kernel.instrs.len(),
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
/// "Rejoin").
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
        let decoded = DecodedKernel::new(kernel);
        let words = memory.words();
        Some(ExitRecorder {
            memory_len: memory.len() as usize,
            last_read: vec![0; words],
            last_write: vec![0; words],
            written: vec![0; words],
            history: Vec::new(),
            bounds: Vec::with_capacity(blocks as usize),
            live: RegLiveness::new(kernel, &decoded).live_regs(),
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
