//! Fault descriptors: what a single transient fault corrupts, and the DUE
//! taxonomy the simulator reports.
//!
//! A [`FaultPlan`] describes exactly one fault (the paper's single-strike
//! assumption, Section IV-A). The injectors and the beam engine construct
//! plans; the execution engine triggers them at the right dynamic instant.

use crate::engine::Counts;
use gpu_arch::{InstrMeta, MemOp};
use std::fmt;

// The site-class taxonomy lives in the predecode layer (`gpu_arch::decode`)
// so the engine, the injectors and the static analyses all classify from
// the same definition; re-exported here because fault plans carry it.
pub use gpu_arch::SiteClass;

/// An XOR corruption mask applied to a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitFlip {
    /// XOR mask (up to 64 bits for register pairs; low 32 used otherwise).
    pub mask: u64,
}

impl BitFlip {
    /// Flip a single bit.
    pub fn single(bit: u32) -> BitFlip {
        BitFlip { mask: 1u64 << (bit & 63) }
    }

    /// Flip two (distinct) bits — a Multiple Bit Upset in one word.
    pub fn double(bit_a: u32, bit_b: u32) -> BitFlip {
        BitFlip { mask: (1u64 << (bit_a & 63)) | (1u64 << (bit_b & 63)) }
    }

    /// Number of bits this flip corrupts.
    pub fn bits(self) -> u32 {
        self.mask.count_ones()
    }
}

/// How long a hidden-resource corruption persists once triggered.
///
/// The beam room sees both: most strikes are transient single events, but
/// dos Santos et al. (NSREC 2021) and the permanent-fault literature on
/// GPU parallelism-management units motivate stuck-at variants — a
/// scheduler slot, fetch lane or queue entry that stays corrupted for the
/// rest of the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Persistence {
    /// Single-event upset: the corruption is applied exactly once at the
    /// trigger point.
    #[default]
    Transient,
    /// Stuck-at: the corruption re-applies at every subsequent
    /// opportunity (every scheduler round, fetch, or queue dispatch) from
    /// the trigger point to the end of the run.
    StuckAt,
}

/// What a corrupted pending-memory-queue entry does when dispatched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemQueueEffect {
    /// The entry is dropped: the access never reaches memory (loads leave
    /// the destination register stale, stores are lost).
    Drop,
    /// The entry fails to retire: the same memory instruction issues
    /// again next round (stuck-at replay never retires — a
    /// memory-controller hang reaped by the watchdog).
    Replay,
    /// The entry is flagged as poisoned and the device raises an
    /// immediate [`DueKind::MemQueueFault`].
    Flag,
}

/// What a corrupted fetch/decode stage does to the fetched instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchEffect {
    /// The fetch buffer replays the previous (stale) instruction instead
    /// of the one the program counter names.
    StaleReplay,
    /// The instruction-selection bits decode with `flip` XORed in: the
    /// lane executes a different instruction, or — when the flipped index
    /// leaves the kernel — the decoder detects garbage and raises
    /// [`DueKind::FetchFault`].
    OpcodeFlip(BitFlip),
}

/// A single transient fault to exercise during one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FaultPlan {
    /// Fault-free (golden) run.
    #[default]
    None,
    /// Corrupt the destination value of the `nth` dynamic instruction
    /// matching `site` (0-based among matches), applying `flip` before
    /// write-back. For MMA ops, the flip lands on result element
    /// `nth % 256` of the warp's D fragment.
    InstructionOutput {
        /// 0-based index among matching dynamic instructions.
        nth: u64,
        /// Site filter.
        site: SiteClass,
        /// Corruption mask.
        flip: BitFlip,
    },
    /// Replace the destination value of the `nth` matching dynamic
    /// instruction outright (SASSIFI's "zero value" / "random value"
    /// injection modes).
    InstructionOutputSet {
        /// 0-based index among matching dynamic instructions.
        nth: u64,
        /// Site filter.
        site: SiteClass,
        /// The replacement value (low bits used for narrow destinations).
        value: u64,
    },
    /// Corrupt the effective address of the `nth` dynamic memory
    /// instruction (load or store, global or shared) — SASSIFI's address
    /// injection; the dominant DUE mechanism of the LDST micro-benchmark.
    MemAddress {
        /// 0-based index among dynamic memory ops.
        nth: u64,
        /// Corruption mask applied to the byte address.
        flip: BitFlip,
    },
    /// Invert the predicate produced by the `nth` dynamic `SETP`.
    PredicateOutput {
        /// 0-based index among dynamic SETP instructions.
        nth: u64,
    },
    /// Corrupt the program counter of the thread executing the dynamic
    /// instruction numbered `at` (global counter), after it executes.
    Pc {
        /// Global dynamic-instruction instant.
        at: u64,
        /// Mask applied to the PC.
        flip: BitFlip,
    },
    /// Flip a register-file bit of a specific resident thread when the
    /// global dynamic-instruction counter reaches `at`. With ECC enabled
    /// the flip is corrected (single) or detected (double).
    RegisterBit {
        /// Linear block index.
        block: u32,
        /// Linear thread index within the block.
        thread: u32,
        /// Register index.
        reg: u8,
        /// Corruption mask (32-bit register).
        flip: BitFlip,
        /// Global dynamic-instruction instant.
        at: u64,
    },
    /// Flip a bit in global memory at instant `at`.
    GlobalMemBit {
        /// Byte address.
        byte: u32,
        /// Bit within the containing 32-bit word.
        bit: u32,
        /// Global dynamic-instruction instant.
        at: u64,
        /// Strike a second bit in the same word (MBU).
        mbu: bool,
    },
    /// Flip a bit in a block's shared memory at instant `at`.
    SharedMemBit {
        /// Linear block index.
        block: u32,
        /// Byte address within the block's shared segment.
        byte: u32,
        /// Bit within the containing word.
        bit: u32,
        /// Global dynamic-instruction instant.
        at: u64,
        /// Strike a second bit in the same word (MBU).
        mbu: bool,
    },
    /// Corrupt a warp-scheduler entry's next-pc field: at the first
    /// scheduler-round boundary where the global dynamic counter reaches
    /// `at`, the running lanes of the targeted warp have their program
    /// counters XORed with `flip` (transient) or OR-stuck with `flip`
    /// at every subsequent round ([`Persistence::StuckAt`]).
    SchedulerNextPc {
        /// Global dynamic-instruction trigger threshold.
        at: u64,
        /// Warp slot within the resident block (taken modulo the block's
        /// warp count).
        warp: u32,
        /// Corruption mask applied to the scheduler entry's next-pc.
        flip: BitFlip,
        /// Single event or stuck-at.
        persist: Persistence,
    },
    /// Corrupt a warp-scheduler entry's priority: the targeted warp is
    /// passed over for one scheduler round (transient glitch) or starved
    /// forever ([`Persistence::StuckAt`] — a
    /// [`DueKind::SchedulerStall`] once the rest of the block can make no
    /// progress without it).
    SchedulerPriority {
        /// Global dynamic-instruction trigger threshold.
        at: u64,
        /// Warp slot within the resident block (taken modulo the block's
        /// warp count).
        warp: u32,
        /// Single event or stuck-at (permanent starvation).
        persist: Persistence,
    },
    /// Corrupt a warp's active mask: each set bit of `flip` (low 32,
    /// one per lane) toggles the lane between on and off — running or
    /// barrier-waiting lanes are forced off, exited lanes are revived at
    /// their final pc. [`Persistence::StuckAt`] instead forces the
    /// masked lanes off at every subsequent round (stuck-at-zero mask
    /// bits).
    ActiveMask {
        /// Global dynamic-instruction trigger threshold.
        at: u64,
        /// Warp slot within the resident block (taken modulo the block's
        /// warp count).
        warp: u32,
        /// Lane-mask corruption (low 32 bits).
        flip: BitFlip,
        /// Single event or stuck-at.
        persist: Persistence,
    },
    /// Corrupt the resident block's barrier arrival counter. A phantom
    /// arrival releases the waiting lanes before every live thread has
    /// arrived; a lost arrival (`phantom: false`) means the counter never
    /// reaches zero — the barrier hangs as a
    /// [`DueKind::BarrierDeadlock`]. Transient corruption affects the
    /// next barrier episode after `at`; stuck-at affects every one.
    BarrierCounter {
        /// Global dynamic-instruction trigger threshold.
        at: u64,
        /// Phantom arrival (early release) vs. lost arrival (hang).
        phantom: bool,
        /// Single event or stuck-at.
        persist: Persistence,
    },
    /// Corrupt the `nth` pending-memory-queue entry (0-based among
    /// dynamic memory ops, the same enumeration
    /// [`FaultPlan::MemAddress`] samples). [`Persistence::StuckAt`]
    /// corrupts every entry from `nth` onward (a stuck queue slot).
    MemQueue {
        /// 0-based index among dynamic memory ops.
        nth: u64,
        /// What the corrupted entry does when dispatched.
        effect: MemQueueEffect,
        /// Single event or stuck-at.
        persist: Persistence,
    },
    /// Corrupt the fetch/decode stage of the lane issuing the dynamic
    /// instruction numbered `at`: replay a stale instruction or decode a
    /// flipped opcode. [`Persistence::StuckAt`] corrupts every fetch
    /// from instant `at` onward (a stuck fetch lane).
    Fetch {
        /// Global dynamic-instruction instant of the corrupted fetch.
        at: u64,
        /// Stale replay or opcode-bit flip.
        effect: FetchEffect,
        /// Single event or stuck-at.
        persist: Persistence,
    },
}

impl FaultPlan {
    /// True for the golden (fault-free) plan.
    pub fn is_none(&self) -> bool {
        matches!(self, FaultPlan::None)
    }

    /// Stable label for the corrupted-state category this plan targets,
    /// used by trace events and campaign metric names.
    pub fn site_label(&self) -> &'static str {
        match self {
            FaultPlan::None => "none",
            FaultPlan::InstructionOutput { site, .. } => site.label(),
            FaultPlan::InstructionOutputSet { site, .. } => site.label(),
            FaultPlan::MemAddress { .. } => "mem-address",
            FaultPlan::PredicateOutput { .. } => "predicate",
            FaultPlan::Pc { .. } => "pc",
            FaultPlan::RegisterBit { .. } => "register-file",
            FaultPlan::GlobalMemBit { .. } => "global-mem",
            FaultPlan::SharedMemBit { .. } => "shared-mem",
            FaultPlan::SchedulerNextPc { .. } | FaultPlan::SchedulerPriority { .. } => {
                "hidden-scheduler"
            }
            FaultPlan::ActiveMask { .. } => "hidden-mask",
            FaultPlan::BarrierCounter { .. } => "hidden-barrier",
            FaultPlan::MemQueue { .. } => "hidden-memq",
            FaultPlan::Fetch { .. } => "hidden-fetch",
        }
    }

    /// The plan's trigger, decoded here and nowhere else; `None` for
    /// [`FaultPlan::None`], which has no trigger.
    pub(crate) fn trigger(&self) -> Option<Trigger> {
        use Counter::{Class, Dyn, MemOps, Setp};
        use Stage::{RoundEnd, RoundTop, Step};
        let once = Persistence::Transient;
        let (counter, value, stage, persist) = match *self {
            FaultPlan::None => return None,
            FaultPlan::InstructionOutput { nth, site, .. }
            | FaultPlan::InstructionOutputSet { nth, site, .. } => (Class(site), nth, Step, once),
            FaultPlan::MemAddress { nth, .. } => (MemOps, nth, Step, once),
            FaultPlan::MemQueue { nth, persist, .. } => (MemOps, nth, Step, persist),
            FaultPlan::PredicateOutput { nth } => (Setp, nth, Step, once),
            FaultPlan::Pc { at, .. }
            | FaultPlan::RegisterBit { at, .. }
            | FaultPlan::GlobalMemBit { at, .. }
            | FaultPlan::SharedMemBit { at, .. } => (Dyn, at, Step, once),
            FaultPlan::SchedulerNextPc { at, persist, .. }
            | FaultPlan::SchedulerPriority { at, persist, .. }
            | FaultPlan::ActiveMask { at, persist, .. } => (Dyn, at, RoundTop, persist),
            FaultPlan::BarrierCounter { at, persist, .. } => (Dyn, at, RoundEnd, persist),
            FaultPlan::Fetch { at, persist, .. } => (Dyn, at, Stage::Fetch, persist),
        };
        Some(Trigger { counter, value, stage, persist })
    }
}

/// The counter a plan's trigger is numbered in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Counter {
    /// Guard-passing matches of a site class ([`Counts::class_matches`]).
    Class(SiteClass),
    /// Guard-passing memory ops ([`crate::SiteCounts::mem_ops`]).
    MemOps,
    /// Guard-passing `SETP`s ([`crate::SiteCounts::setp`]).
    Setp,
    /// The global dynamic-instruction counter ([`Counts::total`]).
    Dyn,
}

/// Where in the engine a plan acts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Stage {
    /// In a step, through a lane's fault hook.
    Step,
    /// At a scheduler round top (scheduler entries, active masks).
    RoundTop,
    /// At a round's end, where barriers release (barrier counters).
    RoundEnd,
    /// At a run's fetch, before it issues.
    Fetch,
}

/// When and where a [`FaultPlan`] fires ([`FaultPlan::trigger`]). The
/// plan touches no state before its counter reaches `value`, so a state
/// whose counter is at or below it lies before the fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Trigger {
    pub(crate) counter: Counter,
    /// The `nth` or `at` the counter must reach.
    pub(crate) value: u64,
    pub(crate) stage: Stage,
    pub(crate) persist: Persistence,
}

impl Trigger {
    /// The counter read off a state's counts.
    #[inline(always)]
    pub(crate) fn count(&self, counts: &Counts) -> u64 {
        match self.counter {
            Counter::Class(site) => counts.class_matches(site),
            Counter::MemOps => counts.sites.mem_ops,
            Counter::Setp => counts.sites.setp,
            Counter::Dyn => counts.total,
        }
    }

    /// Whether a guard-passing run of the instruction `meta` describes
    /// ticks the counter; every instruction ticks the dynamic one.
    #[inline(always)]
    pub(crate) fn ticked_by(&self, meta: &InstrMeta) -> bool {
        match self.counter {
            Counter::Class(site) => meta.in_class(site),
            Counter::MemOps => meta.is_mem_op,
            Counter::Setp => meta.writes_pred,
            Counter::Dyn => true,
        }
    }

    /// True when the plan's corruption acts at most once, so the plan is
    /// spent once it has fired: every transient plan but a fetch one. A
    /// spent plan no longer affects the run after the block it fired in.
    pub(crate) fn fires_once(&self) -> bool {
        self.persist == Persistence::Transient && self.stage != Stage::Fetch
    }
}

/// Why a run terminated as a Detected Unrecoverable Error.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DueKind {
    /// Out-of-bounds global memory access (CUDA "illegal memory access").
    MemoryViolation,
    /// Out-of-bounds shared memory access.
    SharedViolation,
    /// PC left the kernel's code (illegal instruction fetch).
    IllegalPc,
    /// Watchdog expired: the run executed far more instructions than the
    /// golden run (hang / runaway loop).
    Watchdog,
    /// Threads deadlocked at a barrier (divergent `__syncthreads`).
    BarrierDeadlock,
    /// ECC double-bit detection interrupt.
    EccDoubleBit,
    /// A strike in a hidden resource (scheduler, fetch, memory controller,
    /// host interface) stuck the device. The beam engine produces this
    /// kind directly from ground-truth cross-sections; the simulated
    /// hidden-site plans instead raise the specific kinds below
    /// ([`DueKind::SchedulerStall`], [`DueKind::FetchFault`],
    /// [`DueKind::MemQueueFault`]) or manifest through the architectural
    /// detectors. Register-level injectors reach neither, which is the
    /// paper's explanation for the orders-of-magnitude DUE
    /// underestimation (Section VII-B).
    HiddenResource,
    /// A starved warp-scheduler entry: a warp the scheduler permanently
    /// passes over left the block unable to make progress
    /// ([`FaultPlan::SchedulerPriority`] stuck-at).
    SchedulerStall,
    /// The fetch/decode stage decoded garbage: a flipped instruction
    /// index left the kernel's code and the decoder detected it
    /// ([`FaultPlan::Fetch`]).
    FetchFault,
    /// A pending-memory-queue entry was flagged poisoned and the memory
    /// controller raised a detected error ([`FaultPlan::MemQueue`]).
    MemQueueFault,
    /// A host wall-clock watchdog aborted the run. The engine never
    /// raises this kind: hangs end deterministically as
    /// [`DueKind::Watchdog`]. It remains only because the campaign
    /// benchmark still names it.
    HostWatchdog,
}

impl DueKind {
    /// The DUE an access of `m` outside its space, or a misaligned one,
    /// raises.
    pub fn violation(m: MemOp) -> DueKind {
        if m.global {
            DueKind::MemoryViolation
        } else {
            DueKind::SharedViolation
        }
    }

    /// Stable short identifier used in trace events and metric names.
    pub fn name(self) -> &'static str {
        match self {
            DueKind::MemoryViolation => "memory-violation",
            DueKind::SharedViolation => "shared-violation",
            DueKind::IllegalPc => "illegal-pc",
            DueKind::Watchdog => "watchdog",
            DueKind::BarrierDeadlock => "barrier-deadlock",
            DueKind::EccDoubleBit => "ecc-double-bit",
            DueKind::HiddenResource => "hidden-resource",
            DueKind::SchedulerStall => "scheduler-stall",
            DueKind::FetchFault => "fetch-fault",
            DueKind::MemQueueFault => "mem-queue-fault",
            DueKind::HostWatchdog => "host-watchdog",
        }
    }
}

impl fmt::Display for DueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DueKind::MemoryViolation => "illegal global memory access",
            DueKind::SharedViolation => "illegal shared memory access",
            DueKind::IllegalPc => "illegal instruction fetch",
            DueKind::Watchdog => "watchdog timeout (hang)",
            DueKind::BarrierDeadlock => "barrier deadlock",
            DueKind::EccDoubleBit => "ECC double-bit detection",
            DueKind::HiddenResource => "hidden-resource device error",
            DueKind::SchedulerStall => "warp-scheduler starvation stall",
            DueKind::FetchFault => "fetch/decode fault",
            DueKind::MemQueueFault => "memory-queue entry fault",
            DueKind::HostWatchdog => "host wall-clock watchdog abort",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // SiteClass's own behavior is tested at its definition site,
    // `gpu_arch::decode`.

    #[test]
    fn bitflip_masks() {
        assert_eq!(BitFlip::single(0).mask, 1);
        assert_eq!(BitFlip::single(31).mask, 1 << 31);
        assert_eq!(BitFlip::double(0, 4).mask, 0b10001);
        assert_eq!(BitFlip::single(3).bits(), 1);
        assert_eq!(BitFlip::double(1, 2).bits(), 2);
    }

    #[test]
    fn default_plan_is_none() {
        assert!(FaultPlan::default().is_none());
        assert!(!FaultPlan::PredicateOutput { nth: 0 }.is_none());
    }
}
