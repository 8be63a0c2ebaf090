//! Per-kernel value-flow graph and forward fault-propagation taint.
//!
//! Bit-level liveness ([`crate::dataflow::liveness`]) answers a binary
//! question — is a corrupted destination *observed* anywhere — but says
//! nothing about *where* the corruption can go. This module follows every injectable
//! site's corruption forward through the kernel's value-flow graph and
//! classifies the set of architectural sinks it can reach:
//!
//! * a **store sink** — the corrupted value can land in global memory
//!   (the output the campaign's SDC check compares);
//! * an **address sink** — the corruption can reach the base operand of
//!   a memory access (out-of-bounds / misalignment → DUE);
//! * a **control sink** — the corruption can flip a branch or barrier
//!   guard (trip-count changes, divergence deadlock, runaway loops →
//!   DUE);
//! * a **warp sink** — the corruption feeds a warp-synchronous MMA/SHFL,
//!   whose lane-exchange semantics the scalar flow graph does not model.
//!
//! The flow graph's edges are the def-use chains of
//! [`crate::dataflow::def_use`] (which share the predecode layer's
//! observed-read model with the simulator), extended with three edge
//! kinds the plain chains do not carry:
//!
//! * **predicate-guard edges** — a corrupted `SETP` result reaches every
//!   instruction guarded by (or selecting on) that predicate;
//! * **address-operand edges** — a corrupted register used as a memory
//!   base is distinguished from one used as a stored value;
//! * **branch-condition edges** — a corrupted branch guard taints, by
//!   control dependence, every definition and store in the branch's
//!   influence region ([`crate::cfg::Cfg::influence_region`]).
//!
//! Memory is modeled as two summary locations (global, shared): a
//! corrupted value stored to a space taints every load from that space.
//! That is deliberately timing- and address-insensitive — any load that
//! *could* read the corrupted location is tainted — which keeps the
//! propagation a monotone fixpoint over a finite item set, and errs only
//! toward weaker verdicts (never toward a wrong `ProvenMasked`).
//!
//! Soundness argument (mirrors the liveness one in [`crate::verdict`]):
//! the faulty run is identical to the golden run up to the injection
//! instant, so the static def-use edges — which over-approximate *all*
//! paths — cover every dynamic observation of the corrupted value after
//! it. If the transitive closure reaches no global store (by value,
//! address, or control dependence), no branch/barrier guard, and no
//! warp-synchronous op, then every global-memory write and the
//! termination behavior of the faulty run are bit-identical to the
//! golden run: the trial is Masked.
//! Conversely the absence of a sink *class* bounds the outcomes: a site
//! whose closure contains no address, control, or warp sink cannot raise
//! a DUE (all addresses and trip counts are golden), and one whose
//! closure contains no store sink cannot alter the compared output.

use crate::cfg::Cfg;
use crate::dataflow;
use gpu_arch::{Kernel, MemOp, Op, Pred};

/// Where a corrupted site's value can propagate — the verdict lattice.
///
/// Ordering is by decreasing knowledge: `ProvenMasked` pins the outcome
/// exactly; `StoreReaching`/`AddressReaching`/`ControlReaching` exclude
/// one outcome class each; `Unknown` excludes nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SiteVerdict {
    /// The corruption reaches no sink at all: the trial is Masked.
    ProvenMasked,
    /// Reaches stored output only — SDC-prone, provably cannot DUE
    /// (no address, control, or warp sink in the closure).
    StoreReaching,
    /// Reaches load addresses only — DUE-prone (OOB/misalign), provably
    /// cannot SDC (no loaded value flows to output, no store touched).
    AddressReaching,
    /// Reaches branch/barrier guards but no store — DUE-prone
    /// (deadlock, runaway loop), provably cannot SDC (no store is data-
    /// or control-dependent on the corruption).
    ControlReaching,
    /// Both output and DUE mechanisms reachable, or a warp-synchronous
    /// sink: no outcome can be excluded.
    Unknown,
}

impl SiteVerdict {
    /// Stable lowercase label (metrics, lint tables, JSON).
    pub fn name(self) -> &'static str {
        match self {
            SiteVerdict::ProvenMasked => "masked",
            SiteVerdict::StoreReaching => "store",
            SiteVerdict::AddressReaching => "address",
            SiteVerdict::ControlReaching => "control",
            SiteVerdict::Unknown => "unknown",
        }
    }

    /// Can a fault at a site with this verdict produce an SDC?
    pub fn sdc_possible(self) -> bool {
        matches!(self, SiteVerdict::StoreReaching | SiteVerdict::Unknown)
    }

    /// Can a fault at a site with this verdict produce a DUE?
    pub fn due_possible(self) -> bool {
        matches!(
            self,
            SiteVerdict::AddressReaching | SiteVerdict::ControlReaching | SiteVerdict::Unknown
        )
    }
}

/// Sink classes a taint run can hit.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Sinks {
    store: bool,
    addr: bool,
    ctl: bool,
    warp: bool,
}

impl Sinks {
    /// A write to memory through `m`: it taints `m`'s space, the item
    /// returned, and a global write is the store sink.
    fn write_to(&mut self, m: MemOp) -> Item {
        self.store |= m.global;
        if m.global {
            Item::GlobalSpace
        } else {
            Item::SharedSpace
        }
    }

    fn classify(self) -> SiteVerdict {
        if self.warp || (self.store && (self.addr || self.ctl)) {
            SiteVerdict::Unknown
        } else if self.store {
            SiteVerdict::StoreReaching
        } else if self.ctl {
            SiteVerdict::ControlReaching
        } else if self.addr {
            SiteVerdict::AddressReaching
        } else {
            SiteVerdict::ProvenMasked
        }
    }
}

/// One taint item in the propagation worklist.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Item {
    /// The GPR value defined at `pc` is corrupted.
    Def(u32),
    /// The predicate written at `pc` is corrupted.
    PredDef(u32),
    /// Global-memory contents may be corrupted.
    GlobalSpace,
    /// Shared-memory contents may be corrupted.
    SharedSpace,
}

/// The per-kernel value-flow graph, pre-resolved for taint queries.
pub struct ValueFlow<'k> {
    kernel: &'k Kernel,
    /// Def-use chains: per def index, the pcs that may observe it.
    du: dataflow::DefUse,
    /// Def indices per pc (a pair write yields two defs at one pc).
    defs_at: Vec<Vec<u32>>,
    /// Per predicate: reachable pcs that read it (guard, `SEL` source,
    /// or branch condition) — conservative over all paths.
    pred_users: [Vec<u32>; 8],
    /// Reachable load pcs per space (global, shared).
    global_loads: Vec<u32>,
    shared_loads: Vec<u32>,
    /// Per pc: the blocks whose execution a corrupted branch guard at
    /// this pc can decide (empty for non-branches).
    influence: Vec<Vec<u32>>,
    /// Per block: its instruction range, for control-dependence closure.
    block_ranges: Vec<(u32, u32)>,
    reachable_pc: Vec<bool>,
}

impl<'k> ValueFlow<'k> {
    /// Build the flow graph of `kernel` over its CFG.
    pub fn build_with_cfg(kernel: &'k Kernel, cfg: &Cfg) -> ValueFlow<'k> {
        let du = dataflow::def_use(kernel, cfg);
        let n = kernel.len();
        let mut defs_at = vec![Vec::new(); n];
        for (d, def) in du.defs.iter().enumerate() {
            defs_at[def.pc as usize].push(d as u32);
        }
        let reachable_pc: Vec<bool> =
            (0..n).map(|pc| cfg.reachable[cfg.block_of[pc] as usize]).collect();
        let mut pred_users: [Vec<u32>; 8] = Default::default();
        let mut global_loads = Vec::new();
        let mut shared_loads = Vec::new();
        let mut influence = vec![Vec::new(); n];
        for (pc, i) in kernel.instrs().iter().enumerate() {
            if !reachable_pc[pc] {
                continue;
            }
            if let Some(g) = i.guard {
                if !g.pred.is_pt() {
                    pred_users[g.pred.0 as usize].push(pc as u32);
                }
            }
            if let Some((p, _)) = i.psrc {
                if !p.is_pt() {
                    pred_users[p.0 as usize].push(pc as u32);
                }
            }
            if let Some(m) = i.op.mem().filter(|m| m.loads) {
                if m.global { &mut global_loads } else { &mut shared_loads }.push(pc as u32);
            }
            if i.op == Op::Bra {
                influence[pc] = cfg.influence_region(cfg.block_of[pc]);
            }
        }
        let block_ranges = cfg.blocks.iter().map(|b| (b.start, b.end)).collect();
        ValueFlow {
            kernel,
            du,
            defs_at,
            pred_users,
            global_loads,
            shared_loads,
            influence,
            block_ranges,
            reachable_pc,
        }
    }

    /// Verdict for a corrupted GPR destination written at `pc`
    /// (`InstructionOutput` / `InstructionOutputSet` faults).
    pub fn output_verdict(&self, pc: u32) -> SiteVerdict {
        if !self.reachable_pc[pc as usize] {
            return SiteVerdict::ProvenMasked;
        }
        let meta = self.kernel.decoded().meta(pc);
        if meta.is_warp_sync {
            // Warp-level corruption machinery is out of the flow model.
            return SiteVerdict::Unknown;
        }
        self.run_taint(Item::Def(pc))
    }

    /// Verdict for an inverted predicate written at `pc`
    /// (`PredicateOutput` faults on `SETP`).
    pub fn predicate_verdict(&self, pc: u32) -> SiteVerdict {
        if !self.reachable_pc[pc as usize] {
            return SiteVerdict::ProvenMasked;
        }
        self.run_taint(Item::PredDef(pc))
    }

    /// Verdict for a corrupted effective address at memory op `pc`
    /// (`MemAddress` faults). Always at least [`SiteVerdict::AddressReaching`]:
    /// the access itself is the address sink.
    pub fn mem_address_verdict(&self, pc: u32) -> SiteVerdict {
        if !self.reachable_pc[pc as usize] {
            return SiteVerdict::ProvenMasked;
        }
        let mut sinks = Sinks { addr: true, ..Sinks::default() };
        let mut seeds = Vec::new();
        let mem = self.kernel.decoded().meta(pc).op.mem();
        // A misdirected store clobbers one location and leaves the
        // intended one stale: both the space and the output are suspect.
        if let Some(m) = mem.filter(|m| m.stores) {
            seeds.push(sinks.write_to(m));
        }
        // A misdirected load produces a wrong (in-bounds) value.
        if mem.is_none_or(|m| m.loads) {
            seeds.push(Item::Def(pc));
        }
        self.propagate(&seeds, &mut sinks);
        sinks.classify()
    }

    fn run_taint(&self, seed: Item) -> SiteVerdict {
        let mut sinks = Sinks::default();
        self.propagate(&[seed], &mut sinks);
        sinks.classify()
    }

    /// Monotone worklist closure over taint items from `seeds`,
    /// accumulating sinks.
    fn propagate(&self, seeds: &[Item], sinks: &mut Sinks) {
        let n = self.reachable_pc.len();
        let mut seen = Seen { bits: vec![0; (2 * n + 2).div_ceil(64)], n };
        let mut work = Vec::new();
        for &seed in seeds {
            push(&mut work, &mut seen, seed);
        }
        while let Some(item) = work.pop() {
            match item {
                Item::Def(pc) => self.flow_def(pc, sinks, &mut work, &mut seen),
                Item::PredDef(pc) => self.flow_pred(pc, sinks, &mut work, &mut seen),
                Item::GlobalSpace => {
                    for &l in &self.global_loads {
                        push(&mut work, &mut seen, Item::Def(l));
                    }
                }
                Item::SharedSpace => {
                    for &l in &self.shared_loads {
                        push(&mut work, &mut seen, Item::Def(l));
                    }
                }
            }
        }
    }

    /// Propagate a corrupted GPR definition at `pc` through its uses.
    fn flow_def(&self, pc: u32, sinks: &mut Sinks, work: &mut Vec<Item>, seen: &mut Seen) {
        for &d in &self.defs_at[pc as usize] {
            let reg = self.du.defs[d as usize].reg;
            for &u in &self.du.uses[d as usize] {
                let meta = self.kernel.decoded().meta(u);
                if meta.is_warp_sync {
                    sinks.warp = true;
                    continue;
                }
                // Memory ops: distinguish the address operand from the
                // value operand ([`MemOp`]'s operand roles).
                if let Some(m) = meta.op.mem() {
                    let i = &self.kernel.instrs()[u as usize];
                    let is_base = i.srcs[0].reg() == Some(reg);
                    if is_base || i.stored_regs().contains(&Some(reg)) {
                        // A corrupted base misdirects the access.
                        sinks.addr |= is_base;
                        if m.stores {
                            push(work, seen, sinks.write_to(m));
                        }
                        // A load's misread value, and an atomic's
                        // (possibly perturbed) old contents, flow on.
                        if m.loads {
                            push(work, seen, Item::Def(u));
                        }
                        continue;
                    }
                }
                // Plain data flow: the consumer's outputs are tainted.
                if meta.writes_pred {
                    push(work, seen, Item::PredDef(u));
                }
                if !self.kernel.decoded().written_regs(u as usize).is_empty() {
                    push(work, seen, Item::Def(u));
                }
            }
        }
    }

    /// Propagate a corrupted predicate written at `pc`: every reachable
    /// guard, select, or branch on that predicate may observe it (the
    /// conservative, order-insensitive reading of the guard edges).
    fn flow_pred(&self, pc: u32, sinks: &mut Sinks, work: &mut Vec<Item>, seen: &mut Seen) {
        let Some(p) = self.written_pred(pc) else { return };
        for &u in &self.pred_users[p.0 as usize] {
            let meta = self.kernel.decoded().meta(u);
            match meta.op {
                // A flipped branch condition is the control sink, and by
                // control dependence everything in the branch's influence
                // region may execute differently.
                Op::Bra => {
                    sinks.ctl = true;
                    self.taint_region(u, sinks, work, seen);
                }
                // A guard flip on EXIT/BAR changes which threads
                // terminate or arrive: control.
                Op::Exit | Op::Bar => sinks.ctl = true,
                _ => {
                    // A guard flip on a memory op suppresses or replays
                    // the access: the store side alters output, and a
                    // replayed access may be one the golden run's data
                    // would never have issued (address not provably
                    // valid).
                    if let Some(m) = meta.op.mem() {
                        sinks.addr = true;
                        if m.stores {
                            push(work, seen, sinks.write_to(m));
                        }
                    }
                    // Whether guarded-op or SEL: its outputs may differ.
                    if meta.writes_pred {
                        push(work, seen, Item::PredDef(u));
                    }
                    if !self.kernel.decoded().written_regs(u as usize).is_empty() {
                        push(work, seen, Item::Def(u));
                    }
                }
            }
        }
    }

    /// Control-dependence closure of a corrupted branch at `pc`: every
    /// definition, store, and barrier in the influence region may
    /// execute differently.
    fn taint_region(&self, pc: u32, sinks: &mut Sinks, work: &mut Vec<Item>, seen: &mut Seen) {
        for &b in &self.influence[pc as usize] {
            let (start, end) = self.block_ranges[b as usize];
            for u in start..end {
                let meta = self.kernel.decoded().meta(u);
                if let Some(m) = meta.op.mem().filter(|m| m.stores) {
                    push(work, seen, sinks.write_to(m));
                }
                if matches!(meta.op, Op::Bar | Op::Exit) {
                    sinks.ctl = true;
                }
                if meta.writes_pred {
                    push(work, seen, Item::PredDef(u));
                }
                if !self.kernel.decoded().written_regs(u as usize).is_empty() {
                    push(work, seen, Item::Def(u));
                }
            }
        }
    }

    fn written_pred(&self, pc: u32) -> Option<Pred> {
        self.kernel.instrs()[pc as usize].pdst
    }
}

/// The items one taint query has reached, one bit per item: `Def(pc)` at
/// `pc`, `PredDef(pc)` at `n + pc`, then the global and shared spaces,
/// for `n` the kernel's length. Membership is a bit test, so a query
/// costs time linear in the items and edges it visits.
struct Seen {
    bits: Vec<u64>,
    n: usize,
}

impl Seen {
    /// Add `item`; whether it was new.
    fn insert(&mut self, item: Item) -> bool {
        let i = match item {
            Item::Def(pc) => pc as usize,
            Item::PredDef(pc) => self.n + pc as usize,
            Item::GlobalSpace => 2 * self.n,
            Item::SharedSpace => 2 * self.n + 1,
        };
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        let new = self.bits[word] & bit == 0;
        self.bits[word] |= bit;
        new
    }
}

fn push(work: &mut Vec<Item>, seen: &mut Seen, item: Item) {
    if seen.insert(item) {
        work.push(item);
    }
}
