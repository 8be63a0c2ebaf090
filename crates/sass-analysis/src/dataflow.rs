//! Dataflow passes over the CFG: reaching definitions and def-use chains,
//! bit-level register liveness, definite-assignment, and a uniformity
//! (divergence) analysis.
//!
//! All passes share the predecode layer's read/write model of the ISA
//! ([`gpu_arch::DecodedKernel`]) — the same tables the simulator and the
//! injectors consume:
//!
//! * reads carry a *bit mask* of the source register that the instruction
//!   can actually observe — half-precision ops read the low 16 bits,
//!   shift counts the low 5, everything else all 32;
//! * 64-bit (`D*`) operands and `ST.64` values expand to the aligned
//!   even/odd register pair, matching [`gpu_arch::Instr::src_regs`];
//! * MMA fragments expand to the A/B/C register ranges the simulator
//!   reads and writes (`exec_mma` walks `base..base+4`, and `base..base+8`
//!   for the FMMA accumulator);
//! * only *unguarded* definitions kill: a `@P0 MOV` may leave the old
//!   value in place, so the old value stays live (and a prior definition
//!   still reaches) across it.
//!
//! Each pass decodes the kernel once up front, so the fixpoint iterations
//! index precomputed read/write tables instead of re-deriving them per
//! (block, instruction) visit.
//!
//! The bit-level liveness fixpoint itself is
//! [`gpu_arch::decode::RegLiveness`], which the simulator also uses to
//! ignore dead registers when a trial rejoins its golden run; this module
//! maps it onto the CFG's reachable code.
//!
//! The bit-level liveness result is what proves injection sites masked
//! (see [`crate::StaticMasks`]): a flipped destination bit that no path
//! ever observes cannot change memory, control flow, or addresses, so the
//! faulty run's architectural outputs are bit-identical to the golden
//! run's.

use crate::cfg::Cfg;
use gpu_arch::decode::RegLiveness;
use gpu_arch::{DecodedKernel, Instr, InstrMeta, Kernel, Op, Pred, Reg, SpecialReg};

/// Number of real (non-`RZ`) general-purpose registers.
pub use gpu_arch::decode::TRACKED_REGS;

/// A bitset over the 255 real registers.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct RegSet {
    words: [u64; 4],
}

impl RegSet {
    /// Empty set.
    pub fn new() -> RegSet {
        RegSet::default()
    }

    /// Add `r` (no-op for `RZ`).
    pub fn insert(&mut self, r: Reg) {
        if !r.is_rz() {
            self.words[r.0 as usize / 64] |= 1 << (r.0 % 64);
        }
    }

    /// Remove `r`.
    pub fn remove(&mut self, r: Reg) {
        if !r.is_rz() {
            self.words[r.0 as usize / 64] &= !(1 << (r.0 % 64));
        }
    }

    /// Membership test (`RZ` is never a member).
    pub fn contains(&self, r: Reg) -> bool {
        !r.is_rz() && self.words[r.0 as usize / 64] & (1 << (r.0 % 64)) != 0
    }

    /// Union in `other`; returns true if `self` grew.
    pub fn union_with(&mut self, other: &RegSet) -> bool {
        let mut grew = false;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            let new = *w | o;
            grew |= new != *w;
            *w = new;
        }
        grew
    }
}

/// Observability masks, re-exported from the predecode layer (the
/// definitions moved to [`gpu_arch::decode`]).
pub use gpu_arch::decode::{OBS_FULL as FULL, OBS_HALF as HALF, OBS_SHIFT_COUNT as SHIFT_COUNT};

/// Registers read by `i` with the observed-bit mask per read.
///
/// Delegates to [`gpu_arch::decode::observed_reads_of`]; passes that walk
/// a whole kernel should decode once and use
/// [`DecodedKernel::observed_reads`] instead.
pub fn observed_reads(i: &Instr) -> Vec<(Reg, u32)> {
    gpu_arch::decode::observed_reads_of(i)
}

/// Registers written by `i`, MMA fragments expanded (see
/// [`gpu_arch::decode::written_regs_of`]).
pub fn written_regs(i: &Instr) -> Vec<Reg> {
    gpu_arch::decode::written_regs_of(i).as_slice().to_vec()
}

/// True if the definitions of `i` overwrite the whole destination on every
/// executing thread: unguarded scalar writes kill; guarded writes and
/// warp-level MMA/SHFL writes do not (the conservative direction for both
/// liveness and reaching definitions).
pub fn def_kills(i: &Instr) -> bool {
    InstrMeta::new(i).def_kills
}

/// Bit-level liveness: which bits of which registers may still be
/// observed after each instruction.
pub struct Liveness {
    /// Per instruction: observed mask of the destination *after* the
    /// write. Low 32 bits cover `dst`, high 32 cover `dst.pair_hi()` for
    /// pair-writing ops. Zero for instructions without a GPR destination
    /// and for unreachable code.
    pub dst_observed: Vec<u64>,
    /// Per register: the union over all reachable instructions of the
    /// observed-bit masks with which the register is ever read. A
    /// register-file bit outside this mask can never influence execution,
    /// no matter when it is flipped.
    pub read_union: [u32; TRACKED_REGS],
}

/// Bit-level liveness over `cfg`'s reachable code: the fixpoint is
/// [`RegLiveness`], shared with the simulator's golden rejoin.
pub fn liveness(kernel: &Kernel, cfg: &Cfg) -> Liveness {
    let decoded = DecodedKernel::new(kernel);
    let reachable = |pc: usize| cfg.reachable[cfg.block_of[pc] as usize];
    let mut dst_observed = vec![0u64; kernel.instrs.len()];
    RegLiveness::new(kernel, &decoded).sweep(|pc, after, _| {
        let (i, meta) = (&kernel.instrs[pc], decoded.meta(pc as u32));
        if reachable(pc) && !meta.has_no_dst && !i.dst.is_rz() {
            let observed = |r: Reg| u64::from(after.get(r.0 as usize).copied().unwrap_or(0));
            let mut o = observed(i.dst);
            if meta.writes_pair && !i.dst.pair_hi().is_rz() {
                o |= observed(i.dst.pair_hi()) << 32;
            }
            dst_observed[pc] = o;
        }
    });
    let mut read_union = [0u32; TRACKED_REGS];
    for pc in (0..kernel.instrs.len()).filter(|&pc| reachable(pc)) {
        for &(r, m) in decoded.observed_reads(pc) {
            read_union[r.0 as usize] |= m;
        }
    }
    Liveness { dst_observed, read_union }
}

/// One definition site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Def {
    /// Instruction index of the write.
    pub pc: u32,
    /// The register written (pair writes produce two defs).
    pub reg: Reg,
}

/// Reaching definitions with def-use chains.
pub struct DefUse {
    /// All definition sites, in program order.
    pub defs: Vec<Def>,
    /// Per def (parallel to `defs`): the instruction indices that may
    /// observe the defined value.
    pub uses: Vec<Vec<u32>>,
}

/// Compute reaching definitions and def-use chains over reachable code.
pub fn def_use(kernel: &Kernel, cfg: &Cfg) -> DefUse {
    let decoded = DecodedKernel::new(kernel);
    // Enumerate defs and index them per register.
    let mut defs = Vec::new();
    let mut defs_of_reg: Vec<Vec<u32>> = vec![Vec::new(); TRACKED_REGS];
    for b in 0..cfg.blocks.len() {
        if !cfg.reachable[b] {
            continue;
        }
        for pc in cfg.blocks[b].range() {
            for &r in decoded.written_regs(pc) {
                defs_of_reg[r.0 as usize].push(defs.len() as u32);
                defs.push(Def { pc: pc as u32, reg: r });
            }
        }
    }
    let nd = defs.len();
    let words = nd.div_ceil(64).max(1);
    let nb = cfg.blocks.len();
    let mut in_sets = vec![vec![0u64; words]; nb];
    let set = |s: &mut [u64], d: u32| s[d as usize / 64] |= 1 << (d % 64);
    let clear = |s: &mut [u64], d: u32| s[d as usize / 64] &= !(1 << (d % 64));
    let test = |s: &[u64], d: u32| s[d as usize / 64] & (1 << (d % 64)) != 0;

    // Block transfer applied instruction by instruction (gen/kill per
    // instruction is simpler than precomputing block summaries and fast
    // enough at these kernel sizes).
    let apply_block = |block: usize, cur: &mut Vec<u64>, mut chains: Option<&mut Vec<Vec<u32>>>| {
        for pc in cfg.blocks[block].range() {
            if let Some(chains) = chains.as_deref_mut() {
                for &(r, _) in decoded.observed_reads(pc) {
                    for &d in &defs_of_reg[r.0 as usize] {
                        if test(cur, d) && !chains[d as usize].contains(&(pc as u32)) {
                            chains[d as usize].push(pc as u32);
                        }
                    }
                }
            }
            let kills = decoded.meta(pc as u32).def_kills;
            for &r in decoded.written_regs(pc) {
                for &d in &defs_of_reg[r.0 as usize] {
                    if kills && defs[d as usize].pc != pc as u32 {
                        clear(cur, d);
                    }
                    if defs[d as usize].pc == pc as u32 {
                        set(cur, d);
                    }
                }
            }
        }
    };

    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..nb {
            if !cfg.reachable[b] {
                continue;
            }
            let mut cur = vec![0u64; words];
            for &p in &cfg.blocks[b].preds {
                if !cfg.reachable[p as usize] {
                    continue;
                }
                // in[b] |= out[p]; out is recomputed from in on the fly.
                let mut pout = in_sets[p as usize].clone();
                apply_block(p as usize, &mut pout, None);
                for (c, o) in cur.iter_mut().zip(&pout) {
                    *c |= o;
                }
            }
            if cur != in_sets[b] {
                in_sets[b] = cur;
                changed = true;
            }
        }
    }

    let mut uses = vec![Vec::new(); nd];
    for (b, in_set) in in_sets.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        let mut cur = in_set.clone();
        apply_block(b, &mut cur, Some(&mut uses));
    }
    DefUse { defs, uses }
}

/// A read of a register on which *no* path from entry has performed any
/// write: the value is whatever the register file holds at launch (the
/// simulator zero-initializes, real hardware does not promise to).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UninitRead {
    /// Reading instruction.
    pub pc: u32,
    /// The register read.
    pub reg: Reg,
}

/// Find reads of never-written registers (definite uninitialized reads).
///
/// Uses a may-assign forward pass — a guarded write counts as an
/// assignment — so only reads with *no* defining path are reported, which
/// keeps the lint free of false positives on predicated code.
pub fn uninitialized_reads(kernel: &Kernel, cfg: &Cfg) -> Vec<UninitRead> {
    let decoded = DecodedKernel::new(kernel);
    let nb = cfg.blocks.len();
    let mut in_sets = vec![RegSet::new(); nb];
    let out_of = |block: usize, mut cur: RegSet| {
        for pc in cfg.blocks[block].range() {
            for &r in decoded.written_regs(pc) {
                cur.insert(r);
            }
        }
        cur
    };
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..nb {
            if !cfg.reachable[b] {
                continue;
            }
            let mut cur = RegSet::new();
            for &p in &cfg.blocks[b].preds {
                if cfg.reachable[p as usize] {
                    cur.union_with(&out_of(p as usize, in_sets[p as usize]));
                }
            }
            if cur != in_sets[b] {
                in_sets[b] = cur;
                changed = true;
            }
        }
    }
    let mut out = Vec::new();
    for (b, in_set) in in_sets.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        let mut cur = *in_set;
        for pc in cfg.blocks[b].range() {
            for &(r, _) in decoded.observed_reads(pc) {
                if !cur.contains(r) && !out.contains(&UninitRead { pc: pc as u32, reg: r }) {
                    out.push(UninitRead { pc: pc as u32, reg: r });
                }
            }
            for &r in decoded.written_regs(pc) {
                cur.insert(r);
            }
        }
    }
    out
}

/// Uniformity (divergence) analysis results.
pub struct Uniformity {
    /// Per block: may threads of one warp disagree about executing it?
    pub divergent_block: Vec<bool>,
    /// Per instruction: is its `@P` guard predicate possibly
    /// thread-varying at that point? (`false` for unguarded instructions.)
    pub guard_varying: Vec<bool>,
}

fn forced_varying(op: Op) -> bool {
    matches!(
        op,
        // Loads and atomics: data-dependent values.
        Op::Ldg(_) | Op::Lds(_) | Op::AtomGAdd | Op::AtomSAdd
            // Warp ops produce per-lane results by construction.
            | Op::Shfl(_) | Op::Hmma | Op::Fmma
            // Thread-identity special registers.
            | Op::S2r(SpecialReg::TidX)
            | Op::S2r(SpecialReg::TidY)
            | Op::S2r(SpecialReg::LaneId)
            | Op::S2r(SpecialReg::WarpId)
    )
}

/// Taint state while walking a block: varying registers + predicates.
#[derive(Clone, Copy)]
struct Taint {
    regs: RegSet,
    preds: u8,
}

/// Apply one instruction's taint transfer; returns whether its guard is
/// varying at this point.
fn taint_transfer(
    decoded: &DecodedKernel,
    pc: usize,
    i: &Instr,
    block_divergent: bool,
    t: &mut Taint,
) -> bool {
    let mut var = forced_varying(i.op) || block_divergent;
    for &(r, _) in decoded.observed_reads(pc) {
        var |= t.regs.contains(r);
    }
    if let Some((p, _)) = i.psrc {
        var |= !p.is_pt() && t.preds & (1 << p.0) != 0;
    }
    let guard_var =
        i.guard.map(|g| !g.pred.is_pt() && t.preds & (1 << g.pred.0) != 0).unwrap_or(false);
    var |= guard_var;
    for &r in decoded.written_regs(pc) {
        if var {
            t.regs.insert(r);
        } else if i.guard.is_none() {
            t.regs.remove(r);
        }
    }
    if let Some(p) = i.pdst {
        if !p.is_pt() {
            if var {
                t.preds |= 1 << p.0;
            } else if i.guard.is_none() {
                t.preds &= !(1 << p.0);
            }
        }
    }
    guard_var
}

/// Flow-sensitive taint analysis from thread-identity sources, interleaved
/// with control-dependence propagation: a branch on a varying predicate
/// makes every block up to its reconvergence point divergent, and any
/// definition inside a divergent region is itself varying. Iterated to
/// fixpoint (both lattices only grow).
pub fn uniformity(kernel: &Kernel, cfg: &Cfg) -> Uniformity {
    let instrs = &kernel.instrs;
    let decoded = DecodedKernel::new(kernel);
    let nb = cfg.blocks.len();
    let mut divergent = vec![false; nb];
    let mut state_in = vec![Taint { regs: RegSet::new(), preds: 0 }; nb];

    loop {
        // Inner fixpoint: taint propagation under the current divergence
        // map.
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..nb {
                if !cfg.reachable[b] {
                    continue;
                }
                let mut t = state_in[b];
                for pc in cfg.blocks[b].range() {
                    taint_transfer(&decoded, pc, &instrs[pc], divergent[b], &mut t);
                }
                for &s in &cfg.blocks[b].succs {
                    let s = s as usize;
                    changed |= state_in[s].regs.union_with(&t.regs);
                    if state_in[s].preds | t.preds != state_in[s].preds {
                        state_in[s].preds |= t.preds;
                        changed = true;
                    }
                }
            }
        }

        // Re-derive divergent regions from varying branch guards.
        let mut grew = false;
        for b in 0..nb {
            if !cfg.reachable[b] {
                continue;
            }
            let last = cfg.blocks[b].end as usize - 1;
            if !(instrs[last].op == Op::Bra && instrs[last].guard.is_some()) {
                continue;
            }
            let mut t = state_in[b];
            for pc in cfg.blocks[b].range() {
                if pc == last {
                    break;
                }
                taint_transfer(&decoded, pc, &instrs[pc], divergent[b], &mut t);
            }
            let g = instrs[last].guard.expect("checked above");
            let guard_var = (!g.pred.is_pt() && t.preds & (1 << g.pred.0) != 0) || divergent[b];
            if guard_var {
                for r in cfg.influence_region(b as u32) {
                    if !divergent[r as usize] {
                        divergent[r as usize] = true;
                        grew = true;
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }

    // Final sweep: per-instruction guard taint.
    let mut guard_varying = vec![false; instrs.len()];
    for b in 0..nb {
        if !cfg.reachable[b] {
            continue;
        }
        let mut t = state_in[b];
        for pc in cfg.blocks[b].range() {
            guard_varying[pc] = taint_transfer(&decoded, pc, &instrs[pc], divergent[b], &mut t);
        }
    }

    Uniformity { divergent_block: divergent, guard_varying }
}

/// A predicate definition no later instruction ever observes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeadPredWrite {
    /// The writing instruction (`SETP` family).
    pub pc: u32,
    /// The predicate written.
    pub pred: Pred,
}

/// Backward predicate liveness: find `SETP`s whose result no path ever
/// observes (as an `@P` guard, a `SEL`/atomic condition source, or a
/// branch guard).
///
/// Mirrors the bit-level register [`liveness`]: a guarded predicate
/// write does not kill (the old value may survive), and an
/// instruction's own guard reads the *old* predicate, so a
/// `@P0 ISETP P0, ...` keeps prior definitions of `P0` live.
pub fn dead_predicate_writes(kernel: &Kernel, cfg: &Cfg) -> Vec<DeadPredWrite> {
    let nb = cfg.blocks.len();
    // live-out predicate mask per block (bit per predicate, PT excluded).
    let mut live_in = vec![0u8; nb];
    let transfer = |block: usize, live_out: u8| -> u8 {
        let mut live = live_out;
        for pc in cfg.blocks[block].range().rev() {
            let i = &kernel.instrs[pc];
            if let Some(p) = i.pdst {
                if !p.is_pt() && i.guard.is_none() {
                    live &= !(1 << p.0);
                }
            }
            if let Some(g) = i.guard {
                if !g.pred.is_pt() {
                    live |= 1 << g.pred.0;
                }
            }
            if let Some((p, _)) = i.psrc {
                if !p.is_pt() {
                    live |= 1 << p.0;
                }
            }
        }
        live
    };
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            if !cfg.reachable[b] {
                continue;
            }
            let mut out = 0u8;
            for &s in &cfg.blocks[b].succs {
                out |= live_in[s as usize];
            }
            let next = transfer(b, out);
            if next != live_in[b] {
                live_in[b] = next;
                changed = true;
            }
        }
    }
    let mut dead = Vec::new();
    for b in 0..nb {
        if !cfg.reachable[b] {
            continue;
        }
        let mut live = 0u8;
        for &s in &cfg.blocks[b].succs {
            live |= live_in[s as usize];
        }
        // Walk backward recording each write's liveness at its own point.
        for pc in cfg.blocks[b].range().rev() {
            let i = &kernel.instrs[pc];
            if let Some(p) = i.pdst {
                if !p.is_pt() {
                    if live & (1 << p.0) == 0 {
                        dead.push(DeadPredWrite { pc: pc as u32, pred: p });
                    }
                    if i.guard.is_none() {
                        live &= !(1 << p.0);
                    }
                }
            }
            if let Some(g) = i.guard {
                if !g.pred.is_pt() {
                    live |= 1 << g.pred.0;
                }
            }
            if let Some((p, _)) = i.psrc {
                if !p.is_pt() {
                    live |= 1 << p.0;
                }
            }
        }
    }
    dead.sort_by_key(|d| d.pc);
    dead
}

/// A predicate read (guard or condition source) with no assignment on
/// any path from kernel entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnwrittenGuard {
    /// The reading instruction.
    pub pc: u32,
    /// The predicate read.
    pub pred: Pred,
}

/// Find predicate reads that no path can have assigned (may-assign
/// forward pass, mirroring [`uninitialized_reads`]): predicates reset to
/// false at launch, so such a guard is a constant — `@P` never fires and
/// `@!P` always does.
pub fn unwritten_guards(kernel: &Kernel, cfg: &Cfg) -> Vec<UnwrittenGuard> {
    let nb = cfg.blocks.len();
    let mut in_sets = vec![0u8; nb];
    let out_of = |block: usize, mut cur: u8| -> u8 {
        for pc in cfg.blocks[block].range() {
            if let Some(p) = kernel.instrs[pc].pdst {
                if !p.is_pt() {
                    cur |= 1 << p.0;
                }
            }
        }
        cur
    };
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..nb {
            if !cfg.reachable[b] {
                continue;
            }
            let mut cur = 0u8;
            for &p in &cfg.blocks[b].preds {
                if cfg.reachable[p as usize] {
                    cur |= out_of(p as usize, in_sets[p as usize]);
                }
            }
            if cur != in_sets[b] {
                in_sets[b] = cur;
                changed = true;
            }
        }
    }
    let mut out: Vec<UnwrittenGuard> = Vec::new();
    for (b, &in_set) in in_sets.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        let mut cur = in_set;
        for pc in cfg.blocks[b].range() {
            let i = &kernel.instrs[pc];
            let mut check = |p: Pred| {
                if !p.is_pt() && cur & (1 << p.0) == 0 {
                    let hit = UnwrittenGuard { pc: pc as u32, pred: p };
                    if !out.contains(&hit) {
                        out.push(hit);
                    }
                }
            };
            if let Some(g) = i.guard {
                check(g.pred);
            }
            if let Some((p, _)) = i.psrc {
                check(p);
            }
            if let Some(p) = i.pdst {
                if !p.is_pt() {
                    cur |= 1 << p.0;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_arch::{CmpOp, KernelBuilder, Operand, Pred, Reg};

    fn straight(f: impl FnOnce(&mut KernelBuilder)) -> Kernel {
        let mut b = KernelBuilder::new("t");
        f(&mut b);
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn dead_write_has_zero_observed_mask() {
        let k = straight(|b| {
            b.mov(Reg(0), Operand::Imm(7));
            b.mov(Reg(1), Operand::Imm(9)); // never read
            b.stg(gpu_arch::MemWidth::W32, Reg(2), 0, Reg(0));
        });
        let cfg = Cfg::build(&k);
        let lv = liveness(&k, &cfg);
        assert_ne!(lv.dst_observed[0], 0, "stored value is observed");
        assert_eq!(lv.dst_observed[1], 0, "R1 is never read");
    }

    #[test]
    fn half_consumers_observe_only_the_low_half() {
        let k = straight(|b| {
            b.mov(Reg(0), Operand::Imm(0x1234_5678));
            b.hadd(Reg(1), Operand::Reg(Reg(0)), Operand::Reg(Reg(0)));
            b.stg(gpu_arch::MemWidth::W16, Reg(2), 0, Reg(1));
        });
        let cfg = Cfg::build(&k);
        let lv = liveness(&k, &cfg);
        assert_eq!(lv.dst_observed[0], u64::from(HALF));
        assert_eq!(lv.dst_observed[1], u64::from(HALF));
        assert_eq!(lv.read_union[0], HALF);
    }

    #[test]
    fn shift_count_observes_five_bits() {
        let k = straight(|b| {
            b.mov(Reg(0), Operand::Imm(3));
            b.shl(Reg(1), Operand::Reg(Reg(2)), Operand::Reg(Reg(0)));
            b.stg(gpu_arch::MemWidth::W32, Reg(4), 0, Reg(1));
        });
        let cfg = Cfg::build(&k);
        let lv = liveness(&k, &cfg);
        assert_eq!(lv.dst_observed[0], u64::from(SHIFT_COUNT));
    }

    #[test]
    fn guarded_writes_do_not_kill() {
        let k = {
            let mut b = KernelBuilder::new("g");
            b.mov(Reg(0), Operand::Imm(1));
            b.isetp(Pred(0), CmpOp::Lt, Operand::Reg(Reg(1)), Operand::Imm(4));
            b.if_p(Pred(0));
            b.mov(Reg(0), Operand::Imm(2)); // guarded redefinition
            b.stg(gpu_arch::MemWidth::W32, Reg(2), 0, Reg(0));
            b.exit();
            b.build().unwrap()
        };
        let cfg = Cfg::build(&k);
        let lv = liveness(&k, &cfg);
        // The first MOV may still be observed (guard can fail).
        assert_ne!(lv.dst_observed[0], 0);
    }

    #[test]
    fn def_use_chains_connect_defs_to_reads() {
        let k = straight(|b| {
            b.mov(Reg(0), Operand::Imm(7));
            b.iadd(Reg(1), Operand::Reg(Reg(0)), Operand::Imm(1));
            b.stg(gpu_arch::MemWidth::W32, Reg(2), 0, Reg(1));
        });
        let cfg = Cfg::build(&k);
        let du = def_use(&k, &cfg);
        let d0 = du.defs.iter().position(|d| d.pc == 0).unwrap();
        assert_eq!(du.uses[d0], vec![1]);
        let d1 = du.defs.iter().position(|d| d.pc == 1).unwrap();
        assert_eq!(du.uses[d1], vec![2]);
    }

    #[test]
    fn uninitialized_read_detected_and_initialized_not() {
        let k = straight(|b| {
            b.iadd(Reg(1), Operand::Reg(Reg(0)), Operand::Imm(1)); // R0 never written
            b.stg(gpu_arch::MemWidth::W32, Reg(2), 0, Reg(1)); // R2 never written
        });
        let cfg = Cfg::build(&k);
        let ur = uninitialized_reads(&k, &cfg);
        assert!(ur.contains(&UninitRead { pc: 0, reg: Reg(0) }));
        assert!(ur.contains(&UninitRead { pc: 1, reg: Reg(2) }));
        assert!(!ur.iter().any(|u| u.reg == Reg(1)));
    }

    #[test]
    fn tid_branches_make_blocks_divergent_and_ctaid_does_not() {
        let build = |sr: gpu_arch::SpecialReg| {
            let mut b = KernelBuilder::new("u");
            b.s2r(Reg(0), sr);
            b.isetp(Pred(0), CmpOp::Lt, Operand::Reg(Reg(0)), Operand::Imm(4));
            b.if_not_p(Pred(0));
            b.bra("skip");
            b.mov(Reg(1), Operand::Imm(1));
            b.label("skip");
            b.exit();
            b.build().unwrap()
        };
        let tid = build(gpu_arch::SpecialReg::TidX);
        let cfg = Cfg::build(&tid);
        let u = uniformity(&tid, &cfg);
        assert!(u.divergent_block.iter().any(|&d| d), "tid-guarded region diverges");

        let ctaid = build(gpu_arch::SpecialReg::CtaidX);
        let cfg = Cfg::build(&ctaid);
        let u = uniformity(&ctaid, &cfg);
        assert!(u.divergent_block.iter().all(|&d| !d), "ctaid branches are uniform");
    }
}
