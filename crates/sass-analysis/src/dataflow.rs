//! Dataflow passes over the CFG: reaching definitions and def-use chains,
//! bit-level register liveness, may-assignment of registers and
//! predicates, predicate liveness, and a uniformity (divergence) analysis.
//!
//! Every pass takes the kernel's [`Cfg`], built once by the entry point
//! that runs it ([`crate::KernelAnalysis::compute`] or [`crate::verify`]),
//! reads the decode the kernel was built with ([`Kernel::decoded`]), and
//! runs on the CFG's one solver: a per-
//! instruction transfer written once, carried through whole blocks by
//! `Cfg::solve` to the fixpoint and then through each reachable
//! instruction by `Cfg::sweep`, which records the pass's answer.
//!
//! All passes share the ISA's one register read/write model,
//! [`gpu_arch::DecodedKernel::observed_reads`] and
//! [`gpu_arch::DecodedKernel::written_regs`] — the model the verdict
//! walks and the register-file bound read too:
//!
//! * reads carry a *bit mask* of the source register that the instruction
//!   can actually observe — half-precision ops read the low 16 bits,
//!   shift counts the low 5, everything else all 32;
//! * 64-bit (`D*`) operands and `ST.64` values expand to the aligned
//!   even/odd register pair ([`gpu_arch::Op::reads_pairs`]);
//! * MMA fragments expand to the A/B/C register ranges the simulator
//!   reads and writes (`exec_mma` walks `base..base+4`, and `base..base+8`
//!   for the FMMA accumulator);
//! * only *unguarded* definitions kill: a `@P0 MOV` may leave the old
//!   value in place, so the old value stays live (and a prior definition
//!   still reaches) across it.
//!
//! The bit-level liveness fixpoint itself is
//! [`gpu_arch::decode::RegLiveness`], which the simulator also uses to
//! ignore dead registers when a trial rejoins its golden run; this module
//! maps it onto the CFG's reachable code.
//!
//! The bit-level liveness result is what proves injection sites masked
//! (see [`crate::KernelAnalysis`]): a flipped destination bit that no path
//! ever observes cannot change memory, control flow, or addresses, so the
//! faulty run's architectural outputs are bit-identical to the golden
//! run's.

use crate::cfg::Cfg;
use gpu_arch::decode::RegLiveness;
use gpu_arch::{DecodedKernel, Instr, Kernel, Op, Pred, Reg, SpecialReg};

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

    /// Union in `other`.
    pub fn union_with(&mut self, other: &RegSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }
}

/// Predicates `i` reads: its guard and its condition source, `PT` excluded.
fn pred_reads(i: &Instr) -> impl Iterator<Item = Pred> {
    i.guard.map(|g| g.pred).into_iter().chain(i.psrc.map(|(p, _)| p)).filter(|p| !p.is_pt())
}

/// The predicate `i` writes, `PT` excluded.
fn pred_write(i: &Instr) -> Option<Pred> {
    i.pdst.filter(|p| !p.is_pt())
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
    let reachable = |pc: usize| cfg.reachable[cfg.block_of[pc] as usize];
    let decoded = kernel.decoded();
    let mut dst_observed = vec![0u64; kernel.len()];
    RegLiveness::new(kernel).sweep(|pc, after, _| {
        let (i, meta) = (&kernel.instrs()[pc], decoded.meta(pc as u32));
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
    for pc in (0..kernel.len()).filter(|&pc| reachable(pc)) {
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
    let decoded = kernel.decoded();
    // Enumerate defs and index them per register.
    let mut defs = Vec::new();
    let mut defs_of_reg: Vec<Vec<u32>> = vec![Vec::new(); TRACKED_REGS];
    for b in (0..cfg.blocks.len()).filter(|&b| cfg.reachable[b]) {
        for pc in cfg.blocks[b].range() {
            for &r in decoded.written_regs(pc) {
                defs_of_reg[r.0 as usize].push(defs.len() as u32);
                defs.push(Def { pc: pc as u32, reg: r });
            }
        }
    }
    let words = defs.len().div_ceil(64).max(1);
    let test = |s: &[u64], d: u32| s[d as usize / 64] & (1 << (d % 64)) != 0;

    // Gen/kill per instruction: a write defines its own defs and, unless
    // guarded, kills every other def of the register.
    let transfer = |pc: usize, cur: &mut Vec<u64>| {
        let kills = decoded.meta(pc as u32).def_kills;
        for &r in decoded.written_regs(pc) {
            for &d in &defs_of_reg[r.0 as usize] {
                let (word, bit) = (d as usize / 64, 1u64 << (d % 64));
                if defs[d as usize].pc == pc as u32 {
                    cur[word] |= bit;
                } else if kills {
                    cur[word] &= !bit;
                }
            }
        }
    };
    let mut reaching = vec![vec![0u64; words]; cfg.blocks.len()];
    cfg.solve(
        false,
        usize::MAX,
        &mut reaching,
        |b, s| cfg.walk(b, false, s, &transfer),
        |_, _, _, flows| {
            let mut cur = vec![0u64; words];
            for (_, flow) in flows.filter(|&(p, _)| cfg.reachable[p]) {
                cur.iter_mut().zip(&flow).for_each(|(c, f)| *c |= f);
            }
            cur
        },
    );

    let mut uses = vec![Vec::new(); defs.len()];
    cfg.sweep(false, &reaching, |pc, cur| {
        for &(r, _) in decoded.observed_reads(pc) {
            for &d in &defs_of_reg[r.0 as usize] {
                // The sweep visits each pc once, so a repeat is this pc's.
                let chain = &mut uses[d as usize];
                if test(cur, d) && chain.last() != Some(&(pc as u32)) {
                    chain.push(pc as u32);
                }
            }
        }
        transfer(pc, cur);
    });
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

/// A predicate read (guard or condition source) with no assignment on
/// any path from kernel entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnwrittenGuard {
    /// The reading instruction.
    pub pc: u32,
    /// The predicate read.
    pub pred: Pred,
}

/// Find reads of never-written registers and predicates, in program
/// order: the register reads, and the guards and condition sources on
/// predicates (which reset to false at launch, so such a guard is a
/// constant — `@P` never fires and `@!P` always does).
///
/// One may-assign forward pass over both — a guarded write counts as an
/// assignment — so only reads with *no* defining path are reported, which
/// keeps the lints free of false positives on predicated code.
pub fn uninitialized_reads(kernel: &Kernel, cfg: &Cfg) -> (Vec<UninitRead>, Vec<UnwrittenGuard>) {
    let (instrs, decoded) = (kernel.instrs(), kernel.decoded());
    let transfer = |pc: usize, (regs, preds): &mut (RegSet, u8)| {
        for &r in decoded.written_regs(pc) {
            regs.insert(r);
        }
        if let Some(p) = pred_write(&instrs[pc]) {
            *preds |= 1 << p.0;
        }
    };
    let mut assigned = vec![(RegSet::new(), 0u8); cfg.blocks.len()];
    cfg.solve(
        false,
        usize::MAX,
        &mut assigned,
        |b, s| cfg.walk(b, false, s, &transfer),
        |_, _, _, flows| {
            let mut cur = (RegSet::new(), 0u8);
            for (_, (regs, preds)) in flows.filter(|&(p, _)| cfg.reachable[p]) {
                cur.0.union_with(&regs);
                cur.1 |= preds;
            }
            cur
        },
    );

    let (mut regs, mut preds) = (Vec::new(), Vec::new());
    cfg.sweep(false, &assigned, |pc, cur| {
        // The sweep visits each pc once: only this pc's entries can repeat.
        let (reg_start, pred_start) = (regs.len(), preds.len());
        for &(r, _) in decoded.observed_reads(pc) {
            let hit = UninitRead { pc: pc as u32, reg: r };
            if !cur.0.contains(r) && !regs[reg_start..].contains(&hit) {
                regs.push(hit);
            }
        }
        for p in pred_reads(&instrs[pc]) {
            let hit = UnwrittenGuard { pc: pc as u32, pred: p };
            if cur.1 & (1 << p.0) == 0 && !preds[pred_start..].contains(&hit) {
                preds.push(hit);
            }
        }
        transfer(pc, cur);
    });
    (regs, preds)
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
    // Loads and atomics: data-dependent values.
    op.mem().is_some_and(|m| m.loads)
        // Warp ops produce per-lane results by construction.
        || op.is_warp_sync()
        // Thread-identity special registers.
        || matches!(
            op,
            Op::S2r(SpecialReg::TidX)
                | Op::S2r(SpecialReg::TidY)
                | Op::S2r(SpecialReg::LaneId)
                | Op::S2r(SpecialReg::WarpId)
        )
}

/// Uniformity state of a block: varying registers and predicates at its
/// entry, whether the block itself is divergent, and whether the guarded
/// branch that ends it varies (its guard does, or the block diverges).
#[derive(Clone, Copy, Default, PartialEq)]
struct Taint {
    regs: RegSet,
    preds: u8,
    divergent: bool,
    branch_varies: bool,
}

/// Apply one instruction's taint transfer; returns whether its guard is
/// varying at this point.
fn taint_transfer(decoded: &DecodedKernel, pc: usize, i: &Instr, t: &mut Taint) -> bool {
    let mut var = forced_varying(i.op) || t.divergent;
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
    if let Some(p) = pred_write(i) {
        if var {
            t.preds |= 1 << p.0;
        } else if i.guard.is_none() {
            t.preds &= !(1 << p.0);
        }
    }
    guard_var
}

/// Flow-sensitive taint analysis from thread-identity sources, solved
/// together with control dependence: a block is divergent when a guarded
/// branch whose region ([`Cfg::influence_region`]) contains it varies —
/// its guard is varying at the branch, or the branch's block is divergent
/// — and every definition inside a divergent block is itself varying.
/// Both lattices only grow, so one fixpoint covers them.
pub fn uniformity(kernel: &Kernel, cfg: &Cfg) -> Uniformity {
    let (instrs, decoded) = (kernel.instrs(), kernel.decoded());
    let nb = cfg.blocks.len();
    let transfer = |pc: usize, t: &mut Taint| taint_transfer(decoded, pc, &instrs[pc], t);
    let guarded_branch = |b: usize| {
        let last = &instrs[cfg.blocks[b].end as usize - 1];
        last.op == Op::Bra && last.guard.is_some()
    };
    // Per block: the reachable guarded-branch blocks whose influence
    // region contains it.
    let mut controllers = vec![Vec::new(); nb];
    for c in (0..nb).filter(|&c| cfg.reachable[c] && guarded_branch(c)) {
        for r in cfg.influence_region(c as u32) {
            controllers[r as usize].push(c);
        }
    }
    let mut taint = vec![Taint::default(); nb];
    cfg.solve(
        false,
        usize::MAX,
        &mut taint,
        |b, s| {
            cfg.walk(b, false, s, |pc, t| {
                transfer(pc, t);
            })
        },
        |_, b, state, flows| {
            let divergent = controllers[b].iter().any(|&c| state[c].branch_varies);
            let mut cur = Taint { divergent, ..Taint::default() };
            for (_, flow) in flows.filter(|&(p, _)| cfg.reachable[p]) {
                cur.regs.union_with(&flow.regs);
                cur.preds |= flow.preds;
            }
            if guarded_branch(b) {
                let mut guard = false;
                cfg.walk(b, false, &mut cur.clone(), |pc, t| guard = transfer(pc, t));
                cur.branch_varies = guard || divergent;
            }
            cur
        },
    );

    let mut guard_varying = vec![false; instrs.len()];
    cfg.sweep(false, &taint, |pc, t| guard_varying[pc] = transfer(pc, t));
    Uniformity { divergent_block: taint.iter().map(|t| t.divergent).collect(), guard_varying }
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
    // Live predicates before an instruction from those live after it.
    let transfer = |pc: usize, live: &mut u8| {
        let i = &kernel.instrs()[pc];
        if let Some(p) = pred_write(i).filter(|_| i.guard.is_none()) {
            *live &= !(1 << p.0);
        }
        for p in pred_reads(i) {
            *live |= 1 << p.0;
        }
    };
    let mut live_out = vec![0u8; cfg.blocks.len()];
    cfg.solve(
        true,
        usize::MAX,
        &mut live_out,
        |b, s| cfg.walk(b, true, s, &transfer),
        |_, _, _, flows| flows.fold(0, |live, (_, flow)| live | flow),
    );
    let mut dead = Vec::new();
    cfg.sweep(true, &live_out, |pc, live| {
        if let Some(p) = pred_write(&kernel.instrs()[pc]) {
            if *live & (1 << p.0) == 0 {
                dead.push(DeadPredWrite { pc: pc as u32, pred: p });
            }
        }
        transfer(pc, live);
    });
    dead.sort_by_key(|d| d.pc);
    dead
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_arch::decode::{OBS_HALF as HALF, OBS_SHIFT_COUNT as SHIFT_COUNT};
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
        let lv = liveness(&k, &Cfg::build(&k));
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
        let lv = liveness(&k, &Cfg::build(&k));
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
        let lv = liveness(&k, &Cfg::build(&k));
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
        let lv = liveness(&k, &Cfg::build(&k));
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
        let du = def_use(&k, &Cfg::build(&k));
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
        let (ur, _) = uninitialized_reads(&k, &Cfg::build(&k));
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
        let u = uniformity(&tid, &Cfg::build(&tid));
        assert!(u.divergent_block.iter().any(|&d| d), "tid-guarded region diverges");

        let ctaid = build(gpu_arch::SpecialReg::CtaidX);
        let u = uniformity(&ctaid, &Cfg::build(&ctaid));
        assert!(u.divergent_block.iter().all(|&d| !d), "ctaid branches are uniform");
    }
}
