//! Kernel verifier: static lints over the CFG/dataflow results.
//!
//! Lint catalog (see DESIGN.md for the full rationale):
//!
//! | kind                | severity | meaning                                        |
//! |---------------------|----------|------------------------------------------------|
//! | `UninitializedRead` | warning  | register read before any write on any path     |
//! | `DeadWrite`         | warning  | side-effect-free write no path ever observes   |
//! | `UnreachableBlock`  | error    | code no path from entry reaches                |
//! | `DivergentBarrier`  | error    | `BAR.SYNC` under thread-divergent control flow |
//! | `SharedRace`        | warning  | shared-memory access pair with no barrier between |
//! | `LdpOutOfRange`     | error    | `LDP` constant-bank index beyond the launch params |
//! | `DeadPredicateWrite`| warning  | `SETP` result no path ever observes            |
//! | `RedundantGuard`    | warning  | guard/condition predicate never written on any path |
//!
//! Severity policy: *errors* are conditions the simulator executes
//! nondeterministically or nonsensically (classic CUDA undefined
//! behavior); *warnings* are either benign under this engine's defined
//! semantics (registers zero-initialize, so an uninitialized read is
//! deterministic) or heuristic (the shared-race detector reasons about
//! syntactic addresses only).

use crate::cfg::Cfg;
use crate::dataflow;
use gpu_arch::{Instr, Kernel, LaunchConfig, Op, Operand};
use std::fmt;

/// How bad a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational only.
    Info,
    /// Suspicious but well-defined under the simulator's semantics.
    Warning,
    /// Undefined or certainly-unintended behavior.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The lint that fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LintKind {
    /// Register read before any write on any path from entry.
    UninitializedRead,
    /// A side-effect-free write whose value no path observes.
    DeadWrite,
    /// A basic block no path from entry reaches.
    UnreachableBlock,
    /// `BAR.SYNC` control-dependent on a thread-varying branch.
    DivergentBarrier,
    /// Two shared-memory accesses, at least one a write, with no
    /// intervening barrier.
    SharedRace,
    /// `LDP` index beyond the kernel parameter words of the launch.
    LdpOutOfRange,
    /// A `SETP`-family predicate result no path ever observes.
    DeadPredicateWrite,
    /// A guard (or `SEL` condition) on a predicate with no assignment on
    /// any path from entry: predicates reset to false at launch, so the
    /// guard is a constant.
    RedundantGuard,
}

impl LintKind {
    /// Default severity of this lint.
    pub fn severity(self) -> Severity {
        match self {
            LintKind::UninitializedRead => Severity::Warning,
            LintKind::DeadWrite => Severity::Warning,
            LintKind::UnreachableBlock => Severity::Error,
            LintKind::DivergentBarrier => Severity::Error,
            LintKind::SharedRace => Severity::Warning,
            LintKind::LdpOutOfRange => Severity::Error,
            LintKind::DeadPredicateWrite => Severity::Warning,
            LintKind::RedundantGuard => Severity::Warning,
        }
    }

    /// Stable lowercase name (lint output, metrics labels).
    pub fn name(self) -> &'static str {
        match self {
            LintKind::UninitializedRead => "uninitialized-read",
            LintKind::DeadWrite => "dead-write",
            LintKind::UnreachableBlock => "unreachable-block",
            LintKind::DivergentBarrier => "divergent-barrier",
            LintKind::SharedRace => "shared-race",
            LintKind::LdpOutOfRange => "ldp-out-of-range",
            LintKind::DeadPredicateWrite => "dead-predicate-write",
            LintKind::RedundantGuard => "redundant-guard",
        }
    }
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Which lint fired.
    pub kind: LintKind,
    /// Severity (from [`LintKind::severity`]).
    pub severity: Severity,
    /// Instruction index the finding anchors to.
    pub pc: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [{}] @{}: {}", self.severity, self.kind.name(), self.pc, self.message)
    }
}

fn diag(kind: LintKind, pc: u32, message: String) -> Diagnostic {
    Diagnostic { kind, severity: kind.severity(), pc, message }
}

/// Verify `kernel` without launch information. Runs every lint except the
/// constant-bank bounds check (which needs the parameter count).
pub fn verify(kernel: &Kernel) -> Vec<Diagnostic> {
    verify_inner(kernel, None)
}

/// Verify `kernel` against a concrete launch, adding `LdpOutOfRange`.
pub fn verify_with_launch(kernel: &Kernel, launch: &LaunchConfig) -> Vec<Diagnostic> {
    verify_inner(kernel, Some(launch))
}

fn verify_inner(kernel: &Kernel, launch: Option<&LaunchConfig>) -> Vec<Diagnostic> {
    let cfg = Cfg::build(kernel);
    let (instrs, decoded) = (kernel.instrs(), kernel.decoded());
    let mut out = Vec::new();

    // Unreachable blocks.
    for (b, block) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            out.push(diag(
                LintKind::UnreachableBlock,
                block.start,
                format!(
                    "block {b} (instructions {}..{}) is unreachable from entry",
                    block.start, block.end
                ),
            ));
        }
    }

    // Uninitialized reads (definite: no defining path exists; the engine
    // zero-fills the register file, so execution is still deterministic).
    let (uninit, unwritten) = dataflow::uninitialized_reads(kernel, &cfg);
    for u in uninit {
        out.push(diag(
            LintKind::UninitializedRead,
            u.pc,
            format!(
                "{} is read by `{}` but never written on any path",
                u.reg, instrs[u.pc as usize]
            ),
        ));
    }

    // Dead writes via bit-level liveness: the whole destination (pair
    // included) is unobserved on every path.
    let lv = dataflow::liveness(kernel, &cfg);
    for (b, block) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue; // reported as unreachable instead
        }
        for pc in block.range() {
            let i = &instrs[pc];
            // Side-effecting ops (per the predecode layer's classification)
            // are excluded: their register write is incidental to an
            // operation that matters anyway (memory traffic, warp-wide
            // exchange), so an unused destination is a normal idiom.
            if decoded.meta(pc as u32).side_effects || decoded.written_regs(pc).is_empty() {
                continue;
            }
            if lv.dst_observed[pc] == 0 {
                out.push(diag(
                    LintKind::DeadWrite,
                    pc as u32,
                    format!("`{}` writes {} but no path observes the value", i, i.dst),
                ));
            }
        }
    }

    // Dead predicate writes (the predicate analog of DeadWrite; this is
    // also the site class the verdict map prunes as ProvenMasked).
    for d in dataflow::dead_predicate_writes(kernel, &cfg) {
        out.push(diag(
            LintKind::DeadPredicateWrite,
            d.pc,
            format!(
                "`{}` writes {} but no path observes the predicate",
                instrs[d.pc as usize], d.pred
            ),
        ));
    }

    // Guards on never-written predicates: constantly false (or true for
    // `@!P`), so the guarded instruction is unconditionally dropped or
    // unconditionally executed.
    for g in unwritten {
        out.push(diag(
            LintKind::RedundantGuard,
            g.pc,
            format!(
                "`{}` tests {} but no path writes it (predicates reset to false at launch: \
                 the condition is constant)",
                instrs[g.pc as usize], g.pred
            ),
        ));
    }

    // Divergent barriers.
    let uni = dataflow::uniformity(kernel, &cfg);
    for (b, block) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        for pc in block.range() {
            if instrs[pc].op != Op::Bar {
                continue;
            }
            if uni.divergent_block[b] {
                out.push(diag(
                    LintKind::DivergentBarrier,
                    pc as u32,
                    "BAR.SYNC inside a thread-divergent region (threads of one block may \
                     disagree about reaching it)"
                        .to_string(),
                ));
            } else if uni.guard_varying[pc] {
                out.push(diag(
                    LintKind::DivergentBarrier,
                    pc as u32,
                    "BAR.SYNC guarded by a thread-varying predicate".to_string(),
                ));
            }
        }
    }

    // Shared-memory race pairs.
    shared_races(kernel, &cfg, &mut out);

    // Constant-bank bounds.
    if let Some(launch) = launch {
        for (pc, i) in instrs.iter().enumerate() {
            if i.op == Op::Ldp {
                if let Operand::Imm(idx) = i.srcs[0] {
                    if idx as usize >= launch.params.len() {
                        out.push(diag(
                            LintKind::LdpOutOfRange,
                            pc as u32,
                            format!(
                                "LDP reads parameter word {idx} but the launch provides only {}",
                                launch.params.len()
                            ),
                        ));
                    }
                }
            }
        }
    }

    out.sort_by_key(|d| (d.pc, d.kind.name()));
    out
}

/// A shared-memory access for race detection.
#[derive(Clone, Copy)]
struct SharedAccess {
    pc: u32,
    write: bool,
    base: Option<gpu_arch::Reg>,
}

fn shared_access(pc: usize, i: &Instr) -> Option<SharedAccess> {
    let m = i.op.mem().filter(|m| !m.global)?;
    Some(SharedAccess { pc: pc as u32, write: m.stores, base: i.srcs[0].reg() })
}

/// Flag shared-memory access pairs reachable from each other without an
/// intervening `BAR.SYNC`, where at least one access is a write.
///
/// Heuristic suppression: two accesses through the *same base register*
/// (offsets are immediates) address either the same per-thread location
/// (same offset — a same-thread readback or overwrite, not a cross-thread
/// race) or provably distinct locations (different offsets), so such
/// pairs are skipped. The detector is therefore syntactic: rebinding the
/// base register between the accesses can hide a real race, and disjoint
/// tiles accessed through different base registers are reported
/// conservatively.
fn shared_races(kernel: &Kernel, cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    let instrs = kernel.instrs();
    let n = instrs.len();
    // Instruction-granularity successors, the CFG's edges: the next
    // instruction inside a block, the successor blocks' first
    // instructions at its end.
    let succs_of = |pc: usize| -> Vec<usize> {
        let block = &cfg.blocks[cfg.block_of[pc] as usize];
        if pc + 1 < block.end as usize {
            return vec![pc + 1];
        }
        block.succs.iter().map(|&s| cfg.blocks[s as usize].start as usize).collect()
    };

    let accesses: Vec<SharedAccess> = (0..n)
        .filter(|&pc| cfg.reachable[cfg.block_of[pc] as usize])
        .filter_map(|pc| shared_access(pc, &instrs[pc]))
        .collect();
    let mut reported: Vec<(u32, u32)> = Vec::new();
    for a in &accesses {
        // Barrier-bounded forward reachability from `a`.
        let mut seen = vec![false; n];
        let mut stack = succs_of(a.pc as usize);
        while let Some(pc) = stack.pop() {
            if seen[pc] {
                continue;
            }
            seen[pc] = true;
            if instrs[pc].op == Op::Bar {
                continue; // synchronized past this point
            }
            stack.extend(succs_of(pc));
        }
        for b in &accesses {
            if !seen[b.pc as usize] || !(a.write || b.write) {
                continue;
            }
            // Same-base heuristic (see doc comment).
            if a.base.is_some() && a.base == b.base {
                continue;
            }
            let key = (a.pc.min(b.pc), a.pc.max(b.pc));
            if reported.contains(&key) {
                continue;
            }
            reported.push(key);
            let kind_ab = match (a.write, b.write) {
                (true, true) => "write/write",
                (true, false) => "write/read",
                (false, true) => "read/write",
                (false, false) => unreachable!("filtered above"),
            };
            out.push(diag(
                LintKind::SharedRace,
                a.pc,
                format!(
                    "shared-memory {kind_ab} pair with no intervening BAR.SYNC: `{}` @{} and \
                     `{}` @{}",
                    instrs[a.pc as usize], a.pc, instrs[b.pc as usize], b.pc
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_arch::{CmpOp, KernelBuilder, MemWidth, Operand, Pred, Reg};

    fn kinds(diags: &[Diagnostic]) -> Vec<LintKind> {
        diags.iter().map(|d| d.kind).collect()
    }

    #[test]
    fn clean_kernel_produces_no_diagnostics() {
        let mut b = KernelBuilder::new("clean");
        b.mov(Reg(0), Operand::Imm(1));
        b.iadd(Reg(1), Operand::Reg(Reg(0)), Operand::Imm(2));
        b.stg(MemWidth::W32, Reg(2), 0, Reg(1));
        b.exit();
        let k = b.build().unwrap();
        // R2 (the store base) is never written: that IS an uninit read.
        // Write it first for a genuinely clean kernel.
        let mut b = KernelBuilder::new("clean");
        b.ldp(Reg(2), 0);
        b.mov(Reg(0), Operand::Imm(1));
        b.iadd(Reg(1), Operand::Reg(Reg(0)), Operand::Imm(2));
        b.stg(MemWidth::W32, Reg(2), 0, Reg(1));
        b.exit();
        let clean = b.build().unwrap();
        assert!(!verify(&k).is_empty());
        assert!(verify(&clean).is_empty(), "{:?}", verify(&clean));
    }

    #[test]
    fn uninitialized_read_fires() {
        let mut b = KernelBuilder::new("uninit");
        b.iadd(Reg(1), Operand::Reg(Reg(0)), Operand::Imm(1));
        b.ldp(Reg(2), 0);
        b.stg(MemWidth::W32, Reg(2), 0, Reg(1));
        b.exit();
        let k = b.build().unwrap();
        assert!(kinds(&verify(&k)).contains(&LintKind::UninitializedRead));
    }

    #[test]
    fn dead_write_fires() {
        let mut b = KernelBuilder::new("dead");
        b.ldp(Reg(2), 0);
        b.mov(Reg(0), Operand::Imm(1));
        b.mov(Reg(5), Operand::Imm(9)); // never observed
        b.stg(MemWidth::W32, Reg(2), 0, Reg(0));
        b.exit();
        let k = b.build().unwrap();
        let d = verify(&k);
        assert!(kinds(&d).contains(&LintKind::DeadWrite));
        assert!(d.iter().any(|d| d.pc == 2));
    }

    #[test]
    fn unreachable_block_fires_as_error() {
        let mut b = KernelBuilder::new("unreach");
        b.bra("end");
        b.mov(Reg(0), Operand::Imm(1));
        b.label("end");
        b.exit();
        let k = b.build().unwrap();
        let d = verify(&k);
        let u: Vec<_> = d.iter().filter(|d| d.kind == LintKind::UnreachableBlock).collect();
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].severity, Severity::Error);
    }

    #[test]
    fn divergent_barrier_fires_and_uniform_barrier_does_not() {
        let build = |sr: gpu_arch::SpecialReg| {
            let mut b = KernelBuilder::new("bar");
            b.shared(64);
            b.s2r(Reg(0), sr);
            b.isetp(Pred(0), CmpOp::Lt, Operand::Reg(Reg(0)), Operand::Imm(1));
            b.if_not_p(Pred(0));
            b.bra("join");
            b.bar(); // inside the branch shadow
            b.label("join");
            b.exit();
            b.build().unwrap()
        };
        let divergent = build(gpu_arch::SpecialReg::TidX);
        let uniform = build(gpu_arch::SpecialReg::CtaidX);
        assert!(kinds(&verify(&divergent)).contains(&LintKind::DivergentBarrier));
        assert!(!kinds(&verify(&uniform)).contains(&LintKind::DivergentBarrier));
    }

    #[test]
    fn shared_race_fires_without_barrier_and_not_with() {
        let build = |with_bar: bool| {
            let mut b = KernelBuilder::new("race");
            b.shared(256);
            b.s2r_tid_x(Reg(0));
            b.shl(Reg(1), Operand::Reg(Reg(0)), Operand::Imm(2));
            b.iadd(Reg(2), Operand::Reg(Reg(1)), Operand::Imm(128));
            b.sts(MemWidth::W32, Reg(1), 0, Reg(0));
            if with_bar {
                b.bar();
            }
            b.lds(MemWidth::W32, Reg(3), Reg(2), 0); // different base reg
            b.stg(MemWidth::W32, Reg(4), 0, Reg(3));
            b.exit();
            b.build().unwrap()
        };
        assert!(kinds(&verify(&build(false))).contains(&LintKind::SharedRace));
        assert!(!kinds(&verify(&build(true))).contains(&LintKind::SharedRace));
    }

    #[test]
    fn same_base_readback_is_not_a_race() {
        let mut b = KernelBuilder::new("readback");
        b.shared(256);
        b.s2r_tid_x(Reg(0));
        b.shl(Reg(1), Operand::Reg(Reg(0)), Operand::Imm(2));
        b.sts(MemWidth::W32, Reg(1), 0, Reg(0));
        b.lds(MemWidth::W32, Reg(3), Reg(1), 0); // same base, same offset
        b.stg(MemWidth::W32, Reg(4), 0, Reg(3));
        b.exit();
        let k = b.build().unwrap();
        assert!(!kinds(&verify(&k)).contains(&LintKind::SharedRace));
    }

    #[test]
    fn dead_predicate_write_fires_and_observed_predicate_does_not() {
        let build = |observed: bool| {
            let mut b = KernelBuilder::new("deadpred");
            b.ldp(Reg(2), 0);
            b.isetp(Pred(0), CmpOp::Lt, Operand::Reg(Reg(2)), Operand::Imm(5));
            if observed {
                b.if_p(Pred(0));
            }
            b.stg(MemWidth::W32, Reg(2), 0, Reg(2));
            b.exit();
            b.build().unwrap()
        };
        let d = verify(&build(false));
        assert!(kinds(&d).contains(&LintKind::DeadPredicateWrite));
        assert_eq!(
            d.iter().find(|d| d.kind == LintKind::DeadPredicateWrite).unwrap().severity,
            Severity::Warning
        );
        assert!(!kinds(&verify(&build(true))).contains(&LintKind::DeadPredicateWrite));
    }

    #[test]
    fn overwritten_predicate_is_dead_but_branch_use_keeps_it_live() {
        // P0 is set twice; only the second write is observed by the BRA.
        let mut b = KernelBuilder::new("redef");
        b.ldp(Reg(2), 0);
        b.isetp(Pred(0), CmpOp::Lt, Operand::Reg(Reg(2)), Operand::Imm(5));
        b.isetp(Pred(0), CmpOp::Gt, Operand::Reg(Reg(2)), Operand::Imm(9));
        b.if_p(Pred(0));
        b.bra("skip");
        b.stg(MemWidth::W32, Reg(2), 0, Reg(2));
        b.label("skip");
        b.exit();
        let k = b.build().unwrap();
        let d = verify(&k);
        let dead: Vec<_> = d.iter().filter(|d| d.kind == LintKind::DeadPredicateWrite).collect();
        assert_eq!(dead.len(), 1, "{d:?}");
        assert_eq!(dead[0].pc, 1);
    }

    #[test]
    fn redundant_guard_fires_on_never_written_predicate() {
        let mut b = KernelBuilder::new("redguard");
        b.ldp(Reg(2), 0);
        b.if_p(Pred(3)); // P3 is never written anywhere
        b.stg(MemWidth::W32, Reg(2), 0, Reg(2));
        b.stg(MemWidth::W32, Reg(2), 4, Reg(2));
        b.exit();
        let k = b.build().unwrap();
        let d = verify(&k);
        let red: Vec<_> = d.iter().filter(|d| d.kind == LintKind::RedundantGuard).collect();
        assert_eq!(red.len(), 1, "{d:?}");
        assert_eq!(red[0].pc, 1);
        assert_eq!(red[0].severity, Severity::Warning);
    }

    #[test]
    fn guard_after_assignment_is_not_redundant() {
        let mut b = KernelBuilder::new("okguard");
        b.ldp(Reg(2), 0);
        b.isetp(Pred(0), CmpOp::Lt, Operand::Reg(Reg(2)), Operand::Imm(5));
        b.if_p(Pred(0));
        b.stg(MemWidth::W32, Reg(2), 0, Reg(2));
        b.stg(MemWidth::W32, Reg(2), 4, Reg(2));
        b.exit();
        let k = b.build().unwrap();
        assert!(!kinds(&verify(&k)).contains(&LintKind::RedundantGuard));
    }

    #[test]
    fn ldp_bounds_checked_against_launch() {
        let mut b = KernelBuilder::new("ldp");
        b.ldp(Reg(0), 3);
        b.stg(MemWidth::W32, Reg(0), 0, Reg(0));
        b.exit();
        let k = b.build().unwrap();
        let short = LaunchConfig::new(1, 32, vec![0, 0]);
        let long = LaunchConfig::new(1, 32, vec![0, 0, 0, 0]);
        assert!(kinds(&verify_with_launch(&k, &short)).contains(&LintKind::LdpOutOfRange));
        assert!(!kinds(&verify_with_launch(&k, &long)).contains(&LintKind::LdpOutOfRange));
    }
}
