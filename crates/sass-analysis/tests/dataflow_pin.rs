//! Pins the CFG and dataflow answers of every workload kernel and of a few
//! hand-built shapes no workload has: a digest of the [`Cfg`] (blocks,
//! reachability, postdominators, immediate postdominators), the def-use
//! chains, the uninitialized register reads and unwritten guards, the
//! dead predicate writes and the uniformity result (`divergent_block`, `guard_varying`). The workload
//! kernels are the 84 of `verdicts_pin`. The hand-built ones add an
//! unreachable block that falls into reachable code, a branch back to pc
//! 0, a divergent guarded branch, and two jump chains whose interval
//! fixpoints settle one pass before and one pass after widening starts;
//! their full verdicts and liveness masks are pinned too. Any solver must
//! answer exactly as the one it replaces.

use gpu_arch::{
    CmpOp, CodeGen, Kernel, KernelBuilder, LaunchConfig, MemWidth, Operand, Pred, Reg, SpecialReg,
};
use sass_analysis::{cfg::Cfg, dataflow, AnalysisContext, DueBits, KernelAnalysis, Resolution};
use workloads::{kepler_suite, volta_suite, Scale};

/// FNV-1a over a byte stream.
fn fnv1a(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

fn words(h: u64, ws: impl IntoIterator<Item = u32>) -> u64 {
    fnv1a(h, ws.into_iter().flat_map(u32::to_le_bytes))
}

fn flags(h: u64, bs: &[bool]) -> u64 {
    fnv1a(h, bs.iter().map(|&b| u8::from(b)))
}

/// Digest of everything the CFG and the dataflow passes answer.
fn dataflow_digest(mut h: u64, k: &Kernel) -> u64 {
    let cfg = Cfg::build(k);
    let nb = cfg.blocks.len() as u32;
    h = fnv1a(h, k.name.bytes());
    h = words(h, [nb]);
    for (b, block) in cfg.blocks.iter().enumerate() {
        h = words(h, [block.start, block.end, u32::MAX]);
        h = words(h, block.succs.iter().copied().chain([u32::MAX]));
        h = words(h, block.preds.iter().copied().chain([u32::MAX]));
        h = words(h, (0..nb).filter(|&c| cfg.pdom[b].contains(c)).chain([u32::MAX]));
    }
    h = flags(h, &cfg.reachable);
    h = words(h, cfg.ipdom.iter().copied());

    let du = dataflow::def_use(k, &cfg);
    for (def, uses) in du.defs.iter().zip(&du.uses) {
        h = words(h, [def.pc, u32::from(def.reg.0)]);
        h = words(h, uses.iter().copied().chain([u32::MAX]));
    }
    let (uninit, unwritten) = dataflow::uninitialized_reads(k, &cfg);
    h = words(h, uninit.iter().flat_map(|u| [u.pc, u32::from(u.reg.0)]).chain([u32::MAX]));
    h = words(h, unwritten.iter().flat_map(|g| [g.pc, u32::from(g.pred.0)]).chain([u32::MAX]));
    let dead = dataflow::dead_predicate_writes(k, &cfg);
    h = words(h, dead.iter().flat_map(|d| [d.pc, u32::from(d.pred.0)]).chain([u32::MAX]));
    let uni = dataflow::uniformity(k, &cfg);
    h = flags(h, &uni.divergent_block);
    flags(h, &uni.guard_varying)
}

fn due(h: u64, d: DueBits) -> u64 {
    fnv1a(fnv1a(h, d.bits.to_le_bytes()), format!("{:?}", d.kind).bytes())
}

/// Digest of one kernel's verdicts and liveness masks under a launch.
fn analysis_digest(mut h: u64, k: &Kernel, ctx: &AnalysisContext) -> u64 {
    let a = KernelAnalysis::compute(k, ctx);
    for pc in 0..k.len() as u32 {
        let verdicts = [a.output_verdict(pc), a.predicate_verdict(pc), a.mem_verdict(pc)];
        h = fnv1a(h, format!("{verdicts:?}").bytes());
        h = due(h, a.output_due_bits(pc));
        h = due(h, a.mem_due_bits(pc));
        h = fnv1a(h, a.dst_observed(pc).to_le_bytes());
    }
    h
}

fn reg(n: u8) -> Operand {
    Operand::Reg(Reg(n))
}

/// A reachable join whose second predecessor is unreachable and writes a
/// misaligned constant to the store base; the unreachable block also
/// reads a never-written register, tests a never-written predicate and
/// writes a predicate nothing reads.
fn unreachable_pred() -> Kernel {
    let mut b = KernelBuilder::new("unreachable-pred");
    b.s2r(Reg(1), SpecialReg::TidX);
    b.shl(Reg(0), reg(1), Operand::Imm(2));
    b.bra("join");
    b.iadd(Reg(0), reg(7), Operand::Imm(3));
    b.isetp(Pred(1), CmpOp::Lt, reg(0), Operand::Imm(9));
    b.if_p(Pred(5));
    b.mov(Reg(3), Operand::Imm(1));
    b.label("join");
    b.stg(MemWidth::W32, Reg(0), 0, Reg(1));
    b.exit();
    b.build().unwrap()
}

/// A loop whose head is pc 0, so the entry block has a predecessor.
fn branch_to_entry() -> Kernel {
    let mut b = KernelBuilder::new("branch-to-entry");
    b.label("top");
    b.iadd(Reg(0), reg(0), Operand::Imm(4));
    b.mov(Reg(5), Operand::Imm(8));
    b.isetp(Pred(0), CmpOp::Lt, reg(0), Operand::Imm(64));
    b.if_p(Pred(0));
    b.bra("top");
    b.ldp(Reg(2), 0);
    b.iadd(Reg(3), reg(2), reg(5));
    b.stg(MemWidth::W32, Reg(3), 0, Reg(0));
    b.exit();
    b.build().unwrap()
}

/// A branch on a thread-varying predicate, a guarded write and a barrier
/// inside its shadow, and a uniform branch after reconvergence.
fn divergent_branch() -> Kernel {
    let mut b = KernelBuilder::new("divergent-branch");
    b.shared(64);
    b.s2r(Reg(0), SpecialReg::TidX);
    b.s2r(Reg(4), SpecialReg::CtaidX);
    b.isetp(Pred(0), CmpOp::Lt, reg(0), Operand::Imm(4));
    b.isetp(Pred(1), CmpOp::Lt, reg(4), Operand::Imm(2));
    b.mov(Reg(1), Operand::Imm(1));
    b.if_not_p(Pred(0));
    b.bra("skip");
    b.iadd(Reg(1), reg(1), Operand::Imm(1));
    b.if_p(Pred(1));
    b.mov(Reg(1), Operand::Imm(2));
    b.bar();
    b.label("skip");
    b.if_p(Pred(1));
    b.bra("out");
    b.iadd(Reg(1), reg(1), reg(0));
    b.label("out");
    b.ldp(Reg(2), 0);
    b.stg(MemWidth::W32, Reg(2), 0, Reg(1));
    b.exit();
    b.build().unwrap()
}

/// The entry writes an aligned constant store base, then jumps through
/// `hops` blocks laid out against the round-robin order, so the constant
/// reaches the store one pass per hop.
fn jump_chain(hops: u32) -> Kernel {
    let mut b = KernelBuilder::new(format!("jump-chain-{hops}"));
    b.mov(Reg(0), Operand::Imm(4));
    b.bra(format!("h{hops}"));
    for i in 1..=hops {
        b.label(format!("h{i}"));
        b.bra(if i == 1 { "end".to_string() } else { format!("h{}", i - 1) });
    }
    b.label("end");
    b.stg(MemWidth::W32, Reg(0), 0, Reg(0));
    b.exit();
    b.build().unwrap()
}

#[test]
fn dataflow_of_every_workload_kernel_is_pinned() {
    let mut all = Vec::new();
    for scale in [Scale::Small, Scale::Profile] {
        all.extend(kepler_suite(CodeGen::Cuda7, scale));
        all.extend(kepler_suite(CodeGen::Cuda10, scale));
        all.extend(volta_suite(scale));
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    for w in &all {
        h = dataflow_digest(h, &w.kernel);
    }
    assert_eq!(all.len(), 84);
    assert_eq!(h, 0x0717_9abe_17a6_6095, "dataflow digest over {} kernels", all.len());
}

#[test]
fn dataflow_of_hand_built_shapes_is_pinned() {
    let ctx = AnalysisContext::for_launch(&LaunchConfig::new(1, 64, vec![0]), 256);
    let kernels =
        [unreachable_pred(), branch_to_entry(), divergent_branch(), jump_chain(8), jump_chain(9)];
    let mut h = 0xcbf2_9ce4_8422_2325;
    for k in &kernels {
        h = dataflow_digest(h, k);
        h = analysis_digest(h, k, &ctx);
    }
    let cfg = Cfg::build(&kernels[0]);
    assert!(cfg.reachable.iter().any(|&r| !r), "an unreachable block");
    assert!(!Cfg::build(&kernels[1]).blocks[0].preds.is_empty(), "a branch back to pc 0");
    // The chain's constant reaches the store in pass `hops - 1`; widening
    // from pass 8 on turns it to TOP, and the alignment proof with it.
    let store_due = |k: &Kernel| {
        let flip = KernelAnalysis::compute(k, &ctx).address_flip(k.len() as u32 - 2, 1);
        matches!(flip, Resolution::Due(_))
    };
    assert!(store_due(&kernels[3]), "settles before widening");
    assert!(!store_due(&kernels[4]), "widened");
    assert_eq!(h, 0x5730_aa88_2f36_44af, "dataflow digest over the hand-built kernels");
}
