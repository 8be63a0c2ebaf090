//! Control-flow graph construction over a [`Kernel`], and the one
//! dataflow solver every fixpoint in this crate runs on.
//!
//! Branch targets in the ISA are resolved instruction indices
//! ([`gpu_arch::KernelBuilder`] fixes up labels at build time), so basic
//! blocks fall out of a single leader scan: block boundaries sit at branch
//! targets and after every `BRA`/`EXIT`. Predication (`@P` guards on
//! non-branch instructions) does *not* split blocks — a guarded `IADD` is
//! data-flow, not control flow — but a guarded `BRA`/`EXIT` makes the
//! fall-through edge real.
//!
//! The solver (`Cfg::solve`) is round-robin: each pass visits the
//! reachable blocks in index order (reverse order for backward problems)
//! and recomputes a block's state as the join over its neighbours'
//! states, each carried through its neighbour by a per-block transfer.
//! Updates land in place, so later blocks of a pass see them. Its
//! companion `Cfg::sweep` then visits every reachable instruction once
//! with the fixpoint state before it (after it, for backward problems).
//! Postdominators are a plain bitset problem on it. Kernels in this
//! workspace are at most a few hundred instructions, so the O(blocks²)
//! sets are cheaper than a Lengauer-Tarjan implementation would be to
//! maintain, and the sets themselves are what the immediate
//! postdominators, and through them the divergence analysis, consume.

use gpu_arch::{Kernel, Op};

/// Sentinel for "no block" (unreachable, or no immediate postdominator).
pub const NO_BLOCK: u32 = u32::MAX;

/// A maximal straight-line run of instructions.
#[derive(Clone, Debug)]
pub struct BasicBlock {
    /// First instruction index.
    pub start: u32,
    /// One past the last instruction index.
    pub end: u32,
    /// Successor block indices.
    pub succs: Vec<u32>,
    /// Predecessor block indices.
    pub preds: Vec<u32>,
}

impl BasicBlock {
    /// Instruction indices of this block.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// A fixed-size bitset over basic blocks, used for postdominator sets.
#[derive(Clone, PartialEq, Eq)]
pub struct BlockSet {
    words: Vec<u64>,
}

impl BlockSet {
    fn empty(n: usize) -> BlockSet {
        BlockSet { words: vec![0; n.div_ceil(64)] }
    }

    fn full(n: usize) -> BlockSet {
        let mut s = BlockSet { words: vec![u64::MAX; n.div_ceil(64)] };
        // Clear the bits past `n` so equality checks stay meaningful.
        for b in n..s.words.len() * 64 {
            s.words[b / 64] &= !(1 << (b % 64));
        }
        s
    }

    fn insert(&mut self, b: u32) {
        self.words[b as usize / 64] |= 1 << (b % 64);
    }

    /// Membership test.
    pub fn contains(&self, b: u32) -> bool {
        self.words[b as usize / 64] & (1 << (b % 64)) != 0
    }

    fn intersect_with(&mut self, other: &BlockSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// Number of members.
    pub fn len(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// True if no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// The control-flow graph of one kernel, with derived structure.
pub struct Cfg {
    /// Basic blocks in program order.
    pub blocks: Vec<BasicBlock>,
    /// Block index of every instruction.
    pub block_of: Vec<u32>,
    /// Per block: reachable from entry?
    pub reachable: Vec<bool>,
    /// Per block: the set of blocks that postdominate it. Blocks that
    /// cannot reach an exit get an empty set.
    pub pdom: Vec<BlockSet>,
    /// Immediate postdominator per block ([`NO_BLOCK`] when the block
    /// exits directly or cannot reach an exit).
    pub ipdom: Vec<u32>,
}

impl Cfg {
    /// Build the CFG of `kernel`. The kernel must be non-empty and have
    /// in-range branch targets (guaranteed by [`Kernel::validate`]).
    pub fn build(kernel: &Kernel) -> Cfg {
        let instrs = kernel.instrs();
        let n = instrs.len();
        assert!(n > 0, "cannot build a CFG of an empty kernel");

        // Leader scan.
        let mut leader = vec![false; n];
        leader[0] = true;
        for (pc, i) in instrs.iter().enumerate() {
            match i.op {
                Op::Bra => {
                    let t = i.target.expect("BRA without target") as usize;
                    leader[t] = true;
                    if pc + 1 < n {
                        leader[pc + 1] = true;
                    }
                }
                Op::Exit if pc + 1 < n => {
                    leader[pc + 1] = true;
                }
                _ => {}
            }
        }

        // Blocks and the pc -> block map.
        let mut blocks = Vec::new();
        let mut block_of = vec![0u32; n];
        for pc in 0..n {
            if leader[pc] {
                blocks.push(BasicBlock {
                    start: pc as u32,
                    end: pc as u32 + 1,
                    succs: Vec::new(),
                    preds: Vec::new(),
                });
            } else {
                blocks.last_mut().expect("pc 0 is a leader").end = pc as u32 + 1;
            }
            block_of[pc] = blocks.len() as u32 - 1;
        }
        let nb = blocks.len();

        // Edges.
        for b in 0..nb {
            let last = &instrs[blocks[b].end as usize - 1];
            let mut succs = Vec::new();
            match last.op {
                Op::Bra => {
                    succs.push(block_of[last.target.expect("BRA without target") as usize]);
                    // A guarded branch falls through when the guard fails.
                    if last.guard.is_some() && (blocks[b].end as usize) < n {
                        succs.push(block_of[blocks[b].end as usize]);
                    }
                }
                Op::Exit => {
                    if last.guard.is_some() && (blocks[b].end as usize) < n {
                        succs.push(block_of[blocks[b].end as usize]);
                    }
                }
                _ => {
                    if (blocks[b].end as usize) < n {
                        succs.push(block_of[blocks[b].end as usize]);
                    }
                }
            }
            succs.dedup();
            blocks[b].succs = succs;
        }
        for b in 0..nb as u32 {
            for s in blocks[b as usize].succs.clone() {
                blocks[s as usize].preds.push(b);
            }
        }

        // Reachability from entry.
        let mut reachable = vec![false; nb];
        let mut stack = vec![0u32];
        reachable[0] = true;
        while let Some(b) = stack.pop() {
            for &s in &blocks[b as usize].succs {
                if !reachable[s as usize] {
                    reachable[s as usize] = true;
                    stack.push(s);
                }
            }
        }

        let mut cfg =
            Cfg { blocks, block_of, reachable, pdom: Vec::new(), ipdom: vec![NO_BLOCK; nb] };
        cfg.pdom = cfg.postdominators();

        // Immediate postdominators: ipdom(b) is the member c of
        // pdom(b)\{b} whose own set pdom(c) equals pdom(b)\{b}.
        let (reachable, pdom) = (&cfg.reachable, &cfg.pdom);
        for b in 0..nb {
            if !reachable[b] || pdom[b].is_empty() {
                continue;
            }
            let mut cands = pdom[b].clone();
            cands.words[b / 64] &= !(1 << (b % 64));
            for c in 0..nb as u32 {
                if cands.contains(c) && pdom[c as usize] == cands {
                    cfg.ipdom[b] = c;
                    break;
                }
            }
        }

        cfg
    }

    /// Postdominator sets: the greatest solution of
    /// `set(b) = {b} ∪ ⋂ set(s)` over `b`'s reachable successors, where
    /// the intersection is empty for the exits. The solver's state is that
    /// intersection. Unreachable blocks get an empty set. A full set
    /// survives the fixpoint in an exit-free cycle (and wherever every
    /// block postdominates); it is normalized to "unknown" (empty) so
    /// consumers treat those blocks conservatively.
    fn postdominators(&self) -> Vec<BlockSet> {
        let nb = self.blocks.len();
        let mut meet = vec![BlockSet::full(nb); nb];
        self.solve(
            true,
            usize::MAX,
            &mut meet,
            |b, set| set.insert(b as u32),
            |_, _, _, flows| {
                let mut flows = flows.filter(|&(n, _)| self.reachable[n]).map(|(_, set)| set);
                match flows.next() {
                    Some(first) => flows.fold(first, |mut m, set| {
                        m.intersect_with(&set);
                        m
                    }),
                    None => BlockSet::empty(nb),
                }
            },
        );
        let set = |(b, mut m): (usize, BlockSet)| {
            m.insert(b as u32);
            let unknown = m.len() >= nb as u32 && nb > 1;
            if self.reachable[b] && !unknown {
                m
            } else {
                BlockSet::empty(nb)
            }
        };
        meet.into_iter().enumerate().map(set).collect()
    }

    /// Solve a dataflow problem by round-robin iteration. `state[b]` is
    /// block `b`'s state where its neighbours' flows meet: at its entry
    /// for forward problems, at its exit for `backward` ones. A
    /// neighbour's flow is its state carried through it by `transfer`.
    /// Each pass visits the reachable blocks in index order (reverse
    /// order when `backward`) and replaces `state[b]` in place by
    /// `join(pass, b, state, flows)`, where `flows` yields `(n, flow)` for
    /// every predecessor (successor) `n` of `b`, reachable or not. The
    /// solver stops after a pass that changes nothing, or after
    /// `max_passes`.
    pub(crate) fn solve<S: Clone + PartialEq>(
        &self,
        backward: bool,
        max_passes: usize,
        state: &mut [S],
        transfer: impl Fn(usize, &mut S),
        mut join: impl FnMut(usize, usize, &[S], &mut dyn Iterator<Item = (usize, S)>) -> S,
    ) {
        let nb = self.blocks.len();
        for pass in 0..max_passes {
            let mut changed = false;
            for i in 0..nb {
                let b = if backward { nb - 1 - i } else { i };
                if !self.reachable[b] {
                    continue;
                }
                let view: &[S] = state;
                let block = &self.blocks[b];
                let mut flows =
                    (if backward { &block.succs } else { &block.preds }).iter().map(|&n| {
                        let mut flow = view[n as usize].clone();
                        transfer(n as usize, &mut flow);
                        (n as usize, flow)
                    });
                let next = join(pass, b, view, &mut flows);
                if next != state[b] {
                    state[b] = next;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Carry `state` through block `b`, calling `f` on each instruction in
    /// program order (reverse order when `backward`).
    pub(crate) fn walk<S>(
        &self,
        b: usize,
        backward: bool,
        state: &mut S,
        mut f: impl FnMut(usize, &mut S),
    ) {
        let range = self.blocks[b].range();
        if backward {
            range.rev().for_each(|pc| f(pc, state));
        } else {
            range.for_each(|pc| f(pc, state));
        }
    }

    /// Visit every reachable instruction once, after `Cfg::solve`:
    /// blocks in index order, instructions as `Cfg::walk` orders them.
    /// `visit(pc, s)` gets the fixpoint state before `pc` (after it, when
    /// `backward`) and must apply `pc`'s transfer to it.
    pub(crate) fn sweep<S: Clone>(
        &self,
        backward: bool,
        state: &[S],
        mut visit: impl FnMut(usize, &mut S),
    ) {
        for b in (0..self.blocks.len()).filter(|&b| self.reachable[b]) {
            self.walk(b, backward, &mut state[b].clone(), &mut visit);
        }
    }

    /// Blocks on some path from `branch`'s successors to (but excluding)
    /// its immediate postdominator: the region whose execution depends on
    /// which way `branch` goes. With no known reconvergence point the
    /// whole forward cone is returned.
    pub fn influence_region(&self, branch: u32) -> Vec<u32> {
        let stop = self.ipdom[branch as usize];
        let mut seen = vec![false; self.blocks.len()];
        let mut stack: Vec<u32> = self.blocks[branch as usize].succs.clone();
        let mut out = Vec::new();
        while let Some(b) = stack.pop() {
            if b == stop || seen[b as usize] {
                continue;
            }
            seen[b as usize] = true;
            out.push(b);
            for &s in &self.blocks[b as usize].succs {
                stack.push(s);
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_arch::{CmpOp, KernelBuilder, MemWidth, Operand, Pred, Reg};

    /// if (R0 < 16) { R1 = 1 } else { R1 = 2 }; exit — diamond.
    fn diamond() -> Kernel {
        let mut b = KernelBuilder::new("diamond");
        b.isetp(Pred(0), CmpOp::Lt, Operand::Reg(Reg(0)), Operand::Imm(16));
        b.if_not_p(Pred(0));
        b.bra("else");
        b.mov(Reg(1), Operand::Imm(1));
        b.bra("join");
        b.label("else");
        b.mov(Reg(1), Operand::Imm(2));
        b.label("join");
        b.stg(MemWidth::W32, Reg(2), 0, Reg(1));
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn diamond_structure() {
        let k = diamond();
        let cfg = Cfg::build(&k);
        assert_eq!(cfg.blocks.len(), 4);
        assert!(cfg.reachable.iter().all(|&r| r));
        // The entry's immediate postdominator is the join block.
        let join = cfg.block_of[k.len() - 1];
        assert_eq!(cfg.ipdom[0], join);
        let region = cfg.influence_region(0);
        assert!(!region.contains(&join));
        assert_eq!(region.len(), 2);
    }

    #[test]
    fn unreachable_code_is_flagged() {
        let mut b = KernelBuilder::new("dead");
        b.bra("end");
        b.mov(Reg(0), Operand::Imm(1)); // never executed
        b.label("end");
        b.exit();
        let k = b.build().unwrap();
        let cfg = Cfg::build(&k);
        assert!(cfg.reachable.iter().any(|&r| !r));
    }
}
