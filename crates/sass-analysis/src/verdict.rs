//! The static oracle: one per-pc table, [`KernelAnalysis`], and the
//! functions that resolve a single-site fault from it.
//!
//! Per pc the table holds whether the pc is a GPR site (a reachable
//! scalar GPR writer: everything the engine's 32/64-bit write-back path
//! covers; warp-level MMA/SHFL corruptions use other machinery), whether
//! it writes a register pair, its op, the bit-level liveness mask of its
//! destination ([`crate::dataflow::liveness`]), the three value-flow
//! verdicts of [`crate::flow`] (output, predicate, address), and the
//! proven-DUE bits of output and address flips; per register it holds
//! the union of the bits any instruction observes. One resolution
//! function per single-site fault reads it —
//! [`KernelAnalysis::output_flip`], [`KernelAnalysis::output_replace`],
//! [`KernelAnalysis::register_flip`], [`KernelAnalysis::predicate_flip`]
//! and [`KernelAnalysis::address_flip`] — and answers
//! [`Resolution::Masked`], [`Resolution::Due`] or [`Resolution::Simulate`]
//! with the site's verdict; [`Resolution::stratum`] names the verdict
//! stratum the campaign telemetry counts the fault under.
//!
//! # Why a liveness-masked fault is Masked
//!
//! The faulty run is identical to the golden run up to the injection
//! instant, so the static masks, which hold on *all* paths, apply to the
//! dynamic state at that instant. After it, a flip outside every
//! observed bit induces no architectural difference, and outcome
//! classification compares output memory only. A register-file bit that
//! no instruction ever observes cannot propagate whenever it is flipped.
//! This holds only with ECC off: with ECC on, a detected flip is a DUE
//! regardless of liveness.
//!
//! # Verdicts
//!
//! * **Output flips and replacements** (corrupted GPR destination) —
//!   [`ValueFlow::output_verdict`]; single-bit flips of bits that are
//!   *provably zero* in the written value may additionally be proven to
//!   raise a DUE (see below).
//! * **Predicate flips** (inverted `SETP` result) —
//!   [`ValueFlow::predicate_verdict`]: a dead predicate write is
//!   `ProvenMasked`, which liveness alone cannot say.
//! * **Address flips** (XORed effective address) —
//!   [`ValueFlow::mem_address_verdict`]; per-bit DUE proofs from the
//!   address's abstract value.
//!
//! # The DUE proof
//!
//! The abstract domain is an interval with alignment: `AbsVal { lo, hi,
//! tz }` concretizes to signed 32-bit values `v` with `lo <= v <= hi`
//! and `v` a multiple of `2^tz`. Transfers cover the integer
//! address-arithmetic subset (`S2R`, `LDP`, `MOV`, `IADD`, `IMUL`,
//! `IMAD`, `IMIN`, `IMAX`, `SHL`, `SHR`, `ASR`, `AND` by constant);
//! everything else is TOP. The fixpoint is a forward problem on
//! `Cfg::solve`: every block starts at TOP, a block joins the flows of
//! all its predecessors (unreachable ones included; TOP without any), a
//! value still changing from pass `WIDEN_AFTER` (8) on widens to TOP, and
//! the solver gives up after `MAX_PASSES` (48).
//!
//! A single-bit flip of a provably-zero bit `k` *adds* exactly
//! `D = 2^k` to the register (no borrow: the bit was 0). The proof then
//! walks the remainder of the site's basic block tracking the set of
//! registers displaced by a known constant. If the first instruction
//! that observes a displaced register is an **unguarded memory access
//! using it as the base**, and the abstract address plus `D` is provably
//! misaligned (`D % width != 0` with the golden address provably
//! aligned) or provably out of bounds (golden range high end plus `D`
//! beyond the space size, without u32 wraparound), the fault verdict is
//! a DUE of that access's space — no simulation needed. Any other
//! observation of a displaced register (a guarded instruction, a stored
//! value, a compare, an op outside the constant-displacement transfer
//! set, or the block ending first) abandons the proof and the site stays
//! at its taint verdict.
//!
//! Soundness of the walk: up to the faulting access, the faulty run
//! executes the same in-block, unguarded instruction sequence as the
//! golden run (guarded instructions in between are proven not to touch
//! displaced state, so their guards — computed from golden values —
//! behave identically); every memory access before the faulting one has
//! a golden-identical address and the faulting thread provably reaches
//! the access. The interval domain over-approximates the golden value,
//! so "provably misaligned/OOB for every value in the interval" covers
//! the concrete run. The simulator raises `MemoryViolation` /
//! `SharedViolation` for both misaligned and out-of-range accesses in
//! the corresponding space, before any data movement.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use crate::cfg::Cfg;
use crate::dataflow;
use crate::flow::{SiteVerdict, ValueFlow};
use gpu_arch::{Instr, Kernel, LaunchConfig, MemOp, Op, Operand, Reg, SiteClass, SpecialReg};
use gpu_sim::DueKind;

/// Launch-time facts the static analysis may assume.
///
/// Everything is optional: with `Default::default()` the analysis is
/// launch-independent (special registers and kernel parameters become
/// unknown and no out-of-bounds proofs fire, only alignment ones).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AnalysisContext {
    /// Launch geometry and parameter bank, if fixed.
    pub launch: Option<LaunchConfig>,
    /// Global-memory size in bytes, if fixed (bounds proofs for the
    /// global space need it; shared bounds come from the kernel).
    pub global_bytes: Option<u64>,
}

impl AnalysisContext {
    /// Context for a concrete launch over `global_bytes` of device memory.
    pub fn for_launch(launch: &LaunchConfig, global_bytes: u64) -> AnalysisContext {
        AnalysisContext { launch: Some(launch.clone()), global_bytes: Some(global_bytes) }
    }
}

// ---------------------------------------------------------------------------
// Abstract domain: interval + trailing-zero alignment.
// ---------------------------------------------------------------------------

/// Abstract signed 32-bit value: `lo <= v <= hi` and `2^tz | v`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct AbsVal {
    lo: i64,
    hi: i64,
    tz: u8,
}

const I32_MIN: i64 = i32::MIN as i64;
const I32_MAX: i64 = i32::MAX as i64;

impl AbsVal {
    const TOP: AbsVal = AbsVal { lo: I32_MIN, hi: I32_MAX, tz: 0 };

    fn exact(v: i64) -> AbsVal {
        debug_assert!((I32_MIN..=I32_MAX).contains(&v));
        AbsVal { lo: v, hi: v, tz: (v as i32).trailing_zeros().min(32) as u8 }
    }

    fn range(lo: i64, hi: i64) -> AbsVal {
        if lo < I32_MIN || hi > I32_MAX || lo > hi {
            AbsVal::TOP
        } else if lo == hi {
            AbsVal::exact(lo)
        } else {
            AbsVal { lo, hi, tz: 0 }
        }
    }

    fn as_exact(self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    fn join(self, other: AbsVal) -> AbsVal {
        AbsVal { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi), tz: self.tz.min(other.tz) }
    }

    /// Bit positions (`0..32`) provably zero for every concrete value:
    /// the alignment run at the bottom plus, for provably non-negative
    /// values, the bits above the magnitude.
    fn zero_bits(self) -> u64 {
        let mut bits = 0u64;
        for k in 0..32u32 {
            let low = (k as u8) < self.tz;
            let high = self.lo >= 0 && (1i64 << k) > self.hi;
            if low || high {
                bits |= 1 << k;
            }
        }
        bits
    }

    fn add(self, other: AbsVal) -> AbsVal {
        let (lo, hi) = (self.lo + other.lo, self.hi + other.hi);
        if lo < I32_MIN || hi > I32_MAX {
            return AbsVal::TOP; // wrapping possible
        }
        AbsVal { lo, hi, tz: self.tz.min(other.tz) }
    }

    fn mul(self, other: AbsVal) -> AbsVal {
        let corners =
            [self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi];
        let (lo, hi) = (
            corners.iter().copied().fold(i64::MAX, i64::min),
            corners.into_iter().fold(i64::MIN, i64::max),
        );
        if lo < I32_MIN || hi > I32_MAX {
            return AbsVal::TOP;
        }
        AbsVal { lo, hi, tz: (self.tz as u32 + other.tz as u32).min(32) as u8 }
    }
}

fn abs_min(a: AbsVal, b: AbsVal) -> AbsVal {
    AbsVal { lo: a.lo.min(b.lo), hi: a.hi.min(b.hi), tz: a.tz.min(b.tz) }
}

fn abs_max(a: AbsVal, b: AbsVal) -> AbsVal {
    AbsVal { lo: a.lo.max(b.lo), hi: a.hi.max(b.hi), tz: a.tz.min(b.tz) }
}

fn abs_shl(a: AbsVal, s: AbsVal) -> AbsVal {
    let Some(s) = s.as_exact() else { return AbsVal::TOP };
    let s = (s as u32) & 31; // engine masks the count
    let (lo, hi) = (a.lo << s, a.hi << s);
    if lo < I32_MIN || hi > I32_MAX {
        return AbsVal::TOP;
    }
    AbsVal { lo, hi, tz: (a.tz as u32 + s).min(32) as u8 }
}

fn abs_shr(a: AbsVal, s: AbsVal) -> AbsVal {
    let Some(s) = s.as_exact() else { return AbsVal::TOP };
    let s = (s as u32) & 31;
    if a.lo >= 0 {
        AbsVal { lo: a.lo >> s, hi: a.hi >> s, tz: 0 }
    } else if s >= 1 {
        // Logical shift of a possibly-negative value: result is the
        // unsigned pattern shifted right, always in [0, u32::MAX >> s].
        AbsVal { lo: 0, hi: (u32::MAX >> s) as i64, tz: 0 }
    } else {
        a
    }
}

fn abs_asr(a: AbsVal, s: AbsVal) -> AbsVal {
    let Some(s) = s.as_exact() else { return AbsVal::TOP };
    let s = (s as u32) & 31;
    AbsVal { lo: a.lo >> s, hi: a.hi >> s, tz: 0 }
}

fn abs_and(a: AbsVal, b: AbsVal) -> AbsVal {
    // Only the "mask by a known non-negative constant" shape is needed
    // for address arithmetic (tile index wrap, alignment masks).
    let mask = match (a.as_exact(), b.as_exact()) {
        (Some(m), _) if m >= 0 => Some((m, b)),
        (_, Some(m)) if m >= 0 => Some((m, a)),
        _ => None,
    };
    match mask {
        Some((m, other)) => {
            let tz = (m as i32).trailing_zeros().min(32).max(other.tz as u32);
            AbsVal { lo: 0, hi: m, tz: tz.min(32) as u8 }
        }
        None => AbsVal::TOP,
    }
}

/// Per-pc results of the interval pass.
struct Intervals {
    /// Abstract register state *after* each pc (dst included).
    dst: Vec<AbsVal>,
    /// Abstract operand values *at* each pc (`srcs[0..3]`).
    ops: Vec<[AbsVal; 3]>,
}

const TRACKED: usize = 255;
const WIDEN_AFTER: usize = 8;
const MAX_PASSES: usize = 48;

fn eval(state: &[AbsVal], operand: Operand) -> AbsVal {
    match operand {
        Operand::Reg(r) if r.is_rz() => AbsVal::exact(0),
        Operand::Reg(r) => state[r.0 as usize],
        Operand::Imm(v) => AbsVal::exact(v as i32 as i64),
        Operand::None => AbsVal::TOP,
    }
}

fn s2r_val(sr: SpecialReg, launch: Option<&LaunchConfig>) -> AbsVal {
    let Some(l) = launch else { return AbsVal::TOP };
    let up = |n: u32| AbsVal::range(0, n.saturating_sub(1) as i64);
    match sr {
        SpecialReg::TidX => up(l.block.x),
        SpecialReg::TidY => up(l.block.y),
        SpecialReg::CtaidX => up(l.grid.x),
        SpecialReg::CtaidY => up(l.grid.y),
        SpecialReg::NtidX => AbsVal::range(l.block.x as i64, l.block.x as i64),
        SpecialReg::NtidY => AbsVal::range(l.block.y as i64, l.block.y as i64),
        SpecialReg::NctaidX => AbsVal::range(l.grid.x as i64, l.grid.x as i64),
        SpecialReg::NctaidY => AbsVal::range(l.grid.y as i64, l.grid.y as i64),
        SpecialReg::LaneId => AbsVal::range(0, 31),
        SpecialReg::WarpId => up(l.block.count().div_ceil(32).min(u32::MAX as u64) as u32),
    }
}

/// Abstract value an instruction writes to its scalar destination, or
/// `None` when the op is outside the modeled subset (callers use TOP).
fn transfer(state: &[AbsVal], ins: &Instr, launch: Option<&LaunchConfig>) -> Option<AbsVal> {
    let a = eval(state, ins.srcs[0]);
    let b = eval(state, ins.srcs[1]);
    let c = eval(state, ins.srcs[2]);
    Some(match ins.op {
        Op::Mov => a,
        Op::Iadd => a.add(b),
        Op::Imul => a.mul(b),
        Op::Imad => a.mul(b).add(c),
        Op::Imin => abs_min(a, b),
        Op::Imax => abs_max(a, b),
        Op::Shl => abs_shl(a, b),
        Op::Shr => abs_shr(a, b),
        Op::Asr => abs_asr(a, b),
        Op::And => abs_and(a, b),
        Op::S2r(sr) => s2r_val(sr, launch),
        Op::Ldp => match a.as_exact() {
            Some(idx) if idx >= 0 => {
                let v = launch.and_then(|l| l.params.get(idx as usize)).copied();
                match v {
                    Some(v) if launch.is_some() => AbsVal::exact(v as i32 as i64),
                    _ if launch.is_some() => AbsVal::exact(0), // engine: missing param reads 0
                    _ => AbsVal::TOP,
                }
            }
            _ => AbsVal::TOP,
        },
        _ => return None,
    })
}

fn intervals(kernel: &Kernel, cfg: &Cfg, ctx: &AnalysisContext) -> Intervals {
    let (instrs, decoded) = (kernel.instrs(), kernel.decoded());
    let n = instrs.len();
    let launch = ctx.launch.as_ref();
    let top_state = || vec![AbsVal::TOP; TRACKED];
    let mut in_states = vec![top_state(); cfg.blocks.len()];

    // One instruction's effect on the abstract state: kill everything it
    // may write, then land the modeled scalar result (pair-high words
    // stay TOP; a guarded write joins with the fall-through value).
    let exec = |state: &mut [AbsVal], pc: u32| {
        let ins = &instrs[pc as usize];
        let meta = decoded.meta(pc);
        let val = transfer(state, ins, launch).unwrap_or(AbsVal::TOP);
        let scalar = !meta.writes_pair
            && !meta.has_no_dst
            && !ins.dst.is_rz()
            && (ins.dst.0 as usize) < TRACKED;
        let old = if scalar { state[ins.dst.0 as usize] } else { AbsVal::TOP };
        for &r in decoded.written_regs(pc as usize) {
            if !r.is_rz() && (r.0 as usize) < TRACKED {
                state[r.0 as usize] = AbsVal::TOP;
            }
        }
        if scalar {
            state[ins.dst.0 as usize] = if meta.guard.is_some() { old.join(val) } else { val };
        }
    };
    cfg.solve(
        false,
        MAX_PASSES,
        &mut in_states,
        |b, state| cfg.walk(b, false, state, |pc, state| exec(state, pc as u32)),
        |pass, b, in_states, flows| {
            // The entry block joins the launch state, TOP, with whatever
            // branches back to it (registers are zero-initialized in the
            // sim, but uninitialized reads are a lint, not something to
            // rely on).
            if b == 0 {
                return top_state();
            }
            // Join over every predecessor, unreachable ones included; TOP
            // for a block without any.
            let joined = flows.map(|(_, out)| out).reduce(|mut j, out| {
                for (a, v) in j.iter_mut().zip(out) {
                    *a = a.join(v);
                }
                j
            });
            let mut next = joined.unwrap_or_else(top_state);
            if pass >= WIDEN_AFTER {
                for (nv, old) in next.iter_mut().zip(&in_states[b]) {
                    if nv != old {
                        *nv = AbsVal::TOP;
                    }
                }
            }
            next
        },
    );

    // Final sweep: record operand and destination abstractions per pc.
    let mut dst = vec![AbsVal::TOP; n];
    let mut ops = vec![[AbsVal::TOP; 3]; n];
    cfg.sweep(false, &in_states, |pc, state| {
        let ins = &instrs[pc];
        ops[pc] = [eval(state, ins.srcs[0]), eval(state, ins.srcs[1]), eval(state, ins.srcs[2])];
        exec(state, pc as u32);
        if !ins.dst.is_rz() && (ins.dst.0 as usize) < TRACKED {
            dst[pc] = state[ins.dst.0 as usize];
        }
    });
    Intervals { dst, ops }
}

// ---------------------------------------------------------------------------
// Per-bit DUE proofs.
// ---------------------------------------------------------------------------

/// Bits of a site whose single-bit flip provably raises a DUE.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DueBits {
    /// Mask over the site's write width: bit `k` set means a flip of
    /// bit `k` is a proven DUE.
    pub bits: u64,
    /// The proven DUE kind (one per site; bits proving a conflicting
    /// kind are dropped rather than mixed).
    pub kind: Option<DueKind>,
}

impl DueBits {
    /// The proven kind when `mask` flips exactly one proven-DUE bit.
    fn single(self, mask: u64) -> Option<DueKind> {
        (mask.count_ones() == 1 && self.bits & mask == mask).then_some(self.kind).flatten()
    }
}

struct ProofEnv<'a> {
    kernel: &'a Kernel,
    cfg: &'a Cfg,
    iv: &'a Intervals,
    ctx: &'a AnalysisContext,
}

impl ProofEnv<'_> {
    fn space_size(&self, m: MemOp) -> Option<u64> {
        if m.global {
            self.ctx.global_bytes
        } else {
            Some(self.kernel.shared_bytes as u64)
        }
    }

    /// Is access `m` at abstract address `addr + d` (displacement `d`,
    /// golden address in `addr`) provably a DUE?
    fn access_faults(&self, addr: AbsVal, d: u64, m: MemOp) -> bool {
        let bytes = u64::from(m.bytes);
        // Misalignment: the engine checks `addr % bytes != 0` first.
        if bytes > 1
            && !d.is_multiple_of(bytes)
            && (addr.tz as u64) >= bytes.trailing_zeros() as u64
        {
            return true;
        }
        // Out of bounds: every golden address is in [lo, hi]; adding `d`
        // must not wrap u32 and must land past the end of the space.
        if let Some(size) = self.space_size(m) {
            if addr.lo >= 0
                && (addr.hi as u64) + d <= u32::MAX as u64
                && (addr.lo as u64) + d + bytes > size
            {
                return true;
            }
        }
        false
    }

    /// Try to prove that flipping provably-zero bit `k` of the value
    /// written at `pc` raises a DUE. Walks the remainder of `pc`'s
    /// basic block tracking constant register displacements.
    fn output_bit_due(&self, pc: u32, k: u32) -> Option<DueKind> {
        let block = self.cfg.block_of[pc as usize];
        let (_, end) = (self.cfg.blocks[block as usize].start, self.cfg.blocks[block as usize].end);
        let site_dst = self.kernel.instrs()[pc as usize].dst;
        if site_dst.is_rz() {
            return None;
        }
        // Displaced registers: value in faulty run = golden + D (mod 2^32).
        let mut disp: Vec<(Reg, u64)> = vec![(site_dst, 1u64 << k)];
        let displacement =
            |disp: &[(Reg, u64)], r: Reg| disp.iter().find(|(dr, _)| *dr == r).map(|&(_, d)| d);
        let operand_disp = |disp: &[(Reg, u64)], o: Operand| match o {
            Operand::Reg(r) => displacement(disp, r),
            _ => None,
        };

        let decoded = self.kernel.decoded();
        for u in pc + 1..end {
            let ins = &self.kernel.instrs()[u as usize];
            let meta = decoded.meta(u);
            // Reads and writes as the engine makes them, MMA fragments
            // included.
            let (reads, writes) =
                (decoded.observed_reads(u as usize), decoded.written_regs(u as usize));
            let displaced = |r: Reg| displacement(&disp, r).is_some();
            let reads_disp = reads.iter().any(|&(r, _)| displaced(r));
            if meta.guard.is_some() {
                // A guarded instruction in between must be proven inert
                // w.r.t. displaced state; its guard itself is golden
                // (predicates cannot be displaced — a SETP reading a
                // displaced register bails below).
                if reads_disp || writes.iter().any(|&r| displaced(r)) {
                    return None;
                }
                continue;
            }
            if let Some(m) = ins.op.mem() {
                let base = ins.srcs[0].reg();
                let value_d = ins
                    .stored_regs()
                    .into_iter()
                    .flatten()
                    .any(|r| Some(r) != base && displaced(r));
                if value_d {
                    return None; // displaced stored value: SDC path, not provable
                }
                if let Some(d) = operand_disp(&disp, ins.srcs[0]) {
                    let addr = self.iv.ops[u as usize][0].add(self.iv.ops[u as usize][1]);
                    return self.access_faults(addr, d, m).then(|| DueKind::violation(m));
                }
                // Golden-addressed access; a load may overwrite (clean) a
                // displaced register below.
            }
            if reads_disp && !meta.is_mem_op {
                // Propagate the displacement through the constant-affine
                // transfer set, or bail.
                let d_new = match ins.op {
                    Op::Mov => operand_disp(&disp, ins.srcs[0]),
                    Op::Iadd => {
                        let da = operand_disp(&disp, ins.srcs[0]).unwrap_or(0);
                        let db = operand_disp(&disp, ins.srcs[1]).unwrap_or(0);
                        Some(da.wrapping_add(db))
                    }
                    Op::Imul | Op::Imad => {
                        // (a + da) * b + c + dc == a*b + c + da*b + dc,
                        // provided the *other* factor is an exact constant.
                        let da = operand_disp(&disp, ins.srcs[0]);
                        let db = operand_disp(&disp, ins.srcs[1]);
                        let dc = if ins.op == Op::Imad {
                            operand_disp(&disp, ins.srcs[2]).unwrap_or(0)
                        } else {
                            0
                        };
                        let term = match (da, db) {
                            (Some(_), Some(_)) => None, // quadratic in displacements
                            (Some(da), None) => self.iv.ops[u as usize][1]
                                .as_exact()
                                .map(|m| da.wrapping_mul(m as u64)),
                            (None, Some(db)) => self.iv.ops[u as usize][0]
                                .as_exact()
                                .map(|m| db.wrapping_mul(m as u64)),
                            (None, None) => Some(0),
                        };
                        term.map(|t| t.wrapping_add(dc))
                    }
                    Op::Shl => {
                        let s = self.iv.ops[u as usize][1].as_exact()?;
                        operand_disp(&disp, ins.srcs[0]).map(|d| d << ((s as u32) & 31))
                    }
                    _ => None,
                };
                let d_new = d_new?;
                let d_new = d_new & 0xFFFF_FFFF; // register displacement is mod 2^32
                disp.retain(|&(r, _)| r != ins.dst);
                if d_new != 0 && !ins.dst.is_rz() {
                    disp.push((ins.dst, d_new));
                }
            } else {
                // Clean inputs: any write kills stale displacements.
                disp.retain(|(dr, _)| !writes.contains(dr));
            }
            if disp.is_empty() {
                return None; // fault cancelled or overwritten before observation
            }
        }
        None // block ended (branch/exit) before the proof closed
    }

    /// Proven-DUE bits for an `InstructionOutput` flip at `pc`.
    fn output_due_bits(&self, pc: u32) -> DueBits {
        let meta = self.kernel.decoded().meta(pc);
        // Pair writers (64-bit values) and warp-sync ops are out of the
        // affine-displacement model.
        if meta.writes_pair || meta.is_warp_sync || meta.has_no_dst {
            return DueBits::default();
        }
        let zeros = self.iv.dst[pc as usize].zero_bits();
        if zeros == 0 {
            return DueBits::default();
        }
        let mut out = DueBits::default();
        for k in 0..32 {
            if zeros & (1 << k) == 0 {
                continue;
            }
            if let Some(kind) = self.output_bit_due(pc, k) {
                match out.kind {
                    None => {
                        out.kind = Some(kind);
                        out.bits |= 1 << k;
                    }
                    Some(existing) if existing == kind => out.bits |= 1 << k,
                    Some(_) => {} // conflicting kind: drop the bit
                }
            }
        }
        out
    }

    /// Proven-DUE bits for a `MemAddress` XOR at memory op `pc`. The
    /// fault hits the already-computed effective address, so a guard on
    /// the access itself is fine (the dynamic site implies it passed).
    fn mem_due_bits(&self, pc: u32) -> DueBits {
        let Some(m) = self.kernel.instrs()[pc as usize].op.mem() else {
            return DueBits::default();
        };
        let addr = self.iv.ops[pc as usize][0].add(self.iv.ops[pc as usize][1]);
        let kind = DueKind::violation(m);
        let mut out = DueBits::default();
        for k in 0..32u32 {
            // Flipping a provably-zero bit adds 2^k: same proof shape as
            // the output walk, displacement applied directly to the
            // address of this access.
            let provably_zero = addr.zero_bits() & (1 << k) != 0;
            if provably_zero && self.access_faults(addr, 1u64 << k, m) {
                out.bits |= 1 << k;
                out.kind = Some(kind);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The per-pc table and its resolution functions.
// ---------------------------------------------------------------------------

/// How the static oracle resolves one single-site fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Provably Masked: no observed bit ever differs from the golden run.
    Masked,
    /// Provably a DUE of this kind: the corrupted value reaches a
    /// misaligned or out-of-bounds access before anything else can
    /// observe it.
    Due(DueKind),
    /// No proof applies: simulate the trial. Carries the verdict of the
    /// fault's static site, which bounds the simulated outcome; `None`
    /// for a fault without one (a register-file strike).
    Simulate(Option<SiteVerdict>),
}

impl Resolution {
    /// The verdict stratum the fault counts under in a campaign's strata
    /// telemetry: `masked`, `store`, `addr_ctl` (address- or
    /// control-reaching, and every proven DUE, whose corrupted value
    /// reaches an address) or `unknown`. `None` for a simulated fault
    /// without a static site.
    pub fn stratum(self) -> Option<&'static str> {
        Some(match self {
            Resolution::Masked | Resolution::Simulate(Some(SiteVerdict::ProvenMasked)) => "masked",
            Resolution::Simulate(Some(SiteVerdict::StoreReaching)) => "store",
            Resolution::Due(_)
            | Resolution::Simulate(Some(
                SiteVerdict::AddressReaching | SiteVerdict::ControlReaching,
            )) => "addr_ctl",
            Resolution::Simulate(Some(SiteVerdict::Unknown)) => "unknown",
            Resolution::Simulate(None) => return None,
        })
    }
}

/// One pc's row of [`KernelAnalysis`].
struct PcFacts {
    op: Op,
    /// A GPR site: a reachable scalar GPR writer.
    site: bool,
    writes_pair: bool,
    /// Observed-bit mask of the destination after the write (low 32 =
    /// `dst`, high 32 = `dst.pair_hi()` for pair writers).
    dst_observed: u64,
    /// Verdict for a corrupted GPR destination (every pc reports its
    /// taint result; only GPR sites are injected).
    output: SiteVerdict,
    /// Verdict for an inverted predicate destination.
    predicate: SiteVerdict,
    /// Verdict for a corrupted effective address.
    mem: SiteVerdict,
    /// Output-flip bits that are proven DUEs.
    output_due: DueBits,
    /// Address-flip bits that are proven DUEs.
    mem_due: DueBits,
}

/// One kernel's static analysis under one launch context: the per-pc
/// table the resolution functions read (see the module docs).
pub struct KernelAnalysis {
    pcs: Vec<PcFacts>,
    /// Per register: the union of the bits any instruction observes.
    read_union: [u32; dataflow::TRACKED_REGS],
}

impl KernelAnalysis {
    /// Run liveness, the flow taint and the interval proofs over one CFG
    /// of `kernel` (uncached; prefer [`analyze`]).
    pub fn compute(kernel: &Kernel, ctx: &AnalysisContext) -> KernelAnalysis {
        let cfg = Cfg::build(kernel);
        let lv = dataflow::liveness(kernel, &cfg);
        let flow = ValueFlow::build_with_cfg(kernel, &cfg);
        let iv = intervals(kernel, &cfg, ctx);
        let env = ProofEnv { kernel, cfg: &cfg, iv: &iv, ctx };
        let decoded = kernel.decoded();
        let pcs = (0..kernel.len() as u32)
            .map(|pc| {
                let meta = decoded.meta(pc);
                let reachable = cfg.reachable[cfg.block_of[pc as usize] as usize];
                PcFacts {
                    op: kernel.instrs()[pc as usize].op,
                    site: meta.writes_gpr() && !meta.is_warp_sync && reachable,
                    writes_pair: meta.writes_pair,
                    dst_observed: lv.dst_observed[pc as usize],
                    output: flow.output_verdict(pc),
                    predicate: if meta.writes_pred {
                        flow.predicate_verdict(pc)
                    } else {
                        SiteVerdict::ProvenMasked
                    },
                    mem: if meta.is_mem_op {
                        flow.mem_address_verdict(pc)
                    } else {
                        SiteVerdict::ProvenMasked
                    },
                    output_due: if reachable {
                        env.output_due_bits(pc)
                    } else {
                        DueBits::default()
                    },
                    mem_due: if reachable && meta.is_mem_op {
                        env.mem_due_bits(pc)
                    } else {
                        DueBits::default()
                    },
                }
            })
            .collect();
        KernelAnalysis { pcs, read_union: lv.read_union }
    }

    /// Resolve XOR-ing `mask` into the output of the instruction at `pc`:
    /// Masked when the flip misses every observed bit of a GPR site (for
    /// 32-bit destinations only the low word of the mask lands, matching
    /// the engine's write-back) or the output verdict is `ProvenMasked`;
    /// a DUE when the mask is one proven-DUE bit.
    pub fn output_flip(&self, pc: u32, mask: u64) -> Resolution {
        let f = &self.pcs[pc as usize];
        let effective = if f.writes_pair { mask } else { mask & 0xFFFF_FFFF };
        if (f.site && effective & f.dst_observed == 0) || f.output == SiteVerdict::ProvenMasked {
            return Resolution::Masked;
        }
        f.output_due.single(mask).map_or(Resolution::Simulate(Some(f.output)), Resolution::Due)
    }

    /// Resolve *replacing* the output of the instruction at `pc` with any
    /// value: Masked when no bit of a GPR site's destination is observed
    /// or the output verdict is `ProvenMasked`.
    pub fn output_replace(&self, pc: u32) -> Resolution {
        let f = &self.pcs[pc as usize];
        if (f.site && f.dst_observed == 0) || f.output == SiteVerdict::ProvenMasked {
            Resolution::Masked
        } else {
            Resolution::Simulate(Some(f.output))
        }
    }

    /// Resolve flipping `mask` bits of architectural register `reg` at any
    /// instant: Masked when no instruction observes a flipped bit.
    /// `regs_per_thread` mirrors the engine's register-index wrap for
    /// out-of-footprint indices.
    pub fn register_flip(&self, reg: u8, regs_per_thread: u16, mask: u32) -> Resolution {
        let r = (reg as usize).min(254) % usize::from(regs_per_thread.max(1));
        if mask & self.read_union[r] == 0 {
            Resolution::Masked
        } else {
            Resolution::Simulate(None)
        }
    }

    /// Resolve inverting the `SETP` predicate written at `pc`: Masked when
    /// its verdict is `ProvenMasked`.
    pub fn predicate_flip(&self, pc: u32) -> Resolution {
        match self.pcs[pc as usize].predicate {
            SiteVerdict::ProvenMasked => Resolution::Masked,
            v => Resolution::Simulate(Some(v)),
        }
    }

    /// Resolve XOR-ing `mask` into the effective address of memory op
    /// `pc`: a DUE when the mask is one proven-DUE bit, never Masked.
    pub fn address_flip(&self, pc: u32, mask: u64) -> Resolution {
        let f = &self.pcs[pc as usize];
        f.mem_due.single(mask).map_or(Resolution::Simulate(Some(f.mem)), Resolution::Due)
    }

    /// Is `pc` a GPR site (a reachable scalar GPR writer)?
    pub fn gpr_site(&self, pc: u32) -> bool {
        self.pcs[pc as usize].site
    }

    /// Observed-bit mask of the destination written at `pc` (liveness).
    pub fn dst_observed(&self, pc: u32) -> u64 {
        self.pcs[pc as usize].dst_observed
    }

    /// Verdict for a corrupted GPR destination written at `pc`.
    pub fn output_verdict(&self, pc: u32) -> SiteVerdict {
        self.pcs[pc as usize].output
    }

    /// Verdict for an inverted `SETP` predicate written at `pc`.
    pub fn predicate_verdict(&self, pc: u32) -> SiteVerdict {
        self.pcs[pc as usize].predicate
    }

    /// Verdict for a corrupted effective address at memory op `pc`.
    pub fn mem_verdict(&self, pc: u32) -> SiteVerdict {
        self.pcs[pc as usize].mem
    }

    /// Proven-DUE bit mask for output flips at `pc`.
    pub fn output_due_bits(&self, pc: u32) -> DueBits {
        self.pcs[pc as usize].output_due
    }

    /// Proven-DUE bit mask for address flips at `pc`.
    pub fn mem_due_bits(&self, pc: u32) -> DueBits {
        self.pcs[pc as usize].mem_due
    }

    /// Number of instructions analyzed.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// True for the empty kernel.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// Static ACE fraction: of all destination bits written by GPR sites,
    /// the fraction some path may observe. The static analogue of the
    /// dynamically-measured AVF — unweighted by execution counts, so it
    /// reflects the *code*, not the trip counts.
    pub fn ace_fraction(&self) -> f64 {
        let (mut observed, mut width) = (0u64, 0u64);
        for f in self.pcs.iter().filter(|f| f.site) {
            observed += u64::from(f.dst_observed.count_ones());
            width += if f.writes_pair { 64 } else { 32 };
        }
        if width == 0 {
            0.0
        } else {
            observed as f64 / width as f64
        }
    }

    /// Verdict fractions over all GPR-site bits.
    pub fn summary(&self) -> VerdictSummary {
        self.summary_over(|_| true)
    }

    /// Verdict fractions restricted to GPR sites matching `class`.
    pub fn summary_for(&self, class: SiteClass) -> VerdictSummary {
        self.summary_over(|op| class.matches(op))
    }

    /// Each bit of each GPR site lands in the stratum its single-bit
    /// [`KernelAnalysis::output_flip`] resolves to.
    fn summary_over(&self, include: impl Fn(Op) -> bool) -> VerdictSummary {
        let mut counts = [0u64; 5]; // masked, proven_due, store, addr_ctl, unknown
        let mut total = 0u64;
        for (pc, f) in self.pcs.iter().enumerate() {
            if !f.site || !include(f.op) {
                continue;
            }
            let width = if f.writes_pair { 64 } else { 32 };
            for k in 0..width {
                total += 1;
                counts[match self.output_flip(pc as u32, 1 << k) {
                    Resolution::Masked => 0,
                    Resolution::Due(_) => 1,
                    Resolution::Simulate(Some(SiteVerdict::StoreReaching)) => 2,
                    Resolution::Simulate(Some(
                        SiteVerdict::AddressReaching | SiteVerdict::ControlReaching,
                    )) => 3,
                    Resolution::Simulate(_) => 4,
                }] += 1;
            }
        }
        if total == 0 {
            return VerdictSummary::default();
        }
        let f = |c: u64| c as f64 / total as f64;
        VerdictSummary {
            masked: f(counts[0]),
            proven_due: f(counts[1]),
            store: f(counts[2]),
            addr_ctl: f(counts[3]),
            unknown: f(counts[4]),
        }
    }
}

// ---------------------------------------------------------------------------
// Summary fractions.
// ---------------------------------------------------------------------------

/// Static outcome-bound fractions over a kernel's GPR-site bits.
///
/// Each destination bit of each GPR site lands in exactly one stratum;
/// the five fractions sum to 1 when the kernel has any sites.
/// `sdc_upper`/`due_upper` are the paper-style per-class upper bounds to
/// compare against campaign tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VerdictSummary {
    /// Fraction of site bits proven Masked (liveness- or flow-proven).
    pub masked: f64,
    /// Fraction of site bits whose flip is a proven DUE.
    pub proven_due: f64,
    /// Fraction reaching stores only (SDC-prone, cannot DUE).
    pub store: f64,
    /// Fraction reaching addresses/control only (DUE-prone, cannot SDC).
    pub addr_ctl: f64,
    /// Fraction with no static bound.
    pub unknown: f64,
}

impl VerdictSummary {
    /// Upper bound on the SDC fraction of injections into these sites.
    pub fn sdc_upper(&self) -> f64 {
        self.store + self.unknown
    }

    /// Upper bound on the DUE fraction of injections into these sites.
    pub fn due_upper(&self) -> f64 {
        self.proven_due + self.addr_ctl + self.unknown
    }
}

// ---------------------------------------------------------------------------
// Memoized analysis.
// ---------------------------------------------------------------------------

/// FNV-1a, used instead of the std hasher because the cache key must be
/// identical across processes and runs (`RandomState` is seeded).
struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn analysis_key(kernel: &Kernel, ctx: &AnalysisContext) -> u64 {
    let mut h = FnvHasher(0xcbf2_9ce4_8422_2325);
    kernel.name.hash(&mut h);
    kernel.instrs().hash(&mut h);
    kernel.regs_per_thread.hash(&mut h);
    kernel.shared_bytes.hash(&mut h);
    match &ctx.launch {
        Some(l) => {
            1u8.hash(&mut h);
            (l.grid.x, l.grid.y, l.block.x, l.block.y).hash(&mut h);
            l.params.hash(&mut h);
        }
        None => 0u8.hash(&mut h),
    }
    ctx.global_bytes.hash(&mut h);
    h.finish()
}

fn cache() -> &'static Mutex<HashMap<u64, Arc<KernelAnalysis>>> {
    static CACHE: OnceLock<Mutex<HashMap<u64, Arc<KernelAnalysis>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Analyze `kernel` under `ctx`, memoized on a deterministic digest of
/// the instruction stream, launch geometry, parameters, and memory
/// size. Repeated campaigns and profiles over the same kernel analyze
/// once per process.
pub fn analyze(kernel: &Kernel, ctx: &AnalysisContext) -> Arc<KernelAnalysis> {
    let key = analysis_key(kernel, ctx);
    let mut map = cache().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hit) = map.get(&key) {
        return Arc::clone(hit);
    }
    let analysis = Arc::new(KernelAnalysis::compute(kernel, ctx));
    map.insert(key, Arc::clone(&analysis));
    analysis
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_arch::{KernelBuilder, MemWidth, Operand, Pred, Reg};

    fn verdicts(k: &Kernel, ctx: &AnalysisContext) -> KernelAnalysis {
        KernelAnalysis::compute(k, ctx)
    }

    /// The proven DUE kind of a resolution, if it is one.
    fn due(r: Resolution) -> Option<DueKind> {
        match r {
            Resolution::Due(kind) => Some(kind),
            _ => None,
        }
    }

    fn r(n: u8) -> Reg {
        Reg(n)
    }

    fn reg(n: u8) -> Operand {
        Operand::Reg(Reg(n))
    }

    fn imm(v: u32) -> Operand {
        Operand::Imm(v)
    }

    /// `R0 = tid.x * 4; store to [R0]; exit` — classic aligned chain.
    fn aligned_store_kernel() -> Kernel {
        let mut b = KernelBuilder::new("aligned");
        b.s2r(r(1), SpecialReg::TidX);
        b.shl(r(0), reg(1), imm(2));
        b.mov(r(2), imm(7));
        b.stg(gpu_arch::MemWidth::W32, r(0), 0, r(2));
        b.exit();
        b.build().unwrap()
    }

    fn ctx_64_threads(global: u64) -> AnalysisContext {
        AnalysisContext {
            launch: Some(LaunchConfig::new(1, 64, vec![])),
            global_bytes: Some(global),
        }
    }

    #[test]
    fn interval_tracks_alignment_and_range() {
        let k = aligned_store_kernel();
        let cfg = Cfg::build(&k);
        let iv = intervals(&k, &cfg, &ctx_64_threads(256));
        // R0 = tid.x << 2 ∈ [0, 252], 4-aligned.
        let v = iv.dst[1];
        assert_eq!((v.lo, v.hi), (0, 252));
        assert!(v.tz >= 2);
        // Bits 0 and 1 (alignment) and 8.. (magnitude) are provably zero.
        assert_eq!(v.zero_bits() & 0b11, 0b11);
        assert_ne!(v.zero_bits() & (1 << 20), 0);
    }

    #[test]
    fn low_bit_flip_of_aligned_base_is_proven_misalignment_due() {
        let k = aligned_store_kernel();
        let v = verdicts(&k, &ctx_64_threads(256));
        // Flipping bit 0 of the SHL output makes the store misaligned.
        assert_eq!(due(v.output_flip(1, 1)), Some(DueKind::MemoryViolation));
        assert_eq!(due(v.output_flip(1, 2)), Some(DueKind::MemoryViolation));
    }

    #[test]
    fn high_bit_flip_is_proven_oob_due_when_memory_is_small() {
        let k = aligned_store_kernel();
        let v = verdicts(&k, &ctx_64_threads(256));
        // addr ∈ [0,252]; +2^10 = addr ∈ [1024,1276] > 256 bytes: OOB.
        assert_eq!(due(v.output_flip(1, 1 << 10)), Some(DueKind::MemoryViolation));
        // Without a known memory size the OOB proof must not fire.
        let v2 = verdicts(
            &k,
            &AnalysisContext { launch: Some(LaunchConfig::new(1, 64, vec![])), global_bytes: None },
        );
        assert_eq!(due(v2.output_flip(1, 1 << 10)), None);
        // But the (launch-independent) misalignment proof still does.
        assert_eq!(due(v2.output_flip(1, 1)), Some(DueKind::MemoryViolation));
    }

    #[test]
    fn mem_address_bits_prove_alignment_and_bounds_dues() {
        let k = aligned_store_kernel();
        let v = verdicts(&k, &ctx_64_threads(256));
        // The store at pc 3: address 4-aligned in [0,252].
        assert_eq!(due(v.address_flip(3, 1)), Some(DueKind::MemoryViolation));
        assert_eq!(due(v.address_flip(3, 1 << 12)), Some(DueKind::MemoryViolation));
        // Bit 7 may stay in range (e.g. addr=0 → 128): not provable.
        assert_eq!(due(v.address_flip(3, 1 << 7)), None);
    }

    #[test]
    fn shared_chain_reports_shared_violation() {
        let mut b = KernelBuilder::new("shmem");
        b.shared(128);
        b.s2r(r(1), SpecialReg::TidX);
        b.shl(r(0), reg(1), imm(2));
        b.sts(gpu_arch::MemWidth::W32, r(0), 0, r(1));
        b.bar();
        b.exit();
        let k = b.build().unwrap();
        let launch = LaunchConfig::new(1, 32, vec![]);
        let v = verdicts(&k, &AnalysisContext { launch: Some(launch), global_bytes: Some(1024) });
        assert_eq!(due(v.output_flip(1, 1)), Some(DueKind::SharedViolation));
        // +2^7: addr ∈ [128, 252] ≥ shared size 128 → OOB in shared.
        assert_eq!(due(v.output_flip(1, 1 << 7)), Some(DueKind::SharedViolation));
    }

    #[test]
    fn store_value_flip_is_not_a_due_proof() {
        let k = aligned_store_kernel();
        let v = verdicts(&k, &ctx_64_threads(256));
        // pc 2 writes the stored *value* (R2=7): its zero bits flow to
        // the store data, never the address — no DUE proof.
        assert_eq!(due(v.output_flip(2, 1 << 20)), None);
        assert_eq!(v.output_verdict(2), SiteVerdict::StoreReaching);
    }

    #[test]
    fn guarded_interloper_blocks_the_walk() {
        let mut b = KernelBuilder::new("guarded");
        b.s2r(r(1), SpecialReg::TidX);
        b.shl(r(0), reg(1), imm(2));
        b.isetp(Pred(0), gpu_arch::CmpOp::Lt, reg(1), imm(3));
        b.if_p(Pred(0));
        b.mov(r(0), imm(0)); // guarded write to the displaced reg
        b.stg(gpu_arch::MemWidth::W32, r(0), 0, r(1));
        b.exit();
        let k = b.build().unwrap();
        let v = verdicts(&k, &ctx_64_threads(256));
        assert_eq!(due(v.output_flip(1, 1)), None);
    }

    #[test]
    fn displacement_cancellation_is_not_a_due() {
        // R3 = R0 * 0 + R1: the displacement is annihilated by the
        // multiply; the store below uses R3 and must not be "proven".
        let mut b = KernelBuilder::new("cancel");
        b.s2r(r(1), SpecialReg::TidX);
        b.shl(r(0), reg(1), imm(2));
        b.imad(r(3), reg(0), imm(0), reg(1));
        b.stg(gpu_arch::MemWidth::W32, r(3), 0, r(0));
        b.exit();
        let k = b.build().unwrap();
        let v = verdicts(&k, &ctx_64_threads(256));
        // The flip at pc 1 still reaches the store *base* via R0 itself
        // — the walk sees the displaced R0 read at the STG and proves or
        // bails on that access, not on the cancelled R3 path.
        // Either way, no unsound claim: check determinism + consistency.
        let again = verdicts(&k, &ctx_64_threads(256));
        assert_eq!(v.output_due_bits(1), again.output_due_bits(1));
    }

    #[test]
    fn summary_fractions_sum_to_one_and_bound_outcomes() {
        let k = aligned_store_kernel();
        let a = KernelAnalysis::compute(&k, &ctx_64_threads(256));
        let s = a.summary();
        let sum = s.masked + s.proven_due + s.store + s.addr_ctl + s.unknown;
        assert!((sum - 1.0).abs() < 1e-9, "strata must partition: {s:?}");
        assert!(s.sdc_upper() <= 1.0 && s.due_upper() <= 1.0);
        assert!(s.proven_due > 0.0, "aligned chain must prove some DUE bits");
    }

    #[test]
    fn analyze_is_memoized_and_deterministic() {
        let k = aligned_store_kernel();
        let ctx = ctx_64_threads(256);
        let a = analyze(&k, &ctx);
        let b = analyze(&k, &ctx);
        assert!(Arc::ptr_eq(&a, &b), "same kernel+context must hit the cache");
        let other = analyze(&k, &ctx_64_threads(512));
        assert!(!Arc::ptr_eq(&a, &other), "context is part of the key");
        assert_eq!(analysis_key(&k, &ctx), analysis_key(&k, &ctx_64_threads(256)));
    }

    fn k_with_dead_and_live() -> Kernel {
        let mut b = KernelBuilder::new("m");
        b.ldp(Reg(2), 0);
        b.mov(Reg(0), Operand::Imm(7)); // live: stored
        b.mov(Reg(5), Operand::Imm(9)); // dead
        b.stg(MemWidth::W32, Reg(2), 0, Reg(0));
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn dead_destination_prunes_and_live_does_not() {
        let a = verdicts(&k_with_dead_and_live(), &AnalysisContext::default());
        assert_eq!(a.output_flip(2, 1 << 13), Resolution::Masked, "dead MOV output flip");
        assert_eq!(a.output_replace(2), Resolution::Masked, "dead MOV output replace");
        assert_ne!(a.output_flip(1, 1 << 13), Resolution::Masked, "stored MOV is observed");
        assert_ne!(a.output_replace(1), Resolution::Masked);
    }

    #[test]
    fn half_observed_value_prunes_upper_bits_only() {
        let mut b = KernelBuilder::new("h");
        b.ldp(Reg(2), 0);
        b.ldg(MemWidth::W16, Reg(0), Reg(2), 0);
        b.hadd(Reg(1), Operand::Reg(Reg(0)), Operand::Reg(Reg(0)));
        b.stg(MemWidth::W16, Reg(2), 0, Reg(1));
        b.exit();
        let k = b.build().unwrap();
        let a = verdicts(&k, &AnalysisContext::default());
        assert_eq!(a.output_flip(1, 1 << 20), Resolution::Masked, "upper half of W16 load is dead");
        assert_ne!(a.output_flip(1, 1 << 3), Resolution::Masked, "lower half is consumed");
        // Register-file view: R0 and R1 are only ever read as halves.
        assert_eq!(a.register_flip(0, k.regs_per_thread, 0xFFFF_0000), Resolution::Masked);
        assert_eq!(a.register_flip(0, k.regs_per_thread, 0x0000_8000), Resolution::Simulate(None));
    }

    #[test]
    fn warp_ops_are_never_gpr_sites() {
        let mut b = KernelBuilder::new("w");
        b.hmma(Reg(0), Reg(4), Reg(8));
        b.exit();
        let a = verdicts(&b.build().unwrap(), &AnalysisContext::default());
        assert!(!a.gpr_site(0));
        assert_eq!(a.output_flip(0, 1), Resolution::Simulate(Some(SiteVerdict::Unknown)));
    }

    #[test]
    fn ace_fraction_reflects_dead_code() {
        let ace = verdicts(&k_with_dead_and_live(), &AnalysisContext::default()).ace_fraction();
        assert!(ace > 0.0 && ace < 1.0, "ace={ace}");
    }
}
