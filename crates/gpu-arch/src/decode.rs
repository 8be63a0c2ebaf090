//! Predecoded per-instruction metadata: the one source of truth for
//! instruction classification.
//!
//! Every quantity the paper combines — the instruction mix of Figure 1,
//! per-unit FIT attribution, and the injectors' site-class populations —
//! is a function of *static* per-instruction metadata. Before this module
//! existed that metadata was recomputed per **dynamic** instruction in
//! the simulator's hot loop and re-implemented independently by the
//! injector, the profiler, and the static analyses, with comments keeping
//! the copies aligned by hand.
//!
//! [`DecodedKernel::new`] walks a kernel once and produces a dense,
//! index-addressed [`InstrMeta`] per static instruction: functional unit
//! and mix category (pre-resolved to their dense count indices), the set
//! of injection [`SiteClass`]es the instruction belongs to, precomputed
//! source/destination register lists, the decoded guard, and the
//! read/write model the dataflow passes use. The simulator decodes once
//! per launch and turns `step()` into table lookups; the injector,
//! profiler and `sass-analysis` consume the same table, so the
//! "engine bookkeeping matches the injectors' sampling space" invariant
//! is structural instead of a comment — and drift fails a test (see the
//! unit-group constants below).

use crate::instr::{Guard, Instr, RegList};
use crate::kernel::Kernel;
use crate::op::{FunctionalUnit, MemWidth, Op};
use crate::operand::Reg;
use crate::WARP_SIZE;

/// Which dynamic instructions an instruction-level injection may target.
///
/// These mirror the injectors' documented instruction groups: SASSIFI's
/// FP/INT/LD output groups and store-address group, NVBitFI's
/// "instructions that write general-purpose registers" (which excludes
/// half-precision ops — the limitation behind HHotspot's 27x
/// overestimation in Section VII-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteClass {
    /// Any instruction writing a general-purpose register.
    GprWriter,
    /// Any instruction writing a GPR except binary16 arithmetic (NVBitFI).
    GprWriterNoHalf,
    /// Single-precision and double-precision FP arithmetic outputs.
    FloatArith,
    /// Binary16 arithmetic outputs.
    HalfArith,
    /// Integer arithmetic outputs.
    IntArith,
    /// Load outputs (global and shared).
    Load,
    /// A specific functional unit (micro-benchmark AVF measurements).
    Unit(FunctionalUnit),
}

impl SiteClass {
    /// Does `op` belong to this injection site class?
    ///
    /// This is the *definition* of class membership; [`InstrMeta`] bakes
    /// it into a precomputed [`SiteClassSet`] and a proptest pins the two
    /// equal for arbitrary instructions.
    pub fn matches(self, op: Op) -> bool {
        let writes_gpr = !op.has_no_dst() && !op.writes_pred();
        match self {
            SiteClass::GprWriter => writes_gpr,
            SiteClass::GprWriterNoHalf => {
                writes_gpr && !matches!(op, Op::Hadd | Op::Hmul | Op::Hfma | Op::Hmma)
            }
            SiteClass::FloatArith => matches!(
                op,
                Op::Fadd
                    | Op::Fmul
                    | Op::Ffma
                    | Op::Fmin
                    | Op::Fmax
                    | Op::Dadd
                    | Op::Dmul
                    | Op::Dfma
            ),
            SiteClass::HalfArith => matches!(op, Op::Hadd | Op::Hmul | Op::Hfma),
            SiteClass::IntArith => matches!(
                op,
                Op::Iadd
                    | Op::Imul
                    | Op::Imad
                    | Op::Imin
                    | Op::Imax
                    | Op::Shl
                    | Op::Shr
                    | Op::Asr
                    | Op::And
                    | Op::Or
                    | Op::Xor
                    | Op::Not
            ),
            SiteClass::Load => matches!(op, Op::Ldg(_) | Op::Lds(_)),
            SiteClass::Unit(u) => op.functional_unit() == u && writes_gpr,
        }
    }

    /// Stable metric/trace label for this site class.
    pub fn label(self) -> &'static str {
        match self {
            SiteClass::GprWriter => "gpr-writer",
            SiteClass::GprWriterNoHalf => "gpr-writer-no-half",
            SiteClass::FloatArith => "float-arith",
            SiteClass::HalfArith => "half-arith",
            SiteClass::IntArith => "int-arith",
            SiteClass::Load => "load",
            SiteClass::Unit(u) => u.name(),
        }
    }

    /// Widest destination this class can corrupt (for bit-position
    /// sampling): 64 for classes containing pair-writing ops.
    pub fn dst_bits(self, op: Op) -> u32 {
        if op.writes_pair() {
            64
        } else if matches!(
            op,
            Op::Hadd
                | Op::Hmul
                | Op::Hfma
                | Op::F2h
                | Op::Ldg(MemWidth::W16)
                | Op::Lds(MemWidth::W16)
        ) {
            16
        } else {
            32
        }
    }
}

/// The functional units whose per-unit dynamic counts make up each
/// arithmetic site-class population.
///
/// The injectors gate their modes and size their sampling populations by
/// summing per-unit counts over these groups; the site classes above
/// define membership per *op*. The two views agree because every op of a
/// listed unit belongs to the corresponding class (e.g. `FMNMX` shares
/// the FADD pipe and is `FloatArith`) — an invariant a gpu-sim test
/// checks exhaustively over all ops, so adding an op that breaks the
/// correspondence fails the build instead of silently skewing AVF.
pub const FP32_ARITH_UNITS: [FunctionalUnit; 3] =
    [FunctionalUnit::Fadd, FunctionalUnit::Fmul, FunctionalUnit::Ffma];
/// FP64 arithmetic pipes (see [`FP32_ARITH_UNITS`]).
pub const FP64_ARITH_UNITS: [FunctionalUnit; 3] =
    [FunctionalUnit::Dadd, FunctionalUnit::Dmul, FunctionalUnit::Dfma];
/// Binary16 arithmetic pipes (see [`FP32_ARITH_UNITS`]).
pub const HALF_ARITH_UNITS: [FunctionalUnit; 3] =
    [FunctionalUnit::Hadd, FunctionalUnit::Hmul, FunctionalUnit::Hfma];
/// Integer arithmetic pipes (see [`FP32_ARITH_UNITS`]).
pub const INT_ARITH_UNITS: [FunctionalUnit; 3] =
    [FunctionalUnit::Iadd, FunctionalUnit::Imul, FunctionalUnit::Imad];

/// The precomputed set of base [`SiteClass`]es an instruction belongs to.
///
/// `Unit(_)` membership is not a bit here — it needs the instruction's
/// unit and is answered by [`InstrMeta::in_class`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteClassSet(u8);

impl SiteClassSet {
    const GPR_WRITER: u8 = 1 << 0;
    const GPR_WRITER_NO_HALF: u8 = 1 << 1;
    const FLOAT_ARITH: u8 = 1 << 2;
    const HALF_ARITH: u8 = 1 << 3;
    const INT_ARITH: u8 = 1 << 4;
    const LOAD: u8 = 1 << 5;

    /// The set of base classes `op` belongs to.
    pub fn of(op: Op) -> SiteClassSet {
        let mut bits = 0;
        for (class, bit) in [
            (SiteClass::GprWriter, Self::GPR_WRITER),
            (SiteClass::GprWriterNoHalf, Self::GPR_WRITER_NO_HALF),
            (SiteClass::FloatArith, Self::FLOAT_ARITH),
            (SiteClass::HalfArith, Self::HALF_ARITH),
            (SiteClass::IntArith, Self::INT_ARITH),
            (SiteClass::Load, Self::LOAD),
        ] {
            if class.matches(op) {
                bits |= bit;
            }
        }
        SiteClassSet(bits)
    }

    /// Membership test. `Unit(_)` always answers `false` — per-unit
    /// membership depends on the instruction's unit, not the set; use
    /// [`InstrMeta::in_class`].
    #[inline]
    pub fn contains(self, class: SiteClass) -> bool {
        let bit = match class {
            SiteClass::GprWriter => Self::GPR_WRITER,
            SiteClass::GprWriterNoHalf => Self::GPR_WRITER_NO_HALF,
            SiteClass::FloatArith => Self::FLOAT_ARITH,
            SiteClass::HalfArith => Self::HALF_ARITH,
            SiteClass::IntArith => Self::INT_ARITH,
            SiteClass::Load => Self::LOAD,
            SiteClass::Unit(_) => return false,
        };
        self.0 & bit != 0
    }
}

/// Bit mask of a register that a read can observe: full word unless the
/// instruction provably looks at fewer bits.
pub const OBS_FULL: u32 = u32::MAX;
/// Low half only (packed/scalar binary16 sources, 16-bit store values).
pub const OBS_HALF: u32 = 0xFFFF;
/// Shift amounts are taken modulo 32 by the engine.
pub const OBS_SHIFT_COUNT: u32 = 0x1F;

/// Everything the simulator's hot loop, the injectors' samplers, the
/// profiler and the static analyses need to know about one static
/// instruction — computed once by [`DecodedKernel::new`].
#[derive(Clone, Copy, Debug)]
pub struct InstrMeta {
    /// The opcode (semantic dispatch still matches on this).
    pub op: Op,
    /// Issuing functional unit.
    pub unit: FunctionalUnit,
    /// `unit.index()`, pre-resolved for dense count arrays.
    pub unit_index: u8,
    /// `op.mix_category().index()`, pre-resolved.
    pub mix_index: u8,
    /// Issue-to-result latency in cycles.
    pub latency: u32,
    /// Lane-latency addend per dynamic execution: `latency`, scaled by
    /// the warp width for warp-wide MMA (the timing model divides by the
    /// warp width to recover the warp's serial chain).
    pub warp_latency_add: u64,
    /// The base site classes this instruction belongs to.
    pub classes: SiteClassSet,
    /// Counts toward the `MemAddress` sampling space (loads, stores,
    /// atomics).
    pub is_mem_op: bool,
    /// Writes a predicate (SETP family) — the `PredicateOutput` space.
    pub writes_pred: bool,
    /// Writes an aligned 64-bit register pair.
    pub writes_pair: bool,
    /// Has no register/predicate destination at all.
    pub has_no_dst: bool,
    /// Tensor-core matrix-multiply-accumulate (warp-wide).
    pub is_mma: bool,
    /// Executes warp-synchronously (MMA and SHFL).
    pub is_warp_sync: bool,
    /// The register write is a side effect of an operation that matters
    /// anyway (memory traffic, atomics, warp-wide exchange), so an
    /// unused destination is a normal idiom — the lint verifier's
    /// dead-write exemption.
    pub side_effects: bool,
    /// An execution of this instruction fully overwrites its destination
    /// on every executing thread (unguarded scalar writes; guarded and
    /// warp-level MMA/SHFL writes do not kill).
    pub def_kills: bool,
    /// Width of the destination value in bits (16/32/64) for
    /// bit-position sampling.
    pub dst_bits: u32,
    /// Registers read, with 64-bit pairs expanded (no MMA fragment
    /// expansion — see [`DecodedKernel::observed_reads`]).
    pub src_regs: RegList,
    /// Registers written (no MMA fragment expansion — see
    /// [`DecodedKernel::written_regs`]).
    pub dst_regs: RegList,
    /// The decoded execution guard.
    pub guard: Option<Guard>,
}

impl InstrMeta {
    /// Decode one instruction.
    pub fn new(i: &Instr) -> InstrMeta {
        let op = i.op;
        let unit = op.functional_unit();
        let is_mma = op.is_mma();
        let latency = op.latency();
        InstrMeta {
            op,
            unit,
            unit_index: unit.index() as u8,
            mix_index: op.mix_category().index() as u8,
            latency,
            warp_latency_add: latency as u64 * if is_mma { WARP_SIZE as u64 } else { 1 },
            classes: SiteClassSet::of(op),
            is_mem_op: matches!(
                op,
                Op::Ldg(_) | Op::Lds(_) | Op::Stg(_) | Op::Sts(_) | Op::AtomGAdd | Op::AtomSAdd
            ),
            writes_pred: op.writes_pred(),
            writes_pair: op.writes_pair(),
            has_no_dst: op.has_no_dst(),
            is_mma,
            is_warp_sync: op.is_warp_sync(),
            side_effects: matches!(
                op,
                Op::Ldg(_)
                    | Op::Lds(_)
                    | Op::AtomGAdd
                    | Op::AtomSAdd
                    | Op::Shfl(_)
                    | Op::Hmma
                    | Op::Fmma
            ),
            def_kills: i.guard.is_none() && !matches!(op, Op::Hmma | Op::Fmma | Op::Shfl(_)),
            dst_bits: SiteClass::GprWriter.dst_bits(op),
            src_regs: i.src_regs(),
            dst_regs: i.dst_regs(),
            guard: i.guard,
        }
    }

    /// Writes a general-purpose register (the `GprWriter` space).
    #[inline]
    pub fn writes_gpr(&self) -> bool {
        self.classes.contains(SiteClass::GprWriter)
    }

    /// Load instruction (global or shared).
    #[inline]
    pub fn is_load(&self) -> bool {
        self.classes.contains(SiteClass::Load)
    }

    /// Does this instruction belong to `class`? Equals
    /// `class.matches(self.op)` for every class, including `Unit(_)`.
    #[inline]
    pub fn in_class(&self, class: SiteClass) -> bool {
        match class {
            SiteClass::Unit(u) => self.unit == u && self.writes_gpr(),
            c => self.classes.contains(c),
        }
    }
}

/// A kernel predecoded into a dense `pc`-indexed [`InstrMeta`] table,
/// plus the MMA-expanded read/write model the dataflow passes consume.
#[derive(Clone, Debug)]
pub struct DecodedKernel {
    metas: Vec<InstrMeta>,
    /// Per instruction: registers read with observed-bit masks, MMA
    /// fragments expanded.
    reads: Vec<Vec<(Reg, u32)>>,
    /// Per instruction: registers written, MMA fragments expanded.
    writes: Vec<RegList>,
}

impl DecodedKernel {
    /// Decode every instruction of `kernel`.
    pub fn new(kernel: &Kernel) -> DecodedKernel {
        let metas: Vec<InstrMeta> = kernel.instrs.iter().map(InstrMeta::new).collect();
        let reads = kernel.instrs.iter().map(observed_reads_of).collect();
        let writes = kernel.instrs.iter().map(written_regs_of).collect();
        DecodedKernel { metas, reads, writes }
    }

    /// Number of decoded instructions.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// True for an empty kernel.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// The metadata of the instruction at `pc`.
    #[inline]
    pub fn meta(&self, pc: u32) -> &InstrMeta {
        &self.metas[pc as usize]
    }

    /// The full table, `pc`-indexed.
    pub fn metas(&self) -> &[InstrMeta] {
        &self.metas
    }

    /// Registers read by the instruction at `pc` with the observed-bit
    /// mask per read, MMA A/B/C fragments expanded to the register
    /// ranges the simulator actually reads.
    pub fn observed_reads(&self, pc: usize) -> &[(Reg, u32)] {
        &self.reads[pc]
    }

    /// Registers written by the instruction at `pc`, the MMA D fragment
    /// expanded to the accumulator register range.
    pub fn written_regs(&self, pc: usize) -> &[Reg] {
        &self.writes[pc]
    }
}

/// Registers read by `i` with the observed-bit mask per read.
///
/// Supersedes [`Instr::src_regs`] for analysis purposes: MMA fragment
/// reads are expanded here (the simulator does that expansion at
/// execution time), and each read carries its observability mask.
pub fn observed_reads_of(i: &Instr) -> Vec<(Reg, u32)> {
    let mut out = Vec::new();
    let mut push = |r: Reg, m: u32| {
        if !r.is_rz() {
            out.push((r, m));
        }
    };
    match i.op {
        Op::Hmma | Op::Fmma => {
            // A and B are packed-f16 4-register fragments; C is 4
            // registers packed (HMMA) or 8 registers of f32 (FMMA).
            for slot in [i.srcs[0], i.srcs[1]] {
                if let Some(base) = slot.reg() {
                    for k in 0..4 {
                        push(Reg(base.0 + k), OBS_FULL);
                    }
                }
            }
            if let Some(c) = i.srcs[2].reg() {
                let n = if i.op == Op::Hmma { 4 } else { 8 };
                for k in 0..n {
                    push(Reg(c.0 + k), OBS_FULL);
                }
            }
        }
        Op::Shl | Op::Shr | Op::Asr => {
            if let Some(r) = i.srcs[0].reg() {
                push(r, OBS_FULL);
            }
            if let Some(r) = i.srcs[1].reg() {
                push(r, OBS_SHIFT_COUNT);
            }
        }
        _ => {
            let pairwise = matches!(
                i.op,
                Op::Dadd | Op::Dmul | Op::Dfma | Op::Dsetp(_) | Op::D2f | Op::Drcp | Op::Dsqrt
            );
            let half = matches!(i.op, Op::Hadd | Op::Hmul | Op::Hfma | Op::Hsetp(_) | Op::H2f);
            for (slot, s) in i.srcs.iter().enumerate() {
                if let Some(r) = s.reg() {
                    // A 16-bit store only forwards the low half of its
                    // value register (`srcs[2]`); its base address is a
                    // full-width read.
                    let value_slot = slot == 2
                        && matches!(i.op, Op::Stg(MemWidth::W16) | Op::Sts(MemWidth::W16));
                    let m = if half || value_slot { OBS_HALF } else { OBS_FULL };
                    push(r, m);
                    if pairwise {
                        push(r.pair_hi(), OBS_FULL);
                    }
                }
            }
            if matches!(i.op, Op::Stg(MemWidth::W64) | Op::Sts(MemWidth::W64)) {
                if let Some(r) = i.srcs[2].reg() {
                    push(r.pair_hi(), OBS_FULL);
                }
            }
        }
    }
    out
}

/// Registers written by `i`, MMA fragments expanded.
pub fn written_regs_of(i: &Instr) -> RegList {
    let mut out = RegList::new();
    match i.op {
        Op::Hmma | Op::Fmma => {
            if let Some(c) = i.srcs[2].reg() {
                let n = if i.op == Op::Hmma { 4 } else { 8 };
                for k in 0..n {
                    if !Reg(c.0 + k).is_rz() {
                        out.push(Reg(c.0 + k));
                    }
                }
            }
            out
        }
        _ => i.dst_regs(),
    }
}

/// Number of real (non-`RZ`) general-purpose registers.
pub const TRACKED_REGS: usize = 255;

/// No [`RegLiveness`] slot: no branch jumps to the instruction.
const NO_SLOT: u32 = u32::MAX;

/// Bit-level register liveness: which bits of which registers a thread
/// may still observe, around each instruction.
///
/// A backward fixpoint over the read/write model of [`DecodedKernel`],
/// at instruction granularity:
///
/// * a read makes its observed bits live ([`DecodedKernel::observed_reads`]:
///   half-precision reads see the low 16 bits, shift counts the low 5,
///   MMA fragments and the SHFL source are read in full);
/// * only a write that overwrites its destination on every executing
///   thread kills ([`InstrMeta::def_kills`]): guarded writes and the
///   warp-level MMA/SHFL writes leave the old value live;
/// * control flows to the next instruction, to a branch target, or
///   nowhere after an unguarded `EXIT`.
///
/// A register with no live bit at a thread's pc is overwritten before
/// any later read on every path, or never read again. `sass-analysis`
/// proves injection sites masked with this, and the simulator ignores
/// such registers when it compares a trial with a golden snapshot.
///
/// Only the entry masks of branch targets are kept; [`RegLiveness::sweep`]
/// rebuilds every instruction's masks in one backward pass.
#[derive(Clone, Debug)]
pub struct RegLiveness<'k> {
    kernel: &'k Kernel,
    decoded: &'k DecodedKernel,
    /// Registers tracked: `R0` up to the highest the kernel names.
    width: usize,
    /// Per pc: its index among branch targets, or [`NO_SLOT`].
    slot: Vec<u32>,
    /// Per branch target: some branch at or after it jumps back to it.
    back: Vec<bool>,
    /// Per branch target: the observed-bit masks on entry, `width` each.
    entry: Vec<u32>,
}

impl<'k> RegLiveness<'k> {
    /// Run the fixpoint over `kernel`, decoded as `decoded`.
    pub fn new(kernel: &'k Kernel, decoded: &'k DecodedKernel) -> RegLiveness<'k> {
        let n = kernel.instrs.len();
        let named = (0..n).flat_map(|pc| {
            let reads = decoded.observed_reads(pc).iter().map(|&(r, _)| r);
            reads.chain(decoded.written_regs(pc).iter().copied())
        });
        let width = named.map(|r| r.0 as usize + 1).max().unwrap_or(0);
        let mut slot = vec![NO_SLOT; n];
        let mut back = Vec::new();
        for (pc, i) in kernel.instrs.iter().enumerate() {
            let Some(t) = i.target.filter(|_| i.op == Op::Bra) else { continue };
            let t = t as usize;
            if slot[t] == NO_SLOT {
                slot[t] = back.len() as u32;
                back.push(false);
            }
            back[slot[t] as usize] |= t <= pc;
        }
        let mut live = RegLiveness { kernel, decoded, width, slot, back, entry: Vec::new() };
        let mut entry = vec![0u32; live.back.len() * width];
        while live.pass::<false>(&mut entry, |_, _, _| {}) {}
        live.entry = entry;
        live
    }

    /// Visit every instruction, last to first, with the observed-bit
    /// masks of the registers after it executes and on entry to it,
    /// indexed by register number; registers past the slices are never
    /// observed.
    pub fn sweep(&self, visit: impl FnMut(usize, &[u32], &[u32])) {
        let mut entry = self.entry.clone();
        self.pass::<true>(&mut entry, visit);
    }

    /// The registers with any live bit on entry to each pc, as bitsets:
    /// register `r` is bit `r % 32` of word `r / 32`.
    pub fn live_regs(&self) -> Vec<[u32; 8]> {
        let mut sets = vec![[0u32; 8]; self.kernel.instrs.len()];
        self.sweep(|pc, _, before| {
            for (r, &m) in before.iter().enumerate() {
                if m != 0 {
                    sets[pc][r / 32] |= 1 << (r % 32);
                }
            }
        });
        sets
    }

    /// One backward pass over the kernel that updates the branch
    /// targets' `entry` masks, visiting each instruction when `VISIT`. A
    /// pass reads a stale entry only across a backward branch, so it
    /// returns whether the entry of a backward branch's target changed:
    /// then another pass is due.
    fn pass<const VISIT: bool>(
        &self,
        entry: &mut [u32],
        mut visit: impl FnMut(usize, &[u32], &[u32]),
    ) -> bool {
        let (n, w) = (self.kernel.instrs.len(), self.width);
        // `live` carries the masks on entry to `pc + 1` into `pc`.
        let mut live = vec![0u32; w];
        let mut after = vec![0u32; if VISIT { w } else { 0 }];
        let mut changed = false;
        for pc in (0..n).rev() {
            let i = &self.kernel.instrs[pc];
            let (jump, falls) = match i.op {
                Op::Bra => (i.target, i.guard.is_some()),
                Op::Exit => (None, i.guard.is_some()),
                _ => (None, true),
            };
            if !falls || pc + 1 == n {
                live.fill(0);
            }
            if let Some(t) = jump {
                let s = self.slot[t as usize] as usize * w;
                for (l, e) in live.iter_mut().zip(&entry[s..s + w]) {
                    *l |= e;
                }
            }
            if VISIT {
                after.copy_from_slice(&live);
            }
            if self.decoded.meta(pc as u32).def_kills {
                for &r in self.decoded.written_regs(pc) {
                    live[r.0 as usize] = 0;
                }
            }
            for &(r, m) in self.decoded.observed_reads(pc) {
                live[r.0 as usize] |= m;
            }
            if VISIT {
                visit(pc, &after, &live);
            }
            let s = self.slot[pc];
            if s != NO_SLOT {
                let e = &mut entry[s as usize * w..(s as usize + 1) * w];
                if *e != *live {
                    e.copy_from_slice(&live);
                    changed |= self.back[s as usize];
                }
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::CmpOp;
    use crate::MixCategory as Mix;

    #[test]
    fn gpr_writer_excludes_stores_and_setp() {
        assert!(SiteClass::GprWriter.matches(Op::Fadd));
        assert!(SiteClass::GprWriter.matches(Op::Ldg(MemWidth::W32)));
        assert!(!SiteClass::GprWriter.matches(Op::Stg(MemWidth::W32)));
        assert!(!SiteClass::GprWriter.matches(Op::Isetp(CmpOp::Lt)));
        assert!(!SiteClass::GprWriter.matches(Op::Bra));
    }

    #[test]
    fn nvbitfi_class_excludes_half() {
        assert!(SiteClass::GprWriterNoHalf.matches(Op::Fadd));
        assert!(!SiteClass::GprWriterNoHalf.matches(Op::Hfma));
        assert!(!SiteClass::GprWriterNoHalf.matches(Op::Hmma));
        assert!(SiteClass::GprWriterNoHalf.matches(Op::Dfma));
    }

    #[test]
    fn group_classes() {
        assert!(SiteClass::FloatArith.matches(Op::Dfma));
        assert!(!SiteClass::FloatArith.matches(Op::Hadd));
        assert!(SiteClass::HalfArith.matches(Op::Hmul));
        assert!(SiteClass::IntArith.matches(Op::Shl));
        assert!(!SiteClass::IntArith.matches(Op::Fadd));
        assert!(SiteClass::Load.matches(Op::Lds(MemWidth::W64)));
        assert!(!SiteClass::Load.matches(Op::Sts(MemWidth::W32)));
    }

    #[test]
    fn unit_class_requires_gpr_write() {
        assert!(SiteClass::Unit(FunctionalUnit::Ffma).matches(Op::Ffma));
        assert!(!SiteClass::Unit(FunctionalUnit::Ldst).matches(Op::Stg(MemWidth::W32)));
        assert!(SiteClass::Unit(FunctionalUnit::Ldst).matches(Op::Ldg(MemWidth::W32)));
    }

    #[test]
    fn dst_bits_by_width() {
        assert_eq!(SiteClass::GprWriter.dst_bits(Op::Dfma), 64);
        assert_eq!(SiteClass::GprWriter.dst_bits(Op::Hadd), 16);
        assert_eq!(SiteClass::GprWriter.dst_bits(Op::Fadd), 32);
        assert_eq!(SiteClass::GprWriter.dst_bits(Op::Ldg(MemWidth::W16)), 16);
    }

    #[test]
    fn meta_indices_match_op_methods() {
        for op in [Op::Ffma, Op::Hmma, Op::Ldg(MemWidth::W64), Op::Bra, Op::Isetp(CmpOp::Ge)] {
            let m = InstrMeta::new(&Instr::new(op));
            assert_eq!(m.unit, op.functional_unit());
            assert_eq!(m.unit_index as usize, op.functional_unit().index());
            assert_eq!(m.mix_index as usize, op.mix_category().index());
            assert_eq!(m.latency, op.latency());
            assert_eq!(m.writes_pred, op.writes_pred());
            assert_eq!(m.writes_pair, op.writes_pair());
            assert_eq!(m.has_no_dst, op.has_no_dst());
            assert_eq!(m.is_mma, op.is_mma());
            assert_eq!(m.is_warp_sync, op.is_warp_sync());
        }
    }

    #[test]
    fn mma_warp_latency_scales_by_warp_width() {
        let mma = InstrMeta::new(&Instr::new(Op::Hmma));
        assert_eq!(mma.warp_latency_add, Op::Hmma.latency() as u64 * WARP_SIZE as u64);
        let fadd = InstrMeta::new(&Instr::new(Op::Fadd));
        assert_eq!(fadd.warp_latency_add, Op::Fadd.latency() as u64);
    }

    #[test]
    fn arith_unit_groups_agree_with_site_classes() {
        // The injectors sum per-unit counts over these groups to size
        // their sampling populations; the engine tallies site classes by
        // op. The two agree iff unit membership implies class membership
        // and vice versa — checked here over every op (this is the
        // assertion that replaced the old "matches the injectors'
        // sampling" comment-contract in the engine).
        for op in Op::ALL {
            let unit = op.functional_unit();
            assert_eq!(
                SiteClass::FloatArith.matches(op),
                FP32_ARITH_UNITS.contains(&unit) || FP64_ARITH_UNITS.contains(&unit),
                "FloatArith vs unit groups diverge on {op:?}"
            );
            assert_eq!(
                SiteClass::HalfArith.matches(op),
                HALF_ARITH_UNITS.contains(&unit),
                "HalfArith vs unit groups diverge on {op:?}"
            );
            assert_eq!(
                SiteClass::IntArith.matches(op),
                INT_ARITH_UNITS.contains(&unit),
                "IntArith vs unit groups diverge on {op:?}"
            );
        }
    }

    #[test]
    fn site_class_set_equals_matches() {
        for op in Op::ALL {
            let meta = InstrMeta::new(&Instr::new(op));
            for class in [
                SiteClass::GprWriter,
                SiteClass::GprWriterNoHalf,
                SiteClass::FloatArith,
                SiteClass::HalfArith,
                SiteClass::IntArith,
                SiteClass::Load,
                SiteClass::Unit(FunctionalUnit::Ffma),
                SiteClass::Unit(FunctionalUnit::Ldst),
                SiteClass::Unit(FunctionalUnit::Other),
            ] {
                assert_eq!(
                    meta.in_class(class),
                    class.matches(op),
                    "in_class vs matches diverge on {op:?} / {class:?}"
                );
            }
        }
    }

    #[test]
    fn decoded_kernel_is_pc_indexed() {
        let mut b = crate::KernelBuilder::new("decode-test");
        let r0 = Reg(0);
        b.iadd(r0, crate::Operand::Reg(Reg::RZ), crate::Operand::Imm(1));
        b.exit();
        let k = b.build().expect("valid kernel");
        let d = DecodedKernel::new(&k);
        assert_eq!(d.len(), k.instrs.len());
        assert!(!d.is_empty());
        assert_eq!(d.meta(0).op, Op::Iadd);
        assert_eq!(d.meta(0).mix_index as usize, Mix::Int.index());
        assert_eq!(d.written_regs(0), &[r0]);
        assert!(d.observed_reads(0).is_empty()); // RZ and an immediate
        assert_eq!(d.meta(1).op, Op::Exit);
        assert!(d.meta(1).has_no_dst);
    }

    /// A kernel's liveness, per pc: the masks on entry to it and after
    /// it, and the live-register sets.
    struct Masks {
        before: Vec<Vec<u32>>,
        after: Vec<Vec<u32>>,
        sets: Vec<[u32; 8]>,
    }

    impl Masks {
        fn live_in(&self, pc: usize, r: Reg) -> u32 {
            self.before[pc].get(r.0 as usize).copied().unwrap_or(0)
        }

        fn live_out(&self, pc: usize, r: Reg) -> u32 {
            self.after[pc].get(r.0 as usize).copied().unwrap_or(0)
        }

        fn live_regs(&self, pc: usize) -> [u32; 8] {
            self.sets[pc]
        }
    }

    fn liveness_of(f: impl FnOnce(&mut crate::KernelBuilder)) -> Masks {
        let mut b = crate::KernelBuilder::new("live");
        f(&mut b);
        let k = b.build().expect("valid kernel");
        let decoded = DecodedKernel::new(&k);
        let lv = RegLiveness::new(&k, &decoded);
        let n = k.instrs.len();
        let mut m =
            Masks { before: vec![Vec::new(); n], after: vec![Vec::new(); n], sets: lv.live_regs() };
        lv.sweep(|pc, after, before| {
            m.after[pc] = after.to_vec();
            m.before[pc] = before.to_vec();
        });
        m
    }

    fn reg(r: u8) -> crate::Operand {
        crate::Operand::Reg(Reg(r))
    }

    #[test]
    fn unguarded_overwrite_kills() {
        let lv = liveness_of(|b| {
            b.iadd(Reg(1), reg(0), reg(0)); // 0: reads R0
            b.mov(Reg(0), crate::Operand::Imm(5)); // 1: unguarded overwrite
            b.stg(MemWidth::W32, Reg(2), 0, Reg(0)); // 2
            b.exit();
        });
        assert_eq!(lv.live_in(0, Reg(0)), OBS_FULL);
        assert_eq!(lv.live_in(1, Reg(0)), 0, "the MOV overwrites R0 before any read");
        assert_eq!(lv.live_out(0, Reg(0)), 0);
        assert_eq!(lv.live_in(2, Reg(0)), OBS_FULL);
        assert_eq!(lv.live_in(0, Reg(1)), 0, "R1 is never read");
        assert_eq!(lv.live_regs(1), [0b100, 0, 0, 0, 0, 0, 0, 0], "only R2 is live at 1");
    }

    #[test]
    fn guarded_mma_and_shfl_writes_do_not_kill() {
        let lv = liveness_of(|b| {
            b.if_p(crate::Pred(0));
            b.mov(Reg(0), crate::Operand::Imm(5)); // 0: guarded
            b.shfl(crate::ShflMode::Idx, Reg(0), Reg(1), crate::Operand::Imm(0)); // 1
            b.stg(MemWidth::W32, Reg(2), 0, Reg(0)); // 2
            b.exit();
        });
        assert_eq!(lv.live_in(0, Reg(0)), OBS_FULL, "a guarded write may leave R0");
        assert_eq!(lv.live_in(1, Reg(0)), OBS_FULL, "a SHFL write does not kill");
        // An MMA writes the accumulator fragment it reads, so its not
        // killing shows only in the metadata the fixpoint consults.
        for op in [Op::Hmma, Op::Fmma] {
            assert!(!InstrMeta::new(&Instr::new(op)).def_kills, "{op:?} kills");
        }
    }

    #[test]
    fn mma_fragments_and_shfl_source_are_live() {
        let lv = liveness_of(|b| {
            b.shfl(crate::ShflMode::Bfly, Reg(20), Reg(21), reg(22)); // 0
            b.fmma(Reg(0), Reg(4), Reg(8)); // 1: A R0..3, B R4..7, C R8..15
            b.exit();
        });
        for r in [21, 22] {
            assert_eq!(lv.live_in(0, Reg(r)), OBS_FULL, "SHFL reads R{r}");
        }
        for r in 0..16 {
            assert_eq!(lv.live_in(1, Reg(r)), OBS_FULL, "FMMA reads R{r}");
        }
        assert_eq!(lv.live_in(1, Reg(16)), 0);
        assert_eq!(lv.live_in(0, Reg(20)), 0, "the SHFL result is never read");
    }

    #[test]
    fn nothing_is_live_after_an_unguarded_exit() {
        let lv = liveness_of(|b| {
            b.isetp(crate::Pred(0), CmpOp::Lt, reg(0), crate::Operand::Imm(4)); // 0
            b.if_p(crate::Pred(0));
            b.exit(); // 1: guarded, falls through
            b.exit(); // 2
            b.stg(MemWidth::W32, Reg(2), 0, Reg(3)); // 3: unreachable
            b.exit();
        });
        assert_eq!(lv.live_regs(2), [0; 8]);
        assert_eq!(lv.live_regs(1), [0; 8], "the guarded EXIT falls through to the EXIT");
        assert_eq!(lv.live_in(0, Reg(0)), OBS_FULL);
        assert_eq!(lv.live_in(3, Reg(3)), OBS_FULL, "the store itself reads R3");
    }

    #[test]
    fn branches_carry_liveness_from_both_successors() {
        let lv = liveness_of(|b| {
            b.label("top");
            b.hadd(Reg(1), reg(5), reg(5)); // 0: half read of R5
            b.if_p(crate::Pred(0));
            b.bra("top"); // 1: guarded back edge
            b.shl(Reg(3), reg(6), reg(7)); // 2: shift count R7
            b.stg(MemWidth::W32, Reg(2), 0, Reg(3)); // 3
            b.exit();
        });
        assert_eq!(lv.live_out(1, Reg(5)), OBS_HALF, "the back edge reaches the HADD");
        assert_eq!(lv.live_out(1, Reg(7)), OBS_SHIFT_COUNT, "the fall-through reaches the SHL");
        assert_eq!(lv.live_in(0, Reg(7)), OBS_SHIFT_COUNT, "around the loop");
    }
}
