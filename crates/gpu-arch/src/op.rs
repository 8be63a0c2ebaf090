//! The instruction set: opcodes and their classification.

use std::fmt;

/// Comparison operator for `SETP`-family instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Equal.
    Eq,
    /// Not equal (for FP: also true when unordered, matching `setp.neu`).
    Ne,
}

impl CmpOp {
    /// Apply to an ordered pair (already-compared via `partial_cmp`).
    pub fn eval_ord(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
        }
    }

    /// Mnemonic suffix (`.LT` etc.).
    pub fn suffix(self) -> &'static str {
        match self {
            CmpOp::Lt => "LT",
            CmpOp::Le => "LE",
            CmpOp::Gt => "GT",
            CmpOp::Ge => "GE",
            CmpOp::Eq => "EQ",
            CmpOp::Ne => "NE",
        }
    }
}

/// Width of a memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 16-bit (binary16 elements; zero-extended on load).
    W16,
    /// 32-bit word.
    W32,
    /// 64-bit (register pair).
    W64,
}

impl MemWidth {
    /// Access size in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::W16 => 2,
            MemWidth::W32 => 4,
            MemWidth::W64 => 8,
        }
    }
}

/// What a memory op does to memory ([`Op::mem`]): the ISA's one
/// memory-access model, which the simulator, the decoded read model, the
/// static oracle, the value-flow taint and the lints all read instead of
/// matching opcodes.
///
/// The operand roles are the same for every memory op. The address is
/// the base register `srcs[0]` plus the immediate byte offset `srcs[1]`;
/// validation rejects a register in the offset slot
/// ([`crate::KernelError::RegisterOffset`]). A store or an atomic sends
/// `srcs[2]` to memory, a register pair for a 64-bit store
/// ([`crate::Instr::stored_regs`]). A load or an atomic writes the old
/// contents to `dst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MemOp {
    /// The global space; the block's shared memory otherwise.
    pub global: bool,
    /// Reads memory into `dst` (loads and atomics).
    pub loads: bool,
    /// Writes memory (stores and atomics).
    pub stores: bool,
    /// Access width in bytes.
    pub bytes: u32,
}

/// Warp shuffle mode (`SHFL`): how each lane picks its source lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShflMode {
    /// Read from an absolute lane index.
    Idx,
    /// Read from `lane - delta` (clamped at 0).
    Up,
    /// Read from `lane + delta` (clamped at 31).
    Down,
    /// Read from `lane ^ mask`.
    Bfly,
}

impl ShflMode {
    /// Mnemonic suffix.
    pub fn suffix(self) -> &'static str {
        match self {
            ShflMode::Idx => "IDX",
            ShflMode::Up => "UP",
            ShflMode::Down => "DOWN",
            ShflMode::Bfly => "BFLY",
        }
    }
}

/// Special (read-only) hardware registers exposed via `S2R`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpecialReg {
    /// Thread index within the block, x dimension.
    TidX,
    /// Thread index within the block, y dimension.
    TidY,
    /// Block index within the grid, x dimension.
    CtaidX,
    /// Block index within the grid, y dimension.
    CtaidY,
    /// Block dimension, x.
    NtidX,
    /// Block dimension, y.
    NtidY,
    /// Grid dimension, x.
    NctaidX,
    /// Grid dimension, y.
    NctaidY,
    /// Lane index within the warp (0..31).
    LaneId,
    /// Warp index within the block.
    WarpId,
}

/// The instruction set.
///
/// Conventions (see crate docs): binary16 values occupy the low 16 bits of
/// a register; binary64 values occupy aligned even/odd pairs anchored at
/// the named register.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    // --- FP32 ---
    /// `dst = a + b` (binary32).
    Fadd,
    /// `dst = a * b` (binary32).
    Fmul,
    /// `dst = a * b + c` fused (binary32).
    Ffma,
    /// `dst = min(a, b)` (binary32, NaN-propagating like `FMNMX`).
    Fmin,
    /// `dst = max(a, b)` (binary32).
    Fmax,
    /// `pdst = a <op> b` (binary32 compare; unordered yields false except NE).
    Fsetp(CmpOp),
    /// `dst = (i32)a` truncating convert (binary32 -> s32).
    F2i,
    /// `dst = (f32)a` convert (s32 -> binary32).
    I2f,
    /// `dst:dst+1 = (f64)a` widen (binary32 -> binary64).
    F2d,
    /// `dst = (f32)(a:a+1)` narrow with RNE (binary64 -> binary32).
    D2f,
    /// `dst.lo16 = (f16)a` narrow with RNE (binary32 -> binary16).
    F2h,
    /// `dst = (f32)a.lo16` widen (binary16 -> binary32).
    H2f,
    /// `dst = 1/a` SFU reciprocal approximation (binary32).
    Frcp,
    /// `dst = sqrt(a)` SFU square root (binary32).
    Fsqrt,
    /// `dst = 1/a` (binary64, software-expanded on real GPUs).
    Drcp,
    /// `dst = sqrt(a)` (binary64).
    Dsqrt,
    // --- FP64 (register pairs) ---
    /// `dst = a + b` (binary64).
    Dadd,
    /// `dst = a * b` (binary64).
    Dmul,
    /// `dst = a * b + c` fused (binary64).
    Dfma,
    /// `pdst = a <op> b` (binary64 compare).
    Dsetp(CmpOp),
    // --- FP16 (low 16 bits of a register) ---
    /// `dst = a + b` (binary16).
    Hadd,
    /// `dst = a * b` (binary16).
    Hmul,
    /// `dst = a * b + c` fused, single rounding (binary16).
    Hfma,
    /// `pdst = a <op> b` (binary16 compare).
    Hsetp(CmpOp),
    // --- INT32 ---
    /// `dst = a + b` (wrapping s32).
    Iadd,
    /// `dst = a * b` (wrapping s32, low 32 bits).
    Imul,
    /// `dst = a * b + c` (wrapping s32).
    Imad,
    /// `pdst = a <op> b` (signed compare).
    Isetp(CmpOp),
    /// `dst = min(a, b)` signed.
    Imin,
    /// `dst = max(a, b)` signed.
    Imax,
    /// `dst = a << (b & 31)`.
    Shl,
    /// `dst = a >> (b & 31)` logical.
    Shr,
    /// `dst = a >> (b & 31)` arithmetic.
    Asr,
    /// `dst = a & b`.
    And,
    /// `dst = a | b`.
    Or,
    /// `dst = a ^ b`.
    Xor,
    /// `dst = !a`.
    Not,
    // --- Data movement / select ---
    /// `dst = a` (register or immediate).
    Mov,
    /// `dst = psrc ? a : b` (predicate-driven select).
    Sel,
    /// `dst = special register`.
    S2r(SpecialReg),
    /// `dst = kernel parameter word[imm]` (constant-bank read).
    Ldp,
    // --- Memory ---
    /// Global load: `dst = [a + b]` (operand roles: [`MemOp`]).
    Ldg(MemWidth),
    /// Global store: `[a + b] = c`.
    Stg(MemWidth),
    /// Shared-memory load.
    Lds(MemWidth),
    /// Shared-memory store.
    Sts(MemWidth),
    // --- Tensor core (warp-wide; Volta only) ---
    /// Warp-synchronous shuffle: `dst = srcs[0] of the lane selected by
    /// (mode, srcs[1])`. All lanes of the warp must reach it together.
    Shfl(ShflMode),
    /// Atomic add in global memory: `dst = old [a + off]; [a + off] += c`
    /// (32-bit, wrapping).
    AtomGAdd,
    /// Atomic add in shared memory.
    AtomSAdd,
    /// Warp-synchronous 16x16x16 MMA with binary16 inputs and binary16
    /// accumulate: `D = A*B + C`. Operands name the fragment base registers.
    Hmma,
    /// As [`Op::Hmma`] but with binary32 accumulate (the "FP32 cast" FMMA
    /// path of the paper).
    Fmma,
    // --- Control ---
    /// Branch to `target` (subject to the guard).
    Bra,
    /// Block-wide barrier (`__syncthreads`).
    Bar,
    /// Thread exit.
    Exit,
    /// No operation.
    Nop,
}

/// Functional-unit kinds measured by the micro-benchmarks of Figure 3.
///
/// A strike corrupts an in-flight instruction executing on one of these
/// units; the beam engine assigns each unit kind its own cross-section.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FunctionalUnit {
    /// FP32 add pipe.
    Fadd,
    /// FP32 multiply pipe.
    Fmul,
    /// FP32 fused multiply-add pipe.
    Ffma,
    /// FP64 add pipe.
    Dadd,
    /// FP64 multiply pipe.
    Dmul,
    /// FP64 FMA pipe.
    Dfma,
    /// FP16 add pipe.
    Hadd,
    /// FP16 multiply pipe.
    Hmul,
    /// FP16 FMA pipe.
    Hfma,
    /// INT32 add pipe.
    Iadd,
    /// INT32 multiply pipe.
    Imul,
    /// INT32 multiply-add pipe.
    Imad,
    /// Tensor core, binary16 accumulate.
    Hmma,
    /// Tensor core, binary32 accumulate.
    Fmma,
    /// Load/store unit (address path).
    Ldst,
    /// Everything else (control, conversion, predicate logic...). Not
    /// measured by the paper's micro-benchmarks; its contribution is what
    /// the prediction model structurally misses.
    Other,
}

impl FunctionalUnit {
    /// Number of distinct unit kinds (for dense count arrays).
    pub const COUNT: usize = 16;

    /// Static display name (also usable as a metric/trace label).
    pub fn name(self) -> &'static str {
        match self {
            FunctionalUnit::Fadd => "FADD",
            FunctionalUnit::Fmul => "FMUL",
            FunctionalUnit::Ffma => "FFMA",
            FunctionalUnit::Dadd => "DADD",
            FunctionalUnit::Dmul => "DMUL",
            FunctionalUnit::Dfma => "DFMA",
            FunctionalUnit::Hadd => "HADD",
            FunctionalUnit::Hmul => "HMUL",
            FunctionalUnit::Hfma => "HFMA",
            FunctionalUnit::Iadd => "IADD",
            FunctionalUnit::Imul => "IMUL",
            FunctionalUnit::Imad => "IMAD",
            FunctionalUnit::Hmma => "HMMA",
            FunctionalUnit::Fmma => "FMMA",
            FunctionalUnit::Ldst => "LDST",
            FunctionalUnit::Other => "OTHER",
        }
    }

    /// Inverse of [`FunctionalUnit::name`]: parse a spec-file unit token
    /// ("FADD", "HMMA", ...; case-insensitive).
    pub fn from_name(name: &str) -> Option<FunctionalUnit> {
        let upper = name.to_ascii_uppercase();
        (0..FunctionalUnit::COUNT).map(FunctionalUnit::from_index).find(|u| u.name() == upper)
    }

    /// Dense index in `0..COUNT` for array-backed counters.
    pub fn index(self) -> usize {
        match self {
            FunctionalUnit::Fadd => 0,
            FunctionalUnit::Fmul => 1,
            FunctionalUnit::Ffma => 2,
            FunctionalUnit::Dadd => 3,
            FunctionalUnit::Dmul => 4,
            FunctionalUnit::Dfma => 5,
            FunctionalUnit::Hadd => 6,
            FunctionalUnit::Hmul => 7,
            FunctionalUnit::Hfma => 8,
            FunctionalUnit::Iadd => 9,
            FunctionalUnit::Imul => 10,
            FunctionalUnit::Imad => 11,
            FunctionalUnit::Hmma => 12,
            FunctionalUnit::Fmma => 13,
            FunctionalUnit::Ldst => 14,
            FunctionalUnit::Other => 15,
        }
    }

    /// Inverse of [`FunctionalUnit::index`].
    pub fn from_index(i: usize) -> FunctionalUnit {
        const ALL: [FunctionalUnit; FunctionalUnit::COUNT] = [
            FunctionalUnit::Fadd,
            FunctionalUnit::Fmul,
            FunctionalUnit::Ffma,
            FunctionalUnit::Dadd,
            FunctionalUnit::Dmul,
            FunctionalUnit::Dfma,
            FunctionalUnit::Hadd,
            FunctionalUnit::Hmul,
            FunctionalUnit::Hfma,
            FunctionalUnit::Iadd,
            FunctionalUnit::Imul,
            FunctionalUnit::Imad,
            FunctionalUnit::Hmma,
            FunctionalUnit::Fmma,
            FunctionalUnit::Ldst,
            FunctionalUnit::Other,
        ];
        ALL[i]
    }

    /// All unit kinds that the paper measures with micro-benchmarks (i.e.
    /// all except [`FunctionalUnit::Other`]).
    pub const MEASURED: [FunctionalUnit; 15] = [
        FunctionalUnit::Fadd,
        FunctionalUnit::Fmul,
        FunctionalUnit::Ffma,
        FunctionalUnit::Dadd,
        FunctionalUnit::Dmul,
        FunctionalUnit::Dfma,
        FunctionalUnit::Hadd,
        FunctionalUnit::Hmul,
        FunctionalUnit::Hfma,
        FunctionalUnit::Iadd,
        FunctionalUnit::Imul,
        FunctionalUnit::Imad,
        FunctionalUnit::Hmma,
        FunctionalUnit::Fmma,
        FunctionalUnit::Ldst,
    ];
}

impl fmt::Display for FunctionalUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The coarse instruction-mix categories of Figure 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MixCategory {
    /// Fused multiply-add of any FP precision.
    Fma,
    /// FP multiply of any precision.
    Mul,
    /// FP add of any precision.
    Add,
    /// Integer arithmetic.
    Int,
    /// Tensor-core MMA.
    Mma,
    /// Loads and stores.
    Ldst,
    /// "OTHERS": branches, conversions, predicates, barriers, NOP...
    Others,
}

impl MixCategory {
    /// Number of categories.
    pub const COUNT: usize = 7;

    /// Dense index in `0..COUNT` (Figure 1 display order).
    pub fn index(self) -> usize {
        match self {
            MixCategory::Fma => 0,
            MixCategory::Mul => 1,
            MixCategory::Add => 2,
            MixCategory::Int => 3,
            MixCategory::Mma => 4,
            MixCategory::Ldst => 5,
            MixCategory::Others => 6,
        }
    }

    /// Display order used by Figure 1.
    pub const ALL: [MixCategory; 7] = [
        MixCategory::Fma,
        MixCategory::Mul,
        MixCategory::Add,
        MixCategory::Int,
        MixCategory::Mma,
        MixCategory::Ldst,
        MixCategory::Others,
    ];
}

impl fmt::Display for MixCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            MixCategory::Fma => "FMA",
            MixCategory::Mul => "MUL",
            MixCategory::Add => "ADD",
            MixCategory::Int => "INT",
            MixCategory::Mma => "MMA",
            MixCategory::Ldst => "LDST",
            MixCategory::Others => "OTHERS",
        };
        write!(f, "{name}")
    }
}

impl Op {
    /// One representative of every opcode, with parameterized variants
    /// appearing once per parameter value that can change classification
    /// (every `MemWidth` — a 64-bit load writes a register pair — and
    /// every `ShflMode`; `CmpOp` and `SpecialReg` never do, so one each).
    /// Exhaustiveness checks over the classification tables
    /// ([`crate::decode`]) iterate this instead of hand-maintaining
    /// per-test lists; extend it when adding an opcode.
    pub const ALL: [Op; 65] = [
        Op::Fadd,
        Op::Fmul,
        Op::Ffma,
        Op::Fmin,
        Op::Fmax,
        Op::Fsetp(CmpOp::Lt),
        Op::F2i,
        Op::I2f,
        Op::F2d,
        Op::D2f,
        Op::F2h,
        Op::H2f,
        Op::Frcp,
        Op::Fsqrt,
        Op::Drcp,
        Op::Dsqrt,
        Op::Dadd,
        Op::Dmul,
        Op::Dfma,
        Op::Dsetp(CmpOp::Ge),
        Op::Hadd,
        Op::Hmul,
        Op::Hfma,
        Op::Hsetp(CmpOp::Eq),
        Op::Iadd,
        Op::Imul,
        Op::Imad,
        Op::Isetp(CmpOp::Ne),
        Op::Imin,
        Op::Imax,
        Op::Shl,
        Op::Shr,
        Op::Asr,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Not,
        Op::Mov,
        Op::Sel,
        Op::S2r(SpecialReg::TidX),
        Op::Ldp,
        Op::Ldg(MemWidth::W16),
        Op::Ldg(MemWidth::W32),
        Op::Ldg(MemWidth::W64),
        Op::Stg(MemWidth::W16),
        Op::Stg(MemWidth::W32),
        Op::Stg(MemWidth::W64),
        Op::Lds(MemWidth::W16),
        Op::Lds(MemWidth::W32),
        Op::Lds(MemWidth::W64),
        Op::Sts(MemWidth::W16),
        Op::Sts(MemWidth::W32),
        Op::Sts(MemWidth::W64),
        Op::Shfl(ShflMode::Idx),
        Op::Shfl(ShflMode::Up),
        Op::Shfl(ShflMode::Down),
        Op::Shfl(ShflMode::Bfly),
        Op::AtomGAdd,
        Op::AtomSAdd,
        Op::Hmma,
        Op::Fmma,
        Op::Bra,
        Op::Bar,
        Op::Exit,
        Op::Nop,
    ];

    /// The functional unit that executes this op (Figure 3 granularity).
    pub fn functional_unit(self) -> FunctionalUnit {
        match self {
            Op::Fadd | Op::Fmin | Op::Fmax => FunctionalUnit::Fadd,
            Op::Fmul => FunctionalUnit::Fmul,
            Op::Ffma => FunctionalUnit::Ffma,
            Op::Dadd => FunctionalUnit::Dadd,
            Op::Dmul => FunctionalUnit::Dmul,
            Op::Dfma => FunctionalUnit::Dfma,
            Op::Hadd => FunctionalUnit::Hadd,
            Op::Hmul => FunctionalUnit::Hmul,
            Op::Hfma => FunctionalUnit::Hfma,
            Op::Iadd
            | Op::Imin
            | Op::Imax
            | Op::Shl
            | Op::Shr
            | Op::Asr
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Not => FunctionalUnit::Iadd,
            Op::Imul => FunctionalUnit::Imul,
            Op::Imad => FunctionalUnit::Imad,
            Op::Hmma => FunctionalUnit::Hmma,
            Op::Fmma => FunctionalUnit::Fmma,
            op if op.mem().is_some() => FunctionalUnit::Ldst,
            _ => FunctionalUnit::Other,
        }
    }

    /// The Figure 1 instruction-mix category.
    pub fn mix_category(self) -> MixCategory {
        match self {
            Op::Ffma | Op::Dfma | Op::Hfma => MixCategory::Fma,
            Op::Fmul | Op::Dmul | Op::Hmul => MixCategory::Mul,
            Op::Fadd | Op::Dadd | Op::Hadd | Op::Fmin | Op::Fmax => MixCategory::Add,
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
            | Op::Not => MixCategory::Int,
            Op::Hmma | Op::Fmma => MixCategory::Mma,
            op if op.mem().is_some() => MixCategory::Ldst,
            _ => MixCategory::Others,
        }
    }

    /// The op's memory access, `None` for an op that touches no memory.
    pub fn mem(self) -> Option<MemOp> {
        let (global, loads, stores, bytes) = match self {
            Op::Ldg(w) => (true, true, false, w.bytes()),
            Op::Stg(w) => (true, false, true, w.bytes()),
            Op::Lds(w) => (false, true, false, w.bytes()),
            Op::Sts(w) => (false, false, true, w.bytes()),
            Op::AtomGAdd => (true, true, true, 4),
            Op::AtomSAdd => (false, true, true, 4),
            _ => return None,
        };
        Some(MemOp { global, loads, stores, bytes })
    }

    /// True for ops whose destination is an aligned 64-bit register pair.
    pub fn writes_pair(self) -> bool {
        matches!(self, Op::Dadd | Op::Dmul | Op::Dfma | Op::F2d | Op::Drcp | Op::Dsqrt)
            || self.mem().is_some_and(|m| m.loads && m.bytes == 8)
    }

    /// True for ops that read each register source as an aligned 64-bit
    /// register pair.
    pub fn reads_pairs(self) -> bool {
        matches!(
            self,
            Op::Dadd | Op::Dmul | Op::Dfma | Op::Dsetp(_) | Op::D2f | Op::Drcp | Op::Dsqrt
        )
    }

    /// True for ops that write a predicate instead of a GPR.
    pub fn writes_pred(self) -> bool {
        matches!(self, Op::Fsetp(_) | Op::Dsetp(_) | Op::Hsetp(_) | Op::Isetp(_))
    }

    /// True for control-flow / no-destination ops.
    pub fn has_no_dst(self) -> bool {
        matches!(self, Op::Bra | Op::Bar | Op::Exit | Op::Nop)
            || self.mem().is_some_and(|m| !m.loads)
    }

    /// True for the warp-synchronous tensor ops.
    pub fn is_mma(self) -> bool {
        matches!(self, Op::Hmma | Op::Fmma)
    }

    /// True for ops that require every lane of the warp to arrive
    /// together (tensor MMA and warp shuffles).
    pub fn is_warp_sync(self) -> bool {
        self.is_mma() || matches!(self, Op::Shfl(_))
    }

    /// Issue latency class in cycles, used by the analytic timing model.
    /// Values follow published instruction-latency microbenchmarks for
    /// Kepler/Volta-class parts (4-6 cycles ALU, ~9 FP64 on Volta, hundreds
    /// for global memory).
    pub fn latency(self) -> u32 {
        match self {
            Op::Fadd | Op::Fmul | Op::Ffma | Op::Fmin | Op::Fmax => 6,
            Op::Hadd | Op::Hmul | Op::Hfma => 6,
            Op::Dadd | Op::Dmul | Op::Dfma => 10,
            Op::Iadd
            | Op::Imin
            | Op::Imax
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Not
            | Op::Shl
            | Op::Shr
            | Op::Asr => 6,
            Op::Imul | Op::Imad => 6,
            Op::Fsetp(_) | Op::Dsetp(_) | Op::Hsetp(_) | Op::Isetp(_) => 6,
            Op::F2i | Op::I2f | Op::F2d | Op::D2f | Op::F2h | Op::H2f => 8,
            Op::Frcp | Op::Fsqrt => 20,
            Op::Drcp | Op::Dsqrt => 40,
            Op::Mov | Op::Sel | Op::S2r(_) | Op::Ldp => 4,
            Op::Ldg(_) | Op::Stg(_) => 160,
            Op::Lds(_) | Op::Sts(_) => 25,
            Op::AtomGAdd => 200,
            Op::AtomSAdd => 40,
            Op::Shfl(_) => 8,
            Op::Hmma | Op::Fmma => 16,
            Op::Bra | Op::Bar | Op::Exit | Op::Nop => 4,
        }
    }

    /// Base mnemonic without parameter suffixes — a `&'static str`, so
    /// trace events can carry it without allocating.
    pub fn base_name(self) -> &'static str {
        match self {
            Op::Fadd => "FADD",
            Op::Fmul => "FMUL",
            Op::Ffma => "FFMA",
            Op::Fmin => "FMIN",
            Op::Fmax => "FMAX",
            Op::Fsetp(_) => "FSETP",
            Op::F2i => "F2I",
            Op::I2f => "I2F",
            Op::F2d => "F2D",
            Op::D2f => "D2F",
            Op::F2h => "F2H",
            Op::H2f => "H2F",
            Op::Frcp => "FRCP",
            Op::Fsqrt => "FSQRT",
            Op::Drcp => "DRCP",
            Op::Dsqrt => "DSQRT",
            Op::Dadd => "DADD",
            Op::Dmul => "DMUL",
            Op::Dfma => "DFMA",
            Op::Dsetp(_) => "DSETP",
            Op::Hadd => "HADD",
            Op::Hmul => "HMUL",
            Op::Hfma => "HFMA",
            Op::Hsetp(_) => "HSETP",
            Op::Iadd => "IADD",
            Op::Imul => "IMUL",
            Op::Imad => "IMAD",
            Op::Isetp(_) => "ISETP",
            Op::Imin => "IMIN",
            Op::Imax => "IMAX",
            Op::Shl => "SHL",
            Op::Shr => "SHR",
            Op::Asr => "ASR",
            Op::And => "AND",
            Op::Or => "OR",
            Op::Xor => "XOR",
            Op::Not => "NOT",
            Op::Mov => "MOV",
            Op::Sel => "SEL",
            Op::S2r(_) => "S2R",
            Op::Ldp => "LDP",
            Op::Ldg(_) => "LDG",
            Op::Stg(_) => "STG",
            Op::Lds(_) => "LDS",
            Op::Sts(_) => "STS",
            Op::Shfl(_) => "SHFL",
            Op::AtomGAdd => "ATOMG.ADD",
            Op::AtomSAdd => "ATOMS.ADD",
            Op::Hmma => "HMMA",
            Op::Fmma => "FMMA",
            Op::Bra => "BRA",
            Op::Bar => "BAR.SYNC",
            Op::Exit => "EXIT",
            Op::Nop => "NOP",
        }
    }

    /// The mnemonic used by the assembler/disassembler.
    pub fn mnemonic(self) -> String {
        match self {
            Op::Fadd => "FADD".into(),
            Op::Fmul => "FMUL".into(),
            Op::Ffma => "FFMA".into(),
            Op::Fmin => "FMIN".into(),
            Op::Fmax => "FMAX".into(),
            Op::Fsetp(c) => format!("FSETP.{}", c.suffix()),
            Op::F2i => "F2I".into(),
            Op::I2f => "I2F".into(),
            Op::F2d => "F2D".into(),
            Op::D2f => "D2F".into(),
            Op::F2h => "F2H".into(),
            Op::H2f => "H2F".into(),
            Op::Frcp => "FRCP".into(),
            Op::Fsqrt => "FSQRT".into(),
            Op::Drcp => "DRCP".into(),
            Op::Dsqrt => "DSQRT".into(),
            Op::Dadd => "DADD".into(),
            Op::Dmul => "DMUL".into(),
            Op::Dfma => "DFMA".into(),
            Op::Dsetp(c) => format!("DSETP.{}", c.suffix()),
            Op::Hadd => "HADD".into(),
            Op::Hmul => "HMUL".into(),
            Op::Hfma => "HFMA".into(),
            Op::Hsetp(c) => format!("HSETP.{}", c.suffix()),
            Op::Iadd => "IADD".into(),
            Op::Imul => "IMUL".into(),
            Op::Imad => "IMAD".into(),
            Op::Isetp(c) => format!("ISETP.{}", c.suffix()),
            Op::Imin => "IMIN".into(),
            Op::Imax => "IMAX".into(),
            Op::Shl => "SHL".into(),
            Op::Shr => "SHR".into(),
            Op::Asr => "ASR".into(),
            Op::And => "AND".into(),
            Op::Or => "OR".into(),
            Op::Xor => "XOR".into(),
            Op::Not => "NOT".into(),
            Op::Mov => "MOV".into(),
            Op::Sel => "SEL".into(),
            Op::S2r(s) => format!("S2R.{s:?}"),
            Op::Ldp => "LDP".into(),
            Op::Ldg(w) => format!("LDG.{}", w.bytes() * 8),
            Op::Stg(w) => format!("STG.{}", w.bytes() * 8),
            Op::Lds(w) => format!("LDS.{}", w.bytes() * 8),
            Op::Sts(w) => format!("STS.{}", w.bytes() * 8),
            Op::Shfl(m) => format!("SHFL.{}", m.suffix()),
            Op::AtomGAdd => "ATOMG.ADD".into(),
            Op::AtomSAdd => "ATOMS.ADD".into(),
            Op::Hmma => "HMMA.16816".into(),
            Op::Fmma => "FMMA.16816".into(),
            Op::Bra => "BRA".into(),
            Op::Bar => "BAR.SYNC".into(),
            Op::Exit => "EXIT".into(),
            Op::Nop => "NOP".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn cmp_op_truth_table() {
        assert!(CmpOp::Lt.eval_ord(Ordering::Less));
        assert!(!CmpOp::Lt.eval_ord(Ordering::Equal));
        assert!(CmpOp::Le.eval_ord(Ordering::Equal));
        assert!(CmpOp::Gt.eval_ord(Ordering::Greater));
        assert!(CmpOp::Ge.eval_ord(Ordering::Equal));
        assert!(CmpOp::Eq.eval_ord(Ordering::Equal));
        assert!(CmpOp::Ne.eval_ord(Ordering::Less));
        assert!(!CmpOp::Ne.eval_ord(Ordering::Equal));
    }

    #[test]
    fn unit_classification_matches_figure3() {
        assert_eq!(Op::Ffma.functional_unit(), FunctionalUnit::Ffma);
        assert_eq!(Op::Imad.functional_unit(), FunctionalUnit::Imad);
        assert_eq!(Op::Hmma.functional_unit(), FunctionalUnit::Hmma);
        assert_eq!(Op::Ldg(MemWidth::W32).functional_unit(), FunctionalUnit::Ldst);
        assert_eq!(Op::Bra.functional_unit(), FunctionalUnit::Other);
        assert_eq!(Op::Shl.functional_unit(), FunctionalUnit::Iadd);
    }

    #[test]
    fn mix_classification_matches_figure1() {
        assert_eq!(Op::Ffma.mix_category(), MixCategory::Fma);
        assert_eq!(Op::Dmul.mix_category(), MixCategory::Mul);
        assert_eq!(Op::Hadd.mix_category(), MixCategory::Add);
        assert_eq!(Op::Imad.mix_category(), MixCategory::Int);
        assert_eq!(Op::Fmma.mix_category(), MixCategory::Mma);
        assert_eq!(Op::Sts(MemWidth::W32).mix_category(), MixCategory::Ldst);
        assert_eq!(Op::Bar.mix_category(), MixCategory::Others);
        assert_eq!(Op::F2h.mix_category(), MixCategory::Others);
    }

    #[test]
    fn pair_writers() {
        assert!(Op::Dfma.writes_pair());
        assert!(Op::Ldg(MemWidth::W64).writes_pair());
        assert!(!Op::Ldg(MemWidth::W32).writes_pair());
        assert!(!Op::Fadd.writes_pair());
    }

    #[test]
    fn pred_writers_and_no_dst() {
        assert!(Op::Isetp(CmpOp::Lt).writes_pred());
        assert!(!Op::Iadd.writes_pred());
        assert!(Op::Stg(MemWidth::W32).has_no_dst());
        assert!(Op::Exit.has_no_dst());
        assert!(!Op::Mov.has_no_dst());
    }

    #[test]
    fn memory_model() {
        let sts64 = MemOp { global: false, loads: false, stores: true, bytes: 8 };
        assert_eq!(Op::Sts(MemWidth::W64).mem(), Some(sts64));
        let atom = MemOp { global: true, loads: true, stores: true, bytes: 4 };
        assert_eq!(Op::AtomGAdd.mem(), Some(atom));
        for op in Op::ALL {
            assert_eq!(op.mem().is_some(), op.functional_unit() == FunctionalUnit::Ldst, "{op:?}");
        }
    }

    #[test]
    fn memory_latency_dominates() {
        assert!(Op::Ldg(MemWidth::W32).latency() > 10 * Op::Fadd.latency());
        assert!(Op::Lds(MemWidth::W32).latency() < Op::Ldg(MemWidth::W32).latency());
    }

    #[test]
    fn mnemonics_roundtrip_basics() {
        assert_eq!(Op::Ffma.mnemonic(), "FFMA");
        assert_eq!(Op::Isetp(CmpOp::Ge).mnemonic(), "ISETP.GE");
        assert_eq!(Op::Ldg(MemWidth::W64).mnemonic(), "LDG.64");
    }
}
