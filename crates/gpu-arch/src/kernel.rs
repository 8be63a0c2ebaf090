//! Kernels, launch geometry, and the kernel builder.

use crate::decode::{mma_fragment_lens, DecodedKernel};
use crate::instr::{Guard, Instr};
use crate::op::{CmpOp, MemWidth, Op, SpecialReg};
use crate::operand::{Operand, Pred, Reg};
use crate::WARP_SIZE;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A 2-D extent (grids and blocks; the paper's workloads never need 3-D).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Dim {
    /// Extent in x.
    pub x: u32,
    /// Extent in y.
    pub y: u32,
}

impl Dim {
    /// 1-D extent.
    pub fn d1(x: u32) -> Dim {
        Dim { x, y: 1 }
    }

    /// 2-D extent.
    pub fn d2(x: u32, y: u32) -> Dim {
        Dim { x, y }
    }

    /// Total element count. Widened to `u64`: `x * y` of two `u32`s can
    /// exceed `u32::MAX` for large grids.
    pub fn count(self) -> u64 {
        u64::from(self.x) * u64::from(self.y)
    }
}

/// Launch geometry plus kernel parameters (the constant bank).
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct LaunchConfig {
    /// Blocks in the grid.
    pub grid: Dim,
    /// Threads per block.
    pub block: Dim,
    /// Kernel parameter words, read with `LDP` (base addresses, sizes...).
    pub params: Vec<u32>,
}

impl LaunchConfig {
    /// A 1-D launch.
    pub fn new(grid_x: u32, block_x: u32, params: Vec<u32>) -> Self {
        LaunchConfig { grid: Dim::d1(grid_x), block: Dim::d1(block_x), params }
    }

    /// A 2-D launch.
    pub fn new_2d(grid: Dim, block: Dim, params: Vec<u32>) -> Self {
        LaunchConfig { grid, block, params }
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.grid.count() * self.block.count()
    }

    /// Warps per block (rounded up).
    pub fn warps_per_block(&self) -> u32 {
        self.block.count().div_ceil(u64::from(WARP_SIZE)) as u32
    }
}

/// Errors detected by [`Kernel::validate`] when a kernel is built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelError {
    /// A branch targets an instruction index outside the kernel.
    BranchOutOfRange {
        /// Index of the branching instruction.
        at: u32,
        /// The out-of-range target.
        target: u32,
    },
    /// A label was referenced but never defined.
    UndefinedLabel(String),
    /// A 64-bit operation (a 64-bit store's value included) names a
    /// misaligned or out-of-range register pair.
    MisalignedPair {
        /// Index of the offending instruction.
        at: u32,
        /// The misaligned register.
        reg: Reg,
    },
    /// The kernel contains no `EXIT`.
    NoExit,
    /// A `SETP` instruction is missing its predicate destination.
    MissingPredDst(u32),
    /// A `SEL` instruction is missing its predicate source.
    MissingPredSrc(u32),
    /// The kernel is empty.
    Empty,
    /// An MMA's A, B or C operand is not a register fragment that fits
    /// below `RZ` (A and B span 4 registers, C spans 4 for `HMMA` and 8
    /// for `FMMA`).
    MalformedMma(u32),
    /// A memory op names a register in its offset slot (`srcs[1]`): the
    /// address is a base register plus an immediate byte offset.
    RegisterOffset(u32),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::BranchOutOfRange { at, target } => {
                write!(f, "instruction {at}: branch target {target} out of range")
            }
            KernelError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            KernelError::MisalignedPair { at, reg } => {
                write!(f, "instruction {at}: {reg} cannot anchor a 64-bit pair")
            }
            KernelError::NoExit => write!(f, "kernel has no EXIT instruction"),
            KernelError::MissingPredDst(at) => {
                write!(f, "instruction {at}: SETP without predicate destination")
            }
            KernelError::MissingPredSrc(at) => {
                write!(f, "instruction {at}: SEL without predicate source")
            }
            KernelError::Empty => write!(f, "kernel is empty"),
            KernelError::MalformedMma(at) => {
                write!(f, "instruction {at}: MMA operands must be register fragments below RZ")
            }
            KernelError::RegisterOffset(at) => {
                write!(f, "instruction {at}: a memory offset must be an immediate")
            }
        }
    }
}

impl std::error::Error for KernelError {}

impl KernelError {
    /// The index of the instruction the error is about; `None` for the
    /// errors about the kernel as a whole.
    pub fn at(&self) -> Option<u32> {
        match *self {
            KernelError::BranchOutOfRange { at, .. }
            | KernelError::MisalignedPair { at, .. }
            | KernelError::MissingPredDst(at)
            | KernelError::MissingPredSrc(at)
            | KernelError::MalformedMma(at)
            | KernelError::RegisterOffset(at) => Some(at),
            KernelError::UndefinedLabel(_) | KernelError::NoExit | KernelError::Empty => None,
        }
    }
}

/// A validated kernel: straight-line SASS-like code with resolved branch
/// targets, plus its static resource footprint and the [`DecodedKernel`]
/// made when it was built, which every run and analysis reads. Equality,
/// hashing and `Debug` read the source fields only.
#[derive(Clone)]
pub struct Kernel {
    /// Kernel name (used in reports and profiles).
    pub name: String,
    instrs: Vec<Instr>,
    /// Registers allocated per thread (drives occupancy and the register-
    /// file strike surface; Table I's "RF" column).
    pub regs_per_thread: u16,
    /// Static shared memory per block in bytes (Table I's "SHARED" column).
    pub shared_bytes: u32,
    /// True when the kernel models a pre-compiled proprietary-library
    /// kernel (cuBLAS GEMM): SASSIFI cannot instrument it on Kepler
    /// (Section III-D).
    pub proprietary: bool,
    decoded: DecodedKernel,
}

impl PartialEq for Kernel {
    fn eq(&self, other: &Kernel) -> bool {
        self.source() == other.source()
    }
}

impl Hash for Kernel {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.source().hash(state);
    }
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("name", &self.name)
            .field("instrs", &self.instrs)
            .field("regs_per_thread", &self.regs_per_thread)
            .field("shared_bytes", &self.shared_bytes)
            .field("proprietary", &self.proprietary)
            .finish()
    }
}

impl Kernel {
    /// Validate `instrs` and decode them: the one constructor, shared by
    /// [`KernelBuilder::build`] and [`crate::asm`]. `regs_per_thread`
    /// starts at one past the highest register the decode reads or
    /// writes.
    pub(crate) fn new(
        name: String,
        instrs: Vec<Instr>,
        shared_bytes: u32,
        proprietary: bool,
    ) -> Result<Kernel, KernelError> {
        validate(&instrs)?;
        let decoded = DecodedKernel::of(&instrs);
        let regs_per_thread = decoded.regs_touched();
        Ok(Kernel { name, instrs, regs_per_thread, shared_bytes, proprietary, decoded })
    }

    /// The fields the kernel was built from.
    fn source(&self) -> (&str, &[Instr], u16, u32, bool) {
        (&self.name, &self.instrs, self.regs_per_thread, self.shared_bytes, self.proprietary)
    }

    /// Check structural invariants (every built kernel passes).
    pub fn validate(&self) -> Result<(), KernelError> {
        validate(&self.instrs)
    }

    /// The instruction stream.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// The decode made when the kernel was built.
    pub fn decoded(&self) -> &DecodedKernel {
        &self.decoded
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True when the kernel has no instructions (never: a kernel is
    /// validated when it is built).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Render the kernel as assembly text (re-parsable by [`crate::asm`]).
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, ".kernel {}", self.name);
        let _ = writeln!(out, ".regs {}", self.regs_per_thread);
        let _ = writeln!(out, ".shared {}", self.shared_bytes);
        for (i, ins) in self.instrs.iter().enumerate() {
            let _ = writeln!(out, "/*{i:04}*/  {ins}");
        }
        out
    }
}

/// Check the structural invariants of an instruction stream.
fn validate(instrs: &[Instr]) -> Result<(), KernelError> {
    if instrs.is_empty() {
        return Err(KernelError::Empty);
    }
    let n = instrs.len() as u32;
    let mut has_exit = false;
    for (idx, ins) in instrs.iter().enumerate() {
        let at = idx as u32;
        if ins.op == Op::Exit {
            has_exit = true;
        }
        if ins.op == Op::Bra {
            match ins.target {
                Some(t) if t < n => {}
                Some(t) => return Err(KernelError::BranchOutOfRange { at, target: t }),
                None => return Err(KernelError::BranchOutOfRange { at, target: u32::MAX }),
            }
        }
        if ins.op.writes_pair() && !ins.dst.is_rz() && !ins.dst.is_pair_aligned() {
            return Err(KernelError::MisalignedPair { at, reg: ins.dst });
        }
        if ins.op.reads_pairs() {
            for s in ins.srcs {
                if let Operand::Reg(r) = s {
                    if !r.is_rz() && !r.is_pair_aligned() {
                        return Err(KernelError::MisalignedPair { at, reg: r });
                    }
                }
            }
        }
        if let [Some(r), Some(_)] = ins.stored_regs() {
            if !r.is_pair_aligned() {
                return Err(KernelError::MisalignedPair { at, reg: r });
            }
        }
        if ins.op.writes_pred() && ins.pdst.is_none() {
            return Err(KernelError::MissingPredDst(at));
        }
        if ins.op == Op::Sel && ins.psrc.is_none() {
            return Err(KernelError::MissingPredSrc(at));
        }
        if ins.op.mem().is_some() && ins.srcs[1].reg().is_some() {
            return Err(KernelError::RegisterOffset(at));
        }
        if ins.op.is_mma() {
            // `r + len` overflows exactly when the fragment reaches RZ.
            let mut frags = ins.srcs.into_iter().zip(mma_fragment_lens(ins.op));
            if !frags.all(|(o, len)| o.reg().is_some_and(|r| r.0.checked_add(len).is_some())) {
                return Err(KernelError::MalformedMma(at));
            }
        }
    }
    if !has_exit {
        return Err(KernelError::NoExit);
    }
    Ok(())
}

/// Incremental kernel construction with label-based control flow.
///
/// ```
/// use gpu_arch::{KernelBuilder, Reg, Pred, CmpOp, Operand};
///
/// let mut b = KernelBuilder::new("axpy");
/// let (idx, x) = (Reg(0), Reg(1));
/// b.s2r_tid_x(idx);
/// b.ldp(x, 0);                       // param 0: base address of x
/// b.shl(Reg(2), idx.into(), Operand::Imm(2));
/// b.iadd(x, x.into(), Reg(2).into());
/// b.exit();
/// let kernel = b.build().unwrap();
/// assert_eq!(kernel.len(), 5);
/// ```
pub struct KernelBuilder {
    name: String,
    instrs: Vec<Instr>,
    labels: HashMap<String, u32>,
    fixups: Vec<(u32, String)>,
    shared_bytes: u32,
    reserved_regs: u16,
    proprietary: bool,
    pending_guard: Option<Guard>,
}

impl KernelBuilder {
    /// Start a new kernel.
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            instrs: Vec::new(),
            labels: HashMap::new(),
            fixups: Vec::new(),
            shared_bytes: 0,
            reserved_regs: 0,
            proprietary: false,
            pending_guard: None,
        }
    }

    /// Declare static shared memory (bytes per block).
    pub fn shared(&mut self, bytes: u32) -> &mut Self {
        self.shared_bytes = bytes;
        self
    }

    /// Declare a per-thread register allocation larger than the registers
    /// actually referenced (models compiler register padding / occupancy
    /// limits; Lava on Volta allocates up to 255).
    pub fn reserve_regs(&mut self, regs: u16) -> &mut Self {
        self.reserved_regs = regs;
        self
    }

    /// Mark the kernel as a proprietary-library kernel (cuBLAS-style):
    /// SASSIFI refuses to instrument it on Kepler.
    pub fn proprietary(&mut self) -> &mut Self {
        self.proprietary = true;
        self
    }

    /// Guard the *next* emitted instruction with `@P`.
    pub fn if_p(&mut self, p: Pred) -> &mut Self {
        self.pending_guard = Some(Guard::when(p));
        self
    }

    /// Guard the *next* emitted instruction with `@!P`.
    pub fn if_not_p(&mut self, p: Pred) -> &mut Self {
        self.pending_guard = Some(Guard::unless(p));
        self
    }

    /// Define a label at the current position.
    pub fn label(&mut self, name: impl Into<String>) -> &mut Self {
        self.labels.insert(name.into(), self.instrs.len() as u32);
        self
    }

    fn push(&mut self, mut ins: Instr) -> &mut Self {
        ins.guard = self.pending_guard.take();
        self.instrs.push(ins);
        self
    }

    fn emit3(&mut self, op: Op, dst: Reg, a: Operand, b: Operand, c: Operand) -> &mut Self {
        let mut ins = Instr::new(op);
        ins.dst = dst;
        ins.srcs = [a, b, c];
        self.push(ins)
    }

    // --- FP32 ---

    /// `dst = a + b` (binary32).
    pub fn fadd(&mut self, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.emit3(Op::Fadd, dst, a, b, Operand::None)
    }

    /// `dst = a * b` (binary32).
    pub fn fmul(&mut self, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.emit3(Op::Fmul, dst, a, b, Operand::None)
    }

    /// `dst = a * b + c` (binary32, fused).
    pub fn ffma(&mut self, dst: Reg, a: Operand, b: Operand, c: Operand) -> &mut Self {
        self.emit3(Op::Ffma, dst, a, b, c)
    }

    /// `dst = min(a, b)` (binary32).
    pub fn fmin(&mut self, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.emit3(Op::Fmin, dst, a, b, Operand::None)
    }

    /// `dst = max(a, b)` (binary32).
    pub fn fmax(&mut self, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.emit3(Op::Fmax, dst, a, b, Operand::None)
    }

    /// `p = a <cmp> b` (binary32).
    pub fn fsetp(&mut self, p: Pred, cmp: CmpOp, a: Operand, b: Operand) -> &mut Self {
        let mut ins = Instr::new(Op::Fsetp(cmp));
        ins.pdst = Some(p);
        ins.srcs = [a, b, Operand::None];
        self.push(ins)
    }

    /// Conversions.
    pub fn f2i(&mut self, dst: Reg, a: Operand) -> &mut Self {
        self.emit3(Op::F2i, dst, a, Operand::None, Operand::None)
    }

    /// `dst = (f32)a` for signed a.
    pub fn i2f(&mut self, dst: Reg, a: Operand) -> &mut Self {
        self.emit3(Op::I2f, dst, a, Operand::None, Operand::None)
    }

    /// `dst_pair = (f64)a`.
    pub fn f2d(&mut self, dst: Reg, a: Operand) -> &mut Self {
        self.emit3(Op::F2d, dst, a, Operand::None, Operand::None)
    }

    /// `dst = (f32)a_pair`.
    pub fn d2f(&mut self, dst: Reg, a: Operand) -> &mut Self {
        self.emit3(Op::D2f, dst, a, Operand::None, Operand::None)
    }

    /// `dst.lo16 = (f16)a`.
    pub fn f2h(&mut self, dst: Reg, a: Operand) -> &mut Self {
        self.emit3(Op::F2h, dst, a, Operand::None, Operand::None)
    }

    /// `dst = (f32)a.lo16`.
    pub fn h2f(&mut self, dst: Reg, a: Operand) -> &mut Self {
        self.emit3(Op::H2f, dst, a, Operand::None, Operand::None)
    }

    /// `dst = 1/a` (binary32, SFU).
    pub fn frcp(&mut self, dst: Reg, a: Operand) -> &mut Self {
        self.emit3(Op::Frcp, dst, a, Operand::None, Operand::None)
    }

    /// `dst = sqrt(a)` (binary32, SFU).
    pub fn fsqrt(&mut self, dst: Reg, a: Operand) -> &mut Self {
        self.emit3(Op::Fsqrt, dst, a, Operand::None, Operand::None)
    }

    /// `dst_pair = 1/a_pair` (binary64).
    pub fn drcp(&mut self, dst: Reg, a: Operand) -> &mut Self {
        self.emit3(Op::Drcp, dst, a, Operand::None, Operand::None)
    }

    /// `dst_pair = sqrt(a_pair)` (binary64).
    pub fn dsqrt(&mut self, dst: Reg, a: Operand) -> &mut Self {
        self.emit3(Op::Dsqrt, dst, a, Operand::None, Operand::None)
    }

    // --- FP64 ---

    /// `dst_pair = a_pair + b_pair` (binary64).
    pub fn dadd(&mut self, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.emit3(Op::Dadd, dst, a, b, Operand::None)
    }

    /// `dst_pair = a_pair * b_pair` (binary64).
    pub fn dmul(&mut self, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.emit3(Op::Dmul, dst, a, b, Operand::None)
    }

    /// `dst_pair = a*b + c` (binary64, fused).
    pub fn dfma(&mut self, dst: Reg, a: Operand, b: Operand, c: Operand) -> &mut Self {
        self.emit3(Op::Dfma, dst, a, b, c)
    }

    /// `p = a <cmp> b` (binary64).
    pub fn dsetp(&mut self, p: Pred, cmp: CmpOp, a: Operand, b: Operand) -> &mut Self {
        let mut ins = Instr::new(Op::Dsetp(cmp));
        ins.pdst = Some(p);
        ins.srcs = [a, b, Operand::None];
        self.push(ins)
    }

    // --- FP16 ---

    /// `dst = a + b` (binary16 in low bits).
    pub fn hadd(&mut self, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.emit3(Op::Hadd, dst, a, b, Operand::None)
    }

    /// `dst = a * b` (binary16).
    pub fn hmul(&mut self, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.emit3(Op::Hmul, dst, a, b, Operand::None)
    }

    /// `dst = a * b + c` (binary16, single rounding).
    pub fn hfma(&mut self, dst: Reg, a: Operand, b: Operand, c: Operand) -> &mut Self {
        self.emit3(Op::Hfma, dst, a, b, c)
    }

    /// `p = a <cmp> b` (binary16).
    pub fn hsetp(&mut self, p: Pred, cmp: CmpOp, a: Operand, b: Operand) -> &mut Self {
        let mut ins = Instr::new(Op::Hsetp(cmp));
        ins.pdst = Some(p);
        ins.srcs = [a, b, Operand::None];
        self.push(ins)
    }

    // --- INT32 ---

    /// `dst = a + b` (wrapping s32).
    pub fn iadd(&mut self, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.emit3(Op::Iadd, dst, a, b, Operand::None)
    }

    /// `dst = a * b` (wrapping s32).
    pub fn imul(&mut self, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.emit3(Op::Imul, dst, a, b, Operand::None)
    }

    /// `dst = a * b + c` (wrapping s32).
    pub fn imad(&mut self, dst: Reg, a: Operand, b: Operand, c: Operand) -> &mut Self {
        self.emit3(Op::Imad, dst, a, b, c)
    }

    /// `p = a <cmp> b` (signed).
    pub fn isetp(&mut self, p: Pred, cmp: CmpOp, a: Operand, b: Operand) -> &mut Self {
        let mut ins = Instr::new(Op::Isetp(cmp));
        ins.pdst = Some(p);
        ins.srcs = [a, b, Operand::None];
        self.push(ins)
    }

    /// `dst = min(a, b)` signed.
    pub fn imin(&mut self, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.emit3(Op::Imin, dst, a, b, Operand::None)
    }

    /// `dst = max(a, b)` signed.
    pub fn imax(&mut self, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.emit3(Op::Imax, dst, a, b, Operand::None)
    }

    /// `dst = a << (b & 31)`.
    pub fn shl(&mut self, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.emit3(Op::Shl, dst, a, b, Operand::None)
    }

    /// `dst = a >> (b & 31)` (logical).
    pub fn shr(&mut self, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.emit3(Op::Shr, dst, a, b, Operand::None)
    }

    /// `dst = a >> (b & 31)` (arithmetic).
    pub fn asr(&mut self, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.emit3(Op::Asr, dst, a, b, Operand::None)
    }

    /// `dst = a & b`.
    pub fn and(&mut self, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.emit3(Op::And, dst, a, b, Operand::None)
    }

    /// `dst = a | b`.
    pub fn or(&mut self, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.emit3(Op::Or, dst, a, b, Operand::None)
    }

    /// `dst = a ^ b`.
    pub fn xor(&mut self, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.emit3(Op::Xor, dst, a, b, Operand::None)
    }

    /// `dst = !a`.
    pub fn not(&mut self, dst: Reg, a: Operand) -> &mut Self {
        self.emit3(Op::Not, dst, a, Operand::None, Operand::None)
    }

    // --- Moves / specials ---

    /// `dst = a`.
    pub fn mov(&mut self, dst: Reg, a: Operand) -> &mut Self {
        self.emit3(Op::Mov, dst, a, Operand::None, Operand::None)
    }

    /// `dst = p ? a : b`.
    pub fn sel(&mut self, dst: Reg, a: Operand, b: Operand, p: Pred, negated: bool) -> &mut Self {
        let mut ins = Instr::new(Op::Sel);
        ins.dst = dst;
        ins.srcs = [a, b, Operand::None];
        ins.psrc = Some((p, negated));
        self.push(ins)
    }

    /// `dst = special`.
    pub fn s2r(&mut self, dst: Reg, sr: SpecialReg) -> &mut Self {
        self.emit3(Op::S2r(sr), dst, Operand::None, Operand::None, Operand::None)
    }

    /// `dst = threadIdx.x` shorthand.
    pub fn s2r_tid_x(&mut self, dst: Reg) -> &mut Self {
        self.s2r(dst, SpecialReg::TidX)
    }

    /// `dst = param[word_index]` (constant bank).
    pub fn ldp(&mut self, dst: Reg, word_index: u32) -> &mut Self {
        self.emit3(Op::Ldp, dst, Operand::Imm(word_index), Operand::None, Operand::None)
    }

    // --- Memory ---

    /// Global load `dst = [base + offset_bytes]`.
    pub fn ldg(&mut self, w: MemWidth, dst: Reg, base: Reg, offset_bytes: u32) -> &mut Self {
        self.emit3(Op::Ldg(w), dst, base.into(), Operand::Imm(offset_bytes), Operand::None)
    }

    /// Global store `[base + offset_bytes] = val`.
    pub fn stg(&mut self, w: MemWidth, base: Reg, offset_bytes: u32, val: Reg) -> &mut Self {
        self.emit3(Op::Stg(w), Reg::RZ, base.into(), Operand::Imm(offset_bytes), val.into())
    }

    /// Shared load `dst = shared[base + offset_bytes]`.
    pub fn lds(&mut self, w: MemWidth, dst: Reg, base: Reg, offset_bytes: u32) -> &mut Self {
        self.emit3(Op::Lds(w), dst, base.into(), Operand::Imm(offset_bytes), Operand::None)
    }

    /// Shared store `shared[base + offset_bytes] = val`.
    pub fn sts(&mut self, w: MemWidth, base: Reg, offset_bytes: u32, val: Reg) -> &mut Self {
        self.emit3(Op::Sts(w), Reg::RZ, base.into(), Operand::Imm(offset_bytes), val.into())
    }

    /// Warp shuffle: `dst = src` value of the lane selected by
    /// `(mode, lane_sel)`.
    pub fn shfl(
        &mut self,
        mode: crate::op::ShflMode,
        dst: Reg,
        src: Reg,
        lane_sel: Operand,
    ) -> &mut Self {
        self.emit3(Op::Shfl(mode), dst, src.into(), lane_sel, Operand::None)
    }

    /// Global atomic add: `dst = old [base+offset]; [base+offset] += val`.
    pub fn atomg_add(&mut self, dst: Reg, base: Reg, offset_bytes: u32, val: Reg) -> &mut Self {
        self.emit3(Op::AtomGAdd, dst, base.into(), Operand::Imm(offset_bytes), val.into())
    }

    /// Shared-memory atomic add.
    pub fn atoms_add(&mut self, dst: Reg, base: Reg, offset_bytes: u32, val: Reg) -> &mut Self {
        self.emit3(Op::AtomSAdd, dst, base.into(), Operand::Imm(offset_bytes), val.into())
    }

    // --- Tensor ---

    /// Warp-synchronous HMMA: fragments anchored at `a`, `b`, `c`; result
    /// overwrites the `c` fragment (binary16 accumulate).
    pub fn hmma(&mut self, a: Reg, b: Reg, c: Reg) -> &mut Self {
        self.emit3(Op::Hmma, c, a.into(), b.into(), c.into())
    }

    /// Warp-synchronous FMMA (binary32 accumulate).
    pub fn fmma(&mut self, a: Reg, b: Reg, c: Reg) -> &mut Self {
        self.emit3(Op::Fmma, c, a.into(), b.into(), c.into())
    }

    // --- Control ---

    /// Branch to `label` (subject to a pending guard).
    pub fn bra(&mut self, label: impl Into<String>) -> &mut Self {
        let at = self.instrs.len() as u32;
        self.fixups.push((at, label.into()));
        self.push(Instr::new(Op::Bra))
    }

    /// Block-wide barrier.
    pub fn bar(&mut self) -> &mut Self {
        self.push(Instr::new(Op::Bar))
    }

    /// Thread exit.
    pub fn exit(&mut self) -> &mut Self {
        self.push(Instr::new(Op::Exit))
    }

    /// No-op.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Instr::new(Op::Nop))
    }

    /// Resolve labels, then validate and decode the kernel.
    pub fn build(mut self) -> Result<Kernel, KernelError> {
        for (at, label) in std::mem::take(&mut self.fixups) {
            let target = *self
                .labels
                .get(&label)
                .ok_or_else(|| KernelError::UndefinedLabel(label.clone()))?;
            self.instrs[at as usize].target = Some(target);
        }
        let mut kernel = Kernel::new(self.name, self.instrs, self.shared_bytes, self.proprietary)?;
        kernel.regs_per_thread = kernel.regs_per_thread.max(self.reserved_regs);
        Ok(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Reg {
        Reg(i)
    }

    #[test]
    fn builder_resolves_forward_and_backward_labels() {
        let mut b = KernelBuilder::new("loop");
        b.mov(r(0), Operand::Imm(0));
        b.label("top");
        b.iadd(r(0), r(0).into(), Operand::Imm(1));
        b.isetp(Pred(0), CmpOp::Lt, r(0).into(), Operand::Imm(10));
        b.if_p(Pred(0)).bra("top");
        b.exit();
        let k = b.build().unwrap();
        assert_eq!(k.instrs()[3].target, Some(1));
        assert_eq!(k.instrs()[3].guard, Some(Guard::when(Pred(0))));
        // The guard applies only to the next instruction.
        assert_eq!(k.instrs()[4].guard, None);
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut b = KernelBuilder::new("bad");
        b.bra("nowhere");
        b.exit();
        assert_eq!(b.build().unwrap_err(), KernelError::UndefinedLabel("nowhere".into()));
    }

    #[test]
    fn missing_exit_is_an_error() {
        let mut b = KernelBuilder::new("bad");
        b.nop();
        assert_eq!(b.build().unwrap_err(), KernelError::NoExit);
    }

    #[test]
    fn empty_kernel_is_an_error() {
        let b = KernelBuilder::new("empty");
        assert_eq!(b.build().unwrap_err(), KernelError::Empty);
    }

    #[test]
    fn misaligned_fp64_pair_is_rejected() {
        let mut b = KernelBuilder::new("bad");
        b.dadd(r(1), r(2).into(), r(4).into()); // dst R1 is odd
        b.exit();
        assert!(matches!(b.build().unwrap_err(), KernelError::MisalignedPair { reg: Reg(1), .. }));
        // A 64-bit store's value is a pair too; R254's partner would be RZ.
        for val in [3, 254] {
            let mut b = KernelBuilder::new("bad-store");
            b.stg(MemWidth::W64, r(0), 0, r(val));
            b.exit();
            assert_eq!(b.build().unwrap_err(), KernelError::MisalignedPair { at: 0, reg: r(val) });
        }
    }

    #[test]
    fn mma_without_three_register_fragments_is_rejected() {
        let mut instrs = vec![Instr::new(Op::Fmma), Instr::new(Op::Exit)];
        instrs[0].srcs = [r(0).into(), r(4).into(), Operand::None];
        assert_eq!(validate(&instrs), Err(KernelError::MalformedMma(0)));
        // The FMMA accumulator spans R248..=R255, reaching into RZ.
        instrs[0].srcs[2] = r(248).into();
        assert_eq!(validate(&instrs), Err(KernelError::MalformedMma(0)));
        instrs[0].srcs[2] = r(247).into();
        assert!(validate(&instrs).is_ok());
    }

    #[test]
    fn regs_per_thread_tracks_max_use_and_reservation() {
        let mut b = KernelBuilder::new("regs");
        b.mov(r(17), Operand::Imm(1));
        b.exit();
        assert_eq!(b.build().unwrap().regs_per_thread, 18);

        let mut b = KernelBuilder::new("regs");
        b.reserve_regs(255);
        b.mov(r(17), Operand::Imm(1));
        b.exit();
        assert_eq!(b.build().unwrap().regs_per_thread, 255);
    }

    #[test]
    fn launch_config_geometry() {
        let lc = LaunchConfig::new_2d(Dim::d2(4, 2), Dim::d2(16, 8), vec![]);
        assert_eq!(lc.total_threads(), 4 * 2 * 16 * 8);
        assert_eq!(lc.warps_per_block(), 4);
        let lc = LaunchConfig::new(1, 33, vec![]);
        assert_eq!(lc.warps_per_block(), 2);
    }

    #[test]
    fn disassemble_contains_directives() {
        let mut b = KernelBuilder::new("dis");
        b.shared(128);
        b.mov(r(0), Operand::Imm(5));
        b.exit();
        let k = b.build().unwrap();
        let text = k.disassemble();
        assert!(text.contains(".kernel dis"));
        assert!(text.contains(".shared 128"));
        assert!(text.contains("MOV R0, 0x5"));
    }

    #[test]
    fn validate_rejects_unresolved_branch() {
        let mut instrs = vec![Instr::new(Op::Bra), Instr::new(Op::Exit)];
        assert!(matches!(validate(&instrs), Err(KernelError::BranchOutOfRange { .. })));
        instrs[0].target = Some(9);
        assert!(matches!(validate(&instrs), Err(KernelError::BranchOutOfRange { target: 9, .. })));
        instrs[0].target = Some(1);
        assert!(validate(&instrs).is_ok());
    }
}
