//! A SASS-like GPU instruction set architecture and device models.
//!
//! NVIDIA's native ISA ("SASS") is the level at which both SASSIFI and
//! NVBitFI inject faults, and the level at which the paper reasons about
//! functional units (FADD/FMUL/FFMA, IADD/IMUL/IMAD, HADD/HMUL/HFMA,
//! DADD/DMUL/DFMA, HMMA/FMMA, LD/ST). This crate defines:
//!
//! * [`Op`] — the instruction set, with per-op classification into the
//!   functional-unit kinds of Figure 3 ([`FunctionalUnit`]) and the coarse
//!   instruction-mix categories of Figure 1 ([`MixCategory`]);
//! * [`Instr`]/[`Operand`]/[`Reg`]/[`Pred`] — the instruction encoding,
//!   including SASS-style predication (`@P0` guards) and the `RZ` zero
//!   register;
//! * [`Kernel`] and [`KernelBuilder`] — validated kernels with label-based
//!   control flow, register/shared-memory footprints and launch geometry,
//!   each decoded once when it is built ([`decode`]);
//! * an assembler/disassembler ([`asm`]) for a textual form of the ISA;
//! * [`DeviceModel`] — device configurations compiled from declarative
//!   spec files ([`spec`]): SM counts, per-SM lane counts for each
//!   precision, register file and shared memory sizes, ECC capability,
//!   and whether integer work shares the FP32 pipes (Kepler) or owns
//!   dedicated INT32 cores (Volta/Ampere). Built-ins: Tesla K40c,
//!   Tesla V100, Titan V, NVIDIA A100, looked up through
//!   [`spec::DeviceRegistry`] or [`DeviceModel::named`].
//!
//! Register convention: 255 general-purpose 32-bit registers `R0..R254`
//! per thread plus the always-zero `RZ` (`R255`); 64-bit values occupy
//! aligned even/odd register pairs; binary16 values live in the low 16 bits
//! of a register. Seven predicate registers `P0..P6` plus the always-true
//! `PT`.

pub mod asm;
pub mod decode;
mod device;
mod instr;
mod kernel;
mod op;
mod operand;
pub mod spec;

pub use decode::{DecodedKernel, InstrMeta, SiteClass, SiteClassSet};
pub use device::{Architecture, CodeGen, CodeGenProfile, DeviceCaps, DeviceModel, EccMode};
pub use instr::{Guard, Instr};
pub use kernel::{Dim, Kernel, KernelBuilder, KernelError, LaunchConfig};
pub use op::{CmpOp, FunctionalUnit, MemOp, MemWidth, MixCategory, Op, ShflMode, SpecialReg};
pub use operand::{Operand, Pred, Reg};
pub use spec::{DeviceRegistry, DeviceSpec, DeviceSummary, SpecLoadError, ValidationError};

/// Threads per warp on every modeled architecture.
pub const WARP_SIZE: u32 = 32;

/// General-purpose registers addressable per thread (`R0..R254`); `R255`
/// is the zero register `RZ`.
pub const NUM_GPRS: u16 = 255;

/// Predicate registers per thread (`P0..P6`); `P7` is the always-true `PT`.
pub const NUM_PREDS: u8 = 7;

/// The numeric precision / data type a workload variant computes in.
///
/// The paper prefixes workload names with the precision letter: `D` for
/// double, `F` for single, `H` for half; integer codes are unprefixed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit signed integer.
    Int32,
    /// IEEE binary16.
    Half,
    /// IEEE binary32.
    Single,
    /// IEEE binary64.
    Double,
}

impl Precision {
    /// The paper's name prefix for this precision ("", "H", "F", "D").
    pub fn prefix(self) -> &'static str {
        match self {
            Precision::Int32 => "",
            Precision::Half => "H",
            Precision::Single => "F",
            Precision::Double => "D",
        }
    }

    /// Bytes occupied by one element in memory.
    pub fn size_bytes(self) -> u32 {
        match self {
            Precision::Int32 | Precision::Single => 4,
            Precision::Half => 2,
            Precision::Double => 8,
        }
    }

    /// The memory access width for one element of this precision.
    pub fn mem_width(self) -> MemWidth {
        match self {
            Precision::Int32 | Precision::Single => MemWidth::W32,
            Precision::Half => MemWidth::W16,
            Precision::Double => MemWidth::W64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_prefixes_match_paper() {
        assert_eq!(Precision::Double.prefix(), "D");
        assert_eq!(Precision::Single.prefix(), "F");
        assert_eq!(Precision::Half.prefix(), "H");
        assert_eq!(Precision::Int32.prefix(), "");
    }

    #[test]
    fn precision_sizes() {
        assert_eq!(Precision::Half.size_bytes(), 2);
        assert_eq!(Precision::Single.size_bytes(), 4);
        assert_eq!(Precision::Double.size_bytes(), 8);
        assert_eq!(Precision::Int32.size_bytes(), 4);
    }
}
