//! Instruction encoding.

use crate::op::Op;
use crate::operand::{Operand, Pred, Reg};
use std::fmt;

/// A SASS-style predication guard: `@P0` executes when `P0` is true,
/// `@!P0` when false.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Guard {
    /// The guarding predicate register.
    pub pred: Pred,
    /// If true, the guard passes when the predicate is *false* (`@!P`).
    pub negated: bool,
}

impl Guard {
    /// `@P` guard.
    pub fn when(pred: Pred) -> Guard {
        Guard { pred, negated: false }
    }

    /// `@!P` guard.
    pub fn unless(pred: Pred) -> Guard {
        Guard { pred, negated: true }
    }

    /// Evaluate against a predicate value.
    #[inline]
    pub fn passes(self, value: bool) -> bool {
        value != self.negated
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "@!{}", self.pred)
        } else {
            write!(f, "@{}", self.pred)
        }
    }
}

/// One decoded instruction.
///
/// * `dst` is the destination GPR (`RZ` when unused or write-discarded).
/// * `pdst` is the destination predicate for `SETP` ops.
/// * `srcs` holds up to three source operands; memory ops use
///   `srcs[0]` = base register, `srcs[1]` = immediate byte offset and (for
///   stores and atomics) `srcs[2]` = the value register ([`crate::MemOp`]). MMA
///   ops use the three slots as the A, B, C fragment base registers.
/// * `psrc` is the predicate source for `SEL`.
/// * `target` is the branch destination (an instruction index within the
///   kernel), resolved by [`crate::KernelBuilder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Instr {
    /// Opcode.
    pub op: Op,
    /// Destination register.
    pub dst: Reg,
    /// Destination predicate (SETP family).
    pub pdst: Option<Pred>,
    /// Source operands.
    pub srcs: [Operand; 3],
    /// Predicate source with negation flag (SEL).
    pub psrc: Option<(Pred, bool)>,
    /// Branch target instruction index (BRA).
    pub target: Option<u32>,
    /// Execution guard (`@P` / `@!P`), or `None` for unconditional.
    pub guard: Option<Guard>,
}

impl Instr {
    /// A new unguarded instruction with no operands; builders fill in the
    /// rest.
    pub fn new(op: Op) -> Instr {
        Instr {
            op,
            dst: Reg::RZ,
            pdst: None,
            srcs: [Operand::None; 3],
            psrc: None,
            target: None,
            guard: None,
        }
    }

    /// The registers a store or an atomic sends to memory ([`crate::MemOp`]):
    /// `srcs[2]`, then the high word of its pair for a 64-bit store. An
    /// `RZ` or immediate value, and every other op, names none.
    pub fn stored_regs(&self) -> [Option<Reg>; 2] {
        match self.op.mem() {
            Some(m) if m.stores => {
                let value = self.srcs[2].reg().filter(|r| !r.is_rz());
                [value, value.filter(|_| m.bytes == 8).map(Reg::pair_hi)]
            }
            _ => [None, None],
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(g) = self.guard {
            write!(f, "{g} ")?;
        }
        write!(f, "{}", self.op.mnemonic())?;
        let mut wrote_operand = false;
        if let Some(p) = self.pdst {
            write!(f, " {p}")?;
            wrote_operand = true;
        } else if !self.op.has_no_dst() {
            write!(f, " {}", self.dst)?;
            wrote_operand = true;
        }
        for s in self.srcs {
            if s.is_some() {
                if wrote_operand {
                    write!(f, ", {s}")?;
                } else {
                    write!(f, " {s}")?;
                    wrote_operand = true;
                }
            }
        }
        if let Some((p, neg)) = self.psrc {
            write!(f, ", {}{}", if neg { "!" } else { "" }, p)?;
        }
        if let Some(t) = self.target {
            if wrote_operand {
                write!(f, ", ->{t}")?;
            } else {
                write!(f, " ->{t}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::CmpOp;

    #[test]
    fn guard_evaluation() {
        assert!(Guard::when(Pred(0)).passes(true));
        assert!(!Guard::when(Pred(0)).passes(false));
        assert!(Guard::unless(Pred(0)).passes(false));
        assert!(!Guard::unless(Pred(0)).passes(true));
    }

    #[test]
    fn display_forms() {
        let mut i = Instr::new(Op::Ffma);
        i.dst = Reg(3);
        i.srcs = [Operand::Reg(Reg(1)), Operand::Reg(Reg(2)), Operand::Reg(Reg(3))];
        assert_eq!(i.to_string(), "FFMA R3, R1, R2, R3");

        let mut b = Instr::new(Op::Bra);
        b.target = Some(7);
        b.guard = Some(Guard::unless(Pred(1)));
        assert_eq!(b.to_string(), "@!P1 BRA ->7");

        let mut s = Instr::new(Op::Isetp(CmpOp::Lt));
        s.pdst = Some(Pred(0));
        s.srcs = [Operand::Reg(Reg(0)), Operand::Imm(16), Operand::None];
        assert_eq!(s.to_string(), "ISETP.LT P0, R0, 0x10");
    }
}
