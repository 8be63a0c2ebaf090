//! A textual assembler for the SASS-like ISA, round-trippable with
//! [`crate::Kernel::disassemble`].
//!
//! Syntax:
//!
//! ```text
//! .kernel saxpy          // kernel name (required, first directive)
//! .regs 32               // optional register allocation override
//! .shared 1024           // optional static shared memory (bytes)
//! .proprietary           // optional library-kernel marker
//!
//! top:                   // labels end with ':'
//!     S2R.TidX R0
//!     LDP R1, 0
//!     ISETP.LT P0, R0, 0x40
//!     @P0 BRA top        // guards: @P0 / @!P0 ; targets: label or ->index
//!     EXIT
//! ```
//!
//! Comments run from `//` or `;` to end of line; `/* ... */` block comments
//! (as emitted by the disassembler's address column) are stripped.
//!
//! Operands follow the mnemonic, comma-separated: the destination first
//! (a register `R0`..`R254` or `RZ`; a predicate `P0`..`P6` for the
//! `SETP` family; none for stores and control ops), then up to three
//! sources. A source is a register, an immediate (decimal, `0x` hex, or
//! a float with an `f` suffix, kept as its binary32 bits), `SEL`'s
//! predicate `Pn` or `!Pn`, or a branch target. Memory ops name a base
//! register, an immediate byte offset and, for stores and atomics, the
//! value register ([`crate::MemOp`]); a register offset is rejected:
//!
//! ```text
//!     LDG.32 R8, R7, 0x10      // R8 = [R7 + 16]
//!     STG.64 R2, 0, R30        // [R2] = R30:R31
//!     ATOMS.ADD R4, R5, 8, R6  // R4 = shared[R5 + 8]; shared[R5 + 8] += R6
//! ```

use crate::instr::{Guard, Instr};
use crate::kernel::Kernel;
use crate::op::{CmpOp, MemWidth, Op, SpecialReg};
use crate::operand::{Operand, Pred, Reg};
use std::collections::HashMap;
use std::fmt;

/// Assembly error with a 1-based line number.
#[derive(Clone, Debug, PartialEq)]
pub struct AsmError {
    /// 1-based source line; 0 for an error about the kernel as a whole.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError { line, message: message.into() }
}

/// Assemble a kernel from text.
pub fn assemble(source: &str) -> Result<Kernel, AsmError> {
    let mut name: Option<String> = None;
    let mut regs_override: Option<u16> = None;
    let mut shared = 0u32;
    let mut proprietary = false;
    let mut instrs: Vec<Instr> = Vec::new();
    let mut instr_lines: Vec<usize> = Vec::new();
    let mut labels: HashMap<String, u32> = HashMap::new();
    let mut fixups: Vec<(usize, u32, String)> = Vec::new(); // (line, instr idx, label)

    for (lineno, raw) in source.lines().enumerate() {
        let line_num = lineno + 1;
        let line = strip_comments(raw);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('.') {
            let mut parts = rest.split_whitespace();
            match parts.next() {
                Some("kernel") => {
                    name = Some(
                        parts
                            .next()
                            .ok_or_else(|| err(line_num, ".kernel needs a name"))?
                            .to_string(),
                    );
                }
                Some("regs") => {
                    let v = parts.next().ok_or_else(|| err(line_num, ".regs needs a count"))?;
                    regs_override = Some(v.parse().map_err(|_| err(line_num, "bad .regs count"))?);
                }
                Some("shared") => {
                    let v = parts.next().ok_or_else(|| err(line_num, ".shared needs bytes"))?;
                    shared = v.parse().map_err(|_| err(line_num, "bad .shared size"))?;
                }
                Some("proprietary") => proprietary = true,
                Some(other) => return Err(err(line_num, format!("unknown directive .{other}"))),
                None => return Err(err(line_num, "empty directive")),
            }
            continue;
        }
        if let Some(label) = line.strip_suffix(':') {
            let label = label.trim();
            if label.is_empty() || !label.chars().all(|c| c.is_alphanumeric() || c == '_') {
                return Err(err(line_num, format!("bad label `{label}`")));
            }
            labels.insert(label.to_string(), instrs.len() as u32);
            continue;
        }
        let (instr, fixup) = parse_instr(line, line_num)?;
        if let Some(label) = fixup {
            fixups.push((line_num, instrs.len() as u32, label));
        }
        instrs.push(instr);
        instr_lines.push(line_num);
    }

    let name = name.ok_or_else(|| err(0, "missing .kernel directive"))?;
    for (line_num, at, label) in fixups {
        let target = *labels
            .get(&label)
            .ok_or_else(|| err(line_num, format!("undefined label `{label}`")))?;
        instrs[at as usize].target = Some(target);
    }

    // A validation error about one instruction is reported at its line;
    // a kernel-wide one (no `EXIT`, no instructions) at line 0.
    let mut kernel = Kernel::new(name, instrs, shared, proprietary).map_err(|e| {
        let line = e.at().map_or(0, |at| instr_lines[at as usize]);
        err(line, e.to_string())
    })?;
    kernel.regs_per_thread = regs_override.unwrap_or(kernel.regs_per_thread);
    Ok(kernel)
}

fn strip_comments(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '/' if chars.peek() == Some(&'/') => break,
            ';' => break,
            '/' if chars.peek() == Some(&'*') => {
                chars.next();
                // consume until */
                let mut prev = ' ';
                for c in chars.by_ref() {
                    if prev == '*' && c == '/' {
                        break;
                    }
                    prev = c;
                }
            }
            _ => out.push(c),
        }
    }
    out
}

fn parse_instr(line: &str, line_num: usize) -> Result<(Instr, Option<String>), AsmError> {
    let mut rest = line.trim();
    let mut guard = None;
    if let Some(g) = rest.strip_prefix("@!") {
        let (p, r) = split_token(g);
        guard = Some(Guard::unless(parse_pred(p, line_num)?));
        rest = r;
    } else if let Some(g) = rest.strip_prefix('@') {
        let (p, r) = split_token(g);
        guard = Some(Guard::when(parse_pred(p, line_num)?));
        rest = r;
    }

    let (mnemonic, operand_text) = split_token(rest);
    let op = parse_mnemonic(mnemonic, line_num)?;
    let tokens: Vec<&str> =
        operand_text.split(',').map(str::trim).filter(|t| !t.is_empty()).collect();

    let mut instr = Instr::new(op);
    instr.guard = guard;
    let mut fixup = None;
    let mut srcs: Vec<Operand> = Vec::new();
    let mut token_iter = tokens.into_iter().peekable();

    if op.writes_pred() {
        let t =
            token_iter.next().ok_or_else(|| err(line_num, "SETP needs a predicate destination"))?;
        instr.pdst = Some(parse_pred(t, line_num)?);
    } else if !op.has_no_dst() {
        let t = token_iter.next().ok_or_else(|| err(line_num, "missing destination"))?;
        instr.dst = parse_reg(t, line_num)?;
    }

    for t in token_iter {
        if let Some(idx) = t.strip_prefix("->") {
            let target: u32 =
                idx.parse().map_err(|_| err(line_num, format!("bad branch target `{t}`")))?;
            instr.target = Some(target);
        } else if let Some(p) = t.strip_prefix('!') {
            instr.psrc = Some((parse_pred(p, line_num)?, true));
        } else if t.starts_with('P') && parse_pred(t, line_num).is_ok() && op == Op::Sel {
            instr.psrc = Some((parse_pred(t, line_num)?, false));
        } else if op == Op::Bra {
            // Textual label reference.
            fixup = Some(t.to_string());
        } else {
            srcs.push(parse_operand(t, line_num)?);
        }
    }
    if srcs.len() > 3 {
        return Err(err(line_num, "too many source operands"));
    }
    for (i, s) in srcs.into_iter().enumerate() {
        instr.srcs[i] = s;
    }
    Ok((instr, fixup))
}

fn split_token(s: &str) -> (&str, &str) {
    let s = s.trim_start();
    match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], s[i..].trim_start()),
        None => (s, ""),
    }
}

fn parse_pred(t: &str, line_num: usize) -> Result<Pred, AsmError> {
    if t == "PT" {
        return Ok(Pred::PT);
    }
    t.strip_prefix('P')
        .and_then(|n| n.parse::<u8>().ok())
        .filter(|&n| n < 7)
        .map(Pred)
        .ok_or_else(|| err(line_num, format!("bad predicate `{t}`")))
}

fn parse_reg(t: &str, line_num: usize) -> Result<Reg, AsmError> {
    if t == "RZ" {
        return Ok(Reg::RZ);
    }
    t.strip_prefix('R')
        .and_then(|n| n.parse::<u8>().ok())
        .filter(|&n| n < 255)
        .map(Reg)
        .ok_or_else(|| err(line_num, format!("bad register `{t}`")))
}

fn parse_operand(t: &str, line_num: usize) -> Result<Operand, AsmError> {
    if t == "RZ" || t.starts_with('R') && t[1..].chars().all(|c| c.is_ascii_digit()) {
        return parse_reg(t, line_num).map(Operand::Reg);
    }
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        return u32::from_str_radix(hex, 16)
            .map(Operand::Imm)
            .map_err(|_| err(line_num, format!("bad hex immediate `{t}`")));
    }
    if let Some(f) = t.strip_suffix('f') {
        return f
            .parse::<f32>()
            .map(Operand::imm_f32)
            .map_err(|_| err(line_num, format!("bad float immediate `{t}`")));
    }
    if let Ok(v) = t.parse::<i64>() {
        if v >= i32::MIN as i64 && v <= u32::MAX as i64 {
            return Ok(Operand::Imm(v as u32));
        }
    }
    Err(err(line_num, format!("unrecognized operand `{t}`")))
}

fn parse_cmp(suffix: &str, line_num: usize) -> Result<CmpOp, AsmError> {
    match suffix {
        "LT" => Ok(CmpOp::Lt),
        "LE" => Ok(CmpOp::Le),
        "GT" => Ok(CmpOp::Gt),
        "GE" => Ok(CmpOp::Ge),
        "EQ" => Ok(CmpOp::Eq),
        "NE" => Ok(CmpOp::Ne),
        _ => Err(err(line_num, format!("bad comparison suffix `{suffix}`"))),
    }
}

fn parse_width(suffix: &str, line_num: usize) -> Result<MemWidth, AsmError> {
    match suffix {
        "16" => Ok(MemWidth::W16),
        "32" => Ok(MemWidth::W32),
        "64" => Ok(MemWidth::W64),
        _ => Err(err(line_num, format!("bad memory width `{suffix}`"))),
    }
}

fn parse_special(suffix: &str, line_num: usize) -> Result<SpecialReg, AsmError> {
    use SpecialReg::*;
    match suffix {
        "TidX" => Ok(TidX),
        "TidY" => Ok(TidY),
        "CtaidX" => Ok(CtaidX),
        "CtaidY" => Ok(CtaidY),
        "NtidX" => Ok(NtidX),
        "NtidY" => Ok(NtidY),
        "NctaidX" => Ok(NctaidX),
        "NctaidY" => Ok(NctaidY),
        "LaneId" => Ok(LaneId),
        "WarpId" => Ok(WarpId),
        _ => Err(err(line_num, format!("bad special register `{suffix}`"))),
    }
}

fn parse_shfl(suffix: &str, line_num: usize) -> Result<crate::op::ShflMode, AsmError> {
    use crate::op::ShflMode::*;
    match suffix {
        "IDX" => Ok(Idx),
        "UP" => Ok(Up),
        "DOWN" => Ok(Down),
        "BFLY" => Ok(Bfly),
        _ => Err(err(line_num, format!("bad shuffle mode `{suffix}`"))),
    }
}

fn parse_mnemonic(m: &str, line_num: usize) -> Result<Op, AsmError> {
    let (base, suffix) = match m.find('.') {
        Some(i) => (&m[..i], &m[i + 1..]),
        None => (m, ""),
    };
    let op = match base {
        "FADD" => Op::Fadd,
        "FMUL" => Op::Fmul,
        "FFMA" => Op::Ffma,
        "FMIN" => Op::Fmin,
        "FMAX" => Op::Fmax,
        "FSETP" => Op::Fsetp(parse_cmp(suffix, line_num)?),
        "F2I" => Op::F2i,
        "I2F" => Op::I2f,
        "F2D" => Op::F2d,
        "D2F" => Op::D2f,
        "F2H" => Op::F2h,
        "H2F" => Op::H2f,
        "FRCP" => Op::Frcp,
        "FSQRT" => Op::Fsqrt,
        "DRCP" => Op::Drcp,
        "DSQRT" => Op::Dsqrt,
        "DADD" => Op::Dadd,
        "DMUL" => Op::Dmul,
        "DFMA" => Op::Dfma,
        "DSETP" => Op::Dsetp(parse_cmp(suffix, line_num)?),
        "HADD" => Op::Hadd,
        "HMUL" => Op::Hmul,
        "HFMA" => Op::Hfma,
        "HSETP" => Op::Hsetp(parse_cmp(suffix, line_num)?),
        "IADD" => Op::Iadd,
        "IMUL" => Op::Imul,
        "IMAD" => Op::Imad,
        "ISETP" => Op::Isetp(parse_cmp(suffix, line_num)?),
        "IMIN" => Op::Imin,
        "IMAX" => Op::Imax,
        "SHL" => Op::Shl,
        "SHR" => Op::Shr,
        "ASR" => Op::Asr,
        "AND" => Op::And,
        "OR" => Op::Or,
        "XOR" => Op::Xor,
        "NOT" => Op::Not,
        "MOV" => Op::Mov,
        "SEL" => Op::Sel,
        "S2R" => Op::S2r(parse_special(suffix, line_num)?),
        "LDP" => Op::Ldp,
        "LDG" => Op::Ldg(parse_width(suffix, line_num)?),
        "STG" => Op::Stg(parse_width(suffix, line_num)?),
        "LDS" => Op::Lds(parse_width(suffix, line_num)?),
        "STS" => Op::Sts(parse_width(suffix, line_num)?),
        "SHFL" => Op::Shfl(parse_shfl(suffix, line_num)?),
        "ATOMG" => Op::AtomGAdd,
        "ATOMS" => Op::AtomSAdd,
        "HMMA" => Op::Hmma,
        "FMMA" => Op::Fmma,
        "BRA" => Op::Bra,
        "BAR" => Op::Bar,
        "EXIT" => Op::Exit,
        "NOP" => Op::Nop,
        _ => return Err(err(line_num, format!("unknown mnemonic `{m}`"))),
    };
    Ok(op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_a_minimal_kernel() {
        let k = assemble(
            r#"
            .kernel tiny
            .shared 64
                S2R.TidX R0
                MOV R1, 0x10
                IADD R2, R0, R1
                EXIT
            "#,
        )
        .unwrap();
        assert_eq!(k.name, "tiny");
        assert_eq!(k.shared_bytes, 64);
        assert_eq!(k.len(), 4);
        assert_eq!(k.instrs()[2].op, Op::Iadd);
        assert_eq!(k.instrs()[2].dst, Reg(2));
    }

    #[test]
    fn labels_and_guards() {
        let k = assemble(
            r#"
            .kernel looped
                MOV R0, 0
            top:
                IADD R0, R0, 1
                ISETP.LT P0, R0, 10
                @P0 BRA top
                @!P1 NOP
                EXIT
            "#,
        )
        .unwrap();
        assert_eq!(k.instrs()[3].op, Op::Bra);
        assert_eq!(k.instrs()[3].target, Some(1));
        assert_eq!(k.instrs()[3].guard, Some(Guard::when(Pred(0))));
        assert_eq!(k.instrs()[4].guard, Some(Guard::unless(Pred(1))));
    }

    #[test]
    fn numeric_branch_targets() {
        let k = assemble(
            r#"
            .kernel jump
                NOP
                BRA ->0
                EXIT
            "#,
        )
        .unwrap();
        assert_eq!(k.instrs()[1].target, Some(0));
    }

    #[test]
    fn float_and_negative_immediates() {
        let k = assemble(
            r#"
            .kernel imm
                MOV R0, 1.5f
                MOV R1, -3
                EXIT
            "#,
        )
        .unwrap();
        assert_eq!(k.instrs()[0].srcs[0], Operand::Imm(1.5f32.to_bits()));
        assert_eq!(k.instrs()[1].srcs[0], Operand::Imm((-3i32) as u32));
    }

    #[test]
    fn sel_parses_predicate_source() {
        let k = assemble(
            r#"
            .kernel s
                SEL R0, R1, R2, !P3
                EXIT
            "#,
        )
        .unwrap();
        assert_eq!(k.instrs()[0].psrc, Some((Pred(3), true)));
    }

    #[test]
    fn stores_have_no_dst() {
        let k = assemble(
            r#"
            .kernel st
                STG.32 R0, 0x8, R5
                STS.64 R2, 0, R6
                EXIT
            "#,
        )
        .unwrap();
        assert_eq!(k.instrs()[0].dst, Reg::RZ);
        assert_eq!(k.instrs()[0].srcs[0], Operand::Reg(Reg(0)));
        assert_eq!(k.instrs()[0].srcs[1], Operand::Imm(8));
        assert_eq!(k.instrs()[0].srcs[2], Operand::Reg(Reg(5)));
        assert_eq!(k.instrs()[1].op, Op::Sts(MemWidth::W64));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble(".kernel x\n    BOGUS R0\n    EXIT").unwrap_err();
        assert_eq!(e.line, 2);
        let e = assemble(".kernel x\n    BRA missing\n    EXIT").unwrap_err();
        assert!(e.message.contains("undefined label"));
    }

    #[test]
    fn missing_kernel_directive() {
        let e = assemble("EXIT").unwrap_err();
        assert!(e.message.contains(".kernel"));
    }

    #[test]
    fn roundtrip_through_disassembler() {
        let src = r#"
            .kernel round
            .regs 32
            .shared 256
                S2R.CtaidX R0
                LDP R1, 2
                FFMA R2, R0, R1, R2
                ISETP.GE P0, R0, 0x100
                @P0 BRA ->5
                FADD R3, R2, 2.0f
                STG.32 R1, 0, R3
                BAR.SYNC
                EXIT
            "#;
        let k1 = assemble(src).unwrap();
        let k2 = assemble(&k1.disassemble()).unwrap();
        assert_eq!(k1.instrs(), k2.instrs());
        assert_eq!(k1.regs_per_thread, k2.regs_per_thread);
        assert_eq!(k1.shared_bytes, k2.shared_bytes);
    }

    #[test]
    fn comment_styles_are_stripped() {
        let k = assemble(".kernel c\n  NOP // trailing\n  NOP ; semicolon\n  /*0001*/ NOP\n  EXIT")
            .unwrap();
        assert_eq!(k.len(), 4);
    }
}
