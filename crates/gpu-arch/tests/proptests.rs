//! Property-based tests: assembler/disassembler round trips over randomly
//! generated kernels, structural invariants of the builder, and the
//! predecode layer agreeing with per-instruction classification.

use gpu_arch::{
    asm, decode, CmpOp, DecodedKernel, FunctionalUnit, KernelBuilder, MemWidth, Op, Operand, Pred,
    Reg, ShflMode, SiteClass, SpecialReg,
};
use proptest::prelude::*;

fn reg_strategy() -> impl Strategy<Value = Reg> {
    (0u8..120).prop_map(Reg)
}

fn even_reg_strategy() -> impl Strategy<Value = Reg> {
    (0u8..60).prop_map(|i| Reg(i * 2))
}

fn operand_strategy() -> impl Strategy<Value = Operand> {
    prop_oneof![reg_strategy().prop_map(Operand::Reg), any::<u32>().prop_map(Operand::Imm),]
}

fn even_operand_strategy() -> impl Strategy<Value = Operand> {
    even_reg_strategy().prop_map(Operand::Reg)
}

fn cmp_strategy() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
    ]
}

/// One random (valid) instruction appended through the builder API.
#[derive(Clone, Debug)]
enum Gen {
    Fadd(Reg, Operand, Operand),
    Ffma(Reg, Operand, Operand, Operand),
    Dadd(Reg, Operand, Operand),
    Hmul(Reg, Operand, Operand),
    Iadd(Reg, Operand, Operand),
    Isetp(Pred, CmpOp, Operand, Operand),
    Sel(Reg, Operand, Operand, Pred, bool),
    Mov(Reg, Operand),
    S2r(Reg, SpecialReg),
    Ldg(MemWidth, Reg, Reg, u32),
    Stg(MemWidth, Reg, u32, Reg),
    Shl(Reg, Operand, Operand),
    Shfl(ShflMode, Reg, Reg, Operand),
    AtomG(Reg, Reg, u32, Reg),
    Nop,
}

fn instr_strategy() -> impl Strategy<Value = Gen> {
    prop_oneof![
        (reg_strategy(), operand_strategy(), operand_strategy())
            .prop_map(|(d, a, b)| Gen::Fadd(d, a, b)),
        (reg_strategy(), operand_strategy(), operand_strategy(), operand_strategy())
            .prop_map(|(d, a, b, c)| Gen::Ffma(d, a, b, c)),
        (even_reg_strategy(), even_operand_strategy(), even_operand_strategy())
            .prop_map(|(d, a, b)| Gen::Dadd(d, a, b)),
        (reg_strategy(), operand_strategy(), operand_strategy())
            .prop_map(|(d, a, b)| Gen::Hmul(d, a, b)),
        (reg_strategy(), operand_strategy(), operand_strategy())
            .prop_map(|(d, a, b)| Gen::Iadd(d, a, b)),
        ((0u8..7).prop_map(Pred), cmp_strategy(), operand_strategy(), operand_strategy())
            .prop_map(|(p, c, a, b)| Gen::Isetp(p, c, a, b)),
        (
            reg_strategy(),
            operand_strategy(),
            operand_strategy(),
            (0u8..7).prop_map(Pred),
            any::<bool>()
        )
            .prop_map(|(d, a, b, p, n)| Gen::Sel(d, a, b, p, n)),
        (reg_strategy(), operand_strategy()).prop_map(|(d, a)| Gen::Mov(d, a)),
        (
            reg_strategy(),
            prop_oneof![Just(SpecialReg::TidX), Just(SpecialReg::CtaidX), Just(SpecialReg::LaneId)]
        )
            .prop_map(|(d, s)| Gen::S2r(d, s)),
        (
            prop_oneof![Just(MemWidth::W16), Just(MemWidth::W32), Just(MemWidth::W64)],
            even_reg_strategy(),
            reg_strategy(),
            0u32..4096
        )
            .prop_map(|(w, d, b, o)| Gen::Ldg(w, d, b, o)),
        (
            prop_oneof![Just(MemWidth::W16), Just(MemWidth::W32), Just(MemWidth::W64)],
            reg_strategy(),
            0u32..4096,
            even_reg_strategy()
        )
            .prop_map(|(w, b, o, v)| Gen::Stg(w, b, o, v)),
        (reg_strategy(), operand_strategy(), operand_strategy())
            .prop_map(|(d, a, b)| Gen::Shl(d, a, b)),
        (
            prop_oneof![
                Just(ShflMode::Idx),
                Just(ShflMode::Up),
                Just(ShflMode::Down),
                Just(ShflMode::Bfly)
            ],
            reg_strategy(),
            reg_strategy(),
            operand_strategy()
        )
            .prop_map(|(m, d, s, l)| Gen::Shfl(m, d, s, l)),
        (reg_strategy(), reg_strategy(), 0u32..4096, reg_strategy())
            .prop_map(|(d, b, o, v)| Gen::AtomG(d, b, o, v)),
        Just(Gen::Nop),
    ]
}

fn apply(b: &mut KernelBuilder, g: &Gen) {
    match g.clone() {
        Gen::Fadd(d, a, x) => {
            b.fadd(d, a, x);
        }
        Gen::Ffma(d, a, x, y) => {
            b.ffma(d, a, x, y);
        }
        Gen::Dadd(d, a, x) => {
            b.dadd(d, a, x);
        }
        Gen::Hmul(d, a, x) => {
            b.hmul(d, a, x);
        }
        Gen::Iadd(d, a, x) => {
            b.iadd(d, a, x);
        }
        Gen::Isetp(p, c, a, x) => {
            b.isetp(p, c, a, x);
        }
        Gen::Sel(d, a, x, p, n) => {
            b.sel(d, a, x, p, n);
        }
        Gen::Mov(d, a) => {
            b.mov(d, a);
        }
        Gen::S2r(d, s) => {
            b.s2r(d, s);
        }
        Gen::Ldg(w, d, base, off) => {
            b.ldg(w, d, base, off);
        }
        Gen::Stg(w, base, off, v) => {
            b.stg(w, base, off, v);
        }
        Gen::Shl(d, a, x) => {
            b.shl(d, a, x);
        }
        Gen::Shfl(m, d, src, l) => {
            b.shfl(m, d, src, l);
        }
        Gen::AtomG(d, base, off, v) => {
            b.atomg_add(d, base, off, v);
        }
        Gen::Nop => {
            b.nop();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any builder-generated kernel disassembles to text that re-assembles
    /// into an identical instruction stream.
    #[test]
    fn disassembly_roundtrips(instrs in prop::collection::vec(instr_strategy(), 1..40)) {
        let mut b = KernelBuilder::new("prop");
        for g in &instrs {
            apply(&mut b, g);
        }
        b.exit();
        let k1 = b.build().unwrap();
        let text = k1.disassemble();
        let k2 = asm::assemble(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        prop_assert_eq!(k1.instrs(), k2.instrs());
        prop_assert_eq!(k1.regs_per_thread, k2.regs_per_thread);
        prop_assert_eq!(k1.shared_bytes, k2.shared_bytes);
    }

    /// Validation accepts everything the builder produces.
    #[test]
    fn builder_output_always_validates(instrs in prop::collection::vec(instr_strategy(), 0..30)) {
        let mut b = KernelBuilder::new("prop");
        for g in &instrs {
            apply(&mut b, g);
        }
        b.exit();
        let k = b.build().unwrap();
        prop_assert!(k.validate().is_ok());
        // regs_per_thread covers every register the decode reads or writes.
        let d = k.decoded();
        for pc in 0..k.len() {
            let reads = d.observed_reads(pc).iter().map(|&(r, _)| r);
            for r in reads.chain(d.written_regs(pc).iter().copied()) {
                prop_assert!(u16::from(r.0) < k.regs_per_thread, "R{} @{}", r.0, pc);
            }
        }
    }

    /// The predecode layer agrees with per-instruction classification for
    /// arbitrary (optionally guarded) instructions: every [`gpu_arch::InstrMeta`]
    /// field re-derives from the instruction's opcode and guard, `in_class`
    /// equals the definition [`SiteClass::matches`] for every class
    /// (per-unit classes included), and the decoded read/write tables match
    /// a fresh per-instruction recomputation.
    #[test]
    fn predecode_agrees_with_per_instruction_classification(
        instrs in prop::collection::vec(
            // Guard mode: 0-1 unguarded, 2 `@P`, 3 `@!P` (vendored
            // proptest has no `prop::option`, so an integer encodes it).
            (instr_strategy(), 0u8..4, (0u8..7).prop_map(Pred)),
            1..40,
        )
    ) {
        let mut b = KernelBuilder::new("prop");
        for (g, guard_mode, p) in &instrs {
            match guard_mode {
                2 => {
                    b.if_p(*p);
                }
                3 => {
                    b.if_not_p(*p);
                }
                _ => {}
            }
            apply(&mut b, g);
        }
        b.exit();
        let k = b.build().unwrap();
        let d = DecodedKernel::new(&k);
        prop_assert_eq!(d.metas().len(), k.len());

        let units = [
            FunctionalUnit::Fadd, FunctionalUnit::Fmul, FunctionalUnit::Ffma,
            FunctionalUnit::Dadd, FunctionalUnit::Dmul, FunctionalUnit::Dfma,
            FunctionalUnit::Hadd, FunctionalUnit::Hmul, FunctionalUnit::Hfma,
            FunctionalUnit::Iadd, FunctionalUnit::Imul, FunctionalUnit::Imad,
            FunctionalUnit::Hmma, FunctionalUnit::Fmma,
            FunctionalUnit::Ldst, FunctionalUnit::Other,
        ];
        let base_classes = [
            SiteClass::GprWriter,
            SiteClass::GprWriterNoHalf,
            SiteClass::FloatArith,
            SiteClass::HalfArith,
            SiteClass::IntArith,
            SiteClass::Load,
        ];

        for (pc, i) in k.instrs().iter().enumerate() {
            let m = d.meta(pc as u32);
            let op = i.op;
            prop_assert_eq!(m.op, op);
            prop_assert_eq!(m.unit, op.functional_unit());
            prop_assert_eq!(m.unit_index as usize, op.functional_unit().index());
            prop_assert_eq!(m.mix_index as usize, op.mix_category().index());
            prop_assert_eq!(m.latency, op.latency());
            prop_assert_eq!(m.writes_pred, op.writes_pred());
            prop_assert_eq!(m.writes_pair, op.writes_pair());
            prop_assert_eq!(m.has_no_dst, op.has_no_dst());
            prop_assert_eq!(m.guard, i.guard);
            // The predicates the engine and injectors used to spell out
            // per instruction, re-derived here as the pinned spec.
            prop_assert_eq!(m.writes_gpr(), !op.has_no_dst() && !op.writes_pred());
            prop_assert_eq!(m.is_load(), matches!(op, Op::Ldg(_) | Op::Lds(_)));
            prop_assert_eq!(
                m.is_mem_op,
                matches!(
                    op,
                    Op::Ldg(_) | Op::Lds(_) | Op::Stg(_) | Op::Sts(_) | Op::AtomGAdd | Op::AtomSAdd
                )
            );
            prop_assert_eq!(
                m.def_kills,
                i.guard.is_none() && !matches!(op, Op::Hmma | Op::Fmma | Op::Shfl(_))
            );
            for class in base_classes.into_iter().chain(units.into_iter().map(SiteClass::Unit)) {
                prop_assert_eq!(m.in_class(class), class.matches(op), "class {:?}", class);
            }
            // Register tables match a fresh per-instruction recomputation.
            let (reads, writes) = (decode::observed_reads_of(i), decode::written_regs_of(i));
            prop_assert_eq!(d.observed_reads(pc), reads.as_slice());
            prop_assert_eq!(d.written_regs(pc), writes.as_slice());
        }
    }

    /// The kernel length equals the emitted instruction count plus EXIT.
    #[test]
    fn length_bookkeeping(instrs in prop::collection::vec(instr_strategy(), 0..50)) {
        let mut b = KernelBuilder::new("prop");
        for g in &instrs {
            apply(&mut b, g);
        }
        b.exit();
        let k = b.build().unwrap();
        prop_assert_eq!(k.len(), instrs.len() + 1);
    }
}
