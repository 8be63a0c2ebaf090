//! Property tests pitting the static analyses against the `gpu-sim`
//! dynamic oracle on random straight-line (branch-free) kernels:
//!
//! * **resolution soundness** — the calls a pruned campaign makes: for
//!   output flips, output replacements, predicate flips and address
//!   flips at every dynamic site of a kernel with some guarded
//!   instructions, a [`Resolution::Masked`] fault runs to completion with
//!   golden memory and a [`Resolution::Due`] one ends as that DUE;
//! * **liveness soundness** — every output flip/replacement that misses
//!   the observed bits of a GPR site must leave the executed output
//!   memory bit-identical to the golden run;
//! * **uninitialized reads** — the dataflow verdict must equal a direct
//!   replay of the instruction sequence (straight-line code makes the
//!   dynamic read-before-write set exactly computable);
//! * **verdict-lattice soundness** — a site the value-flow taint proves
//!   `ProvenMasked` never changes the output under flip or replacement;
//!   every dynamic SDC originates from a site whose verdict admits SDCs
//!   (`StoreReaching`/`Unknown`); every dynamic DUE from a site whose
//!   verdict admits DUEs; and every statically-proven DUE bit reproduces
//!   as a dynamic DUE of the proven kind;
//! * **determinism** — recomputing [`KernelAnalysis`] yields identical
//!   verdicts and proven-DUE bit masks.

use gpu_arch::{
    CmpOp, DeviceModel, Kernel, KernelBuilder, LaunchConfig, MemWidth, Operand, Pred, Reg,
};
use gpu_sim::{run, BitFlip, ExecStatus, FaultPlan, GlobalMemory, RunOptions, SiteClass};
use proptest::prelude::*;
use sass_analysis::{cfg::Cfg, dataflow, AnalysisContext, KernelAnalysis, Resolution, SiteVerdict};

/// One generated straight-line ALU instruction.
#[derive(Clone, Debug)]
struct GenInstr {
    op: u8,
    dst: u8,
    a: u8,
    b: u8,
    imm: u32,
    b_is_imm: bool,
}

fn gen_instr() -> impl Strategy<Value = GenInstr> {
    (0u8..9, 0u8..8, 0u8..8, 0u8..8, any::<u32>(), any::<bool>())
        .prop_map(|(op, dst, a, b, imm, b_is_imm)| GenInstr { op, dst, a, b, imm, b_is_imm })
}

/// Assemble the generated body into a runnable kernel: load the output
/// pointer from the constant bank, run the ALU body, store R0..R3 so a
/// stable subset of the computation is architecturally observable.
fn build_kernel(body: &[GenInstr]) -> Kernel {
    build_guarded_kernel(body, 0)
}

/// [`build_kernel`], with body instruction `i` guarded by `@P0` when bit
/// `i` of `guards` is set, and preceded by an `ISETP.LT P0` over its own
/// operands.
fn build_guarded_kernel(body: &[GenInstr], guards: u32) -> Kernel {
    let mut kb = KernelBuilder::new("prop");
    kb.ldp(Reg(14), 0);
    for (i, g) in body.iter().enumerate() {
        let dst = Reg(g.dst % 8);
        let a = Operand::Reg(Reg(g.a % 8));
        let b = if g.b_is_imm { Operand::Imm(g.imm) } else { Operand::Reg(Reg(g.b % 8)) };
        if guards >> i & 1 == 1 {
            kb.isetp(Pred(0), CmpOp::Lt, a, b);
            kb.if_p(Pred(0));
        }
        match g.op {
            0 => kb.mov(dst, b),
            1 => kb.iadd(dst, a, b),
            2 => kb.imul(dst, a, b),
            3 => kb.and(dst, a, b),
            4 => kb.or(dst, a, b),
            5 => kb.xor(dst, a, b),
            6 => kb.shl(dst, a, b),
            7 => kb.shr(dst, a, b),
            8 => kb.not(dst, a),
            _ => unreachable!(),
        };
    }
    for r in 0..4u8 {
        kb.stg(MemWidth::W32, Reg(14), u32::from(r) * 4, Reg(r));
    }
    kb.exit();
    kb.build().expect("generated kernel validates")
}

fn launch() -> LaunchConfig {
    LaunchConfig::new(1, 1, vec![64])
}

fn verdicts(kernel: &Kernel) -> KernelAnalysis {
    KernelAnalysis::compute(kernel, &ctx())
}

/// Analysis context matching [`run_with`]'s launch and 256-byte global
/// allocation.
fn ctx() -> AnalysisContext {
    AnalysisContext::for_launch(&launch(), 256)
}

/// `nth`-indexed pcs of the GPR-writer site stream (single thread, no
/// branches: dynamic order == program order).
fn site_pcs(kernel: &Kernel) -> Vec<u32> {
    (0..kernel.len() as u32)
        .filter(|&pc| SiteClass::GprWriter.matches(kernel.instrs()[pc as usize].op))
        .collect()
}

fn run_with(kernel: &Kernel, fault: FaultPlan) -> gpu_sim::Executed {
    let device = DeviceModel::named("v100-sim");
    let opts = RunOptions::trial(fault).ecc(false);
    run(&device, kernel, &launch(), GlobalMemory::new(256), &opts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness of the resolutions a pruned campaign acts on. The golden
    /// run's site record maps each dynamic site to its static pc, as the
    /// pruner maps it; every fault the table resolves Masked must run to
    /// completion with golden memory, and every fault it resolves as
    /// `Due(k)` must end as `ExecStatus::Due(k)`. Address flips try every
    /// bit, the other shapes the drawn one.
    #[test]
    fn pruner_resolutions_hold_dynamically(
        body in prop::collection::vec(gen_instr(), 1..24),
        guards in any::<u32>(),
        bit in 0u32..32,
    ) {
        let kernel = build_guarded_kernel(&body, guards);
        let a = verdicts(&kernel);
        let device = DeviceModel::named("v100-sim");
        let opts = RunOptions::golden().ecc(false).record_sites(true);
        let golden = run(&device, &kernel, &launch(), GlobalMemory::new(256), &opts);
        prop_assert!(golden.status.completed());
        let record = golden.sites_record.as_ref().expect("site-recorded golden run");

        let mut plans = Vec::new();
        let gpr_pcs = record
            .site_pcs
            .iter()
            .filter(|&&pc| SiteClass::GprWriter.matches(kernel.instrs()[pc as usize].op));
        for (nth, &pc) in gpr_pcs.enumerate() {
            let (nth, site) = (nth as u64, SiteClass::GprWriter);
            let flip = BitFlip::single(bit);
            plans.push((pc, a.output_flip(pc, flip.mask), FaultPlan::InstructionOutput { nth, site, flip }));
            let value = 0xDEAD_BEEF_0BAD_CAFE;
            plans.push((pc, a.output_replace(pc), FaultPlan::InstructionOutputSet { nth, site, value }));
        }
        for (nth, &pc) in record.setp_pcs.iter().enumerate() {
            plans.push((pc, a.predicate_flip(pc), FaultPlan::PredicateOutput { nth: nth as u64 }));
        }
        for (nth, &pc) in record.mem_pcs.iter().enumerate() {
            for k in 0..32 {
                let flip = BitFlip::single(k);
                let plan = FaultPlan::MemAddress { nth: nth as u64, flip };
                plans.push((pc, a.address_flip(pc, flip.mask), plan));
            }
        }
        for (pc, resolution, plan) in plans {
            let expect = match resolution {
                Resolution::Masked => ExecStatus::Completed,
                Resolution::Due(kind) => ExecStatus::Due(kind),
                Resolution::Simulate(_) => continue,
            };
            let faulty = run_with(&kernel, plan);
            prop_assert_eq!(faulty.status, expect, "{:?} @{} resolved {:?}", plan, pc, resolution);
            if resolution == Resolution::Masked {
                prop_assert!(
                    faulty.memory.raw() == golden.memory.raw(),
                    "output changed after {:?} @{} resolved Masked", plan, pc
                );
            }
        }
    }

    /// Soundness of the liveness layer on its own: a single-bit output
    /// flip (or whole-value replacement) that misses the observed bits of
    /// a GPR site must produce output memory bit-identical to the golden
    /// run. One thread and no branches make the site stream enumerable in
    /// the test: the `nth` GPR-writer site is simply the `nth` GPR-writing
    /// instruction.
    #[test]
    fn statically_masked_output_faults_do_not_change_output(
        body in prop::collection::vec(gen_instr(), 1..24),
        bit in 0u32..32,
    ) {
        let kernel = build_kernel(&body);
        let a = verdicts(&kernel);
        let golden = run_with(&kernel, FaultPlan::None);
        prop_assert!(golden.status.completed());

        let mut nth = 0u64;
        for (pc, instr) in kernel.instrs().iter().enumerate() {
            if !SiteClass::GprWriter.matches(instr.op) {
                continue;
            }
            let my_nth = nth;
            nth += 1;
            let (pc32, observed) = (pc as u32, a.dst_observed(pc as u32));
            // 32-bit writers only: the low word of the flip lands.
            if a.gpr_site(pc32) && (1u64 << bit) & observed == 0 {
                let faulty = run_with(&kernel, FaultPlan::InstructionOutput {
                    nth: my_nth,
                    site: SiteClass::GprWriter,
                    flip: BitFlip::single(bit),
                });
                prop_assert!(faulty.status.completed(), "DUE from a proven-masked flip @{pc}");
                prop_assert!(
                    faulty.memory.raw() == golden.memory.raw(),
                    "output changed after proven-masked flip of bit {bit} @{pc}"
                );
            }
            if a.gpr_site(pc32) && observed == 0 {
                let faulty = run_with(&kernel, FaultPlan::InstructionOutputSet {
                    nth: my_nth,
                    site: SiteClass::GprWriter,
                    value: 0xDEAD_BEEF_0BAD_CAFE,
                });
                prop_assert!(faulty.status.completed());
                prop_assert!(
                    faulty.memory.raw() == golden.memory.raw(),
                    "output changed after proven-masked replacement @{pc}"
                );
            }
        }
    }

    /// The dataflow uninitialized-read verdict equals a direct replay of
    /// the straight-line instruction sequence (reads before any write of
    /// the same register, in program order).
    #[test]
    fn uninit_read_verdicts_match_replay(body in prop::collection::vec(gen_instr(), 1..24)) {
        let kernel = build_kernel(&body);
        let cfg = Cfg::build(&kernel);
        let (uninit, _) = dataflow::uninitialized_reads(&kernel, &cfg);
        let mut got: Vec<(u32, Reg)> = uninit
            .into_iter()
            .map(|u| (u.pc, u.reg))
            .collect();

        let mut written = [false; 256];
        let mut expect: Vec<(u32, Reg)> = Vec::new();
        for (pc, instr) in kernel.instrs().iter().enumerate() {
            // The generated ops read their register operands and write
            // their destination: no 64-bit pairs, no MMA fragments.
            for r in instr.srcs.iter().filter_map(|s| s.reg()).filter(|r| !r.is_rz()) {
                if !written[r.0 as usize] && !expect.contains(&(pc as u32, r)) {
                    expect.push((pc as u32, r));
                }
            }
            if !instr.op.has_no_dst() && !instr.dst.is_rz() {
                written[instr.dst.0 as usize] = true;
            }
        }
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Value-flow soundness, masked side: a site whose output verdict is
    /// `ProvenMasked` admits neither an SDC nor a DUE — flip any bit or
    /// replace the whole value, the run completes with golden output.
    #[test]
    fn flow_proven_masked_sites_never_change_output(
        body in prop::collection::vec(gen_instr(), 1..24),
        bit in 0u32..32,
    ) {
        let kernel = build_kernel(&body);
        let verdicts = verdicts(&kernel);
        let golden = run_with(&kernel, FaultPlan::None);
        prop_assert!(golden.status.completed());
        for (nth, &pc) in site_pcs(&kernel).iter().enumerate() {
            if verdicts.output_verdict(pc) != SiteVerdict::ProvenMasked {
                continue;
            }
            for plan in [
                FaultPlan::InstructionOutput {
                    nth: nth as u64,
                    site: SiteClass::GprWriter,
                    flip: BitFlip::single(bit),
                },
                FaultPlan::InstructionOutputSet {
                    nth: nth as u64,
                    site: SiteClass::GprWriter,
                    value: 0xFFFF_FFFF_FFFF_FFFF,
                },
            ] {
                let faulty = run_with(&kernel, plan);
                prop_assert!(faulty.status.completed(), "DUE from ProvenMasked site @{pc}");
                prop_assert!(
                    faulty.memory.raw() == golden.memory.raw(),
                    "output changed from ProvenMasked site @{pc}"
                );
            }
        }
    }

    /// Value-flow soundness, outcome side: simulate a flip at every
    /// GPR-writer site; a dynamic SDC may only arise at a site whose
    /// verdict admits SDCs, a dynamic DUE only where the verdict admits
    /// DUEs.
    #[test]
    fn dynamic_outcomes_respect_verdict_lattice(
        body in prop::collection::vec(gen_instr(), 1..24),
        bit in 0u32..32,
    ) {
        let kernel = build_kernel(&body);
        let verdicts = verdicts(&kernel);
        let golden = run_with(&kernel, FaultPlan::None);
        prop_assert!(golden.status.completed());
        for (nth, &pc) in site_pcs(&kernel).iter().enumerate() {
            let faulty = run_with(&kernel, FaultPlan::InstructionOutput {
                nth: nth as u64,
                site: SiteClass::GprWriter,
                flip: BitFlip::single(bit),
            });
            let v = verdicts.output_verdict(pc);
            match faulty.status {
                ExecStatus::Due(kind) => prop_assert!(
                    v.due_possible(),
                    "dynamic DUE ({kind:?}) from {v:?} site @{pc}"
                ),
                ExecStatus::Completed => {
                    if faulty.memory.raw() != golden.memory.raw() {
                        prop_assert!(v.sdc_possible(), "dynamic SDC from {v:?} site @{pc}");
                    }
                }
            }
        }
    }

    /// Proven-DUE bits reproduce dynamically: flipping a bit the interval
    /// proofs mark as a DUE must abort the run with exactly the proven
    /// kind — for output flips and for effective-address flips.
    #[test]
    fn proven_due_bits_reproduce_dynamically(
        body in prop::collection::vec(gen_instr(), 1..24),
    ) {
        let kernel = build_kernel(&body);
        let verdicts = verdicts(&kernel);
        for (nth, &pc) in site_pcs(&kernel).iter().enumerate() {
            let due = verdicts.output_due_bits(pc);
            for k in (0..32).filter(|k| due.bits & (1 << k) != 0) {
                let faulty = run_with(&kernel, FaultPlan::InstructionOutput {
                    nth: nth as u64,
                    site: SiteClass::GprWriter,
                    flip: BitFlip::single(k),
                });
                prop_assert_eq!(
                    faulty.status, ExecStatus::Due(due.kind.unwrap()),
                    "proven DUE bit {} @{} did not reproduce", k, pc
                );
            }
        }
        let mem_pcs: Vec<u32> = (0..kernel.len() as u32)
            .filter(|&pc| {
                matches!(kernel.instrs()[pc as usize].op,
                    gpu_arch::Op::Ldg(_) | gpu_arch::Op::Stg(_)
                    | gpu_arch::Op::Lds(_) | gpu_arch::Op::Sts(_)
                    | gpu_arch::Op::AtomGAdd | gpu_arch::Op::AtomSAdd)
            })
            .collect();
        for (nth, &pc) in mem_pcs.iter().enumerate() {
            let due = verdicts.mem_due_bits(pc);
            for k in (0..32).filter(|k| due.bits & (1 << k) != 0) {
                let faulty = run_with(&kernel, FaultPlan::MemAddress {
                    nth: nth as u64,
                    flip: BitFlip::single(k),
                });
                prop_assert_eq!(
                    faulty.status,
                    ExecStatus::Due(due.kind.unwrap()),
                    "proven MemAddress DUE bit {} @{} did not reproduce", k, pc
                );
            }
        }
    }

    /// The verdict map is a pure function of (kernel, context):
    /// recomputation yields identical verdicts and DUE bit masks at
    /// every pc.
    #[test]
    fn verdict_map_is_deterministic(body in prop::collection::vec(gen_instr(), 1..24)) {
        let kernel = build_kernel(&body);
        let a = verdicts(&kernel);
        let b = verdicts(&kernel);
        for pc in 0..kernel.len() as u32 {
            prop_assert_eq!(a.output_verdict(pc), b.output_verdict(pc));
            prop_assert_eq!(a.predicate_verdict(pc), b.predicate_verdict(pc));
            prop_assert_eq!(a.mem_verdict(pc), b.mem_verdict(pc));
            prop_assert_eq!(a.output_due_bits(pc), b.output_due_bits(pc));
            prop_assert_eq!(a.mem_due_bits(pc), b.mem_due_bits(pc));
        }
    }
}

/// A branch back to pc 0 makes the entry block a loop header whose first
/// pass starts from the launch state, not from the back edge alone. R5
/// is 0 at the first store, so flipping bit 8 of its address lands at
/// byte 256, inside the 400-byte allocation, and the run completes; only
/// the later stores, at R5 = 200, fault under that flip.
#[test]
fn loop_back_to_pc_zero_joins_the_launch_state() {
    let source = ".kernel pc0_loop
top:
    STG.32 R5, 0, R0
    MOV R5, 200
    IADD R0, R0, 1
    ISETP.LT P0, R0, 3
    @P0 BRA top
    EXIT
";
    let kernel = gpu_arch::asm::assemble(source).expect("kernel assembles");
    let launch = LaunchConfig::new(1, 1, vec![]);
    let analysis = KernelAnalysis::compute(&kernel, &AnalysisContext::for_launch(&launch, 400));
    let device = DeviceModel::named("v100-sim");
    let fault = FaultPlan::MemAddress { nth: 0, flip: BitFlip::single(8) };
    let opts = RunOptions::trial(fault).ecc(false);
    let faulty = run(&device, &kernel, &launch, GlobalMemory::new(400), &opts);
    assert_eq!(faulty.status, ExecStatus::Completed);
    let flip = analysis.address_flip(0, 1 << 8);
    assert!(!matches!(flip, Resolution::Due(_)), "the first store's flip is no DUE");
}

/// An HMMA reads its whole A fragment: `HMMA R10, R14, R18` reads R11,
/// though no operand names it. A flip of bit 14 of `MOV R11, 0` reaches
/// the accumulator R18..R21, so the shared load through R19 faults
/// before the global load through R11. Whatever the output flip resolves
/// to must be what the run ends as.
#[test]
fn output_flip_walk_sees_mma_fragment_reads() {
    let mut kb = KernelBuilder::new("mma_fragment_walk");
    kb.shared(64);
    for r in 14..18 {
        kb.mov(Reg(r), Operand::Imm(0x3C00_3C00));
    }
    kb.mov(Reg(19), Operand::Imm(8));
    kb.mov(Reg(11), Operand::Imm(0));
    kb.hmma(Reg(10), Reg(14), Reg(18));
    kb.lds(MemWidth::W32, Reg(5), Reg(19), 0);
    kb.ldg(MemWidth::W32, Reg(6), Reg(11), 0);
    kb.exit();
    let kernel = kb.build().expect("kernel validates");
    let launch = LaunchConfig::new(1, 32, vec![]);
    let analysis = KernelAnalysis::compute(&kernel, &AnalysisContext::for_launch(&launch, 64));
    let device = DeviceModel::named("v100-sim");
    let plan = FaultPlan::InstructionOutput {
        nth: 160,
        site: SiteClass::GprWriter,
        flip: BitFlip::single(14),
    };
    let opts = RunOptions::trial(plan).ecc(false);
    let faulty = run(&device, &kernel, &launch, GlobalMemory::new(64), &opts);
    match analysis.output_flip(5, 1 << 14) {
        Resolution::Due(kind) => {
            assert_eq!(faulty.status, ExecStatus::Due(kind), "resolved Due({kind:?})")
        }
        Resolution::Masked => assert_eq!(faulty.status, ExecStatus::Completed),
        Resolution::Simulate(_) => {}
    }
}
