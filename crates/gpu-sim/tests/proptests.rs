//! Property-based tests for the execution engine and the ECC memory
//! model.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely

use gpu_arch::{
    CmpOp, DeviceModel, KernelBuilder, LaunchConfig, MemWidth, Operand, Pred, Reg, ShflMode,
    SpecialReg,
};
use gpu_sim::{
    run, run_with_sink, trigger_position, try_run_with_sink, BitFlip, ExecStatus, FaultPlan,
    GlobalMemory, RunOptions,
};
use proptest::prelude::*;
use std::sync::Arc;

fn r(i: u8) -> Reg {
    Reg(i)
}

/// A little arithmetic kernel: out[i] = (a*x[i] + b) * x[i] + i.
fn poly_kernel() -> gpu_arch::Kernel {
    let mut b = KernelBuilder::new("poly");
    b.s2r(r(0), SpecialReg::TidX);
    b.ldp(r(1), 0); // x base
    b.ldp(r(2), 1); // out base
    b.shl(r(3), r(0).into(), Operand::Imm(2));
    b.iadd(r(1), r(1).into(), r(3).into());
    b.ldg(MemWidth::W32, r(4), r(1), 0);
    b.ldp(r(5), 2); // a
    b.ldp(r(6), 3); // b
    b.ffma(r(7), r(5).into(), r(4).into(), r(6).into());
    b.i2f(r(8), r(0).into());
    b.ffma(r(7), r(7).into(), r(4).into(), r(8).into());
    b.iadd(r(2), r(2).into(), r(3).into());
    b.stg(MemWidth::W32, r(2), 0, r(7));
    b.exit();
    b.build().unwrap()
}

fn poly_setup(xs: &[f32], a: f32, bb: f32) -> (gpu_arch::Kernel, LaunchConfig, GlobalMemory) {
    let n = xs.len() as u32;
    let mut mem = GlobalMemory::new(8 * n);
    for (i, &x) in xs.iter().enumerate() {
        mem.write_f32_host(4 * i as u32, x).unwrap();
    }
    let launch = LaunchConfig::new(1, n, vec![0, 4 * n, a.to_bits(), bb.to_bits()]);
    (poly_kernel(), launch, mem)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine computes the polynomial bit-exactly for arbitrary inputs.
    #[test]
    fn poly_matches_host(
        xs in prop::collection::vec(-100f32..100.0, 1..64),
        a in -10f32..10.0,
        bb in -10f32..10.0,
    ) {
        let device = DeviceModel::named("v100-sim");
        let (k, l, m) = poly_setup(&xs, a, bb);
        let out = run(&device, &k, &l, m, &RunOptions::golden());
        prop_assert_eq!(out.status, ExecStatus::Completed);
        for (i, &x) in xs.iter().enumerate() {
            let expect = a.mul_add(x, bb).mul_add(x, i as f32);
            let got = out.memory.read_f32_host(4 * xs.len() as u32 + 4 * i as u32).unwrap();
            prop_assert_eq!(got.to_bits(), expect.to_bits());
        }
    }

    /// Executions are deterministic for arbitrary fault plans: same plan,
    /// same result, including counts.
    #[test]
    fn faulted_runs_deterministic(
        nth in 0u64..500,
        bit in 0u32..32,
        xs in prop::collection::vec(-10f32..10.0, 4..32),
    ) {
        let device = DeviceModel::named("k40c-sim");
        let (k, l, m) = poly_setup(&xs, 1.5, -0.25);
        let opts = RunOptions::trial(FaultPlan::InstructionOutput {
                nth,
                site: gpu_sim::SiteClass::GprWriter,
                flip: BitFlip::single(bit),
            }).ecc(false).watchdog(1_000_000);
        let a = run(&device, &k, &l, m.clone(), &opts);
        let b = run(&device, &k, &l, m, &opts);
        prop_assert_eq!(a.status, b.status);
        prop_assert_eq!(a.counts.total, b.counts.total);
        prop_assert_eq!(a.memory.raw(), b.memory.raw());
        prop_assert_eq!(a.fault_triggered, b.fault_triggered);
    }

    /// ECC invariant: any single-bit memory strike is fully corrected —
    /// the run completes with output identical to golden.
    #[test]
    fn ecc_corrects_any_single_bit_strike(
        byte in 0u32..256,
        bit in 0u32..32,
        at in 0u64..400,
        xs in prop::collection::vec(-10f32..10.0, 8..32),
    ) {
        let device = DeviceModel::named("v100-sim");
        let (k, l, m) = poly_setup(&xs, 2.0, 1.0);
        prop_assume!(byte < m.len());
        let golden = run(&device, &k, &l, m.clone(), &RunOptions::golden());
        let opts = RunOptions::trial(FaultPlan::GlobalMemBit { byte, bit, at, mbu: false }).ecc(true).watchdog(1_000_000);
        let out = run(&device, &k, &l, m, &opts);
        prop_assert_eq!(out.status, ExecStatus::Completed);
        prop_assert_eq!(out.memory.raw(), golden.memory.raw());
    }

    /// Without ECC, a memory strike either lands in the output comparison
    /// window or is masked — but never crashes this in-bounds kernel.
    #[test]
    fn memory_strike_never_crashes_inbounds_kernel(
        byte in 0u32..256,
        bit in 0u32..32,
        at in 0u64..400,
    ) {
        let device = DeviceModel::named("v100-sim");
        let xs: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let (k, l, m) = poly_setup(&xs, 1.0, 0.0);
        prop_assume!(byte < m.len());
        let opts = RunOptions::trial(FaultPlan::GlobalMemBit { byte, bit, at, mbu: false }).ecc(false).watchdog(1_000_000);
        let out = run(&device, &k, &l, m, &opts);
        prop_assert_eq!(out.status, ExecStatus::Completed);
    }

    /// Fast-forward invariant: for any snapshot stride and any fault plan,
    /// resuming a trial from the nearest golden snapshot reproduces the
    /// from-zero [`gpu_sim::Executed`] bit-for-bit — status, dynamic
    /// counts, output image and trigger flag.
    #[test]
    fn resume_from_any_stride_is_bit_exact(
        stride in 1u64..400,
        nth in 0u64..200,
        bit in 0u32..32,
        xs in prop::collection::vec(-10f32..10.0, 8..48),
    ) {
        let timed = bit % 2 == 0; // alternate between timed and positional plans
        let device = DeviceModel::named("v100-sim");
        let (k, l, m) = poly_setup(&xs, 1.25, -0.5);
        let golden = run(
            &device, &k, &l, m.clone(),
            &RunOptions::golden().snapshot_every(stride),
        );
        prop_assert_eq!(golden.status, ExecStatus::Completed);
        let plan = if timed {
            FaultPlan::RegisterBit {
                block: u32::MAX,
                thread: nth as u32 % l.block.count() as u32,
                reg: 7,
                flip: BitFlip::single(bit),
                at: nth % golden.counts.total,
            }
        } else {
            FaultPlan::InstructionOutput {
                nth,
                site: gpu_sim::SiteClass::GprWriter,
                flip: BitFlip::single(bit),
            }
        };
        let from_zero = run(&device, &k, &l, m.clone(), &RunOptions::trial(plan));
        let (before, _) = trigger_position(&golden.snapshots, &golden.counts, &plan);
        if let Some(snap) = before.checked_sub(1).map(|i| &golden.snapshots[i]) {
            let resumed = try_run_with_sink(
                &device, &k, &l, m,
                &RunOptions::trial(plan).resume(Some(Arc::clone(snap))),
                None,
            ).expect("snapshot precedes the fault, resume must be accepted");
            prop_assert_eq!(from_zero.status, resumed.status);
            prop_assert_eq!(from_zero.fault_triggered, resumed.fault_triggered);
            prop_assert_eq!(from_zero.counts.total, resumed.counts.total);
            prop_assert_eq!(from_zero.counts.sites, resumed.counts.sites);
            prop_assert_eq!(from_zero.memory.raw(), resumed.memory.raw());
        }
    }

    /// A guarded loop kernel terminates for any trip count, and its
    /// dynamic instruction count grows monotonically with the bound.
    #[test]
    fn loop_counts_monotone(n1 in 1u32..60, n2 in 1u32..60) {
        fn loop_kernel(n: u32) -> gpu_arch::Kernel {
            let mut b = KernelBuilder::new("loop");
            b.mov(r(0), Operand::Imm(0));
            b.label("top");
            b.iadd(r(0), r(0).into(), Operand::Imm(1));
            b.isetp(Pred(0), CmpOp::Lt, r(0).into(), Operand::Imm(n));
            b.if_p(Pred(0)).bra("top");
            b.exit();
            b.build().unwrap()
        }
        let device = DeviceModel::named("k40c-sim");
        let launch = LaunchConfig::new(1, 1, vec![]);
        let a = run(&device, &loop_kernel(n1), &launch, GlobalMemory::new(4), &RunOptions::golden());
        let b = run(&device, &loop_kernel(n2), &launch, GlobalMemory::new(4), &RunOptions::golden());
        prop_assert_eq!(a.status, ExecStatus::Completed);
        if n1 < n2 {
            prop_assert!(a.counts.total < b.counts.total);
        }
    }
}

/// One step of [`divergent_kernel`]'s loop body.
#[derive(Clone, Copy, Debug)]
enum BodyItem {
    /// Lane-local arithmetic on the accumulator R10.
    Alu(u32),
    /// A global load of the lane's own word, guarded on the iteration.
    GuardedLoad(u32),
    /// A global store of the accumulator, guarded on the thread index.
    GuardedStore(u32),
    /// A shared store and reload through the lane's shared word.
    Shared,
    /// A global atomic add to one word every lane shares.
    Atomic,
    /// A forward branch over the next item, taken on the accumulator.
    Skip(u32),
    /// Lanes whose thread index has a bit of `k` set branch over two ALU
    /// ops, and every lane of the warp meets the others at a butterfly
    /// shuffle of the accumulator, which waits for all of them. Only for
    /// loops every lane runs equally often: a lane that leaves the loop
    /// first would leave the others waiting.
    Shuffle(u32),
    /// A load, update and store of one word of the lane's private
    /// eight-word global slice, picked by the iteration.
    Slice(u32),
    /// A shared store to the lane's word, then a load of its neighbour's
    /// (thread `tid ^ 1`), with no barrier between.
    Neighbour,
    /// A global store of the accumulator to the word lanes `2k` and
    /// `2k + 1` share.
    PairStore,
    /// A block barrier inside the loop.
    Bar,
    /// An exit out of the loop, taken on about one in `2^k` trips.
    MaybeExit(u32),
    /// Every fourth lane (`tid % 4 == 3`) runs 16 ALU ops, loads the
    /// mailbox word, which holds the address another lane left there (at
    /// first 0, the first data word), loads the word at that address,
    /// stores it plus the accumulator back there and folds the address
    /// into the accumulator. The other lanes store into the mailbox word the
    /// address of their slot word for the iteration, at a higher pc but in
    /// fewer instructions. So in lane order a store to the mailbox word often
    /// overwrites an address no lane read, while a window issues the
    /// reading lanes' loads first and reads and writes through that
    /// address: accesses lane order never makes, which the window's
    /// rollback must undo.
    Mailbox,
}

fn body_item() -> impl Strategy<Value = BodyItem> {
    prop_oneof![
        (1u32..7).prop_map(BodyItem::Alu),
        (1u32..4).prop_map(BodyItem::GuardedLoad),
        (1u32..4).prop_map(BodyItem::GuardedStore),
        Just(BodyItem::Shared),
        Just(BodyItem::Atomic),
        (1u32..4).prop_map(BodyItem::Skip),
        Just(BodyItem::Mailbox),
    ]
}

/// A loop whose trip count per lane is `base + (tid & tid_mask) +
/// (data[tid] & data_mask)`, its body `items`, then an optional barrier
/// and a final store. Global memory holds `data` (one word per thread),
/// the output words, one shared atomic counter and, for
/// [`BodyItem::Mailbox`], the mailbox word and 32 slot words per thread
/// after it ([`memory_len`]); the address registers are R4 (the lane's
/// data word), R11 (its output word), R14 (its shared word) and R15 (the
/// counter).
fn divergent_kernel(
    items: &[BodyItem],
    tid_mask: u32,
    data_mask: u32,
    base: u32,
    bar: bool,
) -> gpu_arch::Kernel {
    loop_kernel(items, tid_mask, data_mask, base, bar, None)
}

/// [`divergent_kernel`], with `tail: Some((hot, extra))` adding `extra`
/// trips to thread `hot`'s count and half as many to thread `hot ^ 1`'s
/// (through guarded `IADD`s after the count is formed), so once the
/// others have left the loop those two lanes of one warp run on alone,
/// then `hot` by itself.
fn loop_kernel(
    items: &[BodyItem],
    tid_mask: u32,
    data_mask: u32,
    base: u32,
    bar: bool,
    tail: Option<(u32, u32)>,
) -> gpu_arch::Kernel {
    let imm = Operand::Imm;
    let mut b = KernelBuilder::new("divergent");
    b.shared(128 * 4);
    b.s2r(r(0), SpecialReg::TidX);
    b.ldp(r(1), 0);
    b.ldp(r(2), 1);
    b.ldp(r(15), 2);
    b.shl(r(3), r(0).into(), imm(2));
    b.iadd(r(4), r(1).into(), r(3).into());
    b.iadd(r(11), r(2).into(), r(3).into());
    b.mov(r(14), r(3).into());
    b.ldg(MemWidth::W32, r(5), r(4), 0);
    b.and(r(6), r(5).into(), imm(data_mask));
    b.and(r(7), r(0).into(), imm(tid_mask));
    b.iadd(r(8), r(6).into(), r(7).into());
    b.iadd(r(8), r(8).into(), imm(base));
    if let Some((hot, extra)) = tail {
        b.isetp(Pred(3), CmpOp::Eq, r(0).into(), imm(hot));
        b.if_p(Pred(3)).iadd(r(8), r(8).into(), imm(extra));
        b.isetp(Pred(3), CmpOp::Eq, r(0).into(), imm(hot ^ 1));
        b.if_p(Pred(3)).iadd(r(8), r(8).into(), imm(extra / 2));
    }
    b.mov(r(9), imm(0));
    b.mov(r(10), r(0).into());
    b.label("top");
    b.isetp(Pred(0), CmpOp::Ge, r(9).into(), r(8).into());
    b.if_p(Pred(0)).bra("done");
    for (i, item) in items.iter().enumerate() {
        match *item {
            BodyItem::Alu(k) => {
                b.imad(r(10), r(10).into(), imm(k), r(9).into());
                b.xor(r(10), r(10).into(), r(0).into());
            }
            BodyItem::GuardedLoad(k) => {
                b.and(r(12), r(9).into(), imm(k));
                b.isetp(Pred(1), CmpOp::Eq, r(12).into(), imm(0));
                b.if_p(Pred(1)).ldg(MemWidth::W32, r(13), r(4), 0);
                b.iadd(r(10), r(10).into(), r(13).into());
            }
            BodyItem::GuardedStore(k) => {
                b.and(r(12), r(0).into(), imm(k));
                b.isetp(Pred(1), CmpOp::Ne, r(12).into(), imm(0));
                b.if_p(Pred(1)).stg(MemWidth::W32, r(11), 0, r(10));
            }
            BodyItem::Shared => {
                b.sts(MemWidth::W32, r(14), 0, r(10));
                b.shl(r(12), r(9).into(), imm(1));
                b.lds(MemWidth::W32, r(13), r(14), 0);
                b.iadd(r(10), r(13).into(), r(12).into());
            }
            BodyItem::Atomic => {
                b.atomg_add(r(13), r(15), 0, r(0));
                b.xor(r(10), r(10).into(), r(13).into());
            }
            BodyItem::Skip(k) => {
                b.and(r(12), r(10).into(), imm(k));
                b.isetp(Pred(2), CmpOp::Eq, r(12).into(), imm(0));
                b.if_p(Pred(2)).bra(format!("skip{i}"));
                b.iadd(r(10), r(10).into(), imm(k));
                b.label(format!("skip{i}"));
            }
            BodyItem::Shuffle(k) => {
                b.and(r(12), r(0).into(), imm(k));
                b.isetp(Pred(2), CmpOp::Ne, r(12).into(), imm(0));
                b.if_p(Pred(2)).bra(format!("sync{i}"));
                b.imad(r(10), r(10).into(), imm(k), r(9).into());
                b.xor(r(10), r(10).into(), r(0).into());
                b.label(format!("sync{i}"));
                b.shfl(ShflMode::Bfly, r(10), r(10), imm(k));
            }
            BodyItem::Slice(k) => {
                b.and(r(12), r(9).into(), imm(7));
                b.shl(r(12), r(12).into(), imm(2));
                b.shl(r(13), r(0).into(), imm(5));
                b.iadd(r(12), r(12).into(), r(13).into());
                b.ldp(r(13), 3);
                b.iadd(r(12), r(12).into(), r(13).into());
                b.ldg(MemWidth::W32, r(13), r(12), 0);
                b.imad(r(13), r(13).into(), imm(k), r(10).into());
                b.stg(MemWidth::W32, r(12), 0, r(13));
                b.xor(r(10), r(10).into(), r(13).into());
            }
            BodyItem::Neighbour => {
                b.sts(MemWidth::W32, r(14), 0, r(10));
                b.xor(r(12), r(0).into(), imm(1));
                b.shl(r(12), r(12).into(), imm(2));
                b.lds(MemWidth::W32, r(13), r(12), 0);
                b.iadd(r(10), r(10).into(), r(13).into());
            }
            BodyItem::PairStore => {
                b.shr(r(12), r(0).into(), imm(1));
                b.shl(r(12), r(12).into(), imm(2));
                b.ldp(r(13), 4);
                b.iadd(r(12), r(12).into(), r(13).into());
                b.stg(MemWidth::W32, r(12), 0, r(10));
            }
            BodyItem::Bar => {
                b.bar();
            }
            BodyItem::MaybeExit(k) => {
                b.shr(r(12), r(10).into(), imm(3));
                b.and(r(12), r(12).into(), imm((1 << k) - 1));
                b.isetp(Pred(2), CmpOp::Eq, r(12).into(), imm(0));
                b.if_p(Pred(2)).exit();
            }
            BodyItem::Mailbox => {
                b.and(r(12), r(0).into(), imm(3));
                b.isetp(Pred(1), CmpOp::Ne, r(12).into(), imm(3));
                b.if_p(Pred(1)).bra(format!("post{i}"));
                for k in 1..17 {
                    b.imad(r(10), r(10).into(), imm(k), r(9).into());
                }
                b.ldg(MemWidth::W32, r(13), r(15), 4);
                b.ldg(MemWidth::W32, r(12), r(13), 0);
                b.iadd(r(12), r(12).into(), r(10).into());
                b.stg(MemWidth::W32, r(13), 0, r(12));
                b.xor(r(10), r(10).into(), r(13).into());
                b.bra(format!("posted{i}"));
                b.label(format!("post{i}"));
                b.shl(r(12), r(0).into(), imm(5));
                b.and(r(13), r(9).into(), imm(31));
                b.iadd(r(12), r(12).into(), r(13).into());
                b.shl(r(12), r(12).into(), imm(2));
                b.iadd(r(12), r(12).into(), r(15).into());
                b.iadd(r(12), r(12).into(), imm(8));
                b.stg(MemWidth::W32, r(15), 4, r(12));
                b.label(format!("posted{i}"));
            }
        }
    }
    b.iadd(r(9), r(9).into(), imm(1));
    b.bra("top");
    b.label("done");
    if bar {
        b.bar();
    }
    b.stg(MemWidth::W32, r(11), 0, r(10));
    b.exit();
    b.build().unwrap()
}

/// The global memory [`loop_kernel`] needs on `nthreads` threads: the
/// data and output words and the counter, and the mailbox word and slot
/// words when `items` hold a [`BodyItem::Mailbox`].
fn memory_len(items: &[BodyItem], nthreads: u32) -> u32 {
    let mailbox = items.iter().any(|i| matches!(i, BodyItem::Mailbox));
    8 * nthreads + 4 + if mailbox { 4 + 128 * nthreads } else { 0 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A divergent turn whose lanes sit at several pcs may issue inside a
    /// window when no sink is attached, and in lane order a run at a time
    /// otherwise; a sink makes every lane issue on its own, in lane
    /// order. The two runs must be the same run: on
    /// one- and two-warp blocks, per-lane trip counts from the thread
    /// index and from data, guarded loads, stores and atomics with
    /// lane-local ops between them, and a register strike that can make
    /// one lane's address misaligned, so a DUE lands in the middle of a
    /// turn.
    #[test]
    fn divergent_turns_match_lane_order(
        items in prop::collection::vec(body_item(), 1..6),
        nthreads in 1u32..65,
        tid_mask in 0u32..8,
        data_mask in 0u32..8,
        base in 0u32..3,
        bar in any::<bool>(),
        data in prop::collection::vec(any::<u32>(), 64),
        struck in any::<bool>(),
        strike in (0u32..64, 0usize..5, 0u32..12, any::<u64>()),
    ) {
        let device = DeviceModel::named("k40c-sim");
        let kernel = divergent_kernel(&items, tid_mask, data_mask, base, bar);
        let out = 4 * nthreads;
        let launch = LaunchConfig::new(1, nthreads, vec![0, out, 2 * out]);
        let mut memory = GlobalMemory::new(memory_len(&items, nthreads));
        for (i, &v) in data.iter().take(nthreads as usize).enumerate() {
            memory.write_u32_host(4 * i as u32, v).unwrap();
        }
        let golden = run(&device, &kernel, &launch, memory.clone(), &RunOptions::golden());
        prop_assert_eq!(golden.status, ExecStatus::Completed);
        let (thread, reg, bit, at) = strike;
        let plan = if struck {
            FaultPlan::RegisterBit {
                block: 0,
                thread: thread % nthreads,
                reg: [4, 11, 14, 8, 10][reg],
                flip: BitFlip::single(bit),
                at: at % golden.counts.total,
            }
        } else {
            FaultPlan::None
        };
        let opts = RunOptions::trial(plan).ecc(false).watchdog(4 * golden.counts.total + 64);
        let plain = run(&device, &kernel, &launch, memory.clone(), &opts);
        let mut sink = obs::CountingSink::default();
        let traced = run_with_sink(&device, &kernel, &launch, memory, &opts, Some(&mut sink));
        prop_assert_eq!(plain.status, traced.status);
        prop_assert_eq!(plain.fault_triggered, traced.fault_triggered);
        prop_assert_eq!(plain.memory.raw(), traced.memory.raw());
        let (a, b) = (&plain.counts, &traced.counts);
        prop_assert_eq!(a.total, b.total);
        prop_assert_eq!(a.per_unit, b.per_unit);
        prop_assert_eq!(a.per_mix, b.per_mix);
        prop_assert_eq!(&a.warp_latency, &b.warp_latency);
        prop_assert_eq!(&a.warp_instrs, &b.warp_instrs);
        prop_assert_eq!(a.sites, b.sites);
    }

    /// A capturing run may open windows too: the same kernels and
    /// strikes as above, each run capturing snapshots every `stride`
    /// instructions and building an exit table, the plain run with
    /// windows and the sink-attached run lane by lane. The two must be
    /// the same run, rounds included, with every snapshot's full state
    /// and the exit table bit-identical.
    #[test]
    fn capturing_runs_match_lane_order(
        items in prop::collection::vec(body_item(), 1..6),
        nthreads in 1u32..65,
        tid_mask in 0u32..8,
        data_mask in 0u32..8,
        base in 0u32..3,
        bar in any::<bool>(),
        data in prop::collection::vec(any::<u32>(), 64),
        struck in any::<bool>(),
        strike in (0u32..64, 0usize..5, 0u32..12, any::<u64>()),
        stride in 32u64..600,
    ) {
        let device = DeviceModel::named("k40c-sim");
        let kernel = divergent_kernel(&items, tid_mask, data_mask, base, bar);
        let out = 4 * nthreads;
        let launch = LaunchConfig::new(1, nthreads, vec![0, out, 2 * out]);
        let mut memory = GlobalMemory::new(memory_len(&items, nthreads));
        for (i, &v) in data.iter().take(nthreads as usize).enumerate() {
            memory.write_u32_host(4 * i as u32, v).unwrap();
        }
        let golden = run(&device, &kernel, &launch, memory.clone(), &RunOptions::golden());
        prop_assert_eq!(golden.status, ExecStatus::Completed);
        let (thread, reg, bit, at) = strike;
        let plan = if struck {
            FaultPlan::RegisterBit {
                block: 0,
                thread: thread % nthreads,
                reg: [4, 11, 14, 8, 10][reg],
                flip: BitFlip::single(bit),
                at: at % golden.counts.total,
            }
        } else {
            FaultPlan::None
        };
        let opts = RunOptions::trial(plan)
            .ecc(false)
            .watchdog(4 * golden.counts.total + 64)
            .snapshot_every(stride);
        let plain = run(&device, &kernel, &launch, memory.clone(), &opts);
        let mut sink = obs::CountingSink::default();
        let traced = run_with_sink(&device, &kernel, &launch, memory, &opts, Some(&mut sink));
        prop_assert_eq!((traced.windows, traced.window_rollbacks), (0, 0));
        prop_assert_eq!(plain.status, traced.status);
        prop_assert_eq!(plain.fault_triggered, traced.fault_triggered);
        prop_assert_eq!(plain.memory.raw(), traced.memory.raw());
        prop_assert_eq!(&plain.counts, &traced.counts);
        prop_assert_eq!(plain.rounds, traced.rounds);
        prop_assert!(plain.snapshots == traced.snapshots, "snapshot states differ");
        prop_assert!(plain.exit_table == traced.exit_table, "exit tables differ");
    }
}

/// `x` folded into the last quarter of `0..n`: with `n` the golden run's
/// count of a trigger's counter, a point in the lone tail.
fn in_tail(n: u64, x: u64) -> u64 {
    n.saturating_sub(1 + x % (n / 4 + 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Two lanes of one warp, then one, run on alone for hundreds of
    /// instructions after every other lane of their block (up to four
    /// warps, MERGESORT's shape) has left the loop (exited, or waiting at
    /// a barrier), with a trigger or the watchdog limit inside that tail:
    /// register, pc and memory strikes at `at`; output, address and
    /// predicate flips at `nth`; transient and stuck-at memory-queue
    /// plans; scheduler-priority and active-mask plans on any of the
    /// block's warps; and a strike on a block that is not resident, which
    /// fires and changes nothing. A sink makes every lane issue on its
    /// own, in lane order. The run without one must be the same run,
    /// rounds included, and a scheduler or mask plan must fire within a
    /// round of its `at`.
    ///
    /// Asked for a hand-off and given an exit golden, the two must hand
    /// off at the same dynamic count, and a plan whose `at` lies past the
    /// first round must be handed off: the round top before the one its
    /// fault fires in is within a round of the trigger. A sink turns the
    /// early exits off, so the exit is checked two other ways: the strike
    /// that changes nothing rejoins at the first golden snapshot after
    /// its `at`, with a hand-off and without, and the run from zero exits
    /// where the run resumed from golden's nearest snapshot does.
    #[test]
    fn lone_lane_matches_lane_order_in_the_tail(
        items in prop::collection::vec(body_item(), 1..5),
        nthreads in 1u32..129,
        tid_mask in 0u32..4,
        data_mask in 0u32..2,
        base in 0u32..3,
        bar in any::<bool>(),
        hot in any::<u32>(),
        extra in 20u32..120,
        data in prop::collection::vec(any::<u32>(), 128),
        family in 0usize..15,
        x in any::<u64>(),
        detail in (0u32..32, 0usize..5, any::<bool>()),
        tight in 0u32..4,
        stride in 32u64..400,
    ) {
        use gpu_sim::{MemQueueEffect, Persistence, SiteClass};
        let device = DeviceModel::named("k40c-sim");
        let hot = hot % nthreads;
        let kernel = loop_kernel(&items, tid_mask, data_mask, base, bar, Some((hot, extra)));
        let out = 4 * nthreads;
        let launch = LaunchConfig::new(1, nthreads, vec![0, out, 2 * out]);
        let mut memory = GlobalMemory::new(memory_len(&items, nthreads));
        for (i, &v) in data.iter().take(nthreads as usize).enumerate() {
            memory.write_u32_host(4 * i as u32, v).unwrap();
        }
        let capture = RunOptions::golden().ecc(false).snapshot_every(stride);
        let golden = Arc::new(run(&device, &kernel, &launch, memory.clone(), &capture));
        prop_assert_eq!(golden.status, ExecStatus::Completed);
        let (bit, reg, stuck) = detail;
        let persist = if stuck { Persistence::StuckAt } else { Persistence::Transient };
        let flip = BitFlip::single(bit);
        let sites = golden.counts.sites;
        let at = in_tail(golden.counts.total, x);
        let warp = if x & 2 == 0 { hot / 32 } else { (x >> 8) as u32 % nthreads.div_ceil(32) };
        let plan = match family {
            0 => FaultPlan::None,
            1 => FaultPlan::RegisterBit {
                block: 0,
                thread: if x & 1 == 0 { hot } else { (x >> 8) as u32 % nthreads },
                reg: [4, 11, 14, 8, 10][reg],
                flip,
                at,
            },
            2 => FaultPlan::Pc { at, flip: BitFlip::single(bit % 6) },
            3 => FaultPlan::GlobalMemBit { byte: (x >> 16) as u32 % memory.len(), bit, at, mbu: false },
            4 => FaultPlan::InstructionOutput {
                nth: in_tail(sites.gpr_writers, x),
                site: SiteClass::GprWriter,
                flip,
            },
            5 => FaultPlan::MemAddress { nth: in_tail(sites.mem_ops, x), flip },
            6 => FaultPlan::PredicateOutput { nth: in_tail(sites.setp, x) },
            7 | 8 => FaultPlan::MemQueue {
                nth: in_tail(sites.mem_ops, x),
                effect: [MemQueueEffect::Flag, MemQueueEffect::Drop, MemQueueEffect::Replay][reg % 3],
                persist,
            },
            9 | 10 => FaultPlan::SchedulerPriority { at, warp, persist },
            11 | 12 => FaultPlan::ActiveMask { at, warp, flip: BitFlip::single(hot % 32), persist },
            _ => FaultPlan::RegisterBit { block: 1, thread: hot, reg: 10, flip, at },
        };
        let timed = matches!(family, 1 | 2 | 3 | 9..);
        let limit = if tight == 0 || family == 0 { at } else { 4 * golden.counts.total + 64 };
        let opts = RunOptions::trial(plan).ecc(false).watchdog(limit);

        let plain = run(&device, &kernel, &launch, memory.clone(), &opts);
        let mut sink = obs::RecordingSink::new();
        let traced = run_with_sink(&device, &kernel, &launch, memory.clone(), &opts, Some(&mut sink));
        prop_assert_eq!(plain.status, traced.status);
        prop_assert_eq!(plain.fault_triggered, traced.fault_triggered);
        prop_assert_eq!(plain.memory.raw(), traced.memory.raw());
        prop_assert_eq!(&plain.counts, &traced.counts);
        prop_assert_eq!(plain.rounds, traced.rounds);
        // A scheduler or mask plan fires at the first round top at or
        // past its `at`, and a round retires at most one instruction per
        // thread.
        let fired = sink.events.iter().find_map(|e| match e {
            obs::TraceEvent::FaultInjected { idx, .. } => Some(*idx),
            _ => None,
        });
        if let (9..=12, Some(idx)) = (family, fired) {
            prop_assert!((at..at + u64::from(nthreads)).contains(&idx));
        }
        // A strike on a block that is not resident fires and changes
        // nothing, so the trial rejoins at golden's first snapshot past
        // it, if the watchdog leaves room for the rest of golden's run.
        let rejoin = golden.snapshots.iter().find(|s| s.dyn_count() > at).map(|s| {
            gpu_sim::BlockExit {
                block: 0,
                skipped_instrs: golden.counts.total - s.dyn_count(),
                kind: gpu_sim::ExitKind::Rejoin,
            }
        });
        let noop = family >= 13 && golden.counts.total <= limit;
        if noop {
            let exit = opts.clone().exit_through(Some(Arc::clone(&golden)));
            let ended = run(&device, &kernel, &launch, memory.clone(), &exit);
            prop_assert_eq!(ended.exit, rejoin);
        }

        let relay = opts.exit_through(Some(Arc::clone(&golden))).hand_off(true);
        let plain = run(&device, &kernel, &launch, memory.clone(), &relay);
        let mut sink = obs::CountingSink::default();
        let traced = run_with_sink(&device, &kernel, &launch, memory.clone(), &relay, Some(&mut sink));
        prop_assert_eq!(plain.status, traced.status);
        prop_assert_eq!(plain.fault_triggered, traced.fault_triggered);
        prop_assert_eq!(plain.memory.raw(), traced.memory.raw());
        prop_assert_eq!(&plain.counts, &traced.counts);
        let handoff = |e: &gpu_sim::Executed| e.handoff.as_ref().map(|s| s.dyn_count());
        prop_assert_eq!(handoff(&plain), handoff(&traced));
        if plain.exit.is_none() {
            prop_assert_eq!(plain.rounds, traced.rounds);
        }
        if plain.fault_triggered && timed && at >= u64::from(nthreads) {
            prop_assert!(plain.handoff.is_some());
        }
        if noop {
            prop_assert_eq!(plain.exit, rejoin);
        }
        // A snapshot past the watchdog limit is refused: the run from
        // zero trips before it.
        let (before, _) = trigger_position(&golden.snapshots, &golden.counts, &plan);
        let nearest = before.checked_sub(1).map(|i| &golden.snapshots[i]);
        if let Some(snap) = nearest {
            let relay = relay.resume(Some(Arc::clone(snap)));
            let resumed = try_run_with_sink(&device, &kernel, &launch, memory, &relay, None);
            let refused = matches!(resumed, Err(gpu_sim::SimError::ResumeConflict(_)));
            prop_assert_eq!(refused, snap.dyn_count() > limit);
            if let Ok(resumed) = resumed {
                prop_assert_eq!(plain.status, resumed.status);
                prop_assert_eq!(plain.fault_triggered, resumed.fault_triggered);
                prop_assert_eq!(plain.memory.raw(), resumed.memory.raw());
                prop_assert_eq!(&plain.counts, &resumed.counts);
                prop_assert_eq!(plain.exit, resumed.exit);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hidden fetch and memory-queue plans, the ones that hang: stuck-at
    /// and transient fetch plans (a stale replay, and an opcode flip that
    /// stays inside the kernel or leaves it) at any dynamic count of the
    /// golden run, and stuck-at memory-queue plans (replay, drop, flag)
    /// at any memory op, on one- and two-warp blocks, under a watchdog
    /// that may trip anywhere in the first two golden lengths or one that
    /// leaves a hang four of them. Some loops end in a warp shuffle that
    /// lanes on two paths meet at, so a fetch plan can move part of a
    /// warp onto a warp-synchronous op. A sink makes every lane fetch and
    /// issue on its own, in lane order. The run without one must be the
    /// same run, rounds included.
    #[test]
    fn stuck_at_plans_match_lane_order(
        items in prop::collection::vec(body_item(), 1..6),
        nthreads in 1u32..65,
        masks in (0u32..8, 0u32..8),
        base in 0u32..3,
        bar in any::<bool>(),
        data in prop::collection::vec(any::<u32>(), 64),
        family in 0usize..9,
        detail in (any::<u64>(), 0u32..5, any::<bool>()),
        shuffle in (any::<bool>(), 1u32..32),
    ) {
        use gpu_sim::{FetchEffect, MemQueueEffect, Persistence};
        let device = DeviceModel::named("k40c-sim");
        let (x, bit, tight) = detail;
        // A shuffle needs every lane to run the loop equally often.
        let mut items = items;
        let shuffle = shuffle.0.then_some(BodyItem::Shuffle(shuffle.1));
        let (tid_mask, data_mask) = if shuffle.is_some() { (0, 0) } else { masks };
        items.extend(shuffle);
        let kernel = divergent_kernel(&items, tid_mask, data_mask, base, bar);
        let out = 4 * nthreads;
        let launch = LaunchConfig::new(1, nthreads, vec![0, out, 2 * out]);
        let mut memory = GlobalMemory::new(memory_len(&items, nthreads));
        for (i, &v) in data.iter().take(nthreads as usize).enumerate() {
            memory.write_u32_host(4 * i as u32, v).unwrap();
        }
        let golden = run(&device, &kernel, &launch, memory.clone(), &RunOptions::golden());
        prop_assert_eq!(golden.status, ExecStatus::Completed);
        let (total, mem_ops) = (golden.counts.total, golden.counts.sites.mem_ops);
        // Bits below 5 flip a pc to another one inside the kernel or just
        // past it; bit 12 and up take every pc outside.
        let effect = [
            FetchEffect::StaleReplay,
            FetchEffect::OpcodeFlip(BitFlip::single(bit)),
            FetchEffect::OpcodeFlip(BitFlip::single(12 + bit)),
        ];
        let persist = [Persistence::StuckAt, Persistence::Transient];
        let queue = [MemQueueEffect::Replay, MemQueueEffect::Drop, MemQueueEffect::Flag];
        let plan = match family {
            0..=5 => FaultPlan::Fetch { at: x % total, effect: effect[family / 2], persist: persist[family % 2] },
            _ => FaultPlan::MemQueue { nth: x % mem_ops, effect: queue[family - 6], persist: Persistence::StuckAt },
        };
        let limit = if tight { 1 + (x >> 32) % (2 * total) } else { 4 * total + 64 };
        let opts = RunOptions::trial(plan).ecc(false).watchdog(limit);

        let plain = run(&device, &kernel, &launch, memory.clone(), &opts);
        let mut sink = obs::RecordingSink::new();
        let traced = run_with_sink(&device, &kernel, &launch, memory, &opts, Some(&mut sink));
        prop_assert_eq!(plain.status, traced.status);
        prop_assert_eq!(plain.fault_triggered, traced.fault_triggered);
        prop_assert_eq!(plain.memory.raw(), traced.memory.raw());
        prop_assert_eq!(&plain.counts, &traced.counts);
        prop_assert_eq!(plain.rounds, traced.rounds);
    }
}

/// A loop body item whose lanes touch only their own words.
fn private_item() -> impl Strategy<Value = BodyItem> {
    prop_oneof![
        (1u32..7).prop_map(BodyItem::Alu),
        (1u32..4).prop_map(BodyItem::GuardedLoad),
        (1u32..4).prop_map(BodyItem::GuardedStore),
        Just(BodyItem::Shared),
        (1u32..4).prop_map(BodyItem::Skip),
        (1u32..8).prop_map(BodyItem::Slice),
        Just(BodyItem::Bar),
        (3u32..7).prop_map(BodyItem::MaybeExit),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lanes of a divergent block that sit at one pc in different rounds
    /// may issue together when nothing can tell the order; a sink makes
    /// every lane issue on its own, in lane order. The two runs must be
    /// the same run, rounds included: on 8 to 64 threads over a loop of
    /// several pcs, with per-lane trip counts from the thread index and
    /// from data, private global slices, barriers and exits inside the
    /// loop, and in some cases one item of cross-lane traffic (a shared
    /// round trip between neighbouring lanes, a global atomic on one
    /// counter, or two lanes storing to one word). Triggers land inside
    /// the issue: a strike on an address register (a DUE mid-loop), a
    /// latent global-memory strike, and the watchdog limit.
    ///
    /// Asked for a hand-off and given an exit golden, the two must also
    /// hand off at the same dynamic count; a sink turns the early exits
    /// off, so rounds are compared only where the plain run ran to the
    /// end.
    #[test]
    fn windows_match_lane_order_on_divergent_kernels(
        items in prop::collection::vec(private_item(), 2..6),
        cross in (0usize..6, 0usize..8),
        nthreads in 8u32..65,
        tid_mask in 0u32..8,
        data_mask in 0u32..8,
        base in 0u32..3,
        bar in any::<bool>(),
        data in prop::collection::vec(any::<u32>(), 64),
        family in 0usize..4,
        strike in (0u32..64, 0usize..4, 0u32..12, any::<u64>()),
        tight in 0u32..4,
        stride in 32u64..600,
    ) {
        let mut items = items;
        let (kind, pos) = cross;
        let traffic = [BodyItem::Neighbour, BodyItem::Atomic, BodyItem::PairStore];
        if let Some(&item) = traffic.get(kind) {
            items.insert(pos % (items.len() + 1), item);
        }
        let device = DeviceModel::named("k40c-sim");
        let kernel = divergent_kernel(&items, tid_mask, data_mask, base, bar);
        let n = nthreads;
        // Data, outputs, the counter, the private slices, the pair words.
        let (out, counter, slices, pairs) = (4 * n, 8 * n, 8 * n + 4, 40 * n + 4);
        let launch = LaunchConfig::new(1, n, vec![0, out, counter, slices, pairs]);
        let mut memory = GlobalMemory::new(pairs + 2 * n + 4);
        for (i, &v) in data.iter().take(n as usize).enumerate() {
            memory.write_u32_host(4 * i as u32, v).unwrap();
        }
        let capture = RunOptions::golden().ecc(false).snapshot_every(stride);
        let golden = Arc::new(run(&device, &kernel, &launch, memory.clone(), &capture));
        prop_assert_eq!(golden.status, ExecStatus::Completed);
        let (thread, reg, bit, x) = strike;
        let at = x % golden.counts.total;
        let plan = match family {
            1 | 2 => FaultPlan::RegisterBit {
                block: 0,
                thread: thread % n,
                reg: [4, 11, 14, 15][reg],
                flip: BitFlip::single(bit),
                at,
            },
            3 => FaultPlan::GlobalMemBit { byte: (x >> 20) as u32 % memory.len(), bit, at, mbu: false },
            _ => FaultPlan::None,
        };
        let limit = if tight == 0 { at.max(1) } else { 4 * golden.counts.total + 64 };
        let opts = RunOptions::trial(plan).ecc(false).watchdog(limit);

        let plain = run(&device, &kernel, &launch, memory.clone(), &opts);
        let mut sink = obs::CountingSink::default();
        let traced = run_with_sink(&device, &kernel, &launch, memory.clone(), &opts, Some(&mut sink));
        prop_assert_eq!(plain.status, traced.status);
        prop_assert_eq!(plain.fault_triggered, traced.fault_triggered);
        prop_assert_eq!(plain.memory.raw(), traced.memory.raw());
        prop_assert_eq!(&plain.counts, &traced.counts);
        prop_assert_eq!(plain.rounds, traced.rounds);

        let relay = opts.exit_through(Some(Arc::clone(&golden))).hand_off(true);
        let plain = run(&device, &kernel, &launch, memory.clone(), &relay);
        let mut sink = obs::CountingSink::default();
        let traced = run_with_sink(&device, &kernel, &launch, memory, &relay, Some(&mut sink));
        prop_assert_eq!(plain.status, traced.status);
        prop_assert_eq!(plain.fault_triggered, traced.fault_triggered);
        prop_assert_eq!(plain.memory.raw(), traced.memory.raw());
        prop_assert_eq!(&plain.counts, &traced.counts);
        let handoff = |e: &gpu_sim::Executed| e.handoff.as_ref().map(|s| s.dyn_count());
        prop_assert_eq!(handoff(&plain), handoff(&traced));
        if plain.exit.is_none() {
            prop_assert_eq!(plain.rounds, traced.rounds);
        }
    }
}

/// The windows the parity proptest above compares do open: on a
/// divergent loop over private words every window commits, and each
/// item of cross-lane traffic makes some window roll back. Both runs
/// are the same run as the sink-attached one, which opens none.
#[test]
fn windows_open_on_private_loops_and_roll_back_on_shared_words() {
    use BodyItem::*;
    let device = DeviceModel::named("k40c-sim");
    let n = 48;
    let (out, counter, slices, pairs) = (4 * n, 8 * n, 8 * n + 4, 40 * n + 4);
    let launch = LaunchConfig::new(1, n, vec![0, out, counter, slices, pairs]);
    let mut memory = GlobalMemory::new(pairs + 2 * n + 4);
    for i in 0..n {
        memory.write_u32_host(4 * i, i.wrapping_mul(0x9E37_79B9)).unwrap();
    }
    let private = [Alu(3), Slice(5), Skip(2), GuardedStore(1), Shared];
    for cross in [None, Some(Neighbour), Some(Atomic), Some(PairStore)] {
        let items: Vec<BodyItem> = private.iter().copied().chain(cross).collect();
        let kernel = divergent_kernel(&items, 7, 7, 2, true);
        let plain = run(&device, &kernel, &launch, memory.clone(), &RunOptions::golden());
        let mut sink = obs::CountingSink::default();
        let opts = RunOptions::golden();
        let traced =
            run_with_sink(&device, &kernel, &launch, memory.clone(), &opts, Some(&mut sink));
        assert_eq!(plain.status, ExecStatus::Completed, "{cross:?}");
        assert_eq!(plain.memory.raw(), traced.memory.raw(), "{cross:?}");
        assert_eq!(plain.counts, traced.counts, "{cross:?}");
        assert_eq!(plain.rounds, traced.rounds, "{cross:?}");
        assert_eq!((traced.windows, traced.window_rollbacks), (0, 0), "{cross:?}");
        assert!(plain.windows > 0, "{cross:?}: no window opened");
        match cross {
            None => assert_eq!(plain.window_rollbacks, 0, "a private loop rolled back"),
            Some(_) => assert!(plain.window_rollbacks > 0, "{cross:?}: no window rolled back"),
        }
    }
}

/// The same windows open in capturing runs: the kernels of the test
/// above, captured every 256 instructions, open windows, and each item
/// of cross-lane traffic makes some window roll back. The sink-attached
/// capture opens none, and the two agree on every snapshot's full state
/// and on the exit table.
#[test]
fn windows_open_and_roll_back_in_capturing_runs() {
    use BodyItem::*;
    let device = DeviceModel::named("k40c-sim");
    let n = 48;
    let (out, counter, slices, pairs) = (4 * n, 8 * n, 8 * n + 4, 40 * n + 4);
    let launch = LaunchConfig::new(1, n, vec![0, out, counter, slices, pairs]);
    let mut memory = GlobalMemory::new(pairs + 2 * n + 4);
    for i in 0..n {
        memory.write_u32_host(4 * i, i.wrapping_mul(0x9E37_79B9)).unwrap();
    }
    let private = [Alu(3), Slice(5), Skip(2), GuardedStore(1), Shared];
    let opts = RunOptions::golden().snapshot_every(256);
    for cross in [None, Some(Neighbour), Some(Atomic), Some(PairStore)] {
        let items: Vec<BodyItem> = private.iter().copied().chain(cross).collect();
        let kernel = divergent_kernel(&items, 7, 7, 2, true);
        let plain = run(&device, &kernel, &launch, memory.clone(), &opts);
        let mut sink = obs::CountingSink::default();
        let traced =
            run_with_sink(&device, &kernel, &launch, memory.clone(), &opts, Some(&mut sink));
        assert_eq!(plain.status, ExecStatus::Completed, "{cross:?}");
        assert_eq!(plain.memory.raw(), traced.memory.raw(), "{cross:?}");
        assert_eq!(plain.counts, traced.counts, "{cross:?}");
        assert_eq!(plain.rounds, traced.rounds, "{cross:?}");
        assert!(plain.snapshots.len() > 2, "{cross:?}: {} snapshots", plain.snapshots.len());
        assert!(plain.snapshots == traced.snapshots, "{cross:?}: snapshot states differ");
        assert!(plain.exit_table.is_some(), "{cross:?}: no exit table");
        assert!(plain.exit_table == traced.exit_table, "{cross:?}: exit tables differ");
        assert_eq!((traced.windows, traced.window_rollbacks), (0, 0), "{cross:?}");
        assert!(plain.windows > 0, "{cross:?}: no window opened");
        match cross {
            None => assert_eq!(plain.window_rollbacks, 0, "a private loop rolled back"),
            Some(_) => assert!(plain.window_rollbacks > 0, "{cross:?}: no window rolled back"),
        }
    }
}
