//! Trace-hook tests: the determinism contract (identical runs produce
//! byte-identical event streams), alignment between `FaultInjected`
//! events and the `FaultPlan` site numbering, and the invariant that
//! installing a sink never perturbs architectural results.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely

use gpu_arch::{
    CmpOp, DeviceModel, KernelBuilder, LaunchConfig, MemWidth, Operand, Pred, Reg, SpecialReg,
};
use gpu_sim::{
    run, run_with_sink, BitFlip, ExecStatus, FaultPlan, GlobalMemory, RunOptions, SiteClass,
};
use obs::{RecordingSink, TraceEvent};

fn r(i: u8) -> Reg {
    Reg(i)
}
fn imm(v: u32) -> Operand {
    Operand::Imm(v)
}

/// out[i] = a*x[i] + y[i] over 32-bit floats; one thread per element.
fn saxpy_kernel() -> gpu_arch::Kernel {
    let mut b = KernelBuilder::new("saxpy");
    b.s2r(r(0), SpecialReg::TidX);
    b.s2r(r(1), SpecialReg::CtaidX);
    b.s2r(r(2), SpecialReg::NtidX);
    b.imad(r(0), r(1).into(), r(2).into(), r(0).into());
    b.shl(r(3), r(0).into(), imm(2));
    b.ldp(r(4), 0);
    b.iadd(r(4), r(4).into(), r(3).into());
    b.ldg(MemWidth::W32, r(5), r(4), 0);
    b.ldp(r(6), 1);
    b.iadd(r(6), r(6).into(), r(3).into());
    b.ldg(MemWidth::W32, r(7), r(6), 0);
    b.ldp(r(8), 3);
    b.ffma(r(9), r(8).into(), r(5).into(), r(7).into());
    b.ldp(r(10), 2);
    b.iadd(r(10), r(10).into(), r(3).into());
    b.stg(MemWidth::W32, r(10), 0, r(9));
    b.exit();
    b.build().unwrap()
}

fn saxpy_setup(n: u32, a: f32) -> (gpu_arch::Kernel, LaunchConfig, GlobalMemory) {
    let kernel = saxpy_kernel();
    let (x_base, y_base, out_base) = (0u32, 4 * n, 8 * n);
    let mut mem = GlobalMemory::new(12 * n);
    for i in 0..n {
        mem.write_f32_host(x_base + 4 * i, i as f32).unwrap();
        mem.write_f32_host(y_base + 4 * i, 100.0 + i as f32).unwrap();
    }
    let launch = LaunchConfig::new(n / 32, 32, vec![x_base, y_base, out_base, a.to_bits()]);
    (kernel, launch, mem)
}

/// Threads store to shared memory, sync, lane 0 sums — exercises the
/// barrier and branch hook points.
fn barrier_kernel(n: u32) -> gpu_arch::Kernel {
    let mut b = KernelBuilder::new("reduce");
    b.s2r(r(0), SpecialReg::TidX);
    b.shl(r(1), r(0).into(), imm(2));
    b.sts(MemWidth::W32, r(1), 0, r(0));
    b.bar();
    b.isetp(Pred(0), CmpOp::Ne, r(0).into(), imm(0));
    b.if_p(Pred(0)).bra("done");
    b.mov(r(2), imm(0));
    b.mov(r(3), imm(0));
    b.label("top");
    b.shl(r(4), r(3).into(), imm(2));
    b.lds(MemWidth::W32, r(5), r(4), 0);
    b.iadd(r(2), r(2).into(), r(5).into());
    b.iadd(r(3), r(3).into(), imm(1));
    b.isetp(Pred(1), CmpOp::Lt, r(3).into(), imm(n));
    b.if_p(Pred(1)).bra("top");
    b.ldp(r(6), 0);
    b.stg(MemWidth::W32, r(6), 0, r(2));
    b.label("done");
    b.exit();
    b.shared(4 * n);
    b.build().unwrap()
}

fn record(
    device: &DeviceModel,
    kernel: &gpu_arch::Kernel,
    launch: &LaunchConfig,
    mem: GlobalMemory,
    opts: &RunOptions,
) -> (gpu_sim::Executed, RecordingSink) {
    let mut sink = RecordingSink::new();
    let out = run_with_sink(device, kernel, launch, mem, opts, Some(&mut sink));
    (out, sink)
}

#[test]
fn identical_runs_emit_byte_identical_traces() {
    let device = DeviceModel::named("k40c");
    let (kernel, launch, mem) = saxpy_setup(64, 2.0);
    let opts = RunOptions::trial(FaultPlan::InstructionOutput {
        nth: 5,
        site: SiteClass::GprWriter,
        flip: BitFlip::single(7),
    });
    let (out_a, sink_a) = record(&device, &kernel, &launch, mem.clone(), &opts);
    let (out_b, sink_b) = record(&device, &kernel, &launch, mem, &opts);
    assert_eq!(out_a.status, out_b.status);
    assert!(!sink_a.events.is_empty());
    assert_eq!(sink_a.events, sink_b.events);
    assert_eq!(sink_a.to_jsonl(), sink_b.to_jsonl());
}

#[test]
fn sink_does_not_perturb_execution() {
    let device = DeviceModel::named("v100");
    let (kernel, launch, mem) = saxpy_setup(128, 1.5);
    let opts = RunOptions::default();
    let plain = run(&device, &kernel, &launch, mem.clone(), &opts);
    let (traced, sink) = record(&device, &kernel, &launch, mem, &opts);
    assert_eq!(plain.status, traced.status);
    assert_eq!(plain.counts.total, traced.counts.total);
    assert_eq!(plain.counts.per_unit, traced.counts.per_unit);
    assert_eq!(plain.memory.raw(), traced.memory.raw());
    // Every dynamic instruction produced a retire event.
    let retired =
        sink.events.iter().filter(|e| matches!(e, TraceEvent::InstrRetired { .. })).count() as u64;
    assert_eq!(retired, traced.counts.total);
}

#[test]
fn fault_event_aligns_with_plan_site() {
    let device = DeviceModel::named("k40c");
    let (kernel, launch, mem) = saxpy_setup(64, 2.0);
    let flip = BitFlip::single(3);
    let opts = RunOptions::trial(FaultPlan::InstructionOutput {
        nth: 0,
        site: SiteClass::FloatArith,
        flip,
    });
    let (out, sink) = record(&device, &kernel, &launch, mem, &opts);
    assert!(out.fault_triggered);
    let faults: Vec<&TraceEvent> =
        sink.events.iter().filter(|e| matches!(e, TraceEvent::FaultInjected { .. })).collect();
    assert_eq!(faults.len(), 1, "exactly one planned fault fires");
    let TraceEvent::FaultInjected { idx, site, detail } = *faults[0] else { unreachable!() };
    assert_eq!(site, "float-arith");
    assert_eq!(detail, flip.mask);
    // The fault's idx names the dynamic instruction whose output was
    // corrupted: the first retired float-arith op (saxpy's FFMA).
    let victim = sink.events.iter().find_map(|e| match *e {
        TraceEvent::InstrRetired { idx: i, op, .. } if i == idx => Some(op),
        _ => None,
    });
    assert_eq!(victim, Some("FFMA"));
}

#[test]
fn retire_indices_strictly_increase() {
    let device = DeviceModel::named("k40c");
    let (kernel, launch, mem) = saxpy_setup(96, 0.5);
    let opts = RunOptions::default();
    let (_, sink) = record(&device, &kernel, &launch, mem, &opts);
    let mut last: Option<u64> = None;
    for ev in &sink.events {
        if let TraceEvent::InstrRetired { idx, .. } = ev {
            if let Some(prev) = last {
                assert!(*idx > prev, "retire idx {idx} after {prev}");
            }
            last = Some(*idx);
        }
    }
    assert!(last.is_some());
}

#[test]
fn barrier_events_cover_all_lanes() {
    let n = 64u32;
    let device = DeviceModel::named("k40c");
    let kernel = barrier_kernel(n);
    let launch = LaunchConfig::new(1, n, vec![0]);
    let opts = RunOptions::default();
    let (out, sink) = record(&device, &kernel, &launch, GlobalMemory::new(4), &opts);
    assert_eq!(out.status, ExecStatus::Completed);
    assert_eq!(out.memory.read_u32_host(0).unwrap(), (0..n).sum::<u32>());
    let arrivals =
        sink.events.iter().filter(|e| matches!(e, TraceEvent::BarrierArrive { .. })).count();
    assert_eq!(arrivals as u32, n, "one arrival per lane");
    let releases: Vec<u32> = sink
        .events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::BarrierRelease { lanes, .. } => Some(lanes),
            _ => None,
        })
        .collect();
    assert_eq!(releases, vec![n], "one release of every lane");
    // The branch hook fired for the guarded jump and the loop back-edge.
    assert!(sink.events.iter().any(|e| matches!(e, TraceEvent::Branch { taken: true, .. })));
    assert!(sink.events.iter().any(|e| matches!(e, TraceEvent::Branch { taken: false, .. })));
}

#[test]
fn due_run_ends_with_due_event() {
    let device = DeviceModel::named("k40c");
    let (kernel, launch, mem) = saxpy_setup(64, 2.0);
    // Corrupt a load *address* high bit: deterministic out-of-bounds DUE.
    let opts = RunOptions::trial(FaultPlan::MemAddress { nth: 0, flip: BitFlip::single(30) });
    let (out, sink) = record(&device, &kernel, &launch, mem, &opts);
    assert!(matches!(out.status, ExecStatus::Due(_)));
    let dues: Vec<&TraceEvent> =
        sink.events.iter().filter(|e| matches!(e, TraceEvent::DueRaised { .. })).collect();
    assert_eq!(dues.len(), 1);
    let TraceEvent::DueRaised { kind, .. } = *dues[0] else { unreachable!() };
    let ExecStatus::Due(due_kind) = out.status else { unreachable!() };
    assert_eq!(kind, due_kind.name());
    // The DUE event is the last thing the engine emits.
    assert!(matches!(sink.events.last(), Some(TraceEvent::DueRaised { .. })));
}

/// FNV-1a over a byte stream: a stable, dependency-free digest for
/// pinning a whole event stream without pasting it.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The full event stream is pinned, not just its determinism: issuing an
/// instruction once for a run of same-pc lanes must not reorder any
/// `InstrRetired`/`MemAccess`/`Branch`/barrier event, nor change an
/// `idx`. These digests were captured on the lane-at-a-time engine.
#[test]
fn event_streams_pinned() {
    let device = DeviceModel::named("k40c");
    let (kernel, launch, mem) = saxpy_setup(64, 2.0);
    let faulty = RunOptions::trial(FaultPlan::InstructionOutput {
        nth: 37,
        site: SiteClass::FloatArith,
        flip: BitFlip::single(7),
    });
    let barrier = barrier_kernel(64);
    let cases = [
        (
            "saxpy golden",
            &kernel,
            &launch,
            mem.clone(),
            RunOptions::golden(),
            (2400740797243009824u64, 1288usize),
        ),
        ("saxpy faulty", &kernel, &launch, mem, faulty, (9904125528927538005, 1289)),
        (
            "barrier golden",
            &barrier,
            &LaunchConfig::new(1, 64, vec![0]),
            GlobalMemory::new(4),
            RunOptions::golden(),
            (16051410711945721197, 1164),
        ),
    ];
    for (name, kernel, launch, mem, opts, (digest, len)) in cases {
        let (_, sink) = record(&device, kernel, launch, mem, &opts);
        let jsonl = sink.to_jsonl();
        assert_eq!(
            (fnv1a(&jsonl), sink.events.len()),
            (digest, len),
            "{name} event stream drifted"
        );
    }
}
