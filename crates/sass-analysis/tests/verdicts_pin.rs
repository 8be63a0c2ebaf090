//! Pins the static fault-propagation verdicts of every workload kernel: a
//! digest of every [`KernelAnalysis`] verdict answer (output, predicate and
//! address verdicts, the proven-DUE bits of output and address flips) and
//! of the verdict summaries the profiler reports, over the Kepler (CUDA 7
//! and 10) and Volta suites at Small and Profile scale. A faster value
//! flow or interval proof must answer exactly as the one it replaces.

use gpu_arch::{CodeGen, SiteClass};
use sass_analysis::{AnalysisContext, DueBits, KernelAnalysis, VerdictSummary};
use workloads::{kepler_suite, volta_suite, Scale};

/// FNV-1a over a byte stream.
fn fnv1a(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

fn due(h: u64, d: DueBits) -> u64 {
    fnv1a(fnv1a(h, d.bits.to_le_bytes()), format!("{:?}", d.kind).bytes())
}

fn summary(h: u64, s: VerdictSummary) -> u64 {
    let fields = [s.masked, s.proven_due, s.store, s.addr_ctl, s.unknown];
    fnv1a(h, fields.iter().flat_map(|f| f.to_bits().to_le_bytes()))
}

#[test]
fn verdicts_of_every_workload_kernel_are_pinned() {
    let mut all = Vec::new();
    for scale in [Scale::Small, Scale::Profile] {
        all.extend(kepler_suite(CodeGen::Cuda7, scale));
        all.extend(kepler_suite(CodeGen::Cuda10, scale));
        all.extend(volta_suite(scale));
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    for w in &all {
        let ctx = AnalysisContext::for_launch(&w.launch, w.memory.len() as u64);
        let a = KernelAnalysis::compute(&w.kernel, &ctx);
        assert_eq!(a.len(), w.kernel.len(), "{}", w.name);
        h = fnv1a(h, w.kernel.name.bytes());
        for pc in 0..a.len() as u32 {
            let verdicts = [a.output_verdict(pc), a.predicate_verdict(pc), a.mem_verdict(pc)];
            h = fnv1a(h, format!("{verdicts:?}").bytes());
            h = due(h, a.output_due_bits(pc));
            h = due(h, a.mem_due_bits(pc));
        }
        h = summary(h, a.summary());
        for class in [
            SiteClass::GprWriter,
            SiteClass::GprWriterNoHalf,
            SiteClass::FloatArith,
            SiteClass::HalfArith,
            SiteClass::IntArith,
            SiteClass::Load,
        ] {
            h = summary(h, a.summary_for(class));
        }
    }
    assert_eq!(all.len(), 84);
    assert_eq!(h, 0x2ca5_704c_2712_0b60, "verdict digest over {} kernels", all.len());
}
