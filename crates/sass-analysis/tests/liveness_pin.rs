//! Pins the bit-level register liveness of every workload kernel: a
//! digest of [`dataflow::Liveness`] (`dst_observed` and `read_union`)
//! over the Kepler (CUDA 7 and 10) and Volta suites. The fixpoint lives
//! in `gpu_arch::decode`, shared with the simulator's golden rejoin; any
//! change to its answer on a real kernel fails here.

use gpu_arch::CodeGen;
use sass_analysis::{cfg::Cfg, dataflow};
use workloads::{kepler_suite, volta_suite, Scale};

/// FNV-1a over a byte stream.
fn fnv1a(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn liveness_of_every_workload_kernel_is_pinned() {
    let mut all = kepler_suite(CodeGen::Cuda7, Scale::Small);
    all.extend(kepler_suite(CodeGen::Cuda10, Scale::Small));
    all.extend(volta_suite(Scale::Small));
    let mut h = 0xcbf2_9ce4_8422_2325;
    for w in &all {
        let k = &w.kernel;
        let lv = dataflow::liveness(k, &Cfg::build(k));
        assert_eq!(lv.dst_observed.len(), w.kernel.len(), "{}", w.name);
        h = fnv1a(h, w.kernel.name.bytes());
        h = fnv1a(h, lv.dst_observed.iter().flat_map(|m| m.to_le_bytes()));
        h = fnv1a(h, lv.read_union.iter().flat_map(|m| m.to_le_bytes()));
    }
    assert_eq!(all.len(), 42);
    assert_eq!(h, 0xc055_a12a_cede_4396, "liveness digest over {} kernels", all.len());
}
