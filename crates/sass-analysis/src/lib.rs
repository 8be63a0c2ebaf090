//! Static analysis over the SASS-like ISA: control-flow graphs, dataflow
//! passes, a kernel verifier, and per-site fault-outcome verdicts.
//!
//! The fault-injection methodology of the paper samples sites uniformly
//! over the *dynamic* instruction stream and simulates every trial to
//! classify it SDC/DUE/Masked. A large share of those trials is decidable
//! without simulation, and this crate supplies the proofs in two layers:
//!
//! 1. **Liveness masks** ([`mask`]): a flip in a destination bit no later
//!    instruction ever observes is Masked by construction.
//! 2. **Propagation verdicts** ([`flow`] + [`verdict`]): taint from every
//!    injectable site — GPR outputs, predicate writes, and effective
//!    addresses — through the kernel's value-flow graph classifies each
//!    site on the [`SiteVerdict`] lattice (`ProvenMasked` |
//!    `StoreReaching` | `AddressReaching` | `ControlReaching` |
//!    `Unknown`), bounding which outcomes a fault there can produce;
//!    a launch-aware interval/alignment pass additionally proves some
//!    single-bit flips to be DUEs outright (misaligned or out-of-bounds
//!    addresses) so the campaign can tally them without simulating.
//!
//! The same dataflow feeds a verifier that lints the hand-built workload
//! kernels (the `sass-lint` binary in the bench crate).
//!
//! Layout:
//!
//! * [`mod@cfg`] — basic blocks, dominators/postdominators, natural loops,
//!   and the one dataflow solver every pass runs on;
//! * [`dataflow`] — reaching definitions + def-use chains, bit-level
//!   liveness, predicate liveness, register and predicate assignment,
//!   uniformity (divergence) analysis;
//! * [`lint`] — [`verify`]/[`verify_with_launch`] producing
//!   [`Diagnostic`]s with severities;
//! * [`mask`] — [`StaticMasks`]: per-site observed-bit masks consumed by
//!   the injector's pruned campaigns;
//! * [`flow`] — the value-flow graph and sink-reachability taint behind
//!   [`SiteVerdict`];
//! * [`verdict`] — [`KernelVerdicts`]/[`KernelAnalysis`]: per-site
//!   verdicts, proven-DUE bit masks, summary fractions, and the
//!   digest-keyed [`analyze`] cache shared by the profiler and the
//!   injector's pruned campaigns.

pub mod cfg;
pub mod dataflow;
pub mod flow;
pub mod lint;
pub mod mask;
pub mod verdict;

pub use cfg::Cfg;
pub use flow::{SiteVerdict, ValueFlow};
pub use lint::{verify, verify_with_launch, Diagnostic, LintKind, Severity};
pub use mask::StaticMasks;
pub use verdict::{
    analyze, AnalysisContext, DueBits, KernelAnalysis, KernelVerdicts, VerdictSummary,
};
