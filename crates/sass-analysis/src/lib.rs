//! Static analysis over the SASS-like ISA: control-flow graphs, dataflow
//! passes, a kernel verifier, and the static oracle that resolves
//! single-site faults without simulating them.
//!
//! The fault-injection methodology of the paper samples sites uniformly
//! over the *dynamic* instruction stream and simulates every trial to
//! classify it SDC/DUE/Masked. A large share of those trials is decidable
//! without simulation. [`KernelAnalysis`] is the one per-pc table that
//! decides them: it joins bit-level liveness (a flip in a destination bit
//! no later instruction observes is Masked), the value-flow taint
//! verdicts on the [`SiteVerdict`] lattice (`ProvenMasked` |
//! `StoreReaching` | `AddressReaching` | `ControlReaching` | `Unknown`,
//! bounding which outcomes a fault can produce) and a launch-aware
//! interval/alignment pass that proves some single-bit flips to be DUEs
//! outright (misaligned or out-of-bounds addresses). One resolution
//! function per fault shape reads it and answers a [`Resolution`]:
//! Masked, a DUE of a proven kind, or simulate, with the site's verdict
//! and the stratum the campaign telemetry counts it under.
//!
//! The same dataflow feeds a verifier that lints the hand-built workload
//! kernels (the `sass-lint` binary in the bench crate).
//!
//! Layout:
//!
//! * [`mod@cfg`] — basic blocks, reachability, postdominators and
//!   immediate postdominators, and the one dataflow solver every pass
//!   runs on;
//! * [`dataflow`] — reaching definitions + def-use chains, bit-level
//!   liveness, predicate liveness, register and predicate assignment,
//!   uniformity (divergence) analysis;
//! * [`lint`] — [`verify`]/[`verify_with_launch`] producing
//!   [`Diagnostic`]s with severities;
//! * [`flow`] — the value-flow graph and sink-reachability taint behind
//!   [`SiteVerdict`];
//! * [`verdict`] — [`KernelAnalysis`]: the per-pc table, its resolution
//!   functions, the interval DUE proofs, summary fractions, and the
//!   digest-keyed [`analyze`] cache shared by the profiler and the
//!   injector's pruned campaigns.

pub mod cfg;
pub mod dataflow;
pub mod flow;
pub mod lint;
pub mod verdict;

pub use cfg::Cfg;
pub use flow::{SiteVerdict, ValueFlow};
pub use lint::{verify, verify_with_launch, Diagnostic, LintKind, Severity};
pub use verdict::{analyze, AnalysisContext, DueBits, KernelAnalysis, Resolution, VerdictSummary};
