//! Experiment harness: one function per table/figure of the paper.
//!
//! The `repro` binary dispatches to these; the timing benches under
//! `benches/` (plain `harness = false` binaries sharing one timer) wrap
//! the hot paths. Every experiment that starts a campaign takes an
//! [`ObserveCtx`]; its default is quiet. Campaign sizes default to
//! laptop-scale "quick" settings and can be scaled with
//! [`HarnessConfig`].

pub mod ablations;
pub mod experiments;
pub mod render;

pub use campaign::Budget;
pub use experiments::{
    avf_breakdown, codegen_comparison, convergence, device_pipeline, due_analysis, fig1, fig3,
    fig4, fig5, fig6, hidden_gap_closure, table1, AvfRow, BeamRow, BreakdownRow,
    CampaignObservation, CodegenRow, ComparisonSet, ConvergenceRow, DeviceReport, DeviceRow,
    Fig3Row, GapClosure, GapRow, HarnessConfig, MixRow, ObserveCtx, ProfileRow, StoreLog,
};
