//! Observability layer for the GPU-reliability stack.
//!
//! The paper's methodology is measurement: beam campaigns, injection
//! campaigns and profiling runs. This crate gives every layer of the
//! reproduction a shared, dependency-free way to *see* those runs:
//!
//! * [`TraceSink`] / [`TraceEvent`] — hook points inside the `gpu-sim`
//!   engine (instruction retired, memory access, fault injected, DUE
//!   raised, barrier and branch events), each stamped with the dynamic
//!   instruction index that `FaultPlan` sites use, so traces align with
//!   injection plans. Zero-cost when no sink is installed: the engine
//!   checks one `Option` per hook and constructs nothing.
//! * [`MetricsRegistry`] — counters/gauges/histograms with lock-free
//!   updates, snapshotable to JSONL; campaign loops tally outcomes
//!   by site class and DUE kind, trials/sec, and the profiler's
//!   φ/IPC/occupancy gauges into it.
//! * [`SpanBus`] — campaign → shard → trial span tracing with
//!   FaultPlan-keyed trial IDs, exported as Chrome Trace Event Format
//!   (`chrome://tracing`, Perfetto).
//! * [`SnapshotPublisher`] / [`StatusSnapshot`] / [`console`] — periodic
//!   atomic publishing of snapshots (JSON + Prometheus text exposition)
//!   plus the `campaign-top` dashboard rendering that consumes them.
//! * [`RunReport`] / [`Progress`] — structured
//!   machine-readable run reporting and progress for the `bench` binaries
//!   (`--trace-out`, `--metrics-out`, `--progress`).
//!
//! Determinism contract: trace event *content* is a pure function of the
//! simulated run. Wall-clock only ever feeds presentation-side artifacts
//! (progress rendering, trials/sec gauges), never events.

pub mod console;
mod export;
pub mod json;
mod metrics;
mod publish;
mod report;
pub mod span;
mod trace;

pub use export::prometheus_name;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, Timer,
};
pub use publish::{write_atomic, SnapshotPublisher, StatusSnapshot};
pub use report::{CampaignObserver, Progress, RunReport, Value};
pub use span::{keyed_id, OpenSpan, SpanBus, SpanRecord, ROOT_SPAN};
pub use trace::{CountingSink, JsonlTraceSink, MemSpace, RecordingSink, TraceEvent, TraceSink};
