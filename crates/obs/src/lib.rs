//! Observability layer for the MULTI-CLOCK reproduction.
//!
//! The paper evaluates MULTI-CLOCK through kernel-side instrumentation:
//! `/proc/vmstat` counter rows (Table II), per-window promotion counts
//! (Fig. 8) and re-access percentages of promoted pages (Fig. 9). This
//! crate is the reproduction's analogue of that tooling:
//!
//! * [`Recorder`] / [`Event`] — structured tracepoints, the analogue of
//!   the kernel's `trace_mm_lru_*` / `trace_mm_migrate_*` tracepoints.
//!   Zero-cost when disabled: payload construction is skipped entirely.
//! * [`TimeSeries`] — per-tick snapshots of monotone counters, exported
//!   as CSV (the analogue of sampling `/proc/vmstat` in a loop).
//! * [`ReportBuilder`] — a human-readable run report.
//! * [`json`] — a dependency-free JSON writer/parser subset used by the
//!   JSONL exporter, the `mc-obs-report` binary and round-trip tests.
//! * [`perf`] — host-time phase profiling ([`PerfHooks`] /
//!   [`PhaseProfiler`]): the one sanctioned wall-clock boundary, used by
//!   `mc-perf` to measure engine throughput without perturbing the
//!   deterministic simulated-time engine.
//!
//! # Layering
//!
//! `mc-obs` sits at the very bottom of the workspace DAG — below even
//! `mc-mem` — so that every layer can emit into it. Event payloads are
//! therefore raw integers (frame indices, tier ids, Fig. 4 edge numbers),
//! not typed ids from higher crates.

pub mod config;
pub mod counter;
pub mod event;
pub mod json;
pub mod perf;
pub mod recorder;
pub mod report;
pub mod ring;
pub mod series;

pub use config::ObsConfig;
pub use counter::{saturating_add, saturating_bump};
pub use event::{Event, EventKind, FIG4_EDGES};
pub use perf::{PerfHooks, Phase, PhaseProfiler, PhaseSpan, PhaseSummary};
pub use recorder::Recorder;
pub use report::ReportBuilder;
pub use ring::EventRing;
pub use series::TimeSeries;
