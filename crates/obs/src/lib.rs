//! # congest-obs — the workspace's observability substrate
//!
//! The paper's claims are accounting claims — rounds, messages, per-node
//! received bits — and the repo has four engines each of which grew its
//! own ad-hoc telemetry (`sim::Metrics`, `WorkerTelemetry`,
//! `CongestCost`, sorted-vec percentiles in the workload runner). This
//! crate is the shared, low-overhead layer those surfaces converge on,
//! and the substrate the serve-mode SLO and adaptive-split ROADMAP items
//! stand on. Like every other crate in the workspace it is fully
//! offline: zero external dependencies, safe Rust only.
//!
//! Four pieces:
//!
//! * [`span()`] / [`span!`](crate::span!) — wall-clock span guards over a
//!   process-wide monotonic clock ([`now_us`]). The hot path is
//!   lock-free: an enabled check is one relaxed atomic load, and a
//!   recorded span pushes into a per-thread ring buffer (no shared
//!   state); buffers hand their contents to the global collector only
//!   when full, on explicit [`flush_thread`] calls, or at thread exit.
//!   Tracing is **off by default** at runtime ([`set_enabled`]) and can
//!   be compiled out entirely by building this crate without the
//!   `spans` feature — a disabled span site then costs nothing at all.
//! * [`registry`] — a process-wide counter/gauge registry
//!   ([`counter_add`], [`gauge_set`], [`gauge_max`]) snapshotted to JSON
//!   or a text report; the engines fold their existing telemetry
//!   (`WorkerTelemetry`, arena health) into it, and the serve layer
//!   publishes its `serve.active_leases`,
//!   `serve.oldest_lease_epoch_lag` and `serve.lease_age_epochs_max`
//!   gauges here (writer-side, once per
//!   published epoch, so the query hot path never touches the registry
//!   mutex). The serve span families (`serve/publish`,
//!   `serve/lease_acquire`, `serve/query`) ride the same span substrate
//!   and are schema-required by `trace_check`.
//! * [`hist`] — streaming log-bucketed latency histograms
//!   ([`Histogram`]): HdrHistogram-style fixed memory (a few KiB however
//!   long the stream), values bucketed with at most `1/64` ≈ 1.6%
//!   relative error, exact min/max/mean/count. These replace the
//!   grow-forever `Vec<Duration>` percentile machinery in the workload
//!   runner.
//! * [`json`] — the one shared hand-rolled JSON surface: the emit
//!   helpers every bench binary and summary serializer previously
//!   duplicated (non-finite numbers spell as `null`, never `inf`/`NaN`),
//!   plus a minimal parser ([`json::Value`]) used by the trace
//!   schema-check tooling.
//!
//! Exporters: [`trace::chrome_trace_json`] renders drained span events
//! in the `chrome://tracing` / Perfetto trace-event format (`ph: "X"`
//! complete events, microsecond timestamps), and [`report::text_report`]
//! renders spans plus the registry as a human-readable table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod hist;
pub mod json;
pub mod registry;
pub mod report;
pub mod trace;

pub use clock::now_us;
pub use hist::{nearest_rank_index, Histogram};
pub use registry::{counter_add, gauge_max, gauge_set, snapshot, MetricsSnapshot};
pub use trace::{enabled, flush_thread, record_span, set_enabled, span, SpanGuard, TraceEvent};
