//! `adsim-trace` — low-overhead span tracing and streaming tail-latency
//! metrics for the driving pipeline.
//!
//! Every conclusion of the paper rests on an observability claim:
//! per-stage mean vs 99.99th-percentile latency (Fig. 6, 10b, 11) and
//! cycle breakdowns (Fig. 7) are what drive the constraint and
//! accelerator analysis. This crate makes that instrumentation a
//! first-class subsystem instead of something each bench binary
//! hand-rolls:
//!
//! * **Nested spans** (`pipeline → stage → DNN layer → tensor kernel`,
//!   ORB pyramid level, SLAM phase) with monotonic timestamps from one
//!   process-wide epoch, so spans from different threads interleave
//!   correctly on a shared timeline.
//! * **Per-thread buffers, merged off the hot path.** Recording a span
//!   pushes into a thread-local buffer — no locks, no shared-cache-line
//!   traffic. Buffers merge into the global sink only when a worker
//!   thread exits (the runtime's workers are scoped and short-lived) or
//!   when the session is finished.
//! * **No-op when disabled.** The disabled fast path is a single
//!   relaxed atomic load.
//! * **Streaming metrics.** Fixed-memory log-bucketed histograms
//!   ([`LogHistogram`]) accumulate per span name while recording, so
//!   p50/p95/p99/p99.99 summaries are available even for runs whose
//!   full event stream would not fit in memory.
//! * **Exporters.** Chrome trace-event JSON (loadable in Perfetto or
//!   `chrome://tracing`) and a plain-text per-stage summary table.
//! * **One JSON writer and reader.** [`json`] renders every JSON
//!   document the workspace writes and parses them back.
//!
//! # Examples
//!
//! ```
//! use adsim_trace as trace;
//!
//! let session = trace::TraceSession::begin();
//! {
//!     let _frame = trace::span("pipeline.frame");
//!     let _stage = trace::span("stage.det");
//!     // ... work ...
//! }
//! let t = session.finish();
//! assert_eq!(t.span_count("stage.det"), 1);
//! let json = t.chrome_json();
//! assert!(trace::validate_json(&json).is_ok());
//! ```

mod chrome;
pub mod json;
mod loghist;
mod recorder;
mod summary;

pub use chrome::validate_json;
pub use loghist::LogHistogram;
pub use recorder::{
    counter, enabled, flush_thread, instant, instant_at, span, span_at, Event, EventKind, Span,
    Trace, TraceSession,
};
pub use summary::{worker_utilization, SpanSummary, TraceSummary, WorkerUtilization};

/// Span name the runtime records around each parallel region (the
/// caller's fork-join wall time).
pub const REGION_SPAN: &str = "runtime.region";

/// Span name the runtime records per worker, indexed by worker id;
/// busy time within the enclosing [`REGION_SPAN`].
pub const WORKER_SPAN: &str = "runtime.worker";
