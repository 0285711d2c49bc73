//! Fleet telemetry plane: an always-on, virtual-clock metrics registry
//! plus a per-vehicle black-box flight recorder.
//!
//! The paper's central contract is a *measured* one — the 99.99th
//! percentile of end-to-end latency under 100 ms at ≥ 10 FPS (§2.4.1)
//! — and a fleet needs to observe it continuously, not only inside a
//! profiling run. This crate is the layer between one traced run
//! (`adsim-trace`) and a production fleet:
//!
//! * [`MetricsRegistry`] — counters, gauges and `LogHistogram`-backed
//!   distributions keyed by `(metric, vehicle, stage)`, recorded
//!   through per-thread shards ([`TelemetrySession`]) with the same
//!   TLS-merge discipline the span recorder uses. Only virtual-clock
//!   quantities enter, so fleet aggregates stay byte-identical across
//!   worker counts; exporters: [`prometheus_text`] and
//!   [`MetricsRegistry::snapshot_json`].
//! * [`FlightRecorder`] — a fixed-capacity ring of compact per-frame
//!   [`FrameRecord`]s (virtual stage costs, quality rung, degraded
//!   modes, monitor verdicts, injected faults, payload digest,
//!   governor forecast), dumped as JSON on SafeStop, on monitor-tripped
//!   escalations, or on demand — the AV "black box".
//!
//! # Examples
//!
//! ```
//! use adsim_telemetry::{prometheus_text, validate_prometheus, TelemetrySession};
//!
//! let session = TelemetrySession::begin();
//! adsim_telemetry::counter_add("frames_total", "", 1);
//! adsim_telemetry::observe_ms("stage_virtual_ms", "det", 21.5);
//! let registry = session.finish();
//! let text = prometheus_text(&registry);
//! validate_prometheus(&text).unwrap();
//! assert!(text.contains("adsim_frames_total 1"));
//! ```

mod flight;
mod prometheus;
mod recorder;
mod registry;

pub use flight::{
    truncate_panic_msg, DumpTrigger, FlightDump, FlightRecorder, FrameRecord, FAULT_BLACKOUT,
    FAULT_CORRUPT, FAULT_CRASH, FAULT_DATA_MASK, FAULT_DRIFT, FAULT_LOCK_LOSS, FAULT_SPIKE,
    FAULT_STALL, FAULT_STUCK, FAULT_TIME_SKEW, FAULT_TRACKER_SHIFT, MODE_DEAD_RECKONING,
    MODE_QUALITY_REDUCED, MODE_SAFE_STOP, MODE_SPEED_REDUCED, MODE_TRACKER_ONLY, MONITOR_DATA,
    MONITOR_DETECTION, MONITOR_LOCALIZATION, MONITOR_PLANNER, MONITOR_TRACKER,
};
pub use prometheus::{prometheus_text, validate_prometheus};
pub use recorder::{
    counter_add, drain_thread, enabled, flush_thread, gauge_set, observe_ms, TelemetrySession,
    VehicleScope,
};
pub use registry::{MetricsRegistry, SeriesKey, SeriesValue};
