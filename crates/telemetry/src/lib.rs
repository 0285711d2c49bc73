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
//!   distributions keyed by `(metric, vehicle, stage)`. A registry is
//!   plain owned data: each supervisor records into its own while a
//!   [`TelemetrySession`] is active, and the fleet engine merges the
//!   per-vehicle registries in spec order. Only virtual-clock
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
//! use adsim_telemetry::{prometheus_text, validate_prometheus, MetricsRegistry};
//!
//! let mut registry = MetricsRegistry::new();
//! registry.counter_add("frames_total", 0, "", 1);
//! registry.observe_ms("stage_virtual_ms", 0, "det", 21.5);
//! let text = prometheus_text(&registry);
//! validate_prometheus(&text).unwrap();
//! assert!(text.contains("adsim_frames_total{vehicle=\"0\"} 1"));
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
pub use recorder::{enabled, TelemetrySession};
pub use registry::MetricsRegistry;
