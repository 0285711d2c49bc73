//! The end-to-end autonomous driving system (paper Fig. 1) and its
//! design-constraint checker (§2.4).
//!
//! Two pipeline flavours share the same dataflow — camera frames fan
//! out to object detection and localization in parallel, detections
//! feed the tracker pool, tracks and the vehicle pose fuse onto one
//! world coordinate space, and the motion planner emits operational
//! decisions:
//!
//! * [`NativePipeline`] runs the *real* engines from this workspace
//!   (ORB-SLAM-style localizer, blob/YOLO detector, tracker pool,
//!   fusion, lattice planners, pure-pursuit control) on synthetic
//!   camera frames, measuring actual wall-clock latency;
//! * [`ModeledPipeline`] drives the calibrated platform latency model
//!   (`adsim-platform`) to regenerate the paper's evaluation figures
//!   at any (platform-assignment × resolution) point.
//!
//! # Examples
//!
//! ```
//! use adsim_core::{ModeledPipeline, PlatformConfig};
//! use adsim_platform::Platform;
//!
//! let mut pipe = ModeledPipeline::new(PlatformConfig::uniform(Platform::Gpu), 7);
//! let stats = pipe.simulate(1_000, 1.0);
//! let s = stats.end_to_end.summary();
//! assert!(s.p99_99 < 100.0, "all-GPU meets the 100 ms constraint");
//! ```

pub mod anytime;
mod config;
mod constraints;
mod deadline;
mod modeled;
mod native;
mod simulation;
mod supervisor;
pub mod survey;

pub use config::PlatformConfig;
pub use constraints::{ConstraintCheck, ConstraintReport, DesignConstraints};
pub use deadline::{replay_stream, DeadlineStats};
pub use modeled::{FrameLatency, ModeledPipeline, PipelineStats};
pub use native::{
    build_prior_map, DetectorKind, NativeFrameResult, NativePipeline, NativePipelineConfig,
    TrackerKind,
};
pub use simulation::{ClosedLoopSim, SimReport, SimStep};
pub use supervisor::{
    ActiveModes, DegradationCause, DegradationEvent, DegradationEventKind, DegradedMode,
    ModeledSupervisor, RecoveryStats, StagedFrame, SupervisedFrameResult, Supervisor,
    SupervisorCheckpoint, SupervisorConfig,
};
// Guard types surface in the supervisor API (config, causes, logs);
// re-export them so `adsim_core` alone is enough to drive it.
pub use adsim_guard::{GuardConfig, GuardEvent, GuardStats, Monitor, PipelineGuard, Violation};
// Flight-recorder types surface through the supervisor API too
// (SupervisorConfig sizes the ring; dumps come back from it).
pub use adsim_telemetry::{DumpTrigger, FlightDump, FlightRecorder, FrameRecord};
