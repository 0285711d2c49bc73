//! `adsim` — a full Rust reproduction of *"The Architectural
//! Implications of Autonomous Driving: Constraints and Acceleration"*
//! (Lin et al., ASPLOS 2018).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Contents |
//! |---|---|
//! | [`tensor`] | NCHW tensors and NN kernels |
//! | [`dnn`] | Layer-graph inference engine, YOLO/GOTURN models, cost analysis |
//! | [`vision`] | Images, oFAST + rBRIEF (ORB), matching, 2-D geometry |
//! | [`slam`] | Prior-map localization (the LOC engine) |
//! | [`perception`] | Detection (DET) and tracking (TRA) engines |
//! | [`planning`] | Fusion, motion planning, mission planning |
//! | [`vehicle`] | Control plus power/thermal/range constraint models |
//! | [`platform`] | CPU/GPU/FPGA/ASIC latency & power models (Tables 2–3, Fig. 10) |
//! | [`stats`] | Tail-latency statistics |
//! | [`workload`] | Synthetic driving scenarios and camera streams |
//! | [`runtime`] | The std-only fork-join worker pool |
//! | [`faults`] | Deterministic seeded fault injection |
//! | [`trace`] | Span tracing, streaming tail-latency histograms, Chrome-trace export |
//! | [`guard`] | Stage-boundary safety monitors and payload digests |
//! | [`fleet`] | Work-stealing fleet campaign engine with Arc-shared weights |
//! | [`telemetry`] | Fleet metrics registry (Prometheus/JSON export) and the black-box flight recorder |
//! | [`recovery`] | Crash containment: deterministic checkpoint/restore and restart-replay recovery |
//! | [`core`] | The end-to-end pipelines, supervisor, and design-constraint checker; [`core::anytime`] is the predictive deadline governor |
//!
//! # Quickstart
//!
//! ```
//! use adsim::core::{ModeledPipeline, PlatformConfig};
//! use adsim::platform::Platform;
//!
//! // Simulate the paper's all-GPU design for 1000 frames.
//! let mut pipe = ModeledPipeline::new(PlatformConfig::uniform(Platform::Gpu), 42);
//! let stats = pipe.simulate(1_000, 1.0);
//! println!("end-to-end: {}", stats.end_to_end.summary());
//! assert!(stats.end_to_end.summary().p99_99 < 100.0);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/bench` for the harnesses that regenerate every table and
//! figure of the paper (documented in EXPERIMENTS.md).

pub use adsim_core as core;
pub use adsim_dnn as dnn;
pub use adsim_faults as faults;
pub use adsim_fleet as fleet;
pub use adsim_guard as guard;
pub use adsim_perception as perception;
pub use adsim_planning as planning;
pub use adsim_platform as platform;
pub use adsim_recovery as recovery;
pub use adsim_runtime as runtime;
pub use adsim_slam as slam;
pub use adsim_stats as stats;
pub use adsim_telemetry as telemetry;
pub use adsim_tensor as tensor;
pub use adsim_trace as trace;
pub use adsim_vehicle as vehicle;
pub use adsim_vision as vision;
pub use adsim_workload as workload;
