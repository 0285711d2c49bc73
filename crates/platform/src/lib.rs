//! Accelerator platform models: specs, latency distributions and
//! power (paper §4–§5).
//!
//! The paper ports the three computational bottlenecks (DET, TRA,
//! LOC) to GPUs, FPGAs and ASICs and measures latency distributions
//! and power on real hardware (Table 2, Table 3, Fig. 10). That
//! hardware is not available here, so this crate provides a
//! *calibrated analytical model*:
//!
//! * the per-(component, platform) mean latencies and power draws are
//!   calibrated once against the paper's Fig. 10 measurements,
//! * latency *distributions* are generated from per-platform
//!   variability shapes (log-normal bodies, spike mixtures for the
//!   localization relocalization path), reproducing the mean-vs-tail
//!   behaviour of Finding 2,
//! * *scaling* with camera resolution is computed from the measured
//!   compute structure of the actual `adsim-dnn` / `adsim-vision`
//!   implementations (conv FLOPs scale linearly in pixels; feature
//!   description is capped), which is what regenerates Fig. 13.
//!
//! See DESIGN.md ("Substitutions") for why this preserves the paper's
//! conclusions.
//!
//! [`Component`] is also the workspace's one list of pipeline stages:
//! fault injection (`adsim-faults`), the supervisor and the anytime
//! governor (`adsim-core`) all name and index stages with it. It has
//! two string forms, the paper abbreviation ([`Component::abbrev`],
//! also its `Display`) and the lowercase telemetry key
//! ([`Component::key`]).
//!
//! # Examples
//!
//! ```
//! use adsim_platform::{Component, LatencyModel, Platform};
//! use adsim_stats::Rng64;
//!
//! let model = LatencyModel::paper_calibrated();
//! let mut rng = Rng64::new(1);
//! let ms = model.sample_ms(Component::Detection, Platform::Gpu, &mut rng, 1.0);
//! assert!(ms > 5.0 && ms < 30.0);
//! ```

pub mod asic;
pub mod contention;
mod model;
mod spec;
mod variability;

pub use asic::FeAsicSpec;
pub use model::{resolution_scale, Component, LatencyModel, Platform};
pub use spec::{table2, PlatformSpec};
pub use variability::TailShape;
