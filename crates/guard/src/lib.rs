//! End-to-end safety monitors and a checksummed data plane for the
//! driving pipeline.
//!
//! The paper's constraint is *latency* — 99.99th-percentile end-to-end
//! under 100 ms — but a production stack must also notice when a stage
//! produces garbage, not just when it produces it late. `adsim-faults`
//! can corrupt the sensor stream and perturb stage outputs; without
//! this crate those faults flow straight into motion planning. The
//! guard closes the detection gap in two layers:
//!
//! * **Checksummed data plane** ([`digest`]): a fast FNV-style digest
//!   of the camera frame, computed where the frame is produced and
//!   re-verified where it is consumed, with an opt-in
//!   dual-execution vote (one re-delivery) that separates transient
//!   transport corruption from persistent sensor outages.
//! * **Invariant monitors** ([`monitors`]): semantic checks at each
//!   stage boundary — detection sanity, tracker consistency against
//!   ego motion, localization residuals against a kinematic envelope,
//!   and planner curvature/acceleration/clearance feasibility.
//!
//! [`PipelineGuard`] holds the inter-frame state and the trip log; the
//! supervisor in `adsim-core` escalates trips into degraded modes
//! (`DegradationCause::MonitorTripped`) and every trip emits a
//! `guard.*` instant via `adsim-trace`.
//!
//! # Examples
//!
//! ```
//! use adsim_guard::{digest_image, Digest, GuardConfig, PipelineGuard, DataVerdict};
//! use adsim_vision::GrayImage;
//!
//! let mut guard = PipelineGuard::new(GuardConfig::default());
//! let frame = GrayImage::from_fn(64, 48, |x, y| (x ^ y) as u8);
//! let captured = digest_image(&frame);
//!
//! // Transport was clean: the delivered digest matches.
//! let (verdict, _) = guard.check_delivery(0, captured, &frame, || frame.clone());
//! assert_eq!(verdict, DataVerdict::Clean);
//!
//! // A flipped bit in transport is caught at the boundary.
//! let mut corrupted = frame.clone();
//! corrupted.as_mut_slice()[17] ^= 0x80;
//! let (verdict, _) = guard.check_delivery(1, captured, &corrupted, || frame.clone());
//! assert!(verdict.is_bad());
//! ```

mod digest;
mod guard;
pub mod monitors;

pub use digest::{digest_image, Digest, Hasher};
pub use guard::{DataVerdict, FrameVerdict, GuardConfig, GuardEvent, GuardStats, PipelineGuard};
pub use monitors::{Monitor, Violation};
