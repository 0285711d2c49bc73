//! ORB-SLAM-style prior-map localization (the paper's LOC engine).
//!
//! The paper's localization engine (§3.1.3, Fig. 5) extracts ORB
//! features from the camera stream, matches their descriptors against a
//! prior map stored on the vehicle (§2.4.3), predicts the pose with a
//! constant motion model, relocalizes with a widened search when
//! tracking fails, updates the map when the surroundings changed, and
//! periodically closes loops to cancel drift. This crate implements
//! that pipeline:
//!
//! * [`Landmark`] / [`PriorMap`]: descriptor-indexed landmark database
//!   with spatial queries and the paper's storage-size model (41 TB for
//!   a U.S.-scale map),
//! * [`MotionModel`]: constant-velocity pose prediction,
//! * [`estimate_pose`]: trimmed least-squares SE(2) registration of
//!   feature correspondences,
//! * [`Localizer`]: the full tracking / relocalization / map-update /
//!   loop-closing state machine, reporting per-frame work so the
//!   platform models can reproduce LOC's heavy-tailed latency
//!   (Finding 2).
//!
//! # Examples
//!
//! ```
//! use adsim_slam::{Landmark, PriorMap};
//! use adsim_vision::{Descriptor, Point2};
//!
//! let map = PriorMap::new(vec![Landmark::new(
//!     0,
//!     Point2::new(5.0, 5.0),
//!     Descriptor::new([0xAB; 32]),
//! )]);
//! assert_eq!(map.near(Point2::new(0.0, 0.0), 10.0).len(), 1);
//! assert!(map.near(Point2::new(100.0, 0.0), 10.0).is_empty());
//! ```

mod localizer;
mod map;
mod motion;
pub mod odometry;
mod solve;
pub mod storage;

pub use localizer::{LocCost, LocalizeOutcome, LocalizeResult, Localizer, LocalizerConfig};
pub use map::{Landmark, PriorMap, SharedMap};
pub use motion::MotionModel;
pub use solve::{estimate_pose, Correspondence, PoseEstimate};
