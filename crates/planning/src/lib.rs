//! Sensor fusion, motion planning and mission planning (paper steps
//! 2–4 of Fig. 1).
//!
//! * [`FusionEngine`]: projects tracked objects and the ego pose onto
//!   one world coordinate space and estimates object velocities
//!   (§3.1.4),
//! * [`LatticePlanner`]: graph search over motion primitives in state
//!   lattices for open areas like parking lots (§3.1.5, after
//!   Pivtoraiko et al.),
//! * [`ConformalPlanner`]: conformal spatio-temporal lattice along a
//!   road centerline for structured areas (§3.1.5, after McNaughton
//!   et al.),
//! * [`MotionPlanner`]: the environment-dependent dispatch between the
//!   two,
//! * [`MissionPlanner`]: rule-based routing over a road graph, invoked
//!   only when the vehicle deviates from the planned route (§3.1.6).
//!
//! # Examples
//!
//! ```
//! use adsim_planning::{LatticePlanner, Obstacle};
//! use adsim_vision::{Point2, Pose2};
//!
//! let planner = LatticePlanner::default();
//! let path = planner
//!     .plan(Pose2::identity(), Point2::new(12.0, 0.0), &[])
//!     .expect("open space is reachable");
//! assert!(path.poses.len() > 2);
//! ```

mod acc;
mod conformal;
mod fusion;
mod lattice;
mod mission;
mod motion;

pub use acc::{AdaptiveCruise, IdmParams};
pub use conformal::{Centerline, ConformalPlanner, RoadObstacle, Trajectory};
pub use fusion::{FusedFrame, FusedObject, FusionEngine, TrackedLike};
pub use lattice::{LatticePlanner, Obstacle, Path};
pub use mission::{MissionPlanner, RoadGraph, Route};
pub use motion::{Environment, MotionPlan, MotionPlanner};
