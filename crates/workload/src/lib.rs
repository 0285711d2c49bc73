//! Synthetic driving workloads: worlds, scenarios and camera frame
//! streams.
//!
//! The paper characterizes its system on KITTI camera sequences
//! (§3.2); those recordings are not redistributable here, so this crate
//! generates equivalent synthetic workloads that exercise the identical
//! code paths: textured landmark beacons for the localization engine,
//! moving objects of the paper's four classes for the detection and
//! tracking engines, scripted vehicle trajectories, and the camera
//! resolutions of the Fig. 13 scalability sweep.
//!
//! # Examples
//!
//! ```
//! use adsim_workload::{Resolution, Scenario, ScenarioKind};
//!
//! let scenario = Scenario::new(ScenarioKind::UrbanDrive, 42);
//! let mut stream = scenario.stream(Resolution::Hhd);
//! let frame = stream.next().unwrap();
//! assert_eq!(frame.index, 0);
//! assert!(!frame.truth_objects.is_empty());
//! ```

mod resolution;
mod scenario;
mod stream;
mod trajectory;
mod world;

pub use resolution::Resolution;
pub use scenario::{Scenario, ScenarioKind};
pub use stream::{Frame, FrameStream};
pub use trajectory::{PoseTrack, TrackReplay, TrajectoryParseError};
pub use world::{Beacon, Conditions, MovingObject, TruthObject, World};
