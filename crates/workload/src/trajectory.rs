//! Externally supplied ego trajectories.
//!
//! The paper characterizes on recorded KITTI drives; this module lets
//! users replay their own recorded trajectories (e.g. converted KITTI
//! odometry ground truth) through the synthetic worlds instead of the
//! built-in scripted routes. The format is a plain CSV of
//! `time_s,x_m,y_m,theta_rad` rows, with `#` comments.

use adsim_vision::{geometry::normalize_angle, Pose2};

/// Errors parsing a trajectory file.
#[derive(Debug, Clone, PartialEq)]
pub enum TrajectoryParseError {
    /// A row did not have exactly four comma-separated fields.
    BadFieldCount {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        found: usize,
    },
    /// A field failed to parse as a number.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending field text.
        field: String,
    },
    /// A field parsed as a number but was NaN or infinite. Accepting
    /// these would poison every downstream interpolation and search.
    NonFiniteNumber {
        /// 1-based line number.
        line: usize,
        /// The offending field text.
        field: String,
    },
    /// Timestamps must be strictly increasing.
    NonMonotonicTime {
        /// 1-based line number.
        line: usize,
    },
    /// The file contained no data rows.
    Empty,
}

impl std::fmt::Display for TrajectoryParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrajectoryParseError::BadFieldCount { line, found } => {
                write!(f, "line {line}: expected 4 fields (t,x,y,theta), found {found}")
            }
            TrajectoryParseError::BadNumber { line, field } => {
                write!(f, "line {line}: could not parse number from {field:?}")
            }
            TrajectoryParseError::NonFiniteNumber { line, field } => {
                write!(f, "line {line}: non-finite number {field:?}")
            }
            TrajectoryParseError::NonMonotonicTime { line } => {
                write!(f, "line {line}: timestamps must be strictly increasing")
            }
            TrajectoryParseError::Empty => write!(f, "trajectory contains no data rows"),
        }
    }
}

impl std::error::Error for TrajectoryParseError {}

/// A time-stamped pose track with linear interpolation.
///
/// # Examples
///
/// ```
/// use adsim_workload::PoseTrack;
///
/// let track = PoseTrack::from_csv_str(
///     "# t, x, y, theta\n0.0, 0.0, 0.0, 0.0\n1.0, 10.0, 0.0, 0.0\n",
/// )?;
/// let mid = track.pose_at_time(0.5);
/// assert!((mid.x - 5.0).abs() < 1e-9);
/// # Ok::<(), adsim_workload::TrajectoryParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PoseTrack {
    times: Vec<f64>,
    poses: Vec<Pose2>,
}

impl PoseTrack {
    /// Parses the `time,x,y,theta` CSV format. Blank lines and lines
    /// starting with `#` are ignored.
    ///
    /// # Errors
    ///
    /// Returns a [`TrajectoryParseError`] describing the first
    /// offending line.
    pub fn from_csv_str(text: &str) -> Result<PoseTrack, TrajectoryParseError> {
        let mut times = Vec::new();
        let mut poses = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
            if fields.len() != 4 {
                return Err(TrajectoryParseError::BadFieldCount { line, found: fields.len() });
            }
            let mut nums = [0.0f64; 4];
            for (n, f) in nums.iter_mut().zip(&fields) {
                *n = f.parse().map_err(|_| TrajectoryParseError::BadNumber {
                    line,
                    field: (*f).to_string(),
                })?;
                // "nan"/"inf" parse successfully but would panic the
                // time binary search and poison interpolation later;
                // reject them at the boundary instead.
                if !n.is_finite() {
                    return Err(TrajectoryParseError::NonFiniteNumber {
                        line,
                        field: (*f).to_string(),
                    });
                }
            }
            if let Some(&last) = times.last() {
                if nums[0] <= last {
                    return Err(TrajectoryParseError::NonMonotonicTime { line });
                }
            }
            times.push(nums[0]);
            poses.push(Pose2::new(nums[1], nums[2], nums[3]));
        }
        if times.is_empty() {
            return Err(TrajectoryParseError::Empty);
        }
        Ok(PoseTrack { times, poses })
    }

    /// Start and end timestamps.
    pub(crate) fn time_span(&self) -> (f64, f64) {
        (self.times[0], *self.times.last().expect("nonempty"))
    }

    /// Pose at an arbitrary time, linearly interpolating position and
    /// heading (shortest-arc). Times outside the span clamp to the
    /// endpoints.
    pub fn pose_at_time(&self, t: f64) -> Pose2 {
        if t <= self.times[0] {
            return self.poses[0];
        }
        let last = self.times.len() - 1;
        if t >= self.times[last] {
            return self.poses[last];
        }
        let i = match self.times.binary_search_by(|v| v.total_cmp(&t)) {
            Ok(i) => return self.poses[i],
            Err(i) => i - 1,
        };
        let (t0, t1) = (self.times[i], self.times[i + 1]);
        let w = (t - t0) / (t1 - t0);
        let (a, b) = (self.poses[i], self.poses[i + 1]);
        let dtheta = normalize_angle(b.theta - a.theta);
        Pose2::new(
            a.x + (b.x - a.x) * w,
            a.y + (b.y - a.y) * w,
            a.theta + dtheta * w,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# KITTI-style converted ground truth
0.0, 0.0, 0.0, 0.0
0.5, 5.0, 0.0, 0.1

1.0, 10.0, 1.0, 0.2
";

    #[test]
    fn parses_comments_and_blank_lines() {
        let track = PoseTrack::from_csv_str(SAMPLE).unwrap();
        assert_eq!(track.times.len(), 3);
        assert_eq!(track.time_span(), (0.0, 1.0));
    }

    #[test]
    fn interpolates_between_rows() {
        let track = PoseTrack::from_csv_str(SAMPLE).unwrap();
        let p = track.pose_at_time(0.25);
        assert!((p.x - 2.5).abs() < 1e-9);
        assert!((p.theta - 0.05).abs() < 1e-9);
        // Exact hits return the row.
        assert_eq!(track.pose_at_time(0.5), Pose2::new(5.0, 0.0, 0.1));
    }

    #[test]
    fn clamps_outside_the_span() {
        let track = PoseTrack::from_csv_str(SAMPLE).unwrap();
        assert_eq!(track.pose_at_time(-10.0), track.pose_at_time(0.0));
        assert_eq!(track.pose_at_time(99.0), Pose2::new(10.0, 1.0, 0.2));
    }

    #[test]
    fn heading_interpolates_across_the_wrap() {
        let text = "0.0, 0.0, 0.0, 3.1\n1.0, 1.0, 0.0, -3.1\n";
        let track = PoseTrack::from_csv_str(text).unwrap();
        let mid = track.pose_at_time(0.5);
        // Shortest arc passes through ±π, not through 0.
        assert!(mid.theta.abs() > 3.0, "theta {}", mid.theta);
    }

    #[test]
    fn rejects_malformed_input() {
        assert_eq!(
            PoseTrack::from_csv_str("1.0, 2.0, 3.0").unwrap_err(),
            TrajectoryParseError::BadFieldCount { line: 1, found: 3 }
        );
        assert!(matches!(
            PoseTrack::from_csv_str("0, 0, 0, x").unwrap_err(),
            TrajectoryParseError::BadNumber { line: 1, .. }
        ));
        assert_eq!(
            PoseTrack::from_csv_str("1.0,0,0,0\n1.0,1,1,0\n").unwrap_err(),
            TrajectoryParseError::NonMonotonicTime { line: 2 }
        );
        assert_eq!(PoseTrack::from_csv_str("# only comments\n").unwrap_err(), TrajectoryParseError::Empty);
    }

    #[test]
    fn rejects_non_finite_numbers() {
        // `"nan".parse::<f64>()` succeeds; before this check a NaN
        // timestamp panicked pose_at_time's binary search at use time
        // instead of failing at the parse boundary.
        for bad in ["nan, 0, 0, 0", "inf, 0, 0, 0", "0, 0, NaN, 0"] {
            assert!(
                matches!(
                    PoseTrack::from_csv_str(bad).unwrap_err(),
                    TrajectoryParseError::NonFiniteNumber { line: 1, .. }
                ),
                "{bad:?} must be rejected"
            );
        }
    }
}

/// Replays a recorded trajectory through a world, producing the same
/// [`Frame`](crate::Frame)s a scripted scenario would — the path for
/// running the pipeline on externally captured drives.
#[derive(Debug)]
pub struct TrackReplay<'a> {
    world: &'a crate::World,
    camera: adsim_vision::OrthoCamera,
    track: &'a PoseTrack,
    fps: f64,
    next_index: u64,
}

impl<'a> TrackReplay<'a> {
    /// Creates a replay over `track` sampled at `fps`.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not positive.
    pub fn new(
        world: &'a crate::World,
        camera: adsim_vision::OrthoCamera,
        track: &'a PoseTrack,
        fps: f64,
    ) -> Self {
        assert!(fps > 0.0, "frame rate must be positive");
        Self { world, camera, track, fps, next_index: 0 }
    }
}

impl Iterator for TrackReplay<'_> {
    type Item = crate::Frame;

    fn next(&mut self) -> Option<crate::Frame> {
        let (t0, t1) = self.track.time_span();
        let time_s = t0 + self.next_index as f64 / self.fps;
        if time_s > t1 {
            return None;
        }
        let index = self.next_index;
        self.next_index += 1;
        let truth_pose = self.track.pose_at_time(time_s);
        Some(crate::Frame {
            index,
            time_s,
            truth_pose,
            image: self.world.render(&self.camera, &truth_pose, time_s),
            truth_objects: self.world.truth_objects(&self.camera, &truth_pose, time_s),
        })
    }
}

#[cfg(test)]
mod replay_tests {
    use super::*;
    use crate::world::{World, WorldParams};
    use adsim_vision::OrthoCamera;

    #[test]
    fn replay_ends_at_the_track_end() {
        let world = World::generate(1, &WorldParams::default());
        let camera = OrthoCamera::new(160, 120, 0.5);
        let track =
            PoseTrack::from_csv_str("0.0,0,0,0\n1.0,10,0,0\n2.0,20,0,0\n").unwrap();
        let frames: Vec<_> = TrackReplay::new(&world, camera, &track, 10.0).collect();
        assert_eq!(frames.len(), 21, "0..=2.0 s at 10 FPS inclusive");
        assert!((frames[10].truth_pose.x - 10.0).abs() < 1e-9);
        assert_eq!(frames[5].image.width(), 160);
    }

    #[test]
    fn replay_respects_the_camera_and_world() {
        let world = World::generate(2, &WorldParams::default());
        let camera = OrthoCamera::new(80, 60, 1.0);
        let track = PoseTrack::from_csv_str("0.0,0,0,0\n0.5,5,0,0\n").unwrap();
        let mut replay = TrackReplay::new(&world, camera, &track, 10.0);
        let f = replay.next().unwrap();
        // Identical rendering to calling the world directly.
        assert_eq!(f.image, world.render(&camera, &f.truth_pose, f.time_s));
    }
}
