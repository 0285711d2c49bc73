use crate::scenario::Scenario;
use crate::world::TruthObject;
use crate::Resolution;
use adsim_vision::{GrayImage, OrthoCamera, Pose2};

/// One camera frame with ground truth.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Frame index (0-based).
    pub index: u64,
    /// Capture time in seconds.
    pub time_s: f64,
    /// Ground-truth ego pose.
    pub truth_pose: Pose2,
    /// The rendered camera image.
    pub image: GrayImage,
    /// Ground-truth visible objects.
    pub truth_objects: Vec<TruthObject>,
}

/// An endless iterator of rendered frames for a scenario.
///
/// # Examples
///
/// ```
/// use adsim_workload::{Resolution, Scenario, ScenarioKind};
///
/// let scenario = Scenario::new(ScenarioKind::ParkingLot, 9);
/// let frames: Vec<_> = scenario.stream(Resolution::Hhd).take(3).collect();
/// assert_eq!(frames.len(), 3);
/// assert!(frames[2].time_s > frames[1].time_s);
/// ```
#[derive(Debug)]
pub struct FrameStream<'a> {
    scenario: &'a Scenario,
    camera: OrthoCamera,
    next_index: u64,
}

impl<'a> FrameStream<'a> {
    /// Creates a stream at frame 0.
    pub(crate) fn new(scenario: &'a Scenario, resolution: Resolution) -> Self {
        Self { scenario, camera: scenario.camera(resolution), next_index: 0 }
    }

    /// Skips ahead without rendering.
    pub fn seek(&mut self, index: u64) {
        self.next_index = index;
    }
}

impl Iterator for FrameStream<'_> {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        let index = self.next_index;
        self.next_index += 1;
        let time_s = index as f64 / self.scenario.fps();
        let truth_pose = self.scenario.pose_at(index);
        let world = self.scenario.world();
        Some(Frame {
            index,
            time_s,
            truth_pose,
            image: world.render(&self.camera, &truth_pose, time_s),
            truth_objects: world.truth_objects(&self.camera, &truth_pose, time_s),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioKind;

    #[test]
    fn frames_are_sequential_and_timed() {
        let s = Scenario::new(ScenarioKind::UrbanDrive, 3);
        let frames: Vec<_> = s.stream(Resolution::Hhd).take(5).collect();
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.index, i as u64);
            assert!((f.time_s - i as f64 / 10.0).abs() < 1e-12);
        }
    }

    #[test]
    fn seek_skips_frames() {
        let s = Scenario::new(ScenarioKind::UrbanDrive, 3);
        let mut stream = s.stream(Resolution::Hhd);
        stream.seek(100);
        let f = stream.next().unwrap();
        assert_eq!(f.index, 100);
        assert!(f.truth_pose.x > 50.0);
    }

    #[test]
    fn image_matches_requested_resolution() {
        let s = Scenario::new(ScenarioKind::ParkingLot, 3);
        let f = s.stream(Resolution::Hd).next().unwrap();
        assert_eq!(f.image.width(), 1280);
        assert_eq!(f.image.height(), 720);
    }

    #[test]
    fn truth_objects_have_normalized_boxes() {
        let s = Scenario::new(ScenarioKind::UrbanDrive, 3);
        for f in s.stream(Resolution::Hhd).take(3) {
            for t in &f.truth_objects {
                assert!(t.bbox.cx >= 0.0 && t.bbox.cx <= 1.0);
                assert!(t.bbox.cy >= 0.0 && t.bbox.cy <= 1.0);
                assert!(t.bbox.w > 0.0 && t.bbox.h > 0.0);
            }
        }
    }
}
