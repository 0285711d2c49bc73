use adsim_dnn::detection::ObjectClass;
use adsim_runtime::Runtime;
use adsim_vision::{OrthoCamera, Point2, Pose2};
use std::collections::HashMap;

/// Approximate scalar-operation cost of projecting one track (camera
/// transform with trig, extent scaling, velocity differencing) — the
/// `Runtime::for_work` estimate that keeps small object tables serial.
const PROJECT_WORK_PER_TRACK: usize = 200;

/// Minimal view of a tracked object the fusion engine needs. Defined
/// here (rather than importing `adsim-perception`) to keep the planning
/// crate independent of the perception implementation.
mod adsim_perception_types {
    use adsim_dnn::detection::{BBox, ObjectClass};

    /// Anything that looks like a tracked-object-table row.
    pub trait TrackedLike {
        /// Stable track identity.
        fn track_id(&self) -> u64;
        /// Object class.
        fn class(&self) -> ObjectClass;
        /// Normalized image bounding box.
        fn bbox(&self) -> BBox;
    }

    impl TrackedLike for (u64, ObjectClass, BBox) {
        fn track_id(&self) -> u64 {
            self.0
        }
        fn class(&self) -> ObjectClass {
            self.1
        }
        fn bbox(&self) -> BBox {
            self.2
        }
    }
}
pub use adsim_perception_types::TrackedLike;

/// A tracked object projected into world coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedObject {
    /// Track identity from the tracker pool.
    pub track_id: u64,
    /// Object class.
    pub class: ObjectClass,
    /// World position (m).
    pub position: Point2,
    /// World extent (m): (along-image-x, along-image-y).
    pub extent: (f64, f64),
    /// Estimated world velocity (m/s), `(0, 0)` until the track has
    /// been seen twice.
    pub velocity: Point2,
}

impl FusedObject {
    /// Position extrapolated `dt` seconds ahead — the "predict their
    /// moving trajectories" output the motion planner consumes.
    pub fn predicted_position(&self, dt: f64) -> Point2 {
        self.position + self.velocity * dt
    }
}

/// One fused frame: the ego pose and all tracked objects on the same
/// 3-D (here: ground-plane) coordinate space (paper step 2 of Fig. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct FusedFrame {
    /// Ego world pose.
    pub ego: Pose2,
    /// Ego speed estimated from consecutive poses (m/s); 0 until two
    /// frames have been fused.
    pub ego_speed_mps: f64,
    /// Objects in world coordinates.
    pub objects: Vec<FusedObject>,
}

/// The fusion engine: combines tracker output with the localizer's
/// vehicle pose and maintains per-track velocity estimates.
#[derive(Debug, Clone, Default)]
pub struct FusionEngine {
    history: HashMap<u64, (Point2, f64)>,
    ego_history: Option<(Point2, f64)>,
}

impl FusionEngine {
    /// Creates an engine with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fuses one frame serially. Equivalent to [`FusionEngine::fuse_with`]
    /// on a serial runtime.
    ///
    /// `tracks` is the tracked-object table, `ego` the localizer's
    /// pose estimate, `time_s` the frame timestamp used for velocity
    /// differencing.
    pub fn fuse<T: TrackedLike + Sync>(
        &mut self,
        camera: &OrthoCamera,
        ego: Pose2,
        time_s: f64,
        tracks: &[T],
    ) -> FusedFrame {
        self.fuse_with(&Runtime::serial(), camera, ego, time_s, tracks)
    }

    /// [`FusionEngine::fuse`] on a worker pool: the per-object
    /// projections (camera transform, extent scaling, velocity
    /// differencing) are pure reads of the pre-frame history, so they
    /// fan out across the runtime's workers with each object writing
    /// its own output slot; history mutation then runs serially in
    /// input order. Output order is the input track order and every
    /// velocity is differenced against the *previous* frame's entry,
    /// independent of the worker count — results are bit-identical on
    /// every thread count.
    pub fn fuse_with<T: TrackedLike + Sync>(
        &mut self,
        rt: &Runtime,
        camera: &OrthoCamera,
        ego: Pose2,
        time_s: f64,
        tracks: &[T],
    ) -> FusedFrame {
        let history = &self.history;
        let mut slots: Vec<Option<FusedObject>> = vec![None; tracks.len()];
        rt.for_work(tracks.len() * PROJECT_WORK_PER_TRACK)
            .par_chunks_mut(&mut slots, 1, |i, slot| {
                let t = &tracks[i];
                let b = t.bbox();
                let u = b.cx as f64 * camera.width() as f64;
                let v = b.cy as f64 * camera.height() as f64;
                let position = camera.image_to_world(&ego, u, v);
                let extent = (
                    b.w as f64 * camera.width() as f64 * camera.meters_per_pixel(),
                    b.h as f64 * camera.height() as f64 * camera.meters_per_pixel(),
                );
                let velocity = match history.get(&t.track_id()) {
                    Some(&(prev_pos, prev_t)) if time_s > prev_t => {
                        (position - prev_pos) * (1.0 / (time_s - prev_t))
                    }
                    _ => Point2::default(),
                };
                slot[0] = Some(FusedObject {
                    track_id: t.track_id(),
                    class: t.class(),
                    position,
                    extent,
                    velocity,
                });
            });
        let objects: Vec<FusedObject> =
            slots.into_iter().map(|s| s.expect("every slot projected")).collect();
        let mut seen = Vec::with_capacity(tracks.len());
        for obj in &objects {
            self.history.insert(obj.track_id, (obj.position, time_s));
            seen.push(obj.track_id);
        }
        // Forget tracks that disappeared so ids can be recycled safely.
        self.history.retain(|id, _| seen.contains(id));
        let ego_speed_mps = match self.ego_history {
            Some((prev, prev_t)) if time_s > prev_t => {
                ego.translation().distance(&prev) / (time_s - prev_t)
            }
            _ => 0.0,
        };
        self.ego_history = Some((ego.translation(), time_s));
        FusedFrame { ego, ego_speed_mps, objects }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_dnn::detection::BBox;

    fn camera() -> OrthoCamera {
        OrthoCamera::new(320, 240, 0.25)
    }

    #[test]
    fn image_center_maps_to_ego_position() {
        let mut fusion = FusionEngine::new();
        let ego = Pose2::new(10.0, 5.0, 0.3);
        let track = (1u64, ObjectClass::Vehicle, BBox::new(0.5, 0.5, 0.1, 0.1));
        let fused = fusion.fuse(&camera(), ego, 0.0, &[track]);
        let obj = &fused.objects[0];
        assert!((obj.position.x - 10.0).abs() < 0.2);
        assert!((obj.position.y - 5.0).abs() < 0.2);
    }

    #[test]
    fn extent_scales_with_box_size() {
        let mut fusion = FusionEngine::new();
        let track = (1u64, ObjectClass::Vehicle, BBox::new(0.5, 0.5, 0.1, 0.2));
        let fused = fusion.fuse(&camera(), Pose2::identity(), 0.0, &[track]);
        let (ex, ey) = fused.objects[0].extent;
        assert!((ex - 8.0).abs() < 1e-6, "0.1 * 320 px * 0.25 m/px");
        assert!((ey - 12.0).abs() < 1e-6);
    }

    #[test]
    fn velocity_estimated_from_consecutive_frames() {
        let mut fusion = FusionEngine::new();
        let cam = camera();
        let ego = Pose2::identity();
        let t0 = (7u64, ObjectClass::Pedestrian, BBox::new(0.5, 0.5, 0.05, 0.05));
        let f0 = fusion.fuse(&cam, ego, 0.0, &[t0]);
        assert_eq!(f0.objects[0].velocity, Point2::default());
        // Move 8 px right in image = 2 m in -y (image right is -y).
        let t1 = (7u64, ObjectClass::Pedestrian, BBox::new(0.525, 0.5, 0.05, 0.05));
        let f1 = fusion.fuse(&cam, ego, 0.5, &[t1]);
        let v = f1.objects[0].velocity;
        assert!((v.y + 4.0).abs() < 0.1, "2 m in 0.5 s -> 4 m/s, got {v:?}");
        assert!(v.x.abs() < 0.1);
    }

    #[test]
    fn velocity_accounts_for_ego_motion() {
        // Object stationary in the image while ego advances: its world
        // velocity should match the ego's.
        let mut fusion = FusionEngine::new();
        let cam = camera();
        let track = (3u64, ObjectClass::Vehicle, BBox::new(0.5, 0.3, 0.05, 0.05));
        fusion.fuse(&cam, Pose2::new(0.0, 0.0, 0.0), 0.0, &[track]);
        let fused = fusion.fuse(&cam, Pose2::new(5.0, 0.0, 0.0), 1.0, &[track]);
        let v = fused.objects[0].velocity;
        assert!((v.x - 5.0).abs() < 0.1, "{v:?}");
    }

    #[test]
    fn disappeared_tracks_are_forgotten() {
        let mut fusion = FusionEngine::new();
        let cam = camera();
        let track = (9u64, ObjectClass::Bicycle, BBox::new(0.4, 0.4, 0.05, 0.05));
        fusion.fuse(&cam, Pose2::identity(), 0.0, &[track]);
        fusion.fuse::<(u64, ObjectClass, BBox)>(&cam, Pose2::identity(), 1.0, &[]);
        // Re-appearing with the same id starts with zero velocity.
        let fused = fusion.fuse(&cam, Pose2::identity(), 2.0, &[track]);
        assert_eq!(fused.objects[0].velocity, Point2::default());
    }

    #[test]
    fn ego_speed_estimated_from_consecutive_frames() {
        let mut fusion = FusionEngine::new();
        let cam = camera();
        let f0 = fusion.fuse::<(u64, ObjectClass, BBox)>(&cam, Pose2::new(0.0, 0.0, 0.0), 0.0, &[]);
        assert_eq!(f0.ego_speed_mps, 0.0);
        let f1 =
            fusion.fuse::<(u64, ObjectClass, BBox)>(&cam, Pose2::new(3.0, 4.0, 0.0), 1.0, &[]);
        assert!((f1.ego_speed_mps - 5.0).abs() < 1e-9);
    }

    #[test]
    fn predicted_position_extrapolates() {
        let obj = FusedObject {
            track_id: 0,
            class: ObjectClass::Vehicle,
            position: Point2::new(1.0, 1.0),
            extent: (4.0, 2.0),
            velocity: Point2::new(2.0, -1.0),
        };
        let p = obj.predicted_position(2.0);
        assert_eq!(p, Point2::new(5.0, -1.0));
    }
}
