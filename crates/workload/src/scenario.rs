use crate::stream::FrameStream;
use crate::world::{World, WorldParams};
use crate::Resolution;
use adsim_vision::{OrthoCamera, Pose2};

/// The driving situations the paper's introduction motivates: dense
/// urban traffic, high-speed highway cruising, and low-speed
/// manoeuvring in open areas (where the motion planner switches to
/// free-space state lattices, §3.1.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// City driving: moderate speed, regular turns, many objects.
    UrbanDrive,
    /// Highway: high speed, straight, few objects.
    HighwayCruise,
    /// Parking lot: low speed, tight curves, pedestrians.
    ParkingLot,
}

impl std::fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ScenarioKind::UrbanDrive => "urban-drive",
            ScenarioKind::HighwayCruise => "highway-cruise",
            ScenarioKind::ParkingLot => "parking-lot",
        };
        f.write_str(s)
    }
}

/// A reproducible driving scenario: a world, a scripted ego
/// trajectory, and a frame rate.
///
/// The paper's performance constraint demands processing at 10 frames
/// per second or better (§2.4.1), so scenarios default to 10 FPS.
///
/// # Examples
///
/// ```
/// use adsim_workload::{Scenario, ScenarioKind};
///
/// let s = Scenario::new(ScenarioKind::HighwayCruise, 1);
/// let early = s.pose_at(0);
/// let later = s.pose_at(50);
/// assert!(early.distance(&later) > 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    kind: ScenarioKind,
    world: World,
    fps: f64,
}

impl Scenario {
    /// Creates a scenario with a deterministically generated world.
    pub fn new(kind: ScenarioKind, seed: u64) -> Self {
        let params = match kind {
            ScenarioKind::UrbanDrive => WorldParams { n_objects: 16, ..Default::default() },
            ScenarioKind::HighwayCruise => WorldParams {
                extent_m: 600.0,
                n_objects: 6,
                object_speed_mps: 25.0,
                ..Default::default()
            },
            ScenarioKind::ParkingLot => WorldParams {
                extent_m: 120.0,
                n_objects: 10,
                object_speed_mps: 1.2,
                ..Default::default()
            },
        };
        Self { kind, world: World::generate(seed, &params), fps: 10.0 }
    }

    /// The generated world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Frames per second of the camera (paper constraint: ≥ 10).
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// Ego speed in m/s.
    pub fn speed_mps(&self) -> f64 {
        match self.kind {
            ScenarioKind::UrbanDrive => 11.0,   // ~40 km/h
            ScenarioKind::HighwayCruise => 28.0, // ~100 km/h
            ScenarioKind::ParkingLot => 2.0,
        }
    }

    /// Ground-truth ego pose at a frame index.
    ///
    /// Urban drives weave gently, highway runs straight, parking lots
    /// trace tight arcs — enough heading variation to exercise the
    /// motion model and steered descriptors.
    pub fn pose_at(&self, frame: u64) -> Pose2 {
        let t = frame as f64 / self.fps;
        let s = self.speed_mps() * t;
        match self.kind {
            ScenarioKind::UrbanDrive => {
                // Gentle S-curves: heading oscillates ±0.15 rad.
                let theta = 0.15 * (s / 40.0).sin();
                Pose2::new(s, 8.0 * (1.0 - (s / 40.0).cos()) * 0.15, theta)
            }
            ScenarioKind::HighwayCruise => Pose2::new(s, 0.0, 0.0),
            ScenarioKind::ParkingLot => {
                // Circle of radius 25 m.
                let r = 25.0;
                let phi = s / r;
                Pose2::new(r * phi.sin(), r * (1.0 - phi.cos()), phi)
            }
        }
    }

    /// A camera for this scenario at a given resolution. The ground
    /// footprint is fixed (80 m × 60 m around the vehicle), so higher
    /// resolutions mean finer ground sampling — the accuracy benefit
    /// the paper's Fig. 13 trades against compute.
    pub fn camera(&self, resolution: Resolution) -> OrthoCamera {
        let footprint_w_m = 80.0;
        OrthoCamera::new(
            resolution.width(),
            resolution.height(),
            footprint_w_m / resolution.width() as f64,
        )
    }

    /// An endless frame stream at the given resolution.
    pub fn stream(&self, resolution: Resolution) -> FrameStream<'_> {
        FrameStream::new(self, resolution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_have_distinct_speeds() {
        let u = Scenario::new(ScenarioKind::UrbanDrive, 1);
        let h = Scenario::new(ScenarioKind::HighwayCruise, 1);
        let p = Scenario::new(ScenarioKind::ParkingLot, 1);
        assert!(h.speed_mps() > u.speed_mps());
        assert!(u.speed_mps() > p.speed_mps());
    }

    #[test]
    fn highway_is_straight_urban_is_not() {
        let h = Scenario::new(ScenarioKind::HighwayCruise, 1);
        assert_eq!(h.pose_at(100).theta, 0.0);
        let u = Scenario::new(ScenarioKind::UrbanDrive, 1);
        let max_theta = (0..100).map(|f| u.pose_at(f).theta.abs()).fold(0.0, f64::max);
        assert!(max_theta > 0.01);
    }

    #[test]
    fn parking_lot_loops_back() {
        let p = Scenario::new(ScenarioKind::ParkingLot, 1);
        // Full circle: 2*pi*25 m at 2 m/s at 10 fps = ~785 frames.
        let start = p.pose_at(0);
        let full = p.pose_at(785);
        assert!(start.distance(&full) < 2.0, "circle should close: {full:?}");
    }

    #[test]
    fn camera_footprint_fixed_across_resolutions() {
        let s = Scenario::new(ScenarioKind::UrbanDrive, 1);
        let lo = s.camera(Resolution::Hhd);
        let hi = s.camera(Resolution::Qhd);
        let w_lo = lo.width() as f64 * lo.meters_per_pixel();
        let w_hi = hi.width() as f64 * hi.meters_per_pixel();
        assert!((w_lo - w_hi).abs() < 1e-9);
        assert!(hi.meters_per_pixel() < lo.meters_per_pixel());
    }

    #[test]
    fn poses_advance_continuously() {
        let s = Scenario::new(ScenarioKind::UrbanDrive, 1);
        for f in 0..50 {
            let step = s.pose_at(f).distance(&s.pose_at(f + 1));
            assert!(step > 0.5 && step < 3.0, "step {step} at frame {f}");
        }
    }
}
