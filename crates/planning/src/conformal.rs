//! Structured-road motion planning: a conformal spatio-temporal
//! lattice along the road centerline (§3.1.5, after McNaughton
//! et al.) — candidate trajectories are laid out *conformal* to the
//! road (station × lateral offset × time) and scored for collision,
//! comfort and progress.

use adsim_runtime::Runtime;
use adsim_vision::{Point2, Pose2};

/// A road centerline as a polyline with per-vertex stations.
#[derive(Debug, Clone, PartialEq)]
pub struct Centerline {
    points: Vec<Point2>,
    stations: Vec<f64>,
}

impl Centerline {
    /// Creates a centerline from at least two polyline vertices.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are supplied or consecutive
    /// points coincide.
    pub(crate) fn new(points: Vec<Point2>) -> Self {
        assert!(points.len() >= 2, "a centerline needs at least two points");
        let mut stations = vec![0.0];
        for pair in points.windows(2) {
            let d = pair[0].distance(&pair[1]);
            assert!(d > 1e-9, "consecutive centerline points must be distinct");
            stations.push(stations.last().expect("nonempty") + d);
        }
        Self { points, stations }
    }

    /// A straight road along +x of the given length.
    pub fn straight(length_m: f64) -> Self {
        Self::new(vec![Point2::new(0.0, 0.0), Point2::new(length_m, 0.0)])
    }

    /// Total length (m).
    pub(crate) fn length(&self) -> f64 {
        *self.stations.last().expect("nonempty")
    }

    /// The pose at a station: position on the centerline plus road
    /// heading. Stations are clamped to `[0, length]`.
    pub(crate) fn pose_at(&self, station: f64) -> Pose2 {
        let s = station.clamp(0.0, self.length());
        let idx = match self
            .stations
            .binary_search_by(|v| v.partial_cmp(&s).expect("stations are finite"))
        {
            Ok(i) => i.min(self.points.len() - 2),
            Err(i) => (i - 1).min(self.points.len() - 2),
        };
        let a = self.points[idx];
        let b = self.points[idx + 1];
        let seg = self.stations[idx + 1] - self.stations[idx];
        let t = (s - self.stations[idx]) / seg;
        let p = a + (b - a) * t;
        Pose2::new(p.x, p.y, (b.y - a.y).atan2(b.x - a.x))
    }

    /// World position of a (station, lateral-offset) road coordinate;
    /// positive lateral is to the left of travel.
    pub(crate) fn frenet_to_world(&self, station: f64, lateral: f64) -> Point2 {
        let pose = self.pose_at(station);
        pose.transform(Point2::new(0.0, lateral))
    }
}

/// An obstacle in road (Frenet) coordinates with a longitudinal
/// velocity — a fused, trajectory-predicted object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoadObstacle {
    /// Station along the centerline (m).
    pub station: f64,
    /// Lateral offset (m), positive left.
    pub lateral: f64,
    /// Station velocity (m/s).
    pub velocity_mps: f64,
    /// Collision radius (m).
    pub radius: f64,
}

/// Candidate lateral offsets (lane positions), in meters.
const LATERAL_OFFSETS: [f64; 5] = [-3.5, -1.75, 0.0, 1.75, 3.5];
/// Planning horizon (s).
const HORIZON_S: f64 = 4.0;
/// Time sample step (s).
const DT_S: f64 = 0.5;
/// Weight of lateral deviation in the cost. Deviating from the lane
/// center costs more than the transient of changing lanes, so the
/// planner returns to center once the road is clear.
const LATERAL_WEIGHT: f64 = 2.0;
/// Weight of lateral change (comfort) in the cost.
const SWERVE_WEIGHT: f64 = 1.0;

/// A selected trajectory: where the vehicle will be at each time step.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Sampled world poses, one per time step.
    pub poses: Vec<Pose2>,
    /// The lateral offset the trajectory converges to.
    pub target_lateral: f64,
    /// Commanded speed (m/s).
    pub speed_mps: f64,
    /// Time between consecutive poses (s) — consumers that align the
    /// trajectory with predicted obstacle motion (safety monitors,
    /// controllers) need the sample period, not just the samples.
    pub dt_s: f64,
    /// Cost of the selected candidate.
    pub cost: f64,
    /// Number of candidates evaluated (work metric).
    pub candidates: usize,
}

/// The conformal spatio-temporal lattice planner.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConformalPlanner;

impl ConformalPlanner {
    /// Plans along `road` from `(station, lateral)` at `speed_mps`,
    /// avoiding moving `obstacles`. Returns `None` only when every
    /// candidate collides (the caller should then brake).
    ///
    /// Runs serially; [`ConformalPlanner::plan_with`] is the multicore
    /// entry point.
    pub fn plan(
        &self,
        road: &Centerline,
        station: f64,
        lateral: f64,
        speed_mps: f64,
        obstacles: &[RoadObstacle],
    ) -> Option<Trajectory> {
        self.plan_with(&Runtime::serial(), road, station, lateral, speed_mps, obstacles)
    }

    /// [`ConformalPlanner::plan`] on a worker pool: each candidate
    /// lateral offset is evaluated (cost + fine-grid collision sweep)
    /// in its own output slot, then the winner is selected serially in
    /// lattice-index order with a strict `<` — ties keep the lowest
    /// index, exactly as the serial loop does, so the chosen
    /// trajectory is bit-identical on every thread count (no map
    /// iteration or reduction-order dependence anywhere).
    pub fn plan_with(
        &self,
        rt: &Runtime,
        road: &Centerline,
        station: f64,
        lateral: f64,
        speed_mps: f64,
        obstacles: &[RoadObstacle],
    ) -> Option<Trajectory> {
        let steps = (HORIZON_S / DT_S).round() as usize;
        let candidates = LATERAL_OFFSETS.len();
        // Rough per-candidate op count: the collision sweep dominates.
        let work = candidates * steps * SUBSTEPS * (60 + 40 * obstacles.len());
        let mut slots: Vec<Option<(f64, f64, Vec<Pose2>)>> = vec![None; candidates];
        rt.for_work(work).par_chunks_mut(&mut slots, 1, |i, slot| {
            let target = LATERAL_OFFSETS[i];
            slot[0] = self.eval_candidate(road, station, lateral, speed_mps, obstacles, target);
        });
        // Serial index-order reduction, strict `<`: first minimum wins.
        let mut best: Option<(f64, f64, Vec<Pose2>)> = None;
        for cand in slots.into_iter().flatten() {
            if best.as_ref().is_none_or(|(c, _, _)| cand.0 < *c) {
                best = Some(cand);
            }
        }
        best.map(|(cost, target_lateral, poses)| Trajectory {
            poses,
            target_lateral,
            speed_mps,
            dt_s: DT_S,
            cost,
            candidates,
        })
    }

    /// Scores one candidate lane: `None` when its trajectory collides,
    /// otherwise `(cost, target, poses)`.
    fn eval_candidate(
        &self,
        road: &Centerline,
        station: f64,
        lateral: f64,
        speed_mps: f64,
        obstacles: &[RoadObstacle],
        target: f64,
    ) -> Option<(f64, f64, Vec<Pose2>)> {
        let steps = (HORIZON_S / DT_S).round() as usize;
        let mut poses = Vec::with_capacity(steps);
        let cost = LATERAL_WEIGHT * target.abs() + SWERVE_WEIGHT * (target - lateral).abs();
        // Collision is checked on a 4x finer time grid than the
        // emitted poses: relative speeds of tens of m/s would
        // otherwise step "through" an obstacle between samples.
        for k in 1..=steps {
            for sub in 1..=SUBSTEPS {
                let t = (k - 1) as f64 * DT_S + DT_S * sub as f64 / SUBSTEPS as f64;
                let s = station + speed_mps * t;
                // Exponential convergence from the current lateral
                // offset to the candidate lane.
                let blend = 1.0 - (-t / 0.7).exp();
                let l = lateral + (target - lateral) * blend;
                let p = road.frenet_to_world(s, l);
                for o in obstacles {
                    let os = o.station + o.velocity_mps * t;
                    let op = road.frenet_to_world(os, o.lateral);
                    if op.distance(&p) <= o.radius {
                        return None;
                    }
                }
                if sub == SUBSTEPS {
                    poses.push(Pose2::new(p.x, p.y, road.pose_at(s).theta));
                }
            }
        }
        Some((cost, target, poses))
    }
}

/// Collision substeps per emitted pose (see `eval_candidate`).
const SUBSTEPS: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centerline_stations_accumulate() {
        let c = Centerline::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(3.0, 0.0),
            Point2::new(3.0, 4.0),
        ]);
        assert_eq!(c.length(), 7.0);
        let p = c.pose_at(5.0);
        assert!((p.x - 3.0).abs() < 1e-9 && (p.y - 2.0).abs() < 1e-9);
        assert!((p.theta - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
    }

    #[test]
    fn frenet_left_is_left_of_travel() {
        let c = Centerline::straight(100.0);
        let p = c.frenet_to_world(10.0, 2.0);
        assert!((p.x - 10.0).abs() < 1e-9 && (p.y - 2.0).abs() < 1e-9);
    }

    #[test]
    fn clear_road_keeps_center() {
        let road = Centerline::straight(500.0);
        let planner = ConformalPlanner;
        let t = planner.plan(&road, 0.0, 0.0, 15.0, &[]).unwrap();
        assert_eq!(t.target_lateral, 0.0, "no reason to leave the lane center");
        assert_eq!(t.candidates, 5);
    }

    #[test]
    fn blocked_lane_triggers_lane_change() {
        let road = Centerline::straight(500.0);
        let planner = ConformalPlanner;
        // Stopped obstacle dead ahead in our lane.
        let obstacle =
            RoadObstacle { station: 30.0, lateral: 0.0, velocity_mps: 0.0, radius: 2.0 };
        let t = planner.plan(&road, 0.0, 0.0, 15.0, &[obstacle]).unwrap();
        assert_ne!(t.target_lateral, 0.0, "must move out of the blocked lane");
        // And the trajectory itself stays clear.
        for p in &t.poses {
            assert!(p.translation().distance(&Point2::new(30.0, 0.0)) > 2.0);
        }
    }

    #[test]
    fn moving_obstacle_ahead_at_same_speed_is_not_a_collision() {
        let road = Centerline::straight(500.0);
        let planner = ConformalPlanner;
        // Lead vehicle 20 m ahead travelling at our speed.
        let lead = RoadObstacle { station: 20.0, lateral: 0.0, velocity_mps: 15.0, radius: 2.0 };
        let t = planner.plan(&road, 0.0, 0.0, 15.0, &[lead]).unwrap();
        assert_eq!(t.target_lateral, 0.0, "constant gap -> stay in lane");
    }

    #[test]
    fn fully_blocked_road_returns_none() {
        let road = Centerline::straight(500.0);
        let planner = ConformalPlanner;
        let wall: Vec<RoadObstacle> = [-3.5, -1.75, 0.0, 1.75, 3.5]
            .iter()
            .map(|&l| RoadObstacle { station: 25.0, lateral: l, velocity_mps: 0.0, radius: 3.0 })
            .collect();
        assert!(planner.plan(&road, 0.0, 0.0, 15.0, &wall).is_none());
    }

    #[test]
    fn returns_toward_center_after_pass() {
        let road = Centerline::straight(500.0);
        let planner = ConformalPlanner;
        // Already offset left; road clear: prefer drifting back.
        let t = planner.plan(&road, 0.0, 1.75, 15.0, &[]).unwrap();
        assert_eq!(t.target_lateral, 0.0);
        let last = t.poses.last().unwrap();
        assert!(last.y.abs() < 1.0, "converging to center, got {}", last.y);
    }
}
