use crate::acc::{AdaptiveCruise, IdmParams};
use crate::conformal::{Centerline, ConformalPlanner, RoadObstacle, Trajectory};
use crate::fusion::FusedFrame;
use crate::lattice::{LatticePlanner, Obstacle, Path};
use adsim_runtime::Runtime;
use adsim_vision::{Point2, Pose2};

/// The driving environment, which selects the planning strategy
/// (§3.1.5): structured roads use the conformal lattice, open areas
/// the free-space state lattice.
#[derive(Debug, Clone, PartialEq)]
pub enum Environment {
    /// Structured road with a known centerline.
    Structured(Centerline),
    /// Open area (parking lot, rural ground).
    Open {
        /// Where the vehicle should end up.
        goal: Point2,
    },
}

/// The motion-planner output: either a road trajectory or a free-space
/// path, plus the braking fallback.
#[derive(Debug, Clone, PartialEq)]
pub enum MotionPlan {
    /// Follow a conformal-lattice trajectory.
    Trajectory(Trajectory),
    /// Follow a free-space path.
    Path(Path),
    /// No safe plan exists: brake to a stop.
    EmergencyStop,
}

impl MotionPlan {
    /// The next pose to steer toward, if any.
    pub fn next_waypoint(&self) -> Option<Pose2> {
        match self {
            MotionPlan::Trajectory(t) => t.poses.first().copied(),
            MotionPlan::Path(p) => p.poses.get(1).copied(),
            MotionPlan::EmergencyStop => None,
        }
    }

    /// Commanded speed (0 for emergency stop).
    pub fn speed_mps(&self) -> f64 {
        match self {
            MotionPlan::Trajectory(t) => t.speed_mps,
            MotionPlan::Path(_) => 3.0,
            MotionPlan::EmergencyStop => 0.0,
        }
    }
}

/// The motion-planning engine (paper step 3 of Fig. 1): consumes fused
/// frames and produces path trajectories such as lane changes and
/// velocity settings.
#[derive(Debug, Clone)]
pub struct MotionPlanner {
    environment: Environment,
    conformal: ConformalPlanner,
    lattice: LatticePlanner,
    acc: AdaptiveCruise,
    cruise_mps: f64,
    runtime: Runtime,
}

impl MotionPlanner {
    /// Creates a planner for an environment with a cruise speed. Runs
    /// serially; chain [`MotionPlanner::with_runtime`] to evaluate
    /// lattice candidates on a worker pool.
    pub fn new(environment: Environment, cruise_mps: f64) -> Self {
        Self {
            environment,
            conformal: ConformalPlanner,
            lattice: LatticePlanner::default(),
            acc: AdaptiveCruise::new(IdmParams::cruise(cruise_mps)),
            cruise_mps,
            runtime: Runtime::serial(),
        }
    }

    /// Evaluates conformal-lattice candidates and free-space A*
    /// expansions on `rt`'s workers. Results are bit-identical to the
    /// serial planner on every thread count.
    pub fn with_runtime(mut self, rt: Runtime) -> Self {
        self.runtime = rt;
        self
    }

    /// Plans one step from the fused world state.
    pub fn plan(&self, fused: &FusedFrame) -> MotionPlan {
        match &self.environment {
            Environment::Structured(road) => {
                // Project ego and objects into road coordinates. The
                // straight-road projection (station = x, lateral = y)
                // is exact for the synthetic roads in this workspace;
                // curved roads would use an iterative projection.
                let station = fused.ego.x;
                let lateral = fused.ego.y;
                let obstacles: Vec<RoadObstacle> = fused
                    .objects
                    .iter()
                    .map(|o| RoadObstacle {
                        station: o.position.x,
                        lateral: o.position.y,
                        velocity_mps: o.velocity.x,
                        radius: o.extent.0.max(o.extent.1) / 2.0 + 1.0,
                    })
                    .collect();
                match self.conformal.plan_with(
                    &self.runtime,
                    road,
                    station,
                    lateral,
                    self.cruise_mps,
                    &obstacles,
                ) {
                    Some(mut t) => {
                        // Longitudinal control: follow the nearest
                        // lead vehicle in the selected lane with IDM.
                        let lead = obstacles
                            .iter()
                            .filter(|o| {
                                (o.lateral - t.target_lateral).abs() <= 1.75
                                    && o.station > station
                            })
                            .min_by(|a, b| {
                                a.station
                                    .partial_cmp(&b.station)
                                    .expect("stations are finite")
                            })
                            .map(|o| (o.station - station - o.radius, o.velocity_mps));
                        let ego_speed =
                            if fused.ego_speed_mps > 0.0 { fused.ego_speed_mps } else { t.speed_mps };
                        let accel = self.acc.accel(ego_speed, lead);
                        t.speed_mps =
                            (ego_speed + accel * 1.0).clamp(0.0, self.cruise_mps);
                        MotionPlan::Trajectory(t)
                    }
                    None => MotionPlan::EmergencyStop,
                }
            }
            Environment::Open { goal } => {
                let obstacles: Vec<Obstacle> = fused
                    .objects
                    .iter()
                    .map(|o| Obstacle::new(
                        o.position,
                        o.extent.0.max(o.extent.1) / 2.0 + 1.0,
                    ))
                    .collect();
                match self.lattice.plan_with(&self.runtime, fused.ego, *goal, &obstacles) {
                    Some(p) => MotionPlan::Path(p),
                    None => MotionPlan::EmergencyStop,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::FusedObject;
    use adsim_dnn::detection::ObjectClass;

    fn fused(ego: Pose2, objects: Vec<FusedObject>) -> FusedFrame {
        FusedFrame { ego, ego_speed_mps: 0.0, objects }
    }

    fn object(x: f64, y: f64, vx: f64) -> FusedObject {
        FusedObject {
            track_id: 0,
            class: ObjectClass::Vehicle,
            position: Point2::new(x, y),
            extent: (4.0, 2.0),
            velocity: Point2::new(vx, 0.0),
        }
    }

    #[test]
    fn structured_clear_road_produces_trajectory() {
        let planner =
            MotionPlanner::new(Environment::Structured(Centerline::straight(500.0)), 15.0);
        let plan = planner.plan(&fused(Pose2::new(10.0, 0.0, 0.0), vec![]));
        match plan {
            MotionPlan::Trajectory(t) => {
                assert_eq!(t.target_lateral, 0.0);
                assert_eq!(t.speed_mps, 15.0, "clear road holds the cruise speed");
            }
            other => panic!("expected trajectory, got {other:?}"),
        }
    }

    #[test]
    fn slow_lead_in_lane_reduces_commanded_speed() {
        let planner =
            MotionPlanner::new(Environment::Structured(Centerline::straight(500.0)), 15.0);
        // Ego moving at cruise; a slow lead 15 m ahead in-lane but far
        // enough laterally clear candidates exist — force the center
        // lane by blocking the others less: use a lead dead ahead with
        // small radius so the center lane remains collision-free.
        let mut frame = fused(
            Pose2::new(0.0, 0.0, 0.0),
            vec![FusedObject {
                track_id: 1,
                class: ObjectClass::Vehicle,
                position: Point2::new(18.0, -3.0),
                extent: (1.0, 1.0),
                velocity: Point2::new(3.0, 0.0),
            }],
        );
        frame.ego_speed_mps = 15.0;
        // Obstacle is in the -3.5 lane's reach but not ours: commanded
        // speed stays at cruise.
        let clear = planner.plan(&frame);
        match clear {
            MotionPlan::Trajectory(t) => assert!(t.speed_mps > 13.0, "{}", t.speed_mps),
            other => panic!("expected trajectory, got {other:?}"),
        }
        // Move the lead into our lane: IDM must slow us down.
        frame.objects[0].position = Point2::new(18.0, 0.0);
        let following = planner.plan(&frame);
        match following {
            MotionPlan::Trajectory(t) => {
                assert!(t.speed_mps < 13.0, "commanded {} m/s", t.speed_mps)
            }
            other => panic!("expected trajectory, got {other:?}"),
        }
    }

    #[test]
    fn structured_blocked_lane_changes_lanes() {
        let planner =
            MotionPlanner::new(Environment::Structured(Centerline::straight(500.0)), 15.0);
        let plan = planner.plan(&fused(
            Pose2::new(0.0, 0.0, 0.0),
            vec![object(30.0, 0.0, 0.0)],
        ));
        match plan {
            MotionPlan::Trajectory(t) => assert_ne!(t.target_lateral, 0.0),
            other => panic!("expected trajectory, got {other:?}"),
        }
    }

    #[test]
    fn structured_wall_forces_emergency_stop() {
        let planner =
            MotionPlanner::new(Environment::Structured(Centerline::straight(500.0)), 15.0);
        let wall: Vec<FusedObject> = (-2..=2)
            .map(|i| FusedObject {
                extent: (6.0, 6.0),
                ..object(25.0, i as f64 * 1.75, 0.0)
            })
            .collect();
        let plan = planner.plan(&fused(Pose2::new(0.0, 0.0, 0.0), wall));
        assert_eq!(plan, MotionPlan::EmergencyStop);
        assert_eq!(plan.speed_mps(), 0.0);
        assert!(plan.next_waypoint().is_none());
    }

    #[test]
    fn open_area_uses_lattice_path() {
        let planner =
            MotionPlanner::new(Environment::Open { goal: Point2::new(15.0, 5.0) }, 3.0);
        let plan = planner.plan(&fused(Pose2::identity(), vec![]));
        assert!(plan.next_waypoint().is_some());
        match plan {
            MotionPlan::Path(p) => assert!(p.poses.len() >= 2),
            other => panic!("expected path, got {other:?}"),
        }
    }

    #[test]
    fn open_area_avoids_fused_objects() {
        let planner =
            MotionPlanner::new(Environment::Open { goal: Point2::new(20.0, 0.0) }, 3.0);
        let plan = planner.plan(&fused(
            Pose2::identity(),
            vec![object(10.0, 0.0, 0.0)],
        ));
        match plan {
            MotionPlan::Path(p) => {
                for pose in &p.poses {
                    assert!(pose.translation().distance(&Point2::new(10.0, 0.0)) > 2.9);
                }
            }
            other => panic!("expected path, got {other:?}"),
        }
    }
}
