use crate::native::{build_prior_map, NativePipeline, NativePipelineConfig};
use adsim_planning::MotionPlan;
use adsim_vehicle::{BicycleState, VehicleController};
use adsim_vision::{Point2, Pose2};
use adsim_workload::{Resolution, Scenario, World};

/// One step of a closed-loop run.
#[derive(Debug, Clone, Copy)]
pub struct SimStep {
    /// Simulation time (s).
    pub time_s: f64,
    /// Ground-truth vehicle pose (the bicycle model's state).
    pub true_pose: Pose2,
    /// Localizer estimate, if tracking.
    pub estimated_pose: Option<Pose2>,
    /// Localization error (m), `NaN` when lost.
    pub localization_error_m: f64,
    /// Lateral offset from the lane center (m).
    pub cross_track_m: f64,
    /// Vehicle speed (m/s).
    pub speed_mps: f64,
    /// Whether the planner commanded an emergency stop.
    pub emergency_stop: bool,
    /// Measured end-to-end pipeline latency (ms).
    pub pipeline_ms: f64,
}

/// Aggregate metrics of a closed-loop run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimReport {
    /// Steps executed.
    pub steps: usize,
    /// Distance travelled (m).
    pub distance_m: f64,
    /// Mean localization error over tracked frames (m).
    pub mean_localization_error_m: f64,
    /// Frames on which localization was lost.
    pub lost_frames: usize,
    /// Largest lateral deviation from the lane center (m).
    pub max_cross_track_m: f64,
    /// Closest approach to any scripted object (m).
    pub min_object_clearance_m: f64,
    /// Emergency stops commanded.
    pub emergency_stops: usize,
}

/// A fully closed loop: the camera renders from the *controlled*
/// vehicle pose (not a scripted trajectory), the native pipeline
/// perceives and plans, and the controller drives the bicycle model —
/// perception errors feed back into control, closing the paper's
/// Fig. 1 loop end-to-end.
pub struct ClosedLoopSim {
    world: World,
    camera: adsim_vision::OrthoCamera,
    pipeline: NativePipeline,
    controller: VehicleController,
    state: BicycleState,
    time_s: f64,
    dt_s: f64,
}

impl std::fmt::Debug for ClosedLoopSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosedLoopSim")
            .field("time_s", &self.time_s)
            .field("pose", &self.state.pose)
            .finish()
    }
}

impl ClosedLoopSim {
    /// Builds a closed-loop simulation for a scenario: maps the road
    /// corridor, constructs the native pipeline and places the vehicle
    /// at the scenario origin at cruise speed.
    pub fn new(scenario: &Scenario, resolution: Resolution) -> Self {
        let camera = scenario.camera(resolution);
        // Map the corridor the controlled vehicle can reach: along the
        // route with lateral offsets.
        let mut poses = Vec::new();
        let mut gx = -20.0f64;
        while gx < 420.0 {
            for gy in [-25.0, 0.0, 25.0] {
                poses.push(Pose2::new(gx, gy, 0.0));
            }
            gx += 24.0;
        }
        let map = build_prior_map(scenario.world(), &camera, poses, 300, 25);
        let cfg = NativePipelineConfig { cruise_mps: scenario.speed_mps(), ..Default::default() };
        let mut pipeline = NativePipeline::new(camera, map, cfg);
        let start = scenario.pose_at(0);
        pipeline.seed_pose(start);
        Self {
            world: scenario.world().clone(),
            camera,
            pipeline,
            controller: VehicleController::new(),
            state: BicycleState { pose: start, speed_mps: scenario.speed_mps() },
            time_s: 0.0,
            dt_s: 1.0 / scenario.fps(),
        }
    }

    /// Runs one perceive → plan → act step.
    pub fn step(&mut self) -> SimStep {
        // Perceive: render the world from where the vehicle *actually*
        // is.
        let perceived_pose = self.state.pose;
        let image = self.world.render(&self.camera, &perceived_pose, self.time_s);
        let out = self.pipeline.process(&image, self.time_s);

        // Act on the plan.
        let (waypoint, target_speed) = match &out.plan {
            MotionPlan::Trajectory(t) => (
                t.poses
                    .first()
                    .map(|p| p.translation())
                    .unwrap_or(Point2::new(self.state.pose.x + 10.0, 0.0)),
                t.speed_mps,
            ),
            MotionPlan::Path(p) => (
                p.poses
                    .get(1)
                    .or_else(|| p.poses.first())
                    .map(|p| p.translation())
                    .unwrap_or(Point2::new(self.state.pose.x + 10.0, 0.0)),
                3.0,
            ),
            MotionPlan::EmergencyStop => {
                (Point2::new(self.state.pose.x + 10.0, self.state.pose.y), 0.0)
            }
        };
        self.state = self.controller.drive_step(&self.state, waypoint, target_speed, self.dt_s);
        self.time_s += self.dt_s;

        // Error is against the pose the frame was rendered from, not
        // the post-step pose.
        let err = out
            .pose
            .map(|p| p.distance(&perceived_pose))
            .unwrap_or(f64::NAN);
        SimStep {
            time_s: self.time_s,
            true_pose: self.state.pose,
            estimated_pose: out.pose,
            localization_error_m: err,
            cross_track_m: self.state.pose.y,
            speed_mps: self.state.speed_mps,
            emergency_stop: matches!(out.plan, MotionPlan::EmergencyStop),
            pipeline_ms: out.latency.end_to_end(),
        }
    }

    /// Runs `steps` steps and aggregates the report.
    pub fn run(&mut self, steps: usize) -> SimReport {
        let start = self.state.pose.translation();
        let mut report = SimReport { min_object_clearance_m: f64::INFINITY, ..Default::default() };
        let mut err_sum = 0.0;
        let mut err_n = 0usize;
        for _ in 0..steps {
            let s = self.step();
            report.steps += 1;
            if s.localization_error_m.is_finite() {
                err_sum += s.localization_error_m;
                err_n += 1;
            } else {
                report.lost_frames += 1;
            }
            report.max_cross_track_m = report.max_cross_track_m.max(s.cross_track_m.abs());
            if s.emergency_stop {
                report.emergency_stops += 1;
            }
            for o in self.world.objects() {
                let d = o.position_at(self.time_s).distance(&self.state.pose.translation());
                report.min_object_clearance_m = report.min_object_clearance_m.min(d);
            }
        }
        report.distance_m = self.state.pose.translation().distance(&start);
        report.mean_localization_error_m =
            if err_n > 0 { err_sum / err_n as f64 } else { f64::NAN };
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_workload::ScenarioKind;

    #[test]
    fn closed_loop_highway_makes_progress_and_stays_localized() {
        let scenario = Scenario::new(ScenarioKind::HighwayCruise, 77);
        let mut sim = ClosedLoopSim::new(&scenario, Resolution::Hhd);
        let report = sim.run(15);
        assert_eq!(report.steps, 15);
        assert!(
            report.distance_m > 20.0,
            "vehicle should advance at highway speed, got {:.1} m",
            report.distance_m
        );
        assert!(report.lost_frames <= 2, "lost {} frames", report.lost_frames);
        assert!(
            report.mean_localization_error_m < 1.0,
            "mean loc error {:.2} m",
            report.mean_localization_error_m
        );
    }

    #[test]
    fn closed_loop_keeps_lane_on_clear_road() {
        let scenario = Scenario::new(ScenarioKind::HighwayCruise, 78);
        let mut sim = ClosedLoopSim::new(&scenario, Resolution::Hhd);
        let report = sim.run(12);
        assert!(
            report.max_cross_track_m < 4.0,
            "cross-track {:.2} m exceeds a lane width",
            report.max_cross_track_m
        );
    }
}
