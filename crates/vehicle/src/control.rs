//! Vehicle control: pure-pursuit steering plus PID speed control over
//! a kinematic bicycle model (paper Fig. 1, step 5: "the vehicle
//! control engine simply follows the planned paths and trajectories by
//! operating the vehicle").

use adsim_vision::{Point2, Pose2};

/// The vehicle's kinematic state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BicycleState {
    /// World pose.
    pub pose: Pose2,
    /// Longitudinal speed (m/s).
    pub speed_mps: f64,
}

impl BicycleState {
    /// Advances the kinematic bicycle model by `dt` seconds under a
    /// steering angle (rad) and longitudinal acceleration (m/s²).
    pub(crate) fn step(&self, wheelbase_m: f64, steer_rad: f64, accel_mps2: f64, dt: f64) -> Self {
        let speed = (self.speed_mps + accel_mps2 * dt).max(0.0);
        let theta = self.pose.theta + self.speed_mps / wheelbase_m * steer_rad.tan() * dt;
        BicycleState {
            pose: Pose2::new(
                self.pose.x + self.speed_mps * self.pose.theta.cos() * dt,
                self.pose.y + self.speed_mps * self.pose.theta.sin() * dt,
                theta,
            ),
            speed_mps: speed,
        }
    }
}

/// One actuation command (paper Fig. 1: "Accelerate? Steering?").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct ControlCommand {
    /// Steering angle (rad), positive left.
    pub steer_rad: f64,
    /// Longitudinal acceleration (m/s²).
    pub accel_mps2: f64,
}

/// Pure-pursuit steering + PID speed controller.
#[derive(Debug, Clone)]
pub struct VehicleController {
    wheelbase_m: f64,
    lookahead_m: f64,
    max_steer_rad: f64,
    kp: f64,
    ki: f64,
    integral: f64,
}

impl VehicleController {
    /// Creates a controller with passenger-car geometry.
    pub fn new() -> Self {
        Self {
            wheelbase_m: 2.7,
            lookahead_m: 6.0,
            max_steer_rad: 0.6,
            kp: 0.8,
            ki: 0.05,
            integral: 0.0,
        }
    }

    /// Computes the actuation toward a waypoint at a target speed.
    pub(crate) fn control(
        &mut self,
        state: &BicycleState,
        waypoint: Point2,
        target_speed_mps: f64,
        dt: f64,
    ) -> ControlCommand {
        // Pure pursuit: steer along the circle through the lookahead
        // point.
        let local = state.pose.inverse_transform(waypoint);
        let ld = local.norm().max(self.lookahead_m * 0.5);
        let curvature = 2.0 * local.y / (ld * ld);
        let steer = (self.wheelbase_m * curvature)
            .atan()
            .clamp(-self.max_steer_rad, self.max_steer_rad);

        // PI speed control.
        let err = target_speed_mps - state.speed_mps;
        self.integral = (self.integral + err * dt).clamp(-10.0, 10.0);
        let accel = (self.kp * err + self.ki * self.integral).clamp(-5.0, 3.0);
        ControlCommand { steer_rad: steer, accel_mps2: accel }
    }

    /// Convenience: controls and integrates one step.
    pub fn drive_step(
        &mut self,
        state: &BicycleState,
        waypoint: Point2,
        target_speed_mps: f64,
        dt: f64,
    ) -> BicycleState {
        let cmd = self.control(state, waypoint, target_speed_mps, dt);
        state.step(self.wheelbase_m, cmd.steer_rad, cmd.accel_mps2, dt)
    }
}

impl Default for VehicleController {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bicycle_goes_straight_with_zero_steer() {
        let s0 = BicycleState { pose: Pose2::identity(), speed_mps: 10.0 };
        let s1 = s0.step(2.7, 0.0, 0.0, 1.0);
        assert!((s1.pose.x - 10.0).abs() < 1e-9);
        assert_eq!(s1.pose.y, 0.0);
        assert_eq!(s1.pose.theta, 0.0);
    }

    #[test]
    fn bicycle_turns_left_with_positive_steer() {
        let s0 = BicycleState { pose: Pose2::identity(), speed_mps: 5.0 };
        let s1 = s0.step(2.7, 0.3, 0.0, 0.5);
        assert!(s1.pose.theta > 0.0);
    }

    #[test]
    fn speed_never_goes_negative() {
        let s0 = BicycleState { pose: Pose2::identity(), speed_mps: 1.0 };
        let s1 = s0.step(2.7, 0.0, -5.0, 1.0);
        assert_eq!(s1.speed_mps, 0.0);
    }

    #[test]
    fn controller_reaches_target_speed() {
        let mut ctl = VehicleController::new();
        let mut state = BicycleState::default();
        for _ in 0..200 {
            state = ctl.drive_step(&state, Point2::new(state.pose.x + 10.0, 0.0), 15.0, 0.1);
        }
        assert!((state.speed_mps - 15.0).abs() < 0.5, "speed {}", state.speed_mps);
    }

    #[test]
    fn controller_converges_to_offset_line() {
        // Start 5 m off a straight path along y = 0; follow waypoints
        // on the path.
        let mut ctl = VehicleController::new();
        let mut state = BicycleState {
            pose: Pose2::new(0.0, 5.0, 0.0),
            speed_mps: 8.0,
        };
        for _ in 0..300 {
            let wp = Point2::new(state.pose.x + 8.0, 0.0);
            state = ctl.drive_step(&state, wp, 8.0, 0.05);
        }
        assert!(state.pose.y.abs() < 0.5, "lateral error {}", state.pose.y);
        assert!(state.pose.theta.abs() < 0.1);
    }

    #[test]
    fn steering_saturates() {
        let mut ctl = VehicleController::new();
        let state = BicycleState { pose: Pose2::identity(), speed_mps: 5.0 };
        // Waypoint directly to the left demands infinite curvature.
        let cmd = ctl.control(&state, Point2::new(0.0, 3.0), 5.0, 0.1);
        assert!(cmd.steer_rad <= 0.6 + 1e-12);
        assert!(cmd.steer_rad > 0.5);
    }
}
