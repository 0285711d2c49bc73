//! Wheel-odometry dead reckoning and vision fusion.
//!
//! Production systems (the paper's Table 1 vehicles all carry wheel
//! encoders and IMUs) bridge visual-localization outages — tunnels,
//! severe weather, relocalization frames — by dead-reckoning on
//! odometry and re-anchoring whenever a vision fix returns. This
//! module provides that bridge for the LOC engine.

use adsim_vision::{Point2, Pose2};

/// A simulated wheel-odometry sensor: body-frame increments with
/// multiplicative systematic error (tire wear, track-width error).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WheelOdometry {
    /// Multiplicative distance error (1.0 = perfect; 1.01 = reads 1 %
    /// long).
    pub distance_scale: f64,
    /// Multiplicative yaw error.
    pub yaw_scale: f64,
}

impl WheelOdometry {
    /// A perfect sensor.
    pub fn ideal() -> Self {
        Self { distance_scale: 1.0, yaw_scale: 1.0 }
    }

    /// A typical calibrated automotive sensor (~0.5 % distance error,
    /// ~1 % yaw error).
    pub fn typical() -> Self {
        Self { distance_scale: 1.005, yaw_scale: 1.01 }
    }

    /// The measured body-frame increment for a true motion of
    /// `(ds, dtheta)`.
    pub(crate) fn measure(&self, ds: f64, dtheta: f64) -> (f64, f64) {
        (ds * self.distance_scale, dtheta * self.yaw_scale)
    }
}

/// Dead-reckoning pose tracker with vision re-anchoring.
///
/// # Examples
///
/// ```
/// use adsim_slam::odometry::{DeadReckoner, WheelOdometry};
/// use adsim_vision::Pose2;
///
/// let mut dr = DeadReckoner::new(Pose2::identity(), WheelOdometry::ideal());
/// dr.advance(10.0, 0.0);
/// assert!((dr.pose().x - 10.0).abs() < 1e-9);
/// // A vision fix snaps the estimate back.
/// dr.fuse_vision(Pose2::new(9.5, 0.1, 0.0));
/// assert_eq!(dr.pose(), Pose2::new(9.5, 0.1, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadReckoner {
    pose: Pose2,
    sensor: WheelOdometry,
    /// Distance dead-reckoned since the last vision fix (m).
    since_fix_m: f64,
}

impl DeadReckoner {
    /// Starts reckoning from a known pose.
    pub fn new(start: Pose2, sensor: WheelOdometry) -> Self {
        Self { pose: start, sensor, since_fix_m: 0.0 }
    }

    /// Current pose estimate.
    pub fn pose(&self) -> Pose2 {
        self.pose
    }

    /// Distance travelled since the last vision fix — a proxy for the
    /// accumulated drift bound.
    pub fn distance_since_fix_m(&self) -> f64 {
        self.since_fix_m
    }

    /// Integrates one body-frame motion increment (`ds` meters of
    /// forward travel, `dtheta` radians of yaw) through the sensor
    /// model.
    pub fn advance(&mut self, ds: f64, dtheta: f64) {
        let (m_ds, m_dth) = self.sensor.measure(ds, dtheta);
        // Mid-heading integration, like the lattice primitives.
        let mid = self.pose.theta + m_dth / 2.0;
        self.pose = Pose2::new(
            self.pose.x + m_ds * mid.cos(),
            self.pose.y + m_ds * mid.sin(),
            self.pose.theta + m_dth,
        );
        self.since_fix_m += ds.abs();
    }

    /// Re-anchors on a visual-localization fix.
    pub fn fuse_vision(&mut self, pose: Pose2) {
        self.pose = pose;
        self.since_fix_m = 0.0;
    }

    /// Drift against a ground-truth pose (m).
    pub fn drift_m(&self, truth: &Pose2) -> f64 {
        self.pose.translation().distance(&Point2::new(truth.x, truth.y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a circle of the given radius, returning (reckoner, truth)
    /// after `steps`.
    fn drive_circle(
        sensor: WheelOdometry,
        fix_every: Option<usize>,
        steps: usize,
    ) -> (DeadReckoner, Pose2) {
        let radius = 30.0;
        let ds = 1.0;
        let dtheta = ds / radius;
        let mut dr = DeadReckoner::new(Pose2::identity(), sensor);
        let mut truth = Pose2::identity();
        for k in 0..steps {
            let mid = truth.theta + dtheta / 2.0;
            truth = Pose2::new(
                truth.x + ds * mid.cos(),
                truth.y + ds * mid.sin(),
                truth.theta + dtheta,
            );
            dr.advance(ds, dtheta);
            if let Some(n) = fix_every {
                if (k + 1) % n == 0 {
                    dr.fuse_vision(truth);
                }
            }
        }
        (dr, truth)
    }

    #[test]
    fn ideal_sensor_tracks_exactly() {
        let (dr, truth) = drive_circle(WheelOdometry::ideal(), None, 200);
        assert!(dr.drift_m(&truth) < 1e-6);
    }

    #[test]
    fn systematic_error_accumulates_without_fixes() {
        let (dr, truth) = drive_circle(WheelOdometry::typical(), None, 200);
        assert!(dr.drift_m(&truth) > 1.0, "drift {:.2} m", dr.drift_m(&truth));
        assert_eq!(dr.distance_since_fix_m(), 200.0);
    }

    #[test]
    fn periodic_vision_fixes_bound_the_drift() {
        let (free, truth) = drive_circle(WheelOdometry::typical(), None, 200);
        let (fixed, truth2) = drive_circle(WheelOdometry::typical(), Some(10), 200);
        assert!(fixed.drift_m(&truth2) < free.drift_m(&truth) / 5.0);
        assert!(fixed.drift_m(&truth2) < 0.3, "drift {:.3}", fixed.drift_m(&truth2));
    }

    #[test]
    fn drift_grows_with_outage_length() {
        let (short, t1) = drive_circle(WheelOdometry::typical(), None, 50);
        let (long, t2) = drive_circle(WheelOdometry::typical(), None, 400);
        assert!(long.drift_m(&t2) > short.drift_m(&t1));
    }

    #[test]
    fn fuse_vision_resets_the_fix_distance() {
        let mut dr = DeadReckoner::new(Pose2::identity(), WheelOdometry::typical());
        dr.advance(5.0, 0.0);
        assert_eq!(dr.distance_since_fix_m(), 5.0);
        dr.fuse_vision(Pose2::new(5.0, 0.0, 0.0));
        assert_eq!(dr.distance_since_fix_m(), 0.0);
    }
}
