use adsim_vision::Pose2;

/// Constant-velocity motion model (paper Fig. 5: "Pose Prediction
/// (Motion Model)").
///
/// ORB-SLAM predicts the next camera pose by replaying the last
/// inter-frame motion; matching then searches only around the
/// prediction. When the prediction is wrong (erratic motion, matching
/// failure) the localizer falls back to relocalization with a wider
/// search — the mechanism behind LOC's long latency tail.
///
/// # Examples
///
/// ```
/// use adsim_slam::MotionModel;
/// use adsim_vision::Pose2;
///
/// let mut mm = MotionModel::new();
/// mm.observe(Pose2::new(0.0, 0.0, 0.0));
/// mm.observe(Pose2::new(1.0, 0.0, 0.0));
/// let predicted = mm.predict();
/// assert!((predicted.x - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MotionModel {
    last: Option<Pose2>,
    // Last inter-frame delta expressed in the previous pose's frame.
    delta: Option<Pose2>,
}

impl MotionModel {
    /// Creates a model with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a confirmed pose, updating the velocity estimate.
    pub fn observe(&mut self, pose: Pose2) {
        if let Some(last) = self.last {
            self.delta = Some(last.inverse().compose(&pose));
        }
        self.last = Some(pose);
    }

    /// Predicts the next pose. With fewer than two observations the
    /// prediction degrades gracefully: last pose, or identity.
    pub fn predict(&self) -> Pose2 {
        match (self.last, self.delta) {
            (Some(last), Some(delta)) => last.compose(&delta),
            (Some(last), None) => last,
            _ => Pose2::identity(),
        }
    }

    /// Last confirmed pose, if any.
    pub(crate) fn last_pose(&self) -> Option<Pose2> {
        self.last
    }

    /// Resets all history (after relocalization from scratch).
    pub(crate) fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_history_predicts_identity() {
        assert_eq!(MotionModel::new().predict(), Pose2::identity());
    }

    #[test]
    fn one_observation_predicts_itself() {
        let mut mm = MotionModel::new();
        mm.observe(Pose2::new(3.0, 4.0, 0.5));
        assert_eq!(mm.predict(), Pose2::new(3.0, 4.0, 0.5));
    }

    #[test]
    fn straight_motion_extrapolates() {
        let mut mm = MotionModel::new();
        mm.observe(Pose2::new(0.0, 0.0, 0.0));
        mm.observe(Pose2::new(2.0, 0.0, 0.0));
        let p = mm.predict();
        assert!((p.x - 4.0).abs() < 1e-9 && p.y.abs() < 1e-9);
        assert!((mm.delta.unwrap().translation().norm() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn turning_motion_extrapolates_in_body_frame() {
        use std::f64::consts::FRAC_PI_2;
        let mut mm = MotionModel::new();
        // Drive 1 m forward then turn 90° left while moving 1 m.
        mm.observe(Pose2::new(0.0, 0.0, 0.0));
        mm.observe(Pose2::new(1.0, 0.0, FRAC_PI_2));
        let p = mm.predict();
        // The same body-frame delta applied again: forward is now +y.
        assert!((p.x - 1.0).abs() < 1e-9, "{p:?}");
        assert!((p.y - 1.0).abs() < 1e-9, "{p:?}");
        assert!((mm.delta.unwrap().theta - FRAC_PI_2).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_history() {
        let mut mm = MotionModel::new();
        mm.observe(Pose2::new(1.0, 1.0, 0.0));
        mm.reset();
        assert_eq!(mm.predict(), Pose2::identity());
        assert!(mm.last_pose().is_none());
    }
}
