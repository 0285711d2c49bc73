//! Adaptive cruise control: the Intelligent Driver Model (IDM).
//!
//! The conformal lattice chooses *where* to drive; IDM chooses *how
//! fast* given the lead vehicle the fusion engine reports ahead — the
//! longitudinal half of the motion planner's "setting the vehicle's
//! velocity" responsibility (paper §2.3).

/// IDM parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdmParams {
    /// Free-road desired speed (m/s).
    pub desired_speed_mps: f64,
    /// Standstill minimum gap (m).
    pub min_gap_m: f64,
    /// Desired time headway (s).
    pub time_headway_s: f64,
    /// Maximum acceleration (m/s²).
    pub max_accel: f64,
    /// Comfortable braking deceleration (m/s², positive).
    pub comfortable_decel: f64,
    /// Free-acceleration exponent.
    pub delta: f64,
}

impl IdmParams {
    /// Comfortable passenger-car defaults at a given cruise speed.
    pub fn cruise(desired_speed_mps: f64) -> Self {
        Self {
            desired_speed_mps,
            min_gap_m: 2.0,
            time_headway_s: 1.5,
            max_accel: 1.5,
            comfortable_decel: 2.0,
            delta: 4.0,
        }
    }
}

/// Longitudinal controller implementing IDM.
///
/// # Examples
///
/// ```
/// use adsim_planning::{AdaptiveCruise, IdmParams};
///
/// let acc = AdaptiveCruise::new(IdmParams::cruise(30.0));
/// // Free road, below desired speed: accelerate.
/// assert!(acc.accel(20.0, None) > 0.0);
/// // Car stopped right ahead: brake hard.
/// assert!(acc.accel(20.0, Some((5.0, 0.0))) < -3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveCruise {
    params: IdmParams,
}

impl AdaptiveCruise {
    /// Creates a controller.
    pub fn new(params: IdmParams) -> Self {
        Self { params }
    }

    /// Commanded acceleration (m/s²) given the ego speed and,
    /// optionally, the gap to and speed of a lead vehicle.
    ///
    /// Gaps at or below zero (already overlapping) command an
    /// emergency deceleration.
    pub fn accel(&self, speed_mps: f64, lead: Option<(f64, f64)>) -> f64 {
        let p = &self.params;
        let free = p.max_accel
            * (1.0 - (speed_mps / p.desired_speed_mps).powf(p.delta));
        match lead {
            None => free,
            Some((gap, lead_speed)) => {
                if gap <= 0.0 {
                    return -4.0 * p.comfortable_decel;
                }
                let closing = speed_mps - lead_speed;
                let desired_gap = p.min_gap_m
                    + (speed_mps * p.time_headway_s
                        + speed_mps * closing
                            / (2.0 * (p.max_accel * p.comfortable_decel).sqrt()))
                    .max(0.0);
                free - p.max_accel * (desired_gap / gap).powi(2)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AdaptiveCruise {
        /// Steady-state following gap at a common speed (solves
        /// `accel = 0` for equal speeds): the analytic reference the
        /// simulated following distance is checked against.
        fn equilibrium_gap(&self, speed_mps: f64) -> f64 {
            let p = &self.params;
            let desired = p.min_gap_m + speed_mps * p.time_headway_s;
            let free_term = 1.0 - (speed_mps / p.desired_speed_mps).powf(p.delta);
            desired / free_term.max(1e-9).sqrt()
        }
    }

    fn acc() -> AdaptiveCruise {
        AdaptiveCruise::new(IdmParams::cruise(30.0))
    }

    #[test]
    fn free_road_converges_to_desired_speed() {
        let acc = acc();
        let mut v: f64 = 0.0;
        for _ in 0..600 {
            v += acc.accel(v, None) * 0.1;
        }
        assert!((v - 30.0).abs() < 0.5, "converged to {v}");
    }

    #[test]
    fn above_desired_speed_decelerates() {
        assert!(acc().accel(35.0, None) < 0.0);
    }

    #[test]
    fn following_settles_at_the_equilibrium_gap() {
        let acc = acc();
        // Lead drives a constant 20 m/s; start 100 m behind at 20 m/s.
        let (mut gap, mut v) = (100.0f64, 20.0f64);
        let dt = 0.05;
        for _ in 0..20_000 {
            let a = acc.accel(v, Some((gap, 20.0)));
            v = (v + a * dt).max(0.0);
            gap += (20.0 - v) * dt;
        }
        let expected = acc.equilibrium_gap(20.0);
        assert!((v - 20.0).abs() < 0.3, "speed matched: {v}");
        assert!(
            (gap - expected).abs() < 0.15 * expected,
            "gap {gap:.1} vs equilibrium {expected:.1}"
        );
    }

    #[test]
    fn never_collides_with_a_braking_lead() {
        let acc = acc();
        // Lead at 25 m/s slams to a stop at 6 m/s^2; ego follows from
        // its equilibrium gap.
        let mut lead_v = 25.0f64;
        let mut v = 25.0f64;
        let mut gap = acc.equilibrium_gap(25.0);
        let dt = 0.02;
        for _ in 0..2_000 {
            lead_v = (lead_v - 6.0 * dt).max(0.0);
            let a = acc.accel(v, Some((gap, lead_v)));
            v = (v + a * dt).max(0.0);
            gap += (lead_v - v) * dt;
            assert!(gap > 0.0, "collision: gap {gap}");
        }
        assert!(v < 0.5, "ego stopped behind the stopped lead");
    }

    #[test]
    fn overlap_commands_emergency_braking() {
        assert!(acc().accel(10.0, Some((0.0, 0.0))) <= -8.0);
    }

    #[test]
    fn equilibrium_gap_grows_with_speed() {
        let acc = acc();
        assert!(acc.equilibrium_gap(20.0) > acc.equilibrium_gap(10.0));
        assert!(acc.equilibrium_gap(10.0) > IdmParams::cruise(30.0).min_gap_m);
    }
}
