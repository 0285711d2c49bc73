//! System power accounting (paper §2.4.5).
//!
//! Total system power = computing engines (one replica per camera)
//! plus the storage engine, all magnified by the cooling load required
//! to remove the generated heat from the passenger cabin.

/// Storage power: "a typical storage system consumes around 8 W to
/// store every 3 TB data" (§2.4.5).
pub(crate) const STORAGE_W_PER_3TB: f64 = 8.0;

/// Coefficient of performance of an automotive air conditioner
/// (§2.4.5): cooling 1 W of heat costs 1/1.3 ≈ 0.77 W.
pub(crate) const COOLING_COP: f64 = 1.3;

/// Power draw of a storage system holding `bytes`.
pub fn storage_power_w(bytes: u64) -> f64 {
    bytes as f64 / 3e12 * STORAGE_W_PER_3TB
}

/// Cooling power required to remove `heat_w` of heat (the 77 %
/// overhead).
pub fn cooling_power_w(heat_w: f64) -> f64 {
    cooling_power_w_with_cop(heat_w, COOLING_COP)
}

/// Cooling power at an arbitrary coefficient of performance, for
/// ablations over air-conditioner efficiency.
///
/// # Panics
///
/// Panics if `cop` is not positive.
pub fn cooling_power_w_with_cop(heat_w: f64, cop: f64) -> f64 {
    assert!(cop > 0.0, "coefficient of performance must be positive");
    heat_w / cop
}

/// End-to-end system power: per-camera compute replicas, storage, and
/// the cooling overhead on top of both.
///
/// # Examples
///
/// ```
/// use adsim_vehicle::power::SystemPower;
///
/// let sys = SystemPower::new(8, 100.0, 3_000_000_000_000);
/// assert_eq!(sys.compute_w(), 800.0);
/// assert_eq!(sys.storage_w(), 8.0);
/// let expect = 808.0 * (1.0 + 1.0 / 1.3);
/// assert!((sys.total_w() - expect).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemPower {
    cameras: usize,
    compute_per_camera_w: f64,
    storage_bytes: u64,
}

impl SystemPower {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `cameras` is zero or the per-camera power is negative.
    pub fn new(cameras: usize, compute_per_camera_w: f64, storage_bytes: u64) -> Self {
        assert!(cameras > 0, "a vision-based system needs at least one camera");
        assert!(compute_per_camera_w >= 0.0, "power cannot be negative");
        Self { cameras, compute_per_camera_w, storage_bytes }
    }

    /// Total computing power across all camera replicas.
    pub fn compute_w(&self) -> f64 {
        self.cameras as f64 * self.compute_per_camera_w
    }

    /// Storage engine power.
    pub fn storage_w(&self) -> f64 {
        storage_power_w(self.storage_bytes)
    }

    /// Electrical power before cooling.
    pub fn electrical_w(&self) -> f64 {
        self.compute_w() + self.storage_w()
    }

    /// Cooling power needed to remove the generated heat.
    pub fn cooling_w(&self) -> f64 {
        cooling_power_w(self.electrical_w())
    }

    /// Total system power including cooling — the light-blue bars of
    /// the paper's Fig. 12.
    pub fn total_w(&self) -> f64 {
        self.electrical_w() + self.cooling_w()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_matches_paper_us_map() {
        // 41 TB -> ~110 W (paper §5.3).
        let w = storage_power_w(41_000_000_000_000);
        assert!((w - 109.33).abs() < 0.5, "{w}");
    }

    #[test]
    fn hundred_watts_impose_77w_cooling() {
        assert!((cooling_power_w(100.0) - 76.9).abs() < 0.1);
    }

    #[test]
    fn better_cop_means_less_cooling_power() {
        assert!(cooling_power_w_with_cop(100.0, 4.0) < cooling_power_w_with_cop(100.0, 1.3));
        assert_eq!(cooling_power_w_with_cop(100.0, 2.0), 50.0);
    }

    #[test]
    fn total_nearly_doubles_electrical() {
        let sys = SystemPower::new(1, 100.0, 0);
        assert!((sys.total_w() / sys.electrical_w() - 1.769).abs() < 0.01);
        assert!((sys.total_w() - 176.9).abs() < 0.1);
    }

    #[test]
    fn cameras_replicate_compute() {
        let one = SystemPower::new(1, 50.0, 0);
        let eight = SystemPower::new(8, 50.0, 0);
        assert_eq!(eight.compute_w(), 8.0 * one.compute_w());
    }

    #[test]
    fn zero_storage_system_is_compute_only() {
        let sys = SystemPower::new(2, 10.0, 0);
        assert_eq!(sys.electrical_w(), 20.0);
    }

    #[test]
    #[should_panic(expected = "at least one camera")]
    fn zero_cameras_rejected() {
        SystemPower::new(0, 10.0, 0);
    }
}
