//! Driving-range and fuel-economy impact models (paper §2.4.5,
//! Fig. 2, Fig. 12).

/// Average traction power while driving, derived from the paper's own
/// anchor point: a 1 kW computing engine alone reduces the Bolt's
/// range by 6 % (Fig. 2), which implies
/// `P_drive = P · (1 − r) / r ≈ 15.7 kW`.
pub(crate) const DRIVE_POWER_W: f64 = 15_667.0;

/// Fractional driving-range reduction caused by `added_w` of
/// electrical load: the battery now feeds both traction and the added
/// system, so range scales by `P_drive / (P_drive + P_added)`.
///
/// # Examples
///
/// ```
/// use adsim_vehicle::ev_range_reduction;
///
/// // The paper's anchor: 1 kW -> 6 %.
/// let r = ev_range_reduction(1_000.0);
/// assert!((r - 0.06).abs() < 0.001);
/// ```
pub fn ev_range_reduction(added_w: f64) -> f64 {
    assert!(added_w >= 0.0, "added power cannot be negative");
    added_w / (added_w + DRIVE_POWER_W)
}

/// Gasoline rule of thumb (§2.4.5): every additional 400 W of
/// electrical load costs one MPG. Returns the *fractional* MPG
/// reduction for a car with the given base fuel economy.
///
/// # Examples
///
/// ```
/// use adsim_vehicle::gas_mpg_reduction;
///
/// // The paper's example: 400 W on a 31-MPG 2017 Audi A4 -> 3.23 %.
/// let r = gas_mpg_reduction(400.0, 31.0);
/// assert!((r - 0.0323).abs() < 0.001);
/// ```
pub fn gas_mpg_reduction(added_w: f64, base_mpg: f64) -> f64 {
    assert!(added_w >= 0.0, "added power cannot be negative");
    assert!(base_mpg > 0.0, "base MPG must be positive");
    (added_w / 400.0) / base_mpg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_anchor_point_holds() {
        assert!((ev_range_reduction(1_000.0) - 0.06).abs() < 0.001);
    }

    #[test]
    fn full_system_reduction_matches_paper_scale() {
        // CPU + 3 GPUs (~1 kW) plus storage, magnified by cooling:
        // the paper reports ~11.5 % (Fig. 2); the analytic model gives
        // ~11.1 %.
        let system_w = (1_000.0 + 110.0) * (1.0 + 1.0 / 1.3);
        let r = ev_range_reduction(system_w);
        assert!(r > 0.10 && r < 0.125, "reduction {r}");
    }

    #[test]
    fn reduction_is_monotonic_and_bounded() {
        let mut last = 0.0;
        for w in [0.0, 100.0, 500.0, 1_000.0, 5_000.0] {
            let r = ev_range_reduction(w);
            assert!(r >= last);
            assert!(r < 1.0);
            last = r;
        }
        assert_eq!(ev_range_reduction(0.0), 0.0);
    }

    #[test]
    fn gas_rule_of_thumb() {
        // 800 W on a 20-MPG truck: 2 MPG of 20 -> 10 %.
        assert!((gas_mpg_reduction(800.0, 20.0) - 0.10).abs() < 1e-9);
    }

}
