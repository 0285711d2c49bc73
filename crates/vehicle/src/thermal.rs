//! Thermal constraint model (paper §2.4.4).
//!
//! The computing system must live inside the climate-controlled
//! passenger cabin: outside it, ambient reaches +105 °C while typical
//! processors are only rated to 75 °C. Inside, the system's heat must
//! be removed by added air-conditioning capacity or the cabin heats at
//! ~10 °C per minute per kW.

/// Maximum ambient temperature outside the passenger cabin (°C).
pub const AMBIENT_OUTSIDE_CABIN_C: f64 = 105.0;

/// Safe operating ceiling of a typical server-class processor (°C).
pub const CHIP_LIMIT_C: f64 = 75.0;

/// Cabin heating rate from dissipated heat with no added cooling:
/// "a computing system that consumes 1 kW power will raise the
/// temperature by 10 °C in a minute" (§2.4.4).
pub fn cabin_heating_c_per_min(heat_w: f64) -> f64 {
    assert!(heat_w >= 0.0, "heat cannot be negative");
    10.0 * heat_w / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_heating_anchor() {
        assert_eq!(cabin_heating_c_per_min(1_000.0), 10.0);
    }

}
