//! The feature-extraction ASIC (paper §4.2.3, Table 3).
//!
//! The paper implements the FE pipeline of Fig. 9 in Verilog and
//! synthesizes it with an ARM Artisan IBM SOI 45 nm library, reaching
//! 4 GHz thanks to a deliberately simple, re-timed pipeline and
//! LUT-based trigonometry.

/// Table 3: Feature Extraction (FE) ASIC specifications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeAsicSpec {
    /// Process technology.
    pub technology: &'static str,
    /// Die area (µm²).
    pub area_um2: f64,
    /// Clock rate (GHz).
    pub clock_ghz: f64,
    /// Power (mW).
    pub power_mw: f64,
}

impl FeAsicSpec {
    /// The paper's synthesized design.
    pub fn paper() -> Self {
        Self {
            technology: "ARM Artisan IBM SOI 45 nm",
            area_um2: 6539.9,
            clock_ghz: 4.0,
            power_mw: 21.97,
        }
    }

    /// Cycle time in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1.0 / self.clock_ghz
    }

    /// Latency speedup from replacing trigonometric computation with
    /// lookup tables (§4.2.3: "a 4× reduction in latency").
    pub const LUT_TRIG_SPEEDUP: f64 = 4.0;

    /// rBRIEF iterations per feature descriptor (one binary test per
    /// cycle, Fig. 9).
    pub(crate) const BRIEF_ITERATIONS: u32 = 256;

    /// Time to describe `features` keypoints, assuming the pipelined
    /// one-test-per-cycle design.
    pub fn describe_time_us(&self, features: u32) -> f64 {
        features as f64 * Self::BRIEF_ITERATIONS as f64 * self.cycle_ns() / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_values() {
        let s = FeAsicSpec::paper();
        assert_eq!(s.clock_ghz, 4.0);
        assert!((s.cycle_ns() - 0.25).abs() < 1e-12);
        assert!((s.power_mw - 21.97).abs() < 1e-9);
    }

    #[test]
    fn describe_time_scales_with_features() {
        let s = FeAsicSpec::paper();
        // 2000 features x 256 cycles x 0.25 ns = 128 us.
        assert!((s.describe_time_us(2000) - 128.0).abs() < 1e-9);
        assert_eq!(s.describe_time_us(0), 0.0);
    }

    #[test]
    fn sub_milliwatt_of_fig10c_is_for_fe_only() {
        // Fig. 10c reports ~0.1 W for LOC on ASICs; Table 3's 21.97 mW
        // is the FE block alone — consistent (FE is 85.9% of cycles
        // but a small block).
        assert!(FeAsicSpec::paper().power_mw / 1000.0 < 0.1);
    }
}
