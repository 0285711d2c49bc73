//! Published numbers from the paper, used as comparison columns.
//!
//! Fig. 10 values double as the calibration anchors of
//! `adsim_platform::LatencyModel` (see DESIGN.md); every other figure
//! is *derived* in this workspace and compared against the values
//! below.

use adsim_platform::{Component, Platform};

/// Fig. 10a — mean latency (ms) per (component, platform).
pub fn fig10a_mean_ms(c: Component, p: Platform) -> f64 {
    use Component::*;
    use Platform::*;
    match (c, p) {
        (Detection, Cpu) => 7_150.0,
        (Tracking, Cpu) => 799.0,
        (Localization, Cpu) => 40.8,
        (Detection, Gpu) => 11.2,
        (Tracking, Gpu) => 5.5,
        (Localization, Gpu) => 20.3,
        (Detection, Fpga) => 369.6,
        (Tracking, Fpga) => 536.0,
        (Localization, Fpga) => 27.1,
        (Detection, Asic) => 95.9,
        (Tracking, Asic) => 1.8,
        (Localization, Asic) => 10.1,
        _ => f64::NAN,
    }
}

/// Fig. 10b — 99.99th-percentile latency (ms).
pub fn fig10b_tail_ms(c: Component, p: Platform) -> f64 {
    use Component::*;
    use Platform::*;
    match (c, p) {
        (Detection, Cpu) => 7_734.4,
        (Tracking, Cpu) => 1_334.0,
        (Localization, Cpu) => 294.2,
        (Detection, Gpu) => 14.3,
        (Tracking, Gpu) => 6.4,
        (Localization, Gpu) => 54.0,
        _ => fig10a_mean_ms(c, p), // FPGA/ASIC: mean == tail
    }
}

/// Fig. 10c — power (W).
pub fn fig10c_power_w(c: Component, p: Platform) -> f64 {
    use Component::*;
    use Platform::*;
    match (c, p) {
        (Detection, Cpu) => 51.2,
        (Tracking, Cpu) => 106.9,
        (Localization, Cpu) => 53.8,
        (Detection, Gpu) => 54.0,
        (Tracking, Gpu) => 55.0,
        (Localization, Gpu) => 53.0,
        (Detection, Fpga) => 21.5,
        (Tracking, Fpga) => 22.7,
        (Localization, Fpga) => 19.0,
        (Detection, Asic) => 7.9,
        (Tracking, Asic) => 9.3,
        (Localization, Asic) => 0.1,
        _ => f64::NAN,
    }
}

/// Fig. 6 — p99.99 (ms) of each component on the CPU baseline.
pub fn fig6_tail_ms(c: Component) -> f64 {
    match c {
        Component::Detection => 7_734.4,
        Component::Tracking => 1_334.0,
        Component::Localization => 294.2,
        Component::Fusion => 0.1,
        Component::MotionPlanning => 0.5,
    }
}

/// Fig. 7 — cycle fraction of the dominant kernel per bottleneck.
pub fn fig7_dominant_fraction(c: Component) -> f64 {
    match c {
        Component::Detection => 0.994,   // DNN
        Component::Tracking => 0.990,    // DNN
        Component::Localization => 0.859, // Feature Extraction
        _ => 0.0,
    }
}

/// §5.2 — the CPU baseline's end-to-end tail and the best accelerated
/// design's tail.
pub const E2E_CPU_TAIL_MS: f64 = 9_100.0;
/// Best accelerated end-to-end tail (DET on GPU + TRA on ASIC).
pub const E2E_BEST_TAIL_MS: f64 = 16.1;

/// Fig. 2 — the paper's range-reduction anchors for the CPU+3GPUs
/// setup: computing engine alone, and the entire system.
pub const FIG2_COMPUTE_ONLY_REDUCTION: f64 = 0.06;
/// Entire-system reduction for the same setup.
pub const FIG2_SYSTEM_REDUCTION: f64 = 0.115;

/// §5.3 — all-GPU configurations reduce driving range by up to ~12 %;
/// specialized hardware keeps it under 5 %.
pub const FIG12_GPU_REDUCTION_MAX: f64 = 0.12;
/// The target ceiling specialized hardware achieves (Finding 5).
pub const FIG12_SPECIALIZED_CEILING: f64 = 0.05;

#[cfg(test)]
mod tests {
    use super::*;

    /// Abstract — end-to-end tail-latency reduction factors vs the CPU
    /// baseline.
    fn tail_reduction_factor(p: Platform) -> f64 {
        match p {
            Platform::Cpu => 1.0,
            Platform::Gpu => 169.0,
            Platform::Fpga => 10.0,
            Platform::Asic => 93.0,
        }
    }

    #[test]
    fn fig10_tables_are_complete_for_bottlenecks() {
        for c in Component::BOTTLENECKS {
            for p in Platform::ALL {
                assert!(fig10a_mean_ms(c, p).is_finite());
                assert!(fig10b_tail_ms(c, p).is_finite());
                assert!(fig10c_power_w(c, p).is_finite());
                assert!(fig10b_tail_ms(c, p) >= fig10a_mean_ms(c, p));
            }
        }
    }

    #[test]
    fn reduction_factors_match_composition() {
        // The published factors are consistent with the published
        // component tails under max(LOC, DET+TRA).
        use Component::*;
        let e2e = |p| {
            (fig10b_tail_ms(Detection, p) + fig10b_tail_ms(Tracking, p))
                .max(fig10b_tail_ms(Localization, p))
        };
        let cpu = e2e(Platform::Cpu);
        for p in Platform::ACCELERATORS {
            let factor = cpu / e2e(p);
            let published = tail_reduction_factor(p);
            assert!(
                (factor - published).abs() / published < 0.05,
                "{p}: derived {factor:.1} vs published {published}"
            );
        }
    }
}
