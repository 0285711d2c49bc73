use adsim_stats::LatencySummary;
use adsim_vehicle::power::SystemPower;
use adsim_vehicle::range::ev_range_reduction;

/// The design constraints of §2.4, as checkable thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignConstraints {
    /// Performance: processing must finish within this tail latency
    /// (§2.4.1: 100 ms).
    pub max_tail_latency_ms: f64,
    /// Performance: the system must keep up with at least this frame
    /// rate (§2.4.1: 10 frames per second).
    pub min_frame_rate_fps: f64,
    /// Predictability: tail/mean ratio above which the platform is
    /// considered unpredictable (§2.4.2).
    pub max_tail_to_mean: f64,
    /// Power: maximum acceptable driving-range reduction (§5.3 argues
    /// specialized hardware is needed to stay under 5 %).
    pub max_range_reduction: f64,
}

impl Default for DesignConstraints {
    fn default() -> Self {
        Self {
            max_tail_latency_ms: 100.0,
            min_frame_rate_fps: 10.0,
            max_tail_to_mean: 3.0,
            max_range_reduction: 0.05,
        }
    }
}

/// One evaluated constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintCheck {
    /// Constraint name.
    pub name: &'static str,
    /// Whether the design satisfies it.
    pub passed: bool,
    /// Human-readable measurement vs threshold.
    pub detail: String,
}

/// The full §2.4 audit for one system design.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintReport {
    /// Individual checks.
    pub checks: Vec<ConstraintCheck>,
}

impl ConstraintReport {
    /// Evaluates a design from its end-to-end latency distribution and
    /// system power model.
    pub fn evaluate(
        constraints: &DesignConstraints,
        latency: &LatencySummary,
        system: &SystemPower,
    ) -> Self {
        let mut checks = Vec::new();

        checks.push(ConstraintCheck {
            name: "performance: tail latency",
            passed: latency.p99_99 <= constraints.max_tail_latency_ms,
            detail: format!(
                "p99.99 {:.1} ms vs {:.0} ms limit",
                latency.p99_99, constraints.max_tail_latency_ms
            ),
        });

        // Frame-rate: a pipeline that takes `mean` ms per frame
        // sustains 1000/mean FPS.
        let fps = if latency.mean > 0.0 { 1_000.0 / latency.mean } else { f64::INFINITY };
        checks.push(ConstraintCheck {
            name: "performance: frame rate",
            passed: fps >= constraints.min_frame_rate_fps,
            detail: format!("{fps:.1} FPS vs {:.0} FPS minimum", constraints.min_frame_rate_fps),
        });

        let ratio = latency.tail_to_mean_ratio();
        checks.push(ConstraintCheck {
            name: "predictability: tail/mean",
            passed: ratio <= constraints.max_tail_to_mean,
            detail: format!("ratio {ratio:.2} vs {:.1} limit", constraints.max_tail_to_mean),
        });

        let reduction = ev_range_reduction(system.total_w());
        checks.push(ConstraintCheck {
            name: "power: driving-range reduction",
            passed: reduction <= constraints.max_range_reduction,
            detail: format!(
                "{:.1}% vs {:.0}% limit ({:.0} W total)",
                reduction * 100.0,
                constraints.max_range_reduction * 100.0,
                system.total_w()
            ),
        });

        // Thermal: the model already places the system in the cabin
        // and charges the cooling overhead; the check records that the
        // cooling capacity covers the dissipated heat.
        checks.push(ConstraintCheck {
            name: "thermal: in-cabin with added cooling",
            passed: system.cooling_w() > 0.0 || system.electrical_w() == 0.0,
            detail: format!(
                "{:.0} W heat removed by {:.0} W cooling (COP 1.3)",
                system.electrical_w(),
                system.cooling_w()
            ),
        });

        Self { checks }
    }

    /// Whether every constraint passed.
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

impl std::fmt::Display for ConstraintReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for c in &self.checks {
            writeln!(f, "[{}] {:<36} {}", if c.passed { "PASS" } else { "FAIL" }, c.name, c.detail)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_stats::LatencyRecorder;

    fn summary(mean: f64, tail: f64) -> LatencySummary {
        LatencySummary { count: 1000, mean, p50: mean, p95: mean, p99: mean, p99_9: tail, p99_99: tail, max: tail }
    }

    fn failures(report: &ConstraintReport) -> Vec<&ConstraintCheck> {
        report.checks.iter().filter(|c| !c.passed).collect()
    }

    #[test]
    fn fast_efficient_design_passes_everything() {
        let report = ConstraintReport::evaluate(
            &DesignConstraints::default(),
            &summary(12.0, 17.0),
            // All-ASIC: 17.3 W per camera.
            &SystemPower::new(8, 17.3, 41_000_000_000_000),
        );
        assert!(report.all_passed(), "{report}");
    }

    #[test]
    fn cpu_baseline_fails_performance() {
        let report = ConstraintReport::evaluate(
            &DesignConstraints::default(),
            &summary(7_900.0, 9_100.0),
            &SystemPower::new(8, 51.2 + 106.9 + 53.8, 41_000_000_000_000),
        );
        assert!(!report.all_passed());
        let names: Vec<_> = failures(&report).iter().map(|c| c.name).collect();
        assert!(names.contains(&"performance: tail latency"));
        assert!(names.contains(&"performance: frame rate"));
    }

    #[test]
    fn gpu_design_fails_power_only() {
        let report = ConstraintReport::evaluate(
            &DesignConstraints::default(),
            &summary(17.0, 21.0),
            &SystemPower::new(8, 162.0, 41_000_000_000_000),
        );
        assert!(!report.all_passed());
        let failures = failures(&report);
        assert_eq!(failures.len(), 1, "{report}");
        assert_eq!(failures[0].name, "power: driving-range reduction");
    }

    #[test]
    fn unpredictable_latency_fails_predictability() {
        let report = ConstraintReport::evaluate(
            &DesignConstraints::default(),
            &summary(20.0, 95.0),
            &SystemPower::new(8, 17.3, 0),
        );
        let names: Vec<_> = failures(&report).iter().map(|c| c.name).collect();
        assert!(names.contains(&"predictability: tail/mean"), "{report}");
    }

    #[test]
    fn report_from_real_recorder() {
        let rec: LatencyRecorder = (0..1000).map(|i| 10.0 + (i % 7) as f64).collect();
        let report = ConstraintReport::evaluate(
            &DesignConstraints::default(),
            &rec.summary(),
            &SystemPower::new(1, 17.3, 0),
        );
        assert!(report.all_passed());
        assert!(report.to_string().contains("PASS"));
    }
}
