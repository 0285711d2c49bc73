use adsim_platform::{Component, LatencyModel, Platform};

/// A platform assignment for the three computational bottlenecks —
/// one point in the paper's Fig. 11/12 design-space sweep. Fusion and
/// motion planning always run on the host CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlatformConfig {
    /// Platform running object detection.
    pub detection: Platform,
    /// Platform running object tracking.
    pub tracking: Platform,
    /// Platform running localization.
    pub localization: Platform,
}

impl PlatformConfig {
    /// All three bottlenecks on the same platform.
    pub fn uniform(p: Platform) -> Self {
        Self { detection: p, tracking: p, localization: p }
    }

    /// The conventional multicore-CPU baseline.
    pub fn all_cpu() -> Self {
        Self::uniform(Platform::Cpu)
    }

    /// The platform assigned to a component.
    pub(crate) fn platform_for(&self, c: Component) -> Platform {
        match c {
            Component::Detection => self.detection,
            Component::Tracking => self.tracking,
            Component::Localization => self.localization,
            Component::Fusion | Component::MotionPlanning => Platform::Cpu,
        }
    }

    /// Every combination of platforms for the three bottlenecks
    /// (4³ = 64 points — the full acceleration landscape of §5).
    pub fn all_combinations() -> Vec<PlatformConfig> {
        let mut out = Vec::with_capacity(64);
        for &d in &Platform::ALL {
            for &t in &Platform::ALL {
                for &l in &Platform::ALL {
                    out.push(PlatformConfig { detection: d, tracking: t, localization: l });
                }
            }
        }
        out
    }

    /// The representative configurations plotted in the paper's
    /// Fig. 11/12: the CPU baseline, progressively accelerated mixes,
    /// and the uniform accelerator designs.
    pub fn paper_sweep() -> Vec<PlatformConfig> {
        use Platform::*;
        vec![
            Self::uniform(Cpu),
            Self { detection: Gpu, tracking: Gpu, localization: Cpu },
            Self::uniform(Gpu),
            Self { detection: Gpu, tracking: Gpu, localization: Fpga },
            Self { detection: Gpu, tracking: Gpu, localization: Asic },
            Self { detection: Gpu, tracking: Asic, localization: Fpga },
            Self { detection: Gpu, tracking: Asic, localization: Asic },
            Self { detection: Gpu, tracking: Fpga, localization: Fpga },
            Self::uniform(Fpga),
            Self { detection: Asic, tracking: Asic, localization: Fpga },
            Self::uniform(Asic),
        ]
    }

    /// Total compute power of one camera replica under this
    /// assignment: the sum of the three bottleneck engines' measured
    /// draws (Fig. 10c).
    pub fn compute_power_w(&self, model: &LatencyModel) -> f64 {
        Component::BOTTLENECKS
            .iter()
            .map(|&c| model.power_w(c, self.platform_for(c)))
            .sum()
    }

    /// Short label like `D:GPU T:ASIC L:FPGA` for tables.
    pub fn label(&self) -> String {
        format!("D:{} T:{} L:{}", self.detection, self.tracking, self.localization)
    }
}

impl std::fmt::Display for PlatformConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_assigns_everywhere() {
        let c = PlatformConfig::uniform(Platform::Asic);
        for comp in Component::BOTTLENECKS {
            assert_eq!(c.platform_for(comp), Platform::Asic);
        }
        assert_eq!(c.platform_for(Component::Fusion), Platform::Cpu);
    }

    #[test]
    fn all_combinations_is_exhaustive_and_unique() {
        let all = PlatformConfig::all_combinations();
        assert_eq!(all.len(), 64);
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), 64);
    }

    #[test]
    fn paper_sweep_starts_with_cpu_baseline() {
        let sweep = PlatformConfig::paper_sweep();
        assert_eq!(sweep[0], PlatformConfig::all_cpu());
        assert!(sweep.contains(&PlatformConfig::uniform(Platform::Asic)));
    }

    #[test]
    fn compute_power_sums_fig10c() {
        let model = LatencyModel::paper_calibrated();
        let gpu = PlatformConfig::uniform(Platform::Gpu).compute_power_w(&model);
        assert!((gpu - 162.0).abs() < 1e-9, "54 + 55 + 53 = 162, got {gpu}");
        let asic = PlatformConfig::uniform(Platform::Asic).compute_power_w(&model);
        assert!((asic - 17.3).abs() < 1e-9);
    }

    #[test]
    fn label_is_readable() {
        let c = PlatformConfig { detection: Platform::Gpu, tracking: Platform::Asic, localization: Platform::Fpga };
        assert_eq!(c.label(), "D:GPU T:ASIC L:FPGA");
    }
}
