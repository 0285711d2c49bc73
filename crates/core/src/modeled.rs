use crate::config::PlatformConfig;
use adsim_platform::{resolution_scale, Component, LatencyModel};
use adsim_stats::{LatencyRecorder, Rng64};

/// Latencies of one simulated frame (ms).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FrameLatency {
    /// Object detection.
    pub detection: f64,
    /// Object tracking.
    pub tracking: f64,
    /// Localization.
    pub localization: f64,
    /// Sensor fusion.
    pub fusion: f64,
    /// Motion planning.
    pub motion_planning: f64,
}

impl FrameLatency {
    /// End-to-end latency: detection and localization start in
    /// parallel (Fig. 1 steps 1a/1b), tracking consumes detection
    /// output (1c), then fusion and motion planning run on the merged
    /// results. The critical path is therefore
    /// `max(LOC, DET + TRA) + FUSION + MOTPLAN`.
    pub fn end_to_end(&self) -> f64 {
        (self.detection + self.tracking).max(self.localization)
            + self.fusion
            + self.motion_planning
    }

    /// The perception critical path without the planning epilogue.
    pub fn perception(&self) -> f64 {
        (self.detection + self.tracking).max(self.localization)
    }

    /// One stage's latency.
    pub(crate) fn stage(&self, c: Component) -> f64 {
        match c {
            Component::Detection => self.detection,
            Component::Tracking => self.tracking,
            Component::Localization => self.localization,
            Component::Fusion => self.fusion,
            Component::MotionPlanning => self.motion_planning,
        }
    }

    /// One stage's latency, for charging it.
    pub(crate) fn stage_mut(&mut self, c: Component) -> &mut f64 {
        match c {
            Component::Detection => &mut self.detection,
            Component::Tracking => &mut self.tracking,
            Component::Localization => &mut self.localization,
            Component::Fusion => &mut self.fusion,
            Component::MotionPlanning => &mut self.motion_planning,
        }
    }
}

/// Distributions recorded over a simulation run.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Detection latency samples.
    pub detection: LatencyRecorder,
    /// Tracking latency samples.
    pub tracking: LatencyRecorder,
    /// Localization latency samples.
    pub localization: LatencyRecorder,
    /// Fusion latency samples.
    pub fusion: LatencyRecorder,
    /// Motion-planning latency samples.
    pub motion_planning: LatencyRecorder,
    /// End-to-end latency samples.
    pub end_to_end: LatencyRecorder,
}

impl PipelineStats {
    /// Empty recorders with room for `frames` samples each.
    pub(crate) fn with_capacity(frames: usize) -> Self {
        let r = || LatencyRecorder::with_capacity(frames);
        Self {
            detection: r(),
            tracking: r(),
            localization: r(),
            fusion: r(),
            motion_planning: r(),
            end_to_end: r(),
        }
    }

    /// Records one frame's stage and end-to-end latencies.
    pub(crate) fn record(&mut self, f: &FrameLatency) {
        self.detection.record(f.detection);
        self.tracking.record(f.tracking);
        self.localization.record(f.localization);
        self.fusion.record(f.fusion);
        self.motion_planning.record(f.motion_planning);
        self.end_to_end.record(f.end_to_end());
    }

    /// Recorder for one component.
    pub fn component(&self, c: Component) -> &LatencyRecorder {
        match c {
            Component::Detection => &self.detection,
            Component::Tracking => &self.tracking,
            Component::Localization => &self.localization,
            Component::Fusion => &self.fusion,
            Component::MotionPlanning => &self.motion_planning,
        }
    }
}

/// The modeled end-to-end pipeline: per-frame latencies are drawn from
/// the calibrated platform distributions, composed along the Fig. 1
/// dataflow. Used by every figure-regeneration bench.
#[derive(Debug)]
pub struct ModeledPipeline {
    model: LatencyModel,
    config: PlatformConfig,
    rng: Rng64,
}

impl ModeledPipeline {
    /// Creates a pipeline for one platform assignment. Equal seeds
    /// reproduce identical runs.
    pub fn new(config: PlatformConfig, seed: u64) -> Self {
        Self { model: LatencyModel::paper_calibrated(), config, rng: Rng64::new(seed) }
    }

    /// The underlying latency model.
    pub fn model(&self) -> &LatencyModel {
        &self.model
    }

    /// Simulates one frame at a pixel ratio relative to the reference
    /// (KITTI) resolution.
    pub fn simulate_frame(&mut self, pixel_ratio: f64) -> FrameLatency {
        let mut sample = |c: Component| {
            let p = self.config.platform_for(c);
            let scale = resolution_scale(c, pixel_ratio);
            self.model.sample_ms(c, p, &mut self.rng, scale)
        };
        FrameLatency {
            detection: sample(Component::Detection),
            tracking: sample(Component::Tracking),
            localization: sample(Component::Localization),
            fusion: sample(Component::Fusion),
            motion_planning: sample(Component::MotionPlanning),
        }
    }

    /// Simulates `frames` frames, recording all distributions.
    pub fn simulate(&mut self, frames: usize, pixel_ratio: f64) -> PipelineStats {
        let mut stats = PipelineStats::with_capacity(frames);
        for _ in 0..frames {
            let f = self.simulate_frame(pixel_ratio);
            stats.record(&f);
        }
        stats
    }

    /// Analytic end-to-end p99.99 (no sampling): the tail of the
    /// critical path, approximated by composing per-component tails —
    /// exact when one path dominates, as in every paper configuration.
    pub fn analytic_tail_ms(&self, pixel_ratio: f64) -> f64 {
        let t = |c: Component| {
            self.model.p99_99_ms(
                c,
                self.config.platform_for(c),
                resolution_scale(c, pixel_ratio),
            )
        };
        (t(Component::Detection) + t(Component::Tracking)).max(t(Component::Localization))
            + t(Component::Fusion)
            + t(Component::MotionPlanning)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_platform::Platform;

    #[test]
    fn cpu_baseline_is_seconds_scale() {
        let mut pipe = ModeledPipeline::new(PlatformConfig::all_cpu(), 1);
        let stats = pipe.simulate(2_000, 1.0);
        let s = stats.end_to_end.summary();
        // Paper: ~7.9 s mean, 9.1 s tail on multicore CPUs.
        assert!(s.mean > 7_000.0 && s.mean < 9_000.0, "mean {}", s.mean);
        assert!(!s.meets_deadline(100.0));
    }

    #[test]
    fn best_accelerated_config_meets_constraints() {
        // DET on GPU, TRA on ASIC: the paper's 16.1 ms tail design.
        let cfg = PlatformConfig {
            detection: Platform::Gpu,
            tracking: Platform::Asic,
            localization: Platform::Asic,
        };
        let mut pipe = ModeledPipeline::new(cfg, 2);
        let stats = pipe.simulate(20_000, 1.0);
        let s = stats.end_to_end.summary();
        assert!(s.meets_deadline(100.0), "tail {}", s.p99_99);
        assert!(s.p99_99 < 25.0, "tail {}", s.p99_99);
    }

    #[test]
    fn end_to_end_composition_is_critical_path() {
        let f = FrameLatency {
            detection: 10.0,
            tracking: 5.0,
            localization: 20.0,
            fusion: 0.1,
            motion_planning: 0.5,
        };
        assert!((f.end_to_end() - 20.6).abs() < 1e-12, "LOC dominates");
        let f2 = FrameLatency { localization: 8.0, ..f };
        assert!((f2.end_to_end() - 15.6).abs() < 1e-12, "DET+TRA dominates");
    }

    #[test]
    fn seeded_runs_reproduce() {
        let cfg = PlatformConfig::uniform(Platform::Gpu);
        let a = ModeledPipeline::new(cfg, 5).simulate(100, 1.0);
        let b = ModeledPipeline::new(cfg, 5).simulate(100, 1.0);
        assert_eq!(a.end_to_end.summary(), b.end_to_end.summary());
    }

    #[test]
    fn analytic_tail_tracks_sampled_tail() {
        let cfg = PlatformConfig::uniform(Platform::Gpu);
        let mut pipe = ModeledPipeline::new(cfg, 3);
        let sampled = pipe.simulate(50_000, 1.0).end_to_end.summary().p99_99;
        let analytic = pipe.analytic_tail_ms(1.0);
        assert!(
            (sampled - analytic).abs() / analytic < 0.2,
            "sampled {sampled} vs analytic {analytic}"
        );
    }

    #[test]
    fn resolution_scaling_raises_latency() {
        let cfg = PlatformConfig::uniform(Platform::Gpu);
        let mut pipe = ModeledPipeline::new(cfg, 4);
        let mut mean_ms = |ratio| pipe.simulate(2_000, ratio).end_to_end.summary().mean;
        let (native, quad) = (mean_ms(1.0), mean_ms(4.0));
        assert!(quad > 3.0 * native, "4x pixels: {quad} ms vs {native} ms");
    }
}
