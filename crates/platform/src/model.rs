use crate::variability::TailShape;
use adsim_stats::Rng64;
use std::collections::HashMap;

/// The pipeline components of Fig. 1. The first three are the
/// computational bottlenecks (§3.2, >94 % of execution); fusion and
/// motion planning are cheap and always run on the host CPU.
///
/// This is the workspace's one stage vocabulary: the fault injector,
/// the supervisor and the anytime governor all name stages with it,
/// and per-stage arrays are indexed by `component as usize`, which
/// [`Component::ALL`] lists in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// Object detection (DET, YOLO-style).
    Detection,
    /// Object tracking (TRA, GOTURN-style).
    Tracking,
    /// Localization (LOC, ORB-SLAM-style).
    Localization,
    /// Sensor fusion (FUSION).
    Fusion,
    /// Motion planning (MOTPLAN).
    MotionPlanning,
}

impl Component {
    /// The three accelerable bottlenecks.
    pub const BOTTLENECKS: [Component; 3] =
        [Component::Detection, Component::Tracking, Component::Localization];

    /// Every modeled component.
    pub const ALL: [Component; 5] = [
        Component::Detection,
        Component::Tracking,
        Component::Localization,
        Component::Fusion,
        Component::MotionPlanning,
    ];

    /// The paper's abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            Component::Detection => "DET",
            Component::Tracking => "TRA",
            Component::Localization => "LOC",
            Component::Fusion => "FUSION",
            Component::MotionPlanning => "MOTPLAN",
        }
    }

    /// The lowercase telemetry key: the `stage` label of every
    /// per-stage metric series.
    pub fn key(self) -> &'static str {
        match self {
            Component::Detection => "det",
            Component::Tracking => "tra",
            Component::Localization => "loc",
            Component::Fusion => "fus",
            Component::MotionPlanning => "mot",
        }
    }
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// The four computing platform families of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Multicore server CPU (the baseline).
    Cpu,
    /// Discrete GPU.
    Gpu,
    /// FPGA fabric.
    Fpga,
    /// Application-specific IC.
    Asic,
}

impl Platform {
    /// All platforms, CPU first.
    pub const ALL: [Platform; 4] =
        [Platform::Cpu, Platform::Gpu, Platform::Fpga, Platform::Asic];

    /// Accelerators only.
    pub const ACCELERATORS: [Platform; 3] = [Platform::Gpu, Platform::Fpga, Platform::Asic];
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Platform::Cpu => "CPU",
            Platform::Gpu => "GPU",
            Platform::Fpga => "FPGA",
            Platform::Asic => "ASIC",
        };
        f.write_str(s)
    }
}

/// Calibrated behaviour of one component on one platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ComponentModel {
    /// Mean latency at the reference (KITTI) resolution (ms).
    pub mean_ms: f64,
    /// p99.99 / mean ratio the distribution is shaped to.
    pub tail_ratio: f64,
    /// Latency distribution shape.
    pub tail: TailShape,
    /// Measured power draw (W) while running this component
    /// (Fig. 10c).
    pub power_w: f64,
}

impl ComponentModel {
    /// Analytic p99.99 latency at the reference resolution (ms).
    pub(crate) fn p99_99_ms(&self) -> f64 {
        self.mean_ms * self.tail_ratio
    }
}

/// The calibrated latency/power model over all
/// (component × platform) pairs the paper evaluates.
///
/// Calibration anchors are the paper's Fig. 10a (mean), Fig. 10b
/// (p99.99) and Fig. 10c (power); everything else — end-to-end
/// latency, system power, driving range, resolution scalability — is
/// *derived* from these anchors plus the measured compute structure of
/// the real implementations in this workspace.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    table: HashMap<(Component, Platform), ComponentModel>,
}

impl LatencyModel {
    /// Builds the paper-calibrated model.
    pub fn paper_calibrated() -> Self {
        use Component::*;
        use Platform::*;
        let mut table = HashMap::new();
        // (component, platform, mean ms, p99.99 ms, power W)
        // Mean/tail: Fig. 10a / Fig. 10b. Power: Fig. 10c.
        let rows: [(Component, Platform, f64, f64, f64); 12] = [
            (Detection, Cpu, 7_150.0, 7_734.4, 51.2),
            (Tracking, Cpu, 799.0, 1_334.0, 106.9),
            (Localization, Cpu, 40.8, 294.2, 53.8),
            (Detection, Gpu, 11.2, 14.3, 54.0),
            (Tracking, Gpu, 5.5, 6.4, 55.0),
            (Localization, Gpu, 20.3, 54.0, 53.0),
            (Detection, Fpga, 369.6, 369.6, 21.5),
            (Tracking, Fpga, 536.0, 536.0, 22.7),
            (Localization, Fpga, 27.1, 27.1, 19.0),
            (Detection, Asic, 95.9, 95.9, 7.9),
            (Tracking, Asic, 1.8, 1.8, 9.3),
            (Localization, Asic, 10.1, 10.1, 0.1),
        ];
        for (c, p, mean, p9999, power) in rows {
            let ratio = p9999 / mean;
            let tail = if ratio < 1.001 {
                TailShape::deterministic()
            } else if c == Localization {
                // LOC's tail is a *mode switch* (relocalization with a
                // widened map search, §3.1.3), not body noise.
                TailShape::spiky(ratio, 0.004)
            } else {
                TailShape::body(ratio)
            };
            table.insert(
                (c, p),
                ComponentModel { mean_ms: mean, tail_ratio: ratio, tail, power_w: power },
            );
        }
        // FUSION and MOTPLAN always run on the CPU and are negligible
        // (Fig. 6: 0.1 ms and 0.5 ms at the 99.99th percentile); their
        // power is part of the host CPU baseline.
        table.insert(
            (Fusion, Cpu),
            ComponentModel {
                mean_ms: 0.08,
                tail_ratio: 1.25,
                tail: TailShape::body(1.25),
                power_w: 0.0,
            },
        );
        table.insert(
            (MotionPlanning, Cpu),
            ComponentModel {
                mean_ms: 0.4,
                tail_ratio: 1.25,
                tail: TailShape::body(1.25),
                power_w: 0.0,
            },
        );
        Self { table }
    }

    /// Analytic mean latency, scaled by a workload factor (see
    /// [`resolution_scale`]).
    ///
    /// # Panics
    ///
    /// Panics if the pair is unsupported.
    pub fn mean_ms(&self, c: Component, p: Platform, workload_scale: f64) -> f64 {
        self.table[&(c, p)].mean_ms * workload_scale
    }

    /// Analytic p99.99 latency, scaled by a workload factor.
    ///
    /// # Panics
    ///
    /// Panics if the pair is unsupported.
    pub fn p99_99_ms(&self, c: Component, p: Platform, workload_scale: f64) -> f64 {
        self.table[&(c, p)].p99_99_ms() * workload_scale
    }

    /// Draws one latency sample (ms).
    ///
    /// # Panics
    ///
    /// Panics if the pair is unsupported.
    pub fn sample_ms(
        &self,
        c: Component,
        p: Platform,
        rng: &mut Rng64,
        workload_scale: f64,
    ) -> f64 {
        let m = &self.table[&(c, p)];
        m.tail.sample(rng, m.mean_ms * workload_scale)
    }

    /// Power draw (W) of one component on one platform (Fig. 10c).
    ///
    /// # Panics
    ///
    /// Panics if the pair is unsupported.
    pub fn power_w(&self, c: Component, p: Platform) -> f64 {
        self.table[&(c, p)].power_w
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

/// Workload scale factor for a component at a camera resolution with
/// `pixel_ratio` = pixels / reference pixels.
///
/// The DNN engines scale linearly in pixels (convolution FLOPs are
/// proportional to H·W — verified against `adsim_dnn`'s cost analyzer
/// in this module's tests). Localization's FAST scan scales with
/// pixels but its description/matching stage is capped at the
/// extractor's `max_features`, so only the scan share (≈ 45 % of FE
/// work measured on `adsim_vision`) scales. Fusion and planning do not
/// depend on resolution.
pub fn resolution_scale(c: Component, pixel_ratio: f64) -> f64 {
    assert!(pixel_ratio > 0.0, "pixel ratio must be positive");
    match c {
        Component::Detection | Component::Tracking => pixel_ratio,
        Component::Localization => 0.45 * pixel_ratio + 0.55,
        Component::Fusion | Component::MotionPlanning => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_stats::LatencyRecorder;

    #[test]
    fn calibration_matches_fig10_anchors() {
        let m = LatencyModel::paper_calibrated();
        assert_eq!(m.mean_ms(Component::Detection, Platform::Cpu, 1.0), 7150.0);
        assert_eq!(m.p99_99_ms(Component::Tracking, Platform::Cpu, 1.0), 1334.0);
        assert_eq!(m.power_w(Component::Localization, Platform::Asic), 0.1);
        assert!(!m.table.contains_key(&(Component::Fusion, Platform::Gpu)));
    }

    #[test]
    fn sampled_distributions_match_anchors() {
        let m = LatencyModel::paper_calibrated();
        let mut rng = Rng64::new(99);
        for (c, p) in [
            (Component::Detection, Platform::Cpu),
            (Component::Localization, Platform::Cpu),
            (Component::Localization, Platform::Gpu),
            (Component::Tracking, Platform::Asic),
        ] {
            let rec: LatencyRecorder =
                (0..100_000).map(|_| m.sample_ms(c, p, &mut rng, 1.0)).collect();
            let s = rec.summary();
            let mean_target = m.mean_ms(c, p, 1.0);
            let tail_target = m.p99_99_ms(c, p, 1.0);
            assert!(
                (s.mean - mean_target).abs() / mean_target < 0.03,
                "{c} on {p}: mean {} vs {mean_target}",
                s.mean
            );
            assert!(
                (s.p99_99 - tail_target).abs() / tail_target < 0.15,
                "{c} on {p}: tail {} vs {tail_target}",
                s.p99_99
            );
        }
    }

    #[test]
    fn tail_reduction_factors_match_abstract() {
        // The abstract: GPU/FPGA/ASIC reduce tail latency by 169x,
        // 10x, 93x. End-to-end tail = max(LOC, DET+TRA).
        let m = LatencyModel::paper_calibrated();
        let e2e = |p: Platform| {
            let det = m.p99_99_ms(Component::Detection, p, 1.0);
            let tra = m.p99_99_ms(Component::Tracking, p, 1.0);
            let loc = m.p99_99_ms(Component::Localization, p, 1.0);
            (det + tra).max(loc)
        };
        let cpu = e2e(Platform::Cpu);
        assert!((cpu / e2e(Platform::Gpu) - 169.0).abs() < 5.0, "{}", cpu / e2e(Platform::Gpu));
        assert!((cpu / e2e(Platform::Fpga) - 10.0).abs() < 0.5);
        assert!((cpu / e2e(Platform::Asic) - 93.0).abs() < 3.0);
    }

    #[test]
    fn dnn_resolution_scaling_matches_cost_analyzer() {
        // The model's linear pixel scaling for DNN engines must agree
        // with the actual conv cost of the full YOLO network.
        let base = adsim_dnn::models::yolo_v2_spec(384, 1248).cost().unwrap().total.flops;
        let fhd = adsim_dnn::models::yolo_v2_spec(1088, 1920).cost().unwrap().total.flops;
        let flop_ratio = fhd as f64 / base as f64;
        let pixel_ratio = (1088.0 * 1920.0) / (384.0 * 1248.0);
        let model_ratio = resolution_scale(Component::Detection, pixel_ratio);
        assert!(
            (flop_ratio - model_ratio).abs() / model_ratio < 0.05,
            "cost analyzer {flop_ratio:.3} vs model {model_ratio:.3}"
        );
    }

    #[test]
    fn implied_gpu_throughput_is_physically_plausible() {
        // Bridge the calibrated latency to the measured workload: the
        // implied GPU throughput for YOLO must sit below Titan X peak
        // (11 TFLOP/s) and far above the CPU's.
        let m = LatencyModel::paper_calibrated();
        let gflops =
            adsim_dnn::models::yolo_v2_spec(384, 1248).cost().unwrap().gflops();
        let gpu = gflops / (m.mean_ms(Component::Detection, Platform::Gpu, 1.0) / 1e3);
        let cpu = gflops / (m.mean_ms(Component::Detection, Platform::Cpu, 1.0) / 1e3);
        assert!(gpu < 11_000.0, "implied GPU throughput {gpu} GFLOP/s exceeds peak");
        assert!(gpu > 20.0 * cpu, "GPU {gpu} vs CPU {cpu} GFLOP/s");
    }

    #[test]
    fn loc_scales_sublinearly() {
        let det = resolution_scale(Component::Detection, 4.0);
        let loc = resolution_scale(Component::Localization, 4.0);
        assert!(loc < det);
        assert!((resolution_scale(Component::Localization, 1.0) - 1.0).abs() < 1e-12);
        assert_eq!(resolution_scale(Component::Fusion, 4.0), 1.0);
    }

    #[test]
    fn displays_match_paper_abbreviations() {
        assert_eq!(Component::Detection.to_string(), "DET");
        assert_eq!(Component::Fusion.key(), "fus");
        assert_eq!(Platform::Fpga.to_string(), "FPGA");
    }

    #[test]
    fn all_lists_components_in_index_order() {
        for (i, c) in Component::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{c}");
        }
    }
}
