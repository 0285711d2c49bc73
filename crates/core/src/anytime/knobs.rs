//! Quality knobs, the degradation ladder, and the governor's on/off
//! switch.

use adsim_platform::Component;

/// Which detection model family the detector should run. The concrete
/// mapping (which network a variant names) lives in the pipeline layer;
/// the governor only promises that [`ModelVariant::Full`] is the richer
/// and costlier of the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ModelVariant {
    /// The full-quality detection model (`yolo_v2`-style trunk).
    Full,
    /// The reduced model (`yolo_tiny`) — cheaper, less capable.
    Reduced,
}

impl std::fmt::Display for ModelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ModelVariant::Full => "full",
            ModelVariant::Reduced => "reduced",
        })
    }
}

/// One runtime quality setting: everything the pipeline can switch
/// mid-run without reallocating weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct QualityKnobs {
    /// Detector input-resolution scale in `(0, 1]` — the paper's
    /// Fig. 13 axis. `1.0` is native resolution.
    pub det_scale: f32,
    /// Detection model variant.
    pub det_variant: ModelVariant,
    /// Tracker-pool capacity (simultaneous tracks).
    pub tracker_capacity: usize,
}

/// One rung of the degradation ladder: a knob setting plus the
/// deterministic cost factors the governor predicts with. Factors are
/// fractions of the full-quality nominal stage cost (detection FLOPs
/// scale with `det_scale²` and the model variant; tracking scales with
/// pool capacity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct QualityLevel {
    /// Human-readable rung name (stable; appears in logs and benches).
    pub name: &'static str,
    /// The knob setting this rung applies.
    pub knobs: QualityKnobs,
    /// Detection cost as a fraction of nominal full quality.
    pub det_factor: f64,
    /// Tracking cost as a fraction of nominal full quality.
    pub tra_factor: f64,
}

impl QualityLevel {
    /// The cost factor this rung applies to `stage` (1.0 for stages
    /// without a knob).
    pub(crate) fn factor(&self, stage: Component) -> f64 {
        match stage {
            Component::Detection => self.det_factor,
            Component::Tracking => self.tra_factor,
            Component::Localization | Component::Fusion | Component::MotionPlanning => 1.0,
        }
    }

    /// Nominal cost of `stage` at this rung (ms).
    pub(crate) fn nominal_ms(&self, stage: Component) -> f64 {
        NOMINAL_MS[stage as usize] * self.factor(stage)
    }

    /// Nominal end-to-end cost at this rung (ms).
    pub(crate) fn nominal_e2e_ms(&self) -> f64 {
        Component::ALL.iter().map(|&c| self.nominal_ms(c)).sum()
    }
}

/// Deterministic nominal per-stage costs (ms) at full quality, indexed
/// by `Component as usize` — the governor's virtual-clock cost model.
/// These stand in for measured wall time so that every decision is a
/// pure function of the fault schedule, preserving fleet byte-identity.
/// DET-dominated, end-to-end 80 ms at full quality: 20 ms of slack
/// under the paper's 100 ms deadline, matching the shape of its Fig. 6
/// latency breakdown.
const NOMINAL_MS: [f64; 5] = [40.0, 15.0, 20.0, 2.0, 3.0];

/// The default three-rung ladder, full quality first.
///
/// Detection factors follow `det_scale²` (conv FLOPs are linear in
/// pixels) times a 0.6 variant discount for the reduced model;
/// tracking factors follow the capacity ratio.
pub(crate) fn default_ladder() -> Vec<QualityLevel> {
    vec![
        QualityLevel {
            name: "full",
            knobs: QualityKnobs {
                det_scale: 1.0,
                det_variant: ModelVariant::Full,
                tracker_capacity: 32,
            },
            det_factor: 1.0,
            tra_factor: 1.0,
        },
        QualityLevel {
            name: "reduced",
            knobs: QualityKnobs {
                det_scale: 0.75,
                det_variant: ModelVariant::Full,
                tracker_capacity: 16,
            },
            det_factor: 0.5625,
            tra_factor: 0.5,
        },
        QualityLevel {
            name: "minimum",
            knobs: QualityKnobs {
                det_scale: 0.5,
                det_variant: ModelVariant::Reduced,
                tracker_capacity: 8,
            },
            det_factor: 0.15,
            tra_factor: 0.25,
        },
    ]
}

/// Whether the predictive governor runs. [`AnytimeConfig::Off`] (the
/// [`Default`]) disables it entirely: no prediction, no knob changes,
/// and the supervisor's behavior is bit-identical to a build without
/// this crate. [`AnytimeConfig::On`] walks `default_ladder` with the
/// `NOMINAL_MS` cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AnytimeConfig {
    /// Governor inert.
    #[default]
    Off,
    /// Governor enabled with the default ladder and thresholds.
    On,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_and_ladder_descends() {
        assert_eq!(AnytimeConfig::default(), AnytimeConfig::Off);
        let ladder = default_ladder();
        assert!(ladder.len() >= 2);
        for pair in ladder.windows(2) {
            assert!(pair[1].det_factor < pair[0].det_factor, "ladder must descend in cost");
            assert!(pair[1].knobs.tracker_capacity <= pair[0].knobs.tracker_capacity);
        }
    }

    #[test]
    fn nominal_e2e_leaves_slack_under_the_deadline() {
        let ladder = default_ladder();
        let full = ladder[0].nominal_e2e_ms();
        assert!(full < 100.0, "full-quality nominal {full} must fit the 100 ms deadline");
        let min = ladder.last().unwrap().nominal_e2e_ms();
        assert!(min < 0.5 * full, "minimum rung must at least halve the nominal cost");
    }

    #[test]
    fn factors_cover_all_stages() {
        let lvl = &default_ladder()[1];
        assert_eq!(lvl.factor(Component::Localization), 1.0);
        assert_eq!(lvl.factor(Component::Detection), lvl.det_factor);
        assert_eq!(lvl.factor(Component::Tracking), lvl.tra_factor);
    }
}
