//! The predictive deadline governor: forecast slack, walk the ladder.

use super::knobs::{default_ladder, AnytimeConfig, QualityKnobs, QualityLevel};
use super::predictor::LatencyPredictor;
use adsim_platform::Component;

/// Degrade when the forecast exceeds this fraction of the budget /
/// deadline.
const ENTER_FRACTION: f64 = 0.85;
/// Upgrade only when the forecast at the better rung stays under this
/// (stricter) fraction — the hysteresis band.
const EXIT_FRACTION: f64 = 0.60;
/// Minimum frames between knob switches (dwell window).
pub const DWELL_FRAMES: u32 = 5;
/// EWMA smoothing factor in `(0, 1]` for the predictor level and trend.
const EWMA_ALPHA: f64 = 0.35;
/// Forecast horizon in frames: the trend is extrapolated this far
/// ahead, so ramps are caught before they cross the budget.
const HORIZON_FRAMES: f64 = 3.0;

/// One knob switch, for the governor's deterministic decision log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorEvent {
    /// Frame the switch happened on.
    pub frame: u64,
    /// Rung switched from.
    pub from: &'static str,
    /// Rung switched to.
    pub to: &'static str,
    /// True for a degrade (down the ladder), false for an upgrade.
    pub degrade: bool,
    /// Forecast detection extra at the old rung when the decision was
    /// made (ms, virtual).
    pub predicted_det_ms: f64,
    /// Forecast end-to-end latency at the old rung (ms, virtual).
    pub predicted_e2e_ms: f64,
}

impl std::fmt::Display for GovernorEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame {:>5}: {} {} -> {} (forecast det {:.1} ms, e2e {:.1} ms)",
            self.frame,
            if self.degrade { "degrade" } else { "upgrade" },
            self.from,
            self.to,
            self.predicted_det_ms,
            self.predicted_e2e_ms,
        )
    }
}

/// The predictive deadline governor.
///
/// Call [`Governor::decide`] once per frame *before* the pipeline runs
/// (it may switch the active quality rung), read the active knobs with
/// [`Governor::knobs`], then feed the frame's observed virtual extras
/// back with [`Governor::observe`]. All state is a pure function of
/// the observed sample sequence, so a seeded campaign replays the
/// identical decision log on any worker count.
#[derive(Debug, Clone)]
pub(crate) struct Governor {
    enabled: bool,
    /// The degradation ladder, best quality first.
    ladder: Vec<QualityLevel>,
    predictor: LatencyPredictor,
    level: usize,
    last_switch: Option<u64>,
    switches: u64,
    last_pred_det: f64,
    last_pred_e2e: f64,
    // Most recent full-quality extras forecast (summed), so the next
    // observation can score it — the telemetry forecast-error series.
    last_fc_sum: f64,
    has_forecast: bool,
    events: Vec<GovernorEvent>,
}

impl Governor {
    /// Creates a governor over [`default_ladder`].
    pub(crate) fn new(cfg: AnytimeConfig) -> Self {
        Self {
            enabled: cfg == AnytimeConfig::On,
            ladder: default_ladder(),
            predictor: LatencyPredictor::new(EWMA_ALPHA, HORIZON_FRAMES),
            level: 0,
            last_switch: None,
            switches: 0,
            last_pred_det: 0.0,
            last_pred_e2e: 0.0,
            last_fc_sum: 0.0,
            has_forecast: false,
            events: Vec::new(),
        }
    }

    /// Whether the governor is active.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Index of the active rung (0 = best quality).
    pub(crate) fn level(&self) -> usize {
        self.level
    }

    /// The active rung.
    pub(crate) fn current(&self) -> &QualityLevel {
        &self.ladder[self.level]
    }

    /// The knobs the pipeline should run with this frame, or `None`
    /// when the governor is disabled (the pipeline keeps its built-in
    /// configuration untouched — the bit-identity guarantee).
    pub(crate) fn knobs(&self) -> Option<QualityKnobs> {
        self.enabled.then(|| self.current().knobs)
    }

    /// Knob switches performed so far.
    pub(crate) fn switches(&self) -> u64 {
        self.switches
    }

    /// The decision log, in frame order.
    pub(crate) fn events(&self) -> &[GovernorEvent] {
        &self.events
    }

    /// Forecast end-to-end latency at the active rung from the most
    /// recent [`Governor::decide`] (ms, virtual).
    pub(crate) fn last_forecast_e2e(&self) -> f64 {
        self.last_pred_e2e
    }

    /// Nominal cost of `stage` at the active rung (ms) — what the
    /// supervisor charges multiplicative latency faults against.
    /// Defined even when disabled (rung 0 factors).
    pub(crate) fn nominal_stage_ms(&self, stage: Component) -> f64 {
        self.current().nominal_ms(stage)
    }

    /// Nominal end-to-end cost at the active rung (ms).
    pub(crate) fn nominal_e2e_ms(&self) -> f64 {
        self.current().nominal_e2e_ms()
    }

    /// Forecast detection extra and summed end-to-end extras at `level`
    /// (ms). Extras scale with the rung's cost factors, exactly as the
    /// supervisor charges multiplicative latency faults.
    fn forecast_at(&self, fc: &[f64; 5], level: usize) -> (f64, f64) {
        let lvl = &self.ladder[level];
        let det = fc[Component::Detection as usize] * lvl.det_factor;
        let e2e = Component::ALL.iter().map(|&c| fc[c as usize] * lvl.factor(c)).sum();
        (det, e2e)
    }

    /// Runs the frame's switching decision against the watchdog budget
    /// and the end-to-end deadline. Call before the pipeline runs.
    pub(crate) fn decide(&mut self, frame: u64, stage_budget_ms: f64, deadline_ms: f64) {
        if !self.enabled {
            return;
        }
        let fc = self.predictor.forecast();
        let (det_now, e2e_now) = self.forecast_at(&fc, self.level);
        self.last_pred_det = det_now;
        self.last_pred_e2e = self.nominal_e2e_ms() + e2e_now;
        self.last_fc_sum = fc.iter().sum();
        self.has_forecast = true;
        if let Some(last) = self.last_switch {
            if frame.saturating_sub(last) < u64::from(DWELL_FRAMES) {
                return;
            }
        }
        // A rung "fits" a band when the forecast *extras* stay under
        // the given fraction of the stage budget (the watchdog clamps
        // on extras) and of the rung's end-to-end slack (deadline minus
        // its nominal cost — a miss is nominal + extras > deadline).
        let fits = |gov: &Self, level: usize, fraction: f64| {
            let (det, e2e) = gov.forecast_at(&fc, level);
            let slack = (deadline_ms - gov.ladder[level].nominal_e2e_ms()).max(0.0);
            det <= fraction * stage_budget_ms && e2e <= fraction * slack
        };
        let len = self.ladder.len();
        let target = if !fits(self, self.level, ENTER_FRACTION) {
            // Degrade to the best rung whose forecast clears the exit
            // band; bottom out on the last rung when nothing does.
            (self.level + 1..len).find(|&l| fits(self, l, EXIT_FRACTION)).unwrap_or(len - 1)
        } else if self.level > 0 && fits(self, self.level - 1, EXIT_FRACTION) {
            // Upgrade one rung at a time, only when the better rung
            // clears the stricter exit band (hysteresis).
            self.level - 1
        } else {
            self.level
        };
        if target != self.level {
            self.switch(frame, target);
        }
    }

    /// Switches rungs, logging the event and the knob-change instants.
    fn switch(&mut self, frame: u64, target: usize) {
        let from = self.level;
        let degrade = target > from;
        adsim_trace::instant(if degrade { "anytime.degrade" } else { "anytime.upgrade" });
        adsim_trace::counter("anytime.quality-level", target as f64);
        let a = self.ladder[from].knobs;
        let b = self.ladder[target].knobs;
        if a.det_scale != b.det_scale {
            adsim_trace::instant("anytime.knob.resolution");
        }
        if a.det_variant != b.det_variant {
            adsim_trace::instant("anytime.knob.variant");
        }
        if a.tracker_capacity != b.tracker_capacity {
            adsim_trace::instant("anytime.knob.tracker-pool");
        }
        self.events.push(GovernorEvent {
            frame,
            from: self.ladder[from].name,
            to: self.ladder[target].name,
            degrade,
            predicted_det_ms: self.last_pred_det,
            predicted_e2e_ms: self.last_pred_e2e,
        });
        self.level = target;
        self.last_switch = Some(frame);
        self.switches += 1;
    }

    /// Feeds the frame's observed per-stage virtual extras (ms, as
    /// charged at the *active* rung) into the predictor. The governor
    /// normalizes them to full quality, so predictor state describes
    /// the underlying load independent of the knob setting. Returns the
    /// absolute error of the summed forecast (ms), once one exists.
    pub(crate) fn observe(&mut self, extras_ms: [f64; 5]) -> Option<f64> {
        if !self.enabled {
            return None;
        }
        let lvl = &self.ladder[self.level];
        let normalized = Component::ALL.map(|c| extras_ms[c as usize] / lvl.factor(c).max(1e-9));
        let err =
            self.has_forecast.then(|| (self.last_fc_sum - normalized.iter().sum::<f64>()).abs());
        self.predictor.observe(normalized);
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anytime::knobs::ModelVariant;

    const BUDGET: f64 = 50.0;
    const DEADLINE: f64 = 100.0;

    fn step(gov: &mut Governor, frame: u64, det_extra: f64) {
        gov.decide(frame, BUDGET, DEADLINE);
        let f = gov.current().det_factor;
        // The observed extra scales with the active rung, exactly as
        // the supervisor charges multiplicative faults.
        gov.observe([det_extra * f, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn disabled_governor_is_inert() {
        let mut gov = Governor::new(AnytimeConfig::Off);
        for frame in 0..100 {
            step(&mut gov, frame, 100.0);
        }
        assert_eq!(gov.level(), 0);
        assert!(gov.knobs().is_none());
        assert!(gov.events().is_empty());
        assert_eq!(gov.switches(), 0);
    }

    #[test]
    fn ramp_degrades_before_the_budget_is_crossed() {
        let mut gov = Governor::new(AnytimeConfig::On);
        let mut acted_at_extra = None;
        for frame in 0..60 {
            let extra = 2.0 * frame as f64; // slow drift on DET
            step(&mut gov, frame, extra);
            if gov.level() > 0 && acted_at_extra.is_none() {
                acted_at_extra = Some(extra);
            }
        }
        let at = acted_at_extra.expect("governor must act under a sustained ramp");
        assert!(at < BUDGET, "acted at extra {at:.1} ms, after the budget was already blown");
    }

    #[test]
    fn alternating_load_at_the_threshold_respects_the_dwell_window() {
        let dwell = u64::from(DWELL_FRAMES);
        let enter = ENTER_FRACTION;
        let mut gov = Governor::new(AnytimeConfig::On);
        // Alternate the DET load exactly around the enter threshold.
        for frame in 0..200u64 {
            let extra = if frame % 2 == 0 { enter * BUDGET * 1.05 } else { 0.0 };
            step(&mut gov, frame, extra);
        }
        // No dwell window may contain more than one switch.
        let ev = gov.events();
        for pair in ev.windows(2) {
            assert!(
                pair[1].frame - pair[0].frame >= dwell,
                "switches at {} and {} violate the {dwell}-frame dwell",
                pair[0].frame,
                pair[1].frame
            );
        }
        assert!(gov.switches() <= 200 / dwell + 1);
    }

    #[test]
    fn recovery_upgrades_back_to_full_quality() {
        let mut gov = Governor::new(AnytimeConfig::On);
        for frame in 0..60 {
            step(&mut gov, frame, 60.0); // sustained overload
        }
        assert!(gov.level() > 0, "overload must degrade");
        for frame in 60..200 {
            step(&mut gov, frame, 0.0); // load clears
        }
        assert_eq!(gov.level(), 0, "governor must upgrade back after recovery");
        let last = gov.events().last().unwrap();
        assert!(!last.degrade);
    }

    #[test]
    fn deep_overload_bottoms_out_on_the_last_rung() {
        let mut gov = Governor::new(AnytimeConfig::On);
        for frame in 0..100 {
            step(&mut gov, frame, 500.0);
        }
        assert_eq!(gov.level(), default_ladder().len() - 1);
        assert_eq!(gov.current().knobs.det_variant, ModelVariant::Reduced);
    }

    #[test]
    fn decision_log_is_reproducible() {
        let run = || {
            let mut gov = Governor::new(AnytimeConfig::On);
            for frame in 0..150u64 {
                let extra = ((frame * 7919) % 83) as f64;
                step(&mut gov, frame, extra);
            }
            gov.events().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn e2e_pressure_alone_degrades() {
        // Load on LOC (no knob) pushes the e2e forecast over the
        // deadline; the governor sheds DET/TRA cost to compensate.
        let mut gov = Governor::new(AnytimeConfig::On);
        for frame in 0..60 {
            gov.decide(frame, BUDGET, DEADLINE);
            gov.observe([0.0, 0.0, 30.0, 0.0, 0.0]);
        }
        assert!(gov.level() > 0, "e2e forecast must drive degradation too");
    }

    #[test]
    fn events_render_for_the_log() {
        let mut gov = Governor::new(AnytimeConfig::On);
        for frame in 0..60 {
            step(&mut gov, frame, 2.5 * frame as f64);
        }
        assert!(!gov.events().is_empty());
        for e in gov.events() {
            assert!(e.to_string().starts_with("frame "), "{e}");
        }
    }
}
