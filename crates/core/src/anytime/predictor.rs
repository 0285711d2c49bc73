//! Streaming per-stage latency prediction (EWMA level + trend).

/// Double-exponential smoother for one stage: an EWMA level plus an
/// EWMA of the level's frame-to-frame change (the trend). The forecast
/// extrapolates the trend over the horizon, which is what lets a slow
/// drift be caught frames before it crosses the budget — a plain EWMA
/// only ever lags a ramp.
#[derive(Debug, Clone, Copy, Default)]
struct StageSmoother {
    level: f64,
    trend: f64,
    primed: bool,
}

impl StageSmoother {
    fn observe(&mut self, sample: f64, alpha: f64) {
        if !self.primed {
            self.level = sample;
            self.trend = 0.0;
            self.primed = true;
            return;
        }
        let prev = self.level;
        self.level += alpha * (sample - self.level);
        self.trend += alpha * ((self.level - prev) - self.trend);
    }

    fn forecast(&self, horizon: f64) -> f64 {
        if !self.primed {
            return 0.0;
        }
        (self.level + self.trend * horizon).max(0.0)
    }
}

/// Streaming per-stage predictor over **virtual** (injected) latency
/// samples, normalized to full quality. Per-stage arrays are indexed
/// by `Component as usize`.
///
/// Samples must be quality-invariant: the caller divides each stage's
/// observed virtual extra by the cost factor of the quality level it
/// was observed at, so the predictor state describes the underlying
/// load, not the knob setting. Prediction at any candidate rung is then
/// `forecast × factor(rung)` — which is what lets the governor compare
/// rungs without separate estimators per rung.
#[derive(Debug, Clone)]
pub(crate) struct LatencyPredictor {
    stages: [StageSmoother; 5],
    alpha: f64,
    horizon: f64,
}

impl LatencyPredictor {
    /// Creates a predictor with the given EWMA factor and forecast
    /// horizon (frames). `alpha` is clamped to `(0, 1]`.
    pub(crate) fn new(alpha: f64, horizon_frames: f64) -> Self {
        Self {
            stages: [StageSmoother::default(); 5],
            alpha: alpha.clamp(1e-6, 1.0),
            horizon: horizon_frames.max(0.0),
        }
    }

    /// Folds one frame's normalized per-stage samples (ms) into the
    /// smoothers.
    pub(crate) fn observe(&mut self, samples: [f64; 5]) {
        for (s, sample) in self.stages.iter_mut().zip(samples) {
            s.observe(sample, self.alpha);
        }
    }

    /// Forecast per stage for the configured horizon (ms, normalized
    /// to full quality, never negative).
    pub(crate) fn forecast(&self) -> [f64; 5] {
        std::array::from_fn(|i| self.stages[i].forecast(self.horizon))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_platform::Component;

    const DET: usize = Component::Detection as usize;

    #[test]
    fn cold_predictor_forecasts_zero() {
        let p = LatencyPredictor::new(0.3, 3.0);
        assert_eq!(p.forecast(), [0.0; 5]);
    }

    #[test]
    fn constant_load_converges_to_the_load() {
        let mut p = LatencyPredictor::new(0.3, 3.0);
        for _ in 0..200 {
            p.observe([10.0, 0.0, 0.0, 0.0, 0.0]);
        }
        let f = p.forecast();
        assert!((f[DET] - 10.0).abs() < 0.5, "det forecast {}", f[DET]);
        assert_eq!(f[Component::Tracking as usize], 0.0);
    }

    #[test]
    fn ramp_forecast_leads_the_samples() {
        // A 2 ms/frame ramp: with a 3-frame horizon the forecast must
        // exceed the latest sample (that lead is the whole point).
        let mut p = LatencyPredictor::new(0.5, 3.0);
        let mut last = 0.0;
        for k in 0..50 {
            last = 2.0 * k as f64;
            p.observe([last, 0.0, 0.0, 0.0, 0.0]);
        }
        assert!(p.forecast()[DET] > last, "forecast {} vs sample {last}", p.forecast()[DET]);
    }

    #[test]
    fn recovery_decays_the_forecast() {
        let mut p = LatencyPredictor::new(0.4, 3.0);
        for _ in 0..50 {
            p.observe([30.0, 0.0, 0.0, 0.0, 0.0]);
        }
        for _ in 0..50 {
            p.observe([0.0; 5]);
        }
        assert!(p.forecast()[DET] < 1.0);
    }

    #[test]
    fn forecast_is_never_negative() {
        let mut p = LatencyPredictor::new(0.9, 10.0);
        for k in (0..30).rev() {
            p.observe([k as f64, 0.0, 0.0, 0.0, 0.0]);
        }
        assert!(p.forecast().iter().all(|&v| v >= 0.0));
    }
}
