use adsim_stats::Rng64;

/// The shape of a latency distribution around its mean.
///
/// Latency bodies are log-normal (multiplicative noise from cache,
/// DVFS and scheduler effects), optionally mixed with a rare *spike*
/// mode: the localization engine's relocalization fallback does several
/// times the matching work of a tracked frame (paper §3.1.3), and
/// conventional CPUs add scheduling interference. Accelerators with
/// predictable dataflow (FPGAs, ASICs) have near-zero sigma — exactly
/// the property Finding 4 prizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailShape {
    /// Log-normal shape parameter of the body.
    pub sigma: f64,
    /// Probability a sample is a spike.
    pub spike_prob: f64,
    /// Multiplier applied to spiked samples.
    pub spike_mult: f64,
}

impl TailShape {
    /// A deterministic (mean ≈ tail) shape with residual jitter.
    pub(crate) fn deterministic() -> Self {
        Self { sigma: 0.002, spike_prob: 0.0, spike_mult: 1.0 }
    }

    /// A body-only log-normal shape whose p99.99/mean ratio is
    /// approximately `ratio`.
    ///
    /// For a log-normal with median `m`, `p99.99 = m·exp(3.719σ)` and
    /// `mean = m·exp(σ²/2)`, so `ratio = exp(3.719σ − σ²/2)`.
    ///
    /// # Panics
    ///
    /// Panics if `ratio < 1`.
    pub fn body(ratio: f64) -> Self {
        assert!(ratio >= 1.0, "tail cannot be below the mean");
        // Solve 3.719σ − σ²/2 = ln(ratio) by one Newton step from the
        // linear estimate; σ is small for all ratios the paper shows.
        let target = ratio.ln();
        let mut sigma = target / 3.719;
        for _ in 0..8 {
            let f = 3.719 * sigma - sigma * sigma / 2.0 - target;
            let df = 3.719 - sigma;
            sigma -= f / df;
        }
        Self { sigma: sigma.max(0.0), spike_prob: 0.0, spike_mult: 1.0 }
    }

    /// A spike-mode shape: the body is tight, but with probability
    /// `spike_prob` the sample is multiplied by roughly
    /// `ratio` (so that p99.99 lands near `ratio × mean` as long as
    /// `spike_prob > 0.0001`).
    ///
    /// # Panics
    ///
    /// Panics if `ratio < 1` or the probability is out of range.
    pub fn spiky(ratio: f64, spike_prob: f64) -> Self {
        assert!(ratio >= 1.0, "tail cannot be below the mean");
        assert!((0.0..=0.05).contains(&spike_prob), "spikes must be rare");
        Self { sigma: 0.05, spike_prob, spike_mult: ratio }
    }

    /// Expected value of the multiplier this shape applies (used to
    /// re-normalize so the configured mean is preserved).
    pub(crate) fn mean_multiplier(&self) -> f64 {
        // Body is normalized to mean 1; spikes add (mult − 1)·p.
        1.0 + self.spike_prob * (self.spike_mult - 1.0)
    }

    /// Draws one latency sample with the given mean.
    pub fn sample(&self, rng: &mut Rng64, mean_ms: f64) -> f64 {
        let z = rng.normal();
        // Log-normal with mean 1.
        let mut mult = (self.sigma * z - self.sigma * self.sigma / 2.0).exp();
        if self.spike_prob > 0.0 && rng.chance(self.spike_prob) {
            // Spikes spread a little so the tail is not a point mass.
            mult *= self.spike_mult * rng.range_f64(0.9, 1.05);
        }
        mean_ms * mult / self.mean_multiplier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(shape: TailShape, mean: f64, n: usize) -> (f64, f64) {
        let mut rng = Rng64::new(42);
        let mut v: Vec<f64> = (0..n).map(|_| shape.sample(&mut rng, mean)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let m = v.iter().sum::<f64>() / n as f64;
        let p9999 = v[(n as f64 * 0.9999) as usize];
        (m, p9999)
    }

    #[test]
    fn deterministic_shape_has_tight_tail() {
        let (m, p) = stats(TailShape::deterministic(), 10.0, 100_000);
        assert!((m - 10.0).abs() < 0.05);
        assert!(p / m < 1.01);
    }

    #[test]
    fn body_shape_hits_target_ratio() {
        for ratio in [1.08, 1.3, 1.7] {
            let (m, p) = stats(TailShape::body(ratio), 100.0, 200_000);
            assert!((m - 100.0).abs() < 1.0, "mean {m}");
            let measured = p / m;
            assert!(
                (measured - ratio).abs() / ratio < 0.08,
                "ratio {ratio}: measured {measured}"
            );
        }
    }

    #[test]
    fn spiky_shape_hits_target_ratio_and_mean() {
        let (m, p) = stats(TailShape::spiky(7.2, 0.004), 40.0, 200_000);
        assert!((m - 40.0).abs() < 0.8, "mean {m}");
        let measured = p / m;
        assert!((measured - 7.2).abs() / 7.2 < 0.12, "measured {measured}");
    }

    #[test]
    fn samples_are_positive() {
        let shape = TailShape::spiky(5.0, 0.01);
        let mut rng = Rng64::new(7);
        for _ in 0..10_000 {
            assert!(shape.sample(&mut rng, 1.0) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "tail cannot be below the mean")]
    fn sub_unity_ratio_rejected() {
        TailShape::body(0.9);
    }
}
