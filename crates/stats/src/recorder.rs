use crate::{LatencySummary, Quantile};

/// Collects latency samples (in milliseconds) and computes exact
/// order statistics over them.
///
/// The recorder keeps every sample so quantiles are exact — the
/// experiments in this workspace record at most a few hundred thousand
/// samples, for which exact estimation is cheap and avoids the sketch
/// error that would blur the very tail the paper cares about.
///
/// # Examples
///
/// ```
/// use adsim_stats::{LatencyRecorder, Quantile};
///
/// let mut rec = LatencyRecorder::new();
/// rec.extend((1..=100).map(|i| i as f64));
/// assert_eq!(rec.len(), 100);
/// assert!((rec.quantile(Quantile::P50) - 50.5).abs() < 1.0);
/// assert_eq!(rec.quantile(Quantile::Max), 100.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples: Vec<f64>,
    sorted: bool,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty recorder with space for `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            samples: Vec::with_capacity(capacity),
            sorted: true,
        }
    }

    /// Records one latency sample in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `latency_ms` is not finite or is negative — a latency
    /// can never be either, so this always indicates a harness bug.
    pub fn record(&mut self, latency_ms: f64) {
        assert!(
            latency_ms.is_finite() && latency_ms >= 0.0,
            "latency sample must be finite and non-negative, got {latency_ms}"
        );
        self.samples.push(latency_ms);
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean of the samples, or 0 for an empty recorder.
    pub(crate) fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Smallest recorded sample, or 0 for an empty recorder.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest recorded sample, or 0 for an empty recorder.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Exact quantile with linear interpolation between adjacent order
    /// statistics, or 0 for an empty recorder.
    pub fn quantile(&mut self, q: Quantile) -> f64 {
        self.quantile_fraction(q.fraction())
    }

    /// Exact quantile at an arbitrary fraction in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn quantile_fraction(&mut self, fraction: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "quantile fraction must be in [0, 1], got {fraction}"
        );
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = fraction * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            self.samples[lo]
        } else {
            let w = rank - lo as f64;
            self.samples[lo] * (1.0 - w) + self.samples[hi] * w
        }
    }

    /// Summary of mean and the paper's standard quantiles.
    pub fn summary(&self) -> LatencySummary {
        let mut this = self.clone();
        LatencySummary {
            count: this.len(),
            mean: this.mean(),
            p50: this.quantile(Quantile::P50),
            p95: this.quantile(Quantile::P95),
            p99: this.quantile(Quantile::P99),
            p99_9: this.quantile(Quantile::P99_9),
            p99_99: this.quantile(Quantile::P99_99),
            max: this.max(),
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
            self.sorted = true;
        }
    }
}

impl Extend<f64> for LatencyRecorder {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<f64> for LatencyRecorder {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut rec = LatencyRecorder::new();
        rec.extend(iter);
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_reports_zeroes() {
        let mut rec = LatencyRecorder::new();
        assert!(rec.is_empty());
        assert_eq!(rec.mean(), 0.0);
        assert_eq!(rec.quantile(Quantile::P99_99), 0.0);
        assert_eq!(rec.max(), 0.0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut rec = LatencyRecorder::new();
        rec.record(42.0);
        for q in Quantile::all() {
            assert_eq!(rec.quantile(q), 42.0);
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let mut rec: LatencyRecorder = [0.0, 10.0].into_iter().collect();
        assert_eq!(rec.quantile(Quantile::P50), 5.0);
        assert_eq!(rec.quantile_fraction(0.25), 2.5);
    }

    #[test]
    fn mean_and_extremes() {
        let rec: LatencyRecorder = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(rec.mean(), 2.5);
        assert_eq!(rec.min(), 1.0);
        assert_eq!(rec.max(), 4.0);
    }

    #[test]
    fn tail_exceeds_median_for_skewed_data() {
        let mut rec = LatencyRecorder::with_capacity(10_000);
        rec.extend((0..9_999).map(|_| 10.0));
        rec.record(500.0);
        assert!(rec.quantile(Quantile::P99_99) > rec.quantile(Quantile::P50));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        LatencyRecorder::new().record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative() {
        LatencyRecorder::new().record(-1.0);
    }

    #[test]
    fn summary_is_internally_consistent() {
        let rec: LatencyRecorder = (1..=1000).map(|i| i as f64).collect();
        let s = rec.summary();
        assert_eq!(s.count, 1000);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.p99_99);
        assert!(s.p99_99 <= s.max);
    }
}
