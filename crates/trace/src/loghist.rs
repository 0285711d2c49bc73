/// Buckets per octave (power of two) of latency. Eight buckets per
/// octave gives a geometric bucket width of `2^(1/8) ≈ 1.0905` — every
/// reported quantile is within ±9.05% of the exact sample value, far
/// below the run-to-run variance of any wall-clock measurement, at a
/// fixed 2.4 KiB per tracked span name.
pub(crate) const BUCKETS_PER_OCTAVE: usize = 8;

/// Smallest representable latency (ms): one nanosecond. Anything
/// smaller clamps into the first bucket.
const MIN_MS: f64 = 1e-6;

/// Octaves covered: `1 ns × 2^38 ≈ 275 s`, comfortably past any
/// single-frame latency this workspace can produce.
const OCTAVES: usize = 38;

/// Total bucket count (fixed memory).
const N_BUCKETS: usize = OCTAVES * BUCKETS_PER_OCTAVE;

/// A fixed-memory log-bucketed latency histogram.
///
/// The streaming counterpart of `adsim_stats::LatencyRecorder`: instead
/// of retaining every sample for exact order statistics, samples land
/// in geometrically spaced buckets, so memory is constant regardless of
/// run length and quantiles carry a bounded relative error of one
/// bucket width (`2^(1/8)`). The paper's headline metric is the
/// 99.99th percentile — a statistic that needs either every sample or
/// a sketch like this one; the agreement between the two is pinned by
/// the cross-validation tests.
///
/// # Examples
///
/// ```
/// use adsim_trace::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for i in 1..=1000 {
///     h.record(i as f64 / 10.0); // 0.1 .. 100.0 ms
/// }
/// let p50 = h.quantile(0.50);
/// assert!((p50 / 50.05 - 1.0).abs() < 0.10, "p50 {p50}");
/// assert_eq!(h.count(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; N_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The geometric growth factor between adjacent bucket boundaries —
    /// the histogram's relative error bound.
    pub fn bucket_growth() -> f64 {
        2f64.powf(1.0 / BUCKETS_PER_OCTAVE as f64)
    }

    fn bucket_of(ms: f64) -> usize {
        if ms <= MIN_MS {
            return 0;
        }
        let b = ((ms / MIN_MS).log2() * BUCKETS_PER_OCTAVE as f64).floor();
        (b as usize).min(N_BUCKETS - 1)
    }

    /// Geometric midpoint of a bucket (the value reported for
    /// quantiles landing in it).
    fn bucket_mid(bucket: usize) -> f64 {
        let g = Self::bucket_growth();
        MIN_MS * g.powi(bucket as i32) * g.sqrt()
    }

    /// Records one latency sample (ms). Non-finite and negative
    /// samples are rejected with a panic — a latency can be neither, so
    /// this always flags an instrumentation bug.
    pub fn record(&mut self, ms: f64) {
        assert!(ms.is_finite() && ms >= 0.0, "latency sample must be finite and >= 0, got {ms}");
        self.counts[Self::bucket_of(ms)] += 1;
        self.count += 1;
        self.sum += ms;
        self.min = self.min.min(ms);
        self.max = self.max.max(ms);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (ms).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (exact — the sum is tracked outside the
    /// buckets), or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (exact), or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (exact), or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Estimated quantile at `fraction` in `[0, 1]`: the geometric
    /// midpoint of the bucket holding the corresponding order
    /// statistic, clamped to the exactly-tracked `[min, max]` range.
    /// Within one bucket width (`2^(1/8)`) of the exact quantile.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn quantile(&self, fraction: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "quantile fraction must be in [0, 1], got {fraction}"
        );
        if self.count == 0 {
            return 0.0;
        }
        // Same rank convention as LatencyRecorder::quantile_fraction
        // (fraction over n-1), without the interpolation.
        let rank = (fraction * (self.count - 1) as f64).round() as u64;
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum > rank {
                return Self::bucket_mid(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = LogHistogram::new();
        h.record(42.0);
        for q in [0.0, 0.5, 0.99, 0.9999, 1.0] {
            // Clamping to [min, max] makes a singleton exact.
            assert_eq!(h.quantile(q), 42.0);
        }
        assert_eq!(h.mean(), 42.0);
    }

    #[test]
    fn quantiles_are_within_one_bucket_of_exact() {
        let samples: Vec<f64> = (1..=10_000).map(|i| i as f64 * 0.01).collect();
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let g = LogHistogram::bucket_growth();
        for (q, exact) in [(0.5, 50.0), (0.99, 99.0), (0.9999, 99.99)] {
            let est = h.quantile(q);
            assert!(
                est >= exact / g && est <= exact * g,
                "q={q}: est {est} vs exact {exact} (growth {g})"
            );
        }
    }

    #[test]
    fn zero_and_subnanosecond_samples_clamp_into_first_bucket() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(1e-9);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(1.0), 1e-9);
        assert_eq!(h.min(), 0.0);
    }

    #[test]
    fn huge_samples_clamp_into_last_bucket() {
        let mut h = LogHistogram::new();
        h.record(1e9);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), 1e9, "clamped to exact max");
    }

    #[test]
    fn merge_is_equivalent_to_recording_everything() {
        let (mut a, mut b, mut all) = (LogHistogram::new(), LogHistogram::new(), LogHistogram::new());
        for i in 1..=500 {
            let v = (i as f64).sqrt();
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        // Bucket counts, count, min and max merge exactly; the sum is a
        // float accumulated in a different order, so compare with slack.
        assert_eq!(a.counts, all.counts);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        assert!((a.sum() - all.sum()).abs() < 1e-9 * all.sum());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        LogHistogram::new().record(f64::NAN);
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut h = LogHistogram::new();
        for v in [1.0, 2.0, 3.0, 10.0] {
            h.record(v);
        }
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 10.0);
        assert_eq!(h.sum(), 16.0);
    }
}
