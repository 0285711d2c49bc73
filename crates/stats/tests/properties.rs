//! Property tests of quantile estimation, run on seeded
//! [`cases`](adsim_stats::rng::cases).

use std::ops::Range;

use adsim_stats::rng::cases;
use adsim_stats::{LatencyRecorder, Quantile, Rng64};

/// `len` uniform samples in `[0, hi)`, with `len` drawn from `len`.
fn samples(rng: &mut Rng64, len: Range<usize>, hi: f64) -> Vec<f64> {
    let n = rng.range_usize(len.start, len.end);
    (0..n).map(|_| rng.range_f64(0.0, hi)).collect()
}

#[test]
fn summary_is_ordered() {
    let check = |samples: Vec<f64>| {
        let mut rec: LatencyRecorder = samples.into_iter().collect();
        let s = rec.summary();
        assert!(s.p50 <= s.p95 + 1e-12);
        assert!(s.p95 <= s.p99 + 1e-12);
        assert!(s.p99 <= s.p99_9 + 1e-12);
        assert!(s.p99_9 <= s.p99_99 + 1e-12);
        assert!(s.p99_99 <= s.max + 1e-12);
        assert!(s.mean >= rec.min() && s.mean <= rec.max());
        let mut last = 0.0;
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let v = rec.quantile_fraction(q);
            assert!(v >= last - 1e-9, "quantile({q}) = {v} < {last}");
            last = v;
        }
        assert!((rec.quantile_fraction(1.0) - rec.max()).abs() < 1e-9);
    };
    cases(128, |rng| check(samples(rng, 1..300, 10_000.0)));
    cases(64, |rng| check(samples(rng, 2..200, 1_000.0)));
}

#[test]
fn quantiles_are_within_sample_range() {
    cases(128, |rng| {
        let mut rec: LatencyRecorder = samples(rng, 1..100, 1e6).into_iter().collect();
        for q in Quantile::all() {
            let v = rec.quantile(q);
            assert!(v >= rec.min() && v <= rec.max());
        }
    });
}

#[test]
fn insertion_order_is_irrelevant() {
    let check = |mut samples: Vec<f64>| {
        let a: LatencyRecorder = samples.iter().copied().collect();
        samples.reverse();
        let b: LatencyRecorder = samples.into_iter().collect();
        let (sa, sb) = (a.summary(), b.summary());
        // Quantiles are exact order statistics; the mean differs only
        // by floating-point summation order.
        assert_eq!(sa.p50, sb.p50);
        assert_eq!(sa.p99_99, sb.p99_99);
        assert_eq!(sa.max, sb.max);
        assert!((sa.mean - sb.mean).abs() < 1e-9);
    };
    // A minimal input this property once failed on, kept as a fixed
    // regression case.
    check(vec![
        0.0,
        0.0,
        18.9002580220727,
        19.016914302888527,
        0.0,
        0.0,
        0.0,
        9.6908422927849,
        0.0,
        70.73927001358297,
        0.0,
        0.0,
        74.8276636253649,
        79.8641624332971,
        38.66730995445292,
        19.299671671435792,
    ]);
    cases(128, |rng| check(samples(rng, 2..100, 100.0)));
}

#[test]
fn histogram_conserves_samples() {
    cases(128, |rng| {
        let samples = samples(rng, 0..200, 50.0);
        let bins = rng.range_usize(1, 16);
        let rec: LatencyRecorder = samples.iter().copied().collect();
        let h = rec.histogram(bins);
        assert_eq!(h.total(), samples.len());
        let counted: usize = h.bins().iter().map(|b| b.count).sum();
        assert_eq!(counted, samples.len());
    });
}
