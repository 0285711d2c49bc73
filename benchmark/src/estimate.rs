//! The estimators behind every reported time.
//!
//! The build host is shared: interference arrives in phases that last
//! seconds to minutes (a whole pass runs 1.3-1.6x slow, the next runs
//! clean) and only ever adds time. So every statistic is computed per
//! pass and the best pass is reported: a pass is the unit that is
//! clean or not.

/// The `q`-quantile of each pass, then the least-perturbed pass.
pub fn best_pass_percentile(passes: &[Vec<f64>], q: f64) -> f64 {
    min(&passes.iter().map(|p| percentile(p, q)).collect::<Vec<_>>())
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The smallest sample; infinite for an empty slice.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// How many samples lie strictly beyond the `q`-quantile's rank. A
/// percentile is only worth reporting with at least ten.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// `(b - a) / a`, signed so that positive means `b` is *worse*.
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let rel = (b - a) / a;
    if higher_is_better {
        -rel
    } else {
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_pass_percentile_rejects_a_slow_pass_and_a_spiky_one() {
        let quiet: Vec<f64> = (1..=100).map(f64::from).collect();
        let slow: Vec<f64> = quiet.iter().map(|x| x * 1.4).collect();
        let mut spiky = quiet.clone();
        for x in spiky.iter_mut().skip(80) {
            *x *= 3.0;
        }
        let passes = [slow, quiet.clone(), spiky];
        assert_eq!(best_pass_percentile(&passes, 0.5), percentile(&quiet, 0.5));
        assert_eq!(best_pass_percentile(&passes, 0.9), percentile(&quiet, 0.9));
        assert_eq!(
            best_pass_percentile(std::slice::from_ref(&quiet), 0.5),
            50.5
        );
    }

    #[test]
    fn percentile_interpolates_and_ignores_order() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn p90_needs_a_hundred_indices_for_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(10, 0.9), 1);
        assert_eq!(samples_beyond(100, 0.5), 50);
        assert_eq!(samples_beyond(0, 0.9), 0);
        assert!(samples_beyond(crate::catalog::VEHICLE_FRAMES, 0.9) >= 10);
    }

    #[test]
    fn worsening_is_positive_when_the_second_value_is_worse() {
        assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, false), 0.0);
    }

    #[test]
    fn min_and_mean() {
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
