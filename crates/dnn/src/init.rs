use adsim_stats::Rng64;

/// Deterministic pseudo-random weight initializer.
///
/// The paper's characterization results depend on the *structure* of the
/// networks (shapes → FLOPs and bytes), not on trained weight values, so
/// the workspace initializes weights reproducibly from a seed. He-style
/// fan-in scaling keeps activations in a numerically sane range so the
/// functional pipeline (decode, NMS, regression) behaves like a real
/// network's plumbing.
///
/// # Examples
///
/// ```
/// use adsim_dnn::WeightInit;
///
/// let mut a = WeightInit::new(42);
/// let mut b = WeightInit::new(42);
/// assert_eq!(a.uniform(16, 4), b.uniform(16, 4));
/// ```
#[derive(Debug)]
pub struct WeightInit {
    rng: Rng64,
}

impl WeightInit {
    /// Creates an initializer from a seed; equal seeds yield equal
    /// weight streams.
    pub fn new(seed: u64) -> Self {
        Self { rng: Rng64::new(seed) }
    }

    /// Draws `n` weights uniformly from `±sqrt(2 / fan_in)`.
    ///
    /// # Panics
    ///
    /// Panics if `fan_in` is zero.
    pub fn uniform(&mut self, n: usize, fan_in: usize) -> Vec<f32> {
        assert!(fan_in > 0, "fan_in must be positive");
        let bound = (2.0 / fan_in as f32).sqrt();
        (0..n).map(|_| self.rng.range_f32(-bound, bound)).collect()
    }

    /// Draws `n` small bias values uniformly from `±0.01`.
    pub(crate) fn bias(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.rng.range_f32(-0.01, 0.01)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = WeightInit::new(7);
        let mut b = WeightInit::new(7);
        assert_eq!(a.uniform(100, 9), b.uniform(100, 9));
        assert_eq!(a.bias(10), b.bias(10));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = WeightInit::new(1);
        let mut b = WeightInit::new(2);
        assert_ne!(a.uniform(100, 9), b.uniform(100, 9));
    }

    #[test]
    fn he_bound_scales_with_fan_in() {
        let mut w = WeightInit::new(3);
        let wide = w.uniform(1000, 4);
        let narrow = w.uniform(1000, 400);
        let max_wide = wide.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let max_narrow = narrow.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        assert!(max_wide > max_narrow);
        assert!(max_wide <= (2.0f32 / 4.0).sqrt());
    }

    #[test]
    #[should_panic(expected = "fan_in")]
    fn zero_fan_in_panics() {
        WeightInit::new(0).uniform(1, 0);
    }
}
