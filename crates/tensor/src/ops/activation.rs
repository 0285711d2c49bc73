use adsim_runtime::Runtime;

use crate::simd::{self, Isa};
use crate::Tensor;

/// Contiguous spans of elements for the worker pool: a few chunks per
/// worker so an uneven finisher cannot straggle the join.
fn elementwise_span(len: usize, threads: usize) -> usize {
    len.div_ceil(4 * threads).max(1)
}

/// Runs `kernel` over `t`'s elements in place, one contiguous span per
/// pool task. A uniquely-owned tensor is rewritten without a copy.
fn for_spans(rt: &Runtime, t: &mut Tensor, kernel: impl Fn(&mut [f32]) + Sync) {
    let rt = rt.for_work(t.len());
    let span = elementwise_span(t.len(), rt.threads());
    rt.par_chunks_mut(t.as_mut_slice(), span, |_, chunk| kernel(chunk));
}

/// Rectified linear unit: `max(0, x)` element-wise.
///
/// # Examples
///
/// ```
/// use adsim_tensor::{ops, Tensor};
///
/// let t = Tensor::from_vec([3], vec![-1.0, 0.0, 2.0]).unwrap();
/// assert_eq!(ops::relu(&t).as_slice(), &[0.0, 0.0, 2.0]);
/// ```
pub fn relu(t: &Tensor) -> Tensor {
    relu_with(&Runtime::serial(), t)
}

/// [`relu`] on a worker pool with the host's detected SIMD backend.
pub fn relu_with(rt: &Runtime, t: &Tensor) -> Tensor {
    relu_isa(rt, t, simd::active())
}

/// [`relu`] on a worker pool and an explicit SIMD backend. The kernel
/// is FMA-free, so every backend is bit-identical.
pub fn relu_isa(rt: &Runtime, t: &Tensor, isa: Isa) -> Tensor {
    let mut out = t.clone();
    for_spans(rt, &mut out, |chunk| simd::relu(isa, chunk));
    out
}

/// [`relu_with`] applied in place: a uniquely-owned tensor (a freshly
/// computed layer output) is rewritten without the copy that
/// [`relu_with`]'s clone-then-detach costs.
pub fn relu_inplace_with(rt: &Runtime, t: &mut Tensor) {
    let isa = simd::active();
    for_spans(rt, t, |chunk| simd::relu(isa, chunk));
}

/// Leaky ReLU with negative slope `alpha`, the activation YOLO uses
/// throughout its convolutional trunk.
pub fn leaky_relu(t: &Tensor, alpha: f32) -> Tensor {
    leaky_relu_with(&Runtime::serial(), t, alpha)
}

/// [`leaky_relu`] on a worker pool with the host's detected SIMD
/// backend.
pub fn leaky_relu_with(rt: &Runtime, t: &Tensor, alpha: f32) -> Tensor {
    leaky_relu_isa(rt, t, alpha, simd::active())
}

/// [`leaky_relu`] on a worker pool and an explicit SIMD backend. The
/// kernel is FMA-free, so every backend is bit-identical.
pub fn leaky_relu_isa(rt: &Runtime, t: &Tensor, alpha: f32, isa: Isa) -> Tensor {
    let mut out = t.clone();
    for_spans(rt, &mut out, |chunk| simd::leaky_relu(isa, chunk, alpha));
    out
}

/// [`leaky_relu_with`] applied in place (see [`relu_inplace_with`]).
pub fn leaky_relu_inplace_with(rt: &Runtime, t: &mut Tensor, alpha: f32) {
    let isa = simd::active();
    for_spans(rt, t, |chunk| simd::leaky_relu(isa, chunk, alpha));
}

/// Logistic sigmoid, used by the detection head to squash objectness
/// confidences into `[0, 1]`.
pub fn sigmoid(t: &Tensor) -> Tensor {
    t.map(|x| 1.0 / (1.0 + (-x).exp()))
}

/// [`sigmoid`] on a worker pool.
pub fn sigmoid_with(rt: &Runtime, t: &Tensor) -> Tensor {
    t.map_with(rt, |x| 1.0 / (1.0 + (-x).exp()))
}

/// Hyperbolic tangent on a worker pool.
pub fn tanh_with(rt: &Runtime, t: &Tensor) -> Tensor {
    t.map_with(rt, f32::tanh)
}

/// Softmax along the final axis, used to turn class scores into a
/// distribution over the four object categories the paper cares about.
///
/// Numerically stabilized by subtracting the row maximum.
pub fn softmax(t: &Tensor) -> Tensor {
    softmax_with(&Runtime::serial(), t)
}

/// [`softmax`] on a worker pool: rows normalize independently.
pub fn softmax_with(rt: &Runtime, t: &Tensor) -> Tensor {
    let rank = t.shape().rank();
    let last = t.shape().dim(rank - 1);
    let mut out = t.clone();
    if last == 0 {
        return out;
    }
    let rt = rt.for_work(3 * t.len());
    rt.par_chunks_mut(out.as_mut_slice(), last, |_, row| {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serial reference for [`tanh_with`].
    fn tanh(t: &Tensor) -> Tensor {
        t.map(f32::tanh)
    }

    #[test]
    fn relu_clamps_negatives_only() {
        let t = Tensor::from_vec([4], vec![-5.0, -0.1, 0.1, 5.0]).unwrap();
        assert_eq!(relu(&t).as_slice(), &[0.0, 0.0, 0.1, 5.0]);
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        let t = Tensor::from_vec([2], vec![-10.0, 10.0]).unwrap();
        assert_eq!(leaky_relu(&t, 0.1).as_slice(), &[-1.0, 10.0]);
    }

    #[test]
    fn sigmoid_range_and_symmetry() {
        let t = Tensor::from_vec([3], vec![-100.0, 0.0, 100.0]).unwrap();
        let s = sigmoid(&t);
        assert!(s.as_slice()[0] < 1e-6);
        assert!((s.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(s.as_slice()[2] > 1.0 - 1e-6);
    }

    #[test]
    fn tanh_is_odd() {
        let t = Tensor::from_vec([2], vec![-1.0, 1.0]).unwrap();
        let y = tanh(&t);
        assert!((y.as_slice()[0] + y.as_slice()[1]).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let s = softmax(&t);
        for r in 0..2 {
            let sum: f32 = s.as_slice()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Largest logit keeps the largest probability.
        assert_eq!(
            s.as_slice()[..3]
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0,
            2
        );
    }

    #[test]
    fn parallel_activations_match_serial() {
        let t = Tensor::from_vec(
            [3, 7],
            (0..21).map(|i| (i as f32 - 10.0) * 0.3).collect(),
        )
        .unwrap();
        let rt = Runtime::new(4);
        assert_eq!(relu_with(&rt, &t), relu(&t));
        assert_eq!(leaky_relu_with(&rt, &t, 0.1), leaky_relu(&t, 0.1));
        assert_eq!(sigmoid_with(&rt, &t), sigmoid(&t));
        assert_eq!(tanh_with(&rt, &t), tanh(&t));
    }

    #[test]
    fn inplace_activations_match_and_reuse_owned_storage() {
        let data: Vec<f32> = (0..21).map(|i| (i as f32 - 10.0) * 0.3).collect();
        let t = Tensor::from_vec([3, 7], data.clone()).unwrap();
        let rt = Runtime::new(4);
        let mut owned = Tensor::from_vec([3, 7], data.clone()).unwrap();
        let storage = owned.storage_ptr();
        relu_inplace_with(&rt, &mut owned);
        assert_eq!(owned, relu(&t));
        assert_eq!(owned.storage_ptr(), storage, "uniquely owned: no copy");
        let mut owned = Tensor::from_vec([3, 7], data).unwrap();
        leaky_relu_inplace_with(&rt, &mut owned, 0.1);
        assert_eq!(owned, leaky_relu(&t, 0.1));
        // Shared storage still copies on write: the original is untouched.
        let mut shared = t.clone();
        relu_inplace_with(&rt, &mut shared);
        assert_eq!(shared, relu(&t));
        assert!(t.iter().any(|&v| v < 0.0));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let t = Tensor::from_vec([1, 2], vec![1000.0, 1000.0]).unwrap();
        let s = softmax(&t);
        assert!((s.as_slice()[0] - 0.5).abs() < 1e-6);
    }
}
