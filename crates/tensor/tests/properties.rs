//! Property tests of kernel algebraic identities, run on seeded
//! [`cases`](adsim_stats::rng::cases).

use adsim_stats::rng::cases;
use adsim_stats::Rng64;
use adsim_tensor::{ops, Tensor};

/// `n` values on a 0.01 grid in `[-10, 9.99]`.
fn vec_f32(rng: &mut Rng64, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.range_usize(0, 2000) as f32 / 100.0 - 10.0).collect()
}

/// `n` values on a 0.1 grid in `[-10, 9.9]`.
fn small_f32(rng: &mut Rng64, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.range_usize(0, 200) as f32 / 10.0 - 10.0).collect()
}

#[test]
fn linear_equals_matmul_against_transpose() {
    cases(64, |rng| {
        let w = vec_f32(rng, 3 * 5);
        let input = Tensor::from_vec([2, 5], vec_f32(rng, 2 * 5)).unwrap();
        let weight = Tensor::from_vec([3, 5], w.clone()).unwrap();
        let lin = ops::linear(&input, &weight, None).unwrap();
        // Build the transpose manually.
        let mut wt = vec![0.0; 15];
        for r in 0..3 {
            for c in 0..5 {
                wt[c * 3 + r] = w[r * 5 + c];
            }
        }
        let mm = ops::matmul(&input, &Tensor::from_vec([5, 3], wt).unwrap()).unwrap();
        for (a, b) in lin.iter().zip(mm.iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    });
}

#[test]
fn matmul_distributes_over_addition() {
    cases(64, |rng| {
        let a = Tensor::from_vec([2, 3], vec_f32(rng, 6)).unwrap();
        let b = Tensor::from_vec([3, 2], vec_f32(rng, 6)).unwrap();
        let c = Tensor::from_vec([3, 2], vec_f32(rng, 6)).unwrap();
        let lhs = ops::matmul(&a, &b.add(&c).unwrap()).unwrap();
        let rhs = ops::matmul(&a, &b).unwrap().add(&ops::matmul(&a, &c).unwrap()).unwrap();
        for (x, y) in lhs.iter().zip(rhs.iter()) {
            assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    });
}

#[test]
fn relu_is_idempotent() {
    cases(64, |rng| {
        let t = Tensor::from_vec([16], vec_f32(rng, 16)).unwrap();
        let once = ops::relu(&t);
        assert_eq!(once, ops::relu(&once));
    });
}

#[test]
fn avg_pool_preserves_mean_on_exact_tiling() {
    cases(64, |rng| {
        let t = Tensor::from_vec([1, 1, 4, 4], vec_f32(rng, 16)).unwrap();
        let p = ops::avg_pool2d(&t, 2, 2).unwrap();
        let mean_in = t.sum() / 16.0;
        let mean_out = p.sum() / 4.0;
        assert!((mean_in - mean_out).abs() < 1e-4, "{mean_in} vs {mean_out}");
    });
}

#[test]
fn batch_norm_with_identity_params_is_noop() {
    cases(64, |rng| {
        let t = Tensor::from_vec([1, 3, 2, 2], vec_f32(rng, 12)).unwrap();
        let gamma = Tensor::filled([3], 1.0);
        let beta = Tensor::zeros([3]);
        let mean = Tensor::zeros([3]);
        let var = Tensor::filled([3], 1.0);
        let out = ops::batch_norm(&t, &gamma, &beta, &mean, &var, 0.0).unwrap();
        for (a, b) in t.iter().zip(out.iter()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    });
}

#[test]
fn conv_is_linear_in_the_input() {
    cases(64, |rng| {
        let a = Tensor::from_vec([1, 1, 5, 5], vec_f32(rng, 25)).unwrap();
        let b = Tensor::from_vec([1, 1, 5, 5], vec_f32(rng, 25)).unwrap();
        let k = Tensor::from_vec([1, 1, 3, 3], vec_f32(rng, 9)).unwrap();
        let sum_then_conv = ops::conv2d(&a.add(&b).unwrap(), &k, None, 1, 1).unwrap();
        let conv_then_sum = ops::conv2d(&a, &k, None, 1, 1)
            .unwrap()
            .add(&ops::conv2d(&b, &k, None, 1, 1).unwrap())
            .unwrap();
        for (x, y) in sum_then_conv.iter().zip(conv_then_sum.iter()) {
            assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    });
}

#[test]
fn conv2d_im2col_matches_direct() {
    cases(64, |rng| {
        let mut dim = |lo, hi| rng.range_usize(lo, hi);
        let (n, c_in, c_out) = (dim(1, 3), dim(1, 4), dim(1, 4));
        let (h, w, k, stride, pad) = (dim(3, 8), dim(3, 8), dim(1, 4), dim(1, 3), dim(0, 2));
        // Values on a 0.02 grid in [0, 1.98].
        let mut next = || rng.range_usize(0, 100) as f32 / 50.0;
        let input = Tensor::from_fn([n, c_in, h, w], |_| next());
        let weight = Tensor::from_fn([c_out, c_in, k, k], |_| next());
        let fast = ops::conv2d(&input, &weight, None, stride, pad).unwrap();
        let slow = ops::conv2d_direct(&input, &weight, None, stride, pad).unwrap();
        assert_eq!(fast.shape(), slow.shape());
        for (a, b) in fast.iter().zip(slow.iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    });
}

#[test]
fn tensor_add_commutes() {
    cases(64, |rng| {
        let a = Tensor::from_vec([3, 4], small_f32(rng, 12)).unwrap();
        let b = Tensor::from_vec([3, 4], small_f32(rng, 12)).unwrap();
        assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
    });
}

#[test]
fn softmax_is_a_distribution() {
    cases(64, |rng| {
        let t = Tensor::from_vec([2, 4], small_f32(rng, 8)).unwrap();
        let s = ops::softmax(&t);
        for row in 0..2 {
            let sum: f32 = s.as_slice()[row * 4..(row + 1) * 4].iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {row} sums to {sum}");
        }
        assert!(s.iter().all(|&x| (0.0..=1.0).contains(&x)));
    });
}

#[test]
fn max_pool_output_bounded_by_input() {
    cases(64, |rng| {
        let v = small_f32(rng, 16);
        let t = Tensor::from_vec([1, 1, 4, 4], v.clone()).unwrap();
        let p = ops::max_pool2d(&t, 2, 2).unwrap();
        let max_in = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert!(p.iter().all(|&x| x <= max_in));
        assert!((p.max() - max_in).abs() < 1e-6, "global max survives pooling");
    });
}
