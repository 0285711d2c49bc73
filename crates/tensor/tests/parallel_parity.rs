//! Parity of the parallel kernels with their serial references.
//!
//! The worker-pool kernels (`matmul_with`, `conv2d_with`, …) must
//! produce the same numbers on every thread count — the runtime decides
//! *where* work runs, never *what* is computed. Each case here compares
//! 1-, 2- and many-thread runs against the serial kernel and, for
//! convolution, against the direct sextuple-loop reference.

use adsim_runtime::Runtime;
use adsim_tensor::{ops, Tensor};

const TOL: f32 = 1e-5;
const THREADS: [usize; 3] = [1, 2, 8];

/// Deterministic non-trivial fill: varied signs and magnitudes.
fn fill(shape: impl Into<adsim_tensor::Shape>) -> Tensor {
    let shape = shape.into();
    let n = shape.len();
    Tensor::from_vec(
        shape,
        (0..n)
            .map(|i| ((i * 2_654_435_761 % 1_000) as f32 / 500.0 - 1.0) * 0.7)
            .collect(),
    )
    .unwrap()
}

fn assert_close(a: &Tensor, b: &Tensor, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{ctx}: shapes differ");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            (x - y).abs() <= TOL,
            "{ctx}: element {i} differs: {x} vs {y}"
        );
    }
}

#[test]
fn matmul_parity_over_shapes_and_threads() {
    // Mixes of tiny, non-multiple-of-4, skinny and square shapes.
    let shapes = [
        (1usize, 1usize, 1usize),
        (4, 4, 4),
        (7, 5, 3),
        (13, 1, 9),
        (1, 17, 6),
        (32, 24, 16),
        (65, 33, 29),
    ];
    for (m, k, n) in shapes {
        let a = fill([m, k]);
        let b = fill([k, n]);
        let serial = ops::matmul(&a, &b).unwrap();
        for t in THREADS {
            let par = ops::matmul_with(&Runtime::new(t), &a, &b).unwrap();
            assert_close(&par, &serial, &format!("matmul {m}x{k}x{n} threads={t}"));
        }
    }
}

#[test]
fn matmul_parity_on_degenerate_shapes() {
    // `Shape` rejects zero extents, so the smallest legal operands are
    // single-element; every dimension takes a turn at 1.
    for (m, k, n) in [(1usize, 3usize, 4usize), (3, 1, 4), (3, 4, 1), (1, 1, 1)] {
        let a = fill([m, k]);
        let b = fill([k, n]);
        let serial = ops::matmul(&a, &b).unwrap();
        for t in THREADS {
            let par = ops::matmul_with(&Runtime::new(t), &a, &b).unwrap();
            assert_eq!(par, serial, "degenerate matmul {m}x{k}x{n} threads={t}");
        }
    }
}

#[test]
fn conv2d_parity_over_geometry_grid() {
    // (n, c_in, h, w, c_out, kernel, stride, pad) — covers batch
    // parallelism, channel-tile parallelism, strides and padding.
    let cases = [
        (1usize, 1usize, 5usize, 5usize, 1usize, 3usize, 1usize, 0usize),
        (1, 3, 8, 6, 4, 3, 1, 1),
        (2, 2, 7, 7, 3, 3, 2, 1),
        (4, 3, 9, 9, 5, 3, 1, 1),
        (8, 1, 6, 6, 2, 2, 2, 0),
        (3, 4, 10, 8, 6, 5, 2, 2),
        (1, 8, 12, 12, 8, 1, 1, 0),
        // More output positions than one column panel, cut mid-row.
        (1, 3, 37, 41, 4, 3, 1, 1),
        (2, 4, 45, 39, 3, 5, 2, 2),
    ];
    for (n, c_in, h, w, c_out, kk, stride, pad) in cases {
        let input = fill([n, c_in, h, w]);
        let weight = fill([c_out, c_in, kk, kk]);
        let bias = fill([c_out]);
        let ctx = format!("conv {n}x{c_in}x{h}x{w} k{kk} s{stride} p{pad}");
        let direct = ops::conv2d_direct(&input, &weight, Some(&bias), stride, pad).unwrap();
        let serial = ops::conv2d(&input, &weight, Some(&bias), stride, pad).unwrap();
        assert_close(&serial, &direct, &format!("{ctx} serial-vs-direct"));
        for t in THREADS {
            let par =
                ops::conv2d_with(&Runtime::new(t), &input, &weight, Some(&bias), stride, pad)
                    .unwrap();
            assert_close(&par, &serial, &format!("{ctx} threads={t}"));
            assert_close(&par, &direct, &format!("{ctx} threads={t} vs direct"));
        }
    }
}

#[test]
fn conv2d_parity_without_bias_and_degenerate_batch() {
    let input = fill([1, 2, 4, 4]);
    let weight = fill([3, 2, 2, 2]);
    let serial = ops::conv2d(&input, &weight, None, 1, 0).unwrap();
    for t in THREADS {
        let par = ops::conv2d_with(&Runtime::new(t), &input, &weight, None, 1, 0).unwrap();
        assert_close(&par, &serial, &format!("no-bias conv threads={t}"));
    }
    // Minimal geometry: 1x1 kernel over a 1x1 image, single channel.
    let tiny_in = fill([1, 1, 1, 1]);
    let tiny_w = fill([1, 1, 1, 1]);
    let tiny = ops::conv2d(&tiny_in, &tiny_w, None, 1, 0).unwrap();
    for t in THREADS {
        assert_eq!(
            ops::conv2d_with(&Runtime::new(t), &tiny_in, &tiny_w, None, 1, 0).unwrap(),
            tiny
        );
    }
}

#[test]
fn linear_parity_over_batch_shapes() {
    for (batch, in_f, out_f) in [(1usize, 40usize, 30usize), (6, 11, 17), (16, 8, 4), (1, 1, 1)] {
        let x = fill([batch, in_f]);
        let w = fill([out_f, in_f]);
        let b = fill([out_f]);
        let serial = ops::linear(&x, &w, Some(&b)).unwrap();
        for t in THREADS {
            let par = ops::linear_with(&Runtime::new(t), &x, &w, Some(&b)).unwrap();
            assert_close(&par, &serial, &format!("linear {batch}x{in_f}x{out_f} threads={t}"));
        }
    }
}

#[test]
fn pool_and_activation_parity() {
    let t = fill([2, 4, 8, 8]);
    let serial_max = ops::max_pool2d(&t, 2, 2).unwrap();
    let serial_avg = ops::avg_pool2d(&t, 3, 1).unwrap();
    let serial_soft = ops::softmax(&t.reshape([8, 64]).unwrap());
    for threads in THREADS {
        let rt = Runtime::new(threads);
        assert_eq!(ops::max_pool2d_with(&rt, &t, 2, 2).unwrap(), serial_max);
        assert_eq!(ops::avg_pool2d_with(&rt, &t, 3, 1).unwrap(), serial_avg);
        assert_eq!(ops::relu_with(&rt, &t), ops::relu(&t));
        assert_eq!(ops::leaky_relu_with(&rt, &t, 0.1), ops::leaky_relu(&t, 0.1));
        assert_close(
            &ops::softmax_with(&rt, &t.reshape([8, 64]).unwrap()),
            &serial_soft,
            &format!("softmax threads={threads}"),
        );
    }
}
