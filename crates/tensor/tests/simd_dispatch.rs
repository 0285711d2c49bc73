//! SIMD-vs-scalar parity and dispatch coverage.
//!
//! Every kernel is exercised on **both** the detected backend
//! (`simd::active()`) and the portable scalar backend (`Isa::SCALAR`,
//! invoked directly through the `_isa` entry points — not via the
//! `force-scalar` feature) in one run, so CI on any host covers both
//! paths. The contract under test is the crate's numerics policy:
//!
//! * FMA-free kernels (relu, leaky-relu, pooling, batch-norm, conv
//!   bias) are **bit-identical** across backends;
//! * the FMA-contracted GEMM kernels (matmul, conv2d, linear) agree
//!   with scalar to ≤1e-5 **relative** error;
//! * for a fixed backend, every kernel is bit-identical across
//!   1/2/8-thread runtimes.
//!
//! The GEMM, conv and Hamming tests add seeded random shapes
//! ([`cases`]) to their fixed lists.

use adsim_runtime::Runtime;
use adsim_stats::rng::cases;
use adsim_stats::Rng64;
use adsim_tensor::simd::{self, Isa};
use adsim_tensor::{ops, Tensor};

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

/// Uniform values in `[-0.7, 0.7)`, the same span as [`fill`].
fn random(shape: impl Into<adsim_tensor::Shape>, rng: &mut Rng64) -> Tensor {
    Tensor::from_fn(shape, |_| rng.range_f32(-0.7, 0.7))
}

/// A random GEMM shape: m < 40, k < 600, n < 70.
fn random_mkn(rng: &mut Rng64) -> (usize, usize, usize) {
    (rng.range_usize(1, 40), rng.range_usize(1, 600), rng.range_usize(1, 70))
}

fn assert_rel_close(a: &Tensor, b: &Tensor, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{ctx}: shapes differ");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            (x - y).abs() <= 1e-5 * y.abs().max(1.0),
            "{ctx}: element {i} differs: {x} vs {y}"
        );
    }
}

fn assert_bits_equal(a: &Tensor, b: &Tensor, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{ctx}: shapes differ");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {i}: {x} vs {y}");
    }
}

#[test]
fn dispatch_reports_both_paths() {
    let active = simd::active();
    // With force-scalar the probe must be pinned to the fallback;
    // without it the probe may be either, but SCALAR is constructible
    // and callable everywhere.
    if cfg!(feature = "force-scalar") {
        assert!(active.is_scalar(), "force-scalar must pin the fallback");
    }
    assert!(Isa::SCALAR.is_scalar());
    assert_ne!(Isa::SCALAR.name(), "");
    assert_ne!(active.name(), "");
}

#[test]
fn matmul_simd_matches_scalar_within_fma_tolerance() {
    let check = |a: &Tensor, b: &Tensor| {
        let (m, k, n) = (a.shape().dim(0), a.shape().dim(1), b.shape().dim(1));
        let scalar = ops::matmul_isa(&Runtime::serial(), a, b, Isa::SCALAR).unwrap();
        for t in THREADS {
            let rt = Runtime::new(t);
            let vec = ops::matmul_isa(&rt, a, b, simd::active()).unwrap();
            assert_rel_close(&vec, &scalar, &format!("matmul {m}x{k}x{n} t={t}"));
            let sc = ops::matmul_isa(&rt, a, b, Isa::SCALAR).unwrap();
            assert_bits_equal(&sc, &scalar, &format!("scalar matmul {m}x{k}x{n} t={t}"));
        }
    };
    // Non-multiple-of-4 rows, non-multiple-of-16 columns, and a
    // k larger than one 256-row panel.
    for (m, k, n) in [(1, 1, 1), (4, 8, 16), (7, 300, 23), (33, 65, 40)] {
        check(&fill([m, k]), &fill([k, n]));
    }
    cases(32, |rng| {
        let (m, k, n) = random_mkn(rng);
        check(&random([m, k], rng), &random([k, n], rng));
    });
}

#[test]
fn linear_simd_matches_scalar_within_fma_tolerance() {
    let x = fill([3, 70]);
    let w = fill([19, 70]);
    let bias = fill([19]);
    let scalar = ops::linear_isa(&Runtime::serial(), &x, &w, Some(&bias), Isa::SCALAR).unwrap();
    for t in THREADS {
        let rt = Runtime::new(t);
        let vec = ops::linear_isa(&rt, &x, &w, Some(&bias), simd::active()).unwrap();
        assert_rel_close(&vec, &scalar, &format!("linear t={t}"));
        let sc = ops::linear_isa(&rt, &x, &w, Some(&bias), Isa::SCALAR).unwrap();
        assert_bits_equal(&sc, &scalar, &format!("scalar linear t={t}"));
    }
}

#[test]
fn conv2d_simd_matches_scalar_within_fma_tolerance() {
    let check = |input: &Tensor, weight: &Tensor, bias: &Tensor, stride: usize, pad: usize| {
        let conv = |rt: &Runtime, isa: Isa| {
            ops::conv2d_isa(rt, input, weight, Some(bias), stride, pad, isa).unwrap()
        };
        let shapes = format!("{:?} * {:?}", input.shape().dims(), weight.shape().dims());
        let scalar = conv(&Runtime::serial(), Isa::SCALAR);
        for t in THREADS {
            let rt = Runtime::new(t);
            let ctx = format!("conv {shapes} s={stride} p={pad} t={t}");
            assert_rel_close(&conv(&rt, simd::active()), &scalar, &ctx);
            assert_bits_equal(&conv(&rt, Isa::SCALAR), &scalar, &format!("scalar {ctx}"));
        }
    };
    let (input, weight, bias) = (fill([2, 3, 13, 17]), fill([5, 3, 3, 3]), fill([5]));
    for (stride, pad) in [(1, 1), (2, 0)] {
        check(&input, &weight, &bias, stride, pad);
    }
    // Batch ≤ 2, c_in ≤ 4, c_out ≤ 9, kernel ≤ 5, stride 1–2, pad 0–2;
    // the padded input always holds one kernel window.
    cases(32, |rng| {
        let mut dim = |lo, hi| rng.range_usize(lo, hi);
        let (n, c_in, c_out) = (dim(1, 3), dim(1, 5), dim(1, 10));
        let (kk, stride, pad) = (dim(1, 6), dim(1, 3), dim(0, 3));
        let min_extent = kk.saturating_sub(2 * pad).max(1);
        let (h, w) = (dim(min_extent, 25), dim(min_extent, 25));
        let input = random([n, c_in, h, w], rng);
        let weight = random([c_out, c_in, kk, kk], rng);
        check(&input, &weight, &random([c_out], rng), stride, pad);
    });
}

#[test]
fn activations_are_bit_identical_across_backends() {
    // Length not a multiple of 8 exercises the scalar tails.
    let t = fill([3, 7, 11]);
    let scalar_relu = ops::relu_isa(&Runtime::serial(), &t, Isa::SCALAR);
    let scalar_leaky = ops::leaky_relu_isa(&Runtime::serial(), &t, 0.1, Isa::SCALAR);
    for threads in THREADS {
        let rt = Runtime::new(threads);
        assert_bits_equal(
            &ops::relu_isa(&rt, &t, simd::active()),
            &scalar_relu,
            &format!("relu t={threads}"),
        );
        assert_bits_equal(
            &ops::leaky_relu_isa(&rt, &t, 0.1, simd::active()),
            &scalar_leaky,
            &format!("leaky_relu t={threads}"),
        );
    }
}

#[test]
fn pooling_is_bit_identical_across_backends() {
    let t = fill([2, 3, 19, 21]);
    for (window, stride) in [(2, 1), (3, 1), (2, 2), (3, 2), (3, 3), (2, 3)] {
        let max_s =
            ops::max_pool2d_isa(&Runtime::serial(), &t, window, stride, Isa::SCALAR).unwrap();
        let avg_s =
            ops::avg_pool2d_isa(&Runtime::serial(), &t, window, stride, Isa::SCALAR).unwrap();
        for threads in THREADS {
            let rt = Runtime::new(threads);
            assert_bits_equal(
                &ops::max_pool2d_isa(&rt, &t, window, stride, simd::active()).unwrap(),
                &max_s,
                &format!("max_pool w={window} s={stride} t={threads}"),
            );
            assert_bits_equal(
                &ops::avg_pool2d_isa(&rt, &t, window, stride, simd::active()).unwrap(),
                &avg_s,
                &format!("avg_pool w={window} s={stride} t={threads}"),
            );
        }
    }
}

#[test]
fn batch_norm_is_bit_identical_across_backends() {
    let x = fill([2, 5, 9, 13]);
    let gamma = fill([5]);
    let beta = fill([5]);
    let mean = fill([5]);
    let var = Tensor::from_vec([5], vec![0.5, 1.0, 2.0, 0.25, 4.0]).unwrap();
    let scalar = ops::batch_norm_isa(
        &Runtime::serial(),
        &x,
        &gamma,
        &beta,
        &mean,
        &var,
        1e-5,
        Isa::SCALAR,
    )
    .unwrap();
    // The _with entry must match the serial entry exactly too.
    let plain = ops::batch_norm(&x, &gamma, &beta, &mean, &var, 1e-5).unwrap();
    for threads in THREADS {
        let rt = Runtime::new(threads);
        let vec = ops::batch_norm_isa(&rt, &x, &gamma, &beta, &mean, &var, 1e-5, simd::active())
            .unwrap();
        assert_bits_equal(&vec, &scalar, &format!("batch_norm t={threads}"));
        assert_bits_equal(&vec, &plain, &format!("batch_norm vs plain t={threads}"));
    }
}

/// Deterministic int8 fill covering the full quantized range.
fn fill_i8(n: usize) -> Vec<i8> {
    (0..n)
        .map(|i| ((i * 2_654_435_761 % 255) as i32 - 127) as i8)
        .collect()
}

#[test]
fn matmul_i8_is_bit_identical_across_backends_and_threads() {
    // Integer accumulation is exact, so unlike the f32 GEMM the
    // contract here is bit-identity — across backends, thread counts
    // and tilings alike. Shapes cover the 16/8/scalar column tails,
    // odd k (the (a_k, 0) trailing pair), and k > one 256-row panel.
    let check = |a: &[i8], b: &[i8], (m, k, n): (usize, usize, usize)| {
        let matmul = |rt: &Runtime, isa: Isa| {
            let mut out = vec![0i32; m * n];
            ops::matmul_i8_into(rt, isa, a, b, &mut out, m, k, n);
            out
        };
        let scalar = matmul(&Runtime::serial(), Isa::SCALAR);
        for t in THREADS {
            let rt = Runtime::new(t);
            assert_eq!(matmul(&rt, simd::active()), scalar, "matmul_i8 {m}x{k}x{n} t={t}");
            assert_eq!(matmul(&rt, Isa::SCALAR), scalar, "scalar matmul_i8 {m}x{k}x{n} t={t}");
        }
    };
    for (m, k, n) in [(1, 1, 1), (4, 8, 16), (7, 301, 23), (33, 65, 40)] {
        check(&fill_i8(m * k), &fill_i8(k * n), (m, k, n));
    }
    cases(32, |rng| {
        let (m, k, n) = random_mkn(rng);
        let mut random_i8 = |len| -> Vec<i8> {
            (0..len).map(|_| (rng.range_usize(0, 255) as i32 - 127) as i8).collect()
        };
        let (a, b) = (random_i8(m * k), random_i8(k * n));
        check(&a, &b, (m, k, n));
    });
}

#[test]
fn conv2d_batch_of_n_matches_n_single_image_convs_bitwise() {
    // A batch is n times as many (image, panel) tasks; with the
    // mul_add_s tail policy an output element's value depends only on
    // its k-order, never its column position, so batch-N must be
    // bit-identical to N separate batch-1 calls — on every backend and
    // thread count.
    let n_imgs = 3;
    let input = fill([n_imgs, 3, 13, 17]);
    let weight = fill([5, 3, 3, 3]);
    let bias = fill([5]);
    let per_image_len = 3 * 13 * 17;
    for isa in [simd::active(), Isa::SCALAR] {
        for (stride, pad) in [(1, 1), (2, 0)] {
            for t in THREADS {
                let rt = Runtime::new(t);
                let batched =
                    ops::conv2d_isa(&rt, &input, &weight, Some(&bias), stride, pad, isa).unwrap();
                let (_, c_out, h_out, w_out) = batched.shape().as_nchw().unwrap();
                let out_len = c_out * h_out * w_out;
                for img in 0..n_imgs {
                    let single = Tensor::from_vec(
                        [1, 3, 13, 17],
                        input.as_slice()[img * per_image_len..][..per_image_len].to_vec(),
                    )
                    .unwrap();
                    let one =
                        ops::conv2d_isa(&rt, &single, &weight, Some(&bias), stride, pad, isa)
                            .unwrap();
                    let got = &batched.as_slice()[img * out_len..][..out_len];
                    for (i, (x, y)) in got.iter().zip(one.iter()).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "conv batch-parity img={img} elem={i} s={stride} p={pad} t={t} \
                             isa={}: {x} vs {y}",
                            isa.name()
                        );
                    }
                }
            }
        }
    }
}

/// The materialising lowering `conv2d_isa` replaced, rebuilt from
/// public pieces: appended im2col columns → one GEMM → per-channel
/// bias add → scatter into NCHW planes.
fn conv2d_via_im2col(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
    isa: Isa,
) -> Tensor {
    let (n, _, h, w) = input.shape().as_nchw().unwrap();
    let (c_out, c_in, kh, kw) = weight.shape().as_nchw().unwrap();
    let h_out = ops::out_extent(h, kh, stride, pad).unwrap();
    let w_out = ops::out_extent(w, kw, stride, pad).unwrap();
    let cols = ops::im2col_batched(input, kh, kw, stride, pad).unwrap();
    let total_cols = cols.shape().dim(1);
    let cols_n = total_cols / n;
    let w2 = weight.reshape([c_out, c_in * kh * kw]).unwrap();
    let prod = ops::matmul_isa(&Runtime::serial(), &w2, &cols, isa).unwrap();
    let mut out = vec![0.0f32; n * c_out * cols_n];
    for b in 0..n {
        for oc in 0..c_out {
            let src = &prod.as_slice()[oc * total_cols + b * cols_n..][..cols_n];
            let dst = &mut out[(b * c_out + oc) * cols_n..][..cols_n];
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = v + bias.as_slice()[oc];
            }
        }
    }
    Tensor::from_vec([n, c_out, h_out, w_out], out).unwrap()
}

#[test]
fn conv2d_is_bit_identical_to_the_materialised_im2col_gemm() {
    // The k-order contract: every output element is one FMA chain over
    // k from zero with the bias added afterwards, whatever the panel
    // width, thread count or batch. Panel width NC is the widest
    // multiple of 16 with 4·k·NC ≤ 128 KiB, so the grid is chosen
    // around it. (c_in, h, w, kernel, stride, pad):
    let cases = [
        (3usize, 37usize, 41usize, 3usize, 1usize, 1usize), // k=27, NC=1200 < 1517 cols, mid-row
        (32, 13, 17, 3, 1, 1), // k=288 crosses a k-panel; NC=112, 221 cols
        (4, 23, 19, 5, 1, 2),  // 5x5; NC=320 < 437 cols
        (4, 23, 19, 5, 2, 2),  // 5x5 stride 2
        (8, 70, 61, 1, 1, 0),  // 1x1; NC=4096 < 4270 cols
        (2, 9, 5, 1, 1, 2),    // pad ≥ kernel, w_out = 9 < 16
        (3, 11, 7, 3, 2, 0),   // stride 2, pad 0, w_out = 3
        (3, 11, 7, 3, 2, 1),
        (3, 11, 7, 3, 2, 2),
        (40, 20, 20, 3, 2, 1), // k=360, NC=80 < 100 cols, stride 2
    ];
    for (c_in, h, w, kk, stride, pad) in cases {
        for c_out in [1, 3, 4, 9] {
            let weight = fill([c_out, c_in, kk, kk]);
            let bias = fill([c_out]);
            for n in [1, 3] {
                let input = fill([n, c_in, h, w]);
                for isa in [simd::active(), Isa::SCALAR] {
                    let want = conv2d_via_im2col(&input, &weight, &bias, stride, pad, isa);
                    for t in THREADS {
                        let got = ops::conv2d_isa(
                            &Runtime::new(t),
                            &input,
                            &weight,
                            Some(&bias),
                            stride,
                            pad,
                            isa,
                        )
                        .unwrap();
                        let name = isa.name();
                        let ctx = format!(
                            "conv {n}x{c_in}x{h}x{w}->{c_out} k{kk} s{stride} p{pad} t={t} {name}"
                        );
                        assert_bits_equal(&got, &want, &ctx);
                    }
                }
            }
        }
    }
}

#[test]
fn strided_max_pool_matches_the_per_element_scan_bitwise() {
    // Reference: the scalar (ky, kx) scan the vector path replaced.
    // Extents chosen so windows do not divide them.
    for (h, w) in [(19usize, 21usize), (8, 8), (7, 33), (3, 3)] {
        let t = fill([2, 3, h, w]);
        for (window, stride) in [(2usize, 2usize), (3, 2), (3, 3), (2, 3)] {
            let (h_out, w_out) = ((h - window) / stride + 1, (w - window) / stride + 1);
            let mut want = Vec::with_capacity(6 * h_out * w_out);
            for plane in t.as_slice().chunks(h * w) {
                for oy in 0..h_out {
                    for ox in 0..w_out {
                        let mut acc = f32::NEG_INFINITY;
                        for ky in 0..window {
                            for kx in 0..window {
                                acc = acc.max(plane[(oy * stride + ky) * w + ox * stride + kx]);
                            }
                        }
                        want.push(acc);
                    }
                }
            }
            let want = Tensor::from_vec([2, 3, h_out, w_out], want).unwrap();
            for isa in [simd::active(), Isa::SCALAR] {
                for threads in THREADS {
                    let got =
                        ops::max_pool2d_isa(&Runtime::new(threads), &t, window, stride, isa)
                            .unwrap();
                    assert_bits_equal(
                        &got,
                        &want,
                        &format!("max_pool {h}x{w} w={window} s={stride} t={threads}"),
                    );
                }
            }
        }
    }
}

#[test]
fn im2col_matches_a_per_element_gather() {
    // im2col now copies whole in-bounds runs and writes padding as
    // explicit zeros; pin it to the obvious per-tap gather.
    let cases = [
        (2usize, 6usize, 7usize, 3usize, 1usize, 1usize),
        (3, 9, 5, 1, 1, 2),
        (2, 11, 7, 3, 2, 2),
        (1, 8, 9, 5, 2, 0),
    ];
    for (c_in, h, w, kk, stride, pad) in cases {
        let input = fill([2, c_in, h, w]);
        let cols = ops::im2col_batched(&input, kk, kk, stride, pad).unwrap();
        let h_out = (h + 2 * pad - kk) / stride + 1;
        let w_out = (w + 2 * pad - kk) / stride + 1;
        let total = 2 * h_out * w_out;
        assert_eq!(cols.shape().dims(), &[c_in * kk * kk, total]);
        for b in 0..2 {
            for ic in 0..c_in {
                for ky in 0..kk {
                    for kx in 0..kk {
                        let row = (ic * kk + ky) * kk + kx;
                        for oy in 0..h_out {
                            for ox in 0..w_out {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                let inside =
                                    iy >= 0 && ix >= 0 && iy < h as isize && ix < w as isize;
                                let want = if inside {
                                    input.at(&[b, ic, iy as usize, ix as usize])
                                } else {
                                    0.0
                                };
                                let col = b * h_out * w_out + oy * w_out + ox;
                                assert_eq!(
                                    cols.as_slice()[row * total + col].to_bits(),
                                    want.to_bits(),
                                    "k{kk} s{stride} p{pad} b={b} row={row} oy={oy} ox={ox}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn im2col_batched_stacks_per_image_columns() {
    let input = fill([2, 2, 6, 7]);
    let cols = ops::im2col_batched(&input, 3, 3, 1, 1).unwrap();
    let per_image_len = 2 * 6 * 7;
    let (h_out, w_out) = (6, 7);
    let cols_n = h_out * w_out;
    let k = 2 * 3 * 3;
    assert_eq!(cols.shape().dims(), &[k, 2 * cols_n]);
    for img in 0..2 {
        let single = Tensor::from_vec(
            [1, 2, 6, 7],
            input.as_slice()[img * per_image_len..][..per_image_len].to_vec(),
        )
        .unwrap();
        let one = ops::im2col(&single, 3, 3, 1, 1).unwrap();
        for row in 0..k {
            let got = &cols.as_slice()[row * 2 * cols_n + img * cols_n..][..cols_n];
            let want = &one.as_slice()[row * cols_n..][..cols_n];
            assert_eq!(got, want, "im2col_batched img={img} row={row}");
        }
    }
}

#[test]
fn hamming_is_exact_on_both_backends() {
    let mut a = [0u8; 32];
    let mut b = [0u8; 32];
    for (i, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
        *x = (i as u8).wrapping_mul(37);
        *y = (i as u8).wrapping_mul(37) ^ (1 << (i % 8));
    }
    // Exactly one flipped bit per byte.
    assert_eq!(simd::hamming256_isa(Isa::SCALAR, &a, &b), 32);
    assert_eq!(simd::hamming256_isa(simd::active(), &a, &b), 32);
    assert_eq!(simd::hamming256(&a, &b), 32);
    cases(32, |rng| {
        let a: [u8; 32] = std::array::from_fn(|_| rng.next_u64() as u8);
        let b: [u8; 32] = std::array::from_fn(|_| rng.next_u64() as u8);
        let want: u32 = a.iter().zip(&b).map(|(x, y)| (x ^ y).count_ones()).sum();
        assert_eq!(simd::hamming256_isa(Isa::SCALAR, &a, &b), want);
        assert_eq!(simd::hamming256_isa(simd::active(), &a, &b), want);
        assert_eq!(simd::hamming256(&a, &b), want);
    });
}
