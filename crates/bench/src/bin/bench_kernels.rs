//! Std-only kernel benchmark runner (no external harness).
//!
//! Times the tensor hot path — matmul, conv2d, elementwise kernels and
//! a YOLO-tiny forward pass — serially and on the `adsim-runtime`
//! worker pool at 1/2/4/8 threads. Two reference points make each win
//! attributable: a naive single-thread matmul isolates the cache
//! -blocking gain, and every SIMD kernel is also run pinned to the
//! scalar backend (`Isa::SCALAR`) at one thread so the vector-unit
//! speedup is measured separately from core count. Results are printed
//! as a table with GFLOP/s and written to `BENCH_tensor.json` in the
//! current directory.
//!
//! ```text
//! cargo run --release -p adsim-bench --bin bench_kernels [-- --quick]
//! ```
//!
//! `--quick` shrinks the shapes for smoke-testing the runner itself.

use adsim_bench::timing::{measure, report, Measurement};
use adsim_dnn::models;
use adsim_runtime::Runtime;
use adsim_tensor::simd::{self, Isa};
use adsim_tensor::{ops, Tensor};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const BUDGET_MS: f64 = 200.0;

/// One benchmark record destined for the JSON report.
struct Row {
    name: String,
    threads: usize,
    m: Measurement,
    /// Arithmetic throughput, when the kernel has a natural flop count.
    gflops: Option<f64>,
    /// Median-time ratio vs the scalar backend at the same thread
    /// count (recorded on the SIMD row).
    speedup_vs_scalar: Option<f64>,
}

impl Row {
    fn plain(name: String, threads: usize, m: Measurement) -> Self {
        Self { name, threads, m, gflops: None, speedup_vs_scalar: None }
    }
}

/// GFLOP/s for `flops` floating-point operations per iteration.
fn gflops(flops: f64, m: &Measurement) -> f64 {
    flops / (m.median_ms() * 1e-3) / 1e9
}

/// Deterministic non-trivial fill (same generator as the parity tests).
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

/// The naive pre-optimization matmul: i-j-k dot products, streaming
/// column-wise through `b` with no blocking. The reference point for
/// the cache-blocking speedup.
fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let n = b.shape().dim(1);
    let (av, bv) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += av[i * k + p] * bv[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec([m, n], out).unwrap()
}

/// Benchmarks one kernel closure on the scalar backend and on the
/// detected backend (same single thread), reporting both rows plus the
/// SIMD-over-scalar speedup.
fn ab_scalar_simd(
    rows: &mut Vec<Row>,
    name: &str,
    flops: f64,
    mut run: impl FnMut(Isa),
) -> f64 {
    let isa = simd::active();
    let scalar = measure(BUDGET_MS, || run(Isa::SCALAR));
    let vector = measure(BUDGET_MS, || run(isa));
    let speedup = scalar.median_ms() / vector.median_ms();
    report(&format!("{name} scalar t=1"), &scalar);
    report(&format!("{name} {} t=1", isa.name()), &vector);
    println!(
        "  -> {name}: {:.2} GFLOP/s scalar, {:.2} GFLOP/s {}, SIMD speedup {speedup:.2}x",
        gflops(flops, &scalar),
        gflops(flops, &vector),
        isa.name(),
    );
    rows.push(Row {
        name: format!("{name}_scalar"),
        threads: 1,
        gflops: Some(gflops(flops, &scalar)),
        speedup_vs_scalar: None,
        m: scalar,
    });
    rows.push(Row {
        name: format!("{name}_simd"),
        threads: 1,
        gflops: Some(gflops(flops, &vector)),
        speedup_vs_scalar: Some(speedup),
        m: vector,
    });
    speedup
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let isa = simd::active();
    let (mm_small, mm_big, conv_side, grid) =
        if quick { (64, 128, 16, 2) } else { (256, 1024, 64, 8) };

    adsim_bench::header("Kernels", "tensor hot path on the adsim-runtime worker pool");
    println!("host cores: {cores}  (thread counts beyond this cannot add speedup)");
    println!("simd backend: {}\n", isa.name());
    let mut rows: Vec<Row> = Vec::new();

    // -- Cache blocking alone: naive vs tiled, both scalar, 1 thread. --
    let a = fill([mm_small, mm_small]);
    let b = fill([mm_small, mm_small]);
    let serial = Runtime::serial();
    let mm_flops = 2.0 * (mm_small as f64).powi(3);
    let naive = measure(BUDGET_MS, || {
        std::hint::black_box(matmul_naive(&a, &b));
    });
    report(&format!("matmul_naive_{mm_small}"), &naive);
    let tiled = measure(BUDGET_MS, || {
        std::hint::black_box(ops::matmul_isa(&serial, &a, &b, Isa::SCALAR).unwrap());
    });
    report(&format!("matmul_tiled_{mm_small} scalar t=1"), &tiled);
    println!(
        "  -> blocking speedup at 1 thread (scalar vs scalar): {:.2}x\n",
        naive.median_ms() / tiled.median_ms()
    );
    rows.push(Row {
        name: format!("matmul_naive_{mm_small}"),
        threads: 1,
        gflops: Some(gflops(mm_flops, &naive)),
        speedup_vs_scalar: None,
        m: naive,
    });
    rows.push(Row {
        name: format!("matmul_tiled_{mm_small}_scalar"),
        threads: 1,
        gflops: Some(gflops(mm_flops, &tiled)),
        speedup_vs_scalar: None,
        m: tiled,
    });

    // -- Vector unit alone: scalar vs SIMD backend, 1 thread. ---------
    ab_scalar_simd(&mut rows, &format!("matmul_{mm_small}"), mm_flops, |backend| {
        std::hint::black_box(ops::matmul_isa(&serial, &a, &b, backend).unwrap());
    });
    let input = fill([1, 16, conv_side, conv_side]);
    let weight = fill([32, 16, 3, 3]);
    let bias = fill([32]);
    // stride 1, pad 1: output is Cout x H x W, each from Cin*3*3 MACs.
    let conv_flops = 2.0 * 32.0 * 16.0 * 9.0 * (conv_side * conv_side) as f64;
    ab_scalar_simd(&mut rows, &format!("conv2d_{conv_side}"), conv_flops, |backend| {
        std::hint::black_box(
            ops::conv2d_isa(&serial, &input, &weight, Some(&bias), 1, 1, backend).unwrap(),
        );
    });
    let act = fill([mm_big, mm_big]);
    let elem_flops = (mm_big * mm_big) as f64;
    ab_scalar_simd(&mut rows, &format!("relu_{mm_big}sq"), elem_flops, |backend| {
        std::hint::black_box(ops::relu_isa(&serial, &act, backend));
    });
    let (bn_c, bn_hw) = (16, mm_big / 4);
    let bn_in = fill([1, bn_c, bn_hw, bn_hw]);
    let gamma = fill([bn_c]);
    let beta = fill([bn_c]);
    let mean = fill([bn_c]);
    // Variance must be positive: reuse |gamma| + 0.5.
    let var = Tensor::from_vec(
        [bn_c],
        gamma.as_slice().iter().map(|g| g.abs() + 0.5).collect::<Vec<_>>(),
    )
    .unwrap();
    let bn_flops = 2.0 * (bn_c * bn_hw * bn_hw) as f64;
    ab_scalar_simd(&mut rows, &format!("batch_norm_{bn_c}x{bn_hw}sq"), bn_flops, |backend| {
        std::hint::black_box(
            ops::batch_norm_isa(&serial, &bn_in, &gamma, &beta, &mean, &var, 1e-5, backend)
                .unwrap(),
        );
    });
    println!();

    // -- Thread scaling on the big matmul (detected backend). ---------
    let a = fill([mm_big, mm_big]);
    let b = fill([mm_big, mm_big]);
    let big_flops = 2.0 * (mm_big as f64).powi(3);
    for t in THREADS {
        let rt = Runtime::new(t);
        let m = measure(BUDGET_MS, || {
            std::hint::black_box(ops::matmul_with(&rt, &a, &b).unwrap());
        });
        report(&format!("matmul_tiled_{mm_big} t={t}"), &m);
        rows.push(Row {
            name: format!("matmul_tiled_{mm_big}"),
            threads: t,
            gflops: Some(gflops(big_flops, &m)),
            speedup_vs_scalar: None,
            m,
        });
    }
    println!();

    // -- conv2d: direct reference, then the panel-fused GEMM lowering
    // over threads (rows keep the `conv2d_im2col_*` name the committed
    // baseline is keyed by). ---
    let input = fill([1, 16, conv_side, conv_side]);
    let weight = fill([32, 16, 3, 3]);
    let bias = fill([32]);
    let direct = measure(BUDGET_MS, || {
        std::hint::black_box(ops::conv2d_direct(&input, &weight, Some(&bias), 1, 1).unwrap());
    });
    report(&format!("conv2d_direct_{conv_side}"), &direct);
    rows.push(Row::plain(format!("conv2d_direct_{conv_side}"), 1, direct));
    for t in THREADS {
        let rt = Runtime::new(t);
        let m = measure(BUDGET_MS, || {
            std::hint::black_box(
                ops::conv2d_with(&rt, &input, &weight, Some(&bias), 1, 1).unwrap(),
            );
        });
        report(&format!("conv2d_im2col_{conv_side} t={t}"), &m);
        rows.push(Row {
            name: format!("conv2d_im2col_{conv_side}"),
            threads: t,
            gflops: Some(gflops(conv_flops, &m)),
            speedup_vs_scalar: None,
            m,
        });
    }
    println!();

    // -- Full YOLO-tiny forward pass. ---------------------------------
    let net = models::yolo_tiny(grid);
    let input = fill(net.input_shape().clone());
    for t in THREADS {
        let rt = Runtime::new(t);
        let m = measure(BUDGET_MS, || {
            std::hint::black_box(net.forward_with(&rt, &input).unwrap());
        });
        report(&format!("yolo_forward_g{grid} t={t}"), &m);
        rows.push(Row::plain(format!("yolo_forward_g{grid}"), t, m));
    }

    let json = to_json(cores, isa, &rows);
    std::fs::write("BENCH_tensor.json", &json).expect("write BENCH_tensor.json");
    println!("\nwrote BENCH_tensor.json ({} results)", rows.len());
}

/// Hand-rolled JSON (offline policy: no serde). Names are plain ASCII
/// identifiers, so no string escaping is required.
fn to_json(cores: usize, isa: Isa, rows: &[Row]) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"bench_kernels\",\n");
    s.push_str(&format!("  \"host_cores\": {cores},\n"));
    s.push_str(&format!("  \"simd_backend\": \"{}\",\n", isa.name()));
    s.push_str(&format!("  \"budget_ms\": {BUDGET_MS},\n"));
    s.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"threads\": {}, \"median_ms\": {:.6}, \"min_ms\": {:.6}, \"iters\": {}",
            r.name,
            r.threads,
            r.m.median_ms(),
            r.m.min_ms(),
            r.m.iters(),
        ));
        if let Some(g) = r.gflops {
            s.push_str(&format!(", \"gflops\": {g:.3}"));
        }
        if let Some(x) = r.speedup_vs_scalar {
            s.push_str(&format!(", \"speedup_vs_scalar\": {x:.3}"));
        }
        s.push_str(&format!("}}{}\n", if i + 1 < rows.len() { "," } else { "" }));
    }
    s.push_str("  ]\n}\n");
    s
}
