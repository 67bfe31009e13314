//! CPU GEMM and einsum benchmarks: the register-tiled kernel vs the naive
//! triple loop, the einsum compile→strided-GEMM pipeline on the paper's
//! projection shapes (scaled to CPU size), and the kernel rows — `sgemm` at
//! the block's wide shapes in Gflop/s and the transposed GEMV in GB/s,
//! beside a mul+add burst and the fused burst that is the kernel's own peak
//! (printed, never gated).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use xform_tensor::matmul::{batched_sgemm, naive_sgemm, sgemm};
use xform_tensor::{einsum, Shape, Tensor};

fn bench_sgemm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let (m, n, k) = (256, 256, 256);
    let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut group = c.benchmark_group("sgemm-256");
    group.bench_function(BenchmarkId::new("tiled", "4x16 register tile"), |bch| {
        bch.iter(|| {
            let mut cbuf = vec![0.0f32; m * n];
            sgemm(m, n, k, black_box(&a), black_box(&b), &mut cbuf);
            black_box(cbuf)
        })
    });
    group.bench_function(BenchmarkId::new("naive", "triple loop"), |bch| {
        bch.iter(|| {
            let mut cbuf = vec![0.0f32; m * n];
            naive_sgemm(m, n, k, black_box(&a), black_box(&b), &mut cbuf);
            black_box(cbuf)
        })
    });
    group.finish();
}

fn bench_batched_sgemm(c: &mut Criterion) {
    // attention-score shape: many small independent GEMMs — the case the
    // scoped-thread batch parallelism targets
    let mut rng = StdRng::seed_from_u64(4);
    let (bsz, m, n, k) = (16, 48, 48, 64);
    let a: Vec<f32> = (0..bsz * m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b: Vec<f32> = (0..bsz * k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut group = c.benchmark_group("batched-sgemm-16x48");
    group.bench_function(BenchmarkId::new("batched", "threaded"), |bch| {
        bch.iter(|| {
            let mut cbuf = vec![0.0f32; bsz * m * n];
            batched_sgemm(bsz, m, n, k, black_box(&a), black_box(&b), &mut cbuf);
            black_box(cbuf)
        })
    });
    group.bench_function(BenchmarkId::new("batched", "serial loop"), |bch| {
        bch.iter(|| {
            let mut cbuf = vec![0.0f32; bsz * m * n];
            for g in 0..bsz {
                sgemm(
                    m,
                    n,
                    k,
                    black_box(&a[g * m * k..(g + 1) * m * k]),
                    black_box(&b[g * k * n..(g + 1) * k * n]),
                    &mut cbuf[g * m * n..(g + 1) * m * n],
                );
            }
            black_box(cbuf)
        })
    });
    group.finish();
}

use rand::Rng;

fn bench_einsum_projection(c: &mut Criterion) {
    // the query projection phi,ibj->phbj at CPU scale
    let sizes = [('p', 16), ('h', 4), ('i', 64), ('b', 4), ('j', 64)];
    let mut rng = StdRng::seed_from_u64(2);
    let w = Tensor::random(
        Shape::from_spec("phi", &sizes).unwrap(),
        &Uniform::new(-1.0, 1.0),
        &mut rng,
    );
    let x = Tensor::random(
        Shape::from_spec("ibj", &sizes).unwrap(),
        &Uniform::new(-1.0, 1.0),
        &mut rng,
    );
    c.bench_function("einsum phi,ibj->phbj", |b| {
        b.iter(|| black_box(einsum("phi,ibj->phbj", &[black_box(&w), black_box(&x)]).unwrap()))
    });
}

fn bench_einsum_batched(c: &mut Criterion) {
    // the attention-score batched contraction phbk,phbj->hbjk
    let sizes = [('p', 16), ('h', 4), ('b', 4), ('j', 48), ('k', 48)];
    let mut rng = StdRng::seed_from_u64(3);
    let kk = Tensor::random(
        Shape::from_spec("phbk", &sizes).unwrap(),
        &Uniform::new(-1.0, 1.0),
        &mut rng,
    );
    let qq = Tensor::random(
        Shape::from_spec("phbj", &sizes).unwrap(),
        &Uniform::new(-1.0, 1.0),
        &mut rng,
    );
    c.bench_function("einsum phbk,phbj->hbjk", |b| {
        b.iter(|| black_box(einsum("phbk,phbj->hbjk", &[black_box(&kk), black_box(&qq)]).unwrap()))
    });
}

/// `LANES` independent `x·m + a` chains, the benchmark probe's burst: 64
/// lanes are eight `ymm` chains — too few to cover a four-cycle add — and
/// 96 are twelve. `FUSED` makes each step one `mul_add`, the micro-kernel's
/// arithmetic, so the burst is the peak `sgemm` can reach.
fn burst<const LANES: usize, const FUSED: bool>(iters: u64) -> f32 {
    let mut acc = [1.0f32; LANES];
    let (mul, add) = (black_box(0.999_999_f32), black_box(1e-6_f32));
    for _ in 0..iters {
        for x in &mut acc {
            *x = if FUSED {
                x.mul_add(mul, add)
            } else {
                *x * mul + add
            };
        }
    }
    acc.iter().sum()
}

/// Seconds of the fastest of `reps` calls.
fn best_of(reps: usize, mut call: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        call();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn bench_kernel_rows(_: &mut Criterion) {
    const ITERS: u64 = 2_000_000;
    let peak = |name: &str, lanes: usize, s: f64| {
        let gflops = (2 * lanes as u64 * ITERS) as f64 / s / 1e9;
        let row = format!("{name} burst, {lanes} lanes");
        println!("kernel rows/{row:<34}{gflops:>6.1} Gflop/s");
    };
    let best = |burst: fn(u64) -> f32| {
        best_of(5, || {
            black_box(burst(black_box(ITERS)));
        })
    };
    peak("mul+add", 64, best(burst::<64, false>));
    peak("mul+add", 96, best(burst::<96, false>));
    peak("fma", 96, best(burst::<96, true>));
    let mut rng = StdRng::seed_from_u64(5);
    let mut rand =
        |len: usize| -> Vec<f32> { (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect() };
    for (m, n, k) in [(2048, 512, 512), (512, 512, 2048), (2048, 1024, 128)] {
        let (a, b, mut c) = (rand(m * k), rand(k * n), vec![0.0f32; m * n]);
        let s = best_of(20, || sgemm(m, n, k, black_box(&a), black_box(&b), &mut c));
        let gflops = (2 * m * n * k) as f64 / s / 1e9;
        println!("kernel rows/sgemm {m:>4}x{n:>4}x{k:>4}              {gflops:>6.1} Gflop/s");
    }
    // the weights are the traffic: m·k words in, m out
    for (m, k) in [(1024, 256), (256, 1024)] {
        let (a, x, mut y) = (rand(m * k), rand(k), vec![0.0f32; m]);
        let s = best_of(2000, || {
            sgemm(m, 1, k, black_box(&a), black_box(&x), &mut y)
        });
        let gbps = (4 * (m * k + k + m)) as f64 / s / 1e9;
        println!("kernel rows/gemv  {m:>4}x{k:>4}                   {gbps:>6.1} GB/s");
    }
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_sgemm, bench_batched_sgemm, bench_einsum_projection, bench_einsum_batched,
        bench_kernel_rows
}
criterion_main!(benches);
