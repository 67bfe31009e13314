//! CPU GEMM and einsum benchmarks: the register-tiled kernel vs the naive
//! triple loop, and the einsum compile→strided-GEMM pipeline on the paper's
//! projection shapes (scaled to CPU size).

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
    group.bench_function(BenchmarkId::new("tiled", "2x16 register tile"), |bch| {
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

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_sgemm, bench_batched_sgemm, bench_einsum_projection, bench_einsum_batched
}
criterion_main!(benches);
