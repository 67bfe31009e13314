//! Full encoder-layer training step on the CPU: reference (unfused) vs
//! fused executor — the end-to-end counterpart of the per-kernel fusion
//! benchmarks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use xform_core::plan::ExecOptions;
use xform_dataflow::EncoderDims;
use xform_transformer::encoder::{EncoderLayer, Executor};
use xform_transformer::params::EncoderWeights;
use xform_transformer::training::synthetic_batch;

fn bench_encoder(c: &mut Criterion) {
    let dims = EncoderDims {
        b: 2,
        j: 32,
        k: 32,
        h: 4,
        p: 8,
        i: 32,
        u: 128,
    };
    let mut rng = StdRng::seed_from_u64(1);
    let weights = EncoderWeights::init(&dims, &mut rng);
    let x = synthetic_batch(&dims, &mut rng).unwrap();

    let mut group = c.benchmark_group("encoder-step");
    for (label, executor) in [
        ("reference", Executor::Reference),
        ("fused", Executor::Fused),
    ] {
        let layer = EncoderLayer::new(dims, executor, 0.0);
        let opts = ExecOptions::builder().seed(2).build();
        group.bench_function(BenchmarkId::new("forward", label), |b| {
            b.iter(|| black_box(layer.forward(black_box(&x), &weights, &opts).unwrap()))
        });
        group.bench_function(BenchmarkId::new("fwd+bwd", label), |b| {
            b.iter(|| {
                let (y, acts) = layer
                    .forward(black_box(&x), &weights, &opts)
                    .unwrap()
                    .into_pair()
                    .unwrap();
                black_box(layer.backward(&y, &x, &weights, &acts, &opts).unwrap())
            })
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_encoder
}
criterion_main!(benches);
