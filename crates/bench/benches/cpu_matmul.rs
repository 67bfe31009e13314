//! CPU GEMM and einsum benchmarks: the register-tiled kernel vs the naive
//! triple loop, the einsum compile→strided-GEMM pipeline on the paper's
//! projection shapes (scaled to CPU size), and the kernel rows — `sgemm` at
//! the block's wide shapes, the stacked Q|K|V and a tile program's 32 rows
//! in Gflop/s, a weight read out of its panels forward and transposed, and
//! the GEMV in GB/s over a strided weight and over its panels (one weight,
//! and a `gpt_generate` token's sixteen), beside a mul+add burst and the
//! fused burst that is the kernel's own peak (printed, never gated).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

use xform_tensor::matmul::{
    gemm, naive_sgemm, sgemm, MatMut, MatRef, PanelRef, Start, WeightPack, MR, NR,
};
use xform_tensor::{einsum, Shape, Tensor};

fn bench_sgemm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let (m, n, k) = (256, 256, 256);
    let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut group = c.benchmark_group("sgemm-256");
    let tile = format!("{MR}x{NR} register tile");
    group.bench_function(BenchmarkId::new("tiled", tile), |bch| {
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
    // the block's wide shapes, the stacked Q|K|V, and a tile program's
    // 32 rows against `bert_fwd`'s vocabulary and its `b·j` width
    let shapes = [
        (2048, 512, 512),
        (512, 512, 2048),
        (2048, 1024, 128),
        (1536, 512, 512),
        (32, 2048, 512),
        (32, 512, 512),
    ];
    for (m, n, k) in shapes {
        let (a, b, mut c) = (rand(m * k), rand(k * n), vec![0.0f32; m * n]);
        let s = best_of(if m < 64 { 200 } else { 20 }, || {
            sgemm(m, n, k, black_box(&a), black_box(&b), &mut c)
        });
        let gflops = (2 * m * n * k) as f64 / s / 1e9;
        println!("kernel rows/sgemm {m:>4}x{n:>4}x{k:>4}              {gflops:>6.1} Gflop/s");
    }
    // a weight read out of its panels: forward (A's slabs copied out) and
    // transposed (the backward's gather), beside the strided reads of the
    // same row-major matrix
    for (m, n, k) in [(2048, 512, 512), (512, 512, 2048), (1024, 256, 256)] {
        let (a, b, mut c) = (rand(m * k), rand(k * n), vec![0.0f32; m * n]);
        let mut pack = vec![0.0f32; m * k];
        WeightPack { m, k, rs: k, cs: 1 }.pack(&a, &mut pack);
        let gflops = |s: f64| (2 * m * n * k) as f64 / s / 1e9;
        let b_at = MatRef::row_major(&b, n);
        let s = best_of(20, || {
            let c = MatMut::row_major(&mut c, n);
            gemm(
                m,
                n,
                k,
                PanelRef::new(&pack, m, k),
                b_at,
                c,
                Start::FromZero,
            );
        });
        println!(
            "kernel rows/panels A  {m:>4}x{n:>4}x{k:>4}         {:>6.1} Gflop/s",
            gflops(s)
        );
        // Aᵀ is k×m: its product takes an m-deep operand
        let (bt, mut ct) = (rand(m * n), vec![0.0f32; k * n]);
        let bt_at = MatRef::row_major(&bt, n);
        let strided = best_of(20, || {
            let (at, c) = (MatRef::row_major(&a, k).t(), MatMut::row_major(&mut ct, n));
            gemm(k, n, m, at, bt_at, c, Start::FromZero);
        });
        let panels = best_of(20, || {
            let c = MatMut::row_major(&mut ct, n);
            gemm(
                k,
                n,
                m,
                PanelRef::new(&pack, m, k).t(),
                bt_at,
                c,
                Start::FromZero,
            );
        });
        let (g0, g1) = (gflops(strided), gflops(panels));
        println!(
            "kernel rows/A^T {k:>4}x{n:>4}x{m:>4} strided {g0:>6.1}, panels {g1:>6.1} Gflop/s"
        );
    }
    // the weights are the traffic: m·k words in, m out; strided (a
    // transposing pack of the whole weight per call) and from the panels
    let gemv = |shapes: &[(usize, usize)], reps: usize, rand: &mut dyn FnMut(usize) -> Vec<f32>| {
        let weights: Vec<_> = (shapes.iter())
            .map(|&(m, k)| {
                let a = rand(m * k);
                let mut pack = vec![0.0f32; m * k];
                WeightPack { m, k, rs: k, cs: 1 }.pack(&a, &mut pack);
                (m, k, a, pack, rand(k), vec![0.0f32; m])
            })
            .collect();
        let mut weights = black_box(weights);
        let bytes: usize = shapes.iter().map(|&(m, k)| 4 * (m * k + k + m)).sum();
        let strided = best_of(reps, || {
            for (m, k, a, _, x, y) in &mut weights {
                sgemm(*m, 1, *k, a, x, y);
            }
        });
        let panels = best_of(reps, || {
            for (m, k, _, pack, x, y) in &mut weights {
                let (a, x) = (PanelRef::new(pack, *m, *k), MatRef::row_major(x, 1));
                gemm(*m, 1, *k, a, x, MatMut::row_major(y, 1), Start::FromZero);
            }
        });
        let gbps = |s: f64| bytes as f64 / s / 1e9;
        (gbps(strided), gbps(panels), strided * 1e3, panels * 1e3)
    };
    for (m, k) in [(1024, 256), (256, 1024)] {
        let (s, p, ..) = gemv(&[(m, k)], 2000, &mut rand);
        println!("kernel rows/gemv  {m:>4}x{k:>4}   strided {s:>6.1}, panels {p:>6.1} GB/s");
    }
    // a `gpt_generate` token: four decoder blocks' Q|K|V, Out, Linear 1
    // and Linear 2 at i = 256, u = 1024
    let block = [(768, 256), (256, 256), (1024, 256), (256, 1024)];
    let token: Vec<_> = (0..4).flat_map(|_| block).collect();
    let (s, p, ms_s, ms_p) = gemv(&token, 300, &mut rand);
    println!(
        "kernel rows/gemv token, 16 GEMVs  strided {s:>6.1}, panels {p:>6.1} GB/s ({ms_s:.3} vs {ms_p:.3} ms)"
    );
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
    targets = bench_sgemm, bench_einsum_projection, bench_einsum_batched,
        bench_kernel_rows
}
criterion_main!(benches);
