//! Real-CPU measurement of the paper's central claim: fusing element-wise
//! and normalization operators saves memory traffic, so the fused kernels
//! beat the composition of unfused ones on actual hardware — not only in
//! the V100 model. Forward (BRD, SM, BDRLN, each fused kernel at `p = 0` and
//! at `p = 0.1`, where every mask is computed) and backward (BLNRD, BDRB,
//! BS, at the `train_step` workload's shapes in its natural layouts); and the
//! attention core as one region against the three arena steps it replaces,
//! at the `longseq_fwd` and `bert_fwd` shapes, and the model head as one
//! plan step against the three allocating passes it replaced, at the same
//! two; and the kernel layer's one `exp` with the bodies that stand on it
//! (GELU both ways, a contiguous softmax row) in ns per element. Printed,
//! never gated — EXPERIMENTS.md, "Backward kernels on the lane layer",
//! "Attention region", "The head as one step" and "Numerics tier", records
//! the numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use xform_dataflow::EncoderDims;
use xform_tensor::einsum::EinsumSpec;
use xform_tensor::fused;
use xform_tensor::into_ops::{
    activate_backward_into, activate_into, contract_into, sm_into, softmax_into, tile_into,
    ContractPlan, RowTail, Sweep, TilePlan, View, ATTENTION_TILE_ROWS,
};
use xform_tensor::lanes::{self, Dropout};
use xform_tensor::ops::dropout::{dropout, dropout_backward, dropout_disabled};
use xform_tensor::ops::elementwise::{
    activate_backward, add, bias_add, bias_grad, relu, scale, ActivationKind,
};
use xform_tensor::ops::layernorm::{layernorm, layernorm_backward_input};
use xform_tensor::ops::softmax::{softmax, softmax_backward};
use xform_tensor::{einsum, Axis, Shape, Tensor};
use xform_transformer::interp;

fn rand_t(shape: Shape, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::random(shape, &Uniform::new(-1.0, 1.0), &mut rng)
}

/// The fused forward kernels' dropout probabilities: `0`, where no mask is
/// computed, and `0.1`, where every one is.
const MASKS: [(f32, &str); 2] = [(0.0, "1 sweep"), (0.1, "1 sweep, p = 0.1")];

fn bench_brd(c: &mut Criterion) {
    // bias + ReLU + dropout over the feed-forward activation
    let shape = Shape::new([('b', 4), ('j', 64), ('u', 512)]).unwrap();
    let x = rand_t(shape, 1);
    let bias = rand_t(Shape::new([('u', 512)]).unwrap(), 2);
    let mut group = c.benchmark_group("bias+relu+dropout");
    group.bench_function(BenchmarkId::new("unfused", "3 sweeps"), |b| {
        b.iter(|| {
            let pre = bias_add(black_box(&x), &bias).unwrap();
            let act = relu(&pre);
            let (out, _) = dropout_disabled(&act);
            black_box(out)
        })
    });
    for (p, id) in MASKS {
        group.bench_function(BenchmarkId::new("fused BRD", id), |b| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| black_box(fused::brd(black_box(&x), &bias, p, &mut rng).unwrap()))
        });
    }
    group.finish();
}

fn bench_sm(c: &mut Criterion) {
    // scale + softmax + dropout over attention scores
    let shape = Shape::new([('h', 8), ('b', 4), ('j', 96), ('k', 96)]).unwrap();
    let beta = rand_t(shape, 4);
    let mut group = c.benchmark_group("scale+softmax+dropout");
    group.bench_function(BenchmarkId::new("unfused", "3 sweeps"), |b| {
        b.iter(|| {
            let s = scale(black_box(&beta), 0.125);
            let y = softmax(&s, Axis('k')).unwrap();
            let (out, _) = dropout_disabled(&y);
            black_box(out)
        })
    });
    for (p, id) in MASKS {
        group.bench_function(BenchmarkId::new("fused SM", id), |b| {
            let mut rng = StdRng::seed_from_u64(5);
            b.iter(|| {
                black_box(fused::sm(black_box(&beta), 0.125, Axis('k'), p, &mut rng).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_bdrln(c: &mut Criterion) {
    // bias + dropout + residual + layernorm
    let shape = Shape::new([('i', 256), ('b', 4), ('j', 128)]).unwrap();
    let x = rand_t(shape.clone(), 6);
    let residual = rand_t(shape, 7);
    let bias = rand_t(Shape::new([('i', 256)]).unwrap(), 8);
    let gamma = rand_t(Shape::new([('i', 256)]).unwrap(), 9);
    let beta_w = rand_t(Shape::new([('i', 256)]).unwrap(), 10);
    let mut group = c.benchmark_group("bias+dropout+residual+layernorm");
    group.bench_function(BenchmarkId::new("unfused", "4 sweeps"), |b| {
        b.iter(|| {
            let z = bias_add(black_box(&x), &bias).unwrap();
            let (d, _) = dropout_disabled(&z);
            let ln_in = add(&d, &residual).unwrap();
            black_box(layernorm(&ln_in, Axis('i'), &gamma, &beta_w).unwrap())
        })
    });
    for (p, id) in MASKS {
        group.bench_function(BenchmarkId::new("fused BDRLN", id), |b| {
            let mut rng = StdRng::seed_from_u64(11);
            b.iter(|| {
                let (x, i) = (black_box(&x), Axis('i'));
                black_box(
                    fused::bdrln(x, &bias, &residual, &gamma, &beta_w, i, p, &mut rng).unwrap(),
                )
            })
        });
    }
    group.finish();
}

/// A dropout mask at `p = 0.1` shaped like `like`.
fn mask_like(like: &Tensor, seed: u64) -> Tensor {
    dropout(like, 0.1, &mut StdRng::seed_from_u64(seed)).1
}

fn bench_blnrd(c: &mut Criterion) {
    // layer-norm dX + dropout dX over `[i,b,j]`: the lane strides by b·j,
    // adjacent lanes are adjacent words (the panel walk)
    let shape = Shape::new([('i', 256), ('b', 4), ('j', 64)]).unwrap();
    let (dy, x) = (rand_t(shape.clone(), 12), rand_t(shape, 13));
    let mask = mask_like(&x, 14);
    let gamma = rand_t(Shape::new([('i', 256)]).unwrap(), 15);
    let beta_w = rand_t(Shape::new([('i', 256)]).unwrap(), 16);
    let i = Axis('i');
    let (_, stats) = layernorm(&x, i, &gamma, &beta_w).unwrap();
    let mut group = c.benchmark_group("layernorm dX+dropout dX");
    // the forward kernel over the same tensor: the yardstick for its dX
    group.bench_function(BenchmarkId::new("layernorm", "forward"), |b| {
        b.iter(|| black_box(layernorm(black_box(&x), i, &gamma, &beta_w).unwrap()))
    });
    group.bench_function(BenchmarkId::new("layernorm dX", "1 sweep"), |b| {
        b.iter(|| {
            black_box(layernorm_backward_input(
                black_box(&dy),
                &x,
                i,
                &gamma,
                &stats,
            ))
        })
    });
    group.bench_function(BenchmarkId::new("unfused", "2 sweeps"), |b| {
        b.iter(|| {
            let dx_ln = layernorm_backward_input(black_box(&dy), &x, i, &gamma, &stats).unwrap();
            let dx = dropout_backward(&dx_ln, &mask).unwrap();
            black_box((dx, dx_ln))
        })
    });
    group.bench_function(BenchmarkId::new("fused BLNRD", "1 sweep"), |b| {
        b.iter(|| black_box(fused::blnrd(black_box(&dy), &x, &gamma, &mask, i, &stats).unwrap()))
    });
    group.finish();
}

fn bench_bdrb(c: &mut Criterion) {
    // dropout dX + ReLU dX + bias dW over the feed-forward activation
    let shape = Shape::new([('u', 1024), ('b', 4), ('j', 64)]).unwrap();
    let (dy, pre) = (rand_t(shape.clone(), 17), rand_t(shape, 18));
    let mask = mask_like(&dy, 19);
    let (kind, u) = (ActivationKind::Relu, [Axis('u')]);
    let mut group = c.benchmark_group("dropout dX+relu dX+bias dW");
    group.bench_function(BenchmarkId::new("unfused", "3 sweeps"), |b| {
        b.iter(|| {
            let after = dropout_backward(black_box(&dy), &mask).unwrap();
            let dx = activate_backward(&after, &pre, kind).unwrap();
            let dbias = bias_grad(&dx, &u).unwrap();
            black_box((dx, dbias))
        })
    });
    group.bench_function(BenchmarkId::new("fused BDRB", "1 sweep"), |b| {
        b.iter(|| black_box(fused::bdrb_act(black_box(&dy), &mask, &pre, kind, &u).unwrap()))
    });
    group.finish();
}

fn bench_bs(c: &mut Criterion) {
    // dropout dX + softmax dX + scaling over the attention scores
    let shape = Shape::new([('h', 4), ('b', 4), ('j', 64), ('k', 64)]).unwrap();
    let k = Axis('k');
    let dalpha = rand_t(shape.clone(), 20);
    let y = softmax(&rand_t(shape, 21), k).unwrap();
    let mask = mask_like(&y, 22);
    let mut group = c.benchmark_group("dropout dX+softmax dX+scale");
    group.bench_function(BenchmarkId::new("unfused", "3 sweeps"), |b| {
        b.iter(|| {
            let after = dropout_backward(black_box(&dalpha), &mask).unwrap();
            black_box(scale(&softmax_backward(&after, &y, k).unwrap(), 0.125))
        })
    });
    group.bench_function(BenchmarkId::new("fused BS", "1 sweep"), |b| {
        b.iter(|| black_box(fused::bs(black_box(&dalpha), &mask, &y, k, 0.125).unwrap()))
    });
    group.finish();
}

fn bench_attention_core(c: &mut Criterion) {
    // QKT → scale/mask/softmax/dropout → Gamma over natural-layout
    // projections, p = 0: the three `*_into` drivers a fused plan's arena
    // ran as three steps (each `[h,b,j,k]` tensor written and read back)
    // against the region that keeps them in a panel of query rows
    let mut group = c.benchmark_group("attention core: region vs chain");
    for (name, b, j, h, p, causal) in [
        ("longseq_fwd", 2, 512, 8, 16, Some(0)),
        ("bert_fwd", 4, 128, 8, 64, None),
    ] {
        let sizes = [('p', p), ('w', p), ('h', h), ('b', b), ('j', j), ('k', j)];
        let t = |spec: &str, seed| rand_t(Shape::from_spec(spec, &sizes).unwrap(), seed);
        let (qq, kk, vv) = (t("phbj", 23), t("phbk", 24), t("whbk", 25));
        let (beta, gam) = (t("hbjk", 26), t("whbj", 27));
        let qkt: EinsumSpec = "phbk,phbj->hbjk".parse().unwrap();
        let gamma: EinsumSpec = "whbk,hbjk->whbj".parse().unwrap();
        let scaler = 1.0 / (p as f32).sqrt();
        let drop = &Dropout::new(0.0, &StdRng::seed_from_u64(28)).unwrap();
        let mut out = vec![0.0f32; gam.len()];

        fn of(t: &Tensor) -> (&Shape, &[usize]) {
            (t.shape(), t.strides())
        }
        let then = Some((&gamma, of(&vv), gam.strides()));
        let plan = TilePlan::compile(&qkt, of(&kk), of(&qq), then, ATTENTION_TILE_ROWS).unwrap();
        let mut scratch = vec![0.0f32; plan.scratch_words()];
        group.bench_function(BenchmarkId::new("region", name), |bch| {
            bch.iter(|| {
                let tail = &mut RowTail::Softmax { scaler, causal };
                let (k, q) = (kk.data(), qq.data());
                let then = Some((vv.data(), &mut out[..]));
                tile_into(&plan, k, q, tail, then, drop, &mut scratch);
                black_box(out[0])
            })
        });
        let strides = |t: &Tensor| t.strides().to_vec();

        let compile = |spec, a: &Tensor, b: &Tensor, out: &Tensor| {
            let (sa, sb) = (strides(a), strides(b));
            ContractPlan::compile(spec, a.shape(), &sa, b.shape(), &sb, out.strides()).unwrap()
        };
        let (p_qkt, p_gamma) = (
            compile(&qkt, &kk, &qq, &beta),
            compile(&gamma, &vv, &beta, &gam),
        );
        let whole = View::whole(beta.shape().sizes(), beta.strides());
        let sweep = Sweep::compile(&[&whole; 4], Some(3), causal.map(|_| 2)).unwrap();
        let n = beta.len();
        let (mut scores, mut att) = (vec![0.0f32; n], vec![0.0f32; n]);
        let (mut alpha, mut mask) = (vec![0.0f32; n], vec![0.0f32; n]);
        group.bench_function(BenchmarkId::new("chain", name), |bch| {
            bch.iter(|| {
                contract_into(&p_qkt, kk.data(), qq.data(), &mut scores, &mut []);
                let (y, a, m) = (&mut att, &mut alpha, &mut mask);
                sm_into(&sweep, &scores, scaler, causal, drop, y, a, m);
                contract_into(&p_gamma, vv.data(), &alpha, &mut out, &mut []);
                black_box(out[0])
            })
        });
    }
    group.finish();
}

fn bench_model_head(c: &mut Criterion) {
    // the head at the forward workloads' dims, vocabulary 2 048: the three
    // allocating passes `TransformerModel::forward` ran — einsum, bias, a
    // softmax striding `b·j` down `v` — against the head plan, one
    // GEMM-epilogue step whose logits stay in its tile, `probs` copied out
    let mut group = c.benchmark_group("model head: plan vs three passes");
    for (name, b, j, i) in [("longseq_fwd", 2, 512, 128), ("bert_fwd", 4, 128, 512)] {
        let (dims, vocab) = (
            EncoderDims {
                b,
                j,
                k: j,
                h: 8,
                p: i / 8,
                i,
                u: 4 * i,
            },
            2048,
        );
        let h = rand_t(Shape::from_spec("ibj", &dims.size_table()).unwrap(), 30);
        let head = rand_t(Shape::new([('v', vocab), ('i', i)]).unwrap(), 31);
        let bias = rand_t(Shape::new([('v', vocab)]).unwrap(), 32);
        group.bench_function(BenchmarkId::new("three passes", name), |bch| {
            bch.iter(|| {
                let logits = einsum("vi,ibj->vbj", &[&head, black_box(&h)]).unwrap();
                black_box(softmax(&bias_add(&logits, &bias).unwrap(), Axis('v')).unwrap())
            })
        });
        group.bench_function(BenchmarkId::new("plan", name), |bch| {
            bch.iter(|| {
                black_box(interp::head_forward(&dims, black_box(&h), &head, &bias).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_numerics_tier(_: &mut Criterion) {
    // ns per element, best of 300 passes over 64 K words in `[-8, 8)`: a
    // kernel that computes, not one that allocates
    const N: usize = 1 << 16;
    let x = rand_t(Shape::new([('k', N)]).unwrap(), 29);
    let x: Vec<f32> = x.data().iter().map(|v| 8.0 * v).collect();
    let (dy, mut out) = (vec![1.0f32; N], vec![0.0f32; N]);
    let mut row = |name: &str, pass: &mut dyn FnMut(&[f32], &mut [f32])| {
        let mut best = f64::INFINITY;
        for _ in 0..300 {
            let t = std::time::Instant::now();
            pass(black_box(&x), black_box(&mut out));
            best = best.min(t.elapsed().as_secs_f64());
        }
        println!(
            "numerics tier/{name:<28} {:>6.2} ns/element",
            best * 1e9 / N as f64
        );
    };
    row("exp", &mut |x, out| {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = lanes::exp(v);
        }
    });
    let flat = View::whole(&[N], &[1]);
    let unary = Sweep::compile(&[&flat; 2], None, None).unwrap();
    let binary = Sweep::compile(&[&flat; 3], None, None).unwrap();
    let gelu = ActivationKind::Gelu;
    row("gelu", &mut |x, out| activate_into(&unary, x, gelu, out));
    row("gelu backward", &mut |x, out| {
        activate_backward_into(&binary, &dy, x, gelu, out)
    });
    for len in [64, 256, 512, 2048] {
        let rows = View::whole(&[N / len, len], &[len, 1]);
        let sweep = Sweep::compile(&[&rows; 2], Some(1), None).unwrap();
        row(&format!("softmax row of {len}"), &mut |x, out| {
            softmax_into(&sweep, x, 0.5, None, out)
        });
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
    targets = bench_brd, bench_sm, bench_bdrln, bench_blnrd, bench_bdrb, bench_bs,
        bench_attention_core, bench_model_head, bench_numerics_tier
}
criterion_main!(benches);
