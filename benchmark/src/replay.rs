//! Kernel and layer replay: the library's public kernels and one block's
//! forward entry points, called on their own at the workloads' shapes.
//! Flop and bytes are computed from the tensor sizes, not counted.

use std::time::Instant;

use rand::distributions::Uniform;
use rand::rngs::StdRng;
use substation::core::plan::ExecOptions;
use substation::dataflow::EncoderDims;
use substation::tensor::matmul::{batched_sgemm, sgemm};
use substation::tensor::ops::dropout::dropout;
use substation::tensor::ops::elementwise::{activate, bias_add, ActivationKind};
use substation::tensor::ops::layernorm::layernorm;
use substation::tensor::ops::softmax::softmax;
use substation::tensor::{einsum, fused, Axis, Shape, Tensor};
use substation::transformer::decoder::DecoderLayer;
use substation::transformer::encoder::{EncoderLayer, Executor};
use substation::transformer::params::EncoderWeights;

use crate::host::{Host, Peak};
use crate::inputs::{self, Stream};
use crate::metrics::{rate_name, rate_unit, Metric, KERNELS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{err, OpResult, BERT_DIMS, GPT_DIMS, LONGSEQ_DIMS};

/// Calls per kernel: at least `MIN_REPS`, carrying on until `MIN_SAMPLE_MS`
/// have been measured or `MAX_REPS` made. A traced run has every per-layer
/// metric to measure inside a few seconds, so the slow kernels get the
/// minimum. The first call warms up and is thrown away, unless it took
/// over `SLOW_CALL_MS`: first-touch cost is a few percent of such a call.
const MIN_REPS: usize = 2;
const MAX_REPS: usize = 25;
const MIN_SAMPLE_MS: f64 = 60.0;
const SLOW_CALL_MS: f64 = 100.0;

/// Wall times (ms) of repeated calls of `f`, each under a span.
fn sample(
    tr: &mut Tracer,
    name: &'static str,
    layer: &'static str,
    mut f: impl FnMut(),
) -> Vec<f64> {
    let mut ms = Vec::with_capacity(MAX_REPS);
    let mut total = 0.0;
    let mut warm = false;
    while ms.len() < MIN_REPS || (total < MIN_SAMPLE_MS && ms.len() < MAX_REPS) {
        let started = Instant::now();
        let span = tr.begin(name, layer);
        f();
        tr.end(span);
        let t = started.elapsed().as_secs_f64() * 1e3;
        if warm || t > SLOW_CALL_MS {
            total += t;
            ms.push(t);
        }
        warm = true;
    }
    ms
}

/// A tensor of the axes in `spec`, sized by `dims` (and `extra` for axes
/// a block does not have), filled uniformly from [-1, 1).
pub fn tensor(
    rng: &mut StdRng,
    spec: &str,
    dims: &EncoderDims,
    extra: &[(char, usize)],
) -> OpResult<Tensor> {
    let mut sizes = dims.size_table();
    sizes.extend_from_slice(extra);
    let shape = Shape::from_spec(spec, &sizes).map_err(err)?;
    Ok(Tensor::random(shape, &Uniform::new(-1.0f32, 1.0), rng))
}

fn buffer(rng: &mut StdRng, len: usize) -> Vec<f32> {
    use rand::Rng;
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// One replayed kernel: its times, and the work one call does.
struct Replayed {
    ms: Vec<f64>,
    flop: f64,
    bytes: f64,
    /// The roofline it is held against: all cores for the kernels the
    /// library threads itself, one otherwise.
    peak: Peak,
}

impl Replayed {
    fn ms_p50(&self) -> f64 {
        median(&self.ms)
    }

    fn push_metrics(&self, kernel: &str, is_flops: bool, out: &mut Vec<Metric>) {
        let seconds = self.ms_p50() / 1e3;
        let n = self.ms.len();
        out.push(Metric::new(
            format!("tensor.{kernel}.ms_p50"),
            self.ms_p50(),
            "ms",
            n,
        ));
        let gflops = self.flop / seconds / 1e9;
        let gbps = self.bytes / seconds / 1e9;
        let rate = if is_flops { gflops } else { gbps };
        out.push(Metric::new(
            rate_name(kernel, is_flops),
            rate,
            rate_unit(is_flops),
            n,
        ));
        // achieved over attainable at this kernel's flop per byte; for a
        // kernel counted in bytes that is achieved over triad bandwidth
        let pct = if is_flops {
            100.0 * gflops / self.peak.attainable_gflops(self.flop / self.bytes)
        } else {
            100.0 * gbps / self.peak.triad_gbps
        };
        out.push(Metric::new(
            format!("tensor.{kernel}.roofline_pct"),
            pct,
            "%",
            n,
        ));
    }
}

/// `c += a·b` through `matmul::sgemm`, `m×k` by `k×n`.
fn replay_sgemm(
    tr: &mut Tracer,
    rng: &mut StdRng,
    host: &Host,
    name: &'static str,
    (m, n, k): (usize, usize, usize),
    calls: usize,
) -> Replayed {
    let (a, b) = (buffer(rng, m * k), buffer(rng, k * n));
    let mut c = vec![0.0f32; m * n];
    let ms = sample(tr, name, "tensor", || {
        for _ in 0..calls {
            sgemm(m, n, k, &a, &b, &mut c);
        }
        std::hint::black_box(&mut c);
    });
    Replayed {
        ms: ms.into_iter().map(|t| t / calls as f64).collect(),
        flop: (2 * m * n * k) as f64,
        bytes: (4 * (m * k + k * n + 2 * m * n)) as f64,
        peak: host.t1,
    }
}

fn replay_batched(
    tr: &mut Tracer,
    rng: &mut StdRng,
    host: &Host,
    name: &'static str,
    (batch, m, n, k): (usize, usize, usize, usize),
) -> Replayed {
    let (a, b) = (buffer(rng, batch * m * k), buffer(rng, batch * k * n));
    let mut c = vec![0.0f32; batch * m * n];
    let ms = sample(tr, name, "tensor", || {
        batched_sgemm(batch, m, n, k, &a, &b, &mut c);
        std::hint::black_box(&mut c);
    });
    Replayed {
        ms,
        flop: (2 * batch * m * n * k) as f64,
        bytes: (4 * batch * (m * k + k * n + 2 * m * n)) as f64,
        // the library threads this one over the vCPUs it may use now
        peak: match std::thread::available_parallelism() {
            Ok(n) if n.get() > 1 => host.tn,
            _ => host.t1,
        },
    }
}

/// An element-wise or normalisation kernel over `x`: reads it, writes as
/// much back.
fn replay_stream(
    tr: &mut Tracer,
    host: &Host,
    name: &'static str,
    x: &Tensor,
    flop_per_element: f64,
    mut f: impl FnMut(&Tensor),
) -> Replayed {
    let ms = sample(tr, name, "tensor", || f(x));
    Replayed {
        ms,
        flop: flop_per_element * x.len() as f64,
        bytes: (8 * x.len()) as f64,
        peak: host.t1,
    }
}

/// What one block spends in its wide GEMMs (stacked Q,K,V / Out / Linear 1
/// / Linear 2) and in its attention core (QKᵀ, scaled softmax, Gamma) at
/// `d`, in ms. Replayed through the calls the block's plan lowers onto —
/// `einsum` with the graph's own specs, which pays the operand packing a
/// raw GEMM call does not, and the fused `sm` kernel — so the two sums can
/// be held against the block's own forward time.
fn block_regimes(
    tr: &mut Tracer,
    rng: &mut StdRng,
    d: &EncoderDims,
    causal: bool,
) -> OpResult<((f64, usize), (f64, usize))> {
    // `w` is the value projection width (= p), `s` the stacked Q,K,V rows
    let extra = [('w', d.p), ('s', 3 * d.p)];
    let mut contraction = |name, spec: &str, a: &str, b: &str| -> OpResult<Vec<f64>> {
        let (a, b) = (tensor(rng, a, d, &extra)?, tensor(rng, b, d, &extra)?);
        Ok(sample(tr, name, "tensor", || {
            std::hint::black_box(einsum(spec, &[&a, &b]).is_ok());
        }))
    };
    let wide = [
        contraction("tensor.einsum_qkv", "shi,ibj->shbj", "shi", "ibj")?,
        contraction("tensor.einsum_out", "whi,whbj->ibj", "whi", "whbj")?,
        contraction("tensor.einsum_ffn1", "ui,ibj->ubj", "ui", "ibj")?,
        contraction("tensor.einsum_ffn2", "iu,ubj->ibj", "iu", "ubj")?,
    ];
    let qkt = contraction("tensor.einsum_qkt", "phbk,phbj->hbjk", "phbk", "phbj")?;
    let gamma = contraction("tensor.einsum_gamma", "whbk,hbjk->whbj", "whbk", "hbjk")?;
    let scores = tensor(rng, "hbjk", d, &[])?;
    let scaler = 1.0 / (d.p as f32).sqrt();
    let mut draws = inputs::rng(0, Stream::Dropout);
    let sm = sample(tr, "tensor.fused_sm", "tensor", || {
        let out = if causal {
            fused::sm_causal(&scores, scaler, Axis('j'), Axis('k'), 0.0, &mut draws)
        } else {
            fused::sm(&scores, scaler, Axis('k'), 0.0, &mut draws)
        };
        std::hint::black_box(out.is_ok());
    });
    let total = |parts: &[&Vec<f64>]| {
        (
            parts.iter().map(|ms| median(ms)).sum(),
            parts.iter().map(|ms| ms.len()).min().unwrap_or(0),
        )
    };
    let wide: Vec<&Vec<f64>> = wide.iter().collect();
    Ok((total(&wide), total(&[&qkt, &sm, &gamma])))
}

/// Replays the `tensor` kernels: the ten named ones at their home shapes,
/// then one block's wide GEMMs and attention core at both forward shapes
/// (the regime separation the two forward workloads rest on).
pub fn tensor_kernels(
    tr: &mut Tracer,
    host: &Host,
    seed: u64,
    out: &mut Vec<Metric>,
) -> OpResult<()> {
    let rng = &mut inputs::rng(seed, Stream::Tokens);
    let (bert, long, gpt) = (BERT_DIMS, LONGSEQ_DIMS, GPT_DIMS);
    let vocab = [('v', 2048)];

    // the raw kernels, at the shape of the workload each matters most to
    let n = bert.b * bert.j;
    let ffn = replay_sgemm(tr, rng, host, "tensor.sgemm_ffn", (bert.u, n, bert.i), 1);
    let heads = long.h * long.b;
    let qkt = replay_batched(
        tr,
        rng,
        host,
        "tensor.batched_sgemm_qkt",
        (heads, long.j, long.k, long.p),
    );
    let gamma = replay_batched(
        tr,
        rng,
        host,
        "tensor.batched_sgemm_gamma",
        (heads, long.j, long.p, long.k),
    );
    let scores = tensor(rng, "hbjk", &long, &[])?;
    let softmax_attn = replay_stream(tr, host, "tensor.softmax_attn", &scores, 5.0, |x| {
        std::hint::black_box(softmax(x, Axis('k')).is_ok());
    });
    drop(scores);
    let head = tensor(rng, "vi", &bert, &vocab)?;
    let hidden = tensor(rng, "ibj", &bert, &[])?;
    let einsum_head = Replayed {
        ms: sample(tr, "tensor.einsum_head", "tensor", || {
            std::hint::black_box(einsum("vi,ibj->vbj", &[&head, &hidden]).is_ok());
        }),
        flop: (2 * head.len() * bert.b * bert.j) as f64,
        bytes: (4 * (head.len() + hidden.len() + 2048 * bert.b * bert.j)) as f64,
        peak: host.t1,
    };
    // a decode step's matrix-vector product through the GEMM kernel; 50
    // calls to a sample so the clock can resolve them
    let gemv = replay_sgemm(tr, rng, host, "tensor.sgemm_gemv", (gpt.u, 1, gpt.i), 50);
    let logits = tensor(rng, "vbj", &bert, &vocab)?;
    let softmax_vocab = replay_stream(tr, host, "tensor.softmax_vocab", &logits, 5.0, |x| {
        std::hint::black_box(softmax(x, Axis('v')).is_ok());
    });
    let (gain, shift) = (tensor(rng, "i", &bert, &[])?, tensor(rng, "i", &bert, &[])?);
    let norm = replay_stream(tr, host, "tensor.layernorm", &hidden, 8.0, |x| {
        std::hint::black_box(layernorm(x, Axis('i'), &gain, &shift).is_ok());
    });
    let wide = tensor(rng, "ubj", &bert, &[])?;
    let bias = tensor(rng, "u", &bert, &[])?;
    // GELU, the activation the decoder blocks of two workloads run
    let bias_act = replay_stream(tr, host, "tensor.bias_act", &wide, 10.0, |x| {
        let biased = bias_add(x, &bias);
        std::hint::black_box(biased.map(|b| activate(&b, ActivationKind::Gelu)).is_ok());
    });
    let mut drops = inputs::rng(seed, Stream::Dropout);
    let dropped = replay_stream(tr, host, "tensor.dropout", &wide, 1.0, |x| {
        std::hint::black_box(dropout(x, 0.1, &mut drops));
    });

    let named: [&Replayed; 10] = [
        &ffn,
        &einsum_head,
        &qkt,
        &gamma,
        &gemv,
        &softmax_attn,
        &softmax_vocab,
        &norm,
        &bias_act,
        &dropped,
    ];
    for ((kernel, is_flops), replayed) in KERNELS.iter().zip(named) {
        replayed.push_metrics(kernel, *is_flops, out);
    }
    for (workload, d, causal) in [("bert_fwd", &bert, false), ("longseq_fwd", &long, true)] {
        let ((wide_ms, wide_n), (attn_ms, attn_n)) = block_regimes(tr, rng, d, causal)?;
        out.push(Metric::new(
            format!("tensor.wide_gemm.{workload}.ms_p50"),
            wide_ms,
            "ms",
            wide_n,
        ));
        out.push(Metric::new(
            format!("tensor.attn_core.{workload}.ms_p50"),
            attn_ms,
            "ms",
            attn_n,
        ));
    }
    Ok(())
}

/// Samples one forward entry point under the span `name` and reports it as
/// `<name>_ms_p50`.
fn entry_point(
    tr: &mut Tracer,
    out: &mut Vec<Metric>,
    name: &'static str,
    mut call: impl FnMut() -> substation::tensor::Result<()>,
) -> OpResult<()> {
    let mut failed = None;
    let ms = sample(tr, name, "transformer", || {
        if let Err(e) = call() {
            failed.get_or_insert(e.to_string());
        }
    });
    out.push(Metric::new(
        format!("{name}_ms_p50"),
        median(&ms),
        "ms",
        ms.len(),
    ));
    failed.map_or(Ok(()), Err)
}

/// One block's forward entry points at the `bert_fwd` dims, and the
/// decoder block at the `longseq_fwd` dims. The allocating `forward` the
/// model itself calls is read from the `bert_fwd` scene's spans instead.
pub fn layer_entry_points(tr: &mut Tracer, seed: u64, out: &mut Vec<Metric>) -> OpResult<()> {
    let rng = &mut inputs::rng(seed, Stream::Weights);
    let opts = ExecOptions::builder().threads(1).seed(seed).build();
    let d = BERT_DIMS;
    let x = tensor(rng, "ibj", &d, &[])?;
    let w = EncoderWeights::init(&d, rng);
    let mut y = Tensor::zeros(x.shape().clone());
    let layer = |executor| EncoderLayer::new(d, executor, 0.0);
    let fused = layer(Executor::Fused);
    entry_point(tr, out, "transformer.layer.forward_into", || {
        fused.forward_into(&x, &w, &opts, &mut y)
    })?;
    let reference = layer(Executor::Reference);
    entry_point(tr, out, "transformer.layer.ref_forward", || {
        reference.forward(&x, &w, &opts).map(drop)
    })?;
    let epilogue = layer(Executor::Epilogue);
    entry_point(tr, out, "transformer.layer.epilogue_forward_into", || {
        epilogue.forward_into(&x, &w, &opts, &mut y)
    })?;
    let d = LONGSEQ_DIMS;
    let x = tensor(rng, "ibj", &d, &[])?;
    let w = EncoderWeights::init(&d, rng);
    let decoder = DecoderLayer::new(d, 0.0);
    entry_point(tr, out, "transformer.layer.longseq_forward", || {
        decoder.forward(&x, &w, &opts).map(drop)
    })
}
