//! Bitwise pins across kernel-layer refactors: FNV-1a digests of every
//! output, saved activation, layer-norm statistic and RNG end state of the
//! layer forwards, a streaming decode, and the allocating kernels on
//! permuted layouts — recorded at a parent commit and held fixed (the
//! `decode` and `kernels/*` rows in PR 12; the layer rows, one per route
//! and thread count, in PR 14 as a test-only commit on PR 13's library;
//! the `grad/*` rows over the eager backward passes in PR 18, likewise on
//! PR 17's library; the `kernels-bwd/*` rows over the backward kernels in
//! PR 19, on PR 18's library). In PR 20 the layer rows were re-keyed, again
//! test-only on PR 19's library: the `[h,b,j,k]` containers of the
//! attention core (`beta`, `att`, `alpha`, `att_mask`) are hashed into
//! sibling `forward-sm` / `reference-sm` rows, apart from everything else,
//! so a plan that stops materializing them loses those rows and moves no
//! other. In PR 21 the `decode/b1-wide` row joined `decode`, test-only on
//! PR 20's library, ahead of the executor reading weights where they live.
//! In PR 22 the table's *partition* was pinned beside it, test-only on PR
//! 21's library: the kernel layer's one vector `exp` re-records every row
//! with a softmax or a GELU in it, once, and the pin holds which rows are
//! equal to which through that (`tests/numerics_envelope.rs` holds how far
//! the values themselves may go). In PR 23 the `gemm/edges` row joined,
//! test-only on PR 22's library (and `PARTITION`, which hashes row names,
//! was re-recorded with it): the GEMM's block, tile and panel edges ahead
//! of a micro-kernel that packs A. The `model/probs-*` rows joined last,
//! test-only on the library whose head was still three allocating passes:
//! `probs` hashed in logical order, ahead of it being stored as the head
//! plan writes it. The `tile/*` rows joined after them, test-only on the
//! library whose GEMM epilogue and attention region were still two kernel
//! classes (and `PARTITION` with them): every plan that runs either, on the
//! arena and under the reference interpreter, natural and re-laid out.
//! The `kernels/layout1` … `kernels/layout5` rows were re-recorded once,
//! when `ops::dropout` stopped drawing in storage order and took the
//! logical order every other dropout draws in. Then every digest was
//! re-recorded once, `PARTITION` unedited, when the GEMM's micro-kernel
//! took up one fused multiply-add per product (the deep rows of
//! `tests/numerics_envelope.rs` recorded on the library before it, and held
//! unedited through it). The `grad/*` rows of the layers and the models were
//! re-recorded once, test-only on the library that still stored `wq`, `wk`
//! and `wv` apart, when their gradients came to be hashed as the one
//! stacked `w_qkv` container (`shi`, then Q, K, V) the weights store now.
//! The four `grad/mha/*` rows left the table (and `PARTITION`, which hashes
//! row names, was re-recorded), test-only on the library that still had a
//! standalone eager attention forward, ahead of its deletion.
//! The encoder rows (`enc/*`, `grad/enc-reference/*`, `tile/enc-*`) and
//! `PARTITION` were re-recorded once, test-only on the library whose run
//! options still chose the activation, when they came to run the encoder
//! as it ships, on ReLU, ahead of the graph carrying its own activation.
//! A digest that moves means
//! arithmetic, output layout, stats order or RNG draw order changed
//! somewhere under the public API.
//!
//! On a mismatch the test prints the full table it computed, in source
//! form, so an *intended* change can re-record it.

mod common;

use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use substation::core::arena;
use substation::core::plan::{
    execute_plan, random_externals, ExecOptions, ExecState, ExecutionPlan,
};
use substation::dataflow::EncoderDims;
use substation::tensor::fused::{self, BdrlnOutput, BrdOutput, SmOutput};
use substation::tensor::matmul::{gemm, pack_panels, panel_words, MatMut, MatRef, Rhs, Start, KC};
use substation::tensor::ops::dropout::{dropout, dropout_backward};
use substation::tensor::ops::elementwise::{
    activate_backward, add, bias_add, bias_grad,
    ActivationKind::{Gelu, Relu},
};
use substation::tensor::ops::layernorm::{
    layernorm, layernorm_backward_input, layernorm_backward_weights, LayerNormStats,
};
use substation::tensor::ops::softmax::{softmax, softmax_backward};
use substation::tensor::{Axis, Layout, Shape, Tensor};
use substation::transformer::decode::{DecodeOptions, DecodeSession, Sampling};
use substation::transformer::decoder::DecoderLayer;
use substation::transformer::encoder::{EncoderLayer, Executor};
use substation::transformer::interp::{self, PlanKind, Saved};
use substation::transformer::model::{BlockKind, ModelConfig, TransformerModel};
use substation::transformer::params::{EncoderGrads, EncoderWeights};

/// FNV-1a over 32-bit words (f32 bit patterns, little-endian bytes).
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn slice(&mut self, xs: &[f32]) {
        self.word(xs.len() as u32);
        for x in xs {
            self.word(x.to_bits());
        }
    }
    /// Physical buffer plus the layout that addresses it.
    fn tensor(&mut self, t: &Tensor) {
        for c in t.layout().spec(t.shape()).bytes() {
            self.word(u32::from(c));
        }
        self.slice(t.data());
    }
    fn stats(&mut self, s: &LayerNormStats) {
        self.slice(&s.mean);
        self.slice(&s.inv_std);
    }
    fn sm(&mut self, s: &SmOutput) {
        self.tensor(&s.alpha);
        self.tensor(&s.softmax);
        self.tensor(&s.mask);
    }
    fn brd(&mut self, b: &BrdOutput) {
        self.tensor(&b.out);
        self.tensor(&b.pre_activation);
        self.tensor(&b.mask);
    }
    fn bdrln(&mut self, l: &BdrlnOutput) {
        self.tensor(&l.out);
        self.tensor(&l.ln_input);
        self.tensor(&l.mask);
        self.stats(&l.stats);
    }
    fn rng(&mut self, rng: &mut StdRng) {
        let s = rng.next_u64();
        self.word(s as u32);
        self.word((s >> 32) as u32);
    }
}

/// The names of `a` into `h`, in the order given.
fn named(h: &mut Fnv, a: &Saved, names: &[&str]) {
    for n in names {
        h.tensor(a.tensor(n).unwrap());
    }
}

/// The softmax bundle, where the forward kept one, into `sm`: `alpha`,
/// `att`, `att_mask`, the order the bundle was always hashed in.
fn kept_softmax(sm: &mut Fnv, a: &Saved) {
    if a.tensors.contains_key("att") {
        named(sm, a, &["alpha", "att", "att_mask"]);
    }
}

/// Everything saved but the softmax bundle, which — where the forward
/// kept one — goes to `sm`; `y` again where the second norm's output was
/// hashed.
fn encoder_acts(h: &mut Fnv, sm: &mut Fnv, y: &Tensor, a: &Saved) {
    named(h, a, &["qq", "kk", "vv", "gamma"]);
    kept_softmax(sm, a);
    named(h, a, &["ln1_out", "ln1_in", "drop1_mask"]);
    h.stats(&a.stats["ln1_out"]);
    named(h, a, &["ff1_drop", "ff1_b", "drop2_mask"]);
    h.tensor(y);
    named(h, a, &["ln2_in", "drop3_mask"]);
    h.stats(&a.stats["y"]);
}

/// Everything saved but the softmax bundle, which — where the forward
/// kept one — goes to `sm`.
fn decoder_acts(h: &mut Fnv, sm: &mut Fnv, a: &Saved) {
    named(
        h,
        a,
        &[
            "ln1_out",
            "qq",
            "kk",
            "vv",
            "gamma",
            "drop1_mask",
            "res1",
            "ln2_out",
            "drop3_mask",
        ],
    );
    h.stats(&a.stats["ln1_out"]);
    h.stats(&a.stats["ln2_out"]);
    kept_softmax(sm, a);
    named(h, a, &["ff1_drop", "ff1_b", "drop2_mask"]);
}

/// `tiny` plus a shape with no two extents equal.
fn shapes() -> [EncoderDims; 2] {
    [
        EncoderDims::tiny(),
        EncoderDims {
            b: 3,
            j: 5,
            k: 5,
            h: 2,
            p: 4,
            i: 8,
            u: 7,
        },
    ]
}

const THREADS: [usize; 2] = [1, 2];

enum Block {
    Enc(EncoderLayer),
    Dec(DecoderLayer),
}

impl Block {
    /// `forward` (output + saved activations into `h`, the softmax bundle
    /// into `sm`) or, with `into`, `forward_into`.
    fn run(
        &self,
        x: &Tensor,
        w: &EncoderWeights,
        opts: &ExecOptions,
        into: Option<&mut Tensor>,
        (h, sm): (&mut Fnv, &mut Fnv),
    ) {
        match (self, into) {
            (Block::Enc(l), Some(y)) => l.forward_into(x, w, opts, y).unwrap(),
            (Block::Dec(l), Some(y)) => l.forward_into(x, w, opts, y).unwrap(),
            (Block::Enc(l), None) => {
                let (y, a) = l.forward(x, w, opts).unwrap().into_pair().unwrap();
                h.tensor(&y);
                encoder_acts(h, sm, &y, &a);
            }
            (Block::Dec(l), None) => {
                let (y, a) = l.forward(x, w, opts).unwrap().into_pair().unwrap();
                h.tensor(&y);
                decoder_acts(h, sm, &a);
            }
        }
    }
}

/// The `[h,b,j,k]` containers of the attention core, hashed apart.
const SM_CONTAINERS: [&str; 4] = ["beta", "att", "alpha", "att_mask"];

/// Every container and layer-norm statistic an interpreter environment
/// holds, in name order; the [`SM_CONTAINERS`] into `sm`.
fn state_digest(h: &mut Fnv, sm: &mut Fnv, state: &ExecState) {
    let mut names: Vec<&String> = state.env.keys().collect();
    names.sort();
    for n in names {
        let apart = SM_CONTAINERS.contains(&n.as_str());
        (if apart { &mut *sm } else { &mut *h }).tensor(&state.env[n]);
    }
    let mut names: Vec<&String> = state.stats.keys().collect();
    names.sort();
    for n in names {
        h.stats(&state.stats[n]);
    }
}

/// The reference interpreter called directly on the layer's canned plan,
/// `knobs` being what the layer would merge in, on its one RNG stream
/// seeded by `seed`.
fn reference_leg(
    pf: &interp::PlannedForward,
    x: &Tensor,
    w: &EncoderWeights,
    knobs: &ExecOptions,
    seed: u64,
    (h, sm): (&mut Fnv, &mut Fnv),
) {
    let mut state = interp::bind_inputs(x, w);
    let mut rng = StdRng::seed_from_u64(seed);
    execute_plan(&pf.graph, &pf.plan, &mut state, knobs, &mut rng).unwrap();
    state_digest(h, sm, &state);
}

/// One row per (layer kind, shape, p) and per leg: `forward` with its saved
/// activations and `forward_into`, each at `threads ∈ {1, 2}`, and the
/// (serial) reference interpreter called directly on the same canned plan.
/// A leg that materializes any of the [`SM_CONTAINERS`] has a sibling `-sm`
/// row over them alone; a leg that materializes none has no such row.
/// The `reference/t2` rows recorded with the others pinned the
/// environment wave interpreter and went with it in PR 14.
fn layer_digests(table: &mut Vec<(String, u64)>) {
    const SEED: u64 = 17;
    for (di, dims) in shapes().iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(41);
        let w = EncoderWeights::init(dims, &mut rng);
        let ibj = Shape::from_spec("ibj", &dims.size_table()).unwrap();
        let x = Tensor::random(ibj.clone(), &Uniform::new(-1.0, 1.0), &mut rng);
        for p in [0.0f32, 0.1] {
            let knobs = ExecOptions::builder().dropout_p(p).build();
            let enc = |e| Block::Enc(EncoderLayer::new(*dims, e, p));
            let dec = DecoderLayer::new(*dims, p);
            let kinds = [
                (
                    "enc/Reference",
                    PlanKind::EncoderReference,
                    enc(Executor::Reference),
                ),
                ("enc/Fused", PlanKind::EncoderFused, enc(Executor::Fused)),
                (
                    "enc/Epilogue",
                    PlanKind::EncoderEpilogue,
                    enc(Executor::Epilogue),
                ),
                ("dec/fused", PlanKind::DecoderFused, Block::Dec(dec.clone())),
                (
                    "dec/epilogue",
                    PlanKind::DecoderEpilogue,
                    Block::Dec(dec.with_epilogue()),
                ),
            ];
            for (name, kind, block) in kinds {
                let pf = interp::cached_plan(dims, kind).unwrap();
                let mut row = |leg: &str, threads: usize, h: Fnv| {
                    table.push((format!("{name}/shape{di}/p{p}/{leg}/t{threads}"), h.0));
                };
                // the leg's row, then its `-sm` sibling if anything went there
                let mut rows = |leg: &str, threads: usize, (h, sm): (Fnv, Fnv)| {
                    row(leg, threads, h);
                    if sm.0 != Fnv::new().0 {
                        row(&format!("{leg}-sm"), threads, sm);
                    }
                };
                for threads in THREADS {
                    let opts = ExecOptions::builder().threads(threads).seed(SEED).build();
                    let (mut h, mut sm) = (Fnv::new(), Fnv::new());
                    block.run(&x, &w, &opts, None, (&mut h, &mut sm));
                    rows("forward", threads, (h, sm));
                    let (mut h, mut sm) = (Fnv::new(), Fnv::new());
                    let mut y = Tensor::zeros(ibj.clone());
                    block.run(&x, &w, &opts, Some(&mut y), (&mut h, &mut sm));
                    h.tensor(&y);
                    rows("forward_into", threads, (h, sm));
                }
                let (mut h, mut sm) = (Fnv::new(), Fnv::new());
                reference_leg(&pf, &x, &w, &knobs, SEED, (&mut h, &mut sm));
                rows("reference", 1, (h, sm));
            }
        }
    }
}

/// Prefill + 8 temperature-sampled steps at prefill `threads ∈ {1, 2}`;
/// the digest folds in every logit column, every sampled token and the
/// sampling RNG's end state. Two rows: `decode` at b = 2, i = 8, and
/// `decode/b1-wide` at b = 1, i = 264 — one token column is the GEMM's
/// `n == 1` transposed path, and an embedding deeper than one `KC` block
/// stores and reloads its accumulators between depth blocks; the first row
/// reaches neither. Both run bucket 4 from a 5-token prompt: capacity 8,
/// grown at positions 8 and 12.
fn decode_digests(table: &mut Vec<(String, u64)>) {
    let narrow = EncoderDims {
        b: 2,
        j: 16,
        k: 16,
        h: 2,
        p: 4,
        i: 8,
        u: 16,
    };
    let wide = EncoderDims {
        b: 1,
        h: 4,
        p: 66,
        i: 264,
        u: 40,
        ..narrow
    };
    decode_row(table, "decode", narrow, 13);
    decode_row(table, "decode/b1-wide", wide, 37);
}

fn decode_row(table: &mut Vec<(String, u64)>, name: &str, dims: EncoderDims, vocab: usize) {
    let cfg = ModelConfig {
        dims,
        layers: 2,
        vocab,
        block: BlockKind::Decoder,
        dropout_p: 0.0,
    };
    let model = TransformerModel::init(cfg, &mut StdRng::seed_from_u64(0xDEC0DE)).unwrap();
    let prompt: Vec<Vec<usize>> = (0..dims.b)
        .map(|b| (0..5).map(|j| (3 * b + 5 * j + 1) % vocab).collect())
        .collect();
    let mut h = Fnv::new();
    for threads in THREADS {
        let opts = DecodeOptions {
            threads,
            seed: 99,
            bucket: Some(4),
        };
        let mut sess = DecodeSession::new(&model, opts).unwrap();
        h.tensor(&sess.prefill(&prompt).unwrap());
        let mut toks = vec![0usize; dims.b];
        for _ in 0..8 {
            let sampling = Sampling::Temperature {
                temperature: 0.8,
                top_k: Some(5),
            };
            sess.sample(sampling, &mut toks).unwrap();
            for &t in &toks {
                h.word(t as u32);
            }
            h.tensor(sess.advance(&toks).unwrap());
        }
        let fp = sess.rng_fingerprint();
        h.word(fp as u32);
        h.word((fp >> 32) as u32);
    }
    table.push((name.to_string(), h.0));
}

/// The allocating kernels called directly, one row per layout of a rank-3
/// operand at `p ∈ {0, 0.3}`: output layout, per-operand strides, stats
/// order and RNG draw order of the logical-order drivers.
fn kernel_digests(table: &mut Vec<(String, u64)>) {
    let sizes = [('b', 2), ('j', 3), ('k', 4), ('i', 5), ('u', 6)];
    let rand_t = |spec: &str, seed: u64| -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = Shape::from_spec(spec, &sizes).unwrap();
        Tensor::random(shape, &Uniform::new(-2.0, 2.0), &mut rng)
    };
    let (xk, xi, xu) = (rand_t("bjk", 1), rand_t("bji", 2), rand_t("bju", 3));
    // the residual keeps its own (row-major) layout: per-operand strides
    let (res, bias_i, bias_u) = (rand_t("bji", 4), rand_t("i", 5), rand_t("u", 6));
    let bias_ji = rand_t("ji", 7);
    let (gamma, beta) = (rand_t("i", 8), rand_t("i", 9));
    let (j, k, i) = (Axis('j'), Axis('k'), Axis('i'));
    for (li, layout) in Layout::all(3).iter().enumerate() {
        let (xk, xi, xu) = (
            xk.relayout(layout),
            xi.relayout(layout),
            xu.relayout(layout),
        );
        let mut h = Fnv::new();
        h.tensor(&softmax(&xk, k).unwrap());
        let (y, stats) = layernorm(&xi, i, &gamma, &beta).unwrap();
        h.tensor(&y);
        h.stats(&stats);
        h.tensor(&bias_add(&xi, &bias_ji).unwrap());
        for p in [0.0f32, 0.3] {
            let mut rng = StdRng::seed_from_u64(77);
            h.sm(&fused::sm(&xk, 0.5, k, p, &mut rng).unwrap());
            h.rng(&mut rng);
            h.sm(&fused::sm_causal_at(&xk, 0.5, j, k, p, &mut rng, 1).unwrap());
            h.rng(&mut rng);
            h.brd(&fused::brd_act(&xu, &bias_u, Gelu, p, &mut rng).unwrap());
            h.rng(&mut rng);
            for bias in [&bias_i, &bias_ji] {
                h.bdrln(&fused::bdrln(&xi, bias, &res, &gamma, &beta, i, p, &mut rng).unwrap());
                h.rng(&mut rng);
            }
            let (out, mask) = dropout(&xu, p, &mut rng);
            h.tensor(&out);
            h.tensor(&mask);
            h.rng(&mut rng);
        }
        table.push((format!("kernels/layout{li}"), h.0));
    }
}

/// The allocating backward kernels called directly, one row per layout of a
/// rank-3 operand: every kernel once per tensor operand with that operand
/// alone permuted (the others stay row-major, so each reads through its own
/// strides and the output-layout convention shows), then once with all of
/// them permuted. Outputs — dX and every dW — in storage order with their
/// layouts; the saved statistics are those of the natural-layout forward.
/// Recorded before the backward kernels moved onto the lane enumerator.
fn kernel_bwd_digests(table: &mut Vec<(String, u64)>) {
    let sizes = [('b', 2), ('j', 3), ('k', 4), ('i', 5), ('u', 6)];
    let rand_t = |spec: &str, seed: u64| -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = Shape::from_spec(spec, &sizes).unwrap();
        Tensor::random(shape, &Uniform::new(-2.0, 2.0), &mut rng)
    };
    // a dropout mask at p = 0.3: zeros and 1/(1-p)
    let mask_t = |spec: &str, seed: u64| -> Tensor {
        dropout(&rand_t(spec, seed), 0.3, &mut StdRng::seed_from_u64(seed)).1
    };
    let (j, k, i, u) = (Axis('j'), Axis('k'), Axis('i'), Axis('u'));
    let (gk, mk) = (rand_t("bjk", 21), mask_t("bjk", 22));
    let yk = softmax(&rand_t("bjk", 23), k).unwrap();
    let (gi, gi2, xi, mi) = (
        rand_t("bji", 24),
        rand_t("bji", 25),
        rand_t("bji", 26),
        mask_t("bji", 27),
    );
    let (gamma, beta) = (rand_t("i", 28), rand_t("i", 29));
    let (_, stats) = layernorm(&xi, i, &gamma, &beta).unwrap();
    let (gu, mu, pu) = (rand_t("bju", 30), mask_t("bju", 31), rand_t("bju", 32));
    for (li, layout) in Layout::all(3).iter().enumerate() {
        let mut h = Fnv::new();
        // operand `n` of a kernel on its `which`-th call
        for which in 0..=3usize {
            let at = |n: usize, t: &Tensor| -> Tensor {
                if which == n || which == 3 {
                    t.relayout(layout)
                } else {
                    t.clone()
                }
            };
            h.tensor(&softmax_backward(&at(0, &gk), &at(1, &yk), k).unwrap());
            let (dy, x) = (at(0, &gi), at(1, &xi));
            h.tensor(&layernorm_backward_input(&dy, &x, i, &gamma, &stats).unwrap());
            let (dgamma, dbeta) = layernorm_backward_weights(&dy, &x, i, &stats).unwrap();
            h.tensor(&dgamma);
            h.tensor(&dbeta);
            h.tensor(&dropout_backward(&at(0, &gu), &at(1, &mu)).unwrap());
            for kind in [Relu, Gelu] {
                h.tensor(&activate_backward(&at(0, &gu), &at(1, &pu), kind).unwrap());
            }
            h.tensor(&bias_grad(&at(0, &gu), &[u]).unwrap());
            h.tensor(&bias_grad(&at(0, &gu), &[j, u]).unwrap());
            // `zip_map` across two layouts
            h.tensor(&add(&at(0, &gi), &at(1, &gi2)).unwrap());
            h.tensor(&fused::bs(&at(0, &gk), &at(1, &mk), &at(2, &yk), k, 0.5).unwrap());
            let (dx, dx_ln) =
                fused::blnrd(&at(0, &gi), &at(1, &xi), &gamma, &at(2, &mi), i, &stats).unwrap();
            h.tensor(&dx);
            h.tensor(&dx_ln);
            let (dsum, dgamma, dbeta) =
                fused::ebsb(&at(0, &gi), &at(1, &gi2), &at(2, &xi), i, &stats).unwrap();
            for t in [&dsum, &dgamma, &dbeta] {
                h.tensor(t);
            }
            for (kind, axes) in [(Relu, &[u][..]), (Gelu, &[j, u][..])] {
                let (dx, dbias) =
                    fused::bdrb_act(&at(0, &gu), &at(1, &mu), &at(2, &pu), kind, axes).unwrap();
                h.tensor(&dx);
                h.tensor(&dbias);
            }
        }
        table.push((format!("kernels-bwd/layout{li}"), h.0));
    }
}

/// The eager backward passes: one row per (caller, shape, p) over `dx` and
/// every weight gradient — both arms of `EncoderLayer::backward` (the fused
/// one on the layer's default ReLU, the reference one on GELU), the decoder
/// block, and the whole model through both block kinds
/// (loss, embedding, head and per-block gradients). Recorded before the
/// attention and feed-forward chains were factored into one helper each.
fn grad_digests(table: &mut Vec<(String, u64)>) {
    const SEED: u64 = 23;
    fn grads(h: &mut Fnv, g: &EncoderGrads) {
        for (_, t) in g.fields() {
            h.tensor(t);
        }
    }
    for (di, dims) in shapes().iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(43);
        let w = EncoderWeights::init(dims, &mut rng);
        let ibj = Shape::from_spec("ibj", &dims.size_table()).unwrap();
        let unit = Uniform::new(-1.0, 1.0);
        let x = Tensor::random(ibj.clone(), &unit, &mut rng);
        let dy = Tensor::random(ibj.clone(), &unit, &mut rng);
        let opts = ExecOptions::builder().seed(SEED).build();
        for p in [0.0f32, 0.1] {
            let mut row = |name: &str, h: Fnv| {
                table.push((format!("grad/{name}/shape{di}/p{p}"), h.0));
            };
            for (name, layer) in [
                ("enc-fused", EncoderLayer::new(*dims, Executor::Fused, p)),
                (
                    "enc-reference",
                    EncoderLayer::new(*dims, Executor::Reference, p),
                ),
            ] {
                let (_, a) = layer.forward(&x, &w, &opts).unwrap().into_pair().unwrap();
                let (dx, g) = layer
                    .backward(&dy, &x, &w, &a, &ExecOptions::default())
                    .unwrap();
                let mut h = Fnv::new();
                h.tensor(&dx);
                grads(&mut h, &g);
                row(name, h);
            }
            {
                let layer = DecoderLayer::new(*dims, p);
                let (_, a) = layer.forward(&x, &w, &opts).unwrap().into_pair().unwrap();
                let (dx, g) = layer
                    .backward(&dy, &x, &w, &a, &ExecOptions::default())
                    .unwrap();
                let mut h = Fnv::new();
                h.tensor(&dx);
                grads(&mut h, &g);
                row("dec", h);
            }
            for (name, block) in [
                ("model-enc", BlockKind::Encoder),
                ("model-dec", BlockKind::Decoder),
            ] {
                let vocab = 11;
                let cfg = ModelConfig {
                    dims: *dims,
                    layers: 2,
                    vocab,
                    block,
                    dropout_p: p,
                };
                let model = TransformerModel::init(cfg, &mut StdRng::seed_from_u64(47)).unwrap();
                let ids = |mul: usize| -> Vec<Vec<usize>> {
                    (0..dims.b)
                        .map(|b| (0..dims.j).map(|j| (mul * b + 5 * j + 1) % vocab).collect())
                        .collect()
                };
                let (tokens, targets) = (ids(3), ids(7));
                let acts = model
                    .forward(&tokens, &mut StdRng::seed_from_u64(SEED))
                    .unwrap();
                let g = model.backward(&tokens, &targets, &acts).unwrap();
                let mut h = Fnv::new();
                h.word(model.cross_entropy(&acts, &targets).unwrap().to_bits());
                for t in [&g.embedding, &g.positional, &g.head, &g.head_bias] {
                    h.tensor(t);
                }
                for b in &g.blocks {
                    grads(&mut h, b);
                }
                row(name, h);
            }
        }
    }
}

/// The GEMM called directly over the `MC`/`MR`/`KC`/`NR` edges the layer
/// rows do not reach: one row, `gemm/edges`, hashing C (in logical order)
/// over every m × n × k below, A {row-major, transposed, both strides ≠ 1}
/// × B {row-major, transposed; C stored the way B is} × both [`Start`]s ×
/// {`gemm` over B strided, over B's [`pack_panels`] pack, and — from zero
/// only — over the pack's leading corner of its whole `KC` blocks, or all
/// of a pack no deeper than one}.
fn gemm_edge_digests(table: &mut Vec<(String, u64)>) {
    const MS: [usize; 6] = [1, 3, 63, 64, 65, 130];
    const NS: [usize; 5] = [1, 15, 16, 17, 40];
    const KS: [usize; 5] = [1, 255, 256, 257, 600];
    let mut rng = StdRng::seed_from_u64(0x6e44);
    let mut vals =
        |len: usize| -> Vec<f32> { (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect() };
    let (av, bv, cv) = (vals(130 * 600), vals(600 * 40), vals(130 * 40));
    // `rows×cols` of `vals` (row-major, `ld` words a row) behind strides
    let store = |vals: &[f32], ld: usize, rows: usize, cols: usize, (rs, cs): (usize, usize)| {
        let mut data = vec![f32::NAN; (rows - 1) * rs + (cols - 1) * cs + 1];
        for r in 0..rows {
            for c in 0..cols {
                data[r * rs + c * cs] = vals[r * ld + c];
            }
        }
        data
    };
    let mut h = Fnv::new();
    for (m, n, k) in MS.iter().flat_map(|&m| {
        NS.iter()
            .flat_map(move |&n| KS.iter().map(move |&k| (m, n, k)))
    }) {
        for a_at in [(k, 1), (1, m), (2 * k + 1, 2)] {
            let a = store(&av, 600, m, k, a_at);
            let a = MatRef::new(&a, a_at.0, a_at.1);
            for (b_at, c_at) in [((n, 1), (n, 1)), ((1, k), (1, m))] {
                let b = store(&bv, 40, k, n, b_at);
                let b = MatRef::new(&b, b_at.0, b_at.1);
                let c0 = store(&cv, 40, m, n, c_at);
                let mut panels = vec![f32::NAN; panel_words(n, k)];
                pack_panels(n, k, b, &mut panels);
                let mut c_of = |run: &dyn Fn(&mut [f32])| {
                    let mut c = c0.clone();
                    run(&mut c);
                    for r in 0..m {
                        for j in 0..n {
                            h.word(c[r * c_at.0 + j * c_at.1].to_bits());
                        }
                    }
                };
                let packed = Rhs::Packed {
                    panels: &panels,
                    pn: n,
                };
                for start in [Start::FromC, Start::FromZero] {
                    c_of(&|c| gemm(m, n, k, a, b, MatMut::new(c, c_at.0, c_at.1), start));
                    c_of(&|c| gemm(m, n, k, a, packed, MatMut::new(c, c_at.0, c_at.1), start));
                }
                let depth = if k > KC { k / KC * KC } else { k };
                c_of(&|c| {
                    let c = MatMut::new(c, c_at.0, c_at.1);
                    gemm(m, n, depth, a, packed, c, Start::FromZero)
                });
            }
        }
    }
    table.push(("gemm/edges".to_string(), h.0));
}

/// The model head through a whole forward, one row per block kind over
/// three shapes: `ModelActs::probs` in logical `[v,b,j]` order — whatever
/// layout it is stored in — then the hidden state and the loss. The shapes are
/// `tiny`; a ragged one (`b·j = 21` fills no power-of-two row tile, a
/// vocabulary of 37 no 16-lane row, and `i = 264` runs two `KC` blocks
/// deep); and a vocabulary of one word. Recorded before the head became a
/// plan of its own.
fn probs_digests(table: &mut Vec<(String, u64)>) {
    let ragged = EncoderDims {
        b: 3,
        j: 7,
        k: 7,
        h: 4,
        p: 66,
        i: 264,
        u: 24,
    };
    let tiny = EncoderDims::tiny();
    for (name, block) in [
        ("model/probs-enc", BlockKind::Encoder),
        ("model/probs-dec", BlockKind::Decoder),
    ] {
        let mut h = Fnv::new();
        for (dims, vocab) in [(tiny, 11), (ragged, 37), (tiny, 1)] {
            let cfg = ModelConfig {
                dims,
                layers: 2,
                vocab,
                block,
                dropout_p: 0.1,
            };
            let model = TransformerModel::init(cfg, &mut StdRng::seed_from_u64(53)).unwrap();
            let ids = |mul: usize| -> Vec<Vec<usize>> {
                (0..dims.b)
                    .map(|b| (0..dims.j).map(|j| (mul * b + 5 * j + 1) % vocab).collect())
                    .collect()
            };
            let acts = model
                .forward(&ids(3), &mut StdRng::seed_from_u64(29))
                .unwrap();
            for (_, p) in acts.probs.iter() {
                h.word(p.to_bits());
            }
            h.tensor(acts.block_inputs.last().unwrap());
            h.word(model.cross_entropy(&acts, &ids(7)).unwrap().to_bits());
        }
        table.push((name.to_string(), h.0));
    }
}

/// Every container `state` holds beyond `base`, by name, in logical order,
/// then every layer-norm statistic.
fn produced_digest(h: &mut Fnv, state: &ExecState, base: &ExecState) {
    let mut names: Vec<&String> = (state.env.keys())
        .filter(|n| !base.env.contains_key(*n))
        .collect();
    names.sort();
    for n in names {
        let t = &state.env[n];
        h.tensor(&t.relayout(&Layout::row_major(t.shape().rank())));
    }
    let mut names: Vec<&String> = state.stats.keys().collect();
    names.sort();
    for n in names {
        h.stats(&state.stats[n]);
    }
}

/// The plans that run a contraction whose rows a lane chain works on in a
/// tile — the attention region and the GEMM epilogues, the head's among
/// them — at `p = 0.1`, each in natural layouts and re-laid out by
/// `common::permuted` (contraction operands of those steps included): on
/// the arena (outputs, saved activations and masks, statistics) and under
/// the reference interpreter (the same, and its RNG's end state). The
/// shape puts `j` off a multiple of the 32-row attention panel (the last
/// panel is ragged, and every causal panel's last visible key ends inside
/// a `KC` block), the embedding two `KC` blocks deep, and more rows under
/// each bias epilogue than one of its tiles holds.
fn tile_digests(table: &mut Vec<(String, u64)>) {
    let dims = EncoderDims {
        b: 1,
        j: 45,
        k: 45,
        h: 2,
        p: 132,
        i: 264,
        u: 100,
    };
    let kinds = [
        ("enc-fused", PlanKind::EncoderFused),
        ("enc-epilogue", PlanKind::EncoderEpilogue),
        ("dec-fused", PlanKind::DecoderFused),
        ("dec-epilogue", PlanKind::DecoderEpilogue),
        ("head", PlanKind::Head { vocab: 37 }),
    ];
    let opts = ExecOptions::builder().dropout_p(0.1).seed(31).build();
    for (name, kind) in kinds {
        let pf = interp::cached_plan(&dims, kind).unwrap();
        let (graph, natural) = (&pf.graph, &pf.plan);
        // the first shuffle in which a collapsed step (named `head+tail`)
        // reads a contraction operand strided
        let strided = |p: &ExecutionPlan| {
            (p.steps.iter()).any(|s| {
                s.name.contains('+') && s.inputs[..2].iter().any(|o| !o.layout.is_row_major())
            })
        };
        let permuted = (0..)
            .map(|seed| common::permuted(graph, natural, seed))
            .find(strided)
            .unwrap();
        let base = random_externals(graph, natural, 0x711e).unwrap();
        for (layout, plan) in [("natural", natural), ("permuted", &permuted)] {
            let mut state = base.clone();
            arena::execute(graph, plan, &mut state, &opts).unwrap();
            let mut h = Fnv::new();
            produced_digest(&mut h, &state, &base);
            table.push((format!("tile/{name}/{layout}/arena"), h.0));
            let (mut state, mut rng) = (base.clone(), StdRng::seed_from_u64(opts.seed));
            execute_plan(graph, plan, &mut state, &opts, &mut rng).unwrap();
            let mut h = Fnv::new();
            produced_digest(&mut h, &state, &base);
            h.rng(&mut rng);
            table.push((format!("tile/{name}/{layout}/reference"), h.0));
        }
    }
}

/// The table's *partition*: row names grouped by equal digest — groups in
/// order of first appearance, names in table order — and the grouping
/// hashed. A change that is meant to move absolute bits re-records
/// [`GOLDEN`] but not this: rows that were equal (`forward` of Reference /
/// Fused / Epilogue at `p = 0`, `t1` and `t2` of every leg, a leg of the
/// plain and of the epilogue decoder plan) must still be equal, and rows
/// that differed must still differ.
fn partition(table: &[(String, u64)]) -> u64 {
    let mut groups: Vec<(u64, Vec<&str>)> = Vec::new();
    for (name, d) in table {
        match groups.iter_mut().find(|g| g.0 == *d) {
            Some(g) => g.1.push(name),
            None => groups.push((*d, vec![name])),
        }
    }
    let mut h = Fnv::new();
    for (_, names) in &groups {
        h.word(names.len() as u32);
        for name in names {
            h.word(name.len() as u32);
            for c in name.bytes() {
                h.word(u32::from(c));
            }
        }
    }
    h.0
}

/// [`partition`] of the table as recorded with the `tile/*` rows, on the
/// library whose GEMM epilogue and attention region were two kernel classes
/// (the pin before it, moved only by the names of the rows added).
const PARTITION: u64 = 0xb6aa_fa93_11fe_d5b7;

#[test]
fn digests_match_the_recorded_table() {
    let mut table = Vec::new();
    layer_digests(&mut table);
    decode_digests(&mut table);
    kernel_digests(&mut table);
    grad_digests(&mut table);
    kernel_bwd_digests(&mut table);
    gemm_edge_digests(&mut table);
    probs_digests(&mut table);
    tile_digests(&mut table);
    let recorded: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    if table != recorded {
        for (name, d) in &table {
            let moved = recorded.iter().all(|r| r != &(name.clone(), *d));
            println!(
                "    (\"{name}\", {d:#018x}),{}",
                if moved { " // MOVED" } else { "" }
            );
        }
    }
    assert_eq!(
        partition(&table),
        PARTITION,
        "rows that shared a digest no longer do, or rows that did not now do \
         (computed partition {:#018x})",
        partition(&table)
    );
    assert!(
        table == recorded,
        "golden digests moved; the computed table is printed above"
    );
}

#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("enc/Reference/shape0/p0/forward/t1", 0x1e9274c414800244),
    ("enc/Reference/shape0/p0/forward-sm/t1", 0xc9d7d5f612378daa),
    ("enc/Reference/shape0/p0/forward_into/t1", 0x7ce8690cb735fdf2),
    ("enc/Reference/shape0/p0/forward/t2", 0x1e9274c414800244),
    ("enc/Reference/shape0/p0/forward-sm/t2", 0xc9d7d5f612378daa),
    ("enc/Reference/shape0/p0/forward_into/t2", 0x7ce8690cb735fdf2),
    ("enc/Reference/shape0/p0/reference/t1", 0x3320ad9d7d82db53),
    ("enc/Reference/shape0/p0/reference-sm/t1", 0xe2408c93172cec43),
    ("enc/Fused/shape0/p0/forward/t1", 0x1e9274c414800244),
    ("enc/Fused/shape0/p0/forward_into/t1", 0x7ce8690cb735fdf2),
    ("enc/Fused/shape0/p0/forward/t2", 0x1e9274c414800244),
    ("enc/Fused/shape0/p0/forward_into/t2", 0x7ce8690cb735fdf2),
    ("enc/Fused/shape0/p0/reference/t1", 0xbf197643a1e952d9),
    ("enc/Epilogue/shape0/p0/forward/t1", 0x1e9274c414800244),
    ("enc/Epilogue/shape0/p0/forward_into/t1", 0x7ce8690cb735fdf2),
    ("enc/Epilogue/shape0/p0/forward/t2", 0x1e9274c414800244),
    ("enc/Epilogue/shape0/p0/forward_into/t2", 0x7ce8690cb735fdf2),
    ("enc/Epilogue/shape0/p0/reference/t1", 0xb0e645893926e62a),
    ("dec/fused/shape0/p0/forward/t1", 0x67d9089deeec5048),
    ("dec/fused/shape0/p0/forward_into/t1", 0x4494529abf140fed),
    ("dec/fused/shape0/p0/forward/t2", 0x67d9089deeec5048),
    ("dec/fused/shape0/p0/forward_into/t2", 0x4494529abf140fed),
    ("dec/fused/shape0/p0/reference/t1", 0x6fb7169e3f8e6e27),
    ("dec/epilogue/shape0/p0/forward/t1", 0x67d9089deeec5048),
    ("dec/epilogue/shape0/p0/forward_into/t1", 0x4494529abf140fed),
    ("dec/epilogue/shape0/p0/forward/t2", 0x67d9089deeec5048),
    ("dec/epilogue/shape0/p0/forward_into/t2", 0x4494529abf140fed),
    ("dec/epilogue/shape0/p0/reference/t1", 0xd90c1d7ea9b7e5df),
    ("enc/Reference/shape0/p0.1/forward/t1", 0x0339fc472aadbfaf),
    ("enc/Reference/shape0/p0.1/forward-sm/t1", 0x8619bf0df7cc75b6),
    ("enc/Reference/shape0/p0.1/forward_into/t1", 0xa7aea42a9a91007b),
    ("enc/Reference/shape0/p0.1/forward/t2", 0x0339fc472aadbfaf),
    ("enc/Reference/shape0/p0.1/forward-sm/t2", 0x8619bf0df7cc75b6),
    ("enc/Reference/shape0/p0.1/forward_into/t2", 0xa7aea42a9a91007b),
    ("enc/Reference/shape0/p0.1/reference/t1", 0x9c398c07d988325c),
    ("enc/Reference/shape0/p0.1/reference-sm/t1", 0xdea96b92a6e402e5),
    ("enc/Fused/shape0/p0.1/forward/t1", 0x602afd15d80b4d1c),
    ("enc/Fused/shape0/p0.1/forward_into/t1", 0x3fbf80b726772d62),
    ("enc/Fused/shape0/p0.1/forward/t2", 0x602afd15d80b4d1c),
    ("enc/Fused/shape0/p0.1/forward_into/t2", 0x3fbf80b726772d62),
    ("enc/Fused/shape0/p0.1/reference/t1", 0xc39eb8d6ea1b6043),
    ("enc/Epilogue/shape0/p0.1/forward/t1", 0xa7170a2ec5113917),
    ("enc/Epilogue/shape0/p0.1/forward_into/t1", 0xb0c23d0e443461a7),
    ("enc/Epilogue/shape0/p0.1/forward/t2", 0xa7170a2ec5113917),
    ("enc/Epilogue/shape0/p0.1/forward_into/t2", 0xb0c23d0e443461a7),
    ("enc/Epilogue/shape0/p0.1/reference/t1", 0xc0861ef81c2aef8b),
    ("dec/fused/shape0/p0.1/forward/t1", 0x8abb516da4efee61),
    ("dec/fused/shape0/p0.1/forward_into/t1", 0x60197cf0b7eb842f),
    ("dec/fused/shape0/p0.1/forward/t2", 0x8abb516da4efee61),
    ("dec/fused/shape0/p0.1/forward_into/t2", 0x60197cf0b7eb842f),
    ("dec/fused/shape0/p0.1/reference/t1", 0x7f909157f7c22193),
    ("dec/epilogue/shape0/p0.1/forward/t1", 0x8cfddf72005e7188),
    ("dec/epilogue/shape0/p0.1/forward_into/t1", 0x6f48706db4642fad),
    ("dec/epilogue/shape0/p0.1/forward/t2", 0x8cfddf72005e7188),
    ("dec/epilogue/shape0/p0.1/forward_into/t2", 0x6f48706db4642fad),
    ("dec/epilogue/shape0/p0.1/reference/t1", 0xea38b65bdb3e55f3),
    ("enc/Reference/shape1/p0/forward/t1", 0x4ba4d724fb1f51dd),
    ("enc/Reference/shape1/p0/forward-sm/t1", 0x104ed0bd77942bac),
    ("enc/Reference/shape1/p0/forward_into/t1", 0x889d5109b93d9519),
    ("enc/Reference/shape1/p0/forward/t2", 0x4ba4d724fb1f51dd),
    ("enc/Reference/shape1/p0/forward-sm/t2", 0x104ed0bd77942bac),
    ("enc/Reference/shape1/p0/forward_into/t2", 0x889d5109b93d9519),
    ("enc/Reference/shape1/p0/reference/t1", 0x2aab08531ac4f23b),
    ("enc/Reference/shape1/p0/reference-sm/t1", 0xe2444d7ff0c556c4),
    ("enc/Fused/shape1/p0/forward/t1", 0x4ba4d724fb1f51dd),
    ("enc/Fused/shape1/p0/forward_into/t1", 0x889d5109b93d9519),
    ("enc/Fused/shape1/p0/forward/t2", 0x4ba4d724fb1f51dd),
    ("enc/Fused/shape1/p0/forward_into/t2", 0x889d5109b93d9519),
    ("enc/Fused/shape1/p0/reference/t1", 0x33e58de30dfca1cf),
    ("enc/Epilogue/shape1/p0/forward/t1", 0x4ba4d724fb1f51dd),
    ("enc/Epilogue/shape1/p0/forward_into/t1", 0x889d5109b93d9519),
    ("enc/Epilogue/shape1/p0/forward/t2", 0x4ba4d724fb1f51dd),
    ("enc/Epilogue/shape1/p0/forward_into/t2", 0x889d5109b93d9519),
    ("enc/Epilogue/shape1/p0/reference/t1", 0x23da92ce1c76d1ac),
    ("dec/fused/shape1/p0/forward/t1", 0x7ff9f0ba5ce8a013),
    ("dec/fused/shape1/p0/forward_into/t1", 0x2957f1a3e78993e4),
    ("dec/fused/shape1/p0/forward/t2", 0x7ff9f0ba5ce8a013),
    ("dec/fused/shape1/p0/forward_into/t2", 0x2957f1a3e78993e4),
    ("dec/fused/shape1/p0/reference/t1", 0x2b641ad7be59f3bc),
    ("dec/epilogue/shape1/p0/forward/t1", 0x7ff9f0ba5ce8a013),
    ("dec/epilogue/shape1/p0/forward_into/t1", 0x2957f1a3e78993e4),
    ("dec/epilogue/shape1/p0/forward/t2", 0x7ff9f0ba5ce8a013),
    ("dec/epilogue/shape1/p0/forward_into/t2", 0x2957f1a3e78993e4),
    ("dec/epilogue/shape1/p0/reference/t1", 0xfccdd6dbe0fcf0e8),
    ("enc/Reference/shape1/p0.1/forward/t1", 0xaec8711d0ac134f0),
    ("enc/Reference/shape1/p0.1/forward-sm/t1", 0x814d5f42fc5b9f64),
    ("enc/Reference/shape1/p0.1/forward_into/t1", 0xb7143ba833d8efcb),
    ("enc/Reference/shape1/p0.1/forward/t2", 0xaec8711d0ac134f0),
    ("enc/Reference/shape1/p0.1/forward-sm/t2", 0x814d5f42fc5b9f64),
    ("enc/Reference/shape1/p0.1/forward_into/t2", 0xb7143ba833d8efcb),
    ("enc/Reference/shape1/p0.1/reference/t1", 0x3f894c0a74c6b702),
    ("enc/Reference/shape1/p0.1/reference-sm/t1", 0x5229bea3754e5cff),
    ("enc/Fused/shape1/p0.1/forward/t1", 0xab495b08fa464ce4),
    ("enc/Fused/shape1/p0.1/forward_into/t1", 0x91f7cf86ef40d774),
    ("enc/Fused/shape1/p0.1/forward/t2", 0xab495b08fa464ce4),
    ("enc/Fused/shape1/p0.1/forward_into/t2", 0x91f7cf86ef40d774),
    ("enc/Fused/shape1/p0.1/reference/t1", 0x137abb1683dd2822),
    ("enc/Epilogue/shape1/p0.1/forward/t1", 0xbc268bb08aecaf9a),
    ("enc/Epilogue/shape1/p0.1/forward_into/t1", 0xd9cf9c716a53b5f2),
    ("enc/Epilogue/shape1/p0.1/forward/t2", 0xbc268bb08aecaf9a),
    ("enc/Epilogue/shape1/p0.1/forward_into/t2", 0xd9cf9c716a53b5f2),
    ("enc/Epilogue/shape1/p0.1/reference/t1", 0x1d51ad67302ee60e),
    ("dec/fused/shape1/p0.1/forward/t1", 0xd1517afffc317f92),
    ("dec/fused/shape1/p0.1/forward_into/t1", 0xc2fa5a37a10bc5ac),
    ("dec/fused/shape1/p0.1/forward/t2", 0xd1517afffc317f92),
    ("dec/fused/shape1/p0.1/forward_into/t2", 0xc2fa5a37a10bc5ac),
    ("dec/fused/shape1/p0.1/reference/t1", 0xae27099ca8292f68),
    ("dec/epilogue/shape1/p0.1/forward/t1", 0x282361f016bfa0b7),
    ("dec/epilogue/shape1/p0.1/forward_into/t1", 0xcc02dcee288b7d03),
    ("dec/epilogue/shape1/p0.1/forward/t2", 0x282361f016bfa0b7),
    ("dec/epilogue/shape1/p0.1/forward_into/t2", 0xcc02dcee288b7d03),
    ("dec/epilogue/shape1/p0.1/reference/t1", 0xc47dcb91f25f547b),
    ("decode", 0x037e5aa9a7351491),
    ("decode/b1-wide", 0x81785e4a67bfc425),
    ("kernels/layout0", 0x9d529593bf12c16e),
    ("kernels/layout1", 0xfd24e1cf00a59656),
    ("kernels/layout2", 0x468cf480fc9ac7de),
    ("kernels/layout3", 0xd4b2761a9f78f1ba),
    ("kernels/layout4", 0x23e7877098009272),
    ("kernels/layout5", 0xc35c8cc64b708c66),
    ("grad/enc-fused/shape0/p0", 0x58cc7eec836ee15b),
    ("grad/enc-reference/shape0/p0", 0x58cc7eec836ee15b),
    ("grad/dec/shape0/p0", 0xcb0bf843d5cec5bc),
    ("grad/model-enc/shape0/p0", 0xdf28f80ae1b8b045),
    ("grad/model-dec/shape0/p0", 0x7f634bcf1cbf15fc),
    ("grad/enc-fused/shape0/p0.1", 0xb92f319bd69e5bee),
    ("grad/enc-reference/shape0/p0.1", 0x6f97d2c5878e2da1),
    ("grad/dec/shape0/p0.1", 0x5dfaa4a0904345d4),
    ("grad/model-enc/shape0/p0.1", 0x4a573f388346e3d0),
    ("grad/model-dec/shape0/p0.1", 0x053422313bf0591b),
    ("grad/enc-fused/shape1/p0", 0xfa78567f98ea9f2c),
    ("grad/enc-reference/shape1/p0", 0xfa78567f98ea9f2c),
    ("grad/dec/shape1/p0", 0x9edcfebb3c9965d4),
    ("grad/model-enc/shape1/p0", 0x08476db9dfcddb47),
    ("grad/model-dec/shape1/p0", 0xc51fec65842c688a),
    ("grad/enc-fused/shape1/p0.1", 0xad960d9a37802c94),
    ("grad/enc-reference/shape1/p0.1", 0x9b75645acf978282),
    ("grad/dec/shape1/p0.1", 0xea2c873ccf501055),
    ("grad/model-enc/shape1/p0.1", 0xef85cdfd154c93db),
    ("grad/model-dec/shape1/p0.1", 0xeb2b0f29ca337308),
    ("kernels-bwd/layout0", 0x7a7106ae30c4998d),
    ("kernels-bwd/layout1", 0xf5cc35461c6cd0bd),
    ("kernels-bwd/layout2", 0x83cd1412a83d81ad),
    ("kernels-bwd/layout3", 0x642a979e7e4ae87d),
    ("kernels-bwd/layout4", 0x2a17ca013a79f095),
    ("kernels-bwd/layout5", 0xedfd74ef59211df5),
    ("gemm/edges", 0x9600523ab683edad),
    ("model/probs-enc", 0xedcc349fee6c7896),
    ("model/probs-dec", 0x3398efd147591241),
    ("tile/enc-fused/natural/arena", 0x15492594799feb36),
    ("tile/enc-fused/natural/reference", 0x7768a92c9a26f379),
    ("tile/enc-fused/permuted/arena", 0x15492594799feb36),
    ("tile/enc-fused/permuted/reference", 0x7768a92c9a26f379),
    ("tile/enc-epilogue/natural/arena", 0xf48fe5c15afe9e8b),
    ("tile/enc-epilogue/natural/reference", 0x7c6cbfdb2e0ab1ee),
    ("tile/enc-epilogue/permuted/arena", 0xf48fe5c15afe9e8b),
    ("tile/enc-epilogue/permuted/reference", 0x7c6cbfdb2e0ab1ee),
    ("tile/dec-fused/natural/arena", 0x68bbe35806e0c1ef),
    ("tile/dec-fused/natural/reference", 0x94d7f28ec5213ea5),
    ("tile/dec-fused/permuted/arena", 0x68bbe35806e0c1ef),
    ("tile/dec-fused/permuted/reference", 0x94d7f28ec5213ea5),
    ("tile/dec-epilogue/natural/arena", 0x18c0044aa88b9a9d),
    ("tile/dec-epilogue/natural/reference", 0x1e63c3a07ce6a27a),
    ("tile/dec-epilogue/permuted/arena", 0x18c0044aa88b9a9d),
    ("tile/dec-epilogue/permuted/reference", 0x1e63c3a07ce6a27a),
    ("tile/head/natural/arena", 0xdb6460aa4dccf39b),
    ("tile/head/natural/reference", 0x37b84efaa38328dd),
    ("tile/head/permuted/arena", 0xdb6460aa4dccf39b),
    ("tile/head/permuted/reference", 0x37b84efaa38328dd),
];
