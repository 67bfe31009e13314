//! Streaming KV-cache decoding: a [`DecodeSession`] owns per-layer
//! persistent K/V cache slabs and drives token-at-a-time generation with
//! zero steady-state heap allocations.
//!
//! A decode step splits into three certified phases:
//!
//! 1. **project** — the [`crate::interp::PlanKind::DecoderStepProject`]
//!    plan layer-norms the incoming token column and computes the
//!    `qq_new`/`kk_new`/`vv_new` projection columns (one shared stateless
//!    arena, reused by every layer);
//! 2. **append** — the session writes `kk_new`/`vv_new` into the layer's
//!    resident cache slabs at column `pos`, through the bounds-checked
//!    [`xform_core::access::column_span`] license of the attend arena's
//!    [`xform_core::sanitize::PlanCertificate`]. The append happens
//!    *before* attention, so the query's own key is visible to its own
//!    scores — exactly the diagonal of the full-sequence causal mask;
//! 3. **attend** — the [`crate::interp::PlanKind::DecoderStep`] plan
//!    forms scores against the whole cache (capacity `C`), masks columns
//!    past `pos` to exact `0.0` via the position-shifted causal softmax
//!    ([`xform_core::plan::ExecOptions::pos`]), and runs the rest of the
//!    block. The caches are [`xform_dataflow::DataRole::Cache`] inputs:
//!    live-in/live-out of every run, never recolored over, provably never
//!    written by any plan step (the same certificate).
//!
//! Because every fused kernel is shared with the full-sequence decoder
//! forward and padded cache columns only ever contribute masked-to-zero
//! terms, the incremental path is **bitwise** identical to running the
//! full prefix through [`crate::decoder::DecoderLayer`] and reading the
//! last column — the property `tests/decode_equivalence.rs` fuzzes.
//!
//! Step plans are compiled per position *bucket* (capacity rounded up to
//! [`DEFAULT_BUCKET`] positions unless the session says otherwise), so
//! steady-state decoding re-plans only when the sequence outgrows its
//! bucket; between growths a step is two arena executions plus two column
//! `memcpy`s.
//!
//! No weight is copied or packed, per token or per session: the step
//! arenas borrow every weight where the model keeps it, and the
//! `&'m TransformerModel` borrow pins them for as long as the session
//! lives. The projections (`w_qkv`, stacked as the graphs read it, `wo`,
//! `w1`, `w2`) are stored once in the panel order of their GEMM's A
//! ([`crate::params::PackedWeight`]), so a step's four matrix–vector
//! products stream them into the GEMM kernel as they lie: no product
//! packs its weight. The head is the one row-major weight a token reads
//! (`head_logits`, one GEMM).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xform_core::access::column_span;
use xform_core::analyze::{analyze, ArenaGranularity};
use xform_core::arena::CompiledArena;
use xform_core::plan::ExecOptions;
use xform_dataflow::EncoderDims;
use xform_tensor::lanes::{check_dropout_p, exp};
use xform_tensor::matmul::{gemm, MatMut, MatRef, Start};
use xform_tensor::{into_ops, Layout, Result, Shape, Tensor, TensorError};

use crate::interp::{self, Bind, Out, PlanKind, PlannedForward};
use crate::model::TransformerModel;

/// How [`DecodeSession::sample`] turns a logit column into a token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sampling {
    /// Argmax over the vocabulary; ties break to the lowest token id.
    /// Draws nothing from the session RNG.
    Greedy,
    /// Softmax sampling at the given temperature, optionally restricted
    /// to the `top_k` highest-logit tokens. Draws exactly one `f32` from
    /// the session RNG per batch row per step, so the RNG end state
    /// depends only on the number of sampled tokens — never on thread
    /// count or bucket geometry.
    Temperature {
        /// Softmax temperature (> 0).
        temperature: f32,
        /// Restrict sampling to this many highest-logit tokens.
        top_k: Option<usize>,
    },
}

/// The position-bucket quantum of a session that does not set
/// [`DecodeOptions::bucket`]: step plans are recompiled every this many
/// generated tokens.
pub const DEFAULT_BUCKET: usize = 32;

/// Session construction knobs.
#[derive(Debug, Clone, Copy)]
pub struct DecodeOptions {
    /// Threads for the *prefill* run (the decode steps run on the caller's
    /// thread: their plans are chains of one-step waves). Every value is
    /// the same bits at any thread count.
    pub threads: usize,
    /// Seed for the session's sampling RNG.
    pub seed: u64,
    /// Position-bucket quantum override (default: [`DEFAULT_BUCKET`]). A
    /// bigger bucket trades slab words for fewer re-plans.
    pub bucket: Option<usize>,
}

impl Default for DecodeOptions {
    fn default() -> Self {
        DecodeOptions {
            threads: 1,
            seed: 0x5eed,
            bucket: None,
        }
    }
}

/// The per-bucket compiled state: one shared attend plan and one
/// *private* arena per layer, because each layer's arena slab holds that
/// layer's resident K/V cache between calls. Every arena carries the
/// plan's one certificate, whose cache geometry licenses the appends.
#[derive(Debug)]
struct AttendBucket {
    plan: Arc<PlannedForward>,
    arenas: Vec<CompiledArena>,
    capacity: usize,
}

/// What prefill compiles and every step runs: the projection plan and its
/// arena (stateless — one for every layer) and the current attend bucket.
#[derive(Debug)]
struct StepArenas {
    project: (Arc<PlannedForward>, CompiledArena),
    attend: AttendBucket,
}

/// A streaming decode session over a [`TransformerModel`] with decoder
/// blocks. See the module docs for the three-phase step anatomy.
#[derive(Debug)]
pub struct DecodeSession<'m> {
    model: &'m TransformerModel,
    threads: usize,
    bucket: usize,
    /// Next position to write (= number of resident cache columns).
    pos: usize,
    /// `None` until prefill.
    arenas: Option<StepArenas>,
    /// Current hidden column `[i,b,1]`; input to the next layer.
    h_cur: Tensor,
    /// Next hidden column (the attend plan's `y`).
    h_next: Tensor,
    /// The projected query column (`[p,h,b,1]`), which the attend plan
    /// reads, and the key and value columns (`[p,h,b]` / `[w,h,b]` dense)
    /// the session appends to the caches.
    qq: Tensor,
    kk_col: Vec<f32>,
    vv_col: Vec<f32>,
    /// Logit column `[v,b,1]` of the last step.
    logits: Tensor,
    rng: StdRng,
    idx_scratch: Vec<usize>,
    prob_scratch: Vec<f32>,
}

/// Head logits of the hidden columns `h` (`[i,b,cols]`, row-major) into
/// `logits` (`[v,b,cols]`): the one GEMM over `head [v,i] × h [i,b·cols]`,
/// then the bias. Per output element the products accumulate over `i`
/// ascending from `+0.0`, one fused multiply-add each, then the bias is
/// added — bitwise the logits the model head takes its softmax of, at any
/// length.
fn head_logits(model: &TransformerModel, h: &[f32], logits: &mut [f32]) {
    let (i, v) = (model.config.dims.i, model.config.vocab);
    let n = h.len() / i;
    let (head, h) = (
        MatRef::row_major(model.head.data(), i),
        MatRef::row_major(h, n),
    );
    gemm(
        v,
        n,
        i,
        head,
        h,
        MatMut::row_major(logits, n),
        Start::FromZero,
    );
    for (row, &bias) in logits.chunks_exact_mut(n).zip(model.head_bias.data()) {
        row.iter_mut().for_each(|l| *l += bias);
    }
}

fn round_up(n: usize, quantum: usize) -> usize {
    n.div_ceil(quantum.max(1)) * quantum.max(1)
}

fn unsupported(msg: impl Into<String>) -> TensorError {
    TensorError::Unsupported(msg.into())
}

/// The canned plan of `(dims, kind)` with an arena the session owns:
/// compiled for it, dropped with it, never shared through the global memo
/// — each layer's attend slab holds that layer's cache, and a prefill
/// arena is as wide as one prompt.
fn session_arena(
    dims: &EncoderDims,
    kind: PlanKind,
) -> Result<(Arc<PlannedForward>, CompiledArena)> {
    let pf = interp::cached_plan(dims, kind)?;
    let analysis = analyze(&pf.graph, &pf.plan);
    let arena = CompiledArena::compile(&pf.graph, &pf.plan, &analysis, ArenaGranularity::Serial)?
        .ok_or_else(|| unsupported("the decode plan compiled to no arena"))?;
    Ok((pf, arena))
}

/// The step arenas, which exist from prefill on.
fn prefilled(arenas: &mut Option<StepArenas>) -> Result<&mut StepArenas> {
    arenas
        .as_mut()
        .ok_or_else(|| unsupported("call prefill before advance"))
}

impl<'m> DecodeSession<'m> {
    /// Creates an idle session. Call [`DecodeSession::prefill`] before
    /// stepping.
    ///
    /// # Errors
    ///
    /// Returns an error if the model is not a decoder stack, its
    /// configured `dropout_p` is outside `[0, 1)` (decoding itself never
    /// drops, but a session does not vouch for an unusable model), its
    /// dimensions are empty, or its embeddings or head are stored permuted
    /// (a step reads them by rows).
    pub fn new(model: &'m TransformerModel, opts: DecodeOptions) -> Result<Self> {
        if model.config.block != crate::model::BlockKind::Decoder {
            return Err(unsupported("decode sessions require decoder blocks"));
        }
        check_dropout_p(model.config.dropout_p)?;
        let by_rows = [&model.embedding, &model.positional, &model.head];
        if by_rows.iter().any(|t| t.natural_words().is_none()) {
            return Err(unsupported("embeddings and head must be stored row-major"));
        }
        let d = model.config.dims;
        let bucket = opts.bucket.unwrap_or(DEFAULT_BUCKET).max(1);
        let col = Shape::new([('i', d.i), ('b', d.b), ('j', 1)])?;
        let logits = Tensor::zeros(Shape::new([
            ('v', model.config.vocab),
            ('b', d.b),
            ('j', 1),
        ])?);
        Ok(DecodeSession {
            model,
            threads: opts.threads.max(1),
            bucket,
            pos: 0,
            arenas: None,
            h_cur: Tensor::zeros(col.clone()),
            h_next: Tensor::zeros(col),
            qq: Tensor::zeros(Shape::new([('p', d.p), ('h', d.h), ('b', d.b), ('j', 1)])?),
            kk_col: vec![0.0; d.p * d.h * d.b],
            vv_col: vec![0.0; d.p * d.h * d.b],
            logits,
            rng: StdRng::seed_from_u64(opts.seed),
            idx_scratch: Vec::with_capacity(model.config.vocab),
            prob_scratch: Vec::with_capacity(model.config.vocab),
        })
    }

    /// Number of resident positions (= the next position to decode).
    pub fn len(&self) -> usize {
        self.pos
    }

    /// `true` before [`DecodeSession::prefill`] has seeded the caches.
    pub fn is_empty(&self) -> bool {
        self.pos == 0
    }

    /// Current cache capacity in positions (the bucket the step plans are
    /// compiled for).
    pub fn capacity(&self) -> usize {
        self.arenas.as_ref().map_or(0, |a| a.attend.capacity)
    }

    /// Bytes the session holds across steps: the arena slabs of all layers
    /// (cache slabs included) and the shared projection arena's. The
    /// weights stay the model's.
    pub fn resident_bytes(&self) -> usize {
        let slabs = self.arenas.iter().flat_map(|a| {
            let attend = a.attend.arenas.iter();
            attend.chain([&a.project.1]).map(CompiledArena::slab_bytes)
        });
        slabs.sum()
    }

    /// One draw from the sampling RNG — a cheap end-state fingerprint for
    /// determinism tests. Advances the RNG.
    pub fn rng_fingerprint(&mut self) -> u64 {
        self.rng.gen()
    }

    fn step_dims(&self, capacity: usize) -> EncoderDims {
        let d = self.model.config.dims;
        EncoderDims {
            b: d.b,
            j: 1,
            k: capacity,
            h: d.h,
            p: d.p,
            i: d.i,
            u: d.u,
        }
    }

    /// Compiles the attend bucket at `capacity`: shared plan (memoized
    /// per bucket in the global plan cache) and one arena compiled
    /// — and certified — once and given to each layer with a private
    /// zero-initialized slab that holds that layer's cache columns.
    fn build_bucket(&self, capacity: usize) -> Result<AttendBucket> {
        // one compile; every layer gets the same program over a zeroed
        // slab of its own
        let (plan, arena) = session_arena(&self.step_dims(capacity), PlanKind::DecoderStep)?;
        let mut arenas = vec![arena];
        for name in ["k_cache", "v_cache"] {
            if arenas[0].certificate().cache(name).is_none() {
                return Err(unsupported(format!(
                    "the decode step plan holds no column license for `{name}`"
                )));
            }
        }
        for _ in 1..self.model.blocks.len() {
            arenas.push(arenas[0].fresh());
        }
        Ok(AttendBucket {
            plan,
            arenas,
            capacity,
        })
    }

    /// Runs the prompt through every layer with the fused decoder's own
    /// forward plan ([`PlanKind::DecoderFused`]) at the prompt's length,
    /// seeds the per-layer caches from its `kk`/`vv` projections, and
    /// returns the prompt's logits (`[v,b,S]`) — the full-sequence forward's
    /// logits, because it is the full-sequence forward. Of each layer's
    /// record only `y`, `kk` and `vv` leave the slab.
    ///
    /// Allocates freely (it runs once per session); only the *step* path
    /// is allocation-free.
    ///
    /// # Errors
    ///
    /// Returns an error on shape disagreements, on a prompt longer than
    /// the positional table (`dims.j`), or if the session was already
    /// prefilled.
    pub fn prefill(&mut self, prompt: &[Vec<usize>]) -> Result<Tensor> {
        if self.pos != 0 {
            return Err(unsupported("session already prefilled"));
        }
        let d = self.model.config.dims;
        let s = prompt.first().map_or(0, Vec::len);
        if s == 0 || prompt.len() != d.b || prompt.iter().any(|r| r.len() != s) {
            return Err(TensorError::ShapeMismatch {
                context: "prefill prompt batch",
            });
        }
        if s > d.j {
            return Err(unsupported(format!(
                "prompt of {s} tokens exceeds the {} positions",
                d.j
            )));
        }

        // embed the whole prompt
        let mut x = Tensor::zeros(Shape::new([('i', d.i), ('b', d.b), ('j', s)])?);
        for j in 0..s {
            let tokens = prompt.iter().map(|row| row[j]);
            self.model.embed_column(tokens, j, (x.data_mut(), j))?;
        }

        let mut prefill_dims = d;
        prefill_dims.j = s;
        prefill_dims.k = s;
        let (pf, prefill) = session_arena(&prefill_dims, PlanKind::DecoderFused)?;
        // decoding never drops: `dropout_p` stays at its default 0
        let opts = ExecOptions::builder().threads(self.threads).build();

        let capacity = round_up(s + 1, self.bucket);
        let attend = self.build_bucket(capacity)?;
        // the shared projection arena (stateless — reused by every layer)
        let project = session_arena(&self.step_dims(1), PlanKind::DecoderStepProject)?;

        // a cache column `k` holds position k's `[p,h,b]` words: the saved
        // `[p,h,b,k]` projection is the `[k, p·h·b]` view stored
        // `p·h·b`-major
        let view = Shape::new([('k', s), ('c', d.p * d.h * d.b)])?;
        let phb_major = Layout::from_order(&[1, 0])?;
        let words = s * d.p * d.h * d.b;
        let (mut kk, mut vv) = (vec![0.0; words], vec![0.0; words]);
        let (mut h, mut y) = (x.clone(), x);
        for (l, w) in self.model.blocks.iter().enumerate() {
            let outs = &mut [
                ("y", y.data_mut()),
                ("kk", &mut kk[..]),
                ("vv", &mut vv[..]),
            ];
            let bind = Bind(&[("x", &h)], Some(w), None);
            interp::run(&pf.graph, &prefill, &opts, bind, Out::Copy(outs))?;
            for (name, src) in [("k_cache", &kk), ("v_cache", &vv)] {
                let span = column_span(attend.arenas[l].certificate(), name, 0, s)
                    .ok_or_else(|| unsupported(format!("prompt escapes `{name}` capacity")))?;
                attend.arenas[l]
                    .with_external_mut(name, |dst| {
                        into_ops::copy_layout_into(&view, &phb_major, src, &mut dst[span])
                    })
                    .ok_or_else(|| unsupported(format!("cache `{name}` missing from arena")))?;
            }
            std::mem::swap(&mut h, &mut y);
        }

        let vocab = self.model.config.vocab;
        let mut logits = Tensor::zeros(Shape::new([('v', vocab), ('b', d.b), ('j', s)])?);
        head_logits(self.model, h.data(), logits.data_mut());
        // stage the last prompt column as the current logit column so
        // sampling can start immediately
        let data = logits.data();
        let out = self.logits.data_mut();
        for vi in 0..vocab {
            for b in 0..d.b {
                out[vi * d.b + b] = data[(vi * d.b + b) * s + (s - 1)];
            }
        }
        self.arenas = Some(StepArenas { project, attend });
        self.pos = s;
        Ok(logits)
    }

    /// Grows the cache bucket to hold at least `need` positions,
    /// recompiling the step plans and migrating the resident columns.
    fn grow(&mut self, need: usize) -> Result<()> {
        let capacity = round_up(need, self.bucket);
        let next = self.build_bucket(capacity)?;
        let old = &mut prefilled(&mut self.arenas)?.attend;
        let d = self.model.config.dims;
        let live = self.pos * d.p * d.h * d.b;
        for (src, dst) in old.arenas.iter().zip(&next.arenas) {
            for name in ["k_cache", "v_cache"] {
                src.with_external(name, |s| {
                    dst.with_external_mut(name, |d| d[..live].copy_from_slice(&s[..live]))
                })
                .flatten()
                .ok_or_else(|| unsupported(format!("cache `{name}` migration failed")))?;
            }
        }
        *old = next;
        Ok(())
    }

    /// Decodes one token column: embeds `tokens` (one id per batch row)
    /// at the current position, runs project → append → attend through
    /// every layer, and leaves the new position's logits in
    /// [`DecodeSession::last_logits`]. Steady-state (no bucket growth)
    /// this allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns an error before prefill, past the positional table
    /// (`dims.j`), on a bad batch or token id, or if an arena invariant
    /// breaks (an unbound external, a missing output). The batch and the
    /// token ids are checked before the bucket grows: a malformed call
    /// leaves the caches, the capacity and the position as they were.
    pub fn advance(&mut self, tokens: &[usize]) -> Result<&Tensor> {
        prefilled(&mut self.arenas)?;
        let (pos, model) = (self.pos, self.model);
        let d = model.config.dims;
        if pos >= d.j {
            return Err(unsupported(format!(
                "sequence is at its {} positions — cannot decode further",
                d.j
            )));
        }
        if tokens.len() != d.b {
            return Err(TensorError::ShapeMismatch {
                context: "decode step batch",
            });
        }
        let column = (self.h_cur.data_mut(), 0);
        model.embed_column(tokens.iter().copied(), pos, column)?;
        if pos >= self.capacity() {
            self.grow(pos + 1)?;
        }
        // one worker, no dropout, causal windows shifted to `pos`
        let run = ExecOptions::builder().pos(pos).build();

        let arenas = prefilled(&mut self.arenas)?;
        let (project, bucket) = (&arenas.project, &arenas.attend);
        for (l, w) in model.blocks.iter().enumerate() {
            // phase 1: project the new column
            let cols = &mut [
                ("qq_new", self.qq.data_mut()),
                ("kk_new", &mut self.kk_col[..]),
                ("vv_new", &mut self.vv_col[..]),
            ];
            let bind = Bind(&[("x", &self.h_cur)], Some(w), None);
            interp::run(&project.0.graph, &project.1, &run, bind, Out::Copy(cols))?;
            // phase 2: append the new cache columns at `pos` under the
            // certificate's bounds-checked column license
            let arena = &bucket.arenas[l];
            for (name, col) in [("k_cache", &self.kk_col), ("v_cache", &self.vv_col)] {
                let span = column_span(arena.certificate(), name, pos, 1)
                    .ok_or_else(|| unsupported(format!("position {pos} escapes `{name}`")))?;
                arena
                    .with_external_mut(name, |slab| {
                        slab[span.clone()].copy_from_slice(col);
                    })
                    .ok_or_else(|| unsupported(format!("cache `{name}` unavailable")))?;
            }
            // phase 3: attend over the resident cache. The caches are bound
            // to nothing: each keeps the resident contents the append above
            // extended
            let bind = Bind(&[("x", &self.h_cur), ("qq", &self.qq)], Some(w), None);
            let y = &mut [("y", self.h_next.data_mut())];
            interp::run(&bucket.plan.graph, arena, &run, bind, Out::Copy(y))?;
            std::mem::swap(&mut self.h_cur, &mut self.h_next);
        }
        head_logits(model, self.h_cur.data(), self.logits.data_mut());
        self.pos += 1;
        Ok(&self.logits)
    }

    /// The logit column (`[v,b,1]`) of the most recently decoded position
    /// (after [`DecodeSession::prefill`]: the last prompt position).
    pub fn last_logits(&self) -> &Tensor {
        &self.logits
    }

    /// Samples one token per batch row from [`DecodeSession::last_logits`]
    /// into `out`, drawing from the session RNG per the [`Sampling`]
    /// policy. Allocation-free.
    ///
    /// # Errors
    ///
    /// Returns an error on a bad temperature or output length, or if a
    /// row's logit column holds a NaN or an infinity.
    pub fn sample(&mut self, sampling: Sampling, out: &mut [usize]) -> Result<()> {
        let d = self.model.config.dims;
        let v = self.model.config.vocab;
        if out.len() != d.b {
            return Err(TensorError::ShapeMismatch {
                context: "sample output batch",
            });
        }
        if let Sampling::Temperature { temperature, .. } = sampling {
            if temperature <= 0.0 || !temperature.is_finite() {
                return Err(unsupported("temperature must be finite and positive"));
            }
        }
        // every row is checked before the first draw, so a refused call
        // leaves `out` and the RNG as they were. A NaN has no rank (the
        // top-k sort would panic on it, greedy would skip it) and an
        // infinity no probability
        let logits = self.logits.data();
        if let Some(b) = (0..d.b).find(|&b| (0..v).any(|vi| !logits[vi * d.b + b].is_finite())) {
            let row = format!("logit column of batch row {b} holds a non-finite value");
            return Err(unsupported(row));
        }
        for (b, slot) in out.iter_mut().enumerate() {
            let col = |vi: usize| logits[vi * d.b + b];
            *slot = match sampling {
                Sampling::Greedy => {
                    let mut best = 0usize;
                    let mut best_l = col(0);
                    for vi in 1..v {
                        let l = col(vi);
                        if l > best_l {
                            best = vi;
                            best_l = l;
                        }
                    }
                    best
                }
                Sampling::Temperature { temperature, top_k } => {
                    let k = top_k.unwrap_or(v).clamp(1, v);
                    self.idx_scratch.clear();
                    self.idx_scratch.extend(0..v);
                    self.idx_scratch.sort_unstable_by(|&a, &c| {
                        col(c)
                            .partial_cmp(&col(a))
                            .expect("finite logits are ordered")
                            .then(a.cmp(&c))
                    });
                    let m = col(self.idx_scratch[0]);
                    self.prob_scratch.clear();
                    let mut sum = 0.0f32;
                    for &vi in &self.idx_scratch[..k] {
                        let p = exp((col(vi) - m) / temperature);
                        sum += p;
                        self.prob_scratch.push(p);
                    }
                    // exactly one draw per row, independent of k
                    let u = self.rng.gen::<f32>() * sum;
                    let mut acc = 0.0f32;
                    let mut picked = self.idx_scratch[k - 1];
                    for (i, &p) in self.prob_scratch.iter().enumerate() {
                        acc += p;
                        if u <= acc {
                            picked = self.idx_scratch[i];
                            break;
                        }
                    }
                    picked
                }
            };
        }
        Ok(())
    }

    /// Prefills with `prompt` and generates `steps` tokens per batch row
    /// under the sampling policy. Returns the generated ids
    /// (`[b][steps]`).
    ///
    /// # Errors
    ///
    /// Returns an error if `prompt.len + steps - 1` exceeds the positional
    /// table (`dims.j`) or any step fails.
    pub fn generate(
        &mut self,
        prompt: &[Vec<usize>],
        steps: usize,
        sampling: Sampling,
    ) -> Result<Vec<Vec<usize>>> {
        if steps == 0 {
            return Ok(vec![Vec::new(); self.model.config.dims.b]);
        }
        self.prefill(prompt)?;
        let b = self.model.config.dims.b;
        let mut out = vec![Vec::with_capacity(steps); b];
        let mut step_tokens = vec![0usize; b];
        self.sample(sampling, &mut step_tokens)?;
        for (row, &t) in out.iter_mut().zip(&step_tokens) {
            row.push(t);
        }
        for _ in 1..steps {
            self.advance(&step_tokens)?;
            self.sample(sampling, &mut step_tokens)?;
            for (row, &t) in out.iter_mut().zip(&step_tokens) {
                row.push(t);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BlockKind, ModelConfig};
    use xform_tensor::Layout;

    fn model() -> TransformerModel {
        let config = ModelConfig {
            dims: EncoderDims {
                j: 8,
                k: 8,
                ..EncoderDims::tiny()
            },
            layers: 2,
            vocab: 5,
            block: BlockKind::Decoder,
            dropout_p: 0.0,
        };
        TransformerModel::init(config, &mut StdRng::seed_from_u64(3)).unwrap()
    }

    /// Decoding never drops: weights configured to train with dropout
    /// decode what the same weights configured without it do, token for
    /// token and logit bit for logit bit, prefill and steps alike.
    #[test]
    fn a_models_training_dropout_never_reaches_a_decode() {
        let still = model();
        let mut dropping = still.clone();
        dropping.config.dropout_p = 0.1;
        let prompt = [vec![1, 2, 3], vec![4, 0, 2]];
        let decode = |m: &TransformerModel| {
            let mut session = DecodeSession::new(m, DecodeOptions::default()).unwrap();
            let tokens = session.generate(&prompt, 5, Sampling::Greedy).unwrap();
            let logits = session.last_logits().data().iter().map(|v| v.to_bits());
            (tokens, logits.collect::<Vec<_>>())
        };
        assert_eq!(decode(&dropping), decode(&still));
    }

    /// What `advance` used to `expect`: the step arenas are reached through
    /// one accessor, and a session that has none says so.
    #[test]
    fn advancing_an_idle_session_is_a_typed_error() {
        let model = model();
        let mut session = DecodeSession::new(&model, DecodeOptions::default()).unwrap();
        let err = session.advance(&[1, 2]).unwrap_err();
        assert_eq!(err, unsupported("call prefill before advance"));
        assert_eq!((session.capacity(), session.len()), (0, 0));
        assert_eq!(session.resident_bytes(), 0);
    }

    /// What a session holds is its arenas' slabs: the weights stay the
    /// model's, borrowed by every step.
    #[test]
    fn resident_bytes_are_the_arena_slabs() {
        let model = model();
        let mut session = DecodeSession::new(&model, DecodeOptions::default()).unwrap();
        session.prefill(&[vec![1, 2], vec![3, 4]]).unwrap();
        session.advance(&[2, 0]).unwrap();
        let arenas = session.arenas.as_ref().unwrap();
        let attend = arenas.attend.arenas.iter().map(CompiledArena::slab_bytes);
        let slabs = attend.sum::<usize>() + arenas.project.1.slab_bytes();
        assert_eq!(session.resident_bytes(), slabs);
        assert!(slabs > 0);
    }

    /// What `advance` used to do with a malformed call at a bucket
    /// boundary: grow the bucket first — recompiling the attend plan and
    /// migrating every cache — and refuse the call after.
    #[test]
    fn a_malformed_step_at_a_bucket_boundary_changes_nothing() {
        let model = model();
        let opts = DecodeOptions {
            bucket: Some(4),
            ..DecodeOptions::default()
        };
        let mut session = DecodeSession::new(&model, opts).unwrap();
        session.prefill(&[vec![1, 2], vec![3, 4]]).unwrap();
        session.advance(&[2, 0]).unwrap();
        assert_eq!((session.capacity(), session.len()), (4, 3));
        session.advance(&[1, 1]).unwrap();
        assert_eq!((session.capacity(), session.len()), (4, 4));
        let short = session.advance(&[1]).unwrap_err();
        let batch = TensorError::ShapeMismatch {
            context: "decode step batch",
        };
        assert_eq!(short, batch);
        assert_eq!((session.capacity(), session.len()), (4, 4));
        let unknown = session.advance(&[1, 5]).unwrap_err();
        assert_eq!(unknown, unsupported("token id 5 out of vocabulary"));
        assert_eq!((session.capacity(), session.len()), (4, 4));
        session.advance(&[1, 1]).unwrap();
        assert_eq!((session.capacity(), session.len()), (8, 5));
    }

    /// What `sample` used to do with a NaN: greedy skipped it, and the
    /// top-k sort — whose comparator took incomparable for equal, which is
    /// no total order — panicked inside `sort_unstable_by` (1 024 logits,
    /// every seventh a NaN).
    #[test]
    fn sampling_a_non_finite_logit_column_is_a_typed_error() {
        let config = ModelConfig {
            vocab: 1024,
            ..model().config
        };
        let model = TransformerModel::init(config, &mut StdRng::seed_from_u64(3)).unwrap();
        let mut session = DecodeSession::new(&model, DecodeOptions::default()).unwrap();
        session.prefill(&[vec![1, 2], vec![3, 4]]).unwrap();
        let temperature = Sampling::Temperature {
            temperature: 0.8,
            top_k: Some(5),
        };
        let mut tokens = [0usize; 2];
        for sampling in [Sampling::Greedy, temperature] {
            session.sample(sampling, &mut tokens).unwrap();
        }
        let finite = session.logits.clone();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            session.logits = finite.clone();
            for word in session.logits.data_mut().iter_mut().step_by(7) {
                *word = bad;
            }
            for sampling in [Sampling::Greedy, temperature] {
                let err = session.sample(sampling, &mut tokens).unwrap_err();
                let want = "logit column of batch row 0 holds a non-finite value";
                assert_eq!(err, unsupported(want), "{bad} under {sampling:?}");
            }
        }
    }

    /// What `sample` used to do with a batch whose second row is not
    /// finite: row 0 drew from the session RNG and wrote its token before
    /// row 1 was refused, so a refused call moved the RNG that the next
    /// valid one draws from.
    #[test]
    fn a_refused_sample_draws_nothing_and_writes_nothing() {
        let mut model = model();
        // token 4's embedding row is NaN, and only row 1's prompt holds it
        let i = model.config.dims.i;
        model.embedding.data_mut()[4 * i..5 * i].fill(f32::NAN);
        let temperature = Sampling::Temperature {
            temperature: 0.8,
            top_k: None,
        };
        let mut session = DecodeSession::new(&model, DecodeOptions::default()).unwrap();
        session.prefill(&[vec![1, 2], vec![3, 4]]).unwrap();
        let mut tokens = [usize::MAX; 2];
        for sampling in [Sampling::Greedy, temperature] {
            let err = session.sample(sampling, &mut tokens).unwrap_err();
            let want = "logit column of batch row 1 holds a non-finite value";
            assert_eq!(err, unsupported(want), "{sampling:?}");
            assert_eq!(tokens, [usize::MAX; 2], "{sampling:?} wrote a token");
        }
        // the next valid samples are a fresh session's: both see row 1's
        // column made finite
        let mut fresh = DecodeSession::new(&model, DecodeOptions::default()).unwrap();
        fresh.prefill(&[vec![1, 2], vec![3, 4]]).unwrap();
        for s in [&mut session, &mut fresh] {
            let nan = s.logits.data_mut().iter_mut().filter(|l| l.is_nan());
            nan.for_each(|l| *l = 0.0);
        }
        let (mut got, mut want) = ([0usize; 2], [0usize; 2]);
        for _ in 0..4 {
            session.sample(temperature, &mut got).unwrap();
            fresh.sample(temperature, &mut want).unwrap();
            assert_eq!(got, want);
        }
        assert_eq!(session.rng.gen::<u64>(), fresh.rng.gen::<u64>());
    }

    /// A step reads embedding and head rows as slices of the backing
    /// buffers: a model that stores one permuted is refused up front.
    #[test]
    fn a_model_with_a_permuted_embedding_is_refused() {
        let mut model = model();
        let permuted = Layout::from_axis_order(model.embedding.shape(), "iv").unwrap();
        model.embedding = model.embedding.relayout(&permuted);
        let err = DecodeSession::new(&model, DecodeOptions::default()).unwrap_err();
        assert!(err.to_string().contains("row-major"), "{err}");
    }
}
