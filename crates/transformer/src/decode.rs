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
//!    [`xform_core::access::column_span`] license of the plan's
//!    [`xform_core::access::DecodeCertificate`]. The append happens
//!    *before* attention, so the query's own key is visible to its own
//!    scores — exactly the diagonal of the full-sequence causal mask;
//! 3. **attend** — the [`crate::interp::PlanKind::DecoderStep`] plan
//!    forms scores against the whole cache (capacity `C`), masks columns
//!    past `pos` to exact `0.0` via the position-shifted causal softmax
//!    ([`xform_core::plan::ExecOptions::pos`]), and runs the rest of the
//!    block. The caches are [`xform_dataflow::DataRole::Cache`] inputs:
//!    live-in/live-out of every run, never recolored over, provably never
//!    written by any plan step ([`xform_core::access::certify_decode`]).
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
//! No weight is copied per token: the step arenas borrow every weight from
//! the model's own tensors, and the one container the graphs name that the
//! model does not hold — `w_qkv`, Q|K|V stacked — the session stacks once
//! per layer when it is made. Its `&'m TransformerModel` borrow pins the
//! weights it stacked for as long as it lives.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xform_core::access::{certify_decode, column_span, DecodeCertificate};
use xform_core::analyze::{analyze, ArenaGranularity, PlanAnalysis};
use xform_core::arena::{ArenaArtifact, CompiledArena};
use xform_core::plan::{ExecOptions, ExecState};
use xform_dataflow::EncoderDims;
use xform_tensor::lanes::{check_dropout_p, exp};
use xform_tensor::matmul::{gemm, MatMut, MatRef, Start};
use xform_tensor::ops::elementwise::ActivationKind;
use xform_tensor::{Result, Shape, Tensor, TensorError};

use crate::interp::{self, PlanKind, PlannedForward};
use crate::model::TransformerModel;
use crate::params::EncoderWeights;

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
    /// Threads for the *prefill* pass (steps always run the serial
    /// arenas; step values are thread-invariant regardless).
    pub threads: usize,
    /// Seed for the session's sampling RNG.
    pub seed: u64,
    /// Position-bucket quantum override (default: [`DEFAULT_BUCKET`]). A
    /// bigger bucket trades slab words for fewer re-plans.
    pub bucket: Option<usize>,
    /// Maximum sequence length override (default: the positional
    /// embedding extent `dims.j`; never above it).
    pub max_seq: Option<usize>,
}

impl Default for DecodeOptions {
    fn default() -> Self {
        DecodeOptions {
            threads: 1,
            seed: 0x5eed,
            bucket: None,
            max_seq: None,
        }
    }
}

/// The per-bucket compiled state: one shared attend plan and one
/// *private* arena per layer, because each layer's arena slab holds that
/// layer's resident K/V cache between calls.
#[derive(Debug)]
struct AttendBucket {
    cert: DecodeCertificate,
    arenas: Vec<CompiledArena>,
    capacity: usize,
}

/// What prefill compiles and every step runs: the projection arena
/// (stateless — one for every layer) and the current attend bucket.
#[derive(Debug)]
struct StepArenas {
    project: CompiledArena,
    attend: AttendBucket,
}

/// A streaming decode session over a [`TransformerModel`] with decoder
/// blocks. See the module docs for the three-phase step anatomy.
#[derive(Debug)]
pub struct DecodeSession<'m> {
    model: &'m TransformerModel,
    threads: usize,
    bucket: usize,
    max_seq: usize,
    scaler: f32,
    /// Next position to write (= number of resident cache columns).
    pos: usize,
    /// `None` until prefill.
    arenas: Option<StepArenas>,
    /// Each layer's `w_qkv`: Q|K|V stacked.
    w_qkv: Vec<Vec<f32>>,
    /// Current hidden column `[i,b,1]`; input to the next layer.
    h_cur: Tensor,
    /// Next hidden column (the attend plan's `y`).
    h_next: Tensor,
    /// Projection staging columns (`[p,h,b]` / `[w,h,b]` dense).
    qq_col: Vec<f32>,
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

/// An arena the session owns: compiled for it, dropped with it, never
/// shared through the global memo — each layer's attend slab holds that
/// layer's cache, and a prefill arena is as wide as one prompt.
fn session_arena(
    pf: &PlannedForward,
    analysis: &PlanAnalysis,
    granularity: ArenaGranularity,
) -> Result<CompiledArena> {
    CompiledArena::compile(&pf.graph, &pf.plan, analysis, granularity)?
        .ok_or_else(|| unsupported("the decode plan compiled to no arena"))
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
        let stack = |w: &EncoderWeights| {
            let mut stacked = vec![0.0; w.qkv_words()];
            w.stack_qkv_into(&mut stacked);
            stacked
        };
        let w_qkv = model.blocks.iter().map(stack).collect();
        let d = model.config.dims;
        let max_seq = opts.max_seq.unwrap_or(d.j).min(d.j).max(1);
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
            max_seq,
            scaler: 1.0 / (d.p as f32).sqrt(),
            pos: 0,
            arenas: None,
            w_qkv,
            h_cur: Tensor::zeros(col.clone()),
            h_next: Tensor::zeros(col),
            qq_col: vec![0.0; d.p * d.h * d.b],
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
    /// (cache slabs included), the shared projection arena's, and the
    /// stacked Q/K/V weights. The other weights stay the model's.
    pub fn resident_bytes(&self) -> usize {
        let slabs = self.arenas.iter().flat_map(|a| {
            let attend = a.attend.arenas.iter();
            attend.chain([&a.project]).map(CompiledArena::slab_bytes)
        });
        slabs.sum::<usize>() + self.w_qkv.iter().map(|s| s.len() * 4).sum::<usize>()
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

    /// Head logits of the hidden column `h[i,b,0]` ([`head_logits`]).
    fn head_column(&mut self) {
        head_logits(self.model, self.h_cur.data(), self.logits.data_mut());
    }

    /// Compiles the attend bucket at `capacity`: shared plan (memoized
    /// per bucket in the global plan cache), decode certificate, and one
    /// serial arena compiled once and given to each layer with a private
    /// zero-initialized slab that holds that layer's cache columns.
    fn build_bucket(&self, capacity: usize) -> Result<AttendBucket> {
        let dims = self.step_dims(capacity);
        let plan = interp::cached_plan(&dims, PlanKind::DecoderStep)?;
        let cert = certify_decode(&plan.graph, &plan.plan).map_err(|lints| {
            unsupported(format!(
                "decode step plan failed cache-freeze certification: {:?}",
                lints.iter().map(ToString::to_string).collect::<Vec<_>>()
            ))
        })?;
        let analysis = analyze(&plan.graph, &plan.plan);
        // one compile; every layer gets the same program over a zeroed
        // slab of its own
        let mut arenas = vec![session_arena(&plan, &analysis, ArenaGranularity::Serial)?];
        for _ in 1..self.model.blocks.len() {
            arenas.push(arenas[0].fresh());
        }
        Ok(AttendBucket {
            cert,
            arenas,
            capacity,
        })
    }

    /// The shared projection arena (stateless — reused by every layer).
    fn build_project(&self) -> Result<CompiledArena> {
        let dims = self.step_dims(1);
        let plan = interp::cached_plan(&dims, PlanKind::DecoderStepProject)?;
        let analysis = analyze(&plan.graph, &plan.plan);
        session_arena(&plan, &analysis, ArenaGranularity::Serial)
    }

    /// The run configuration of every decode execution: no dropout, the
    /// block's GELU and attention scale, `threads` workers, causal windows
    /// shifted to the current position.
    fn exec_options(&self, threads: usize) -> ExecOptions<'static> {
        ExecOptions::builder()
            .activation(ActivationKind::Gelu)
            .scaler(self.scaler)
            .threads(threads)
            .pos(self.pos)
            .build()
    }

    /// Runs the prompt through every layer with the fused decoder's own
    /// forward plan ([`PlanKind::DecoderFused`]) at the prompt's length,
    /// seeds the per-layer caches from the saved `kk`/`vv` projections, and
    /// returns the prompt's logits (`[v,b,S]`) — the full-sequence forward's
    /// logits, because it is the full-sequence forward.
    ///
    /// Allocates freely (it runs once per session); only the *step* path
    /// is allocation-free.
    ///
    /// # Errors
    ///
    /// Returns an error on shape disagreements, on a prompt longer than
    /// `max_seq`, or if the session was already prefilled.
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
        if s > self.max_seq {
            return Err(unsupported(format!(
                "prompt of {s} tokens exceeds max_seq {}",
                self.max_seq
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
        let pf = interp::cached_plan(&prefill_dims, PlanKind::DecoderFused)?;

        let granularity = interp::granularity_for(self.threads);
        let prefill = session_arena(&pf, &analyze(&pf.graph, &pf.plan), granularity)?;

        let capacity = round_up(s + 1, self.bucket);
        let attend = self.build_bucket(capacity)?;
        let project = self.build_project()?;

        let opts = self.exec_options(self.threads);
        let mut h = x;
        for (l, w) in self.model.blocks.iter().enumerate() {
            let mut state = ExecState::default();
            // every block's `y` leaves its arena row-major, like `x`
            let (x, w_qkv) = (h.data(), &self.w_qkv[l][..]);
            let resolve = &mut |name: &str| interp::external_words(name, x, w_qkv, w);
            prefill.execute_into_state(&pf.graph, &pf.plan, &opts, resolve, &mut state)?;
            // seed this layer's cache columns from the saved projections:
            // kk [p,h,b,k] → k_cache column k = contiguous [p,h,b]
            let kk = state.get("kk")?;
            let vv = state.get("vv")?;
            let col = d.p * d.h * d.b;
            let seed_cache = |name: &str, src: &Tensor| -> Result<()> {
                let span = column_span(&attend.cert, name, 0, s)
                    .ok_or_else(|| unsupported(format!("prompt escapes `{name}` capacity")))?;
                attend.arenas[l]
                    .with_external_mut(name, |dst| {
                        let dst = &mut dst[span.clone()];
                        let data = src.data();
                        for k in 0..s {
                            for phb in 0..col {
                                // src index: phb-major, k innermost
                                dst[k * col + phb] = data[phb * s + k];
                            }
                        }
                    })
                    .ok_or_else(|| unsupported(format!("cache `{name}` missing from arena")))
            };
            seed_cache("k_cache", kk)?;
            seed_cache("v_cache", vv)?;
            h = state.take("y")?;
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
    /// Returns an error before prefill, past `max_seq`, on a bad token
    /// id, or if an arena invariant breaks (an unbound external, a missing
    /// output).
    pub fn advance(&mut self, tokens: &[usize]) -> Result<&Tensor> {
        prefilled(&mut self.arenas)?;
        if self.pos >= self.max_seq {
            return Err(unsupported(format!(
                "sequence is at max_seq {} — cannot decode further",
                self.max_seq
            )));
        }
        if self.pos >= self.capacity() {
            self.grow(self.pos + 1)?;
        }
        let pos = self.pos;
        let model = self.model;
        let d = model.config.dims;
        if tokens.len() != d.b {
            return Err(TensorError::ShapeMismatch {
                context: "decode step batch",
            });
        }
        let run = self.exec_options(1);
        let column = (self.h_cur.data_mut(), 0);
        model.embed_column(tokens.iter().copied(), pos, column)?;

        let arenas = prefilled(&mut self.arenas)?;
        let (project, bucket) = (&arenas.project, &arenas.attend);
        for (l, w) in model.blocks.iter().enumerate() {
            let w_qkv = &self.w_qkv[l][..];
            // phase 1: project the new column
            {
                let h = self.h_cur.data();
                let resolve = &mut |name: &str| interp::external_words(name, h, w_qkv, w);
                let qq = &mut self.qq_col;
                let kk = &mut self.kk_col;
                let vv = &mut self.vv_col;
                let mut sink = |a: ArenaArtifact<'_>| {
                    if let ArenaArtifact::Tensor { name, data, .. } = a {
                        let dst = match name {
                            "qq_new" => &mut *qq,
                            "kk_new" => &mut *kk,
                            "vv_new" => &mut *vv,
                            _ => return,
                        };
                        if data.len() == dst.len() {
                            dst.copy_from_slice(data);
                        }
                    }
                };
                project.execute_bound(&run, resolve, &mut sink)?;
            }
            // phase 2: append the new cache columns at `pos` under the
            // decode certificate's bounds-checked column license
            let arena = &bucket.arenas[l];
            for (name, col) in [("k_cache", &self.kk_col), ("v_cache", &self.vv_col)] {
                let span = column_span(&bucket.cert, name, pos, 1)
                    .ok_or_else(|| unsupported(format!("position {pos} escapes `{name}`")))?;
                arena
                    .with_external_mut(name, |slab| {
                        slab[span.clone()].copy_from_slice(col);
                    })
                    .ok_or_else(|| unsupported(format!("cache `{name}` unavailable")))?;
            }
            // phase 3: attend over the resident cache
            {
                let (h, qq) = (self.h_cur.data(), &self.qq_col[..]);
                // the caches are left unresolved: each keeps the resident
                // contents the append above extended
                let resolve = &mut |name: &str| match name {
                    "k_cache" | "v_cache" => None,
                    "qq" => Some(qq),
                    _ => interp::external_words(name, h, w_qkv, w),
                };
                let out = self.h_next.data_mut();
                let mut wrote = false;
                let mut sink = |a: ArenaArtifact<'_>| {
                    if let ArenaArtifact::Tensor {
                        name: "y", data, ..
                    } = a
                    {
                        if data.len() == out.len() {
                            out.copy_from_slice(data);
                            wrote = true;
                        }
                    }
                };
                arena.execute_bound(&run, resolve, &mut sink)?;
                if !wrote {
                    return Err(unsupported("attend arena produced no `y`"));
                }
            }
            std::mem::swap(&mut self.h_cur, &mut self.h_next);
        }
        self.head_column();
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
        let logits = self.logits.data();
        for (b, slot) in out.iter_mut().enumerate() {
            let col = |vi: usize| logits[vi * d.b + b];
            // a NaN has no rank (the top-k sort would panic on it, greedy
            // would skip it) and an infinity no probability
            if !(0..v).all(|vi| col(vi).is_finite()) {
                return Err(unsupported(format!(
                    "logit column of batch row {b} holds a non-finite value"
                )));
            }
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
                    if temperature <= 0.0 || !temperature.is_finite() {
                        return Err(unsupported("temperature must be finite and positive"));
                    }
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
    /// Returns an error if `prompt.len + steps - 1` exceeds `max_seq` or
    /// any step fails.
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

    /// What `advance` used to `expect`: the step arenas are reached through
    /// one accessor, and a session that has none says so.
    #[test]
    fn advancing_an_idle_session_is_a_typed_error() {
        let model = model();
        let mut session = DecodeSession::new(&model, DecodeOptions::default()).unwrap();
        let err = session.advance(&[1, 2]).unwrap_err();
        assert_eq!(err, unsupported("call prefill before advance"));
        assert_eq!((session.capacity(), session.len()), (0, 0));
        // the stacked Q/K/V weights are the session's from the start
        let stacked: usize = model.blocks.iter().map(EncoderWeights::qkv_words).sum();
        assert_eq!(session.resident_bytes(), 4 * stacked);
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
