//! Plan-driven execution of the transformer layers: canned
//! [`ExecutionPlan`]s for the reference and fused executors, forward and
//! backward, plus the one door every run of them goes through — `run`,
//! which binds a layer's input and weights into the plan's arena by one
//! binding table and hands back what it wrote: the forward's one [`Saved`]
//! record, written where it is kept, which the backward plan binds in
//! turn, by the same names, where it lies.
//!
//! A canned plan is the recipe's pipeline with every layout pinned to
//! natural: one constructor behind [`cached_plan`] builds the kind's graph,
//! fuses it through [`xform_core::fusion::fuse`] — the recipe's own fusion
//! step — and schedules it in natural layouts; its arena certifies it, once,
//! at compile. A layer forward, a backward, the head and a decode step run
//! a canned plan out of an arena under the caller's [`ExecOptions`], every
//! named operand checked against its container's shape and the weights
//! read where their tensors keep them ([`EncoderWeights::container`]); any
//! other plan, a recipe-selected one say, runs through
//! [`xform_core::arena::execute`] over [`bind_inputs`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use xform_core::analyze::ArenaGranularity;
use xform_core::arena::{self, rekeyed, stats_names, ArenaArtifact, CompiledArena, Record};
use xform_core::fusion::{decoder_fusion_plan, encoder_fusion_plan, fuse, head_fusion_plan};
use xform_core::plan::{ExecOptions, ExecState, ExecutionPlan, PlanStep};
use xform_core::recipe::{backward_ops, forward_ops};
use xform_dataflow::{build, EncoderDims, Graph, OpKind};
use xform_tensor::lanes::check_dropout_p;
use xform_tensor::ops::layernorm::LayerNormStats;
use xform_tensor::{into_ops, Layout, Result, Shape, Tensor, TensorError};

use crate::params::{EncoderGrads, EncoderWeights, PackedWeight};

/// What a layer forward returns: its output and the record its backward
/// reads. Inference-only callers run `forward_into` instead; training
/// callers destructure with [`ForwardOutput::into_pair`].
#[derive(Debug, Clone)]
pub struct ForwardOutput {
    /// The layer output `y` (`[i,b,j]`), in the layout the plan leaves it in.
    pub y: Tensor,
    /// What the forward saved for the backward.
    pub saved: Saved,
}

impl ForwardOutput {
    /// Splits into `(y, saved)`.
    ///
    /// # Errors
    ///
    /// None: the `Result` is kept for callers that chain it.
    pub fn into_pair(self) -> Result<(Tensor, Saved)> {
        Ok((self.y, self.saved))
    }
}

/// The edges from a block's forward to its backward: the [`Record`] the
/// plan's arena wrote the graph's [`xform_dataflow::DataRole::Saved`]
/// containers and its layer-norm statistics into, where the forward keeps
/// them, behind an `Arc` (a clone shares it) with the arena's table of
/// where each lies. Containers go by their graph names — the names the
/// arena, the audit and the backward bind them by, where they lie — and a
/// statistic by its norm's output container. Dropped, the record's buffer
/// returns to its plan's pool for the next forward to write into.
///
/// The attention core's softmax bundle (`att`, `alpha`, `att_mask`) is
/// here only when the plan kept it, as the reference executor's does. A
/// plan that ran the core as a region kept none of its `[h,b,j,k]` tensors
/// and notes its [`Saved::region`] instead — sixteen bytes that stand for
/// its masks, from which the backward computes the bundle again, keyed by
/// [`arena::stream_key`].
#[derive(Debug, Clone)]
pub struct Saved {
    record: Arc<Record>,
    region: Option<(u64, usize)>,
}

impl Saved {
    /// A copy of the saved container `name`, in the layout the plan leaves
    /// it in.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Unsupported`] naming a container the forward
    /// did not save (another block kind's record, say).
    pub fn tensor(&self, name: &str) -> Result<Tensor> {
        let missing = || TensorError::Unsupported(format!("the forward saved no `{name}`"));
        let (shape, layout, words) = self.record.container(name).ok_or_else(missing)?;
        Tensor::from_vec_with_layout(shape.clone(), *layout, words.to_vec())
    }

    /// The saved containers' names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.record.names()
    }

    /// A copy of the statistics of the layer norm whose output container is
    /// `norm`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Unsupported`] for a norm the plan did not run.
    pub fn stats(&self, norm: &str) -> Result<LayerNormStats> {
        let ran_no = || TensorError::Unsupported(format!("the forward ran no norm `{norm}`"));
        match stats_names(norm).map(|n| self.record.resolve(&n).map(<[f32]>::to_vec)) {
            [Some(mean), Some(inv_std)] => Ok(LayerNormStats { mean, inv_std }),
            _ => Err(ran_no()),
        }
    }

    /// The attention region's dropout stream: [`ExecOptions::seed`] of the
    /// run and the region step's [`ExecutionPlan::stream_of`], when the plan
    /// has a region.
    pub fn region(&self) -> Option<(u64, usize)> {
        self.region
    }

    /// Every word of the record: the saved containers', then the
    /// statistics'.
    pub fn words(&self) -> &[f32] {
        self.record.words()
    }
}

/// A dataflow graph paired with an executable schedule over it. Its arena
/// ([`cached_arena`]) carries the certificate the plan earns at compile.
#[derive(Debug, Clone)]
pub struct PlannedForward {
    /// The (possibly fused) dataflow graph the plan is lowered against.
    pub graph: Graph,
    /// The schedule.
    pub plan: ExecutionPlan,
}

/// The dimensions every builder — of a graph or of a block's weights —
/// rejects by panicking (`Shape`s have no zero-sized axes), turned into the
/// error a fallible caller expects.
pub(crate) fn check_extents(dims: &EncoderDims) -> Result<()> {
    if [dims.b, dims.j, dims.k, dims.h, dims.p, dims.i, dims.u].contains(&0) {
        return Err(TensorError::ShapeMismatch {
            context: "a block's dimensions (every extent must be nonzero)",
        });
    }
    Ok(())
}

/// The one constructor of a canned plan: `kind`'s graph at `dims`, fused by
/// [`fuse`] — its table, then the attention core into a region where a
/// fused `SM` has one, then, where the kind asks and `epilogues` allows,
/// every GEMM-epilogue chain — and the operators its schedule picks, in
/// natural layouts. Dimensions a builder would panic on are refused first:
/// a zero extent, `dims.j != dims.k` for a block (its `build` asserts it),
/// `dims.j != 1` for a decode step, an empty vocabulary.
fn canned(dims: &EncoderDims, kind: PlanKind, epilogues: bool) -> Result<PlannedForward> {
    use PlanKind as K;
    check_extents(dims)?;
    let refuse = |context| TensorError::ShapeMismatch { context };
    // a training block: its graph and `dy`, its table, the region's span —
    // the chain a region replaces held three schedule positions (QKT, SM,
    // Gamma) in the fused plans and two in the epilogue plans, whose QKT+SM
    // was one step: dropout streams keep their numbers — and the epilogues
    let block = |build: fn(&EncoderDims) -> build::EncoderGraph, table, epi: bool| {
        if dims.j != dims.k {
            let what = "a self-attention plan's dimensions (dims.j must equal dims.k)";
            return Err(refuse(what));
        }
        let (eg, span) = (build(dims), if epi { 2 } else { 3 });
        Ok((eg.graph, Some(eg.dy), table, Some(span), epi))
    };
    // a decode step: the training decoder's table restricted to the groups
    // its graph has members of — so the step kernels are the training
    // decoder's by construction, and a group only partly present is
    // refused, not skipped — its attend step the region's one-row case
    let step = |build: fn(&EncoderDims) -> build::ForwardGraph| {
        if dims.j != 1 {
            let what = "a decode-step plan's dimensions (dims.j must be 1: one token column)";
            return Err(refuse(what));
        }
        let g = build(dims).graph;
        let mut table = decoder_fusion_plan();
        table.retain(|group| group.members.iter().any(|m| g.op_by_name(m).is_some()));
        Ok((g, None, table, Some(3), false))
    };
    let (encoder, decoder) = (encoder_fusion_plan(), decoder_fusion_plan());
    let (mut g, dy, table, regions, epi) = match kind {
        K::EncoderReference | K::EncoderReferenceTrain => block(build::encoder, vec![], false)?,
        K::EncoderFused | K::EncoderTrain => block(build::encoder, encoder, false)?,
        K::EncoderEpilogue => block(build::encoder, encoder, true)?,
        K::DecoderFused | K::DecoderTrain => block(build::decoder, decoder, false)?,
        K::DecoderEpilogue => block(build::decoder, decoder, true)?,
        K::DecoderStepProject => step(build::decoder_step_project)?,
        K::DecoderStep => step(build::decoder_step_attend)?,
        K::Head { vocab: 0 } => {
            return Err(refuse("a head plan's vocabulary (it must hold a word)"))
        }
        K::Head { vocab } => (
            build::head(dims, vocab).graph,
            None,
            head_fusion_plan(),
            None,
            true,
        ),
    };
    fuse(&mut g, &table, regions, epi && epilogues)?;
    // a block's forward, or its operators past `dy` (the attention core's
    // rematerialization among them); every operator of a forward graph
    let train = matches!(
        kind,
        K::EncoderReferenceTrain | K::EncoderTrain | K::DecoderTrain
    );
    let ops = match dy {
        Some(dy) if train => backward_ops(&g, dy),
        Some(dy) => forward_ops(&g, dy),
        None => g.topo_ops(),
    };
    let plan = ExecutionPlan::natural(&g, &ops)?;
    Ok(PlannedForward { graph: g, plan })
}

/// Which canned schedule a cache entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// Unfused encoder, natural layouts: one step per dataflow operator,
    /// the attention core's `[h,b,j,k]` tensors materialized. The oracle.
    EncoderReference,
    /// Fused encoder, natural layouts, the attention core one region
    /// (`QKT+SM+Gamma`: no `[h,b,j,k]` tensor is materialized).
    EncoderFused,
    /// [`PlanKind::EncoderFused`] with GEMM-epilogue mega-kernels (Linear
    /// 1+BRD collapsed; its intermediate never materializes).
    EncoderEpilogue,
    /// Fused decoder block, natural layouts, the causal attention core one
    /// region. Also what a decode *prefill*
    /// pass runs, at `dims.j == dims.k ==` the prompt length: the plan
    /// schedules only the forward operators, and the saved `kk`/`vv`
    /// projections seed the KV cache.
    DecoderFused,
    /// [`PlanKind::DecoderFused`] with GEMM-epilogue mega-kernels (Out+BDR,
    /// Linear 1+BRD, Linear 2+BDR2 collapsed).
    DecoderEpilogue,
    /// Decode-step projection plan: LN1 + stacked Q/K/V + bias carve over
    /// a single token column (`dims.j == 1`), producing the `qq_new`/
    /// `kk_new`/`vv_new` columns the session appends to its caches.
    DecoderStepProject,
    /// Decode-step attention plan: reads the resident `k_cache`/`v_cache`
    /// ([`xform_dataflow::DataRole::Cache`] inputs, `dims.k` = bucket
    /// capacity) plus the projected `qq` column and produces the step's
    /// `y` (`dims.j == 1`). Its attention core is the region's one-row
    /// case: one query against the keys up to its own position.
    DecoderStep,
    /// The model head over `vocab` words: `h[i,b,j]` to `probs[b,j,v]` as
    /// one GEMM-epilogue step — the contraction, its bias and the softmax
    /// over the vocabulary — whose logits never leave its tile.
    Head {
        /// The vocabulary size.
        vocab: usize,
    },
    /// The backward of [`PlanKind::EncoderReference`]: the operators past
    /// `dy` of the unfused encoder graph, the softmax bundle read from what
    /// the forward saved.
    EncoderReferenceTrain,
    /// The backward of [`PlanKind::EncoderFused`] (and of
    /// [`PlanKind::EncoderEpilogue`], which saves the same containers):
    /// the operators past `dy` of the fused encoder graph — the paper's BSB,
    /// BLNRD, BDRB, EBSB, BAOB, BS, BAIB and BEI, the dX/dW contractions, and
    /// the attention core's `QKT → SM` recomputed under the forward
    /// region's dropout key.
    EncoderTrain,
    /// The backward of [`PlanKind::DecoderFused`] (and of
    /// [`PlanKind::DecoderEpilogue`]): BDB, BDRB, BSB, BLNR, BDAOB, BS,
    /// BAIB, the contractions and the causal core's rematerialization.
    DecoderTrain,
}

type PlanCache = Mutex<HashMap<(EncoderDims, PlanKind), Arc<PlannedForward>>>;

/// The plan cache, locked. The map holds only `Arc`s inserted whole, so a
/// panic under the lock leaves it valid: recover the guard rather than
/// turn one panic into a panic in every later forward.
fn plan_cache() -> MutexGuard<'static, HashMap<(EncoderDims, PlanKind), Arc<PlannedForward>>> {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Returns the canned plan for `(dims, kind)` — the one constructor of a
/// canned plan — building and memoizing it on first use. Its graph is
/// the builder's, arithmetic included. Keying on the full dimension set
/// means a layer whose dims change simply misses the cache and lowers a
/// fresh plan — stale schedules can never be returned. Lowering happens
/// outside the lock; a racing duplicate build is benign (last writer
/// wins).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] for dimensions `kind` has no graph
/// for (a zero extent; `dims.j != dims.k` for the full-sequence kinds;
/// `dims.j != 1` for the decode-step kinds; no vocabulary for the head), or
/// an error if fusion or scheduling fails.
pub fn cached_plan(dims: &EncoderDims, kind: PlanKind) -> Result<Arc<PlannedForward>> {
    let key = (*dims, kind);
    if let Some(hit) = plan_cache().get(&key) {
        return Ok(Arc::clone(hit));
    }
    let built = Arc::new(canned(dims, kind, true)?);
    plan_cache().insert(key, Arc::clone(&built));
    Ok(built)
}

/// Drops every memoized plan.
pub fn clear_plan_cache() {
    plan_cache().clear();
}

/// The canned plans' arenas under their cheap key: an index into
/// [`xform_core::arena::compiled`]'s per-plan memo that spares a
/// steady-state forward hashing its plan.
type ArenaMap = HashMap<(EncoderDims, PlanKind), Arc<CompiledArena>>;

/// The arena cache, locked; poison is recovered as in [`plan_cache`].
fn arena_cache() -> MutexGuard<'static, ArenaMap> {
    static CACHE: OnceLock<Mutex<ArenaMap>> = OnceLock::new();
    CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Returns the compiled static arena for `(dims, kind)`, building and
/// memoizing it on first use; it runs at any thread count. Always `Some`
/// on success (the `Option` is vestigial, and so is the
/// [`ArenaGranularity`], which selects nothing; the signature is frozen).
/// Steady-state hits are a lock plus a `HashMap` probe: no allocation.
///
/// # Errors
///
/// Returns an error if the canned plan cannot be built, or if the arena
/// fails certification (an internal invariant violation).
pub fn cached_arena(
    dims: &EncoderDims,
    kind: PlanKind,
    _granularity: ArenaGranularity,
) -> Result<Option<Arc<CompiledArena>>> {
    let key = (*dims, kind);
    if let Some(hit) = arena_cache().get(&key) {
        return Ok(Some(Arc::clone(hit)));
    }
    let pf = cached_plan(dims, kind)?;
    let built = arena::compiled(&pf.graph, &pf.plan)?;
    arena_cache().insert(key, Arc::clone(&built));
    Ok(Some(built))
}

/// Drops every memoized arena: the canned plans' and any other plan's
/// ([`arena::execute`]).
pub fn clear_arena_cache() {
    arena_cache().clear();
    arena::clear_compiled();
}

/// Merges a caller's run configuration with a layer's `dropout_p`, which
/// always comes from the layer; everything else comes from `opts`. This is
/// where a layer's `dropout_p` enters an execution, so it is range-checked
/// here, once, for every executor and entry point.
///
/// # Errors
///
/// Returns [`xform_tensor::TensorError::InvalidDropout`] unless
/// `0 <= dropout_p < 1`.
pub(crate) fn layer_options<'p>(opts: &ExecOptions<'p>, dropout_p: f32) -> Result<ExecOptions<'p>> {
    check_dropout_p(dropout_p)?;
    Ok(opts.to_builder().dropout_p(dropout_p).build())
}

thread_local! {
    /// What a run must lay out before an arena can borrow it: its named
    /// operands stored permuted, one buffer per place in the binding table.
    /// Per calling thread, beside the arena caches and as warm as they
    /// are: a steady-state run allocates nothing of its own.
    static STAGING: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// One run's binding table, searched in this order: the named operands,
/// each of its container's shape and read in logical order (through this
/// thread's staging when stored permuted); then the weights, by
/// [`EncoderWeights::container`]; then a forward's record, its saved
/// containers and layer-norm statistics where it keeps them. A name none of
/// them binds is the arena's to report, or, for a cache, to keep resident.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bind<'a>(
    /// The named operands, as `(container, tensor)` pairs.
    pub(crate) &'a [(&'a str, &'a Tensor)],
    /// A block's weight set.
    pub(crate) Option<&'a EncoderWeights>,
    /// The record a backward reads.
    pub(crate) Option<&'a Saved>,
);

/// What a run hands back.
#[derive(Debug)]
pub(crate) enum Out<'o, 'w> {
    /// Each named output in logical order into the caller's slice, which
    /// must hold its word count.
    Copy(&'o mut [(&'static str, &'w mut [f32])]),
    /// Each named output's words, as the plan leaves them (natural, in
    /// every canned plan), in a vector of their own: what a call returns.
    Words(&'o mut [(&'static str, Option<Vec<f32>>)]),
}

/// The shape `graph` gives its container `name`.
fn shape_of<'g>(graph: &'g Graph, name: &str) -> Option<&'g Shape> {
    let data = graph.data_by_name(name).and_then(|d| graph.data(d));
    data.map(|d| &d.shape)
}

/// The one door from this crate to an arena: runs `arena`, compiled from
/// a plan over `graph` and looked up by the caller, under the caller's
/// `opts`, binds `bind` and hands back `out`; the plan's saved containers
/// and layer-norm statistics go straight into `keep`, a record `arena`
/// lent, which the caller keeps (into the arena's own without one). It
/// allocates nothing of its own once this thread's staging is warm but
/// the [`Out::Words`] vectors.
///
/// # Errors
///
/// Returns, before the run, [`TensorError::ShapeMismatch`] for a named
/// operand not of its container's shape, and for a record whose words for
/// a name the plan reads are not of its container's shape (a record made
/// at other dimensions), and [`TensorError::Unsupported`] for a record that
/// lacks one (another plan's); after it, [`TensorError::Unsupported`]
/// naming an output [`Out::Copy`] wants that the run did not write with its
/// slice's word count; and the errors of
/// [`CompiledArena::execute_kept`].
pub(crate) fn run(
    graph: &Graph,
    arena: &CompiledArena,
    opts: &ExecOptions,
    Bind(named, weights, saved): Bind<'_>,
    mut out: Out<'_, '_>,
    keep: Option<&mut Record>,
) -> Result<()> {
    if (named.iter()).any(|&(name, t)| shape_of(graph, name) != Some(t.shape())) {
        let context = "a named operand (the shape of the plan's container)";
        return Err(TensorError::ShapeMismatch { context });
    }
    // what is left to the record, there and of the plan's shape
    let by_caller = |name: &str| {
        named.iter().any(|&(n, _)| n == name) || weights.and_then(|w| w.container(name)).is_some()
    };
    if let Some(record) = saved.map(|s| &s.record) {
        for (name, words) in arena.externals().filter(|&(n, _)| !by_caller(n)) {
            let missing = || TensorError::Unsupported(format!("the forward saved no `{name}`"));
            let got = record.resolve(name).ok_or_else(missing)?;
            if got.len() != words || record.container(name).map(|c| c.0) != shape_of(graph, name) {
                let context = "a saved operand (the shape of the plan's container)";
                return Err(TensorError::ShapeMismatch { context });
            }
        }
    }
    let mut written = 0;
    let mut sink = |a: ArenaArtifact<'_>| match (&mut out, a) {
        (
            Out::Copy(outs),
            ArenaArtifact::Tensor {
                name,
                shape,
                layout,
                data,
                ..
            },
        ) => {
            let wanted = |(n, dst): &(&str, &mut [f32])| *n == name && dst.len() == data.len();
            if let Some(k) = outs.iter().position(wanted) {
                into_ops::copy_layout_into(shape, layout, data, outs[k].1);
                written += 1;
            }
        }
        (Out::Words(outs), ArenaArtifact::Tensor { name, data, .. }) => {
            if let Some((_, words)) = outs.iter_mut().find(|(n, _)| *n == name) {
                *words = Some(data.to_vec());
            }
        }
        _ => {}
    };
    STAGING.with_borrow_mut(|staging| {
        staging.resize_with(staging.len().max(named.len()), Vec::new);
        for (&(_, t), buf) in named.iter().zip(staging.iter_mut()) {
            if t.natural_words().is_none() {
                buf.resize(t.len(), 0.0);
                into_ops::copy_tensor_into(t, buf);
            }
        }
        let staging = &*staging;
        let resolve = &mut |name: &str| {
            if let Some(k) = named.iter().position(|(n, _)| *n == name) {
                return Some(named[k].1.natural_words().unwrap_or(&staging[k]));
            }
            (weights.and_then(|w| w.container(name))).or_else(|| saved?.record.resolve(name))
        };
        arena.execute_kept(opts, resolve, keep, &mut sink)
    })?;
    let taken = match out {
        Out::Copy(outs) => written == outs.len(),
        Out::Words(outs) => outs.iter().all(|(_, words)| words.is_some()),
    };
    if !taken {
        let what = "the plan wrote not every output its caller takes, of its word count";
        return Err(TensorError::Unsupported(what.into()));
    }
    Ok(())
}

/// Binds a layer input and the shared weight set into an interpreter
/// environment under the graphs' container names (what the equivalence
/// suites hand the reference interpreter), every weight in logical order:
/// the projections unpacked into copies.
pub fn bind_inputs(x: &Tensor, w: &EncoderWeights) -> ExecState {
    let mut state = ExecState::default();
    state.env.insert("x".into(), x.clone());
    for (name, t) in w.fields() {
        state.env.insert(name.into(), t.into_owned());
    }
    state
}

/// Looks up what a layer runs — the canned plan of `(dims, kind)` —
/// together with its arena, and hands both to `f`. Both come out of a
/// memo: nothing is analyzed, certified or compiled on a steady-state call.
fn with_arena<R>(
    dims: &EncoderDims,
    kind: PlanKind,
    f: impl FnOnce(&PlannedForward, &CompiledArena) -> Result<R>,
) -> Result<R> {
    let pf = cached_plan(dims, kind)?;
    let uncompiled = || TensorError::Unsupported("the plan compiled to no arena".into());
    let arena = cached_arena(dims, kind, ArenaGranularity::Serial)?.ok_or_else(uncompiled)?;
    f(&pf, &arena)
}

/// Runs one layer forward on the canned plan of `(dims, kind)` and its
/// memoized arena: `y` is copied out of the slab once, and every saved
/// container and layer-norm statistic the plan produced is written where
/// the returned [`Saved`] keeps it — a record the arena lent, recycled
/// when an earlier one was dropped — with the dropout stream of the plan's
/// attention region, if it has one. `opts` must already be merged with the
/// layer knobs ([`layer_options`]).
///
/// # Errors
///
/// Returns an error if the plan fails its lint gate or certification, `x`
/// is not of the plan's `x` shape, an external cannot be bound, or a
/// kernel rejects its operands.
pub(crate) fn forward(
    dims: &EncoderDims,
    kind: PlanKind,
    x: &Tensor,
    w: &EncoderWeights,
    opts: &ExecOptions,
) -> Result<ForwardOutput> {
    with_arena(dims, kind, |pf, arena| {
        let (mut record, mut y) = (arena.lend_record(), [("y", None)]);
        let (bind, out) = (Bind(&[("x", x)], Some(w), None), Out::Words(&mut y));
        run(&pf.graph, arena, opts, bind, out, Some(&mut record))?;
        // the attention region: the tile program of two contractions
        let region = |s: &PlanStep| matches!(&s.kind, OpKind::TileProgram { second, .. } if second.is_some());
        let at = pf.plan.steps.iter().position(region);
        // a block's `y` is of its input's shape, natural in a canned plan
        let [(_, y)] = y;
        Ok(ForwardOutput {
            y: Tensor::from_vec(x.shape().clone(), y.expect("the door wrote `y` or failed"))?,
            saved: Saved {
                record: Arc::new(record),
                region: at.map(|si| (opts.seed, pf.plan.stream_of(si))),
            },
        })
    })
}

/// Runs one layer forward and copies the produced `y`, in logical order,
/// into the caller's buffer. This touches no heap once the caches are warm.
/// `opts` must already be merged with the layer knobs.
///
/// # Errors
///
/// As [`forward`], and [`TensorError::ShapeMismatch`], before the run, if
/// `y` is not of the plan's `y` shape or not stored row-major;
/// [`TensorError::Unsupported`], before the run, if `opts.profiler` was
/// made for another plan.
pub(crate) fn forward_into(
    dims: &EncoderDims,
    kind: PlanKind,
    x: &Tensor,
    w: &EncoderWeights,
    opts: &ExecOptions,
    y: &mut Tensor,
) -> Result<()> {
    with_arena(dims, kind, |pf, arena| {
        if shape_of(&pf.graph, "y") != Some(y.shape()) || y.natural_words().is_none() {
            let context = "a forward's output buffer (the plan's `y` shape, stored row-major)";
            return Err(TensorError::ShapeMismatch { context });
        }
        let (bind, y) = (Bind(&[("x", x)], Some(w), None), &mut [("y", y.data_mut())]);
        run(&pf.graph, arena, opts, bind, Out::Copy(y), None)
    })
}

/// What a block's backward plan writes: `dx`, then the gradient `d_{field}`
/// of every weight field, in [`EncoderWeights`]' field order, spaced.
const GRADIENTS: &str = "dx d_w_qkv d_wo d_bq d_bk d_bv d_bo d_ln1_gamma d_ln1_beta d_w1 d_b1 \
    d_w2 d_b2 d_ln2_gamma d_ln2_beta";

/// Runs one block backward on the canned backward plan a record of the
/// forward `kind` calls for: [`PlanKind::DecoderTrain`] after a decoder
/// forward, [`PlanKind::EncoderTrain`] after an encoder forward that ran
/// the attention region and [`PlanKind::EncoderReferenceTrain`] after one
/// that saved the softmax bundle. `dy`, `x`, the weights and the record are
/// bound by graph name — the saved containers and the layer-norm statistics
/// where the record keeps them, the projections as their packs — and `dx`
/// and every weight gradient copied out of the slab once, in logical order.
/// Nothing else is allocated once the caches are warm. The one step that
/// computes masks, the region's recomputed softmax, is keyed as the
/// forward's region step was ([`Saved::region`], [`rekeyed`]). `opts` must
/// already be merged with the layer knobs.
///
/// # Errors
///
/// Returns an error if the plan cannot be built for `dims`, `dy` or `x` is
/// not of the plan's shape, the record lacks a container or statistic the
/// plan reads (another block kind's: [`TensorError::Unsupported`]) or holds
/// one of another shape (made at other dimensions:
/// [`TensorError::ShapeMismatch`]), both before the run, or a kernel
/// rejects its operands.
pub(crate) fn backward(
    dims: &EncoderDims,
    kind: PlanKind,
    dy: &Tensor,
    x: &Tensor,
    w: &EncoderWeights,
    saved: &Saved,
    opts: &ExecOptions,
) -> Result<(Tensor, EncoderGrads)> {
    let kind = match (kind, saved.region) {
        (PlanKind::DecoderFused | PlanKind::DecoderEpilogue, _) => PlanKind::DecoderTrain,
        (_, Some(_)) => PlanKind::EncoderTrain,
        (_, None) => PlanKind::EncoderReferenceTrain,
    };
    with_arena(dims, kind, |pf, arena| {
        let plan = &pf.plan;
        // the one step that computes masks recomputes the region's, keyed
        // as the region step was
        let masks =
            (plan.steps.iter()).position(|s| s.outputs.iter().any(|o| o.name == "att_mask"));
        let opts = match (masks, saved.region) {
            (None, _) => *opts,
            (Some(si), Some((seed, stream))) => {
                let seed = rekeyed(seed, stream, plan.stream_of(si));
                opts.to_builder().seed(seed).build()
            }
            (Some(_), None) => {
                let what = "the forward ran no attention region: its record holds no stream to recompute the softmax bundle by";
                return Err(TensorError::Unsupported(what.into()));
            }
        };
        let mut names = GRADIENTS.split_whitespace();
        let mut outs: [_; 15] = std::array::from_fn(|_| (names.next().expect("15 names"), None));
        let bind = Bind(&[("x", x), ("dy", dy)], Some(w), Some(saved));
        run(&pf.graph, arena, &opts, bind, Out::Words(&mut outs), None)?;
        // `dx` of `x`'s shape, then every field's gradient of its own
        let fields = w.map(PackedWeight::shape, Tensor::shape);
        let shapes = [x.shape()].into_iter().chain(fields.iter().map(|f| f.1));
        let mut grads = (outs.into_iter().zip(shapes)).map(|((_, words), shape)| {
            Tensor::from_vec(shape.clone(), words.expect("the door wrote it or failed"))
        });
        let mut take = || grads.next().expect("a gradient per name");
        let dx = take()?;
        let g = EncoderGrads {
            w_qkv: take()?,
            wo: take()?,
            bq: take()?,
            bk: take()?,
            bv: take()?,
            bo: take()?,
            ln1_gamma: take()?,
            ln1_beta: take()?,
            w1: take()?,
            b1: take()?,
            w2: take()?,
            b2: take()?,
            ln2_gamma: take()?,
            ln2_beta: take()?,
        };
        Ok((dx, g))
    })
}

/// Runs the model head on its canned plan ([`PlanKind::Head`] at the
/// vocabulary of `head_bias`) under `opts` over the last block's output `h`
/// (`[i,b,j]`), `head` (`[v,i]`) and `head_bias` (`[v]`), each read where it
/// lies when stored row-major, and copies `probs` out of the slab once: a
/// tensor logically `[v,b,j]`, stored in the `(b,j,v)` layout the plan
/// writes.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if no head plan exists for `dims`
/// and the vocabulary or an operand is not of the plan's shape, and
/// [`TensorError::Unsupported`] for a profiler sink made for another plan.
pub fn head_forward(
    dims: &EncoderDims,
    h: &Tensor,
    head: &Tensor,
    head_bias: &Tensor,
    opts: &ExecOptions,
) -> Result<Tensor> {
    let vocab = head_bias.len();
    with_arena(dims, PlanKind::Head { vocab }, |pf, arena| {
        let bind = Bind(
            &[("h", h), ("head", head), ("head_bias", head_bias)],
            None,
            None,
        );
        let mut outs = [("probs", None)];
        run(&pf.graph, arena, opts, bind, Out::Words(&mut outs), None)?;
        let [(_, probs)] = outs;
        // the canned plan leaves its `[b,j,v]` container natural: `[v,b,j]`
        // with its axes 1, 2, 0 outermost first
        let shape = Shape::new([('v', vocab), ('b', dims.b), ('j', dims.j)])?;
        let probs = probs.expect("the door wrote `probs` or failed");
        Tensor::from_vec_with_layout(shape, Layout::from_order(&[1, 2, 0])?, probs)
    })
}

/// The model head with its bias and softmax one kernel (`BSV`) behind the
/// contraction, which materializes the logits: the twin the audit holds
/// [`PlanKind::Head`] against.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless every extent and `vocab`
/// are nonzero, or an error if fusion or scheduling fails.
pub fn head_fused(dims: &EncoderDims, vocab: usize) -> Result<PlannedForward> {
    canned(dims, PlanKind::Head { vocab }, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::distributions::Uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xform_core::arena::stats_name_of;
    use xform_core::plan::{execute_plan, ExecOptions};
    use xform_tensor::Shape;

    #[test]
    fn canned_plans_schedule_every_forward_operator() {
        let dims = EncoderDims::tiny();
        let reference = cached_plan(&dims, PlanKind::EncoderReference).unwrap();
        assert_eq!(reference.plan.steps.len(), 22);
        let fused = cached_plan(&dims, PlanKind::EncoderFused).unwrap();
        assert!(fused.plan.steps.len() < reference.plan.steps.len());
        assert!(xform_core::analyze::analyze(&fused.graph, &fused.plan).is_clean());
        let decoder = cached_plan(&dims, PlanKind::DecoderFused).unwrap();
        assert!(xform_core::analyze::analyze(&decoder.graph, &decoder.plan).is_clean());
        // every canned plan's arena carries a certificate covering all its
        // steps
        for (pf, kind) in [
            (&reference, PlanKind::EncoderReference),
            (&fused, PlanKind::EncoderFused),
            (&decoder, PlanKind::DecoderFused),
        ] {
            let arena = cached_arena(&dims, kind, ArenaGranularity::Serial).unwrap();
            let cert = arena.as_deref().unwrap().certificate();
            let scheduled: usize = cert.waves.iter().map(Vec::len).sum();
            assert_eq!(scheduled, pf.plan.steps.len());
            assert_eq!(
                cert.plan_hash,
                xform_core::sanitize::plan_fingerprint(&pf.plan)
            );
        }
    }

    #[test]
    fn plan_cache_memoizes_per_dims_and_kind() {
        let dims = EncoderDims::tiny();
        let a = cached_plan(&dims, PlanKind::EncoderFused).unwrap();
        let b = cached_plan(&dims, PlanKind::EncoderFused).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same dims+kind must share one plan");
        let c = cached_plan(&dims, PlanKind::EncoderReference).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        // a dim change misses the cache and lowers a fresh plan
        let mut bigger = dims;
        bigger.b += 1;
        let d = cached_plan(&bigger, PlanKind::EncoderFused).unwrap();
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(d.plan.steps.len(), a.plan.steps.len());
    }

    /// A canned plan computes what its graph says: every forward kind, run
    /// by the arena and by the reference interpreter under plain options,
    /// is its layer's forward bit for bit at p = 0 — the decoder's GELU and
    /// every block's `1/√p` included. The decode steps at the last position
    /// are the decoder's last column, their cache its saved keys and
    /// values; the head is [`head_forward`] over the decoder's output.
    #[test]
    fn every_canned_forward_kind_under_plain_options_is_its_layers_forward() {
        use crate::decoder::DecoderLayer;
        use crate::encoder::{EncoderLayer, Executor};

        let dims = EncoderDims::tiny();
        let mut rng = StdRng::seed_from_u64(19);
        let w = EncoderWeights::init(&dims, &mut rng);
        let unit = Uniform::new(-1.0, 1.0);
        let ibj = Shape::from_spec("ibj", &dims.size_table()).unwrap();
        let x = Tensor::random(ibj, &unit, &mut rng);
        let opts = ExecOptions::builder().seed(5).build();
        let logical = |t: &Tensor| -> Vec<u32> {
            let t = t.relayout(&Layout::row_major(t.shape().rank()));
            t.data().iter().map(|v| v.to_bits()).collect()
        };
        // the containers `names` of `kind` at `dims` run from `state`, on
        // the arena and under the reference interpreter
        let run = |dims: &EncoderDims, kind, state: ExecState, names: &[&str], opts| {
            let pf = cached_plan(dims, kind).unwrap();
            let mut on_arena = state.clone();
            arena::execute(&pf.graph, &pf.plan, &mut on_arena, opts).unwrap();
            let (mut reference, mut rng) = (state, StdRng::seed_from_u64(5));
            execute_plan(&pf.graph, &pf.plan, &mut reference, opts, &mut rng).unwrap();
            [on_arena, reference].map(|s| {
                names
                    .iter()
                    .map(|n| logical(&s.env[*n]))
                    .collect::<Vec<_>>()
            })
        };

        let enc = |e| EncoderLayer::new(dims, e, 0.0).forward(&x, &w, &opts);
        let dec = DecoderLayer::new(dims, 0.0);
        for (kind, out) in [
            (PlanKind::EncoderReference, enc(Executor::Reference)),
            (PlanKind::EncoderFused, enc(Executor::Fused)),
            (PlanKind::EncoderEpilogue, enc(Executor::Epilogue)),
            (PlanKind::DecoderFused, dec.forward(&x, &w, &opts)),
            (
                PlanKind::DecoderEpilogue,
                dec.clone().with_epilogue().forward(&x, &w, &opts),
            ),
        ] {
            let want = vec![logical(&out.unwrap().y)];
            for got in run(&dims, kind, bind_inputs(&x, &w), &["y"], &opts) {
                assert_eq!(got, want, "{kind:?}");
            }
        }

        let (y, saved) = dec.forward(&x, &w, &opts).unwrap().into_pair().unwrap();
        let (step, last) = (EncoderDims { j: 1, ..dims }, dims.j - 1);
        let shape = |spec| Shape::from_spec(spec, &step.size_table()).unwrap();
        // a sequence-last tensor's last column
        let column = |t: &Tensor, spec| {
            Tensor::from_fn(shape(spec), |i| {
                t.at(&[&i[..i.len() - 1], &[last]].concat())
            })
        };
        // a sequence-last tensor, position-major
        let cache =
            |t: &Tensor, spec| Tensor::from_fn(shape(spec), |i| t.at(&[&i[1..], &i[..1]].concat()));
        let [qq, kk, vv] = ["qq", "kk", "vv"].map(|n| saved.tensor(n).unwrap());
        let [qq, kk, vv] = [&qq, &kk, &vv];
        let want: Vec<_> = [(qq, "phbj"), (kk, "phbj"), (vv, "whbj")]
            .map(|(t, spec)| logical(&column(t, spec)))
            .into();
        let state = bind_inputs(&column(&x, "ibj"), &w);
        let names = ["qq_new", "kk_new", "vv_new"];
        for got in run(&step, PlanKind::DecoderStepProject, state, &names, &opts) {
            assert_eq!(got, want, "DecoderStepProject");
        }
        let mut state = bind_inputs(&column(&x, "ibj"), &w);
        state.env.insert("qq".into(), column(qq, "phbj"));
        state.env.insert("k_cache".into(), cache(kk, "kphb"));
        state.env.insert("v_cache".into(), cache(vv, "kwhb"));
        let at_last = opts.to_builder().pos(last).build();
        let want = vec![logical(&column(&y, "ibj"))];
        for got in run(&step, PlanKind::DecoderStep, state, &["y"], &at_last) {
            assert_eq!(got, want, "DecoderStep");
        }

        let vocab = 5;
        let head = Tensor::random(
            Shape::new([('v', vocab), ('i', dims.i)]).unwrap(),
            &unit,
            &mut rng,
        );
        let head_bias = Tensor::random(Shape::new([('v', vocab)]).unwrap(), &unit, &mut rng);
        // stored `(b,j,v)`: the plan's `[b,j,v]` container in logical order
        let probs = head_forward(&dims, &y, &head, &head_bias, &opts).unwrap();
        let want = vec![probs.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()];
        let mut state = ExecState::default();
        for (name, t) in [("h", &y), ("head", &head), ("head_bias", &head_bias)] {
            state.env.insert(name.into(), t.clone());
        }
        for got in run(&dims, PlanKind::Head { vocab }, state, &["probs"], &opts) {
            assert_eq!(got, want, "Head");
        }
    }

    #[test]
    fn dims_a_builder_would_panic_on_are_shape_errors_at_every_entry_point() {
        use crate::decoder::DecoderLayer;
        use crate::encoder::{EncoderLayer, Executor};

        let tiny = EncoderDims::tiny();
        let uneven = EncoderDims {
            k: tiny.k + 1,
            ..tiny
        };
        let empty = EncoderDims { u: 0, ..tiny };
        let is_shape_error = |r: Result<()>, what: &str| {
            assert!(
                matches!(r, Err(TensorError::ShapeMismatch { .. })),
                "{what}: {r:?}"
            );
        };

        // `cached_plan`, every kind: the full-sequence kinds need j == k, the
        // decode-step kinds one token column, all of them nonzero extents
        let full = [
            PlanKind::EncoderReference,
            PlanKind::EncoderFused,
            PlanKind::EncoderEpilogue,
            PlanKind::DecoderFused,
            PlanKind::DecoderEpilogue,
        ];
        let step = [PlanKind::DecoderStepProject, PlanKind::DecoderStep];
        for (kinds, bad) in [(&full[..], uneven), (&step[..], tiny)] {
            for &kind in kinds {
                for dims in [bad, EncoderDims { j: 1, ..empty }, empty] {
                    let r = cached_plan(&dims, kind).map(|_| ());
                    is_shape_error(r, &format!("cached_plan {kind:?} {dims:?}"));
                }
            }
        }

        // the layers' `forward` and `forward_into` start at `cached_plan`
        let mut rng = StdRng::seed_from_u64(3);
        let w = EncoderWeights::init(&tiny, &mut rng);
        let x = Tensor::zeros(Shape::from_spec("ibj", &tiny.size_table()).unwrap());
        let mut y = x.clone();
        let opts = ExecOptions::default();
        for dims in [uneven, empty] {
            for executor in [Executor::Reference, Executor::Fused, Executor::Epilogue] {
                let layer = EncoderLayer::new(dims, executor, 0.0);
                is_shape_error(layer.forward(&x, &w, &opts).map(|_| ()), "encoder forward");
                is_shape_error(layer.forward_into(&x, &w, &opts, &mut y), "encoder into");
            }
            for layer in [
                DecoderLayer::new(dims, 0.0),
                DecoderLayer::new(dims, 0.0).with_epilogue(),
            ] {
                is_shape_error(layer.forward(&x, &w, &opts).map(|_| ()), "decoder forward");
                is_shape_error(layer.forward_into(&x, &w, &opts, &mut y), "decoder into");
            }
        }
    }

    /// A forward's record is its plan's saved edges, no more and no fewer:
    /// for every block kind, at `tiny` and at a shape with no two extents
    /// equal, its names are the saved containers the forward plan produces,
    /// its statistics those of the block's layer norms, the softmax bundle
    /// is in it only under the reference plan, and a region stream only
    /// where a region ran.
    #[test]
    fn a_forward_saves_exactly_its_plans_saved_containers() {
        use crate::decoder::DecoderLayer;
        use crate::encoder::{EncoderLayer, Executor};
        use std::collections::BTreeSet;
        use xform_dataflow::DataRole;

        let ragged = EncoderDims {
            b: 3,
            j: 5,
            k: 5,
            h: 2,
            p: 4,
            i: 8,
            u: 7,
        };
        for dims in [EncoderDims::tiny(), ragged] {
            let mut rng = StdRng::seed_from_u64(5);
            let w = EncoderWeights::init(&dims, &mut rng);
            let ibj = Shape::from_spec("ibj", &dims.size_table()).unwrap();
            let x = Tensor::random(ibj, &Uniform::new(-1.0, 1.0), &mut rng);
            let opts = ExecOptions::builder().seed(7).build();
            let enc = |e| EncoderLayer::new(dims, e, 0.1).forward(&x, &w, &opts);
            let dec = DecoderLayer::new(dims, 0.1);
            type Build = fn(&EncoderDims) -> build::EncoderGraph;
            let (encoder, decoder): (Build, Build) = (build::encoder, build::decoder);
            let runs = [
                (
                    PlanKind::EncoderReference,
                    encoder,
                    enc(Executor::Reference),
                ),
                (PlanKind::EncoderFused, encoder, enc(Executor::Fused)),
                (PlanKind::EncoderEpilogue, encoder, enc(Executor::Epilogue)),
                (PlanKind::DecoderFused, decoder, dec.forward(&x, &w, &opts)),
                (
                    PlanKind::DecoderEpilogue,
                    decoder,
                    dec.clone().with_epilogue().forward(&x, &w, &opts),
                ),
            ];
            for (kind, unfused, out) in runs {
                let (saved, pf) = (out.unwrap().saved, cached_plan(&dims, kind).unwrap());
                let tag = format!("{kind:?} at {dims:?}");
                let is_saved = |d| pf.graph.data(d).is_some_and(|n| n.role == DataRole::Saved);
                let produced: BTreeSet<&str> = (pf.plan.steps.iter())
                    .flat_map(|s| &s.outputs)
                    .filter(|o| is_saved(o.data))
                    .map(|o| o.name.as_str())
                    .collect();
                let names: BTreeSet<&str> = saved.names().collect();
                assert_eq!(names, produced, "{tag}");

                let g = unfused(&dims).graph;
                let norms: BTreeSet<&str> = (g.topo_ops().into_iter())
                    .filter(|&op| matches!(g.op(op).unwrap().kind, OpKind::LayerNorm { .. }))
                    .flat_map(|op| g.outputs_of(op))
                    .map(|d| g.data(d).unwrap().name.as_str())
                    .collect();
                // every norm's statistics, and the record holds no more
                assert!(norms.iter().all(|n| saved.stats(n).is_ok()), "{tag}");
                let tensors: usize = names.iter().map(|n| saved.tensor(n).unwrap().len()).sum();
                let lanes = 2 * dims.b * dims.j * norms.len();
                assert_eq!(saved.words().len(), tensors + lanes, "{tag}");

                let reference = kind == PlanKind::EncoderReference;
                let kept = ["att", "alpha", "att_mask"].map(|n| names.contains(n));
                assert_eq!(kept, [reference; 3], "{tag}");
                let region = (pf.plan.steps.iter()).position(|s| {
                    matches!(
                        s.kind,
                        OpKind::TileProgram {
                            second: Some(_),
                            ..
                        }
                    )
                });
                assert_eq!(region.is_some(), !reference, "{tag}");
                let stream = region.map(|si| (7, pf.plan.stream_of(si)));
                assert_eq!(saved.region(), stream, "{tag}");
            }
        }
    }

    /// Nothing of a weight outlives the call that borrowed it: a forward
    /// after `w1` and the Q block of `w_qkv` moved is a cold run's forward,
    /// and so is a decode session made after they did.
    #[test]
    fn a_weight_update_between_calls_or_sessions_leaves_nothing_stale() {
        use crate::decode::{DecodeOptions, DecodeSession};
        use crate::encoder::{EncoderLayer, Executor};
        use crate::model::{BlockKind, ModelConfig, TransformerModel};

        let dims = EncoderDims::tiny();
        let mut rng = StdRng::seed_from_u64(17);
        let mut w = EncoderWeights::init(&dims, &mut rng);
        let shape = Shape::from_spec("ibj", &dims.size_table()).unwrap();
        let x = Tensor::random(shape, &Uniform::new(-1.0, 1.0), &mut rng);
        let nudge = |w: &mut EncoderWeights| {
            let mut w1 = w.field("w1").unwrap();
            w1.data_mut().iter_mut().for_each(|v| *v += 0.25);
            let mut qkv = w.field("w_qkv").unwrap();
            let q = qkv.len() / 3;
            qkv.data_mut()[..q].iter_mut().for_each(|v| *v -= 0.5);
            w.set_field("w1", &w1).unwrap();
            w.set_field("w_qkv", &qkv).unwrap();
        };
        // every compiled arena — slabs, scratch, externals tables — dropped
        let cold = clear_arena_cache;

        let layer = EncoderLayer::new(dims, Executor::Fused, 0.0);
        let opts = ExecOptions::default();
        let forward = |w: &EncoderWeights| {
            let mut y = x.clone();
            layer.forward_into(&x, w, &opts, &mut y).unwrap();
            y
        };
        let before = forward(&w);
        nudge(&mut w);
        let after = forward(&w);
        assert_ne!(after.data(), before.data());
        cold();
        assert_eq!(forward(&w).data(), after.data());

        let config = ModelConfig {
            dims: EncoderDims { j: 8, k: 8, ..dims },
            layers: 2,
            vocab: 5,
            block: BlockKind::Decoder,
            dropout_p: 0.0,
        };
        let mut model = TransformerModel::init(config, &mut rng).unwrap();
        let decode = |model: &TransformerModel| {
            let mut session = DecodeSession::new(model, DecodeOptions::default()).unwrap();
            session.prefill(&[vec![1, 2], vec![3, 4]]).unwrap();
            session.advance(&[2, 0]).unwrap().clone()
        };
        let before = decode(&model);
        nudge(&mut model.blocks[1]);
        let after = decode(&model);
        assert_ne!(after.data(), before.data());
        cold();
        assert_eq!(decode(&model).data(), after.data());
    }

    #[test]
    fn bound_weights_cover_every_external_input() {
        let dims = EncoderDims::tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let w = EncoderWeights::init(&dims, &mut rng);
        let x = Tensor::random(
            Shape::from_spec("ibj", &dims.size_table()).unwrap(),
            &Uniform::new(-1.0, 1.0),
            &mut rng,
        );
        for kind in [
            PlanKind::EncoderReference,
            PlanKind::EncoderFused,
            PlanKind::DecoderFused,
        ] {
            let pf = cached_plan(&dims, kind).unwrap();
            let mut state = bind_inputs(&x, &w);
            let opts = ExecOptions::default();
            execute_plan(&pf.graph, &pf.plan, &mut state, &opts, &mut rng).unwrap();
            assert_eq!(state.get("y").unwrap().shape().spec(), "ibj");
        }
    }

    /// The backward plan of `kind` bound as a layer's `backward` binds it
    /// to a forward's record at `p = 0.2`: the inputs, weights, `dy`, the
    /// saved containers and statistics, and the seed that keys its
    /// region's masks as the forward keyed them.
    fn backward_bindings(
        dims: &EncoderDims,
        kind: PlanKind,
    ) -> (Tensor, Tensor, EncoderWeights, Saved, ExecState, u64) {
        use crate::decoder::DecoderLayer;
        use crate::encoder::{EncoderLayer, Executor};

        let mut rng = StdRng::seed_from_u64(21);
        let w = EncoderWeights::init(dims, &mut rng);
        let ibj = Shape::from_spec("ibj", &dims.size_table()).unwrap();
        let x = Tensor::random(ibj.clone(), &Uniform::new(-1.0, 1.0), &mut rng);
        let dy = Tensor::random(ibj, &Uniform::new(-1.0, 1.0), &mut rng);
        let forward = ExecOptions::builder().seed(9).build();
        let saved = match kind {
            PlanKind::DecoderTrain => DecoderLayer::new(*dims, 0.2).forward(&x, &w, &forward),
            _ => EncoderLayer::new(*dims, Executor::Fused, 0.2).forward(&x, &w, &forward),
        };
        let saved = saved.unwrap().saved;
        let pf = cached_plan(dims, kind).unwrap();
        let mut base = bind_inputs(&x, &w);
        for name in saved.names() {
            base.env.insert(name.into(), saved.tensor(name).unwrap());
        }
        base.env.insert("dy".into(), dy.clone());
        for norm in ["ln1_out", "ln2_out", "y"] {
            base.stats
                .extend(saved.stats(norm).map(|s| (norm.into(), s)));
        }
        let (seed, stream) = saved.region().unwrap();
        let si = pf
            .plan
            .steps
            .iter()
            .position(|s| s.outputs.iter().any(|o| o.name == "att_mask"));
        let seed = rekeyed(seed, stream, pf.plan.stream_of(si.unwrap()));
        (x, dy, w, saved, base, seed)
    }

    /// The encoder and decoder backward plans, bound to a forward's record
    /// at `p > 0`, run on the arena on the caller's thread and on the pool,
    /// and the one-thread run is what the layers' `backward` returns, on
    /// one thread and at four.
    #[test]
    fn backward_plans_are_the_same_bits_at_any_width() {
        use crate::decoder::DecoderLayer;
        use crate::encoder::{EncoderLayer, Executor};

        let dims = EncoderDims::tiny();
        let encoder = EncoderLayer::new(dims, Executor::Fused, 0.2);
        let decoder = DecoderLayer::new(dims, 0.2);
        for kind in [PlanKind::EncoderTrain, PlanKind::DecoderTrain] {
            let (x, dy, w, saved, base, seed) = backward_bindings(&dims, kind);
            let pf = cached_plan(&dims, kind).unwrap();
            let grads = |threads: usize| {
                let opts = ExecOptions::builder()
                    .threads(threads)
                    .seed(seed)
                    .dropout_p(0.2)
                    .build();
                let mut state = base.clone();
                arena::execute(&pf.graph, &pf.plan, &mut state, &opts).unwrap();
                let names = ["dx", "d_w_qkv", "d_bq", "d_ln1_gamma", "d_w1", "d_b1"];
                names.map(|n| state.env[n].data().to_vec())
            };
            let serial = grads(1);
            assert_eq!(grads(4), serial, "{kind:?}");
            for threads in [1, 4] {
                let opts = ExecOptions::builder().threads(threads).build();
                let (dx, g) = match kind {
                    PlanKind::DecoderTrain => decoder.backward(&dy, &x, &w, &saved, &opts),
                    _ => encoder.backward(&dy, &x, &w, &saved, &opts),
                }
                .unwrap();
                let returned = [&dx, &g.w_qkv, &g.bq, &g.ln1_gamma, &g.w1, &g.b1];
                let returned = returned.map(|t| t.data().to_vec());
                assert_eq!(returned, serial, "{kind:?} at {threads} threads");
            }
        }
    }

    /// A plan has one arena: the one `cached_arena` hands out runs the
    /// backward — whose waves are up to three steps wide — at two threads
    /// to the bits it computes at one, and running a plan at one thread
    /// and then at two leaves one memo entry.
    #[test]
    fn one_arena_runs_the_backward_at_any_thread_count() {
        let dims = EncoderDims::tiny();
        let kind = PlanKind::EncoderTrain;
        let (_, _, _, _, base, seed) = backward_bindings(&dims, kind);
        let arena = cached_arena(&dims, kind, ArenaGranularity::Serial)
            .unwrap()
            .unwrap();
        let widest = arena.certificate().waves.iter().map(Vec::len).max();
        assert!(widest > Some(1), "the backward has steps to overlap");
        let packed = arena.pack_weights(&base.env);
        let run = |threads: usize| {
            let opts = ExecOptions::builder()
                .threads(threads)
                .seed(seed)
                .dropout_p(0.2)
                .build();
            let resolve = &mut |name: &str| match (packed.get(name), stats_name_of(name)) {
                (Some(panels), _) => Some(&panels[..]),
                (None, Some((norm, inv))) => {
                    let s = base.stats.get(norm)?;
                    Some(&[&s.mean, &s.inv_std][usize::from(inv)][..])
                }
                (None, None) => base.env.get(name).map(Tensor::data),
            };
            let mut out = ExecState::default();
            arena.execute_into_state(&opts, resolve, &mut out).unwrap();
            let mut bits: Vec<(String, Vec<f32>)> = (out.env.into_iter())
                .map(|(n, t)| (n, t.data().to_vec()))
                .collect();
            bits.sort_by(|a, b| a.0.cmp(&b.0));
            bits
        };
        let one = run(1);
        assert!(one.iter().any(|(n, _)| n == "dx"));
        assert_eq!(run(2), one);

        let pf = cached_plan(&dims, kind).unwrap();
        let memo = || arena::compiled(&pf.graph, &pf.plan).unwrap();
        assert!(Arc::ptr_eq(&memo(), &arena), "one memo entry");
        for threads in [1, 2] {
            let opts = ExecOptions::builder().threads(threads).seed(seed).build();
            let mut state = base.clone();
            arena::execute(&pf.graph, &pf.plan, &mut state, &opts).unwrap();
            assert!(Arc::ptr_eq(&memo(), &arena), "{threads} threads");
        }
    }
}
