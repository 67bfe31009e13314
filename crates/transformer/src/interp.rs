//! Plan-driven execution of the transformer layers: canned
//! [`ExecutionPlan`]s for the reference and fused executors, plus the glue
//! that binds a layer's input and weights into the plan's arena and reads
//! the saved activations back out.
//!
//! This is where the recipe's output becomes runnable: a layer forward
//! runs its canned plan or an arbitrary recipe-selected one (supply it via
//! [`xform_core::plan::ExecOptions::plan`] to the unified
//! [`crate::encoder::EncoderLayer::forward`]) the same way — out of its
//! memoized arena, whatever layouts it declares, `x` and the weights bound
//! straight into the slab through one binding table
//! ([`EncoderWeights::container`] plus the `w_qkv` stacking).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use xform_core::access::{certify_access, AccessCertificate};
use xform_core::analyze::ArenaGranularity;
use xform_core::arena::{self, ArenaArtifact, CompiledArena};
use xform_core::fusion::{
    apply_epilogues, apply_plan, decoder_attend_fusion_plan, decoder_forward_fusion_plan,
    decoder_fusion_plan, decoder_project_fusion_plan, encoder_fusion_plan,
};
use xform_core::plan::{ExecOptions, ExecState, ExecutionPlan};
use xform_core::profile::record_arena_timings;
use xform_core::recipe::forward_ops;
use xform_core::sanitize::{certify, RaceCertificate};
use xform_dataflow::{build, EncoderDims, Graph};
use xform_tensor::lanes::check_dropout_p;
use xform_tensor::ops::elementwise::ActivationKind;
use xform_tensor::{into_ops, Result, Shape, Tensor, TensorError};

pub use xform_core::arena::granularity_for;

use crate::params::EncoderWeights;

/// The result of a unified layer forward: the layer output plus the saved
/// activations, which are assembled only when
/// [`xform_core::plan::ExecOptions::collect_activations`] was set (the
/// default). Inference-only callers read `y` directly; training callers
/// destructure with [`ForwardOutput::into_pair`].
#[derive(Debug, Clone)]
pub struct ForwardOutput<A> {
    /// The layer output `y` (`[i,b,j]`).
    pub y: Tensor,
    /// Saved activations, when collection was requested.
    pub activations: Option<A>,
}

impl<A> ForwardOutput<A> {
    /// Splits into `(y, activations)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the forward ran with
    /// `collect_activations = false`.
    pub fn into_pair(self) -> Result<(Tensor, A)> {
        let a = self.activations.ok_or_else(|| {
            xform_tensor::TensorError::Unsupported(
                "forward ran with collect_activations disabled — no saved activations".into(),
            )
        })?;
        Ok((self.y, a))
    }
}

/// A dataflow graph paired with an executable forward schedule over it,
/// carrying the certificates a canned plan must earn before it is cached.
#[derive(Debug, Clone)]
pub struct PlannedForward {
    /// The (possibly fused) dataflow graph the plan is lowered against.
    pub graph: Graph,
    /// The forward schedule.
    pub plan: ExecutionPlan,
    /// Freedom-from-races certificate over the plan's hazard-DAG waves.
    pub cert: RaceCertificate,
    /// Access-path certificate: every operand path proven in-bounds and
    /// alias-free, with the per-step unit-stride record.
    pub access: AccessCertificate,
}

fn certified(graph: Graph, plan: ExecutionPlan) -> Result<PlannedForward> {
    let cert = certify(&graph, &plan).map_err(|lints| {
        xform_tensor::TensorError::Unsupported(format!(
            "canned plan failed race certification: {:?}",
            lints.iter().map(|l| l.to_string()).collect::<Vec<_>>()
        ))
    })?;
    let access = certify_access(&graph, &plan).map_err(|lints| {
        xform_tensor::TensorError::Unsupported(format!(
            "canned plan failed access certification: {:?}",
            lints.iter().map(|l| l.to_string()).collect::<Vec<_>>()
        ))
    })?;
    Ok(PlannedForward {
        graph,
        plan,
        cert,
        access,
    })
}

fn planned(graph: Graph, dy: xform_dataflow::NodeId) -> Result<PlannedForward> {
    let plan = ExecutionPlan::natural(&graph, &forward_ops(&graph, dy))?;
    certified(graph, plan)
}

/// Schedules a forward-only graph (no `dy` seed to split on): every
/// operator, in topological order.
fn planned_forward(graph: Graph) -> Result<PlannedForward> {
    let plan = ExecutionPlan::natural(&graph, &graph.topo_ops())?;
    certified(graph, plan)
}

/// Which canned schedule a cache entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// Unfused encoder, natural layouts.
    EncoderReference,
    /// Fused encoder, natural layouts.
    EncoderFused,
    /// Fused encoder with GEMM-epilogue mega-kernels (QKT+SM, Linear 1+
    /// BRD collapsed; their intermediates never materialize).
    EncoderEpilogue,
    /// Fused decoder block, natural layouts.
    DecoderFused,
    /// Fused decoder with GEMM-epilogue mega-kernels (QKT+SM, Out+BDR,
    /// Linear 1+BRD, Linear 2+BDR2 collapsed).
    DecoderEpilogue,
    /// Forward-only fused decoder block for the decode *prefill* pass:
    /// same kernels as [`PlanKind::DecoderFused`]'s forward half, no
    /// backward operators. `dims.j == dims.k` is the prompt length.
    DecoderPrefill,
    /// Decode-step projection plan: LN1 + stacked Q/K/V + bias carve over
    /// a single token column (`dims.j == 1`), producing the `qq_new`/
    /// `kk_new`/`vv_new` columns the session appends to its caches.
    DecoderStepProject,
    /// Decode-step attention plan: reads the resident `k_cache`/`v_cache`
    /// ([`xform_dataflow::DataRole::Cache`] inputs, `dims.k` = bucket
    /// capacity) plus the projected `qq` column and produces the step's
    /// `y` (`dims.j == 1`).
    DecoderStep,
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

/// Returns the canned plan for `(dims, kind)`, building and memoizing it
/// on first use. Keying on the full dimension set means a layer whose
/// dims change simply misses the cache and lowers a fresh plan — stale
/// schedules can never be returned. Lowering happens outside the lock;
/// a racing duplicate build is benign (last writer wins).
///
/// # Errors
///
/// Returns an error if graph construction, fusion, or scheduling fails.
pub fn cached_plan(dims: &EncoderDims, kind: PlanKind) -> Result<Arc<PlannedForward>> {
    let key = (*dims, kind);
    if let Some(hit) = plan_cache().get(&key) {
        return Ok(Arc::clone(hit));
    }
    let built = Arc::new(match kind {
        PlanKind::EncoderReference => encoder_reference(dims)?,
        PlanKind::EncoderFused => encoder_fused(dims)?,
        PlanKind::EncoderEpilogue => encoder_epilogue(dims)?,
        PlanKind::DecoderFused => decoder_fused(dims)?,
        PlanKind::DecoderEpilogue => decoder_epilogue(dims)?,
        PlanKind::DecoderPrefill => decoder_prefill(dims)?,
        PlanKind::DecoderStepProject => decoder_step_project(dims)?,
        PlanKind::DecoderStep => decoder_step_attend(dims)?,
    });
    plan_cache().insert(key, Arc::clone(&built));
    Ok(built)
}

/// Number of memoized canned plans (for tests and diagnostics).
pub fn plan_cache_len() -> usize {
    plan_cache().len()
}

/// Drops every memoized plan.
pub fn clear_plan_cache() {
    plan_cache().clear();
}

/// The canned plans' arenas under their cheap key: an index into
/// [`xform_core::arena::compiled`]'s per-plan memo that spares a
/// steady-state forward hashing its plan.
type ArenaMap = HashMap<(EncoderDims, PlanKind, ArenaGranularity), Arc<CompiledArena>>;

/// The arena cache, locked; poison is recovered as in [`plan_cache`].
fn arena_cache() -> MutexGuard<'static, ArenaMap> {
    static CACHE: OnceLock<Mutex<ArenaMap>> = OnceLock::new();
    CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Returns the compiled static arena for `(dims, kind, granularity)`,
/// building and memoizing it on first use. Always `Some` on success; the
/// `Option` is [`xform_core::arena::compiled`]'s, which this indexes.
/// Steady-state hits are a lock plus a `HashMap` probe: no allocation.
///
/// # Errors
///
/// Returns an error if the canned plan cannot be built, or if the arena
/// fails certification (an internal invariant violation).
pub fn cached_arena(
    dims: &EncoderDims,
    kind: PlanKind,
    granularity: ArenaGranularity,
) -> Result<Option<Arc<CompiledArena>>> {
    let key = (*dims, kind, granularity);
    if let Some(hit) = arena_cache().get(&key) {
        return Ok(Some(Arc::clone(hit)));
    }
    let pf = cached_plan(dims, kind)?;
    let built = arena::compiled(&pf.graph, &pf.plan, granularity)?;
    if let Some(arena) = &built {
        arena_cache().insert(key, Arc::clone(arena));
    }
    Ok(built)
}

/// Drops every memoized arena: the canned plans' and the ones compiled for
/// plan overrides.
pub fn clear_arena_cache() {
    arena_cache().clear();
    arena::clear_compiled();
}

/// Merges a caller's run configuration with a layer's own scalar knobs:
/// `dropout_p`, `activation` and the attention `scaler` always come from
/// the layer, everything else from `opts`. This is where a layer's
/// `dropout_p` enters an execution, so it is range-checked here, once, for
/// every executor and entry point.
///
/// # Errors
///
/// Returns [`xform_tensor::TensorError::InvalidDropout`] unless
/// `0 <= dropout_p < 1`.
pub(crate) fn layer_options<'p>(
    opts: &ExecOptions<'p>,
    dropout_p: f32,
    activation: ActivationKind,
    scaler: f32,
) -> Result<ExecOptions<'p>> {
    check_dropout_p(dropout_p)?;
    Ok(opts
        .to_builder()
        .dropout_p(dropout_p)
        .activation(activation)
        .scaler(scaler)
        .build())
}

/// The one binding table: fills the external container `name` (`dst`, in
/// natural layout — where every gated plan first finds its externals)
/// from a layer's input and weight set — `x` itself, the
/// Q/K/V projections stacked into `w_qkv`, any other weight by
/// [`EncoderWeights::container`]. Returns `false`, for the executor to
/// report, on a name the layers do not bind or a size that disagrees.
pub(crate) fn bind_external(name: &str, dst: &mut [f32], x: &Tensor, w: &EncoderWeights) -> bool {
    let src = match name {
        "x" => x,
        "w_qkv" => return w.stack_qkv_into(dst),
        _ => match w.container(name) {
            Some(t) => t,
            None => return false,
        },
    };
    if src.len() != dst.len() {
        return false;
    }
    into_ops::copy_tensor_into(src, dst);
    true
}

/// Binds a layer input and the shared weight set into an interpreter
/// environment under the graphs' container names (what the equivalence
/// suites hand the reference interpreter), through the same table the
/// arena binds through: the separate Q/K/V projection weights are stacked into the graphs' `w_qkv` container (`[s=3p, h, i]`, Q then K
/// then V).
///
/// # Errors
///
/// Returns an error if the projection weights disagree on `[h, i]`.
pub fn bind_inputs(x: &Tensor, w: &EncoderWeights) -> Result<ExecState> {
    let mut state = ExecState::default();
    let (h, i) = (w.wq.shape().sizes()[1], w.wq.shape().sizes()[2]);
    let stacked = Shape::new([('s', w.qkv_words() / (h * i)), ('h', h), ('i', i)])?;
    let mut w_qkv = Tensor::zeros(stacked);
    if !w.stack_qkv_into(w_qkv.data_mut()) {
        return Err(TensorError::ShapeMismatch {
            context: "stacking the Q/K/V projection weights",
        });
    }
    state.env.insert("x".into(), x.clone());
    state.env.insert("w_qkv".into(), w_qkv);
    for (name, _) in w.fields() {
        if let Some(t) = w.container(name) {
            state.env.insert(name.into(), t.clone());
        }
    }
    Ok(state)
}

/// Looks up what a layer forward runs — the canned plan of `(dims, kind)`,
/// or the caller's override — together with its arena, and hands both to
/// `f`. Either way the arena comes out of a memo: nothing is analyzed,
/// certified or compiled on a steady-state call.
fn with_arena<R>(
    dims: &EncoderDims,
    kind: PlanKind,
    opts: &ExecOptions,
    f: impl FnOnce(&Graph, &ExecutionPlan, &CompiledArena) -> Result<R>,
) -> Result<R> {
    let granularity = granularity_for(opts.threads);
    let uncompiled = || TensorError::Unsupported("the plan compiled to no arena".into());
    match opts.plan {
        Some(o) => {
            let arena = arena::compiled(o.graph, o.plan, granularity)?.ok_or_else(uncompiled)?;
            f(o.graph, o.plan, &arena)
        }
        None => {
            let pf = cached_plan(dims, kind)?;
            let arena = cached_arena(dims, kind, granularity)?.ok_or_else(uncompiled)?;
            f(&pf.graph, &pf.plan, &arena)
        }
    }
}

/// Runs one layer forward and returns every container it produced:
/// outputs, saved activations and layer-norm statistics, materialized out
/// of the slab `x` and the weights were bound straight into, each in the
/// layout the plan leaves it in. `opts` must already be merged with the
/// layer knobs.
///
/// # Errors
///
/// Returns an error if the plan fails its lint gate or certification, an
/// external cannot be bound, or a kernel rejects its operands.
pub(crate) fn forward_state(
    dims: &EncoderDims,
    kind: PlanKind,
    x: &Tensor,
    w: &EncoderWeights,
    opts: &ExecOptions,
) -> Result<ExecState> {
    with_arena(dims, kind, opts, |graph, plan, arena| {
        let mut state = ExecState::default();
        let mut bind = |name: &str, dst: &mut [f32]| bind_external(name, dst, x, w);
        arena.execute_into_state(graph, plan, opts, &mut bind, &mut state)?;
        Ok(state)
    })
}

/// Runs one layer forward and copies the produced `y`, in logical order,
/// into the caller's (row-major) buffer. This touches no heap once the
/// caches are warm, whatever layouts the plan declares. `opts` must
/// already be merged with the layer knobs.
///
/// # Errors
///
/// As [`forward_state`], and if `y` does not hold exactly the words the
/// plan's `y` container does.
pub(crate) fn forward_into(
    dims: &EncoderDims,
    kind: PlanKind,
    x: &Tensor,
    w: &EncoderWeights,
    opts: &ExecOptions,
    y: &mut Tensor,
) -> Result<()> {
    let produced = with_arena(dims, kind, opts, |graph, plan, arena| {
        let mut produced = 0;
        let ydata = y.data_mut();
        let mut bind = |name: &str, dst: &mut [f32]| bind_external(name, dst, x, w);
        let mut sink = |a: ArenaArtifact<'_>| match a {
            ArenaArtifact::Tensor {
                name: "y",
                shape,
                layout,
                data,
                ..
            } => {
                produced = data.len();
                if data.len() == ydata.len() {
                    into_ops::copy_layout_into(shape, layout, data, ydata);
                }
            }
            ArenaArtifact::Timings { .. } => {
                if let Some(profiler) = opts.profiler {
                    record_arena_timings(profiler, graph, plan, &a);
                }
            }
            _ => {}
        };
        arena.execute_bound(opts, &mut bind, &mut sink)?;
        Ok(produced)
    })?;
    if produced != y.len() {
        return Err(TensorError::Unsupported(format!(
            "output tensor holds {} words; the plan's `y` holds {produced}",
            y.len()
        )));
    }
    Ok(())
}

/// The reference executor as a plan: the unfused encoder graph, natural
/// layouts, one step per dataflow operator.
///
/// # Errors
///
/// Returns an error if the graph cannot be scheduled.
pub fn encoder_reference(dims: &EncoderDims) -> Result<PlannedForward> {
    let eg = build::encoder(dims);
    planned(eg.graph, eg.dy)
}

/// The fused executor as a plan: the paper's encoder fusion plan applied,
/// natural layouts, one step per fused kernel.
///
/// # Errors
///
/// Returns an error if fusion or scheduling fails.
pub fn encoder_fused(dims: &EncoderDims) -> Result<PlannedForward> {
    let eg = build::encoder(dims);
    let mut g = eg.graph;
    apply_plan(&mut g, &encoder_fusion_plan())?;
    planned(g, eg.dy)
}

/// The fused encoder with GEMM-epilogue mega-kernels: element-wise fusion
/// first, then every detected contraction→epilogue chain collapsed into a
/// [`xform_dataflow::OpKind::ContractionEpilogue`] step whose
/// intermediate is never materialized.
///
/// # Errors
///
/// Returns an error if fusion or scheduling fails.
pub fn encoder_epilogue(dims: &EncoderDims) -> Result<PlannedForward> {
    let eg = build::encoder(dims);
    let mut g = eg.graph;
    apply_plan(&mut g, &encoder_fusion_plan())?;
    apply_epilogues(&mut g)?;
    planned(g, eg.dy)
}

/// The decoder block as a plan: the pre-LN decoder graph with its fusion
/// plan applied (causal SM, BDR residual joins, GELU BRD).
///
/// # Errors
///
/// Returns an error if fusion or scheduling fails.
pub fn decoder_fused(dims: &EncoderDims) -> Result<PlannedForward> {
    let eg = build::decoder(dims);
    let mut g = eg.graph;
    apply_plan(&mut g, &decoder_fusion_plan())?;
    planned(g, eg.dy)
}

/// The fused decoder with GEMM-epilogue mega-kernels (see
/// [`encoder_epilogue`]).
///
/// # Errors
///
/// Returns an error if fusion or scheduling fails.
pub fn decoder_epilogue(dims: &EncoderDims) -> Result<PlannedForward> {
    let eg = build::decoder(dims);
    let mut g = eg.graph;
    apply_plan(&mut g, &decoder_fusion_plan())?;
    apply_epilogues(&mut g)?;
    planned(g, eg.dy)
}

/// The decode prefill pass as a plan: the forward-only decoder graph with
/// the forward half of the decoder fusion plan applied. Same kernel names
/// and container roles as the fused decoder's forward, so the prompt's
/// `kk`/`vv` projections (and every logit) are bitwise those of a
/// full-sequence forward.
///
/// # Errors
///
/// Returns an error if fusion or scheduling fails.
pub fn decoder_prefill(dims: &EncoderDims) -> Result<PlannedForward> {
    let fg = build::decoder_prefill(dims);
    let mut g = fg.graph;
    apply_plan(&mut g, &decoder_forward_fusion_plan())?;
    planned_forward(g)
}

/// The decode-step projection plan (LN1 + QKV + bias carve over one token
/// column). See [`PlanKind::DecoderStepProject`].
///
/// # Errors
///
/// Returns an error if fusion or scheduling fails.
pub fn decoder_step_project(dims: &EncoderDims) -> Result<PlannedForward> {
    let fg = build::decoder_step_project(dims);
    let mut g = fg.graph;
    apply_plan(&mut g, &decoder_project_fusion_plan())?;
    planned_forward(g)
}

/// The decode-step attention plan reading the resident KV cache. On top
/// of the race and access certificates every canned plan carries, this
/// plan also passes [`xform_core::access::certify_decode`] (checked by
/// [`crate::decode::DecodeSession`] at compile time): no step writes a
/// single word of either cache container.
///
/// # Errors
///
/// Returns an error if fusion or scheduling fails.
pub fn decoder_step_attend(dims: &EncoderDims) -> Result<PlannedForward> {
    let fg = build::decoder_step_attend(dims);
    let mut g = fg.graph;
    apply_plan(&mut g, &decoder_attend_fusion_plan())?;
    planned_forward(g)
}

/// Wraps what a forward produced into a [`ForwardOutput`]:
/// either running the layer's activation collector or just lifting `y`
/// out when collection was disabled.
pub(crate) fn finish<A>(
    mut state: ExecState,
    collect: bool,
    collector: impl FnOnce(ExecState) -> Result<(Tensor, A)>,
) -> Result<ForwardOutput<A>> {
    if collect {
        let (y, a) = collector(state)?;
        Ok(ForwardOutput {
            y,
            activations: Some(a),
        })
    } else {
        Ok(ForwardOutput {
            y: state.take("y")?,
            activations: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::distributions::Uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xform_core::plan::{execute_plan, ExecOptions};
    use xform_tensor::Shape;

    #[test]
    fn canned_plans_schedule_every_forward_operator() {
        let dims = EncoderDims::tiny();
        let reference = encoder_reference(&dims).unwrap();
        assert_eq!(reference.plan.steps.len(), 22);
        let fused = encoder_fused(&dims).unwrap();
        assert!(fused.plan.steps.len() < reference.plan.steps.len());
        assert!(xform_core::analyze::analyze(&fused.graph, &fused.plan).is_clean());
        let decoder = decoder_fused(&dims).unwrap();
        assert!(xform_core::analyze::analyze(&decoder.graph, &decoder.plan).is_clean());
        // every canned plan carries a certificate covering all its steps
        for pf in [&reference, &fused, &decoder] {
            let scheduled: usize = pf.cert.waves.iter().map(Vec::len).sum();
            assert_eq!(scheduled, pf.plan.steps.len());
            assert_eq!(
                pf.cert.plan_hash,
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
        assert!(plan_cache_len() >= 3);
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
        for pf in [
            encoder_reference(&dims).unwrap(),
            encoder_fused(&dims).unwrap(),
            decoder_fused(&dims).unwrap(),
        ] {
            let mut state = bind_inputs(&x, &w).unwrap();
            let opts = ExecOptions::builder()
                .scaler(1.0 / (dims.p as f32).sqrt())
                .build();
            execute_plan(&pf.graph, &pf.plan, &mut state, &opts, &mut rng).unwrap();
            assert_eq!(state.get("y").unwrap().shape().spec(), "ibj");
        }
    }
}
