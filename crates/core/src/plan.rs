//! First-class execution plans: the bridge from the recipe's *selected*
//! configuration to code that actually runs.
//!
//! The selection step ([`crate::selection`]) answers "which layout should
//! each operator use"; this module lowers that answer into an
//! [`ExecutionPlan`] — an ordered schedule of [`PlanStep`]s, each naming
//! the kernel (fused or unfused), the memory layout of every operand, and
//! the explicit relayout (transpose) insertions required wherever adjacent
//! steps disagree. [`execute_plan`] then interprets the schedule against
//! the real CPU kernels in `xform-tensor`, materializing every tensor in
//! the plan's selected strides — closing the paper's loop from Fig. 6's
//! shortest-path selection to a running implementation.
//!
//! [`execute_plan`] is the *reference* interpreter: serial, allocating,
//! one RNG stream, computing in whatever layout its inputs arrive in and
//! transposing afterwards. Nothing in production calls it — every plan
//! runs on the static arena ([`crate::arena::execute`]) — it stays as the
//! oracle the equivalence and property suites hold the arena against.
//!
//! One step constructor builds every plan. [`ExecutionPlan::lower`] applies
//! it under each selected configuration ([`ExecutionPlan::single_step`]);
//! [`ExecutionPlan::natural`] applies it under none, every operand natural:
//! over the unfused graph that is the reference (PyTorch-style) executor,
//! over the fused graph the fused-kernel executor.

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;

use xform_dataflow::{DataRole, Graph, NodeId, OpKind};
use xform_gpusim::opmodel::OpConfig;
use xform_tensor::einsum::EinsumSpec;
use xform_tensor::fused;
use xform_tensor::lanes::check_dropout_p;
use xform_tensor::ops::dropout::{dropout, dropout_disabled};
use xform_tensor::ops::elementwise::{add, bias_add, scale};
use xform_tensor::ops::layernorm::{layernorm, LayerNormStats};
use xform_tensor::ops::softmax::softmax;
use xform_tensor::{Axis, Layout, Result, Shape, Tensor, TensorError};

use crate::arena::ArenaArtifact;
use crate::lower::{lower_step, Stats};
use crate::selection::Selection;
use crate::sweep::{flowing_input_index, outputs_laid_out};

/// One tensor slot of a [`PlanStep`]: which container it is and the
/// layout the step wants it materialized in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operand {
    /// The data container in the graph.
    pub data: NodeId,
    /// The container's name (the interpreter's environment key).
    pub name: String,
    /// Physical order of the container's logical axes, outermost first.
    pub layout: Layout,
}

/// An explicit relayout (transpose) the schedule inserts before a step
/// because the producer materialized the container in a different layout
/// than this step selected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relayout {
    /// The container to re-materialize.
    pub data: NodeId,
    /// Its name.
    pub name: String,
    /// Layout it currently sits in.
    pub from: Layout,
    /// Layout this step requires.
    pub to: Layout,
}

/// One scheduled kernel launch: the operator, its operand layouts, and any
/// relayout insertions that must run first.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// Operator id in the graph the plan was lowered from.
    pub op: NodeId,
    /// Kernel name (fused name where fusion applied).
    pub name: String,
    /// The operator kind, cloned out of the graph so the step is
    /// self-describing.
    pub kind: OpKind,
    /// Input operands in the graph's edge order.
    pub inputs: Vec<Operand>,
    /// Output operands in the graph's edge order.
    pub outputs: Vec<Operand>,
    /// Transposes to run before the kernel.
    pub relayouts: Vec<Relayout>,
}

/// An ordered, layout-annotated schedule for (part of) a dataflow graph.
#[derive(Debug, Clone, Default)]
pub struct ExecutionPlan {
    /// Steps in execution order.
    pub steps: Vec<PlanStep>,
}

/// `layout` spelled in the axis letters of container `data`, memory order
/// — how reports and lints show a layout (its bare permutation where it
/// is not one of that container's rank).
pub fn layout_spec(graph: &Graph, data: NodeId, layout: Layout) -> String {
    match graph.data(data) {
        Some(d) if d.shape.rank() == layout.rank() => layout.spec(&d.shape),
        _ => layout.to_string(),
    }
}

fn data_of(graph: &Graph, id: NodeId) -> Result<&xform_dataflow::DataNode> {
    graph
        .data(id)
        .ok_or_else(|| TensorError::Unsupported(format!("{id} is not a data container")))
}

impl ExecutionPlan {
    /// Builds a single layout-annotated step for `op` from a sweep/selection
    /// configuration: an einsum's two operands, or another kernel's flowing
    /// input, and the outputs the configuration lays out
    /// ([`outputs_laid_out`]) take its layouts; every other operand is in
    /// its natural layout, as is one whose rank a layout does not have.
    ///
    /// # Errors
    ///
    /// Returns an error if `op` is not a live operator.
    pub fn single_step(graph: &Graph, op: NodeId, cfg: &OpConfig) -> Result<PlanStep> {
        ExecutionPlan::step(graph, op, Some(cfg))
    }

    /// The one step constructor: [`ExecutionPlan::single_step`] under
    /// `cfg`, every operand natural without one.
    fn step(graph: &Graph, op: NodeId, cfg: Option<&OpConfig>) -> Result<PlanStep> {
        let node = graph
            .op(op)
            .ok_or_else(|| TensorError::Unsupported(format!("{op} is not an operator")))?;
        // a two-contraction tile program lays out the first contraction's
        // operands like an einsum; a one-contraction one, its flowing input
        let is_einsum = matches!(
            node.kind,
            OpKind::Einsum(_)
                | OpKind::TileProgram {
                    second: Some(_),
                    ..
                }
        );
        let operand = |id: NodeId, wanted: Option<Layout>| -> Result<Operand> {
            let d = data_of(graph, id)?;
            let rank = d.shape.rank();
            Ok(Operand {
                data: id,
                name: d.name.clone(),
                layout: (wanted.filter(|l| l.rank() == rank))
                    .unwrap_or_else(|| Layout::row_major(rank)),
            })
        };
        let flowing = cfg.map(|_| flowing_input_index(graph, op));
        let wanted_in = |i: usize| match (i, cfg?) {
            (0, cfg) if is_einsum => Some(cfg.in_layout),
            (1, cfg) if is_einsum => cfg.in2_layout,
            (_, cfg) if !is_einsum && Some(i) == flowing => Some(cfg.in_layout),
            _ => None,
        };
        let inputs = (graph.inputs_of(op).into_iter().enumerate())
            .map(|(i, id)| operand(id, wanted_in(i)))
            .collect::<Result<Vec<_>>>()?;
        let outs = graph.outputs_of(op);
        let laid_out = match cfg {
            Some(_) => outputs_laid_out(graph, op),
            None => vec![false; outs.len()],
        };
        let outputs = (outs.into_iter().zip(laid_out))
            .map(|(id, laid)| operand(id, cfg.filter(|_| laid).map(|c| c.out_layout)))
            .collect::<Result<Vec<_>>>()?;

        Ok(PlanStep {
            op,
            name: node.name.clone(),
            kind: node.kind.clone(),
            inputs,
            outputs,
            relayouts: Vec::new(),
        })
    }

    /// The canned plan: every listed operator in execution order with every
    /// operand in its natural (logical row-major) layout — the step of no
    /// configuration. Over the unfused graph this reproduces the reference
    /// executor; over the fused graph, the fused-kernel executor.
    ///
    /// # Errors
    ///
    /// Returns an error if any id is not a live operator.
    pub fn natural(graph: &Graph, ops: &[NodeId]) -> Result<ExecutionPlan> {
        let steps: Result<_> = ops.iter().map(|&op| Self::step(graph, op, None)).collect();
        let mut plan = ExecutionPlan { steps: steps? };
        plan.reflow(graph);
        Ok(plan)
    }

    /// Lowers an SSSP selection into an executable schedule: one step per
    /// selected operator (in the selection's execution order) carrying the
    /// chosen configuration's layouts, with relayout insertions computed by
    /// [`ExecutionPlan::reflow`] wherever adjacent steps disagree.
    ///
    /// # Errors
    ///
    /// Returns an error if the selection references dead operators.
    pub fn lower(graph: &Graph, selection: &Selection) -> Result<ExecutionPlan> {
        let mut steps = Vec::with_capacity(selection.per_op.len());
        for (op, timing) in &selection.per_op {
            steps.push(ExecutionPlan::single_step(graph, *op, &timing.cfg)?);
        }
        let mut plan = ExecutionPlan { steps };
        plan.reflow(graph);
        Ok(plan)
    }

    /// Recomputes every step's relayout insertions by walking the schedule
    /// and tracking the layout each container is currently materialized in
    /// (containers start in their natural layout). Call after editing any
    /// operand layout.
    pub fn reflow(&mut self, graph: &Graph) {
        let mut current: HashMap<NodeId, Layout> = HashMap::new();
        for step in &mut self.steps {
            step.relayouts.clear();
            for inp in &step.inputs {
                let have = current.entry(inp.data).or_insert_with(|| {
                    graph
                        .data(inp.data)
                        .map_or(inp.layout, |d| Layout::row_major(d.shape.rank()))
                });
                if *have != inp.layout {
                    step.relayouts.push(Relayout {
                        data: inp.data,
                        name: inp.name.clone(),
                        from: *have,
                        to: inp.layout,
                    });
                    *have = inp.layout;
                }
            }
            for out in &step.outputs {
                current.insert(out.data, out.layout);
            }
        }
    }

    /// Total number of relayout (transpose) insertions in the schedule.
    pub fn relayout_count(&self) -> usize {
        self.steps.iter().map(|s| s.relayouts.len()).sum()
    }

    /// Operands declared in any but their container's natural layout: the
    /// ones a kernel reads through a strided view.
    pub fn strided_operand_count(&self) -> usize {
        (self.steps.iter())
            .flat_map(|s| s.inputs.iter().chain(&s.outputs))
            .filter(|o| !o.layout.is_row_major())
            .count()
    }

    /// The number of the dropout stream step `si` keys its masks by on the
    /// arena: with the run's seed, the step's key is
    /// [`crate::arena::stream_key`]`(seed, stream_of(si))`. Streams are
    /// numbered by schedule position, a tile program counting for the
    /// positions of the chain it replaced ([`OpKind::TileProgram`]'s
    /// `span`) and keyed where the step one before that chain's last was —
    /// the attention region's softmax — so collapsing a chain renumbers
    /// nothing, and a backward pass that names the region's stream
    /// computes its masks again.
    pub fn stream_of(&self, si: usize) -> usize {
        let span = |s: &PlanStep| match s.kind {
            OpKind::TileProgram { span, .. } => span.max(1),
            _ => 1,
        };
        let before: usize = self.steps[..si].iter().map(span).sum();
        before + span(&self.steps[si]).saturating_sub(2)
    }
}

/// Mutable interpreter state: tensors by container name, plus the
/// layer-norm statistics side channel (keyed by the norm's *output*
/// container name) that backward passes consume.
#[derive(Debug, Clone, Default)]
pub struct ExecState {
    /// Materialized containers.
    pub env: HashMap<String, Tensor>,
    /// Forward layer-norm statistics by output container name.
    pub stats: HashMap<String, LayerNormStats>,
}

impl ExecState {
    /// Removes and returns a container, erroring when the plan never
    /// produced it.
    ///
    /// # Errors
    ///
    /// Returns an error if the container is absent.
    pub fn take(&mut self, name: &str) -> Result<Tensor> {
        self.env
            .remove(name)
            .ok_or_else(|| TensorError::Unsupported(format!("container `{name}` was not produced")))
    }

    /// Returns a container by reference.
    ///
    /// # Errors
    ///
    /// Returns an error if the container is absent.
    pub fn get(&self, name: &str) -> Result<&Tensor> {
        self.env
            .get(name)
            .ok_or_else(|| TensorError::Unsupported(format!("container `{name}` was not produced")))
    }

    /// Materializes one container of an arena run, in the layout it is
    /// stored in.
    pub fn record(&mut self, a: ArenaArtifact<'_>) {
        // one pass over the words: no zero fill ahead of the copy
        let t = Tensor::from_vec_with_layout(a.shape.clone(), *a.layout, a.data.to_vec())
            .expect("a slot holds its container's words");
        self.env.insert(a.name.into(), t);
    }
}

/// Whether an arena run takes its NaN-poison mode (see
/// [`crate::arena`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SanitizeMode {
    /// Defer to the `XFORM_SANITIZE` environment variable (the default):
    /// unset, empty, `0`, `false`, `off`, or `no` disable; anything else
    /// enables.
    #[default]
    Env,
    /// Never sanitize, regardless of the environment.
    Off,
    /// Always sanitize, regardless of the environment.
    On,
}

/// Everything the graph does not encode about one execution: the dropout
/// probability, and the run configuration of the unified
/// `forward(&x, &w, &ExecOptions)` surface — worker threads, RNG seed,
/// the poison mode and an optional [`crate::profile::PlanProfiler`] sink.
/// Which plan runs is not among them: a layer runs its canned plan, and
/// [`crate::arena::execute`] runs any other. What the graph's operators compute —
/// the activation behind its `Relu`-kind nodes, the softmax scale — is the
/// graph's ([`Graph::activation`], [`Graph::softmax_scale`]).
/// Construct it with [`ExecOptions::builder`] (or `ExecOptions::default()`
/// and field assignment): the struct is `#[non_exhaustive]`, so literal
/// construction is a compile error outside this crate and new fields
/// (decode position, future knobs) never break downstream callers.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct ExecOptions<'p> {
    /// Dropout probability (`0` disables dropout deterministically: every
    /// mask is `1` and none is computed).
    pub dropout_p: f32,
    /// Worker threads: `1` (or `0`) runs the plan's certified waves in
    /// order on the caller's thread; more dispatches each multi-step wave
    /// across the arena's worker pool. One arena, one slab and the same
    /// values either way: a mask is a function of the step's key and the
    /// element's index.
    pub threads: usize,
    /// Seed for the dropout masks (the arena keys each step by it and the
    /// step's stream).
    pub seed: u64,
    /// The arena's poison mode (defaults to the environment).
    pub sanitize: SanitizeMode,
    /// Optional profiler sink: when set, the arena records per-step
    /// wall-clock time (and, for wave-parallel runs, per-wave wall time)
    /// into it. Observing changes not a single output bit. A sink is made
    /// for one plan ([`crate::profile::PlanProfiler::new`]): an arena of
    /// another plan refuses a run into it before it starts.
    pub profiler: Option<&'p crate::profile::ProfilerSink>,
    /// Absolute sequence position of this run's first query column. Zero
    /// for full-sequence forwards; a decode step sets it to the current
    /// token position, shifting every causal softmax's visibility window
    /// (`visible = pos + local_query + 1`) over the cache-capacity key
    /// axis.
    pub pos: usize,
}

impl Default for ExecOptions<'_> {
    fn default() -> Self {
        ExecOptions {
            dropout_p: 0.0,
            threads: 1,
            seed: 0x5eed,
            sanitize: SanitizeMode::Env,
            profiler: None,
            pos: 0,
        }
    }
}

impl<'p> ExecOptions<'p> {
    /// Starts a builder at the defaults. The builder is the supported
    /// construction surface: `ExecOptions` is `#[non_exhaustive]`, so
    /// downstream crates cannot use struct literals (and the repo
    /// convention is to avoid them in-tree too), which lets new execution
    /// knobs land without touching call sites.
    pub fn builder() -> ExecOptionsBuilder<'p> {
        ExecOptionsBuilder {
            opts: ExecOptions::default(),
        }
    }

    /// A builder seeded from this value, for deriving a variant of an
    /// existing configuration (`opts.to_builder().threads(1).build()`).
    pub fn to_builder(&self) -> ExecOptionsBuilder<'p> {
        ExecOptionsBuilder { opts: *self }
    }
}

/// Builder for [`ExecOptions`]; see [`ExecOptions::builder`]. Every setter
/// maps to the field of the same name.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptionsBuilder<'p> {
    opts: ExecOptions<'p>,
}

impl<'p> ExecOptionsBuilder<'p> {
    /// Sets the dropout probability.
    pub fn dropout_p(mut self, p: f32) -> Self {
        self.opts.dropout_p = p;
        self
    }

    /// Sets the worker thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.opts.threads = n;
        self
    }

    /// Sets the dropout RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.opts.seed = s;
        self
    }

    /// Sets the poison mode.
    pub fn sanitize(mut self, mode: SanitizeMode) -> Self {
        self.opts.sanitize = mode;
        self
    }

    /// Sets the profiler sink.
    pub fn profiler(mut self, sink: Option<&'p crate::profile::ProfilerSink>) -> Self {
        self.opts.profiler = sink;
        self
    }

    /// Sets the absolute decode position of the first query column.
    pub fn pos(mut self, pos: usize) -> Self {
        self.opts.pos = pos;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ExecOptions<'p> {
        self.opts
    }
}

/// The classes of fused kernels the interpreters can dispatch, recovered
/// from a fused node's member names. Three readers: the reference
/// interpreter (the forward classes), the step lowering and the fusion
/// detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FusedClass {
    /// Q/K/V input biases over the stacked projection (AIB).
    InputBias,
    /// Scaling + softmax + dropout (SM), causal when a member is masked.
    Softmax { causal: bool },
    /// Bias + dropout + residual + layernorm (DRLN/BDRLN).
    BiasDropResidualNorm,
    /// Bias + activation + dropout (BRD).
    BiasActDrop,
    /// Bias + dropout + residual without a norm (the decoder's BDR).
    BiasDropResidual,
    /// A singleton layer-norm group.
    Norm,
    /// Bias + softmax, unscaled: the model head over its vocabulary.
    BiasSoftmax,
    /// Bias dW alone (BAOB; BAIB over the stacked Q/K/V gradient).
    BiasGrad,
    /// Dropout dX + bias dW (the decoder's BDB, BDAOB).
    DropBiasGrad,
    /// Dropout dX + activation dX + bias dW (BDRB), behind another bias
    /// dW where the encoder merged one in.
    DropActBiasGrad,
    /// Dropout dX + (scaled) softmax dX (BS).
    DropSoftmaxGrad,
    /// Layer-norm dW (BSB).
    NormGradW,
    /// Residual join + layer-norm dW (EBSB).
    ResidualNormGradW,
    /// Layer-norm dX + dropout dX (BLNRD).
    NormGradXDrop,
    /// Layer-norm dX + residual join (the decoder's BLNR).
    NormGradXResidual,
    /// A residual join alone (BEI).
    ResidualGrad,
}

pub(crate) fn classify_fused(parts: &[String]) -> Option<FusedClass> {
    let any = |f: &dyn Fn(&str) -> bool| parts.iter().any(|p| f(p));
    // gradient members mark a backward fused kernel
    if any(&|p| p.ends_with(" dX") || p.ends_with(" dW")) {
        return classify_backward(parts);
    }
    if any(&|p| p.contains("softmax")) {
        return Some(if any(&|p| p.contains("bias")) {
            FusedClass::BiasSoftmax
        } else {
            FusedClass::Softmax {
                causal: any(&|p| p.contains("Masked")),
            }
        });
    }
    if any(&|p| p.starts_with("LayerNorm")) {
        return Some(if parts.len() == 1 {
            FusedClass::Norm
        } else {
            FusedClass::BiasDropResidualNorm
        });
    }
    if any(&|p| p.contains("ReLU") || p.contains("GELU")) {
        return Some(FusedClass::BiasActDrop);
    }
    if any(&|p| p.starts_with("Residual")) {
        return Some(FusedClass::BiasDropResidual);
    }
    if !parts.is_empty() && parts.iter().all(|p| p.starts_with("Input bias")) {
        return Some(FusedClass::InputBias);
    }
    None
}

/// [`classify_fused`] of a group with gradient members, by which members
/// it has: one class per fusion group of the backward tables.
fn classify_backward(parts: &[String]) -> Option<FusedClass> {
    use FusedClass::*;
    let is = |h: &str, t: &str| parts.iter().any(|p| p.starts_with(h) && p.ends_with(t));
    let (norm_dx, norm_dw) = (is("LayerNorm", " dX"), is("LayerNorm", " dW"));
    let (dropout, residual) = (is("Dropout", " dX"), is("Residual", " dX"));
    let act = is("ReLU", " dX") || is("GELU", " dX");
    let bias = is("Bias", " dW") || is("Output bias", " dW") || is("Input bias", " dW");
    let one = parts.len() == 1;
    Some(match () {
        _ if is("", "softmax dX") => DropSoftmaxGrad,
        _ if norm_dx && dropout => NormGradXDrop,
        _ if norm_dx && residual => NormGradXResidual,
        _ if norm_dw && residual => ResidualNormGradW,
        _ if norm_dw && one => NormGradW,
        _ if act && dropout => DropActBiasGrad,
        _ if dropout && bias => DropBiasGrad,
        _ if bias && one => BiasGrad,
        _ if residual && one => ResidualGrad,
        _ => return None,
    })
}

/// Whether the step lowering models this operator kind: every unfused
/// kind, forward or backward, and every fused node whose members make up
/// one of the kernel classes — those of the fusion tables. (The reference
/// interpreter, [`execute_step`], runs the forward ones.)
pub fn step_is_interpretable(kind: &OpKind, _name: &str) -> bool {
    match kind {
        OpKind::Fused { parts, .. } | OpKind::TileProgram { parts, .. } => {
            classify_fused(parts).is_some()
        }
        _ => true,
    }
}

/// The container shapes of a two-operand einsum's inputs relabelled
/// positionally to the spec's letters (graph containers carry their own
/// axis names; the contraction is defined over the spec's), and the
/// labelled output shape those imply. `None` when the spec is not
/// two-operand, a rank disagrees, or an output letter is bound by neither
/// input. Shared by the reference interpreter and the step lowering (the
/// tile programs' included), so both contract over the same shapes.
pub(crate) fn labelled_shapes(
    spec: &EinsumSpec,
    a_c: &Shape,
    b_c: &Shape,
) -> Option<(Shape, Shape, Shape)> {
    let ops = spec.operands();
    if ops.len() != 2 {
        return None;
    }
    let relabel = |axes: &[Axis], c: &Shape| -> Option<Shape> {
        if axes.len() != c.rank() {
            return None;
        }
        Shape::new(axes.iter().zip(c.sizes()).map(|(a, &s)| (a.0, s))).ok()
    };
    let a_s = relabel(&ops[0], a_c)?;
    let b_s = relabel(&ops[1], b_c)?;
    let out = spec
        .output()
        .iter()
        .map(|&ax| Some((ax.0, a_s.size(ax).or_else(|_| b_s.size(ax)).ok()?)))
        .collect::<Option<Vec<_>>>()?;
    let lbl = Shape::new(out).ok()?;
    Some((a_s, b_s, lbl))
}

fn axes_string(axes: &[Axis]) -> String {
    axes.iter().map(|a| a.name()).collect()
}

/// Relabels `t` to `spec` when the axis letters differ (positional rename,
/// sizes unchanged).
fn relabeled(t: &Tensor, spec: &str) -> Result<Tensor> {
    if t.shape().spec() == spec {
        Ok(t.clone())
    } else {
        t.relabel(spec)
    }
}

/// The causal query axis for a masked softmax: the logical axis immediately
/// preceding the softmax axis (attention scores are `[..., j, k]`).
fn causal_query_axis(shape: &Shape, softmax_axis: Axis) -> Result<Axis> {
    let ai = shape.index_of(softmax_axis)?;
    if ai == 0 {
        return Err(TensorError::Unsupported(
            "masked softmax axis has no preceding query axis".into(),
        ));
    }
    Ok(shape.axes()[ai - 1])
}

/// The slice start row of a stacked-Q/K/V carve for the step named
/// `name` (`"Input bias Q/K/V"`), given the stacked container's outermost
/// extent `total` and the projection's extent `len`: Q sits at the front,
/// K right after the (equal-sized) Q block, V at the tail. `None` when
/// the name ends in none of the three projection letters. Shared between
/// the reference interpreter's dispatch and the step lowering — through
/// which the arena and the access derivation see it — so the certificate
/// checks exactly the rows the kernel carves.
pub(crate) fn stacked_carve_start(name: &str, total: usize, len: usize) -> Option<usize> {
    match name.chars().last() {
        Some('Q') => Some(0),
        Some('K') => Some(len),
        Some('V') => Some(total - len),
        _ => None,
    }
}

/// The projection of a stacked Q/K/V tensor a contraction into it writes,
/// named as [`stacked_carve_start`] reads it, by the letters of the
/// contraction's output: the saved projections' own — the query's `phbj`,
/// the key's `phbk`, the value's `whbk` (`xform_dataflow::build`). The
/// backward's three writers of the stacked gradient are named for what they
/// differentiate, not for the projection they fill.
pub(crate) fn stacked_stream(letters: &str) -> Option<&'static str> {
    Some(match letters {
        "phbj" => "Q",
        "phbk" => "K",
        "whbk" => "V",
        _ => return None,
    })
}

/// Carves the `index`-th projection out of a stacked Q/K/V tensor: slice
/// `len` rows starting at `start` along the stacking axis (always the
/// first), then relabel to the destination container's axes.
fn carve_stacked(stacked: &Tensor, start: usize, out_shape: &Shape) -> Result<Tensor> {
    let axis0 = stacked.shape().axes()[0];
    let len = out_shape.sizes()[0];
    stacked
        .slice_range(axis0, start, len)?
        .relabel(&out_shape.spec())
}

/// `spec` over two tensors relabelled positionally to its letters; the
/// result relabelled to the axes of `container`, in the layout `declared`
/// (row-major when there is none).
fn contract_as(
    spec: &EinsumSpec,
    a: &Tensor,
    b: &Tensor,
    container: &str,
    declared: Option<Layout>,
) -> Result<Tensor> {
    let (a_s, b_s, lbl) = labelled_shapes(spec, a.shape(), b.shape()).ok_or_else(|| {
        TensorError::Unsupported(format!("operand shapes do not fit einsum `{spec}`"))
    })?;
    let (a, b) = (relabeled(a, &a_s.spec())?, relabeled(b, &b_s.spec())?);
    let lay = declared.unwrap_or_else(|| Layout::row_major(lbl.rank()));
    relabeled(
        &xform_tensor::contract::contract(spec, &a, &b, &lay)?,
        container,
    )
}

/// `t` re-materialized in `layout`, which must have its rank.
pub(crate) fn relaid(t: &Tensor, layout: Layout) -> Result<Tensor> {
    if layout.rank() != t.shape().rank() {
        return Err(TensorError::LayoutRankMismatch {
            expected: t.shape().rank(),
            found: layout.rank(),
        });
    }
    Ok(t.relayout(&layout))
}

/// Runs one scheduled step against the interpreter state: applies the
/// step's relayout insertions, dispatches the kernel — its activation and
/// softmax scale the graph's — and materializes each output in its
/// declared layout.
///
/// # Errors
///
/// Returns an error if a consumed container is missing, the operator is a
/// backward kernel (backward plans run on the arena), or a kernel rejects
/// its operands.
pub fn execute_step(
    graph: &Graph,
    step: &PlanStep,
    state: &mut ExecState,
    opts: &ExecOptions,
    rng: &mut StdRng,
) -> Result<()> {
    // backward plans run on the arena alone
    let unknown = || {
        let what = format!(
            "operator `{}` is no forward kernel the reference interpreter knows",
            step.name
        );
        TensorError::Unsupported(what)
    };
    // explicit transposes first
    for r in &step.relayouts {
        let moved = relaid(state.get(&r.name)?, r.to)?;
        state.env.insert(r.name.clone(), moved);
    }

    let ins: Vec<Tensor> = step
        .inputs
        .iter()
        .map(|o| state.get(&o.name).cloned())
        .collect::<Result<Vec<_>>>()?;

    let out_shape =
        |k: usize| -> Result<Shape> { Ok(data_of(graph, step.outputs[k].data)?.shape.clone()) };

    let (p, scaler) = (opts.dropout_p, graph.softmax_scale());
    check_dropout_p(p)?;
    let drop = |x: &Tensor, rng: &mut StdRng| -> (Tensor, Tensor) {
        if p > 0.0 {
            dropout(x, p, rng)
        } else {
            dropout_disabled(x)
        }
    };

    // (value, index into step.outputs) pairs, plus any layer-norm stats
    let mut results: Vec<Tensor> = Vec::with_capacity(step.outputs.len());
    let mut ln_stats: Option<(usize, LayerNormStats)> = None;

    match &step.kind {
        OpKind::Einsum(spec) => match ins.len() {
            2 => {
                let container = out_shape(0)?.spec();
                let declared = Some(step.outputs[0].layout);
                results.push(contract_as(spec, &ins[0], &ins[1], &container, declared)?);
            }
            1 => {
                let a = relabeled(&ins[0], &axes_string(&spec.operands()[0]))?;
                let out = xform_tensor::einsum(&spec.to_string(), &[&a])?;
                results.push(relabeled(&out, &out_shape(0)?.spec())?);
            }
            n => {
                return Err(TensorError::Unsupported(format!(
                    "einsum `{}` with {n} operands",
                    step.name
                )))
            }
        },
        OpKind::Bias { .. } => {
            let x = &ins[0];
            let shape = out_shape(0)?;
            if x.shape().sizes() != shape.sizes() || x.shape().spec() != shape.spec() {
                // stacked-projection slice (`Input bias Q/K/V`): carve the
                // per-projection rows out of the stacked activation. Q sits
                // at the front, K right after the (equal-sized) Q block, V
                // at the tail.
                let total = x.shape().sizes()[0];
                let len = shape.sizes()[0];
                let start = stacked_carve_start(&step.name, total, len).ok_or_else(|| {
                    TensorError::Unsupported(format!(
                        "bias `{}` has mismatched operand shapes",
                        step.name
                    ))
                })?;
                results.push(bias_add(&carve_stacked(x, start, &shape)?, &ins[1])?);
            } else {
                results.push(bias_add(x, &ins[1])?);
            }
        }
        OpKind::Scale => results.push(scale(&ins[0], scaler)),
        OpKind::Softmax { axis } => {
            if step.name.contains("Masked") {
                let q = causal_query_axis(ins[0].shape(), *axis)?;
                let sm = fused::sm_causal_at(&ins[0], scaler, q, *axis, 0.0, rng, opts.pos)?;
                results.push(sm.softmax);
            } else {
                results.push(softmax(&scale(&ins[0], scaler), *axis)?);
            }
        }
        OpKind::LayerNorm { axis } => {
            let (out, stats) = layernorm(&ins[0], *axis, &ins[1], &ins[2])?;
            ln_stats = Some((0, stats));
            results.push(out);
        }
        OpKind::Dropout => {
            let (out, mask) = drop(&ins[0], rng);
            results.push(out);
            results.push(mask);
        }
        OpKind::Relu => results.push(xform_tensor::ops::elementwise::activate(
            &ins[0],
            graph.activation(),
        )),
        OpKind::Residual => results.push(add(&ins[0], &ins[1])?),
        OpKind::Fused {
            parts, reduce_axis, ..
        }
        | OpKind::TileProgram {
            parts, reduce_axis, ..
        } => {
            // a tile program is the chain it stands for, every tensor of it
            // materialized by the allocating kernels — what the arena's tile
            // driver must equal bit for bit: its first contraction ahead of
            // the other operands of the fused kernel behind it, then the
            // second contraction over that kernel's rows
            let chained;
            let (ins, second) = match (&step.kind, &ins[..]) {
                (OpKind::TileProgram { first, second, .. }, [a, b, rest @ ..]) => {
                    let head = contract_as(first, a, b, &axes_string(first.output()), None)?;
                    // the second contraction's first operand comes last
                    let (tail, second) = match (second, rest) {
                        (Some(s), [tail @ .., values]) => (tail, Some((s, values))),
                        _ => (rest, None),
                    };
                    chained = [&[head], tail].concat();
                    (&chained[..], second)
                }
                _ => (&ins[..], None),
            };
            let class = classify_fused(parts).ok_or_else(unknown)?;
            match class {
                FusedClass::InputBias => {
                    // inputs [stacked, bq, bk, bv] → outputs [qq, kk, vv]
                    let mut start = 0usize;
                    for k in 0..step.outputs.len() {
                        let shape = out_shape(k)?;
                        results.push(bias_add(
                            &carve_stacked(&ins[0], start, &shape)?,
                            &ins[k + 1],
                        )?);
                        start += shape.sizes()[0];
                    }
                }
                FusedClass::Softmax { causal } => {
                    let axis = reduce_axis.ok_or_else(|| {
                        TensorError::Unsupported("fused softmax lost its reduce axis".into())
                    })?;
                    let sm = if causal {
                        let q = causal_query_axis(ins[0].shape(), axis)?;
                        fused::sm_causal_at(&ins[0], scaler, q, axis, p, rng, opts.pos)?
                    } else {
                        fused::sm(&ins[0], scaler, axis, p, rng)?
                    };
                    // outputs [att (saved softmax), alpha, att_mask]
                    results.push(sm.softmax);
                    results.push(sm.alpha);
                    results.push(sm.mask);
                }
                FusedClass::BiasDropResidualNorm => {
                    let axis = reduce_axis.ok_or_else(|| {
                        TensorError::Unsupported("fused layernorm lost its reduce axis".into())
                    })?;
                    // inputs [x, bias, residual, gamma, beta] →
                    // outputs [mask, ln_input, out]
                    let r =
                        fused::bdrln(&ins[0], &ins[1], &ins[2], &ins[3], &ins[4], axis, p, rng)?;
                    ln_stats = Some((2, r.stats));
                    results.push(r.mask);
                    results.push(r.ln_input);
                    results.push(r.out);
                }
                FusedClass::BiasActDrop => {
                    // inputs [x, bias] → outputs [pre_activation, out, mask]
                    let r = fused::brd_act(&ins[0], &ins[1], graph.activation(), p, rng)?;
                    results.push(r.pre_activation);
                    results.push(r.out);
                    results.push(r.mask);
                }
                FusedClass::BiasDropResidual => {
                    // inputs [x, bias, residual] → outputs [mask, out]
                    let biased = bias_add(&ins[0], &ins[1])?;
                    let (dropped, mask) = drop(&biased, rng);
                    results.push(mask);
                    results.push(add(&dropped, &ins[2])?);
                }
                FusedClass::Norm => {
                    let axis = reduce_axis.ok_or_else(|| {
                        TensorError::Unsupported("fused layernorm lost its reduce axis".into())
                    })?;
                    let (out, stats) = layernorm(&ins[0], axis, &ins[1], &ins[2])?;
                    ln_stats = Some((0, stats));
                    results.push(out);
                }
                FusedClass::BiasSoftmax => {
                    let axis = reduce_axis.ok_or_else(|| {
                        TensorError::Unsupported("fused softmax lost its reduce axis".into())
                    })?;
                    results.push(softmax(&bias_add(&ins[0], &ins[1])?, axis)?);
                }
                _ => return Err(unknown()),
            }
            if let Some((spec, values)) = second {
                // the kernel's rows: a softmax's weights (`alpha`), a bias
                // kernel's output
                let rows = results.drain(..).nth(1).ok_or_else(|| {
                    let what = format!("`{}` hands its second contraction no rows", step.name);
                    TensorError::Unsupported(what)
                })?;
                let container = out_shape(0)?.spec();
                let declared = Some(step.outputs[0].layout);
                results.push(contract_as(spec, values, &rows, &container, declared)?);
            }
        }
        _ => return Err(unknown()),
    }

    if results.len() != step.outputs.len() {
        return Err(TensorError::Unsupported(format!(
            "`{}` produced {} tensors for {} outputs",
            step.name,
            results.len(),
            step.outputs.len()
        )));
    }
    if let Some((k, stats)) = ln_stats {
        state.stats.insert(step.outputs[k].name.clone(), stats);
    }
    for (operand, mut t) in step.outputs.iter().zip(results) {
        // materialize in the declared layout
        if *t.layout() != operand.layout {
            t = relaid(&t, operand.layout)?;
        }
        state.env.insert(operand.name.clone(), t);
    }
    Ok(())
}

/// The reference interpreter: checks the schedule statically, then
/// executes every step in order against `state`, allocating each result and
/// drawing all randomness from the one stream `rng`. On success the state's
/// environment holds every container the plan produced, materialized in the
/// plan's layouts. It is what the equivalence suites hold the arena
/// ([`crate::arena::execute`], which serves every plan) against, and has no
/// production caller.
///
/// # Errors
///
/// Returns an error if the analyzer's gate
/// ([`crate::analyze::PlanAnalysis::gate`]) refuses the plan — any
/// error-severity lint — or any step fails.
pub fn execute_plan(
    graph: &Graph,
    plan: &ExecutionPlan,
    state: &mut ExecState,
    opts: &ExecOptions,
    rng: &mut StdRng,
) -> Result<()> {
    crate::analyze::analyze(graph, plan).gate()?;
    for step in &plan.steps {
        execute_step(graph, step, state, opts, rng)?;
    }
    Ok(())
}

/// Binds a random tensor (seeded, uniform) for every plan input that no
/// earlier step produces — graph inputs and weights — each materialized in
/// the layout the consuming step declared, and random layer-norm
/// statistics for every norm a backward step reads that no earlier step
/// normalizes (means from `[-1, 1]`, inverse deviations from `[0.5, 2]`).
/// This is how the measurement
/// source and tests stand up an environment without a model's real
/// parameters. Values are drawn from `[-1, 1]`, except a
/// [`DataRole::Weight`] that feeds a contraction, which is drawn from
/// `±1/√fan-in` like `EncoderWeights::init` draws it: at `[-1, 1]` whatever
/// the fan-in, the attention scores at real dimensions saturate, the
/// softmax emits subnormals, and whoever times the plan times the
/// microcode assist instead of the kernels.
///
/// # Errors
///
/// Returns an error if a referenced container is dead or a declared
/// layout has another rank than its container.
pub fn random_externals(graph: &Graph, plan: &ExecutionPlan, seed: u64) -> Result<ExecState> {
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    // statistics from a stream of their own: the tensors a seed binds do
    // not depend on whether a plan also reads statistics
    let mut stats_rng = StdRng::seed_from_u64(!seed);
    let mut state = ExecState::default();
    let mut produced: HashSet<NodeId> = HashSet::new();
    for step in &plan.steps {
        for inp in &step.inputs {
            if produced.contains(&inp.data) || state.env.contains_key(&inp.name) {
                continue;
            }
            let node = data_of(graph, inp.data)?;
            let bound = match (node.role, contracted_extent(graph, step)) {
                (DataRole::Weight, Some(fan_in)) => 1.0 / (fan_in as f32).sqrt(),
                _ => 1.0,
            };
            let dist = rand::distributions::Uniform::new(-bound, bound);
            let t = relaid(
                &Tensor::random(node.shape.clone(), &dist, &mut rng),
                inp.layout,
            )?;
            state.env.insert(inp.name.clone(), t);
        }
        // the statistics a backward step reads of a norm no step here runs
        if let Some((Stats::Reads(norm), lanes)) = lower_step(graph, step).and_then(|l| l.stats) {
            let name = &data_of(graph, norm)?.name;
            if !produced.contains(&norm) && !state.stats.contains_key(name) {
                let mut draw =
                    |lo: f32, hi: f32| (0..lanes).map(|_| stats_rng.gen_range(lo..hi)).collect();
                let (mean, inv_std) = (draw(-1.0, 1.0), draw(0.5, 2.0));
                state
                    .stats
                    .insert(name.clone(), LayerNormStats { mean, inv_std });
            }
        }
        for out in &step.outputs {
            produced.insert(out.data);
        }
    }
    Ok(state)
}

/// The extent a contraction step sums over (GEMM `K`): the fan-in of a
/// weight it reads. `None` for any other step.
fn contracted_extent(graph: &Graph, step: &PlanStep) -> Option<usize> {
    let (OpKind::Einsum(spec) | OpKind::TileProgram { first: spec, .. }) = &step.kind else {
        return None;
    };
    let shape = |k: usize| Some(&graph.data(step.inputs.get(k)?.data)?.shape);
    let (a, b, _) = labelled_shapes(spec, shape(0)?, shape(1)?)?;
    Some(spec.gemm_sizes(&a, &b).ok()?.k)
}

/// What the in-crate tests do to a layout.
#[cfg(test)]
pub(crate) mod testing {
    use xform_tensor::Layout;

    /// `l` with its memory order reversed.
    pub(crate) fn reversed(l: Layout) -> Layout {
        Layout::from_order(&l.order().rev().collect::<Vec<_>>()).unwrap()
    }

    /// `l` with its innermost axis moved outermost.
    pub(crate) fn rotated(l: Layout) -> Layout {
        let mut order: Vec<usize> = l.order().collect();
        order.rotate_right(1);
        Layout::from_order(&order).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::testing::reversed;
    use super::*;
    use crate::analyze::analyze;
    use crate::fusion::{apply_plan, encoder_fusion_plan};
    use crate::recipe::forward_ops;
    use crate::selection::select_forward;
    use crate::sweep::{sweep_all, SimulatorSource, SweepOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xform_dataflow::{build, EncoderDims};
    use xform_gpusim::DeviceSpec;

    fn unfused() -> (xform_dataflow::Graph, NodeId) {
        let eg = build::encoder(&EncoderDims::tiny());
        (eg.graph, eg.dy)
    }

    fn fused() -> (xform_dataflow::Graph, NodeId) {
        let eg = build::encoder(&EncoderDims::tiny());
        let mut g = eg.graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        (g, eg.dy)
    }

    fn error_lints(plan: &ExecutionPlan, g: &xform_dataflow::Graph) -> Vec<String> {
        analyze(g, plan)
            .lints
            .into_iter()
            .filter(|l| l.severity() == crate::analyze::Severity::Error)
            .map(|l| l.to_string())
            .collect()
    }

    fn run_forward(graph: &xform_dataflow::Graph, plan: &ExecutionPlan, seed: u64) -> ExecState {
        let mut state = random_externals(graph, plan, seed).unwrap();
        let opts = ExecOptions::default();
        let mut rng = StdRng::seed_from_u64(99);
        execute_plan(graph, plan, &mut state, &opts, &mut rng).unwrap();
        state
    }

    #[test]
    fn natural_plan_over_unfused_graph_executes() {
        let (g, dy) = unfused();
        let plan = ExecutionPlan::natural(&g, &forward_ops(&g, dy)).unwrap();
        assert!(error_lints(&plan, &g).is_empty());
        assert_eq!(plan.relayout_count(), 0);
        let state = run_forward(&g, &plan, 7);
        let y = state.get("y").unwrap();
        assert_eq!(y.shape().spec(), "ibj");
        assert!(y.data().iter().all(|v| v.is_finite()));
        assert!(state.stats.contains_key("ln1_out"));
        assert!(state.stats.contains_key("y"));
    }

    #[test]
    fn fused_and_unfused_natural_plans_agree() {
        let (gu, dyu) = unfused();
        let (gf, dyf) = fused();
        let pu = ExecutionPlan::natural(&gu, &forward_ops(&gu, dyu)).unwrap();
        let pf = ExecutionPlan::natural(&gf, &forward_ops(&gf, dyf)).unwrap();
        let yu = run_forward(&gu, &pu, 13).take("y").unwrap();
        let yf = run_forward(&gf, &pf, 13).take("y").unwrap();
        assert!(yu.max_abs_diff(&yf).unwrap() < 1e-5);
    }

    #[test]
    fn lowered_selection_executes_and_matches_natural() {
        let (g, dy) = fused();
        let fwd = forward_ops(&g, dy);
        let sweeps = sweep_all(
            &SimulatorSource::default(),
            &g,
            SweepOptions {
                max_configs: Some(500),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        let sel = select_forward(&g, &DeviceSpec::v100(), &fwd, &sweeps).unwrap();
        let plan = ExecutionPlan::lower(&g, &sel).unwrap();
        assert!(
            error_lints(&plan, &g).is_empty(),
            "{:?}",
            error_lints(&plan, &g)
        );
        let natural = ExecutionPlan::natural(&g, &fwd).unwrap();
        let y_sel = run_forward(&g, &plan, 21).take("y").unwrap();
        let y_nat = run_forward(&g, &natural, 21).take("y").unwrap();
        assert!(y_sel.max_abs_diff(&y_nat).unwrap() < 1e-4);
    }

    #[test]
    fn check_rejects_layout_tampering_and_missing_producers() {
        use crate::analyze::PlanLint;
        let (g, dy) = unfused();
        let fwd = forward_ops(&g, dy);
        let mut plan = ExecutionPlan::natural(&g, &fwd).unwrap();
        // a layout of another rank than the container
        let idx = plan
            .steps
            .iter()
            .position(|s| s.name == "QKT")
            .expect("QKT scheduled");
        let natural = plan.steps[idx].inputs[0].layout;
        plan.steps[idx].inputs[0].layout = Layout::row_major(3);
        assert!(analyze(&g, &plan)
            .lints
            .iter()
            .any(|l| matches!(l, PlanLint::BadLayout { rank: 3, .. })));
        // a layout of the container but stale relayouts → layout mismatch
        plan.steps[idx].inputs[0].layout = reversed(natural);
        assert!(analyze(&g, &plan)
            .lints
            .iter()
            .any(|l| matches!(l, PlanLint::LayoutIncoherent { .. })));
        // reflow repairs it
        plan.reflow(&g);
        assert!(error_lints(&plan, &g).is_empty());
        // dropping a producer step is caught
        let mut broken = ExecutionPlan::natural(&g, &fwd).unwrap();
        broken.steps.retain(|s| s.name != "QKT");
        assert!(analyze(&g, &broken)
            .lints
            .iter()
            .any(|l| matches!(l, PlanLint::UseBeforeDef { .. })));
    }

    #[test]
    fn permuted_layouts_reflow_and_execute_identically() {
        let (g, dy) = unfused();
        let fwd = forward_ops(&g, dy);
        let natural = ExecutionPlan::natural(&g, &fwd).unwrap();
        let mut permuted = natural.clone();
        for step in &mut permuted.steps {
            for operand in step.inputs.iter_mut().chain(step.outputs.iter_mut()) {
                operand.layout = reversed(operand.layout);
            }
        }
        permuted.reflow(&g);
        assert!(error_lints(&permuted, &g).is_empty());
        assert!(permuted.relayout_count() > 0);
        let y_nat = run_forward(&g, &natural, 5).take("y").unwrap();
        let y_perm = run_forward(&g, &permuted, 5).take("y").unwrap();
        assert!(y_nat.max_abs_diff(&y_perm).unwrap() < 1e-5);
    }
}
