//! Step lowering: what a scheduled step's kernel does with each operand.
//!
//! [`lower_step`] is the one place (outside the hand-written reference
//! interpreter, [`crate::plan::execute_step`]) that decides which kernel
//! class a step is and how the kernel addresses each operand: a
//! [`View`] — base offset plus one stride per logical axis of the step's
//! iteration space — resolved from the graph's edges and shapes, the
//! step's operator kind and kernel name, and the layout the step
//! *declares* for the operand. A layout is a choice of strides, a
//! broadcast bias a view with zero strides, one projection of a stacked
//! Q/K/V tensor a view with a base offset. Two consumers read the same
//! views, so the certificate describes the words the kernels touch:
//!
//! * the arena precompiler ([`crate::arena`]) embeds them in slab slots
//!   and hands them, compiled into [`Sweep`]s and [`ContractPlan`]s, to the
//!   kernels;
//! * the access derivation ([`crate::access::step_accesses`]) reads them
//!   as the index-affine paths the certificate bounds, the wave check
//!   compares and the profiler counts.
//!
//! Geometry always comes from the graph edge at a slot, only the layout
//! from the operand declared there (natural when the declaration is
//! missing or does not parse — the analyzer's lints convict those plans;
//! here they just keep the derivation's fallbacks well-defined).
//!
//! Forward and backward kernels are rows of the one table. A backward row
//! differs from a forward one in three ways only: a normalization reads the
//! per-lane statistics its forward norm saved ([`Stats::Reads`]) where the
//! forward writes them; a bias or layer-norm weight gradient is accumulated
//! through a broadcast (or per-lane) view of the output, which the kernel
//! starts at zero; and a projection weight's input gradient reads the
//! weight's one panel pack — its forward GEMM's — transposed
//! ([`weight_pack`]), summing a contraction over the stacked Q/K/V axis as
//! its three projections' products, in stream order.
//!
//! `None` means the lowering does not model the step (an operand count or a
//! geometry no kernel has, an epilogue tail stream in a non-natural
//! layout): a compile error naming the step on the arena, conservative
//! whole-buffer accesses in the derivation. A new kernel class is one row
//! here and one arm in the arena's `run_step` — and, for a forward class,
//! one arm in the reference interpreter — as the tile program
//! ([`Kernel::Tile`]: the bias epilogues, the model head and the attention
//! region) was.

use xform_dataflow::{DataRole, Graph, NodeId, OpKind};
use xform_tensor::einsum::EinsumSpec;
use xform_tensor::into_ops::{
    ContractPlan, Sweep, TilePlan, View, ATTENTION_TILE_ROWS, HEAD_TILE_ROWS,
};
use xform_tensor::lanes::Walk;
use xform_tensor::matmul::WeightPack;
use xform_tensor::{Axis, Layout, Shape};

use crate::plan::{
    classify_fused, labelled_shapes, stacked_carve_start, stacked_stream, FusedClass, Operand,
    PlanStep,
};

/// One operand slot of a step, by position in the graph's edge order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// The `k`-th input edge.
    In(usize),
    /// The `k`-th output edge.
    Out(usize),
}

/// What a kernel does with one operand beyond where its [`View`] says the
/// words are: what the certifiers need to know of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// Every word once, the kernel's inner loop over the innermost logical
    /// axis.
    Whole,
    /// Every word once, lane by lane along logical axis `axis` of the
    /// container (the softmax and normalization sweeps).
    Lanes {
        /// Position of the lane axis in the container's shape.
        axis: usize,
    },
    /// The rows of one projection of a stacked Q/K/V tensor: its view's
    /// base offset is the first of them.
    Carve,
    /// Gathered through zero strides while another operand is swept (a
    /// bias onto the step's output geometry).
    Broadcast,
    /// Dense per-lane weights indexed by lane position (γ, β).
    LaneWeights,
    /// A GEMM operand (or a tile program's full-size stream): every word,
    /// through the contraction's own strides — no inner-loop claim.
    Gemm,
}

/// The lane chain a tile program runs on each row of its tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tail {
    /// Bias + activation + dropout.
    BrdAct,
    /// Bias + dropout + residual.
    Bdr,
    /// Bias (by column) + softmax along the row: the model head.
    BiasSoftmax,
    /// Scale + mask + softmax + dropout into the tile a second contraction
    /// reads: the attention region.
    Softmax {
        /// Masked: a row sees the columns up to its own position.
        causal: bool,
    },
}

/// The kernel class of a step. Operands follow in
/// [`StepLowering::operands`], in the order each variant documents; the
/// classes that sweep find their compiled [`Sweep`]s in
/// [`StepLowering::sweeps`].
#[derive(Debug, Clone)]
pub(crate) enum Kernel {
    /// Two-operand einsum `[a, b, out]`.
    Contract {
        /// The contraction over the operands' declared strides.
        plan: Box<ContractPlan>,
    },
    /// Broadcast bias add, one `[x, bias, out]` triple (and sweep) per
    /// projection: one for a plain (or carved `Input bias Q/K/V`) step,
    /// three for fused AIB.
    Bias,
    /// `[x, out]`, times the graph's softmax scale.
    Scale,
    /// `[x, out]`, the graph's activation.
    Activate,
    /// `[x, out, mask]`.
    Dropout,
    /// `[a, b, out]`.
    Residual,
    /// Unfused scale-folded softmax `[x, out]`.
    Softmax {
        /// Masked: the sweep names the query axis.
        causal: bool,
    },
    /// Fused SM `[x, softmax, alpha, mask]`.
    Sm {
        /// Masked: the sweep names the query axis.
        causal: bool,
    },
    /// Layer norm `[x, gamma, beta, out]`.
    LayerNorm,
    /// Fused BDRLN `[x, bias, residual, gamma, beta, mask, ln_input, out]`.
    Bdrln,
    /// Fused BRD `[x, bias, pre_activation, out, mask]`.
    BrdAct,
    /// Fused BDR `[x, bias, residual, mask, out]`.
    Bdr,
    /// The head's fused bias + softmax `[x, bias, out]`.
    BiasSoftmax,
    /// Tile program: the first contraction's `[a, b]`, the tail's other
    /// inputs, the second contraction's first operand, then the outputs —
    /// the contraction operands through their declared strides, the tail's
    /// streams dense in natural layout (its bias a view over the tile).
    Tile {
        /// The contractions over the operands' declared strides.
        plan: Box<TilePlan>,
        /// The per-row chain.
        tail: Tail,
    },
    /// Bias dW: one `[dy, dbias]` pair (and sweep) per output — three for
    /// BAIB, each over one projection's rows of the stacked gradient.
    BiasGrad,
    /// Dropout dX `[dy, mask, dx]`.
    DropoutGrad,
    /// Activation dX `[dy, pre_activation, dx]`, the graph's activation.
    ActivateGrad,
    /// Softmax dX `[dy, softmax, dx]`, times the graph's softmax scale.
    SoftmaxGrad,
    /// Layer-norm dX `[dy, x, gamma, dx]`.
    NormGradX,
    /// Layer-norm dW `[dy, x, dgamma, dbeta]`.
    NormGradW,
    /// Fused BS `[dalpha, mask, softmax, dbeta]`, times the graph's softmax scale.
    Bs,
    /// Fused BLNRD `[dy, x, gamma, mask, dx_ln, dx]`.
    Blnrd,
    /// Fused BLNR `[dy, x, gamma, residual, dx]`.
    Blnr,
    /// Fused EBSB `[dy, dy_residual, x, dsum, dgamma, dbeta]`.
    Ebsb,
    /// Fused BDB `[dy, mask, dx, dbias]`.
    Bdb,
    /// Fused BDRB `[dy, mask, pre_activation, dx, dbias]`, behind the
    /// `[dy, dbias]` pair of the bias dW the encoder merged into it (a sweep
    /// of its own) when it has one.
    Bdrb,
}

/// The per-lane statistics of a normalizing class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stats {
    /// A forward norm writes them, keyed by the name of its `k`-th output.
    Writes(usize),
    /// A backward kernel reads the ones the forward norm whose output is
    /// this container saved.
    Reads(NodeId),
}

/// A relayout insertion, lowered: the container re-materialized in place
/// through the step's scratch.
#[derive(Debug, Clone)]
pub(crate) struct RelayoutCopy {
    /// The container.
    pub data: NodeId,
    /// `(extent, old stride, new stride)` per axis, outermost of the new
    /// layout first ([`xform_tensor::into_ops::relayout_into`]): the
    /// gather reads through the old strides, the write-back lands on the
    /// new.
    pub dims: Vec<(usize, usize, usize)>,
}

/// One step, lowered: its kernel class and the view of every operand.
#[derive(Debug, Clone)]
pub(crate) struct StepLowering {
    /// The kernel class with its baked geometry.
    pub kernel: Kernel,
    /// The step's relayout insertions, which run before the kernel.
    pub relayouts: Vec<RelayoutCopy>,
    /// One entry per kernel operand, in the kernel's argument order. Every
    /// edge of the step appears at least once; the stacked input of fused
    /// AIB appears once per projection.
    pub operands: Vec<(Slot, Role, View)>,
    /// The operand views compiled for the drivers, each covering the next
    /// run of operands (three per bias projection, all of them otherwise);
    /// empty for the contraction classes.
    pub sweeps: Vec<Sweep>,
    /// For the normalizing classes: the statistics the kernel writes or
    /// reads, and the lane count.
    pub stats: Option<(Stats, usize)>,
}

impl StepLowering {
    /// Scratch words the step needs beside its operands: the staging copy
    /// of its largest relayout, then (reusing it) the kernel's gather
    /// packs, and for a tile program its packed B panels and its tiles.
    pub(crate) fn scratch_words(&self) -> usize {
        let words = |r: &RelayoutCopy| r.dims.iter().map(|d| d.0).product();
        let staging = self.relayouts.iter().map(words).max().unwrap_or(0);
        staging.max(match &self.kernel {
            Kernel::Contract { plan } => plan.scratch_words(),
            Kernel::Tile { plan, .. } => plan.scratch_words(),
            _ => 0,
        })
    }
}

/// The sweep covering operand `k` of a step, each of `sweeps` covering the
/// next run of its operands ([`Sweep::arity`]), and `k`'s place in it;
/// `None` for a contraction operand, which has no sweep.
pub(crate) fn sweep_of(sweeps: &[Sweep], mut k: usize) -> Option<(usize, usize)> {
    for (i, s) in sweeps.iter().enumerate() {
        if k < s.arity() {
            return Some((i, k));
        }
        k -= s.arity();
    }
    None
}

/// The walk of the sweep covering operand `k` of a step — the compiled
/// sweep's own predicate ([`Sweep::walk`]), so the certifiers describe the
/// loop the executor runs. A contraction operand has no sweep.
pub(crate) fn walk_of(sweeps: &[Sweep], k: usize) -> Walk {
    sweep_of(sweeps, k).map_or(Walk::Lane, |(i, _)| sweeps[i].walk())
}

/// Strides of `shape` under `layout`; `None` when the ranks disagree.
fn strides_under(shape: &Shape, layout: Layout) -> Option<Vec<usize>> {
    (layout.rank() == shape.rank()).then(|| layout.strides(shape))
}

/// Lowers one relayout insertion; `None` when the container is dead or a
/// layout has another rank.
fn lower_relayout(graph: &Graph, r: &crate::plan::Relayout) -> Option<RelayoutCopy> {
    let shape = &graph.data(r.data)?.shape;
    let (from, to) = (strides_under(shape, r.from)?, strides_under(shape, r.to)?);
    Some(RelayoutCopy {
        data: r.data,
        dims: (r.to.order())
            .map(|d| (shape.sizes()[d], from[d], to[d]))
            .collect(),
    })
}

/// Target tile footprint in words for the row-blocked bias epilogues: small
/// enough to stay cache-hot, large enough to amortize the loop.
const EPILOGUE_TILE_WORDS: usize = 4096;

/// The kernel a chain runs as a tile program — its tail and the
/// [`TilePlan`] over the operands' strides — or `None` when the tile driver
/// does not run it. `ins` and `outs` are the program's edges as
/// `(container, strides)`, in [`OpKind::TileProgram`]'s order; the chain is
/// `parts`, reducing along `reduce_axis` (in the first contraction's
/// letters). Shared by the fusion detector, which collapses only a chain
/// that lowers, and the step lowering. What runs:
///
/// * a softmax ahead of a second contraction — the attention region —
///   along the scores' last axis, `ATTENTION_TILE_ROWS` query rows a tile;
/// * without a second contraction or a batch, bias + activation + dropout
///   or bias + dropout + residual with the bias on exactly the output's
///   leading axes — one word per row, `EPILOGUE_TILE_WORDS / n` rows a
///   tile — or the head's bias + softmax along the output's last axis — one
///   bias word per column, `HEAD_TILE_ROWS` rows a tile.
pub(crate) fn tile_kernel(
    first: &EinsumSpec,
    second: Option<&EinsumSpec>,
    parts: &[String],
    reduce_axis: Option<Axis>,
    ins: &[(&Shape, Vec<usize>)],
    outs: &[(&Shape, Vec<usize>)],
) -> Option<(Tail, TilePlan)> {
    let ([(a, sa), (b, sb), rest @ ..], [(out, so), ..]) = (ins, outs) else {
        return None;
    };
    let (a_s, b_s, tile) = labelled_shapes(first, a, b)?;
    let (last, numel) = (tile.axes().last().copied(), tile.num_elements());
    // a bias with one word per row covers exactly the output's leading axes
    let by_row = |bias: &Shape| {
        let r = bias.rank();
        r > 0
            && r <= out.rank()
            && out.axes()[..r] == *bias.axes()
            && out.sizes()[..r] == *bias.sizes()
    };
    let per_row = |bias: &Shape| EPILOGUE_TILE_WORDS / (numel / bias.num_elements()).max(1);
    let (tail, tile_rows, n_out) = match (classify_fused(parts)?, rest) {
        (FusedClass::Softmax { causal }, [_]) if reduce_axis == last => {
            (Tail::Softmax { causal }, ATTENTION_TILE_ROWS, 1)
        }
        (FusedClass::BiasSoftmax, [(bias, _)])
            if reduce_axis == last && out.axes().last().is_some_and(|l| bias.axes() == [*l]) =>
        {
            (Tail::BiasSoftmax, HEAD_TILE_ROWS, 1)
        }
        (FusedClass::BiasActDrop, [(bias, _)]) if by_row(bias) => (Tail::BrdAct, per_row(bias), 3),
        (FusedClass::BiasDropResidual, [(bias, _), (residual, _)])
            if by_row(bias) && residual.sizes() == out.sizes() =>
        {
            (Tail::Bdr, per_row(bias), 2)
        }
        _ => return None,
    };
    // the second contraction reads the tile as its second operand and
    // writes the program's output; without one, the tail's first output is
    // shaped like the tile
    let then = match (second, rest.last()) {
        (Some(spec), Some((v, sv))) => {
            let (v_s, _, lbl) = labelled_shapes(spec, v, &tile)?;
            (lbl.sizes() == out.sizes()).then_some(())?;
            Some((spec, v_s, &sv[..], &so[..]))
        }
        (None, _) if out.sizes() == tile.sizes() => None,
        _ => return None,
    };
    let softmax = matches!(tail, Tail::Softmax { .. });
    if softmax != then.is_some() || outs.len() != n_out {
        return None;
    }
    let then = then
        .as_ref()
        .map(|(spec, v, sv, so)| (*spec, (v, *sv), *so));
    let plan = TilePlan::compile(first, (&a_s, sa), (&b_s, sb), then, tile_rows)?;
    let (f, sizes) = (&plan.first, tile.sizes());
    let words = |k: usize| rest.get(k).map(|e| e.0.num_elements());
    let fits = match tail {
        // a lane is a whole row of the softmax axis; under the mask a row
        // is one query position
        Tail::Softmax { causal } => {
            let query = sizes.len().checked_sub(2).map(|q| sizes[q]);
            Some(f.n) == sizes.last().copied() && (!causal || query == Some(f.m))
        }
        Tail::BiasSoftmax => f.batch == 1 && words(0) == Some(f.n),
        Tail::BrdAct | Tail::Bdr => f.batch == 1 && words(0) == Some(f.m),
    };
    fits.then_some((tail, plan))
}

/// The projection weight a step reads as the first operand of its (first)
/// contraction — a [`DataRole::Weight`] of rank two or more — with the
/// weight's one pack and whether the step reads it transposed. The pack is
/// where the GEMM A of the weight's forward contraction lies in its logical
/// words (the first reader that plays it as A and writes no gradient; the
/// step's own A in a graph without one), the geometry it is stored in. A
/// step whose A is that matrix reads the pack as it is; one whose A is its
/// transpose — the weight's input gradient — reads it transposed. `None`
/// when the step plays the weight as another matrix.
pub(crate) fn weight_pack(graph: &Graph, step: &PlanStep) -> Option<(NodeId, WeightPack, bool)> {
    let (w, own) = a_pack(graph, step.op)?;
    let forward = |&op: &NodeId| {
        let gradient = |d: NodeId| graph.data(d).is_some_and(|d| d.role == DataRole::Gradient);
        !graph.outputs_of(op).into_iter().any(gradient)
    };
    let readers = graph.consumers_of(w).into_iter().filter(forward);
    let stored = (readers.filter_map(|op| a_pack(graph, op)))
        .find(|&(v, _)| v == w)
        .map_or(own, |(_, pack)| pack);
    let transposed = (own.k, own.m, own.cs, own.rs) == (stored.m, stored.k, stored.rs, stored.cs);
    (stored == own || transposed).then_some((w, stored, transposed))
}

/// The weight operator `op` reads as the A of its (first) contraction, and
/// where that A lies in the weight's logical words.
fn a_pack(graph: &Graph, op: NodeId) -> Option<(NodeId, WeightPack)> {
    let (spec, ins) = weight_operand(graph, op)?;
    let (w, x) = (graph.data(ins[0])?, graph.data(*ins.get(1)?)?);
    let (a, b, out) = labelled_shapes(spec, &w.shape, &x.shape)?;
    let natural = |s: &Shape| Layout::row_major(s.rank()).strides(s);
    let (a, b) = ((&a, &natural(&a)[..]), (&b, &natural(&b)[..]));
    let plan = ContractPlan::compile_as(spec, a, b, &natural(&out), Some(false)).ok()?;
    let v = plan.a.view.filter(|_| plan.batch == 1)?;
    let (m, k, rs, cs) = (plan.m, plan.k, v.rs, v.cs);
    Some((ins[0], WeightPack { m, k, rs, cs }))
}

/// An operator whose (first) contraction reads a projection weight as its
/// first operand: the contraction and the operator's input edges.
fn weight_operand(graph: &Graph, op: NodeId) -> Option<(&EinsumSpec, Vec<NodeId>)> {
    let spec = match &graph.op(op)?.kind {
        OpKind::Einsum(spec) | OpKind::TileProgram { first: spec, .. } => spec,
        _ => return None,
    };
    let ins = graph.inputs_of(op);
    let w = graph.data(*ins.first()?)?;
    (w.role == DataRole::Weight && w.shape.rank() >= 2).then_some((spec, ins))
}

/// The output container of the forward layer norm whose input is `x`,
/// which keys the statistics a backward norm over `x` reads: a norm that
/// reads `x` (unfused, or a fused singleton), or the fused BDRLN that wrote
/// `x` as its layer-norm input (its output 1; the norm's output is 2).
fn norm_of(graph: &Graph, x: NodeId) -> Option<NodeId> {
    let norm_out = |op: NodeId| -> Option<NodeId> {
        let (ins, outs) = (graph.inputs_of(op), graph.outputs_of(op));
        let (input, out) = match &graph.op(op)?.kind {
            OpKind::LayerNorm { .. } => (ins.first(), outs.first()),
            OpKind::Fused { parts, .. } => match classify_fused(parts)? {
                FusedClass::Norm => (ins.first(), outs.first()),
                FusedClass::BiasDropResidualNorm => (outs.get(1), outs.get(2)),
                _ => return None,
            },
            _ => return None,
        };
        (input == Some(&x)).then_some(*out?)
    };
    let mut ops = graph.consumers_of(x);
    ops.extend(graph.producer_of(x));
    ops.into_iter().find_map(norm_out)
}

/// Lowers one scheduled step from the graph's edges, the step's operator
/// kind and kernel name, and its declared layouts; see the module docs.
pub(crate) fn lower_step(graph: &Graph, step: &PlanStep) -> Option<StepLowering> {
    use Role::{Broadcast, Gemm, LaneWeights, Lanes, Whole};
    graph.op(step.op)?;
    let shapes = |ids: Vec<NodeId>| -> Option<Vec<&Shape>> {
        ids.into_iter()
            .map(|id| graph.data(id).map(|d| &d.shape))
            .collect()
    };
    let ins = shapes(graph.inputs_of(step.op))?;
    let outs = shapes(graph.outputs_of(step.op))?;
    let edge = |slot: Slot| -> Option<(&Shape, Option<&Operand>)> {
        Some(match slot {
            Slot::In(k) => (*ins.get(k)?, step.inputs.get(k)),
            Slot::Out(k) => (*outs.get(k)?, step.outputs.get(k)),
        })
    };
    // an edge the step declares no operand for is in its natural layout
    let strides = |slot: Slot| -> Option<Vec<usize>> {
        let (shape, declared) = edge(slot)?;
        let natural = Layout::row_major(shape.rank());
        strides_under(shape, declared.map_or(natural, |o| o.layout))
    };
    // the operand's whole container over its own axes
    let whole = |slot: Slot| Some(View::whole(edge(slot)?.0.sizes(), &strides(slot)?));
    // the operand broadcast onto `onto`'s axes by name: stride 0 where it
    // has none; `None` when it has an axis `onto` lacks or extents disagree
    let broadcast = |slot: Slot, onto: &Shape| -> Option<View> {
        View::broadcast(edge(slot)?.0, &strides(slot)?, onto)
    };
    // the rows of the stacked container at `slot` from row `start`, shaped
    // (positionally) like one projection `part`
    let carve = |slot: Slot, part: &Shape, start: usize| -> Option<(Slot, Role, View)> {
        let (stacked, st) = (edge(slot)?.0, strides(slot)?);
        let rows = *part.sizes().first()?;
        if stacked.rank() == 0
            || stacked.sizes()[1..] != part.sizes()[1..]
            || start + rows > stacked.sizes()[0]
        {
            return None;
        }
        let view = View {
            base: start * st[0],
            dims: part.sizes().iter().copied().zip(st).collect(),
        };
        Some((slot, Role::Carve, view))
    };
    // positional input (role, view)s, then every output whole in `out`
    // role; all of one extent list, each over its own strides
    let rows = |inputs: Vec<(Role, Option<View>)>, out: Role| -> Option<Vec<(Slot, Role, View)>> {
        if inputs.len() != ins.len() {
            return None;
        }
        let inputs = inputs
            .into_iter()
            .enumerate()
            .map(|(k, (role, view))| Some((Slot::In(k), role, view?)));
        let outputs = (0..outs.len()).map(|k| Some((Slot::Out(k), out, whole(Slot::Out(k))?)));
        inputs.chain(outputs).collect()
    };
    let swept = |role: Role, n_in: usize| -> Vec<(Role, Option<View>)> {
        (0..n_in).map(|k| (role, whole(Slot::In(k)))).collect()
    };
    let bias_onto_x = |k: usize| {
        let view = ins.first().and_then(|x| broadcast(Slot::In(k), x));
        (Broadcast, view)
    };
    let lane_of = |axis: Axis| ins.first()?.index_of(axis).ok();
    // γ/β: one weight per lane position, constant across lanes
    let lane_weights = |k: usize, axis: usize| -> (Role, Option<View>) {
        let view = ins.first().zip(ins.get(k)).and_then(|(x, w)| {
            (w.num_elements() == x.sizes()[axis]).then(|| View::lane_weights(x.sizes(), axis))
        });
        (LaneWeights, view)
    };
    // output `k` accumulated onto `onto`'s axes through zero strides (dbias)
    let bias_out =
        |k: usize, onto: &Shape| Some((Slot::Out(k), Broadcast, broadcast(Slot::Out(k), onto)?));
    let input = |k: usize| Some((Slot::In(k), Whole, whole(Slot::In(k))?));
    let output = |k: usize| Some((Slot::Out(k), Whole, whole(Slot::Out(k))?));
    // (kernel, operands, lane axis, query axis, statistics)
    type Row = (
        Kernel,
        Vec<(Slot, Role, View)>,
        Option<usize>,
        Option<usize>,
        Option<Stats>,
    );
    let elementwise = |kernel: Kernel, n_in: usize, n_out: usize| -> Option<Row> {
        (n_out == outs.len()).then_some(())?;
        Some((kernel, rows(swept(Whole, n_in), Whole)?, None, None, None))
    };
    let softmax = |kernel: fn(bool) -> Kernel, axis: Axis, causal: bool, n_out| -> Option<Row> {
        (n_out == outs.len()).then_some(())?;
        let ai = lane_of(axis)?;
        // the causal query axis immediately precedes the softmax axis
        let query = if causal {
            Some(ai.checked_sub(1)?)
        } else {
            None
        };
        let sweep = Lanes { axis: ai };
        let operands = rows(swept(sweep, ins.len()), sweep)?;
        Some((kernel(causal), operands, Some(ai), query, None))
    };
    // a norm along `axis`, forward or backward: the inputs swept along the
    // lane but the per-lane weights (γ, β) at `weights`, then the outputs
    // swept along it or, where `grads` says, per-lane weight gradients
    let norm = |kernel: Kernel, axis: Axis, weights: &[usize], grads: &[bool], stats| {
        (outs.len() == grads.len()).then_some(())?;
        let ai = lane_of(axis)?;
        let sweep = Lanes { axis: ai };
        let inputs = (0..ins.len()).map(|k| match weights.contains(&k) {
            true => lane_weights(k, ai).1.map(|v| (Slot::In(k), LaneWeights, v)),
            false => Some((Slot::In(k), sweep, whole(Slot::In(k))?)),
        });
        // a weight gradient is per-lane weights of input 0's lanes (dγ, dβ)
        let x = ins.first()?.sizes();
        let grad = |k: usize| (outs[k].num_elements() == x[ai]).then(|| View::lane_weights(x, ai));
        let outputs = grads.iter().enumerate().map(|(k, &w)| match w {
            true => Some((Slot::Out(k), LaneWeights, grad(k)?)),
            false => Some((Slot::Out(k), sweep, whole(Slot::Out(k))?)),
        });
        let operands = inputs.chain(outputs).collect::<Option<_>>()?;
        Some((kernel, operands, Some(ai), None, Some(stats)))
    };
    // the statistics of the forward norm whose input is input `x`
    let reads = |x: usize| {
        let x = *graph.inputs_of(step.op).get(x)?;
        Some(Stats::Reads(norm_of(graph, x)?))
    };
    // bias dW: each output accumulated from input 0 — whole, or for several
    // outputs one projection's rows of the stacked gradient each
    let bias_grads = || -> Option<Row> {
        let dy = *ins.first()?;
        (ins.len() == 1 && !outs.is_empty()).then_some(())?;
        let (mut operands, mut start) = (Vec::with_capacity(2 * outs.len()), 0);
        for (k, out) in outs.iter().enumerate() {
            // one projection's rows: the bias's axes, then the gradient's
            // past them
            let lead = out.axes().iter().zip(out.sizes());
            let rest = dy.axes().iter().zip(dy.sizes()).skip(out.rank());
            let onto = match outs.len() {
                1 => dy.clone(),
                _ => Shape::new(lead.chain(rest).map(|(a, &n)| (a.0, n))).ok()?,
            };
            operands.push(match outs.len() {
                1 => input(0)?,
                _ => carve(Slot::In(0), &onto, start)?,
            });
            operands.push(bias_out(k, &onto)?);
            start += out.sizes().first()?;
        }
        Some((Kernel::BiasGrad, operands, None, None, None))
    };

    let (kernel, operands, lane, query, stats): Row = match &step.kind {
        OpKind::Einsum(spec) => {
            // the labelled output must positionally match the container's
            // declared shape, or the GEMM would misplace — or be one
            // projection's rows of a stacked container, which a backward
            // writer of the stacked Q/K/V gradient fills
            let (a_s, b_s, lbl) = labelled_shapes(spec, ins.first()?, ins.get(1)?)?;
            if ins.len() != 2 || outs.len() != 1 {
                return None;
            }
            let written = match lbl.sizes() == outs[0].sizes() {
                true => (Slot::Out(0), Gemm, whole(Slot::Out(0))?),
                false => {
                    let (total, rows) = (*outs[0].sizes().first()?, *lbl.sizes().first()?);
                    let start = stacked_carve_start(stacked_stream(&lbl.spec())?, total, rows)?;
                    carve(Slot::Out(0), &lbl, start)?
                }
            };
            let (a, b, out) = (
                strides(Slot::In(0))?,
                strides(Slot::In(1))?,
                strides(Slot::Out(0))?,
            );
            // a projection weight plays A, read out of its panel pack
            let weight = weight_operand(graph, step.op).is_some();
            let (a, b) = ((&a_s, &a[..]), (&b_s, &b[..]));
            let plan = ContractPlan::compile_as(spec, a, b, &out, weight.then_some(false)).ok()?;
            // the stacked axis is the three projections: the contraction
            // over it is the sum of their three products, in stream order
            let plan = match spec.classify().ok()?.k.contains(&Axis('s')) {
                true => plan.in_parts(3)?,
                false => plan,
            };
            let kernel = Kernel::Contract {
                plan: Box::new(plan),
            };
            let mut operands = rows(swept(Gemm, 2), Gemm)?;
            operands[2] = written;
            (kernel, operands, None, None, None)
        }
        OpKind::Bias { .. } => {
            let (&x, &out) = (ins.first()?, outs.first()?);
            let bias = (Broadcast, broadcast(Slot::In(1), out));
            let operands = if x.sizes() == out.sizes() && x.spec() == out.spec() {
                rows(vec![(Whole, whole(Slot::In(0))), bias], Whole)?
            } else {
                // `Input bias Q/K/V`: one projection's rows of the stacked tensor
                let (total, part) = (*x.sizes().first()?, *out.sizes().first()?);
                let stream = &step.name[step.name.len().saturating_sub(1)..];
                let (_, role, view) =
                    carve(Slot::In(0), out, stacked_carve_start(stream, total, part)?)?;
                rows(vec![(role, Some(view)), bias], Whole)?
            };
            (outs.len() == 1).then_some(())?;
            (Kernel::Bias, operands, None, None, None)
        }
        OpKind::Scale => elementwise(Kernel::Scale, 1, 1)?,
        OpKind::Relu => elementwise(Kernel::Activate, 1, 1)?,
        OpKind::Dropout => elementwise(Kernel::Dropout, 1, 2)?,
        OpKind::Residual => elementwise(Kernel::Residual, 2, 1)?,
        OpKind::Softmax { axis } => {
            let causal = step.name.contains("Masked");
            softmax(|causal| Kernel::Softmax { causal }, *axis, causal, 1)?
        }
        OpKind::LayerNorm { axis } => norm(
            Kernel::LayerNorm,
            *axis,
            &[1, 2],
            &[false],
            Stats::Writes(0),
        )?,
        OpKind::DropoutGrad => elementwise(Kernel::DropoutGrad, 2, 1)?,
        OpKind::ReluGrad => elementwise(Kernel::ActivateGrad, 2, 1)?,
        OpKind::SoftmaxGrad { axis } => softmax(|_| Kernel::SoftmaxGrad, *axis, false, 1)?,
        OpKind::LayerNormGradX { axis } => {
            norm(Kernel::NormGradX, *axis, &[2], &[false], reads(1)?)?
        }
        OpKind::LayerNormGradW { axis } => {
            norm(Kernel::NormGradW, *axis, &[], &[true; 2], reads(1)?)?
        }
        OpKind::BiasGrad { .. } => bias_grads()?,
        OpKind::Fused {
            parts, reduce_axis, ..
        } => match classify_fused(parts)? {
            FusedClass::InputBias => {
                // inputs [stacked, bq, bk, bv] → outputs [qq, kk, vv]
                if outs.is_empty() || ins.len() != outs.len() + 1 {
                    return None;
                }
                let mut operands = Vec::with_capacity(3 * outs.len());
                let mut start = 0usize;
                for (k, out) in outs.iter().enumerate() {
                    operands.push(carve(Slot::In(0), out, start)?);
                    operands.push((Slot::In(k + 1), Broadcast, broadcast(Slot::In(k + 1), out)?));
                    operands.push((Slot::Out(k), Whole, whole(Slot::Out(k))?));
                    start += out.sizes()[0];
                }
                (Kernel::Bias, operands, None, None, None)
            }
            FusedClass::Softmax { causal } => {
                softmax(|causal| Kernel::Sm { causal }, (*reduce_axis)?, causal, 3)?
            }
            FusedClass::BiasDropResidualNorm => {
                (outs.len() == 3).then_some(())?;
                let ai = lane_of((*reduce_axis)?)?;
                let sweep = Lanes { axis: ai };
                let inputs = vec![
                    (sweep, whole(Slot::In(0))),
                    bias_onto_x(1),
                    (sweep, whole(Slot::In(2))),
                    lane_weights(3, ai),
                    lane_weights(4, ai),
                ];
                let stats = Some(Stats::Writes(2));
                (Kernel::Bdrln, rows(inputs, sweep)?, Some(ai), None, stats)
            }
            FusedClass::BiasActDrop => {
                (outs.len() == 3).then_some(())?;
                let inputs = vec![(Whole, whole(Slot::In(0))), bias_onto_x(1)];
                (Kernel::BrdAct, rows(inputs, Whole)?, None, None, None)
            }
            FusedClass::BiasDropResidual => {
                (outs.len() == 2).then_some(())?;
                let inputs = vec![
                    (Whole, whole(Slot::In(0))),
                    bias_onto_x(1),
                    (Whole, whole(Slot::In(2))),
                ];
                (Kernel::Bdr, rows(inputs, Whole)?, None, None, None)
            }
            FusedClass::Norm => norm(
                Kernel::LayerNorm,
                (*reduce_axis)?,
                &[1, 2],
                &[false],
                Stats::Writes(0),
            )?,
            FusedClass::BiasSoftmax => {
                (outs.len() == 1).then_some(())?;
                let ai = lane_of((*reduce_axis)?)?;
                let sweep = Lanes { axis: ai };
                let inputs = vec![(sweep, whole(Slot::In(0))), bias_onto_x(1)];
                (
                    Kernel::BiasSoftmax,
                    rows(inputs, sweep)?,
                    Some(ai),
                    None,
                    None,
                )
            }
            FusedClass::DropSoftmaxGrad => softmax(|_| Kernel::Bs, (*reduce_axis)?, false, 1)?,
            FusedClass::NormGradW => norm(
                Kernel::NormGradW,
                (*reduce_axis)?,
                &[],
                &[true; 2],
                reads(1)?,
            )?,
            FusedClass::NormGradXDrop => {
                norm(Kernel::Blnrd, (*reduce_axis)?, &[2], &[false; 2], reads(1)?)?
            }
            FusedClass::NormGradXResidual => {
                norm(Kernel::Blnr, (*reduce_axis)?, &[2], &[false], reads(1)?)?
            }
            FusedClass::ResidualNormGradW => {
                let grads = [false, true, true];
                norm(Kernel::Ebsb, (*reduce_axis)?, &[], &grads, reads(2)?)?
            }
            FusedClass::BiasGrad => bias_grads()?,
            FusedClass::DropBiasGrad => {
                (ins.len() == 2 && outs.len() == 2).then_some(())?;
                let operands = [input(0), input(1), output(0), bias_out(1, ins[0])];
                (
                    Kernel::Bdb,
                    operands.into_iter().collect::<Option<_>>()?,
                    None,
                    None,
                    None,
                )
            }
            FusedClass::DropActBiasGrad => {
                // behind the bias dW the encoder merged in, when it has one
                let m = ins
                    .len()
                    .checked_sub(3)
                    .filter(|&m| m < 2 && outs.len() == m + 2)?;
                let merged = [input(0), bias_out(0, ins[0])].into_iter().take(2 * m);
                let own = [
                    input(m),
                    input(m + 1),
                    input(m + 2),
                    output(m),
                    bias_out(m + 1, ins[m]),
                ];
                let operands = merged.chain(own).collect::<Option<_>>()?;
                (Kernel::Bdrb, operands, None, None, None)
            }
            FusedClass::ResidualGrad => elementwise(Kernel::Residual, 2, 1)?,
        },
        OpKind::TileProgram {
            first,
            second,
            parts,
            reduce_axis,
            ..
        } => {
            let edges = |n: usize, slot: fn(usize) -> Slot| -> Option<Vec<_>> {
                (0..n)
                    .map(|k| Some((edge(slot(k))?.0, strides(slot(k))?)))
                    .collect()
            };
            let (ins_at, outs_at) = (edges(ins.len(), Slot::In)?, edges(outs.len(), Slot::Out)?);
            let (tail, plan) = tile_kernel(
                first,
                second.as_ref(),
                parts,
                *reduce_axis,
                &ins_at,
                &outs_at,
            )?;
            // each row of the tile sees one bias word — `[m, n]` with
            // strides `(1, 0)` — or, under the head's tail, each column:
            // `(0, 1)`
            let f = &plan.first;
            let bias = |by_row: bool| {
                let dims = vec![(f.m, usize::from(by_row)), (f.n, usize::from(!by_row))];
                (Broadcast, Some(View { base: 0, dims }))
            };
            let mut inputs = swept(Gemm, ins.len());
            match tail {
                Tail::BrdAct | Tail::Bdr => inputs[2] = bias(true),
                Tail::BiasSoftmax => inputs[2] = bias(false),
                Tail::Softmax { .. } => {}
            }
            // a one-contraction program's streams are walked as dense row
            // blocks
            let natural = |slot: Slot| {
                edge(slot).is_some_and(|(_, o)| o.is_none_or(|o| o.layout.is_row_major()))
            };
            let mut streams = (2..ins.len())
                .map(Slot::In)
                .chain((0..outs.len()).map(Slot::Out));
            if second.is_none() && !streams.all(natural) {
                return None;
            }
            let kernel = Kernel::Tile {
                plan: Box::new(plan),
                tail,
            };
            (kernel, rows(inputs, Gemm)?, None, None, None)
        }
    };

    // the runs of operands one sweep each covers: one per projection of a
    // bias kernel, the merged bias dW apart from BDRB's own, else all
    let groups = match &kernel {
        Kernel::Contract { .. } | Kernel::Tile { .. } => Vec::new(),
        Kernel::Bias => vec![3; operands.len() / 3],
        Kernel::BiasGrad => vec![2; operands.len() / 2],
        Kernel::Bdrb if operands.len() == 7 => vec![2, 5],
        _ => vec![operands.len()],
    };
    let mut rest = &operands[..];
    let mut sweeps = Vec::with_capacity(groups.len());
    for n in groups {
        let (ops, tail) = rest.split_at(n);
        let views: Vec<&View> = ops.iter().map(|o| &o.2).collect();
        sweeps.push(Sweep::compile(&views, lane, query)?);
        rest = tail;
    }
    Some(StepLowering {
        stats: stats.zip(sweeps.first().map(Sweep::lanes)),
        relayouts: step
            .relayouts
            .iter()
            .map(|r| lower_relayout(graph, r))
            .collect::<Option<_>>()?,
        kernel,
        operands,
        sweeps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::{apply_epilogues, apply_plan, decoder_fusion_plan, encoder_fusion_plan};
    use crate::plan::testing::rotated;
    use crate::plan::ExecutionPlan;
    use crate::recipe::forward_ops;
    use xform_dataflow::{build, DataRole, EncoderDims};

    /// The access derivation reads a lowering as the step's whole access
    /// set, so a row that forgot an edge would under-report it.
    #[test]
    fn every_row_names_every_edge_of_its_step() {
        let dims = EncoderDims::tiny();
        for (decoder, fuse, epilogue) in [
            (false, false, false),
            (false, true, false),
            (false, true, true),
            (true, true, false),
            (true, true, true),
        ] {
            let eg = if decoder {
                build::decoder(&dims)
            } else {
                build::encoder(&dims)
            };
            let mut g = eg.graph;
            if fuse {
                let groups = if decoder {
                    decoder_fusion_plan()
                } else {
                    encoder_fusion_plan()
                };
                apply_plan(&mut g, &groups).unwrap();
            }
            if epilogue {
                assert!(!apply_epilogues(&mut g).unwrap().is_empty());
            }
            let plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
            for step in &plan.steps {
                let low = lower_step(&g, step)
                    .unwrap_or_else(|| panic!("`{}` is a forward kernel", step.name));
                for k in 0..step.inputs.len() {
                    assert!(
                        low.operands.iter().any(|o| o.0 == Slot::In(k)),
                        "`{}` input {k}",
                        step.name
                    );
                }
                for k in 0..step.outputs.len() {
                    assert!(
                        low.operands.iter().any(|o| o.0 == Slot::Out(k)),
                        "`{}` output {k}",
                        step.name
                    );
                }
            }
        }
    }

    #[test]
    fn the_stacked_carves_tile_the_projection() {
        let eg = build::encoder(&EncoderDims::tiny());
        let plan = ExecutionPlan::natural(&eg.graph, &forward_ops(&eg.graph, eg.dy)).unwrap();
        let mut carves = Vec::new();
        let mut stacked = None;
        for name in ["Input bias Q", "Input bias K", "Input bias V"] {
            let step = plan.steps.iter().find(|s| s.name == name).unwrap();
            let low = lower_step(&eg.graph, step).unwrap();
            assert!(matches!(low.kernel, Kernel::Bias));
            stacked = Some(step.inputs[0].data);
            match &low.operands[0] {
                // natural layout: the rows are a word range from the base
                (Slot::In(0), Role::Carve, view) => {
                    let words: usize = view.dims.iter().map(|d| d.0).product();
                    carves.push((view.base, words));
                }
                other => panic!("{name}: {other:?}"),
            }
        }
        let total = eg.graph.data(stacked.unwrap()).unwrap();
        let third = total.shape.num_elements() / 3;
        assert_eq!(carves, [(0, third), (third, third), (2 * third, third)]);
    }

    /// A declared layout is nothing but the strides of the view: the
    /// rotated softmax input keeps its extents and its lane axis and
    /// changes how far each axis steps; a relayout lowers to the copy
    /// between the two stride sets.
    #[test]
    fn a_declared_layout_is_the_strides_of_the_view() {
        let eg = build::encoder(&EncoderDims::tiny());
        let mut g = eg.graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        let mut plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
        let si = plan.steps.iter().position(|s| s.name == "SM").unwrap();
        let natural = lower_step(&g, &plan.steps[si]).unwrap();
        plan.steps[si].inputs[0].layout = rotated(plan.steps[si].inputs[0].layout);
        plan.reflow(&g);
        let low = lower_step(&g, &plan.steps[si]).unwrap();
        let (x_nat, x_rot) = (&natural.operands[0].2, &low.operands[0].2);
        let extents = |v: &View| v.dims.iter().map(|d| d.0).collect::<Vec<_>>();
        assert_eq!(extents(x_nat), extents(x_rot));
        assert_eq!(x_nat.dims.last().unwrap().1, 1, "k is innermost naturally");
        assert_ne!(x_rot.dims.last().unwrap().1, 1, "and strided once rotated");
        assert_eq!(natural.operands[1].2, low.operands[1].2, "outputs kept");
        // the relayout reads through the old strides and writes the new,
        // in the new layout's physical order (its last axis contiguous)
        let [copy] = &low.relayouts[..] else {
            panic!("one relayout, got {:?}", low.relayouts);
        };
        let sorted = |mut v: Vec<usize>| {
            v.sort_unstable();
            v
        };
        let strides = |v: &View| sorted(v.dims.iter().map(|d| d.1).collect());
        let new: Vec<usize> = copy.dims.iter().map(|d| d.2).collect();
        assert!(new.windows(2).all(|w| w[0] >= w[1]) && new.last() == Some(&1));
        assert_eq!(sorted(new), strides(x_rot));
        assert_eq!(
            sorted(copy.dims.iter().map(|d| d.1).collect()),
            strides(x_nat)
        );
        assert_eq!(
            low.scratch_words(),
            extents(x_nat).iter().product::<usize>()
        );
    }

    #[test]
    fn miscounted_operands_have_no_lowering() {
        let mut g = Graph::new();
        let shape = || Shape::new([('b', 2), ('i', 3)]).unwrap();
        let x = g.add_data("x", shape(), DataRole::Input);
        let dy = g.add_data("dy", shape(), DataRole::Input);
        let dx = g.add_data("dx", shape(), DataRole::Output);
        let y = g.add_data("y", shape(), DataRole::Output);
        let back = g.add_op("ReLU dX", OpKind::ReluGrad, &[dy], &[dx]);
        let lone = g.add_op("lonely residual", OpKind::Residual, &[x], &[y]);
        let plan = ExecutionPlan::natural(&g, &[back, lone]).unwrap();
        assert!(lower_step(&g, &plan.steps[0]).is_none());
        assert!(lower_step(&g, &plan.steps[1]).is_none());
    }
}
