//! What a scheduled step touches: the one derivation every certificate,
//! the cache model and the profiler read.
//!
//! For each step, [`step_accesses`] reads the step lowering's operand
//! views (DESIGN.md, "Step lowering" — the very views the arena embeds in
//! slab slots and hands the kernels) as the exact index-affine access path
//! of every operand under its declared layout: base offset, per-loop
//! `(extent, stride)` pairs, innermost loop last. Nothing else reads the
//! lowering for what a step touches. A path's hull ([`AccessPath::hull`])
//! is the word interval the wave check compares, and its distinct words
//! ([`AccessPath::distinct_words`]) what the declaration cross-check and
//! the profiler count; the arena hands each kernel exactly the hull of its
//! operand's path.
//!
//! The certificate itself ([`crate::sanitize::PlanCertificate`]) is one
//! pass over these accesses; [`certify_access`] is its entry under the
//! name the access-path certifier had. The pass proves three properties of
//! every step:
//!
//! 1. **in-bounds** — every read/write lands inside the declared operand's
//!    buffer (and, at arena level, inside its slab slot and the slab
//!    itself); a proven escape is a [`PlanLint::UnprovenAccess`] error;
//! 2. **unit-stride** — the kernel's inner loop advances by one word in
//!    every swept operand under the declared (SSSP-selected) layout. The
//!    inner loop is the one the executor runs: along the lane, or — when
//!    the lowering's compiled sweep says the kernel runs in panels
//!    ([`xform_tensor::into_ops::Sweep::walk`], the predicate the drivers
//!    themselves dispatch on) — along the rows of a panel of adjacent
//!    strided lanes. An in-bounds sweep with neither is a
//!    [`PlanLint::StridedInnerLoop`] warning (correct, one lane at a time
//!    through strided views). The certificate reads that choice; it never
//!    makes it;
//! 3. **alias-freedom** — no two operand paths of one step overlap with
//!    conflicting access kinds beyond shared reads.
//!
//! Where a step's declared operand is missing, or names another container
//! than the graph's edge at that slot, the two accounts of a step part
//! ([`Binding`]): the kernel's buffer account keeps the declared buffer,
//! swept with the edge's geometry — which is how an out-of-bounds retarget
//! is convicted — and the graph's account keeps the edge's own path, so no
//! word the memlet names is dropped. Steps the lowering does not model
//! touch every declared buffer and every edge whole. Either way the step
//! is not counted as exactly derived.

use xform_dataflow::{Graph, NodeId};
use xform_tensor::into_ops::View;
use xform_tensor::lanes::Walk;

use crate::analyze::{analyze, PlanLint};
use crate::lower::{lower_step, walk_of, Role, Slot};
use crate::plan::{ExecutionPlan, PlanStep};
use crate::sanitize::{certify_plan, PlanCertificate};

/// An index-affine access path: the set of word offsets
/// `base + Σ iᵈ·strideᵈ` for `iᵈ < extentᵈ`, with the kernel's innermost
/// loop dimension last.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPath {
    /// Constant word offset into the buffer (nonzero only for the
    /// stacked-Q/K/V carve).
    pub base: u64,
    /// `(extent, stride)` per loop dimension, innermost last.
    pub dims: Vec<(u64, u64)>,
}

impl AccessPath {
    /// A conservative whole-buffer path: one unit-stride dimension over
    /// `words` elements.
    pub fn flat(words: u64) -> AccessPath {
        AccessPath {
            base: 0,
            dims: vec![(words, 1)],
        }
    }

    /// One past the largest word offset the path can touch (`0` for an
    /// empty path).
    pub fn max_end(&self) -> u64 {
        if self.dims.iter().any(|&(n, _)| n == 0) {
            return 0;
        }
        self.base + self.dims.iter().map(|&(n, s)| (n - 1) * s).sum::<u64>() + 1
    }

    /// The word interval from the path's first to one past its last word:
    /// what a kernel is handed of its operand's buffer, and what two
    /// accesses must share to conflict.
    pub fn hull(&self) -> std::ops::Range<u64> {
        self.base..self.max_end().max(self.base)
    }

    /// Stride of the innermost non-singleton loop dimension (`1` when all
    /// dimensions are singletons — a single element is trivially
    /// unit-stride).
    pub fn inner_stride(&self) -> u64 {
        self.dims
            .iter()
            .rev()
            .find(|&&(n, _)| n > 1)
            .map(|&(_, s)| s)
            .unwrap_or(1)
    }

    /// Number of distinct loop iterations (an upper bound on touched
    /// words; exact when strides don't collide).
    pub fn iterations(&self) -> u64 {
        self.dims.iter().map(|&(n, _)| n).product()
    }

    /// Distinct words the path touches: the product of its loop extents
    /// with stride-0 (revisiting) dimensions collapsed, clamped by the
    /// address span — exact for layout-derived sweeps, an upper bound
    /// otherwise. The footprint weight of one reference in the
    /// reuse-distance model ([`crate::cachemodel`]), the declaration
    /// cross-check and the profiler.
    pub fn distinct_words(&self) -> u64 {
        let prod: u64 = self
            .dims
            .iter()
            .map(|&(n, s)| if s == 0 { 1 } else { n.max(1) })
            .product();
        let span = self.max_end().saturating_sub(self.base);
        prod.min(span.max(u64::from(self.dims.is_empty())))
    }
}

/// How a step touches a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// The step consumes the values.
    Read,
    /// The step defines the values.
    Write,
    /// The step re-materializes the values in another physical order
    /// without changing them (an explicit relayout) — in place on the
    /// arena, so a race against any concurrent access.
    Materialize,
}

/// Which account of a step an access belongs to. The two differ only where
/// the operand declared at a slot is not the container of the graph's edge
/// there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binding {
    /// The declared operand is the edge's container: both accounts.
    Exact,
    /// The declared buffer the kernel is handed, swept with another edge's
    /// geometry: the bounds, aliasing and slab checks only.
    Declared,
    /// The edge's container where the declaration names another one (or
    /// none): the wave, declaration and footprint accounts only.
    Edge,
}

/// One derived operand access of a scheduled step.
#[derive(Debug, Clone)]
pub struct OperandAccess {
    /// The container.
    pub data: NodeId,
    /// The declared operand name (the environment slot the kernel binds);
    /// the graph name for an [`Binding::Edge`] access.
    pub name: String,
    /// Access class.
    pub kind: AccessKind,
    /// The derived affine path, in the container's word space.
    pub path: AccessPath,
    /// `true` when the kernel walks this operand with its inner loop —
    /// the operands that carry the unit-stride proof obligation. Gather
    /// operands (broadcast biases, per-lane weights, einsum packs) are
    /// bounds-checked but carry no stride obligation.
    pub swept: bool,
    /// Which account of the step the access is part of.
    pub binding: Binding,
}

impl OperandAccess {
    /// Part of the kernel's buffer account: bounds, aliasing, slab slots.
    pub fn bound(&self) -> bool {
        self.binding != Binding::Edge
    }

    /// Part of the graph's account: waves, declarations, footprint.
    pub fn touched(&self) -> bool {
        self.binding != Binding::Declared
    }
}

/// The derived accesses of one step plus whether the derivation was exact.
#[derive(Debug, Clone)]
pub struct StepAccesses {
    /// Every operand access the step performs.
    pub accesses: Vec<OperandAccess>,
    /// `true` when every path is exact; `false` when the declared operands
    /// disagree with the graph's edges or the lowering does not model the
    /// step (the step is never counted as proven unit-stride).
    pub derived: bool,
}

/// The per-step verdict of the certificate.
#[derive(Debug, Clone)]
pub struct StepAccessProof {
    /// Step index in the schedule.
    pub step: usize,
    /// The step's kernel name.
    pub name: String,
    /// Every derived path stays inside its buffer (and slab slot).
    pub in_bounds: bool,
    /// Every swept operand's innermost loop is unit-stride.
    pub unit_stride: bool,
    /// No conflicting intra-step overlap beyond shared reads.
    pub alias_free: bool,
    /// The derivation was exact (no conservative fallback paths).
    pub derived: bool,
}

/// The loops of `view` as a path in the kernel's order: logical order with
/// axis `lane` innermost — or, when the sweep runs in panels, the lane
/// inside every outer axis but the innermost one that moves, which is the
/// loop a panel's rows run along. `gathered` drops the loops that do not
/// move (the zero strides of a broadcast).
fn loops_of(view: &View, lane: usize, gathered: bool, walk: Walk) -> AccessPath {
    let rank = view.dims.len();
    if rank == 0 {
        return AccessPath::flat(1);
    }
    let mut order: Vec<usize> = (0..rank).filter(|&d| d != lane).collect();
    if lane < rank {
        let moves = |&d: &usize| view.dims[d].0 > 1;
        let panel_axis = order
            .iter()
            .rposition(moves)
            .filter(|_| walk == Walk::Panel);
        order.insert(panel_axis.unwrap_or(order.len()), lane);
    }
    let dims = (order.into_iter())
        .map(|d| (view.dims[d].0 as u64, view.dims[d].1 as u64))
        .filter(|&(_, stride)| !gathered || stride != 0);
    AccessPath {
        base: view.base as u64,
        dims: dims.collect(),
    }
}

/// The access path a lowered operand [`View`] describes — its loops in
/// the order the kernel runs them under `walk` (the compiled sweep's own
/// predicate), the lane axis of `role` innermost unless the sweep panels —
/// and whether the operand carries the unit-stride obligation (`swept`). A
/// GEMM operand is every word of its container, through the contraction's
/// own loop nest.
pub(crate) fn view_path(role: &Role, view: &View, walk: Walk) -> (AccessPath, bool) {
    let rank = view.dims.len();
    match *role {
        Role::Gemm => {
            let words: usize = view.dims.iter().map(|d| d.0).product();
            (AccessPath::flat(words as u64), false)
        }
        Role::Lanes { axis } => (loops_of(view, axis, false, walk), true),
        // element-wise sweeps walk their last logical axis innermost
        Role::Whole => {
            let last = rank.saturating_sub(1);
            (loops_of(view, last, false, walk), rank > 0)
        }
        // the dense 1-D per-lane weights are walked along the lane
        Role::LaneWeights => (loops_of(view, rank, true, walk), rank > 0),
        Role::Carve | Role::Broadcast => (loops_of(view, rank, true, walk), false),
    }
}

/// Derives the operand access paths of one scheduled step from the step
/// lowering (`core::lower`: the graph's edges and the dispatch rules) —
/// deliberately not from the declared operand list alone, so a declaration
/// that disagrees with what the kernel will actually sweep is
/// bounds-checked against the sweep, not against itself. The sweep
/// geometry comes from the graph edge at each slot; the buffer bound and
/// the layout come from the operand declared there. Relayouts come first:
/// the gather of every word through the old layout's strides, then the
/// materialization through the new one's.
pub fn step_accesses(graph: &Graph, step: &PlanStep) -> StepAccesses {
    use AccessKind::{Materialize, Read, Write};
    let mut accesses: Vec<OperandAccess> = Vec::new();
    let mut derived = true;
    let words_of = |id: NodeId| graph.data(id).map_or(0, |d| d.shape.num_elements() as u64);
    let mut push = |data: NodeId, name: &str, kind, path, swept, binding| {
        accesses.push(OperandAccess {
            data,
            name: name.to_string(),
            kind,
            path,
            swept,
            binding,
        });
    };

    let in_ids = graph.inputs_of(step.op);
    let out_ids = graph.outputs_of(step.op);
    let lowering = lower_step(graph, step);

    for (k, r) in step.relayouts.iter().enumerate() {
        if graph.data(r.data).is_none() {
            derived = false;
            continue;
        }
        let copy = lowering.as_ref().map(|low| &low.relayouts[k].dims);
        for (kind, new) in [(Read, false), (Materialize, true)] {
            let side = |d: &(usize, usize, usize)| (d.0 as u64, if new { d.2 } else { d.1 } as u64);
            let path = copy.map_or_else(
                || AccessPath::flat(words_of(r.data)),
                |dims| AccessPath {
                    base: 0,
                    dims: dims.iter().map(side).collect(),
                },
            );
            push(r.data, &r.name, kind, path, false, Binding::Exact);
        }
    }

    let edge_name = |id: NodeId| {
        graph
            .data(id)
            .map_or_else(|| id.to_string(), |d| d.name.clone())
    };
    let slot = |slot: Slot| match slot {
        Slot::In(k) => (step.inputs.get(k), in_ids[k], Read),
        Slot::Out(k) => (step.outputs.get(k), out_ids[k], Write),
    };
    match &lowering {
        Some(low) => {
            for (k, (at, role, view)) in low.operands.iter().enumerate() {
                let (declared, edge, kind) = slot(*at);
                let walk = walk_of(&low.sweeps, k);
                let (path, swept) = view_path(role, view, walk);
                match declared {
                    Some(o) if o.data == edge => {
                        push(o.data, &o.name, kind, path, swept, Binding::Exact);
                    }
                    _ => {
                        derived = false;
                        if let Some(o) = declared {
                            // the kernel sweeps the edge's words through
                            // the declared buffer
                            let swept_path = match swept {
                                true => AccessPath::flat(words_of(edge)),
                                false => path.clone(),
                            };
                            push(o.data, &o.name, kind, swept_path, false, Binding::Declared);
                        }
                        push(edge, &edge_name(edge), kind, path, false, Binding::Edge);
                    }
                }
            }
        }
        // a step the lowering does not model: every declared buffer and
        // every edge, whole
        None => {
            derived = false;
            let sides = [
                (&step.inputs, &in_ids, Read),
                (&step.outputs, &out_ids, Write),
            ];
            for (declared, edges, kind) in sides {
                for k in 0..declared.len().max(edges.len()) {
                    let (o, edge) = (declared.get(k), edges.get(k).copied());
                    if let Some(o) = o {
                        let binding = match Some(o.data) == edge {
                            true => Binding::Exact,
                            false => Binding::Declared,
                        };
                        let path = AccessPath::flat(words_of(o.data));
                        push(o.data, &o.name, kind, path, false, binding);
                    }
                    if let Some(edge) = edge.filter(|&e| o.map(|o| o.data) != Some(e)) {
                        let path = AccessPath::flat(words_of(edge));
                        push(edge, &edge_name(edge), kind, path, false, Binding::Edge);
                    }
                }
            }
        }
    }

    // extra declared operands the positional walk didn't reach (operand
    // lists longer than the graph's edges) force conservative handling
    if step.inputs.len() != in_ids.len() || step.outputs.len() != out_ids.len() {
        derived = false;
    }

    StepAccesses { accesses, derived }
}

/// Certifies a plan's access paths at the logical (per-buffer) level: the
/// one certificate ([`crate::sanitize::certify_plan`]) over the plan's own
/// wave partition, with no arena coloring.
///
/// # Errors
///
/// Returns every error-severity lint the pass finds — among them every
/// [`PlanLint::UnprovenAccess`] — plus any
/// [`PlanLint::StridedInnerLoop`] warnings for context.
pub fn certify_access(
    graph: &Graph,
    plan: &ExecutionPlan,
) -> Result<PlanCertificate, Vec<PlanLint>> {
    let analysis = analyze(graph, plan);
    certify_plan(graph, plan, &analysis, &analysis.parallel_waves(), None)
}

/// One cache container's geometry, as the certificate records it.
#[derive(Debug, Clone)]
pub struct KvCacheGeometry {
    /// Container name (e.g. `k_cache`).
    pub name: String,
    /// Position capacity: the extent of the outermost (position-major)
    /// axis.
    pub capacity: usize,
    /// Words per position column (product of all non-outermost extents).
    pub col_words: usize,
}

/// Bounds-checked license for a session-side column append: the word range
/// of positions `[pos, pos + width)` in the named cache container, under
/// its position-major layout. `None` when the plan reads no cache of that
/// name or the range escapes the container's capacity — the caller must
/// treat `None` as "do not write". The certificate proves no plan step
/// writes a cache container, so these appends, made before the plan runs,
/// are the only writes one sees.
pub fn column_span(
    cert: &PlanCertificate,
    name: &str,
    pos: usize,
    width: usize,
) -> Option<std::ops::Range<usize>> {
    let c = cert.cache(name)?;
    let end = pos.checked_add(width)?;
    if end > c.capacity {
        return None;
    }
    Some(pos * c.col_words..end * c.col_words)
}
