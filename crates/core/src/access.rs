//! The access-path certifier: symbolic abstract interpretation over a
//! schedule that proves, per step, where every kernel access lands.
//!
//! For each scheduled step the certifier reads the step lowering's operand
//! views (DESIGN.md, "Step lowering" — the very views the arena embeds in
//! slab slots and hands the kernels; [`crate::sanitize::step_footprint`]
//! reads the same lowering's element spans) as the exact index-affine
//! access path of every operand under its declared layout — base offset,
//! per-loop-dimension `(extent, stride)` pairs, innermost loop last. It
//! then proves three properties:
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
//!    through strided views);
//! 3. **alias-freedom** — no two operand paths of one step overlap with
//!    conflicting access kinds beyond what the race certificate already
//!    permits (shared reads).
//!
//! A clean pass yields an [`AccessCertificate`], carried alongside the
//! [`crate::sanitize::RaceCertificate`] and keyed to the plan by
//! [`crate::sanitize::plan_fingerprint`]. The certificate is a set of
//! discharged proof obligations (in-bounds, alias-free — checked at arena
//! compile, before any slab view is handed to a kernel), a performance
//! lint (which steps sweep strided), and the derived paths the cache model
//! ([`crate::cachemodel`]) replays. It does **not** select code: every
//! kernel in [`xform_tensor::into_ops`] is safe and picks its walk —
//! contiguous lane, panel, strided lane — from the strides of the views it
//! is handed, so a step the certifier flags as strided runs the same body,
//! just without contiguous lanes or rows. The certifier reads that choice;
//! it never makes it.
//!
//! Steps the lowering does not model (unknown operator kinds) or whose
//! operand lists disagree with the graph degrade to conservative
//! whole-buffer paths: still sound for the bounds and aliasing checks, but
//! never counted as proven unit-stride.

use std::collections::HashMap;

use xform_dataflow::{Graph, NodeId};
use xform_tensor::into_ops::View;
use xform_tensor::lanes::Walk;

use crate::analyze::{ArenaAssignment, ArenaGranularity, PlanLint};
use crate::lower::{lower_step, walk_of, Role, Slot};
use crate::plan::{ExecutionPlan, PlanStep};
use crate::sanitize::{plan_fingerprint, AccessKind};

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
    /// reuse-distance model ([`crate::cachemodel`]).
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

/// One derived operand access of a scheduled step.
#[derive(Debug, Clone)]
pub struct OperandAccess {
    /// The declared operand's container.
    pub data: NodeId,
    /// The declared operand name (the environment slot the kernel binds).
    pub name: String,
    /// Access class (same taxonomy as the footprint oracle).
    pub kind: AccessKind,
    /// The derived affine path, in the container's word space.
    pub path: AccessPath,
    /// `true` when the kernel walks this operand with its inner loop —
    /// the operands that carry the unit-stride proof obligation. Gather
    /// operands (broadcast biases, per-lane weights, einsum packs) are
    /// bounds-checked but carry no stride obligation.
    pub swept: bool,
}

/// The derived accesses of one step plus whether the derivation was exact.
#[derive(Debug, Clone)]
pub struct StepAccesses {
    /// Every operand access the step performs.
    pub accesses: Vec<OperandAccess>,
    /// `true` when every path is exact; `false` when any operand degraded
    /// to a conservative whole-buffer path (the step is never counted as
    /// proven unit-stride).
    pub derived: bool,
}

/// The per-step verdict of the certifier.
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

/// Proof that every access of a plan is in-bounds and alias-free, with a
/// per-step record of which steps sweep unit-stride. Produced only by a
/// clean [`certify_access`] / [`certify_access_arena`] pass and keyed to
/// the plan by [`plan_fingerprint`], so an edited schedule must be
/// re-certified.
#[derive(Debug, Clone)]
pub struct AccessCertificate {
    /// Fingerprint of the certified plan.
    pub plan_hash: u64,
    /// The arena granularity the slab embedding was proven for (`None`
    /// for the logical, buffer-level certificate).
    pub arena: Option<ArenaGranularity>,
    /// One proof per schedule step.
    pub steps: Vec<StepAccessProof>,
    /// Warning-severity lints found along the way (strided inner loops);
    /// error-severity lints abort certification instead.
    pub lints: Vec<PlanLint>,
}

impl AccessCertificate {
    /// Whether every swept operand of step `si` was derived exactly and
    /// proven unit-stride in its inner loop — the steps whose lanes the
    /// kernels will find contiguous.
    pub fn unit_stride(&self, si: usize) -> bool {
        self.steps
            .get(si)
            .is_some_and(|p| p.derived && p.unit_stride)
    }

    /// Number of proven unit-stride steps.
    pub fn unit_stride_steps(&self) -> usize {
        (0..self.steps.len())
            .filter(|&si| self.unit_stride(si))
            .count()
    }
}

/// `true` when two accesses of one step to overlapping words are a
/// conflict. Shared reads are fine, and so are a relayout's own gather and
/// write-back and the kernel's read of the container it re-materialized:
/// within a step the relayouts run to completion, staged through scratch,
/// before the kernel starts. A re-materialization that overlaps *another*
/// container's words, or anything a write touches, is not.
fn kinds_conflict(a: &OperandAccess, b: &OperandAccess) -> bool {
    use AccessKind::{Materialize, Read};
    match (a.kind, b.kind) {
        (Read, Read) => false,
        (Read, Materialize) | (Materialize, Read) => a.data != b.data,
        _ => true,
    }
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
        Role::Carve { .. } | Role::Broadcast => (loops_of(view, rank, true, walk), false),
    }
}

/// Derives the operand access paths of one scheduled step from the step
/// lowering (`core::lower`: the graph's edges and the dispatch rules) —
/// deliberately not from the declared operand list alone, so a declaration
/// that disagrees with what the kernel will actually sweep is
/// bounds-checked against the sweep, not against itself. The sweep
/// geometry comes from the graph edge at each slot; the buffer bound and
/// the layout come from the operand declared there. A sweep is exact only
/// when the declaration binds that very edge and its layout parses;
/// otherwise it degrades to a conservative whole-sweep path bounded
/// against the declared buffer — exactly how an injected out-of-bounds
/// retarget is convicted.
pub fn step_accesses(graph: &Graph, step: &PlanStep) -> StepAccesses {
    let mut accesses: Vec<OperandAccess> = Vec::new();
    let mut derived = true;
    let words_of = |id: NodeId| graph.data(id).map_or(0, |d| d.shape.num_elements() as u64);
    let mut push = |data: NodeId, name: &str, kind: AccessKind, path: AccessPath, swept: bool| {
        accesses.push(OperandAccess {
            data,
            name: name.to_string(),
            kind,
            path,
            swept,
        });
    };

    let in_ids = graph.inputs_of(step.op);
    let out_ids = graph.outputs_of(step.op);
    let lowering = lower_step(graph, step);

    // relayouts: the gather of every word through the old layout's
    // strides plus the materialization through the new one's (whole-buffer
    // spans when the step has no lowering to take them from)
    for (k, r) in step.relayouts.iter().enumerate() {
        if graph.data(r.data).is_none() {
            derived = false;
            continue;
        }
        let copy = lowering.as_ref().map(|low| &low.relayouts[k].dims);
        for (kind, new) in [(AccessKind::Read, false), (AccessKind::Materialize, true)] {
            let side = |d: &(usize, usize, usize)| (d.0 as u64, if new { d.2 } else { d.1 } as u64);
            let path = copy.map_or_else(
                || AccessPath::flat(words_of(r.data)),
                |dims| AccessPath {
                    base: 0,
                    dims: dims.iter().map(side).collect(),
                },
            );
            push(r.data, &r.name, kind, path, false);
        }
    }

    match lowering {
        Some(low) => {
            for (k, (slot, role, view)) in low.operands.iter().enumerate() {
                let (declared, edge, kind) = match *slot {
                    Slot::In(k) => (step.inputs.get(k), in_ids[k], AccessKind::Read),
                    Slot::Out(k) => (step.outputs.get(k), out_ids[k], AccessKind::Write),
                };
                let Some(o) = declared else {
                    derived = false;
                    continue;
                };
                let walk = walk_of(&low.sweeps, low.operands.len(), k);
                let (path, swept) = view_path(role, view, walk);
                // a sweep's strides are the declared layout's over the
                // edge's shape: exact only if the declaration is that edge
                let exact = !swept || o.data == edge;
                if exact {
                    push(o.data, &o.name, kind, path, swept);
                } else {
                    derived = false;
                    push(
                        o.data,
                        &o.name,
                        kind,
                        AccessPath::flat(words_of(edge)),
                        false,
                    );
                }
            }
        }
        // a step the lowering does not model: conservative declared spans
        None => {
            derived = false;
            let reads = step.inputs.iter().map(|o| (o, AccessKind::Read));
            let writes = step.outputs.iter().map(|o| (o, AccessKind::Write));
            for (o, kind) in reads.chain(writes) {
                push(
                    o.data,
                    &o.name,
                    kind,
                    AccessPath::flat(words_of(o.data)),
                    false,
                );
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

/// Shared certification core: logical bounds always, slab embedding when
/// an assignment is given.
fn certify_inner(
    graph: &Graph,
    plan: &ExecutionPlan,
    assignment: Option<&ArenaAssignment>,
) -> Result<AccessCertificate, Vec<PlanLint>> {
    let slot_of: HashMap<NodeId, (u64, u64, bool)> = assignment
        .map(|a| {
            a.slots
                .iter()
                .map(|s| (s.data, (s.offset, s.words, s.borrowed)))
                .collect()
        })
        .unwrap_or_default();
    let slab_words = assignment.map(|a| a.slab_words).unwrap_or(0);

    let mut proofs = Vec::with_capacity(plan.steps.len());
    let mut errors: Vec<PlanLint> = Vec::new();
    let mut warnings: Vec<PlanLint> = Vec::new();

    for (si, step) in plan.steps.iter().enumerate() {
        let sa = step_accesses(graph, step);
        let mut in_bounds = true;
        let mut unit_stride = true;
        let mut alias_free = true;
        let mut strided_seen: Vec<&str> = Vec::new();

        for a in &sa.accesses {
            // logical bound: the path must stay inside the declared
            // operand's buffer
            let buf_words = graph.data(a.data).map(|d| d.shape.num_elements() as u64);
            match buf_words {
                Some(w) if a.path.max_end() <= w => {}
                Some(w) => {
                    in_bounds = false;
                    errors.push(PlanLint::UnprovenAccess {
                        step: si,
                        name: step.name.clone(),
                        container: a.name.clone(),
                        reason: format!(
                            "derived path ends at word {} of a {w}-word buffer",
                            a.path.max_end()
                        ),
                    });
                }
                None => in_bounds = false, // NotAContainer already lints
            }
            // slab embedding: inside the slot, slot inside the slab — or,
            // a borrowed external's, past it and only ever read
            if let Some(asg) = assignment {
                match slot_of.get(&a.data) {
                    Some(&(off, words, borrowed)) => {
                        if a.path.max_end() > words {
                            in_bounds = false;
                            errors.push(PlanLint::UnprovenAccess {
                                step: si,
                                name: step.name.clone(),
                                container: a.name.clone(),
                                reason: format!(
                                    "derived path ends at word {} of a {words}-word arena slot",
                                    a.path.max_end()
                                ),
                            });
                        }
                        let written = borrowed && a.kind != AccessKind::Read;
                        if written || (!borrowed && off + words > asg.slab_words) {
                            in_bounds = false;
                            errors.push(PlanLint::UnprovenAccess {
                                step: si,
                                name: step.name.clone(),
                                container: a.name.clone(),
                                reason: match written {
                                    true => format!("{:?} access to a borrowed external", a.kind),
                                    false => format!(
                                        "arena slot [{off}, {}) escapes the {slab_words}-word slab",
                                        off + words
                                    ),
                                },
                            });
                        }
                    }
                    None => in_bounds = false,
                }
            }
            // unit-stride obligation of swept operands (a lint, not an error)
            if a.swept && a.path.inner_stride() != 1 && !strided_seen.contains(&a.name.as_str()) {
                strided_seen.push(&a.name);
                unit_stride = false;
                warnings.push(PlanLint::StridedInnerLoop {
                    step: si,
                    name: step.name.clone(),
                    container: a.name.clone(),
                    stride: a.path.inner_stride(),
                });
            }
        }

        // intra-step aliasing beyond shared reads: same buffer at the
        // logical level, overlapping slab ranges across buffers at the
        // arena level
        for (i, a) in sa.accesses.iter().enumerate() {
            for b in &sa.accesses[i + 1..] {
                if !kinds_conflict(a, b) {
                    continue;
                }
                let overlap = if a.data == b.data {
                    a.path.base < b.path.max_end() && b.path.base < a.path.max_end()
                } else if assignment.is_some() {
                    match (slot_of.get(&a.data), slot_of.get(&b.data)) {
                        (Some(&(ao, ..)), Some(&(bo, ..))) => {
                            ao + a.path.base < bo + b.path.max_end()
                                && bo + b.path.base < ao + a.path.max_end()
                        }
                        _ => false,
                    }
                } else {
                    false
                };
                if overlap {
                    alias_free = false;
                    errors.push(PlanLint::UnprovenAccess {
                        step: si,
                        name: step.name.clone(),
                        container: a.name.clone(),
                        reason: format!(
                            "conflicting overlap with operand `{}` beyond what the race certificate permits",
                            b.name
                        ),
                    });
                }
            }
        }

        proofs.push(StepAccessProof {
            step: si,
            name: step.name.clone(),
            in_bounds,
            unit_stride,
            alias_free,
            derived: sa.derived,
        });
    }

    if !errors.is_empty() {
        errors.extend(warnings);
        errors.sort_by_key(PlanLint::step);
        return Err(errors);
    }
    Ok(AccessCertificate {
        plan_hash: plan_fingerprint(plan),
        arena: assignment.map(|a| a.granularity),
        steps: proofs,
        lints: warnings,
    })
}

/// Certifies a plan's access paths at the logical (per-buffer) level:
/// every derived path must stay inside its declared container, and no
/// intra-step overlap may conflict beyond shared reads.
///
/// # Errors
///
/// Returns every [`PlanLint::UnprovenAccess`] found (plus any
/// [`PlanLint::StridedInnerLoop`] warnings for context) when a proven
/// violation exists.
pub fn certify_access(
    graph: &Graph,
    plan: &ExecutionPlan,
) -> Result<AccessCertificate, Vec<PlanLint>> {
    certify_inner(graph, plan, None)
}

/// Certifies a plan's access paths embedded into an arena coloring: on top
/// of the logical checks, every path must stay inside its slot, every
/// slab-owned slot inside the slab, every access to a borrowed external —
/// whose range lies past the slab — must be a read, and no two operands of
/// one step may touch overlapping words with conflicting kinds.
///
/// # Errors
///
/// As [`certify_access`], plus slab-escape violations and writes to
/// borrowed externals.
pub fn certify_access_arena(
    graph: &Graph,
    plan: &ExecutionPlan,
    assignment: &ArenaAssignment,
) -> Result<AccessCertificate, Vec<PlanLint>> {
    certify_inner(graph, plan, Some(assignment))
}

/// One cache container's geometry as proven by [`certify_decode`].
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

/// Proof that a decode plan treats its [`xform_dataflow::DataRole::Cache`] containers as
/// frozen state: no scheduled step (or relayout) writes a single word of
/// any cache container, so an execution can only *read* the resident
/// prefix, never mutate it. Column appends happen outside the plan through
/// the bounds-checked [`column_span`] license, *before* the plan runs —
/// which is exactly how the query's own key becomes visible to its own
/// attention step.
#[derive(Debug, Clone)]
pub struct DecodeCertificate {
    /// Fingerprint of the certified plan.
    pub plan_hash: u64,
    /// Geometry per cache container, in graph declaration order.
    pub caches: Vec<KvCacheGeometry>,
}

impl DecodeCertificate {
    /// Geometry of the named cache container, if the plan reads one.
    pub fn cache(&self, name: &str) -> Option<&KvCacheGeometry> {
        self.caches.iter().find(|c| c.name == name)
    }
}

/// Certifies that `plan` never writes a [`xform_dataflow::DataRole::Cache`] container:
/// every step's derived access paths touching a cache container must be
/// reads. The same derivation the in-bounds proof rests on backs
/// this proof, so an inexactly-derived step touching a cache convicts the
/// plan rather than passing silently.
///
/// # Errors
///
/// Returns a [`PlanLint::UnprovenAccess`] per violation: a write access
/// (or relayout) of a cache container, or a step whose paths could not be
/// derived exactly while touching a cache container.
pub fn certify_decode(
    graph: &Graph,
    plan: &ExecutionPlan,
) -> Result<DecodeCertificate, Vec<PlanLint>> {
    use xform_dataflow::DataRole;
    let cache_ids: HashMap<NodeId, &str> = graph
        .data_nodes()
        .iter()
        .filter_map(|&id| {
            let d = graph.data(id)?;
            (d.role == DataRole::Cache).then_some((id, d.name.as_str()))
        })
        .collect();
    let mut errors: Vec<PlanLint> = Vec::new();
    for (si, step) in plan.steps.iter().enumerate() {
        let sa = step_accesses(graph, step);
        for a in &sa.accesses {
            let Some(&cname) = cache_ids.get(&a.data) else {
                continue;
            };
            if a.kind != AccessKind::Read {
                errors.push(PlanLint::UnprovenAccess {
                    step: si,
                    name: step.name.clone(),
                    container: cname.to_string(),
                    reason: format!("{:?} access to a frozen cache container", a.kind),
                });
            }
            if !sa.derived {
                errors.push(PlanLint::UnprovenAccess {
                    step: si,
                    name: step.name.clone(),
                    container: cname.to_string(),
                    reason: "underived access paths in a step touching a cache container"
                        .to_string(),
                });
            }
        }
    }
    if !errors.is_empty() {
        errors.sort_by_key(PlanLint::step);
        return Err(errors);
    }
    let caches = graph
        .data_nodes()
        .iter()
        .filter_map(|&id| {
            let d = graph.data(id)?;
            if d.role != xform_dataflow::DataRole::Cache {
                return None;
            }
            let sizes = d.shape.sizes();
            let capacity = sizes.first().copied().unwrap_or(1);
            let col_words: usize = sizes.iter().skip(1).product();
            Some(KvCacheGeometry {
                name: d.name.clone(),
                capacity,
                col_words,
            })
        })
        .collect();
    Ok(DecodeCertificate {
        plan_hash: plan_fingerprint(plan),
        caches,
    })
}

/// Bounds-checked license for a session-side column append: the word range
/// of positions `[pos, pos + width)` in the named cache container, under
/// its position-major layout. `None` when the plan reads no cache of that
/// name or the range escapes the container's capacity — the caller must
/// treat `None` as "do not write".
pub fn column_span(
    cert: &DecodeCertificate,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, assign_arena};
    use crate::fusion::{apply_plan, encoder_fusion_plan};
    use crate::plan::testing::rotated;
    use crate::recipe::forward_ops;
    use xform_dataflow::{build, EncoderDims};

    fn fused_plan() -> (Graph, ExecutionPlan) {
        let eg = build::encoder(&EncoderDims::tiny());
        let mut g = eg.graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        let plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
        (g, plan)
    }

    #[test]
    fn canned_fused_plan_certifies_with_unit_stride_memory_bound_steps() {
        let (g, plan) = fused_plan();
        let cert = certify_access(&g, &plan).expect("canned plan must certify");
        assert_eq!(cert.plan_hash, plan_fingerprint(&plan));
        assert_eq!(cert.steps.len(), plan.steps.len());
        // zero errors: every path in-bounds, alias-free, exactly derived
        for p in &cert.steps {
            assert!(p.in_bounds, "step `{}` in bounds", p.name);
            assert!(p.alias_free, "step `{}` alias free", p.name);
            assert!(p.derived, "step `{}` derived", p.name);
        }
        // the attention softmax sweeps its innermost axis: unit-stride
        let sm = plan.steps.iter().position(|s| s.name == "SM").unwrap();
        assert!(cert.unit_stride(sm), "softmax class must sweep unit-stride");
        // the encoder's norm containers are embedding-major (`ibj`): the
        // lane strides, but adjacent lanes are adjacent words in every
        // swept operand, so the norm steps run in panels whose rows are
        // unit-stride — the kernel's inner loop, and what is certified
        for (si, step) in plan.steps.iter().enumerate() {
            if step.name.contains("DRLN") {
                let low = lower_step(&g, step).unwrap();
                assert_eq!(low.sweeps[0].walk(), Walk::Panel, "`{}`", step.name);
                assert!(cert.unit_stride(si), "`{}` panels", step.name);
            }
        }
        assert_eq!(cert.unit_stride_steps(), plan.steps.len());
        assert!(cert.lints.is_empty(), "{:?}", cert.lints);
    }

    /// A sweep that really falls to the strided body still warns: rotate
    /// one operand of a norm step and it shares no contiguous axis with the
    /// others — neither its lane nor the loop outside it steps by one word
    /// in every swept operand.
    #[test]
    fn a_norm_step_whose_operands_share_no_contiguous_axis_keeps_the_strided_walk() {
        let (g, mut plan) = fused_plan();
        let si = plan.steps.iter().position(|s| s.name == "DRLN").unwrap();
        plan.steps[si].inputs[0].layout = rotated(plan.steps[si].inputs[0].layout);
        plan.reflow(&g);
        let low = lower_step(&g, &plan.steps[si]).unwrap();
        assert_eq!(low.sweeps[0].walk(), Walk::Strided);
        let cert = certify_access(&g, &plan).expect("strided is a warning, not an error");
        assert!(!cert.unit_stride(si));
        let strided =
            |l: &PlanLint| matches!(l, PlanLint::StridedInnerLoop { step, .. } if *step == si);
        assert!(cert.lints.iter().any(strided), "{:?}", cert.lints);
    }

    #[test]
    fn arena_embedding_certifies_at_both_granularities() {
        let (g, plan) = fused_plan();
        let analysis = analyze(&g, &plan);
        for gran in [ArenaGranularity::Serial, ArenaGranularity::Waves] {
            let asg = assign_arena(&analysis, gran);
            let cert = certify_access_arena(&g, &plan, &asg).expect("arena embedding certifies");
            assert_eq!(cert.arena, Some(gran));
            assert!(cert.unit_stride_steps() > 0);
        }
    }

    #[test]
    fn shrunken_arena_slot_is_convicted() {
        let (g, plan) = fused_plan();
        let analysis = analyze(&g, &plan);
        let mut asg = assign_arena(&analysis, ArenaGranularity::Serial);
        // shrink the largest slot so some derived path escapes it
        let victim = asg
            .slots
            .iter_mut()
            .max_by_key(|s| s.words)
            .expect("plan has buffers");
        victim.words /= 2;
        let lints = certify_access_arena(&g, &plan, &asg).expect_err("must reject");
        assert!(lints
            .iter()
            .any(|l| matches!(l, PlanLint::UnprovenAccess { .. })));
    }

    #[test]
    fn overlapping_arena_slots_are_convicted_as_aliasing() {
        let (g, plan) = fused_plan();
        let analysis = analyze(&g, &plan);
        let mut asg = assign_arena(&analysis, ArenaGranularity::Serial);
        // force two operands of step 0 onto the same slab words
        let a = plan.steps[0].inputs[0].data;
        let b = plan.steps[0].outputs[0].data;
        let a_off = asg.slots.iter().find(|s| s.data == a).unwrap().offset;
        if let Some(slot) = asg.slots.iter_mut().find(|s| s.data == b) {
            slot.offset = a_off;
        }
        let lints = certify_access_arena(&g, &plan, &asg).expect_err("must reject");
        assert!(lints.iter().any(|l| matches!(
            l,
            PlanLint::UnprovenAccess { reason, .. } if reason.contains("race certificate")
        )));
    }

    /// A borrowed external is the caller's memory behind a shared slice:
    /// its range sits past the slab, a shifted slab bound cannot convict
    /// it, and a coloring that hands one to a step as an output is refused.
    #[test]
    fn a_write_to_a_borrowed_external_is_convicted() {
        let (g, plan) = fused_plan();
        let analysis = analyze(&g, &plan);
        let mut asg = assign_arena(&analysis, ArenaGranularity::Serial);
        let x = plan.steps[0].inputs[0].data;
        let x_slot = asg.slots.iter().find(|s| s.data == x).unwrap();
        assert!(x_slot.borrowed && x_slot.offset >= asg.slab_words);
        certify_access_arena(&g, &plan, &asg).expect("reads of borrowed externals certify");
        let out = plan.steps[0].outputs[0].data;
        let slot = asg.slots.iter_mut().find(|s| s.data == out).unwrap();
        slot.borrowed = true;
        let lints = certify_access_arena(&g, &plan, &asg).expect_err("must reject");
        assert!(lints.iter().any(|l| matches!(
            l,
            PlanLint::UnprovenAccess { step: 0, reason, .. }
                if reason.contains("Write access to a borrowed external")
        )));
    }

    #[test]
    fn strided_inner_loop_is_flagged_but_not_fatal() {
        let (g, mut plan) = fused_plan();
        // rotate the softmax input's layout so the reduce axis `k` is no
        // longer innermost: a unit-stride step becomes a flagged, strided
        // one — but certification still succeeds (a lint, not a failure)
        let si = plan.steps.iter().position(|s| s.name == "SM").unwrap();
        plan.steps[si].inputs[0].layout = rotated(plan.steps[si].inputs[0].layout);
        let cert = certify_access(&g, &plan).expect("strided is a warning, not an error");
        assert!(cert
            .lints
            .iter()
            .any(|l| matches!(l, PlanLint::StridedInnerLoop { step, name, .. } if *step == si && name == "SM")));
        assert!(!cert.unit_stride(si));
    }

    #[test]
    fn path_arithmetic() {
        let p = AccessPath {
            base: 10,
            dims: vec![(2, 12), (3, 4), (4, 1)],
        };
        assert_eq!(p.max_end(), 10 + 12 + 8 + 3 + 1);
        assert_eq!(p.inner_stride(), 1);
        let strided = AccessPath {
            base: 0,
            dims: vec![(4, 1), (3, 4)],
        };
        assert_eq!(strided.inner_stride(), 4);
        let singleton = AccessPath {
            base: 0,
            dims: vec![(5, 1), (1, 7)],
        };
        assert_eq!(singleton.inner_stride(), 1);
    }
}
