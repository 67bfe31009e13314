//! The plan certificate: one pass over one [`PlanAnalysis`] proves a
//! schedule safe to run on the arena, across threads.
//!
//! The paper's recipe rests on knowing exactly what each operator reads
//! and writes (Sec. IV's dataflow analysis); [`crate::analyze`] builds the
//! hazard DAG from each step's *declared* operands, but nothing in that
//! pass verifies the declarations against what the kernels actually
//! touch. [`certify_plan`] does, over the one derivation of what a step
//! touches ([`crate::access::step_accesses`]):
//!
//! 1. no environment name is shared by two distinct containers anywhere in
//!    the schedule ([`PlanLint::NameAlias`]);
//! 2. every step's declared operands and memlet volumes cover the words
//!    its kernel reads ([`PlanLint::UnderDeclaredFootprint`]);
//! 3. every hazard edge crosses strictly forward between waves, and no two
//!    steps sharing a wave touch overlapping hulls of one container where
//!    either writes or re-materializes ([`PlanLint::WaveHazard`]);
//! 4. every access path stays inside its buffer — and, given an arena
//!    coloring, inside its slot, every slot inside the slab and every
//!    access to a borrowed external a read — and no two operands of one
//!    step overlap with conflicting kinds ([`PlanLint::UnprovenAccess`]);
//!    a strided inner loop is a [`PlanLint::StridedInnerLoop`] warning;
//! 5. no step writes a [`DataRole::Cache`] container; the certificate
//!    records the position-major geometry of every one no relayout
//!    permutes, the license [`crate::access::column_span`] appends by;
//! 6. given an arena coloring, buffers whose live intervals overlap
//!    occupy disjoint words ([`PlanLint::ArenaOverlap`]).
//!
//! A clean pass yields a [`PlanCertificate`] keyed to the plan by
//! [`plan_fingerprint`]. [`crate::arena::CompiledArena::compile`] runs it
//! over the wave partition and the coloring it is about to execute and
//! keeps the certificate; [`certify`] and
//! [`crate::access::certify_access`] are its entries over the plan's own
//! waves, and [`certify_waves`] the injection point for an explicit
//! partition.
//!
//! Only concurrent reads are certified. In particular a relayout may not
//! share a wave with a reader of its container: the arena re-materializes
//! a container *in place*, in the one slab slot its liveness interval
//! owns (staged through the step's scratch — or gathered into it out of
//! the caller's slice, when the relayout is an external's first touch), so
//! a concurrent reader would see words of both layouts. The analyzer orders a relayout after every
//! earlier reader of its container (WAR) and before every later one (RAW),
//! which is what keeps such pairs out of
//! [`PlanAnalysis::parallel_waves`]; an injected partition that holds one
//! is refused here.
//!
//! The runtime check is the arena's: each kernel is handed exactly the
//! hull of its certified path, so a read outside it is an out-of-range
//! index, and the poison mode (`XFORM_SANITIZE`) catches a read of a dead,
//! reused buffer.

use std::collections::HashMap;

use xform_dataflow::{DataRole, Graph, NodeId};

use crate::access::{
    step_accesses, AccessKind, KvCacheGeometry, OperandAccess, StepAccessProof, StepAccesses,
};
use crate::analyze::{analyze, ArenaAssignment, DepKind, PlanAnalysis};
use crate::analyze::{PlanLint, Severity};
use crate::plan::ExecutionPlan;

/// FNV-1a content fingerprint of a schedule: operator ids, kernel names,
/// operator kinds, every operand's container/name/layout (as its
/// permutation), and every relayout insertion. Any edit to the plan — reordering, re-laying-out,
/// renaming, adding or dropping steps — changes the fingerprint, which is
/// what ties a [`PlanCertificate`] to exactly the plan it certified.
/// Allocation-free (everything is formatted straight into the hash): the
/// arena memo keys every plan by it on every [`crate::arena::execute`].
pub fn plan_fingerprint(plan: &ExecutionPlan) -> u64 {
    use std::fmt::Write;
    /// FNV-1a over whatever is formatted into it.
    struct Fnv(u64);
    impl Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    // one field, then a separator no field contains
    let mut eat = |field: std::fmt::Arguments<'_>| {
        let _ = h.write_fmt(field); // `Fnv::write_str` never fails
        let _ = h.write_str("\u{1f}");
    };
    for step in &plan.steps {
        eat(format_args!("{}", step.op));
        eat(format_args!("{}", step.name));
        eat(format_args!("{:?}", step.kind));
        for o in step.inputs.iter().chain(&step.outputs) {
            eat(format_args!("{}", o.data));
            eat(format_args!("{}", o.name));
            eat(format_args!("{}", o.layout));
        }
        for r in &step.relayouts {
            eat(format_args!("{}", r.data));
            eat(format_args!("{}", r.name));
            eat(format_args!("{}", r.from));
            eat(format_args!("{}", r.to));
        }
        eat(format_args!("\u{0}"));
    }
    h.0
}

/// Proof that a plan runs safely on the arena: produced only by a clean
/// [`certify_plan`] pass and keyed to the plan by [`plan_fingerprint`], so
/// an edited schedule must be certified again.
#[derive(Debug, Clone)]
pub struct PlanCertificate {
    /// Fingerprint of the certified plan.
    pub plan_hash: u64,
    /// The certified wave partition (step indices per wave; the
    /// concatenation is a permutation of the schedule).
    pub waves: Vec<Vec<usize>>,
    /// Whether the certificate covers an arena coloring (`false` for the
    /// logical, buffer-level certificate).
    pub arena: bool,
    /// Size of the certified slab in words (`0` without an arena).
    pub slab_words: u64,
    /// One access proof per schedule step.
    pub steps: Vec<StepAccessProof>,
    /// Warning-severity lints found along the way (strided inner loops);
    /// error-severity lints refuse the plan instead.
    pub lints: Vec<PlanLint>,
    /// Geometry per [`DataRole::Cache`] container no relayout permutes, in
    /// graph declaration order: what [`crate::access::column_span`]
    /// licenses appends by.
    pub caches: Vec<KvCacheGeometry>,
}

impl PlanCertificate {
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

    /// Geometry of the named cache container, if the plan reads one.
    pub fn cache(&self, name: &str) -> Option<&KvCacheGeometry> {
        self.caches.iter().find(|c| c.name == name)
    }
}

/// Certifies a plan for wave-parallel execution over its own
/// [`parallel_waves`](PlanAnalysis::parallel_waves) partition. See
/// [`certify_waves`].
///
/// # Errors
///
/// Returns every error-severity [`PlanLint`] found when the plan cannot
/// be certified.
pub fn certify(
    graph: &Graph,
    plan: &ExecutionPlan,
) -> std::result::Result<PlanCertificate, Vec<PlanLint>> {
    let analysis = analyze(graph, plan);
    gated(graph, plan, &analysis, &analysis.parallel_waves())
}

/// Certifies a plan against an explicit wave partition (the injection
/// point property tests use to present adversarial partitions): the
/// structural and hazard analysis of [`crate::analyze`] must report no
/// error lints, and [`certify_plan`] must pass.
///
/// # Errors
///
/// Returns the error-severity lints when any check fails.
pub fn certify_waves(
    graph: &Graph,
    plan: &ExecutionPlan,
    waves: &[Vec<usize>],
) -> std::result::Result<PlanCertificate, Vec<PlanLint>> {
    gated(graph, plan, &analyze(graph, plan), waves)
}

/// [`certify_plan`] behind the analyzer's lint gate, errors only.
fn gated(
    graph: &Graph,
    plan: &ExecutionPlan,
    analysis: &PlanAnalysis,
    waves: &[Vec<usize>],
) -> std::result::Result<PlanCertificate, Vec<PlanLint>> {
    let mut lints: Vec<PlanLint> = analysis.errors().into_iter().cloned().collect();
    match certify_plan(graph, plan, analysis, waves, None) {
        Ok(cert) if lints.is_empty() => return Ok(cert),
        Ok(_) => {}
        Err(found) => lints.extend(
            found
                .into_iter()
                .filter(|l| l.severity() == Severity::Error),
        ),
    }
    Err(sorted_unique(lints))
}

/// Lints in schedule order, each once.
fn sorted_unique(mut lints: Vec<PlanLint>) -> Vec<PlanLint> {
    lints.sort_by_key(PlanLint::step);
    let mut unique: Vec<PlanLint> = Vec::with_capacity(lints.len());
    for l in lints {
        if !unique.contains(&l) {
            unique.push(l);
        }
    }
    unique
}

/// The one certification pass (see the module docs for its checks) over
/// `analysis` of `plan`, the wave partition `waves` and, at the arena, the
/// coloring `arena` the plan will run out of. The analyzer's own lints are
/// the lint gate's business, not this pass's: the arena compiles the
/// one-step plans of the measurement source past the gate.
///
/// # Errors
///
/// Returns every error-severity lint found, sorted by step and each once,
/// plus the warnings for context.
pub fn certify_plan(
    graph: &Graph,
    plan: &ExecutionPlan,
    analysis: &PlanAnalysis,
    waves: &[Vec<usize>],
    arena: Option<&ArenaAssignment>,
) -> std::result::Result<PlanCertificate, Vec<PlanLint>> {
    let graph_name = |id: NodeId| {
        graph
            .data(id)
            .map_or_else(|| id.to_string(), |d| d.name.clone())
    };
    let words_of = |id: NodeId| graph.data(id).map_or(0, |d| d.shape.num_elements() as u64);
    let derived: Vec<StepAccesses> = plan.steps.iter().map(|s| step_accesses(graph, s)).collect();
    let mut errors: Vec<PlanLint> = Vec::new();
    let mut warnings: Vec<PlanLint> = Vec::new();

    // one environment key, one container
    let mut by_name: HashMap<&str, NodeId> = HashMap::new();
    for (si, step) in plan.steps.iter().enumerate() {
        for o in step.inputs.iter().chain(&step.outputs) {
            match by_name.get(o.name.as_str()) {
                Some(&prev) if prev != o.data => errors.push(PlanLint::NameAlias {
                    step: si,
                    name: step.name.clone(),
                    operand: o.name.clone(),
                    expected: graph_name(prev),
                    data: o.data,
                }),
                Some(_) => {}
                None => {
                    by_name.insert(o.name.as_str(), o.data);
                }
            }
        }
    }

    // what each step's kernel reads of a container is declared: a
    // relayout declares every word of its container (its gather is no part
    // of the operator's memlet), an input what the operator's memlet reads
    // of it; the carves of one container add up
    for (si, (step, sa)) in plan.steps.iter().zip(&derived).enumerate() {
        let mut read: Vec<(NodeId, u64)> = Vec::new();
        let reads = sa
            .accesses
            .iter()
            .filter(|a| a.touched() && a.kind == AccessKind::Read);
        for a in reads {
            match read.iter_mut().find(|r| r.0 == a.data) {
                Some(r) => r.1 += a.path.distinct_words(),
                None => read.push((a.data, a.path.distinct_words())),
            }
        }
        for (data, words) in read {
            let derived_words = words.min(words_of(data));
            let declared_words = if step.relayouts.iter().any(|r| r.data == data) {
                words_of(data)
            } else if step.inputs.iter().any(|o| o.data == data) {
                graph.read_words(step.op, data)
            } else {
                0
            };
            if declared_words < derived_words {
                errors.push(PlanLint::UnderDeclaredFootprint {
                    step: si,
                    name: step.name.clone(),
                    container: graph_name(data),
                    declared_words,
                    derived_words,
                });
            }
        }
    }

    // waves: hazard edges strictly forward, hulls conflict-free within
    // each wave
    let mut wave_of: HashMap<usize, usize> = HashMap::new();
    for (w, wave) in waves.iter().enumerate() {
        for &s in wave {
            wave_of.insert(s, w);
        }
    }
    for e in &analysis.deps {
        if let (Some(&wf), Some(&wt)) = (wave_of.get(&e.from), wave_of.get(&e.to)) {
            if wf >= wt {
                errors.push(PlanLint::WaveHazard {
                    wave: wt,
                    from: e.from,
                    to: e.to,
                    container: graph_name(e.data),
                    kind: e.kind,
                });
            }
        }
    }
    for (w, wave) in waves.iter().enumerate() {
        for (i, &sa) in wave.iter().enumerate() {
            for &sb in &wave[i + 1..] {
                let (first, second) = (sa.min(sb), sa.max(sb));
                let touched = |s: usize| {
                    let accesses = derived.get(s).map_or(&[][..], |d| &d.accesses);
                    accesses.iter().filter(|a| a.touched())
                };
                for a in touched(first) {
                    for b in touched(second).filter(|b| conflict(a, b)) {
                        errors.push(PlanLint::WaveHazard {
                            wave: w,
                            from: first,
                            to: second,
                            container: graph_name(a.data),
                            kind: hazard_kind(a.kind, b.kind),
                        });
                    }
                }
            }
        }
    }

    // the kernels' buffers: every path inside its buffer and slot, no
    // conflicting overlap within a step, no write to a cache
    let slot_of: HashMap<NodeId, (u64, u64, bool)> = arena
        .map(|a| {
            let slots = a.slots.iter();
            slots
                .map(|s| (s.data, (s.offset, s.words, s.borrowed)))
                .collect()
        })
        .unwrap_or_default();
    let slab_words = arena.map_or(0, |a| a.slab_words);
    let is_cache = |id: NodeId| graph.data(id).is_some_and(|d| d.role == DataRole::Cache);
    let mut proofs = Vec::with_capacity(plan.steps.len());
    for (si, (step, sa)) in plan.steps.iter().zip(&derived).enumerate() {
        let mut in_bounds = true;
        let mut unit_stride = true;
        let mut alias_free = true;
        let mut strided_seen: Vec<&str> = Vec::new();
        let unproven = |container: &str, reason: String| PlanLint::UnprovenAccess {
            step: si,
            name: step.name.clone(),
            container: container.to_string(),
            reason,
        };
        let bound: Vec<&OperandAccess> = sa.accesses.iter().filter(|a| a.bound()).collect();
        for a in &bound {
            let end = a.path.max_end();
            match graph.data(a.data).map(|d| d.shape.num_elements() as u64) {
                Some(w) if end <= w => {}
                Some(w) => {
                    in_bounds = false;
                    let reason = format!("derived path ends at word {end} of a {w}-word buffer");
                    errors.push(unproven(&a.name, reason));
                }
                None => in_bounds = false, // NotAContainer already lints
            }
            // slab embedding: inside the slot (the coloring check below
            // holds the slot inside the slab) — or, a borrowed external's,
            // only ever read
            if arena.is_some() {
                match slot_of.get(&a.data) {
                    Some(&(_, words, borrowed)) => {
                        if end > words {
                            in_bounds = false;
                            let reason = format!(
                                "derived path ends at word {end} of a {words}-word arena slot"
                            );
                            errors.push(unproven(&a.name, reason));
                        }
                        if borrowed && a.kind != AccessKind::Read {
                            in_bounds = false;
                            let reason = format!("{:?} access to a borrowed external", a.kind);
                            errors.push(unproven(&a.name, reason));
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
            // a cache is frozen state: the plan reads it (a relayout
            // permutes it and forfeits its column license), the session
            // appends to it before the plan runs
            if is_cache(a.data) {
                if a.kind == AccessKind::Write {
                    let reason = "Write access to a frozen cache container".to_string();
                    errors.push(unproven(&graph_name(a.data), reason));
                }
                if !sa.derived {
                    let reason = "underived access paths in a step touching a cache container";
                    errors.push(unproven(&graph_name(a.data), reason.to_string()));
                }
            }
        }
        // intra-step aliasing beyond shared reads: same buffer at the
        // logical level, overlapping slab ranges across buffers at the
        // arena level
        for (i, a) in bound.iter().enumerate() {
            for b in &bound[i + 1..] {
                if !kinds_conflict(a, b) {
                    continue;
                }
                let (ha, hb) = (a.path.hull(), b.path.hull());
                let overlap = if a.data == b.data {
                    ha.start < hb.end && hb.start < ha.end
                } else {
                    match (slot_of.get(&a.data), slot_of.get(&b.data)) {
                        (Some(&(ao, ..)), Some(&(bo, ..))) => {
                            ao + ha.start < bo + hb.end && bo + hb.start < ao + ha.end
                        }
                        _ => false,
                    }
                };
                if overlap {
                    alias_free = false;
                    let reason = format!(
                        "conflicting overlap with operand `{}` beyond what the race certificate permits",
                        b.name
                    );
                    errors.push(unproven(&a.name, reason));
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

    // the coloring: buffers live at once hold disjoint words, each inside
    // the slab — a borrowed external, the caller's memory, past it and live
    // all run
    let slots = arena.map_or(&[][..], |a| &a.slots);
    for (i, a) in slots.iter().enumerate() {
        let misplaced = match a.borrowed {
            true => a.offset < slab_words,
            false => a.offset + a.words > slab_words,
        };
        if misplaced {
            errors.push(PlanLint::ArenaOverlap {
                a: a.name.clone(),
                b: "<slab bound>".into(),
                a_offset: a.offset,
                b_offset: slab_words,
            });
        }
        for b in &slots[i + 1..] {
            let live_overlap = a.borrowed || b.borrowed || (a.start <= b.end && b.start <= a.end);
            let range_overlap = a.offset < b.offset + b.words && b.offset < a.offset + a.words;
            if live_overlap && range_overlap {
                errors.push(PlanLint::ArenaOverlap {
                    a: a.name.clone(),
                    b: b.name.clone(),
                    a_offset: a.offset,
                    b_offset: b.offset,
                });
            }
        }
    }

    if !errors.is_empty() {
        errors.extend(warnings);
        return Err(sorted_unique(errors));
    }
    let permuted =
        |id: &NodeId| (plan.steps.iter()).any(|s| s.relayouts.iter().any(|r| r.data == *id));
    let data = graph.data_nodes();
    let caches = (data.iter().filter(|id| !permuted(id)))
        .filter_map(|&id| graph.data(id).filter(|d| d.role == DataRole::Cache))
        .map(|d| {
            let sizes = d.shape.sizes();
            KvCacheGeometry {
                name: d.name.clone(),
                capacity: sizes.first().copied().unwrap_or(1),
                col_words: sizes.iter().skip(1).product(),
            }
        });
    Ok(PlanCertificate {
        plan_hash: plan_fingerprint(plan),
        waves: waves.to_vec(),
        arena: arena.is_some(),
        slab_words,
        steps: proofs,
        lints: warnings,
        caches: caches.collect(),
    })
}

/// Whether two steps' accesses sharing a wave would race: overlapping
/// hulls of one container where either side value-writes or
/// re-materializes (a re-materialization permutes the container's one
/// slab slot, so it races with a concurrent read as a value-write would).
fn conflict(a: &OperandAccess, b: &OperandAccess) -> bool {
    let (ha, hb) = (a.path.hull(), b.path.hull());
    let both_read = (a.kind, b.kind) == (AccessKind::Read, AccessKind::Read);
    a.data == b.data && ha.start < hb.end && hb.start < ha.end && !both_read
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

/// The hazard class of a conflicting pair, with `a` from the
/// schedule-earlier step.
fn hazard_kind(a: AccessKind, b: AccessKind) -> DepKind {
    use AccessKind::*;
    match (a, b) {
        (Write, Write) | (Materialize, Materialize) => DepKind::Waw,
        (Write, _) | (Materialize, _) => DepKind::Raw,
        (Read, _) => DepKind::War,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::assign_arena;
    use crate::fusion::{apply_plan, encoder_fusion_plan};
    use crate::plan::testing::{reversed, rotated};
    use crate::recipe::forward_ops;
    use xform_dataflow::{build, EncoderDims};
    use xform_tensor::lanes::Walk;

    fn fused_plan() -> (Graph, ExecutionPlan) {
        let eg = build::encoder(&EncoderDims::tiny());
        let mut g = eg.graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        let plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
        (g, plan)
    }

    fn unfused_plan() -> (Graph, ExecutionPlan) {
        let eg = build::encoder(&EncoderDims::tiny());
        let plan = ExecutionPlan::natural(&eg.graph, &forward_ops(&eg.graph, eg.dy)).unwrap();
        (eg.graph, plan)
    }

    #[test]
    fn fingerprint_is_stable_and_tamper_sensitive() {
        let (_, plan) = unfused_plan();
        let h = plan_fingerprint(&plan);
        assert_eq!(h, plan_fingerprint(&plan.clone()));
        let mut tampered = plan.clone();
        tampered.steps[0].outputs[0].layout = reversed(tampered.steps[0].outputs[0].layout);
        assert_ne!(h, plan_fingerprint(&tampered));
        let mut shorter = plan.clone();
        shorter.steps.pop();
        assert_ne!(h, plan_fingerprint(&shorter));
    }

    #[test]
    fn canned_plans_certify() {
        for (g, plan) in [unfused_plan(), fused_plan()] {
            let cert = certify(&g, &plan).expect("canned plan must certify");
            assert_eq!(cert.plan_hash, plan_fingerprint(&plan));
            let total: usize = cert.waves.iter().map(Vec::len).sum();
            assert_eq!(total, plan.steps.len());
        }
    }

    /// Every canned step in one wave races many times over; each race is
    /// reported once.
    #[test]
    fn one_wave_of_every_step_reports_each_race_once() {
        for (g, plan) in [unfused_plan(), fused_plan()] {
            let all = vec![(0..plan.steps.len()).collect::<Vec<_>>()];
            let lints = certify_waves(&g, &plan, &all).expect_err("every step in one wave races");
            for (i, l) in lints.iter().enumerate() {
                assert!(!lints[i + 1..].contains(l), "reported twice: {l}");
            }
        }
    }

    #[test]
    fn canned_fused_plan_certifies_with_unit_stride_memory_bound_steps() {
        let (g, plan) = fused_plan();
        let cert = crate::access::certify_access(&g, &plan).expect("canned plan must certify");
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
                let low = crate::lower::lower_step(&g, step).unwrap();
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
        let low = crate::lower::lower_step(&g, &plan.steps[si]).unwrap();
        assert_eq!(low.sweeps[0].walk(), Walk::Strided);
        let cert = crate::access::certify_access(&g, &plan).expect("strided is a warning");
        assert!(!cert.unit_stride(si));
        let strided =
            |l: &PlanLint| matches!(l, PlanLint::StridedInnerLoop { step, .. } if *step == si);
        assert!(cert.lints.iter().any(strided), "{:?}", cert.lints);
    }

    /// The pass over the arena coloring: it certifies, with its slab
    /// recorded; a shrunken slot, two operands of one step on the same
    /// words, and a write to a borrowed external are refused.
    #[test]
    fn the_arena_embedding_certifies_and_tampered_colorings_do_not() {
        let (g, plan) = fused_plan();
        let analysis = analyze(&g, &plan);
        let waves = analysis.parallel_waves();
        let pass = |asg: &ArenaAssignment| certify_plan(&g, &plan, &analysis, &waves, Some(asg));
        let sound = assign_arena(&analysis);
        let cert = pass(&sound).expect("arena embedding certifies");
        assert_eq!((cert.arena, cert.slab_words), (true, sound.slab_words));
        assert!(cert.unit_stride_steps() > 0);
        let unproven = |lints: &[PlanLint], what: &str| {
            lints.iter().any(
                |l| matches!(l, PlanLint::UnprovenAccess { reason, .. } if reason.contains(what)),
            )
        };

        let mut shrunk = sound.clone();
        shrunk
            .slots
            .iter_mut()
            .max_by_key(|s| s.words)
            .unwrap()
            .words /= 2;
        assert!(unproven(
            &pass(&shrunk).expect_err("must reject"),
            "arena slot"
        ));

        // two operands of step 0 on the same slab words
        let (a, b) = (plan.steps[0].inputs[0].data, plan.steps[0].outputs[0].data);
        let mut overlapping = sound.clone();
        let a_off = overlapping
            .slots
            .iter()
            .find(|s| s.data == a)
            .unwrap()
            .offset;
        overlapping
            .slots
            .iter_mut()
            .find(|s| s.data == b)
            .unwrap()
            .offset = a_off;
        assert!(unproven(
            &pass(&overlapping).expect_err("must reject"),
            "race certificate"
        ));

        // a borrowed external lies past the slab and is only ever read
        let x_slot = sound.slots.iter().find(|s| s.data == a).unwrap();
        assert!(x_slot.borrowed && x_slot.offset >= sound.slab_words);
        let mut written = sound.clone();
        written
            .slots
            .iter_mut()
            .find(|s| s.data == b)
            .unwrap()
            .borrowed = true;
        let lints = pass(&written).expect_err("must reject");
        assert!(unproven(&lints, "Write access to a borrowed external"));
    }

    #[test]
    fn strided_inner_loop_is_flagged_but_not_fatal() {
        let (g, mut plan) = fused_plan();
        // rotate the softmax input's layout so the reduce axis `k` is no
        // longer innermost: a unit-stride step becomes a flagged, strided
        // one — but certification still succeeds (a lint, not a failure)
        let si = plan.steps.iter().position(|s| s.name == "SM").unwrap();
        plan.steps[si].inputs[0].layout = rotated(plan.steps[si].inputs[0].layout);
        let cert = crate::access::certify_access(&g, &plan).expect("strided is a warning");
        assert!(cert
            .lints
            .iter()
            .any(|l| matches!(l, PlanLint::StridedInnerLoop { step, name, .. } if *step == si && name == "SM")));
        assert!(!cert.unit_stride(si));
    }

    /// The unfused plan's `Input bias K` reads the middle third of the
    /// stacked projection; fused AIB reads all three thirds, each once.
    #[test]
    fn the_stacked_carves_are_thirds_of_the_projection() {
        let (g, plan) = unfused_plan();
        let step = plan
            .steps
            .iter()
            .find(|s| s.name == "Input bias K")
            .unwrap();
        let sa = step_accesses(&g, step);
        let stacked = sa.accesses.iter().find(|a| a.name == "qkv_raw").unwrap();
        let total = g.data(stacked.data).unwrap().shape.num_elements() as u64;
        assert_eq!(stacked.path.hull(), total / 3..2 * total / 3);
        let (g, plan) = fused_plan();
        let aib = plan.steps.iter().find(|s| s.name == "AIB").unwrap();
        let hulls: Vec<_> = (step_accesses(&g, aib).accesses.iter())
            .filter(|a| a.name == "qkv_raw")
            .map(|a| a.path.hull())
            .collect();
        assert_eq!(
            hulls,
            [0..total / 3, total / 3..2 * total / 3, 2 * total / 3..total]
        );
    }

    #[test]
    fn path_arithmetic() {
        use crate::access::AccessPath;
        let p = AccessPath {
            base: 10,
            dims: vec![(2, 12), (3, 4), (4, 1)],
        };
        assert_eq!(p.max_end(), 10 + 12 + 8 + 3 + 1);
        assert_eq!(p.hull(), 10..34);
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
