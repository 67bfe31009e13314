//! Footprint sanitizer and race certifier: the proof obligations behind
//! wave-parallel plan execution.
//!
//! The paper's recipe rests on knowing exactly what each operator reads
//! and writes (Sec. IV's dataflow analysis); [`crate::analyze`] builds the
//! hazard DAG from each step's *declared* operands, but nothing in that
//! pass verifies the declarations against what the `xform-tensor` kernels
//! actually touch. Dispatching [`PlanAnalysis::parallel_waves`] across
//! threads would turn any under-declared alias into a silent data race.
//! This module closes that gap in two layers:
//!
//! * **Static certifier** — [`certify`] reads each kernel's access
//!   footprint ([`step_footprint`]) off the step lowering's operand roles
//!   (DESIGN.md, "Step lowering"), holds the one sub-container role — the
//!   stacked-Q/K/V carve — against the kernel's iteration space
//!   ([`crate::itspace::op_iter_space`]),
//!   cross-checks it against the step's declared operands and memlet
//!   volumes, and validates the wave partition pairwise for conflicting
//!   in-wave access. Under-declaration, aliased buffer names, and
//!   wave-internal hazards become error-severity
//!   [`PlanLint`]s; a clean pass yields a [`RaceCertificate`] keyed to
//!   the plan's fingerprint.
//! * **Dynamic shadow sanitizer** — [`execute_plan_sanitized`] runs the
//!   schedule serially with the same kernels and RNG draws (bitwise
//!   identical results) but executes every step against an instrumented
//!   environment: containers are poisoned with NaN outside the derived
//!   read footprint, partial reads observed at runtime
//!   ([`xform_tensor::trace`]) are checked against the derivation, operand
//!   names are checked against the graph, kernel panics from missing
//!   operands are converted into errors, and each wave's observed
//!   footprints are checked for cross-thread conflicts — a
//!   ThreadSanitizer for plans. `XFORM_SANITIZE=1` routes
//!   [`crate::plan::execute_plan`] — the test oracle; production runs on
//!   the arena, whose own checking mode is the NaN poison — through this
//!   path.
//!
//! The consumer of the wave proof is the arena
//! ([`crate::arena::CompiledArena`]): compiling at
//! [`ArenaGranularity::Waves`](crate::analyze::ArenaGranularity::Waves)
//! runs [`certify_waves`] over the partition the arena is about to
//! dispatch across its worker pool, and refuses the plan otherwise.
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
//! [`PlanAnalysis::parallel_waves`]: crate::analyze::PlanAnalysis::parallel_waves

use std::collections::HashMap;

use rand::rngs::StdRng;

use xform_dataflow::{Graph, NodeId};
use xform_tensor::{trace, Result, Tensor, TensorError};

use crate::analyze::{analyze, DepKind, PlanAnalysis, PlanLint};
use crate::itspace::op_iter_space;
use crate::lower::{lower_step, Role, Slot};
use crate::plan::{execute_step, ExecOptions, ExecState, ExecutionPlan, PlanStep};

/// A contiguous interval `[lo, hi)` of a container's logical element
/// space (row-major over the container's natural axis order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First element (inclusive).
    pub lo: u64,
    /// One past the last element (exclusive).
    pub hi: u64,
}

impl Span {
    /// Interval length in words.
    pub fn words(&self) -> u64 {
        self.hi.saturating_sub(self.lo)
    }

    /// `true` when the intervals share at least one element.
    pub fn overlaps(&self, other: &Span) -> bool {
        self.lo < other.hi && other.lo < self.hi
    }
}

/// How a step touches a span of a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// The step consumes the span's values.
    Read,
    /// The step defines the span's values.
    Write,
    /// The step re-materializes the span's values in another physical
    /// order without changing them (an explicit relayout) — in place on
    /// the arena, so a race against any concurrent access.
    Materialize,
}

/// One derived element-level access of a scheduled step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// The container.
    pub data: NodeId,
    /// Its graph name.
    pub name: String,
    /// Access class.
    pub kind: AccessKind,
    /// The logical element interval touched.
    pub span: Span,
}

/// Derives the access footprint of one scheduled step from the step
/// lowering (`core::lower`: the graph's shapes and edges, the operator kind
/// and the dispatch rules) — deliberately not from the step's declared
/// operand list, so the certifier can cross-check declarations against
/// this oracle.
///
/// Every role but one sweeps its whole container; the one sub-container
/// role is the carve of a stacked Q/K/V projection, cross-checked against
/// the kernel's iteration space. Spans of one container that touch are
/// merged, so fused AIB's three carves read the stacked tensor once. A
/// step the lowering does not model touches every edge whole. Relayouts
/// contribute a value read plus a materialization write over the full
/// container. Containers missing from the graph are skipped (the
/// structural lints of [`crate::analyze`] already flag them).
pub fn step_footprint(graph: &Graph, step: &PlanStep) -> Vec<Access> {
    let access = |data: NodeId, kind: AccessKind, carve: Option<Span>| -> Option<Access> {
        let d = graph.data(data)?;
        let whole = Span {
            lo: 0,
            hi: d.shape.num_elements() as u64,
        };
        Some(Access {
            data,
            name: d.name.clone(),
            kind,
            span: carve.unwrap_or(whole),
        })
    };
    let mut acc: Vec<Access> = step
        .relayouts
        .iter()
        .flat_map(|r| [AccessKind::Read, AccessKind::Materialize].map(|k| access(r.data, k, None)))
        .flatten()
        .collect();
    if graph.op(step.op).is_none() {
        return acc;
    }
    let in_ids = graph.inputs_of(step.op);
    let out_ids = graph.outputs_of(step.op);
    // the kernel's iteration space, in words: a carve must be exactly one
    // sweep of it, or the conservative whole span stands
    let space_words = || {
        op_iter_space(graph, step.op).ok().map(|s| {
            let dims = s.independent.iter().chain(&s.reduction);
            dims.map(|&(_, n)| n as u64).product::<u64>()
        })
    };
    let kernel = acc.len();
    let mut touch = |data: NodeId, kind: AccessKind, carve: Option<Span>| {
        let Some(a) = access(data, kind, carve) else {
            return;
        };
        // carves of one container that touch are one access
        let adjoining = acc[kernel..].iter_mut().find(|p| {
            carve.is_some() && (p.data, p.kind) == (data, kind) && p.span.hi == a.span.lo
        });
        match adjoining {
            Some(p) => p.span.hi = a.span.hi,
            None => acc.push(a),
        }
    };
    match lower_step(graph, step) {
        Some(low) => {
            for (slot, role, _) in &low.operands {
                let (data, kind) = match *slot {
                    Slot::In(k) => (in_ids[k], AccessKind::Read),
                    Slot::Out(k) => (out_ids[k], AccessKind::Write),
                };
                let carve = match *role {
                    Role::Carve { base, words } => Some(Span {
                        lo: base as u64,
                        hi: (base + words) as u64,
                    }),
                    _ => None,
                };
                let carve = carve.filter(|c| space_words().is_none_or(|w| w == c.words()));
                touch(data, kind, carve);
            }
        }
        None => {
            in_ids
                .iter()
                .for_each(|&id| touch(id, AccessKind::Read, None));
            out_ids
                .iter()
                .for_each(|&id| touch(id, AccessKind::Write, None));
        }
    }
    acc
}

/// FNV-1a content fingerprint of a schedule: operator ids, kernel names,
/// operator kinds, every operand's container/name/layout (as its
/// permutation), and every relayout insertion. Any edit to the plan — reordering, re-laying-out,
/// renaming, adding or dropping steps — changes the fingerprint, which is
/// what ties a [`RaceCertificate`] to exactly the plan it certified.
/// Allocation-free (everything is formatted straight into the hash): the
/// arena memo keys every plan override by it on every forward.
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

/// Proof that a plan's wave partition is free of data races: produced only
/// by a clean [`certify`]/[`certify_waves`] pass — the gate
/// [`crate::arena::CompiledArena::compile`] holds a plan to before its
/// waves reach the worker pool — and keyed to the plan by
/// [`plan_fingerprint`] so it cannot be replayed against an edited
/// schedule.
#[derive(Debug, Clone)]
pub struct RaceCertificate {
    /// Fingerprint of the certified plan.
    pub plan_hash: u64,
    /// The certified wave partition (step indices per wave, concatenation
    /// is a permutation of the schedule).
    pub waves: Vec<Vec<usize>>,
}

/// Proof that an arena coloring respects buffer liveness: produced only by
/// a clean [`certify_arena`] pass, consumed by the arena interpreter
/// ([`crate::arena::CompiledArena`]), and keyed to the plan by
/// [`plan_fingerprint`] so a recolored or edited schedule must be
/// re-certified. Two logical buffers may share physical slab words only
/// when their live intervals (at the certificate's granularity) are
/// disjoint.
#[derive(Debug, Clone)]
pub struct ArenaCertificate {
    /// Fingerprint of the certified plan.
    pub plan_hash: u64,
    /// The execution order the coloring is valid for.
    pub granularity: crate::analyze::ArenaGranularity,
    /// Size of the certified slab in words.
    pub slab_words: u64,
}

/// Certifies an arena assignment against the plan it was colored for: the
/// aliasing-aware mode of the certifier. Checks, both mandatory:
///
/// 1. every pair of buffers whose live intervals overlap occupies disjoint
///    word ranges ([`PlanLint::ArenaOverlap`] otherwise — two
///    simultaneously-live tensors sharing memory would corrupt data); a
///    borrowed external is the caller's memory, live as long as the run;
/// 2. every slab-owned buffer lies inside the slab bounds, and every
///    borrowed external's range past them.
///
/// The dynamic complement is the arena interpreter's shadow mode (see
/// [`crate::arena::CompiledArena`]): with sanitizing enabled it poisons
/// the slab with NaN, re-poisons each buffer's words the moment its
/// certified live interval ends, and verifies every step's outputs are
/// finite — so any read of a dead (reused) buffer is caught at runtime.
///
/// # Errors
///
/// Returns every [`PlanLint::ArenaOverlap`] found when the coloring
/// cannot be certified.
pub fn certify_arena(
    plan: &ExecutionPlan,
    assignment: &crate::analyze::ArenaAssignment,
) -> std::result::Result<ArenaCertificate, Vec<PlanLint>> {
    let mut lints = Vec::new();
    let slots = &assignment.slots;
    for (i, a) in slots.iter().enumerate() {
        let misplaced = match a.borrowed {
            true => a.offset < assignment.slab_words,
            false => a.offset + a.words > assignment.slab_words,
        };
        if misplaced {
            lints.push(PlanLint::ArenaOverlap {
                a: a.name.clone(),
                b: "<slab bound>".into(),
                a_offset: a.offset,
                b_offset: assignment.slab_words,
            });
        }
        for b in &slots[i + 1..] {
            let live_overlap = a.borrowed || b.borrowed || (a.start <= b.end && b.start <= a.end);
            let range_overlap = a.offset < b.offset + b.words && b.offset < a.offset + a.words;
            if live_overlap && range_overlap {
                lints.push(PlanLint::ArenaOverlap {
                    a: a.name.clone(),
                    b: b.name.clone(),
                    a_offset: a.offset,
                    b_offset: b.offset,
                });
            }
        }
    }
    if lints.is_empty() {
        Ok(ArenaCertificate {
            plan_hash: plan_fingerprint(plan),
            granularity: assignment.granularity,
            slab_words: assignment.slab_words,
        })
    } else {
        Err(lints)
    }
}

/// Certifies a plan for wave-parallel execution over its own
/// [`parallel_waves`](crate::analyze::PlanAnalysis::parallel_waves)
/// partition. See [`certify_waves`].
///
/// # Errors
///
/// Returns every error-severity [`PlanLint`] found when the plan cannot
/// be certified.
pub fn certify(
    graph: &Graph,
    plan: &ExecutionPlan,
) -> std::result::Result<RaceCertificate, Vec<PlanLint>> {
    let analysis = analyze(graph, plan);
    certify_analyzed(graph, plan, &analysis, &analysis.parallel_waves())
}

/// Certifies a plan against an explicit wave partition (the injection
/// point property tests use to present adversarial partitions). Four
/// checks, all mandatory:
///
/// 1. the structural/hazard analysis of [`crate::analyze`] reports no
///    error lints (this includes per-operand name-alias detection);
/// 2. no environment name is shared by two distinct containers anywhere
///    in the schedule ([`PlanLint::NameAlias`]);
/// 3. every step's declared operands and memlet volumes cover the
///    footprint [`step_footprint`] derives
///    ([`PlanLint::UnderDeclaredFootprint`]);
/// 4. every hazard edge crosses strictly forward between waves and no two
///    steps sharing a wave have conflicting footprints
///    ([`PlanLint::WaveHazard`]) — conflicting means overlapping spans
///    where either side value-writes or re-materializes.
///
/// # Errors
///
/// Returns the error-severity lints when any check fails.
pub fn certify_waves(
    graph: &Graph,
    plan: &ExecutionPlan,
    waves: &[Vec<usize>],
) -> std::result::Result<RaceCertificate, Vec<PlanLint>> {
    certify_analyzed(graph, plan, &analyze(graph, plan), waves)
}

/// [`certify_waves`] over an analysis of `plan` the caller already holds
/// (the arena compiler is handed one; [`certify`] has just made one).
pub(crate) fn certify_analyzed(
    graph: &Graph,
    plan: &ExecutionPlan,
    analysis: &PlanAnalysis,
    waves: &[Vec<usize>],
) -> std::result::Result<RaceCertificate, Vec<PlanLint>> {
    let mut lints: Vec<PlanLint> = analysis.errors().into_iter().cloned().collect();

    // global name-alias scan: one environment key, one container
    let mut by_name: HashMap<&str, NodeId> = HashMap::new();
    for (si, step) in plan.steps.iter().enumerate() {
        for o in step.inputs.iter().chain(&step.outputs) {
            match by_name.get(o.name.as_str()) {
                Some(&prev) if prev != o.data => lints.push(PlanLint::NameAlias {
                    step: si,
                    name: step.name.clone(),
                    operand: o.name.clone(),
                    expected: graph
                        .data(prev)
                        .map(|d| d.name.clone())
                        .unwrap_or_else(|| prev.to_string()),
                    data: o.data,
                }),
                Some(_) => {}
                None => {
                    by_name.insert(o.name.as_str(), o.data);
                }
            }
        }
    }

    // footprint derivation + declaration cross-check
    let footprints: Vec<Vec<Access>> = plan
        .steps
        .iter()
        .map(|s| step_footprint(graph, s))
        .collect();
    for (si, step) in plan.steps.iter().enumerate() {
        for a in &footprints[si] {
            if a.kind != AccessKind::Read {
                continue;
            }
            // a relayout entry declares every word of its container (its
            // gather is no part of the operator's memlet); an input
            // operand, what the operator's memlet reads of it
            let declared_words = if step.relayouts.iter().any(|r| r.data == a.data) {
                graph
                    .data(a.data)
                    .map_or(0, |d| d.shape.num_elements() as u64)
            } else if step.inputs.iter().any(|o| o.data == a.data) {
                graph.read_words(step.op, a.data)
            } else {
                0
            };
            if declared_words < a.span.words() {
                lints.push(PlanLint::UnderDeclaredFootprint {
                    step: si,
                    name: step.name.clone(),
                    container: a.name.clone(),
                    declared_words,
                    derived_words: a.span.words(),
                });
            }
        }
    }

    // wave validation: hazard edges strictly forward, footprints
    // conflict-free within each wave
    let mut wave_of: HashMap<usize, usize> = HashMap::new();
    for (w, wave) in waves.iter().enumerate() {
        for &s in wave {
            wave_of.insert(s, w);
        }
    }
    for e in &analysis.deps {
        if let (Some(&wf), Some(&wt)) = (wave_of.get(&e.from), wave_of.get(&e.to)) {
            if wf >= wt {
                lints.push(PlanLint::WaveHazard {
                    wave: wt,
                    from: e.from,
                    to: e.to,
                    container: graph
                        .data(e.data)
                        .map(|d| d.name.clone())
                        .unwrap_or_else(|| e.data.to_string()),
                    kind: e.kind,
                });
            }
        }
    }
    for (w, wave) in waves.iter().enumerate() {
        for (i, &sa) in wave.iter().enumerate() {
            for &sb in &wave[i + 1..] {
                let (first, second) = if sa <= sb { (sa, sb) } else { (sb, sa) };
                for (a, b) in conflicts(&footprints[first], &footprints[second]) {
                    lints.push(PlanLint::WaveHazard {
                        wave: w,
                        from: first,
                        to: second,
                        container: a.name.clone(),
                        kind: hazard_kind(a.kind, b.kind),
                    });
                }
            }
        }
    }

    if lints.is_empty() {
        Ok(RaceCertificate {
            plan_hash: plan_fingerprint(plan),
            waves: waves.to_vec(),
        })
    } else {
        lints.sort_by_key(|l| l.step());
        lints.dedup();
        Err(lints)
    }
}

/// Overlapping access pairs between two steps' footprints that would race
/// under concurrent dispatch (first access from `a`, second from `b`).
fn conflicts<'a>(a: &'a [Access], b: &'a [Access]) -> Vec<(&'a Access, &'a Access)> {
    let mut out = Vec::new();
    for x in a {
        for y in b {
            if x.data == y.data && x.span.overlaps(&y.span) && !compatible(x.kind, y.kind) {
                out.push((x, y));
            }
        }
    }
    out
}

/// Whether two overlapping accesses may run concurrently: only reads
/// commute. A re-materialization permutes the container's one slab slot,
/// so it races with a concurrent read as a value-write would.
fn compatible(a: AccessKind, b: AccessKind) -> bool {
    matches!((a, b), (AccessKind::Read, AccessKind::Read))
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

/// Whether a `XFORM_SANITIZE` value enables the sanitizer: unset, empty
/// (after trimming), `0`, `false`, `off`, and `no` (case-insensitive) all
/// disable; anything else enables. The pure half of
/// [`sanitize_enabled`], separated so it can be unit-tested without
/// mutating the process environment.
pub fn sanitize_value_enables(value: Option<&str>) -> bool {
    let Some(v) = value else { return false };
    let v = v.trim();
    !(v.is_empty()
        || v == "0"
        || v.eq_ignore_ascii_case("false")
        || v.eq_ignore_ascii_case("off")
        || v.eq_ignore_ascii_case("no"))
}

/// Reads env var `name` under the unified enable semantics every
/// `XFORM_*` switch shares (`XFORM_SANITIZE`, `XFORM_CACHE_GEOM`):
/// unset, empty, `0`, `false`, `off`, and `no` all mean *disabled* and
/// return `None`; any other value enables the feature and the raw value
/// is returned for feature-specific parsing.
pub fn env_setting(name: &str) -> Option<String> {
    let raw = std::env::var(name).ok();
    if sanitize_value_enables(raw.as_deref()) {
        raw
    } else {
        None
    }
}

/// `true` when `XFORM_SANITIZE` is set to anything but
/// empty/`0`/`false`/`off`/`no` — [`crate::plan::execute_plan`] then
/// routes through [`execute_plan_sanitized`] (see
/// [`sanitize_value_enables`] for the exact parse).
pub fn sanitize_enabled() -> bool {
    env_setting("XFORM_SANITIZE").is_some()
}

/// Clone of `t` with every element outside the union of `spans` (logical
/// element intervals) replaced by NaN: reads escaping the derived
/// footprint surface as NaN in some downstream output.
fn poisoned_outside(t: &Tensor, spans: &[Span]) -> Tensor {
    let mut out = t.clone();
    let mut idx = vec![0usize; t.shape().rank()];
    let mut flat: u64 = 0;
    loop {
        if !spans.iter().any(|s| flat >= s.lo && flat < s.hi) {
            let off = out.offset(&idx);
            out.data_mut()[off] = f32::NAN;
        }
        flat += 1;
        if !out.advance(&mut idx) {
            break;
        }
    }
    out
}

/// Runs `f` with the panic hook silenced, converting a panic into a
/// sanitizer error. Kernels index their declared operand lists directly,
/// so an under-declared operand surfaces as an out-of-bounds panic inside
/// the step — the shadow interpreter reports it instead of crashing.
fn shadow_catch<T>(name: &str, f: impl FnOnce() -> Result<T>) -> Result<T> {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    std::panic::set_hook(hook);
    match caught {
        Ok(r) => r,
        Err(_) => Err(TensorError::Unsupported(format!(
            "sanitizer: step `{name}` panicked — its declared operands do not cover what the kernel touches"
        ))),
    }
}

/// The shadow-access sanitizer: executes the schedule serially with the
/// same kernels and the same generator as [`crate::plan::execute_plan`]
/// (results are bitwise identical), but validates every step's actual
/// behaviour against its derived footprint:
///
/// * operand names are checked against the graph per step (dynamic alias
///   detection, even when the static gate was bypassed);
/// * each step runs against a private environment holding only its
///   declared operands, NaN-poisoned outside the derived read footprint —
///   a NaN in any output convicts the step of reading beyond its
///   declaration, and a missing-operand panic is caught and reported;
/// * partial reads the kernels observe at runtime
///   ([`xform_tensor::trace`]) must fall inside the derived read spans;
/// * the observed footprints of every wave (`waves`, defaulting to the
///   plan's own hazard-DAG antichains) are checked pairwise for
///   conflicting access, exactly as a concurrent dispatch would interleave
///   them.
///
/// This path deliberately skips the static lint gate so tests can bypass
/// the certifier and prove the dynamic net catches the same injections.
///
/// # Errors
///
/// Returns an error on the first footprint violation, alias, in-wave
/// conflict, or kernel failure.
pub fn execute_plan_sanitized(
    graph: &Graph,
    plan: &ExecutionPlan,
    state: &mut ExecState,
    opts: &ExecOptions,
    rng: &mut StdRng,
    waves: Option<&[Vec<usize>]>,
) -> Result<()> {
    let own_waves;
    let waves: &[Vec<usize>] = match waves {
        Some(w) => w,
        None => {
            own_waves = analyze(graph, plan).parallel_waves();
            &own_waves
        }
    };

    let mut footprints: Vec<Vec<Access>> = Vec::with_capacity(plan.steps.len());
    for (si, step) in plan.steps.iter().enumerate() {
        let foot = step_footprint(graph, step);

        // dynamic alias detection: every declared operand name must be the
        // graph name of the container it claims to be
        for o in step.inputs.iter().chain(&step.outputs) {
            if let Some(d) = graph.data(o.data) {
                if d.name != o.name {
                    return Err(TensorError::Unsupported(format!(
                        "sanitizer: step {si} (`{}`) names operand `{}` but {} is `{}` — aliased buffers",
                        step.name, o.name, o.data, d.name
                    )));
                }
            }
        }

        // dynamic cross-check of the access certifier's symbolic paths:
        // every derived path must land inside the *live* buffer bound to
        // the operand name, not just the declared container's shape —
        // catching certificates that went stale against the environment
        let derived = crate::access::step_accesses(graph, step);
        for a in &derived.accesses {
            if let Some(t) = state.env.get(&a.name) {
                let end = a.path.max_end();
                if end > t.len() as u64 {
                    return Err(TensorError::Unsupported(format!(
                        "sanitizer: step {si} (`{}`): certified access path of `{}` ends at word {end} but the live buffer holds {} words",
                        step.name, a.name, t.len()
                    )));
                }
            }
        }

        // private environment: declared operands only, poisoned outside
        // the derived read footprint
        let mut local = ExecState::default();
        let mut poison_live = false;
        for name in step
            .inputs
            .iter()
            .map(|o| &o.name)
            .chain(step.relayouts.iter().map(|r| &r.name))
        {
            if local.env.contains_key(name) {
                continue;
            }
            let Some(real) = state.env.get(name) else {
                return Err(TensorError::Unsupported(format!(
                    "sanitizer: step {si} (`{}`) consumes `{name}` before anything produces it",
                    step.name
                )));
            };
            let spans: Vec<Span> = foot
                .iter()
                .filter(|a| a.kind == AccessKind::Read && &a.name == name)
                .map(|a| a.span)
                .collect();
            let full = real.len() as u64;
            let covered = spans.iter().any(|s| s.lo == 0 && s.hi >= full);
            poison_live |= real.data().iter().any(|v| v.is_nan());
            local.env.insert(
                name.clone(),
                if covered {
                    real.clone()
                } else {
                    poisoned_outside(real, &spans)
                },
            );
        }

        // single execution — same kernels, same RNG stream as the
        // unsanitized interpreter — with runtime partial-read tracing
        trace::start();
        let ran = shadow_catch(&step.name, || {
            execute_step(graph, step, &mut local, opts, rng)
        });
        let observed = trace::stop();
        ran?;

        // observed partial reads must fall inside the derived spans
        for ob in &observed {
            let inside = foot.iter().any(|a| {
                a.kind == AccessKind::Read
                    && graph.data(a.data).map(|d| d.shape.num_elements() as u64) == Some(ob.of)
                    && ob.lo >= a.span.lo
                    && ob.hi <= a.span.hi
            });
            if !inside {
                return Err(TensorError::Unsupported(format!(
                    "sanitizer: step {si} (`{}`) read elements [{}, {}) outside its derived footprint",
                    step.name, ob.lo, ob.hi
                )));
            }
        }

        // NaN in an output with NaN-free declared inputs ⇒ the kernel
        // consumed poisoned (undeclared) elements
        if !poison_live {
            for o in &step.outputs {
                if let Some(t) = local.env.get(&o.name) {
                    if t.data().iter().any(|v| v.is_nan()) {
                        return Err(TensorError::Unsupported(format!(
                            "sanitizer: step {si} (`{}`) produced NaN in `{}` — it read outside its declared footprint",
                            step.name, o.name
                        )));
                    }
                }
            }
        }

        // commit: re-materialized inputs and outputs back to the real state
        for r in &step.relayouts {
            if let Some(t) = local.env.remove(&r.name) {
                state.env.insert(r.name.clone(), t);
            }
        }
        for o in &step.outputs {
            if let Some(t) = local.env.remove(&o.name) {
                state.env.insert(o.name.clone(), t);
            }
        }
        for (k, v) in local.stats.drain() {
            state.stats.insert(k, v);
        }
        footprints.push(foot);
    }

    // per-wave conflict check over the footprints each step actually ran
    // with — what a concurrent dispatch of these waves would interleave
    for (w, wave) in waves.iter().enumerate() {
        for (i, &sa) in wave.iter().enumerate() {
            for &sb in &wave[i + 1..] {
                let (first, second) = if sa <= sb { (sa, sb) } else { (sb, sa) };
                let (Some(fa), Some(fb)) = (footprints.get(first), footprints.get(second)) else {
                    continue;
                };
                if let Some((a, _)) = conflicts(fa, fb).first() {
                    return Err(TensorError::Unsupported(format!(
                        "sanitizer: wave {w} steps {first} and {second} race on `{}` — conflicting access within one wave",
                        a.name
                    )));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::{apply_plan, encoder_fusion_plan};
    use crate::plan::random_externals;
    use crate::plan::testing::reversed;
    use crate::recipe::forward_ops;
    use xform_dataflow::{build, EncoderDims};
    use xform_tensor::ops::elementwise::ActivationKind;

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

    fn opts() -> ExecOptions<'static> {
        ExecOptions::builder()
            .scaler(1.0 / (3f32).sqrt())
            .activation(ActivationKind::Relu)
            .dropout_p(0.0)
            .build()
    }

    #[test]
    fn sanitize_env_parsing_is_consistent() {
        for off in [
            None,
            Some(""),
            Some("  "),
            Some("0"),
            Some("false"),
            Some("FALSE"),
            Some("off"),
            Some("Off"),
            Some("no"),
            Some(" 0 "),
        ] {
            assert!(!sanitize_value_enables(off), "{off:?} must disable");
        }
        for on in [Some("1"), Some("true"), Some("yes"), Some("on"), Some("2")] {
            assert!(sanitize_value_enables(on), "{on:?} must enable");
        }
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

    #[test]
    fn stacked_carve_footprint_is_a_sub_interval() {
        let (g, plan) = unfused_plan();
        let step = plan
            .steps
            .iter()
            .find(|s| s.name == "Input bias K")
            .expect("unfused plan schedules Input bias K");
        let foot = step_footprint(&g, step);
        let stacked = foot
            .iter()
            .find(|a| a.kind == AccessKind::Read && a.name == "qkv_raw")
            .expect("reads the stacked container");
        let total = g.data(stacked.data).unwrap().shape.num_elements() as u64;
        assert_eq!(stacked.span.words() * 3, total, "one projection's third");
        assert!(
            stacked.span.lo > 0 && stacked.span.hi < total,
            "K is the middle third"
        );
        // fused AIB carves all three thirds: one read of the whole tensor
        let (g, plan) = fused_plan();
        let aib = plan.steps.iter().find(|s| s.name == "AIB").unwrap();
        let reads: Vec<Span> = step_footprint(&g, aib)
            .iter()
            .filter(|a| a.kind == AccessKind::Read && a.name == "qkv_raw")
            .map(|a| a.span)
            .collect();
        assert_eq!(reads, [Span { lo: 0, hi: total }]);
    }

    #[test]
    fn sanitized_execution_matches_plain_execution() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (g, plan) = fused_plan();
        let mut plain = random_externals(&g, &plan, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        crate::plan::execute_plan(&g, &plan, &mut plain, &opts(), &mut rng).unwrap();

        let mut shadow = random_externals(&g, &plan, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        execute_plan_sanitized(&g, &plan, &mut shadow, &opts(), &mut rng, None).unwrap();
        for (name, t) in &plain.env {
            let s = shadow.env.get(name).expect("shadow produced the container");
            assert_eq!(t.data(), s.data(), "`{name}` differs under the sanitizer");
        }
    }
}
