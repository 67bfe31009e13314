//! Static analysis of [`ExecutionPlan`]s: dependency/hazard graph,
//! liveness, and a data-movement audit — without executing anything.
//!
//! The paper's whole argument rests on *static* accounting of data
//! movement (Sec. III: flop vs. byte volume per operator, `MUE = Q/D ·
//! B/B̂`) and on structural analysis of the dataflow graph to find fusion
//! and layout opportunities (Figs. 1–3, 6). This module applies the same
//! discipline to a lowered schedule:
//!
//! * [`analyze`] builds the step-level dependency DAG from operand reads
//!   and writes (a relayout reads its container's value and
//!   re-materializes it in place, so it depends on the value's writer and
//!   is serialized against other relayouts and against every reader of
//!   the same container, earlier and later), detecting
//!   RAW/WAR/WAW hazards, use-before-def, double-writes, and dead steps,
//!   and reports everything as typed [`PlanLint`] diagnostics with a
//!   [`Severity`];
//! * [`PlanAnalysis::parallel_waves`] derives topological antichains from
//!   that DAG — the proven-safe parallel schedule a multi-threaded
//!   interpreter must consume;
//! * [`PlanAnalysis::liveness`] gives per-buffer live intervals and the
//!   plan's peak-resident-words high-water mark;
//! * [`audit`] prices every step's data movement under its *selected*
//!   layouts through `xform-gpusim`'s operator model and aggregates
//!   byte volumes per operator class (Table I style) plus a plan-level
//!   static MUE, with explicit relayouts counted as avoidable traffic —
//!   each step charged its [`StepAccount`], the one account the cache
//!   audit and the runtime profiler read too;
//! * [`lint_selection`] cross-checks a lowered plan against sweep data,
//!   flagging layout choices dominated in the sweep.
//!
//! Every executor passes a plan through [`PlanAnalysis::gate`]: execution
//! refuses plans with any [`Severity::Error`] finding.

use std::collections::{HashMap, HashSet};
use std::fmt;

use xform_dataflow::{flops, DataRole, Graph, NodeId, OpClass, OpKind};
use xform_gpusim::contraction::MathMode;
use xform_gpusim::mue::{mue, Mue, MueAccum};
use xform_gpusim::opmodel::{cache_discounted, primary_tensors, OpConfig, OpModel};
use xform_gpusim::{DeviceSpec, KernelCost};
use xform_tensor::Layout;

use crate::plan::{layout_spec, ExecutionPlan, PlanStep};
use crate::selection::RELAYOUT_BANDWIDTH_FRAC;
use crate::sweep::{outputs_laid_out, SweepResult};

/// How bad a [`PlanLint`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; no action needed.
    Info,
    /// The plan executes correctly but wastes data movement or misses an
    /// optimization the recipe should have taken.
    Warning,
    /// The plan is incoherent and must not be executed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One typed diagnostic from the static plan analyzer.
///
/// Error-severity variants are the coherence violations the old
/// string-based `validate()` reported plus the hazards the dependency
/// analysis catches; warning-severity variants flag wasteful-but-runnable
/// schedules (dead steps, redundant or cancelling relayouts, fusion and
/// layout opportunities the plan missed).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlanLint {
    /// A step references an operator id the graph does not contain.
    NotAnOperator {
        /// Step index in the schedule.
        step: usize,
        /// The step's kernel name.
        name: String,
        /// The dangling operator id.
        op: NodeId,
    },
    /// A step's name disagrees with the graph operator it references.
    NameMismatch {
        /// Step index.
        step: usize,
        /// Name recorded in the plan.
        planned: String,
        /// Name of the operator in the graph.
        actual: String,
        /// The operator id.
        op: NodeId,
    },
    /// A step's operand list disagrees with the graph's edges.
    OperandMismatch {
        /// Step index.
        step: usize,
        /// The step's kernel name.
        name: String,
    },
    /// An operand references a data id that is not a live container.
    NotAContainer {
        /// Step index.
        step: usize,
        /// The step's kernel name.
        name: String,
        /// The operand's container name.
        operand: String,
        /// The dangling data id.
        data: NodeId,
    },
    /// An operand's layout has another rank than its container.
    BadLayout {
        /// Step index.
        step: usize,
        /// The step's kernel name.
        name: String,
        /// The operand's container name.
        operand: String,
        /// The offending layout's rank.
        rank: usize,
        /// The container's logical axis string.
        logical: String,
    },
    /// A step consumes a produced container before any scheduled step
    /// writes it (a RAW hazard against the schedule order). A saved
    /// container whose producer reads nothing the plan writes is no such
    /// container: it is an input of the plan (a backward plan's record).
    UseBeforeDef {
        /// Step index of the too-early consumer.
        step: usize,
        /// The step's kernel name.
        name: String,
        /// The consumed container's name.
        container: String,
    },
    /// Two steps write the same single-producer container (a WAW hazard;
    /// stacked containers with several graph-level slice writers are
    /// exempt).
    DoubleWrite {
        /// Step index of the second writer.
        step: usize,
        /// Step index of the first writer.
        prev_step: usize,
        /// The twice-written container's name.
        container: String,
    },
    /// A relayout's `from` layout disagrees with the layout the container
    /// is actually materialized in at that point of the schedule.
    RelayoutIncoherent {
        /// Step index.
        step: usize,
        /// The step's kernel name.
        name: String,
        /// The relayouted container's name.
        container: String,
        /// Layout the relayout expects.
        expected: String,
        /// Layout the container is actually in.
        have: String,
    },
    /// A step declares an input layout the schedule never materializes.
    LayoutIncoherent {
        /// Step index.
        step: usize,
        /// The step's kernel name.
        name: String,
        /// The container's name.
        container: String,
        /// Layout the step wants.
        want: String,
        /// Layout the container is actually in.
        have: String,
    },
    /// Every output of this step is an activation no later step (and no
    /// unscheduled graph consumer) reads: the step computes dead values.
    DeadStep {
        /// Step index.
        step: usize,
        /// The step's kernel name.
        name: String,
    },
    /// A relayout whose source and destination layout are identical.
    RedundantRelayout {
        /// Step index.
        step: usize,
        /// The relayouted container's name.
        container: String,
        /// The no-op layout, in the container's axis letters.
        spec: String,
    },
    /// A container is relayouted `A→B` and later straight back `B→A`:
    /// the pair nets to identity, so reordering consumers (or picking a
    /// different producer layout) would save two transposes.
    CancellingRelayouts {
        /// Step carrying the first relayout.
        first_step: usize,
        /// Step carrying the inverse relayout.
        second_step: usize,
        /// The container's name.
        container: String,
    },
    /// A relayout of a container the step does not even consume.
    OrphanRelayout {
        /// Step index.
        step: usize,
        /// The relayouted container's name.
        container: String,
    },
    /// Two adjacent unfused element-wise steps joined by a
    /// single-consumer activation: the fusion plan missed a fusable chain
    /// (Sec. IV's element-wise pattern).
    MissedFusion {
        /// Producer step index.
        first_step: usize,
        /// Consumer step index.
        second_step: usize,
        /// Producer kernel name.
        first: String,
        /// Consumer kernel name.
        second: String,
    },
    /// An operand's environment name disagrees with its container's graph
    /// name: two distinct containers would collide on one interpreter
    /// environment key (layout-aliased buffers).
    NameAlias {
        /// Step index.
        step: usize,
        /// The step's kernel name.
        name: String,
        /// The name the plan declares for the operand.
        operand: String,
        /// The container's actual graph name.
        expected: String,
        /// The container id.
        data: NodeId,
    },
    /// A step's declared memlet volume is smaller than the footprint the
    /// kernel's iteration space derives: the schedule under-declares what
    /// the kernel actually touches (emitted by the
    /// [`sanitize`](crate::sanitize) certifier).
    UnderDeclaredFootprint {
        /// Step index.
        step: usize,
        /// The step's kernel name.
        name: String,
        /// The under-declared container's name.
        container: String,
        /// Words the graph memlet declares.
        declared_words: u64,
        /// Words the derived footprint touches.
        derived_words: u64,
    },
    /// Two steps placed in the same parallel wave have conflicting access
    /// to one container — a data race under concurrent dispatch (emitted
    /// by the [`sanitize`](crate::sanitize) certifier).
    WaveHazard {
        /// The wave both steps were placed in.
        wave: usize,
        /// The earlier step (schedule order).
        from: usize,
        /// The later step (schedule order).
        to: usize,
        /// The contested container's name.
        container: String,
        /// The hazard kind.
        kind: DepKind,
    },
    /// The step's chosen layout pair is dominated in the sweep data: its
    /// output layout is relayouted away before every use, and a strictly
    /// faster pair with the same input layout exists.
    DominatedLayout {
        /// Step index.
        step: usize,
        /// The step's kernel name.
        name: String,
        /// Sweep time of the chosen layout pair (µs).
        chosen_us: f64,
        /// Best sweep time among same-input alternatives (µs).
        better_us: f64,
        /// The output layout achieving `better_us`.
        better_out: String,
    },
    /// Two buffers with overlapping live intervals were assigned
    /// overlapping word ranges of the arena slab — executing the plan out
    /// of the arena would corrupt data (emitted by the
    /// [`sanitize`](crate::sanitize) arena certifier).
    ArenaOverlap {
        /// Name of the first buffer.
        a: String,
        /// Name of the second buffer.
        b: String,
        /// The first buffer's slab offset in words.
        a_offset: u64,
        /// The second buffer's slab offset in words.
        b_offset: u64,
    },
    /// Interval coloring fragmented the arena: the slab is larger than the
    /// statically predicted peak-resident words, so the arena interpreter
    /// holds more memory than the liveness analysis says it must.
    ArenaFragmentation {
        /// Words the colored slab occupies.
        slab_words: u64,
        /// Peak-resident words the liveness analysis predicts.
        peak_words: u64,
    },
    /// The access-path certifier derived an index-affine access path for an
    /// operand that escapes the operand's buffer (or arena slab range), or
    /// aliases another operand beyond what the race certificate permits —
    /// executing the step would read or write memory it does not own
    /// (emitted by [`access::certify_access`](crate::access::certify_access)).
    UnprovenAccess {
        /// Step index.
        step: usize,
        /// The step's kernel name.
        name: String,
        /// The offending operand's container name.
        container: String,
        /// Why the proof failed.
        reason: String,
    },
    /// The operand's innermost-loop access is in-bounds but not unit-stride
    /// under the selected layout, so the kernel runs its strided
    /// instantiation — correct, but every lane position is a separate
    /// bounds-checked, non-vectorizable access (a performance lint emitted
    /// by [`access::certify_access`](crate::access::certify_access)).
    StridedInnerLoop {
        /// Step index.
        step: usize,
        /// The step's kernel name.
        name: String,
        /// The offending operand's container name.
        container: String,
        /// The innermost-loop stride in words (not 1).
        stride: u64,
    },
    /// A GEMM-epilogue mega-kernel's per-tile working set exceeds a cache
    /// level: the tile the driver keeps hot spills, so the fused kernel
    /// re-fetches what fusion was supposed to keep on chip (emitted by
    /// [`cachemodel::cache_lints`](crate::cachemodel::cache_lints)).
    TileOverflow {
        /// Step index.
        step: usize,
        /// The step's kernel name.
        name: String,
        /// The tile working set in bytes.
        tile_bytes: u64,
        /// The overflowed level's name.
        level: String,
        /// That level's capacity in bytes.
        capacity_bytes: u64,
    },
    /// A step re-references data but the predicted capacity-miss ratio on
    /// those re-references exceeds the threshold: the reuse exists
    /// algorithmically yet the hierarchy cannot capture it (emitted by
    /// [`cachemodel::cache_lints`](crate::cachemodel::cache_lints)).
    CacheThrash {
        /// Step index.
        step: usize,
        /// The step's kernel name.
        name: String,
        /// Percentage of re-referenced words predicted to miss every
        /// level.
        miss_pct: f64,
        /// Bytes of re-referenced (reusable) data in the step.
        reuse_bytes: u64,
    },
    /// A swept operand's inner stride maps every iteration onto the same
    /// cache sets of some level (stride divisible by `sets × line`), so
    /// the effective capacity collapses to one way per set (emitted by
    /// [`cachemodel::cache_lints`](crate::cachemodel::cache_lints)).
    LayoutConflict {
        /// Step index.
        step: usize,
        /// The step's kernel name.
        name: String,
        /// The strided operand's container name.
        container: String,
        /// The inner-loop stride in words.
        stride_words: u64,
        /// The set-aliased level's name.
        level: String,
    },
}

impl PlanLint {
    /// The lint's severity.
    pub fn severity(&self) -> Severity {
        match self {
            PlanLint::NotAnOperator { .. }
            | PlanLint::NameMismatch { .. }
            | PlanLint::OperandMismatch { .. }
            | PlanLint::NotAContainer { .. }
            | PlanLint::BadLayout { .. }
            | PlanLint::UseBeforeDef { .. }
            | PlanLint::DoubleWrite { .. }
            | PlanLint::RelayoutIncoherent { .. }
            | PlanLint::LayoutIncoherent { .. }
            | PlanLint::NameAlias { .. }
            | PlanLint::UnderDeclaredFootprint { .. }
            | PlanLint::WaveHazard { .. }
            | PlanLint::ArenaOverlap { .. }
            | PlanLint::UnprovenAccess { .. } => Severity::Error,
            PlanLint::DeadStep { .. }
            | PlanLint::RedundantRelayout { .. }
            | PlanLint::CancellingRelayouts { .. }
            | PlanLint::OrphanRelayout { .. }
            | PlanLint::MissedFusion { .. }
            | PlanLint::DominatedLayout { .. }
            | PlanLint::ArenaFragmentation { .. }
            | PlanLint::StridedInnerLoop { .. }
            | PlanLint::TileOverflow { .. }
            | PlanLint::CacheThrash { .. }
            | PlanLint::LayoutConflict { .. } => Severity::Warning,
        }
    }

    /// The schedule position the lint anchors to (the later step for
    /// pair lints).
    pub fn step(&self) -> usize {
        match self {
            PlanLint::NotAnOperator { step, .. }
            | PlanLint::NameMismatch { step, .. }
            | PlanLint::OperandMismatch { step, .. }
            | PlanLint::NotAContainer { step, .. }
            | PlanLint::BadLayout { step, .. }
            | PlanLint::UseBeforeDef { step, .. }
            | PlanLint::DoubleWrite { step, .. }
            | PlanLint::RelayoutIncoherent { step, .. }
            | PlanLint::LayoutIncoherent { step, .. }
            | PlanLint::DeadStep { step, .. }
            | PlanLint::RedundantRelayout { step, .. }
            | PlanLint::OrphanRelayout { step, .. }
            | PlanLint::NameAlias { step, .. }
            | PlanLint::UnderDeclaredFootprint { step, .. }
            | PlanLint::DominatedLayout { step, .. }
            | PlanLint::UnprovenAccess { step, .. }
            | PlanLint::StridedInnerLoop { step, .. }
            | PlanLint::TileOverflow { step, .. }
            | PlanLint::CacheThrash { step, .. }
            | PlanLint::LayoutConflict { step, .. } => *step,
            PlanLint::CancellingRelayouts { second_step, .. } => *second_step,
            PlanLint::MissedFusion { second_step, .. } => *second_step,
            PlanLint::WaveHazard { to, .. } => *to,
            PlanLint::ArenaOverlap { .. } | PlanLint::ArenaFragmentation { .. } => 0,
        }
    }
}

impl fmt::Display for PlanLint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanLint::NotAnOperator { step, name, op } => {
                write!(f, "step {step} (`{name}`): {op} is not a live operator")
            }
            PlanLint::NameMismatch {
                step,
                planned,
                actual,
                op,
            } => write!(f, "step {step}: plan names `{planned}` but {op} is `{actual}`"),
            PlanLint::OperandMismatch { step, name } => write!(
                f,
                "step {step} (`{name}`): operand list disagrees with the graph's edges"
            ),
            PlanLint::NotAContainer {
                step,
                name,
                operand,
                data,
            } => write!(
                f,
                "step {step} (`{name}`): operand `{operand}` ({data}) is not a live container"
            ),
            PlanLint::BadLayout {
                step,
                name,
                operand,
                rank,
                logical,
            } => write!(
                f,
                "step {step} (`{name}`): a layout of {rank} axes cannot lay out `{operand}`'s axes `{logical}`"
            ),
            PlanLint::UseBeforeDef {
                step,
                name,
                container,
            } => write!(
                f,
                "step {step} (`{name}`): consumes `{container}` before any scheduled step produces it"
            ),
            PlanLint::DoubleWrite {
                step,
                prev_step,
                container,
            } => write!(
                f,
                "step {step}: writes `{container}` already written by step {prev_step}"
            ),
            PlanLint::RelayoutIncoherent {
                step,
                name,
                container,
                expected,
                have,
            } => write!(
                f,
                "step {step} (`{name}`): relayout of `{container}` expects layout `{expected}` but it is materialized in `{have}`"
            ),
            PlanLint::LayoutIncoherent {
                step,
                name,
                container,
                want,
                have,
            } => write!(
                f,
                "step {step} (`{name}`): expects `{container}` in layout `{want}` but it is materialized in `{have}`"
            ),
            PlanLint::DeadStep { step, name } => {
                write!(f, "step {step} (`{name}`): no scheduled or unscheduled consumer reads any of its outputs")
            }
            PlanLint::RedundantRelayout {
                step,
                container,
                spec,
            } => write!(
                f,
                "step {step}: relayout of `{container}` to its current layout `{spec}` is a no-op"
            ),
            PlanLint::CancellingRelayouts {
                first_step,
                second_step,
                container,
            } => write!(
                f,
                "steps {first_step} and {second_step}: relayouts of `{container}` cancel each other"
            ),
            PlanLint::OrphanRelayout { step, container } => write!(
                f,
                "step {step}: relayouts `{container}` without consuming it"
            ),
            PlanLint::MissedFusion {
                first_step,
                second_step,
                first,
                second,
            } => write!(
                f,
                "steps {first_step}/{second_step}: element-wise `{first}` → `{second}` is a fusable chain the fusion plan missed"
            ),
            PlanLint::NameAlias {
                step,
                name,
                operand,
                expected,
                data,
            } => write!(
                f,
                "step {step} (`{name}`): operand named `{operand}` but {data} is `{expected}` — two containers would alias one environment slot"
            ),
            PlanLint::UnderDeclaredFootprint {
                step,
                name,
                container,
                declared_words,
                derived_words,
            } => write!(
                f,
                "step {step} (`{name}`): declares {declared_words} words of `{container}` but its iteration space touches {derived_words}"
            ),
            PlanLint::WaveHazard {
                wave,
                from,
                to,
                container,
                kind,
            } => write!(
                f,
                "wave {wave}: steps {from} and {to} race on `{container}` ({kind:?}) — cannot dispatch concurrently"
            ),
            PlanLint::DominatedLayout {
                step,
                name,
                chosen_us,
                better_us,
                better_out,
            } => write!(
                f,
                "step {step} (`{name}`): chosen layout pair ({chosen_us:.1} µs) is dominated — output is relayouted before every use, and `{better_out}` would take {better_us:.1} µs"
            ),
            PlanLint::ArenaOverlap {
                a,
                b,
                a_offset,
                b_offset,
            } => write!(
                f,
                "arena: live buffers `{a}` (offset {a_offset}) and `{b}` (offset {b_offset}) share slab words"
            ),
            PlanLint::ArenaFragmentation {
                slab_words,
                peak_words,
            } => write!(
                f,
                "arena: coloring fragmented the slab to {slab_words} words, above the {peak_words}-word peak-resident prediction"
            ),
            PlanLint::UnprovenAccess {
                step,
                name,
                container,
                reason,
            } => write!(
                f,
                "step {step} (`{name}`): access path of `{container}` is unproven — {reason}"
            ),
            PlanLint::StridedInnerLoop {
                step,
                name,
                container,
                stride,
            } => write!(
                f,
                "step {step} (`{name}`): innermost loop over `{container}` strides by {stride} words — the kernel runs its strided instantiation"
            ),
            PlanLint::TileOverflow {
                step,
                name,
                tile_bytes,
                level,
                capacity_bytes,
            } => write!(
                f,
                "step {step} (`{name}`): epilogue tile working set of {tile_bytes} B exceeds {level} ({capacity_bytes} B) — the fused tile spills"
            ),
            PlanLint::CacheThrash {
                step,
                name,
                miss_pct,
                reuse_bytes,
            } => write!(
                f,
                "step {step} (`{name}`): {miss_pct:.0}% of {reuse_bytes} reusable bytes are predicted capacity misses — the hierarchy cannot hold the working set"
            ),
            PlanLint::LayoutConflict {
                step,
                name,
                container,
                stride_words,
                level,
            } => write!(
                f,
                "step {step} (`{name}`): sweep of `{container}` at stride {stride_words} words aliases {level} cache sets — effective capacity collapses to one way"
            ),
        }
    }
}

/// The kind of a step-level dependency (hazard) edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DepKind {
    /// Read-after-write: the consumer must see the producer's value.
    Raw,
    /// Write-after-read: the reader must finish before the next writer
    /// replaces the value it snapshots.
    War,
    /// Write-after-write: writer order determines the final value.
    Waw,
}

/// One edge of the step-level dependency DAG (`from` must execute before
/// `to`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DepEdge {
    /// The earlier step's index.
    pub from: usize,
    /// The later step's index.
    pub to: usize,
    /// The container the hazard is on.
    pub data: NodeId,
    /// The hazard kind.
    pub kind: DepKind,
}

/// Where a container's words are while a plan runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Home {
    /// A slab range: every container a step defines, and a
    /// [`DataRole::Cache`], resident there between runs.
    Slab,
    /// An external no relayout touches: read where the caller keeps it. It
    /// owns no slab range, and no step may write it.
    Borrowed,
    /// An external whose first touch in the schedule is a relayout: that
    /// relayout gathers it out of the caller's slice into a slab range.
    Gathered,
    /// An external some step reads as it came before a later one re-lays
    /// it: copied into a slab range when the run binds it.
    Copied,
}

/// Live interval of one container across the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferLiveness {
    /// The container.
    pub data: NodeId,
    /// Its name.
    pub name: String,
    /// Its size in words.
    pub words: u64,
    /// Its role in the graph.
    pub role: DataRole,
    /// First step writing it (`None` = external: bound before execution).
    pub def: Option<usize>,
    /// Where its words are during a run.
    pub home: Home,
    /// Last step reading (or relayouting) it, if any.
    pub last_use: Option<usize>,
    /// First step index at which the buffer is resident.
    pub start: usize,
    /// Last step index at which the buffer is resident. Outputs and saved
    /// tensors stay resident to the end of the plan.
    pub end: usize,
}

/// The result of [`analyze`]: hazards, lints, liveness.
#[derive(Debug, Clone)]
pub struct PlanAnalysis {
    /// Step-level dependency edges, deduplicated and sorted.
    pub deps: Vec<DepEdge>,
    /// Everything the lint pass found (no sweep-dependent lints; see
    /// [`lint_selection`]).
    pub lints: Vec<PlanLint>,
    /// Live interval per container touched by the plan.
    pub liveness: Vec<BufferLiveness>,
    /// Resident words at each step of the schedule.
    pub resident_words: Vec<u64>,
    /// The high-water mark of [`PlanAnalysis::resident_words`].
    pub peak_resident_words: u64,
    /// Step index where the peak occurs (0 for empty plans).
    pub peak_step: usize,
    n_steps: usize,
}

impl PlanAnalysis {
    /// Lints of [`Severity::Error`] — the findings that make the plan
    /// unexecutable.
    pub fn errors(&self) -> Vec<&PlanLint> {
        self.lints
            .iter()
            .filter(|l| l.severity() == Severity::Error)
            .collect()
    }

    /// `true` when the plan has no error-severity lints.
    pub fn is_clean(&self) -> bool {
        self.lints.iter().all(|l| l.severity() != Severity::Error)
    }

    /// The lint gate every executor passes a plan through before it runs
    /// a kernel (the reference interpreter per call, the arena once at
    /// compile).
    ///
    /// # Errors
    ///
    /// Returns the error-severity lints, joined, when there are any.
    pub fn gate(&self) -> xform_tensor::Result<()> {
        let problems: Vec<String> = self.errors().iter().map(|l| l.to_string()).collect();
        if problems.is_empty() {
            Ok(())
        } else {
            Err(xform_tensor::TensorError::Unsupported(format!(
                "invalid execution plan: {}",
                problems.join("; ")
            )))
        }
    }

    /// Peak resident bytes at the given word width: slab-owned buffers and
    /// borrowed externals alike.
    pub fn peak_resident_bytes(&self, word_bytes: usize) -> u64 {
        self.peak_resident_words * word_bytes as u64
    }

    /// Words of the plan's containers that live at `home`.
    pub fn home_words(&self, home: Home) -> u64 {
        let at = self.liveness.iter().filter(|b| b.home == home);
        at.map(|b| b.words).sum()
    }

    /// Topological antichains of the dependency DAG: wave `k+1` contains
    /// exactly the steps all of whose hazards point into waves `0..=k`.
    /// Steps within one wave touch no common container with conflicting
    /// access, so a multi-threaded interpreter may run each wave's steps
    /// concurrently and join between waves. The concatenation of all waves
    /// is a permutation of `0..steps`.
    pub fn parallel_waves(&self) -> Vec<Vec<usize>> {
        let n = self.n_steps;
        let mut indeg = vec![0usize; n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.deps {
            if e.from < n && e.to < n {
                adj[e.from].push(e.to);
                indeg[e.to] += 1;
            }
        }
        let mut wave: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut waves = Vec::new();
        while !wave.is_empty() {
            let mut next = Vec::new();
            for &i in &wave {
                for &j in &adj[i] {
                    indeg[j] -= 1;
                    if indeg[j] == 0 {
                        next.push(j);
                    }
                }
            }
            next.sort_unstable();
            waves.push(std::mem::take(&mut wave));
            wave = next;
        }
        waves
    }

    /// Wave index per step (the inverse of [`PlanAnalysis::parallel_waves`]).
    pub fn wave_of(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.n_steps];
        for (w, wave) in self.parallel_waves().into_iter().enumerate() {
            for s in wave {
                out[s] = w;
            }
        }
        out
    }

    /// Resident words during each parallel wave. A buffer is resident from
    /// the wave of its defining step (wave 0 for externals) through the
    /// wave of its last use; outputs and saved tensors stay resident to
    /// the final wave. Parallel execution retires whole waves, not single
    /// steps, so this high-water mark — not
    /// [`PlanAnalysis::peak_resident_words`] — is the one a wave-parallel
    /// arena run pays.
    pub fn wave_resident_words(&self) -> Vec<u64> {
        let waves = self.parallel_waves();
        if waves.is_empty() {
            return Vec::new();
        }
        let mut wave_of = vec![0usize; self.n_steps];
        for (w, wave) in waves.iter().enumerate() {
            for &s in wave {
                wave_of[s] = w;
            }
        }
        let last = waves.len() - 1;
        let mut out = vec![0u64; waves.len()];
        for b in &self.liveness {
            let ws = b.def.map_or(0, |d| wave_of[d]);
            let pinned = matches!(b.role, DataRole::Output | DataRole::Saved | DataRole::Cache);
            let we = if pinned {
                last
            } else {
                b.last_use.map_or(ws, |u| wave_of[u]).max(ws)
            };
            for w in out.iter_mut().take(we + 1).skip(ws) {
                *w += b.words;
            }
        }
        out
    }

    /// The high-water mark of [`PlanAnalysis::wave_resident_words`] as
    /// `(wave index, words)`; `(0, 0)` for empty plans.
    pub fn peak_wave_resident_words(&self) -> (usize, u64) {
        self.wave_resident_words()
            .iter()
            .enumerate()
            .max_by_key(|&(_, &w)| w)
            .map_or((0, 0), |(i, &w)| (i, w))
    }
}

/// Selects nothing: every arena is colored over its plan's wave intervals
/// ([`assign_arena`]) and runs at any thread count. The one variant is kept
/// because the frozen signatures of `CompiledArena::compile` and
/// `interp::cached_arena` take it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArenaGranularity {
    /// The one arena of a plan.
    Serial,
}

/// One buffer's word range in the arena's address space: inside the slab,
/// or — a borrowed external — a range of its own past the slab's end.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaSlot {
    /// The container.
    pub data: NodeId,
    /// Its name.
    pub name: String,
    /// Assigned offset in words. Below
    /// [`ArenaAssignment::slab_words`] unless `borrowed`.
    pub offset: u64,
    /// Size in words.
    pub words: u64,
    /// First wave the buffer is resident in.
    pub start: usize,
    /// Last wave the buffer is resident in.
    pub end: usize,
    /// A [`Home::Borrowed`] external: the range stands for the caller's
    /// memory, which no other buffer shares at any time.
    pub borrowed: bool,
}

/// The result of [`assign_arena`]: every slab-owned buffer colored to a word
/// offset inside one slab whose size the pass tries to hold at exactly
/// their peak-resident words, and every borrowed external given a range of
/// its own past the slab's end.
#[derive(Debug, Clone)]
pub struct ArenaAssignment {
    /// One slot per live buffer, in liveness order.
    pub slots: Vec<ArenaSlot>,
    /// Total slab size in words (the arena's high-water mark).
    pub slab_words: u64,
    /// The statically predicted peak-resident words of the slab-owned
    /// buffers over the plan's waves, which the slab is measured against.
    /// For a chain (every wave one step) that is
    /// [`PlanAnalysis::peak_resident_words`] without the borrowed externals.
    pub target_words: u64,
    /// [`PlanLint::ArenaFragmentation`] when `slab_words > target_words`;
    /// empty otherwise.
    pub lints: Vec<PlanLint>,
}

impl ArenaAssignment {
    /// Slab size in bytes at the given word width.
    pub fn slab_bytes(&self, word_bytes: usize) -> u64 {
        self.slab_words * word_bytes as u64
    }
}

/// Greedy best-fit placement of `order` (indices into `iv`) where
/// `iv[i] = (start, end, words)`. Each buffer goes into the tightest hole
/// that fits it below the already-placed buffers whose live intervals
/// overlap its own, or on top of them if none does. Returns per-buffer
/// offsets and the slab high-water mark.
fn color_intervals(iv: &[(usize, usize, u64)], order: &[usize]) -> (Vec<u64>, u64) {
    let mut offsets = vec![0u64; iv.len()];
    let mut placed: Vec<usize> = Vec::with_capacity(iv.len());
    let mut slab = 0u64;
    for &i in order {
        let (s, e, words) = iv[i];
        // collect placed buffers overlapping [s, e], sorted by offset;
        // two busy ranges may themselves overlap (they need not be live
        // simultaneously), so gap scanning tracks a running high-water
        // cursor rather than assuming disjointness
        let mut busy: Vec<(u64, u64)> = placed
            .iter()
            .filter(|&&j| {
                let (js, je, _) = iv[j];
                s <= je && js <= e
            })
            .map(|&j| (offsets[j], iv[j].2))
            .collect();
        busy.sort_unstable();
        let mut cursor = 0u64;
        // (gap size, gap start) of the tightest fitting hole so far
        let mut best: Option<(u64, u64)> = None;
        for (off, w) in busy {
            if cursor + words <= off && best.is_none_or(|(bg, _)| off - cursor < bg) {
                best = Some((off - cursor, cursor));
            }
            cursor = cursor.max(off + w);
        }
        let at = best.map_or(cursor, |(_, start)| start);
        offsets[i] = at;
        slab = slab.max(at + words);
        placed.push(i);
    }
    (offsets, slab)
}

/// Colors the plan's buffer-liveness intervals into offsets of one shared
/// slab, register-allocation style: buffers whose live intervals overlap
/// never share words; buffers whose intervals are disjoint may. Offsets
/// are in f32 words, which keeps every buffer naturally aligned for f32
/// access (the pass deliberately adds no cache-line padding — padding
/// would push the slab above the peak-resident target the audit pins).
///
/// A buffer lives over the [`PlanAnalysis::parallel_waves`] from its
/// defining step's through its last reader's (through the last wave for
/// outputs, saved tensors and caches), so words are reused only across
/// waves: the one coloring is sound whether a wave's steps run one after
/// another on the caller's thread or side by side on the pool.
///
/// Buffers are placed best-fit in one order: the peak-resident set first,
/// largest first, then the transients by start. Only while that slab is
/// above the liveness peak does a seeded search reorder the transients;
/// when even its best coloring exceeds the peak, the assignment carries a
/// [`PlanLint::ArenaFragmentation`] warning and the divergence is surfaced
/// by `repro audit`.
pub fn assign_arena(analysis: &PlanAnalysis) -> ArenaAssignment {
    let wave_of = analysis.wave_of();
    let last_wave = wave_of.iter().copied().max().unwrap_or(0);
    let iv: Vec<(usize, usize, u64)> = analysis
        .liveness
        .iter()
        .map(|b| {
            let ws = b.def.map_or(0, |d| wave_of[d]);
            let pinned = matches!(b.role, DataRole::Output | DataRole::Saved | DataRole::Cache);
            // a reader's wave need not follow its schedule position: the
            // last wave that reads it is the latest over every reader —
            // those behind a write, and those ahead of a later one
            let edges = analysis.deps.iter().filter(|e| e.data == b.data);
            let readers = edges
                .filter(|e| e.kind != DepKind::Waw)
                .map(|e| match e.kind {
                    DepKind::Raw => wave_of[e.to],
                    _ => wave_of[e.from],
                });
            let last = readers
                .chain(b.last_use.map(|u| wave_of[u]))
                .fold(ws, usize::max);
            let we = if pinned { last_wave } else { last };
            (ws, we, b.words)
        })
        .collect();

    // the slab holds what is not borrowed; its target is their high-water
    // mark (the last of equal peaks, as `PlanAnalysis::peak_step` is)
    let base: Vec<usize> = (0..iv.len())
        .filter(|&i| analysis.liveness[i].home != Home::Borrowed)
        .collect();
    let mut resident = vec![0u64; iv.iter().map(|v| v.1 + 1).max().unwrap_or(0)];
    for &i in &base {
        for w in &mut resident[iv[i].0..=iv[i].1] {
            *w += iv[i].2;
        }
    }
    let peak = resident.iter().copied().enumerate().max_by_key(|&(_, w)| w);
    let (peak_t, target_words) = peak.unwrap_or((0, 0));

    // the peak-resident set is mutually overlapping (every member is live
    // at the peak), so placing it first packs it gap-free into exactly the
    // target; transients then drop into holes left over time. Ties are
    // broken by index for determinism
    let at_peak = |&i: &usize| iv[i].0 <= peak_t && peak_t <= iv[i].1;
    let mut order = base.clone();
    order.sort_by_key(|i| {
        let live = at_peak(i);
        (
            !live,
            if live { 0 } else { iv[*i].0 },
            std::cmp::Reverse(iv[*i].2),
            *i,
        )
    });
    let mut best = color_intervals(&iv, &order);

    // Optimal dynamic storage allocation is NP-hard, and the one order
    // occasionally leaves a small gap above the liveness peak. Close it
    // with an iterated randomized best-fit: keep the peak-resident set
    // packed first (gap-free by construction) and shuffle the transient
    // placement order under fixed seeds, stopping as soon as a coloring
    // hits the target. Fixed seeds keep the assignment deterministic
    // across runs.
    if best.1 > target_words {
        use rand::{Rng, SeedableRng};
        let (mut peak_set, transients): (Vec<usize>, Vec<usize>) =
            base.iter().copied().partition(at_peak);
        peak_set.sort_by_key(|&i| (iv[i].0, std::cmp::Reverse(iv[i].2), i));
        for attempt in 0u64..256 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x0a7e_4a00 ^ attempt);
            let mut order = peak_set.clone();
            let mut tail = transients.clone();
            for i in (1..tail.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                tail.swap(i, j);
            }
            order.extend(tail);
            let (offsets, slab) = color_intervals(&iv, &order);
            if slab < best.1 {
                best = (offsets, slab);
                if slab == target_words {
                    break;
                }
            }
        }
    }
    let (offsets, slab_words) = best;

    let mut past_slab = slab_words;
    let slots: Vec<ArenaSlot> = analysis
        .liveness
        .iter()
        .zip(&iv)
        .zip(&offsets)
        .map(|((b, &(s, e, _)), &off)| {
            let borrowed = b.home == Home::Borrowed;
            let offset = if borrowed { past_slab } else { off };
            past_slab += if borrowed { b.words } else { 0 };
            ArenaSlot {
                data: b.data,
                name: b.name.clone(),
                offset,
                words: b.words,
                start: s,
                end: e,
                borrowed,
            }
        })
        .collect();

    let mut lints = Vec::new();
    if slab_words > target_words {
        lints.push(PlanLint::ArenaFragmentation {
            slab_words,
            peak_words: target_words,
        });
    }
    ArenaAssignment {
        slots,
        slab_words,
        target_words,
        lints,
    }
}

/// Cross-call residency audit for a cache-reading plan.
///
/// [`DataRole::Cache`] containers are live-in *and* live-out of every
/// execution, so the memory a decode session actually holds is not the
/// per-call peak but that peak with every cache container scaled from its
/// compiled bucket capacity (the extent of its outermost, position-major
/// axis) up to `max_seq` positions. This is the high-water mark the slab
/// account pays once the session has decoded `max_seq` tokens.
#[derive(Debug, Clone)]
pub struct CrossCallHighWater {
    /// Per-call peak resident words at the compiled bucket capacity.
    pub peak_words: u64,
    /// Cache words at the compiled bucket capacity.
    pub cache_words: u64,
    /// Cache words scaled to `max_seq` positions.
    pub cache_words_at_max_seq: u64,
    /// `peak_words - cache_words + cache_words_at_max_seq`.
    pub high_water_words: u64,
    /// The `max_seq` the scaling was computed for.
    pub max_seq: usize,
}

/// Computes the [`CrossCallHighWater`] for `plan`'s analysis: every
/// [`DataRole::Cache`] container's words are rescaled from the extent of
/// its outermost axis (the position-major cache axis) to `max_seq`.
pub fn cross_call_high_water(
    graph: &Graph,
    analysis: &PlanAnalysis,
    max_seq: usize,
) -> CrossCallHighWater {
    let mut cache_words = 0u64;
    let mut cache_words_at_max_seq = 0u64;
    for b in &analysis.liveness {
        if b.role != DataRole::Cache {
            continue;
        }
        cache_words += b.words;
        if let Some(d) = graph.data(b.data) {
            let cap = d.shape.sizes().first().copied().unwrap_or(1).max(1) as u64;
            let col = b.words / cap;
            cache_words_at_max_seq += col * max_seq as u64;
        }
    }
    let peak_words = analysis.peak_resident_words;
    CrossCallHighWater {
        peak_words,
        cache_words,
        cache_words_at_max_seq,
        high_water_words: peak_words - cache_words + cache_words_at_max_seq,
        max_seq,
    }
}

/// Statically analyzes a plan against the graph it was lowered from:
/// structural coherence (the checks of the old string-based `validate`),
/// the dependency/hazard DAG, dead-step detection, relayout lints,
/// missed-fusion detection, and buffer liveness.
pub fn analyze(graph: &Graph, plan: &ExecutionPlan) -> PlanAnalysis {
    let n = plan.steps.len();
    let mut lints: Vec<PlanLint> = Vec::new();
    let mut deps: Vec<DepEdge> = Vec::new();

    // per-container schedule state
    let mut last_writer: HashMap<NodeId, usize> = HashMap::new();
    let mut readers_since_write: HashMap<NodeId, Vec<usize>> = HashMap::new();
    let mut last_relayouter: HashMap<NodeId, usize> = HashMap::new();
    let mut current_layout: HashMap<NodeId, Layout> = HashMap::new();
    let mut produced: HashSet<NodeId> = HashSet::new();
    // a saved container whose producer reads nothing the plan writes is the
    // plan's input: a backward plan binds the forward's record
    let writes: HashSet<NodeId> = (plan.steps.iter())
        .flat_map(|s| s.outputs.iter().map(|o| o.data))
        .collect();
    let upstream = |d: NodeId| match graph.data(d).map(|n| n.role) {
        Some(DataRole::Saved) if !writes.contains(&d) => (graph.producer_of(d))
            .is_some_and(|p| graph.inputs_of(p).iter().all(|i| !writes.contains(i))),
        _ => false,
    };
    // relayout event log per container: (step, from, to)
    let mut relayout_log: HashMap<NodeId, Vec<(usize, Layout, Layout)>> = HashMap::new();

    for (si, step) in plan.steps.iter().enumerate() {
        let Some(node) = graph.op(step.op) else {
            lints.push(PlanLint::NotAnOperator {
                step: si,
                name: step.name.clone(),
                op: step.op,
            });
            continue;
        };
        if node.name != step.name {
            lints.push(PlanLint::NameMismatch {
                step: si,
                planned: step.name.clone(),
                actual: node.name.clone(),
                op: step.op,
            });
        }
        let in_ids: Vec<NodeId> = step.inputs.iter().map(|o| o.data).collect();
        let out_ids: Vec<NodeId> = step.outputs.iter().map(|o| o.data).collect();
        if in_ids != graph.inputs_of(step.op) || out_ids != graph.outputs_of(step.op) {
            lints.push(PlanLint::OperandMismatch {
                step: si,
                name: step.name.clone(),
            });
        }
        for operand in step.inputs.iter().chain(&step.outputs) {
            match graph.data(operand.data) {
                Some(d) => {
                    if d.name != operand.name {
                        lints.push(PlanLint::NameAlias {
                            step: si,
                            name: step.name.clone(),
                            operand: operand.name.clone(),
                            expected: d.name.clone(),
                            data: operand.data,
                        });
                    }
                    // a plan arrives from callers, and what its type still
                    // admits is a layout of another rank than the container
                    if d.shape.rank() != operand.layout.rank() {
                        lints.push(PlanLint::BadLayout {
                            step: si,
                            name: step.name.clone(),
                            operand: operand.name.clone(),
                            rank: operand.layout.rank(),
                            logical: d.shape.spec(),
                        });
                    }
                }
                None => lints.push(PlanLint::NotAContainer {
                    step: si,
                    name: step.name.clone(),
                    operand: operand.name.clone(),
                    data: operand.data,
                }),
            }
        }

        // relayout lints + hazards: a relayout *reads* its container's
        // logical values and re-materializes them in place — the arena
        // permutes the container's one slab slot, staged through the
        // step's scratch.  So besides the RAW edge from the value's last
        // writer it takes a WAR edge from every step that read the old
        // incarnation, later readers take a RAW edge from it (see the
        // reads below), and it registers as a reader so a later
        // value-writer waits for it.  Materializations of one container
        // are serialized among themselves (WAW).
        let mut relayouted: Vec<NodeId> = Vec::new();
        for r in &step.relayouts {
            if !step.inputs.iter().any(|i| i.data == r.data) {
                lints.push(PlanLint::OrphanRelayout {
                    step: si,
                    container: r.name.clone(),
                });
            }
            if r.from == r.to {
                lints.push(PlanLint::RedundantRelayout {
                    step: si,
                    container: r.name.clone(),
                    spec: layout_spec(graph, r.data, r.to),
                });
            }
            relayout_log
                .entry(r.data)
                .or_default()
                .push((si, r.from, r.to));
            if !relayouted.contains(&r.data) {
                relayouted.push(r.data);
                if let Some(&w) = last_writer.get(&r.data) {
                    if w != si {
                        deps.push(DepEdge {
                            from: w,
                            to: si,
                            data: r.data,
                            kind: DepKind::Raw,
                        });
                    }
                }
                if let Some(&m) = last_relayouter.get(&r.data) {
                    if m != si {
                        deps.push(DepEdge {
                            from: m,
                            to: si,
                            data: r.data,
                            kind: DepKind::Waw,
                        });
                    }
                }
                let readers = readers_since_write.entry(r.data).or_default();
                for rd in readers.drain(..).filter(|&rd| rd != si) {
                    deps.push(DepEdge {
                        from: rd,
                        to: si,
                        data: r.data,
                        kind: DepKind::War,
                    });
                }
                readers.push(si);
                last_relayouter.insert(r.data, si);
            }
        }

        // reads: RAW edges (from the value's writer and from whoever last
        // re-materialized it) + use-before-def
        for inp in &step.inputs {
            let sources = [last_writer.get(&inp.data), last_relayouter.get(&inp.data)];
            for &w in sources.into_iter().flatten() {
                if w != si {
                    deps.push(DepEdge {
                        from: w,
                        to: si,
                        data: inp.data,
                        kind: DepKind::Raw,
                    });
                }
            }
            readers_since_write.entry(inp.data).or_default().push(si);
            let external = graph.producer_of(inp.data).is_none() || upstream(inp.data);
            if !external && !produced.contains(&inp.data) {
                lints.push(PlanLint::UseBeforeDef {
                    step: si,
                    name: step.name.clone(),
                    container: inp.name.clone(),
                });
            }
        }

        // layout coherence, honouring this step's relayout insertions
        for inp in &step.inputs {
            let natural = graph
                .data(inp.data)
                .map(|d| Layout::row_major(d.shape.rank()));
            let mut have = (current_layout.get(&inp.data).copied())
                .or(natural)
                .unwrap_or(inp.layout);
            let spec = |l: Layout| layout_spec(graph, inp.data, l);
            for r in step.relayouts.iter().filter(|r| r.data == inp.data) {
                if r.from != have {
                    lints.push(PlanLint::RelayoutIncoherent {
                        step: si,
                        name: step.name.clone(),
                        container: r.name.clone(),
                        expected: spec(r.from),
                        have: spec(have),
                    });
                }
                have = r.to;
            }
            if have != inp.layout {
                lints.push(PlanLint::LayoutIncoherent {
                    step: si,
                    name: step.name.clone(),
                    container: inp.name.clone(),
                    want: spec(inp.layout),
                    have: spec(have),
                });
            }
            current_layout.insert(inp.data, have);
        }

        // writes: WAW/WAR edges + double-write detection
        for out in &step.outputs {
            if let Some(&w) = last_writer.get(&out.data) {
                if w != si {
                    deps.push(DepEdge {
                        from: w,
                        to: si,
                        data: out.data,
                        kind: DepKind::Waw,
                    });
                    // several slice writers of a stacked container are a
                    // graph-level feature, not a schedule bug
                    if graph.producers_of(out.data).len() <= 1 && !relayouted.contains(&out.data) {
                        lints.push(PlanLint::DoubleWrite {
                            step: si,
                            prev_step: w,
                            container: out.name.clone(),
                        });
                    }
                }
            }
            for &rd in readers_since_write.get(&out.data).into_iter().flatten() {
                if rd != si {
                    deps.push(DepEdge {
                        from: rd,
                        to: si,
                        data: out.data,
                        kind: DepKind::War,
                    });
                }
            }
            last_writer.insert(out.data, si);
            readers_since_write.entry(out.data).or_default().clear();
            produced.insert(out.data);
            current_layout.insert(out.data, out.layout);
        }
    }

    deps.sort_unstable();
    deps.dedup();

    // cancelling relayout pairs: A→B followed by B→A on the same container
    for (data, events) in &relayout_log {
        let name = graph
            .data(*data)
            .map(|d| d.name.clone())
            .unwrap_or_else(|| format!("{data}"));
        for w in events.windows(2) {
            let (s1, from1, to1) = w[0];
            let (s2, from2, to2) = w[1];
            if to1 == from2 && to2 == from1 && from1 != to1 {
                lints.push(PlanLint::CancellingRelayouts {
                    first_step: s1,
                    second_step: s2,
                    container: name.clone(),
                });
            }
        }
    }

    // dead steps: every output is an activation nobody (scheduled or
    // unscheduled) will read
    let plan_ops: HashSet<NodeId> = plan.steps.iter().map(|s| s.op).collect();
    for (si, step) in plan.steps.iter().enumerate() {
        if step.outputs.is_empty() || graph.op(step.op).is_none() {
            continue;
        }
        let all_dead = step.outputs.iter().all(|out| {
            let Some(d) = graph.data(out.data) else {
                return false;
            };
            if d.role != DataRole::Activation {
                return false;
            }
            let read_later = plan.steps[si + 1..]
                .iter()
                .any(|s2| s2.inputs.iter().any(|i| i.data == out.data));
            if read_later {
                return false;
            }
            // unscheduled graph consumers (e.g. the backward half) keep
            // the value alive
            let consumers = graph.consumers_of(out.data);
            !consumers.is_empty() && consumers.iter().all(|c| plan_ops.contains(c))
        });
        if all_dead {
            lints.push(PlanLint::DeadStep {
                step: si,
                name: step.name.clone(),
            });
        }
    }

    // missed fusion: element-wise producer whose single-consumer
    // activation feeds an element-wise consumer, neither already fused
    let mut flagged: HashSet<(usize, usize)> = HashSet::new();
    for (si, step) in plan.steps.iter().enumerate() {
        let Some(node) = graph.op(step.op) else {
            continue;
        };
        if node.kind.class() != OpClass::Elementwise || matches!(node.kind, OpKind::Fused { .. }) {
            continue;
        }
        for out in &step.outputs {
            let Some(d) = graph.data(out.data) else {
                continue;
            };
            if d.role != DataRole::Activation || graph.consumers_of(out.data).len() != 1 {
                continue;
            }
            for (sj, later) in plan.steps.iter().enumerate().skip(si + 1) {
                if !later.inputs.iter().any(|i| i.data == out.data) {
                    continue;
                }
                let Some(consumer) = graph.op(later.op) else {
                    break;
                };
                if consumer.kind.class() == OpClass::Elementwise
                    && !matches!(consumer.kind, OpKind::Fused { .. })
                    && flagged.insert((si, sj))
                {
                    lints.push(PlanLint::MissedFusion {
                        first_step: si,
                        second_step: sj,
                        first: step.name.clone(),
                        second: later.name.clone(),
                    });
                }
                break;
            }
        }
    }

    // liveness: def/use intervals and the resident high-water mark
    let mut order: Vec<NodeId> = Vec::new();
    let mut defs: HashMap<NodeId, usize> = HashMap::new();
    let mut uses: HashMap<NodeId, (usize, usize)> = HashMap::new();
    for (si, step) in plan.steps.iter().enumerate() {
        for inp in &step.inputs {
            if !order.contains(&inp.data) {
                order.push(inp.data);
            }
            let e = uses.entry(inp.data).or_insert((si, si));
            e.1 = si;
        }
        for r in &step.relayouts {
            if !order.contains(&r.data) {
                order.push(r.data);
            }
            let e = uses.entry(r.data).or_insert((si, si));
            e.1 = si;
        }
        for out in &step.outputs {
            if !order.contains(&out.data) {
                order.push(out.data);
            }
            defs.entry(out.data).or_insert(si);
        }
    }
    let mut liveness: Vec<BufferLiveness> = Vec::new();
    let mut resident_words = vec![0u64; n];
    for data in order {
        let (name, words, role) = match graph.data(data) {
            Some(d) => (d.name.clone(), d.shape.num_elements() as u64, d.role),
            None => continue, // already reported as NotAContainer
        };
        let def = defs.get(&data).copied();
        let first_use = uses.get(&data).map(|&(f, _)| f);
        let home = match relayout_log.get(&data) {
            _ if def.is_some() || role == DataRole::Cache => Home::Slab,
            None => Home::Borrowed,
            // re-laid by the first step to touch it: a relayout runs ahead
            // of its step's kernel
            Some(events) if first_use == Some(events[0].0) => Home::Gathered,
            Some(_) => Home::Copied,
        };
        let last_use = uses.get(&data).map(|&(_, l)| l);
        let start = def.unwrap_or(0);
        let pinned = matches!(role, DataRole::Output | DataRole::Saved | DataRole::Cache);
        let end = if pinned {
            n.saturating_sub(1)
        } else {
            last_use.unwrap_or(start).max(start)
        };
        for w in resident_words.iter_mut().take(end + 1).skip(start) {
            *w += words;
        }
        liveness.push(BufferLiveness {
            data,
            name,
            words,
            role,
            def,
            home,
            last_use,
            start,
            end,
        });
    }
    let (peak_step, peak_resident_words) = resident_words
        .iter()
        .copied()
        .enumerate()
        .max_by_key(|&(_, w)| w)
        .unwrap_or((0, 0));

    PlanAnalysis {
        deps,
        lints,
        liveness,
        resident_words,
        peak_resident_words,
        peak_step,
        n_steps: n,
    }
}

/// Derives the [`OpConfig`] a step's declared operand layouts correspond
/// to, over the operands `xform-gpusim` prices a configuration by
/// ([`primary_tensors`]).
pub(crate) fn step_config(graph: &Graph, step: &PlanStep) -> Option<OpConfig> {
    let (primary_in, primary_out) = primary_tensors(graph, step.op).ok()?;
    let a = step.inputs.iter().find(|o| o.data == primary_in)?;
    let c = step.outputs.iter().find(|o| o.data == primary_out)?;
    if matches!(step.kind, OpKind::Einsum(_) | OpKind::TileProgram { .. }) {
        Some(OpConfig {
            in_layout: a.layout,
            in2_layout: step.inputs.get(1).map(|b| b.layout),
            out_layout: c.layout,
            vector_axis: None,
            warp_axis: None,
            algo: 3,
            math: MathMode::TensorCore,
        })
    } else {
        let innermost = a.layout.order().next_back();
        let axes = graph.data(a.data)?.shape.axes();
        Some(OpConfig {
            in_layout: a.layout,
            in2_layout: None,
            out_layout: c.layout,
            vector_axis: innermost.and_then(|p| axes.get(p)).map(|ax| ax.name()),
            warp_axis: step.kind.reduce_axis().map(|ax| ax.name()),
            algo: 3,
            math: MathMode::TensorCore,
        })
    }
}

/// One step's static account: the words and flop [`audit`] charges it,
/// which [`crate::cachemodel::cache_audit`] and the runtime profiler
/// ([`crate::profile::PlanProfiler`]) read rather than derive again —
/// the bytes column of the paper's Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct StepAccount {
    /// Step index.
    pub step: usize,
    /// The operator the step executes.
    pub op: NodeId,
    /// Kernel name.
    pub name: String,
    /// Operator class.
    pub class: OpClass,
    /// Words the step's graph memlets read.
    pub read_words: u64,
    /// Words the step's graph memlets write.
    pub write_words: u64,
    /// Words moved by this step's explicit relayouts (read + write of
    /// each relayouted container).
    pub relayout_words: u64,
    /// The operator's I/O lower bound in words (`Q` of the MUE formula):
    /// its memlet reads plus writes.
    pub q_words: u64,
    /// Words of `q_words` that an un-collapsed GEMM-epilogue chain merely
    /// shuttles through its eliminable interim (the head's write of it
    /// plus the tail's read-back): pure movement, not algorithmic demand,
    /// so a plan that collapses the chain accounts at the same `Q`.
    pub avoid_words: u64,
    /// Flop performed.
    pub flop: u64,
}

impl StepAccount {
    /// Total words this step moves: kernel memlets plus relayouts.
    #[must_use]
    pub fn moved_words(&self) -> u64 {
        self.read_words + self.write_words + self.relayout_words
    }

    /// Folds the step into `acc` under the kernel's `cost` (modelled, or
    /// measured time and bandwidth): the memlet words join as kernel
    /// traffic with `Q` less the avoidable interim words, which join as
    /// pure movement at the kernel's bandwidth, and the relayout words
    /// join as pure movement at `relayout_bw`. Predicted cache hits come
    /// off that movement — kernel hits first from the kernel's traffic
    /// above its algorithmic demand, then from the interim movement;
    /// relayout hits from the relayout words — so `D` never drops below
    /// `Q`, and with no hits the fold is the flat audit's. Returns the
    /// kernel's cost with its hits discounted.
    pub fn fold(
        &self,
        acc: &mut MueAccum,
        cost: &KernelCost,
        kernel_hits: u64,
        relayout_hits: u64,
        relayout_bw: f64,
    ) -> KernelCost {
        let (q, kh) = (self.q_words as f64, kernel_hits as f64);
        let kernel = if self.avoid_words > 0 {
            let avoid = self.avoid_words as f64;
            let q_eff = (self.q_words - self.avoid_words) as f64;
            let kernel_part = cost.moved_words.max(q) - avoid;
            let k_hit = kh.min((kernel_part - q_eff).max(0.0));
            let a_hit = (kh - k_hit).min(avoid);
            let moved = KernelCost {
                moved_words: kernel_part,
                ..*cost
            };
            let adj = cache_discounted(&moved, k_hit, q_eff);
            acc.add_kernel(q_eff, &adj);
            if avoid - a_hit > 0.0 {
                acc.add_movement(avoid - a_hit, cost.bandwidth_frac);
            }
            adj
        } else {
            let adj = cache_discounted(cost, kh, q);
            acc.add_kernel(q, &adj);
            adj
        };
        let relayout = self.relayout_words - relayout_hits.min(self.relayout_words);
        if relayout > 0 {
            acc.add_movement(relayout as f64, relayout_bw);
        }
        kernel
    }
}

/// Every step's [`StepAccount`], in schedule order, from one pass of
/// [`crate::fusion::detect_tiles`] over the graph.
pub fn step_accounts(graph: &Graph, plan: &ExecutionPlan) -> Vec<StepAccount> {
    accounts_over(graph, plan, &crate::fusion::detect_tiles(graph))
}

fn accounts_over(
    graph: &Graph,
    plan: &ExecutionPlan,
    chains: &[crate::fusion::TileChain],
) -> Vec<StepAccount> {
    let mut avoid: HashMap<NodeId, u64> = HashMap::new();
    for c in chains {
        // the head writes the interim, the tail reads it back
        *avoid.entry(c.head).or_insert(0) += c.interim_words;
        *avoid.entry(c.tail).or_insert(0) += c.interim_words;
    }
    let words = |d: NodeId| graph.data(d).map_or(0, |d| d.shape.num_elements() as u64);
    (plan.steps.iter().enumerate())
        .map(|(si, step)| {
            let (read_words, write_words) =
                (graph.input_words(step.op), graph.output_words(step.op));
            let q_words = read_words + write_words;
            StepAccount {
                step: si,
                op: step.op,
                name: step.name.clone(),
                class: step.kind.class(),
                read_words,
                write_words,
                relayout_words: step.relayouts.iter().map(|r| 2 * words(r.data)).sum(),
                q_words,
                avoid_words: avoid.get(&step.op).copied().unwrap_or(0).min(q_words),
                flop: flops::op_flop(graph, step.op).unwrap_or(0),
            }
        })
        .collect()
}

/// One step's static movement accounting.
#[derive(Debug, Clone)]
pub struct StepAudit {
    /// The words and flop the step is charged.
    pub account: StepAccount,
    /// Modelled kernel cost under the step's declared layouts (`None`
    /// when the performance model cannot price the configuration; the
    /// movement accounting still counts its memlet words).
    pub cost: Option<KernelCost>,
    /// Static MUE under the modelled cost.
    pub mue: Option<Mue>,
}

impl StepAudit {
    /// The cost the audit charges the kernel: the modelled one, or for a
    /// step the model cannot price a perfect kernel that moves exactly its
    /// algorithmic demand at the device's streaming efficiency.
    #[must_use]
    pub fn charged_cost(&self, device: &DeviceSpec) -> KernelCost {
        let a = &self.account;
        self.cost.unwrap_or(KernelCost {
            time_us: 0.0,
            moved_words: (a.q_words - a.avoid_words) as f64,
            bandwidth_frac: device.stream_efficiency,
            flop: a.flop as f64,
        })
    }
}

/// Byte volumes of one operator class across the plan (Table I style).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMovement {
    /// The class.
    pub class: OpClass,
    /// Number of scheduled steps in the class.
    pub steps: usize,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Flop performed.
    pub flop: u64,
}

impl ClassMovement {
    /// Total bytes moved by the class.
    pub fn io_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

/// The static data-movement audit of a whole plan.
#[derive(Debug, Clone)]
pub struct MovementAudit {
    /// Per-step accounting, in schedule order.
    pub per_step: Vec<StepAudit>,
    /// Aggregation per operator class (contraction, normalization,
    /// element-wise).
    pub per_class: Vec<ClassMovement>,
    /// Bytes moved by explicit relayouts (avoidable traffic).
    pub relayout_bytes: u64,
    /// Total bytes read by kernels (excluding relayouts).
    pub read_bytes: u64,
    /// Total bytes written by kernels (excluding relayouts).
    pub write_bytes: u64,
    /// Plan-level static MUE: `Q` sums every step's memlet volume, `D`
    /// the modelled moved words plus relayout traffic.
    pub plan_mue: Mue,
    /// How many steps the performance model could price.
    pub modelled_steps: usize,
    /// GEMM-epilogue chains still present in the graph (contraction +
    /// sole element-wise consumer the tile driver could collapse).
    pub epilogue_chains: usize,
    /// Bytes of movement those chains would eliminate (each interim's
    /// write plus read-back). Counted as pure movement — not algorithmic
    /// `Q` — so epilogue fusion lowers `D` while `Q` stays constant.
    pub epilogue_avoidable_bytes: u64,
}

impl MovementAudit {
    /// Total bytes the plan moves, kernels plus relayouts.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes + self.relayout_bytes
    }
}

/// Prices every step's data movement under its declared layouts via the
/// device model and aggregates per-class byte volumes plus a plan-level
/// static MUE — the paper's Sec. III accounting applied to a schedule,
/// with no kernel ever run.
///
/// Steps the model cannot price are assumed to move exactly their memlet
/// volume at the device's streaming efficiency (a perfect kernel), so
/// the aggregate errs toward optimism, never double-counting.
///
/// Words an un-collapsed GEMM-epilogue chain merely shuttles through its
/// eliminable intermediate (the contraction's write of it and the
/// consumer's read-back) are *not* algorithmic demand: they are counted
/// into `D` as pure movement instead of into `Q`. A plan that collapses
/// the chain into an [`OpKind::TileProgram`] therefore audits at the
/// same `Q` with strictly lower `D` — a strictly higher static MUE.
pub fn audit(graph: &Graph, plan: &ExecutionPlan, device: &DeviceSpec) -> MovementAudit {
    let wb = device.word_bytes as u64;
    let mut acc = MueAccum::default();
    let epi_chains = crate::fusion::detect_tiles(graph);
    let accounts = accounts_over(graph, plan, &epi_chains);
    let per_step: Vec<StepAudit> = (accounts.into_iter().zip(&plan.steps))
        .map(|(account, step)| {
            let cost = step_config(graph, step)
                .and_then(|cfg| OpModel::new(graph, step.op).ok().map(|m| (m, cfg)))
                .and_then(|(m, cfg)| m.cost(device, &cfg).ok());
            let mue = cost.as_ref().map(|c| mue(graph, step.op, c));
            let s = StepAudit { account, cost, mue };
            s.account.fold(
                &mut acc,
                &s.charged_cost(device),
                0,
                0,
                RELAYOUT_BANDWIDTH_FRAC,
            );
            s
        })
        .collect();
    let sum = |f: fn(&StepAccount) -> u64| per_step.iter().map(|s| f(&s.account)).sum::<u64>();
    let per_class = [
        OpClass::TensorContraction,
        OpClass::StatisticalNormalization,
        OpClass::Elementwise,
    ]
    .into_iter()
    .map(|class| {
        let rows = per_step
            .iter()
            .map(|s| &s.account)
            .filter(|a| a.class == class);
        let (mut steps, mut r, mut w, mut f) = (0usize, 0u64, 0u64, 0u64);
        for a in rows {
            steps += 1;
            r += a.read_words;
            w += a.write_words;
            f += a.flop;
        }
        ClassMovement {
            class,
            steps,
            read_bytes: r * wb,
            write_bytes: w * wb,
            flop: f,
        }
    })
    .collect();
    MovementAudit {
        relayout_bytes: sum(|a| a.relayout_words) * wb,
        read_bytes: sum(|a| a.read_words) * wb,
        write_bytes: sum(|a| a.write_words) * wb,
        modelled_steps: per_step.iter().filter(|s| s.cost.is_some()).count(),
        per_step,
        per_class,
        plan_mue: acc.total(),
        epilogue_chains: epi_chains.len(),
        epilogue_avoidable_bytes: crate::fusion::epilogue_interim_words(&epi_chains) * wb,
    }
}

/// Cross-checks a lowered plan against sweep data: flags steps whose
/// chosen layout pair is *dominated* — the step's primary output layout
/// is relayouted away before every later use (so its choice buys nothing
/// downstream), yet a strictly faster configuration with the same input
/// layout exists in the sweep.
pub fn lint_selection(
    graph: &Graph,
    plan: &ExecutionPlan,
    sweeps: &HashMap<NodeId, SweepResult>,
) -> Vec<PlanLint> {
    let mut lints = Vec::new();
    for (si, step) in plan.steps.iter().enumerate() {
        let Some(sweep) = sweeps.get(&step.op) else {
            continue;
        };
        let Some(inp) = step.inputs.get(sweep.flowing_input) else {
            continue;
        };
        // the sweep prices (flowing input, priced output) pairs: a first
        // output the configuration does not lay out has no pair
        let laid_out = outputs_laid_out(graph, step.op).first() == Some(&true);
        let Some(out) = step.outputs.first().filter(|_| laid_out) else {
            continue;
        };
        let Some(chosen) = sweep.per_io.get(&(inp.layout, out.layout)) else {
            continue;
        };
        // does any later step consume the output in the chosen layout?
        let consumed_as_is = plan.steps[si + 1..].iter().any(|later| {
            later
                .inputs
                .iter()
                .any(|i| i.data == out.data && i.layout == out.layout)
        });
        let read_later = plan.steps[si + 1..]
            .iter()
            .any(|later| later.inputs.iter().any(|i| i.data == out.data));
        if consumed_as_is || !read_later {
            continue;
        }
        let better = sweep
            .per_io
            .iter()
            .filter(|((i, o), _)| *i == inp.layout && *o != out.layout)
            .min_by(|a, b| a.1.time_us.total_cmp(&b.1.time_us));
        if let Some(((_, better_out), timing)) = better {
            if timing.time_us < chosen.time_us * 0.999 {
                lints.push(PlanLint::DominatedLayout {
                    step: si,
                    name: step.name.clone(),
                    chosen_us: chosen.time_us,
                    better_us: timing.time_us,
                    better_out: layout_spec(graph, out.data, *better_out),
                });
            }
        }
    }
    lints
}

/// Renders a human-readable audit report for one plan: schedule shape,
/// parallel waves, peak residency, per-class byte volumes, static MUE,
/// and every lint. This is what `repro audit` prints.
pub fn render_report(
    title: &str,
    analysis: &PlanAnalysis,
    audit: &MovementAudit,
    device: &DeviceSpec,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let waves = analysis.parallel_waves();
    let max_width = waves.iter().map(Vec::len).max().unwrap_or(0);
    let mib = |b: u64| b as f64 / (1 << 20) as f64;
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "schedule: {} steps, {} hazard edges, {} waves (max width {max_width})",
        analysis.n_steps,
        analysis.deps.len(),
        waves.len(),
    );
    let peak_name = audit
        .per_step
        .get(analysis.peak_step)
        .map(|s| s.account.name.as_str())
        .unwrap_or("-");
    let _ = writeln!(
        out,
        "peak resident: {:.2} MiB at step {} (`{peak_name}`), slab-owned and borrowed",
        mib(analysis.peak_resident_bytes(device.word_bytes)),
        analysis.peak_step,
    );
    let per_wave = analysis.wave_resident_words();
    let (peak_wave, peak_wave_words) = analysis.peak_wave_resident_words();
    let _ = writeln!(
        out,
        "wave resident: peak {:.2} MiB at wave {peak_wave} of {}",
        mib(peak_wave_words * device.word_bytes as u64),
        per_wave.len(),
    );
    let _ = write!(out, "  per wave (MiB):");
    for w in &per_wave {
        let _ = write!(out, " {:.2}", mib(w * device.word_bytes as u64));
    }
    let _ = writeln!(out);
    let total = audit.total_bytes().max(1);
    let _ = writeln!(out, "per-class movement:");
    for c in &audit.per_class {
        let _ = writeln!(
            out,
            "  {} {:<28} {:2} steps  read {:>8.2} MiB  written {:>8.2} MiB  ({:4.1}% of bytes)",
            c.class.glyph(),
            c.class.to_string(),
            c.steps,
            mib(c.read_bytes),
            mib(c.write_bytes),
            100.0 * c.io_bytes() as f64 / total as f64,
        );
    }
    let _ = writeln!(
        out,
        "  ↺ {:<28} {:2} steps  moved {:>8.2} MiB  ({:4.1}% of bytes)",
        "relayouts (avoidable)",
        audit
            .per_step
            .iter()
            .filter(|s| s.account.relayout_words > 0)
            .count(),
        mib(audit.relayout_bytes),
        100.0 * audit.relayout_bytes as f64 / total as f64,
    );
    if audit.epilogue_chains > 0 {
        let _ = writeln!(
            out,
            "  ⇘ {:<28} {:2} chains moved {:>8.2} MiB  ({:4.1}% of bytes)",
            "gemm-epilogue (avoidable)",
            audit.epilogue_chains,
            mib(audit.epilogue_avoidable_bytes),
            100.0 * audit.epilogue_avoidable_bytes as f64 / total as f64,
        );
    }
    let m = &audit.plan_mue;
    let _ = writeln!(
        out,
        "static MUE: Q {:.2} Mwords, D {:.2} Mwords, B/B̂ {:.2} → {:.1} ({} of {} steps modelled)",
        m.q_words / 1e6,
        m.d_words / 1e6,
        m.bandwidth_frac,
        m.value,
        audit.modelled_steps,
        analysis.n_steps,
    );
    let errors = analysis.errors().len();
    let warnings = analysis
        .lints
        .iter()
        .filter(|l| l.severity() == Severity::Warning)
        .count();
    let _ = writeln!(out, "lints: {errors} errors, {warnings} warnings");
    for lint in &analysis.lints {
        let _ = writeln!(out, "  [{}] {lint}", lint.severity());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::{apply_plan, encoder_fusion_plan};
    use crate::plan::testing::reversed;
    use crate::plan::Relayout;
    use crate::recipe::forward_ops;
    use xform_dataflow::{build, EncoderDims};

    fn unfused() -> (Graph, ExecutionPlan) {
        let eg = build::encoder(&EncoderDims::tiny());
        let plan = ExecutionPlan::natural(&eg.graph, &forward_ops(&eg.graph, eg.dy)).unwrap();
        (eg.graph, plan)
    }

    fn fused() -> (Graph, ExecutionPlan) {
        let eg = build::encoder(&EncoderDims::tiny());
        let mut g = eg.graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        let plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
        (g, plan)
    }

    #[test]
    fn canned_plans_are_error_clean() {
        for (g, plan) in [unfused(), fused()] {
            let a = analyze(&g, &plan);
            assert!(a.is_clean(), "{:?}", a.errors());
        }
    }

    #[test]
    fn reference_plan_reports_missed_fusion_but_fused_does_not() {
        let (g, plan) = unfused();
        let a = analyze(&g, &plan);
        assert!(
            a.lints
                .iter()
                .any(|l| matches!(l, PlanLint::MissedFusion { .. })),
            "the unfused schedule should show fusable element-wise chains"
        );
        let (gf, pf) = fused();
        let af = analyze(&gf, &pf);
        assert!(
            !af.lints
                .iter()
                .any(|l| matches!(l, PlanLint::MissedFusion { .. })),
            "{:?}",
            af.lints
        );
    }

    #[test]
    fn waves_cover_every_step_and_respect_all_hazards() {
        for (g, plan) in [unfused(), fused()] {
            let a = analyze(&g, &plan);
            let waves = a.parallel_waves();
            let mut seen: Vec<usize> = waves.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..plan.steps.len()).collect::<Vec<_>>());
            let wave_of = a.wave_of();
            for e in &a.deps {
                assert!(
                    wave_of[e.from] < wave_of[e.to],
                    "{:?} not respected by waves",
                    e
                );
            }
        }
    }

    #[test]
    fn unfused_plan_has_parallel_width() {
        // the three Q/K/V projections are independent: some wave must hold
        // more than one step
        let (g, plan) = unfused();
        let a = analyze(&g, &plan);
        assert!(a.parallel_waves().iter().any(|w| w.len() >= 2));
    }

    #[test]
    fn liveness_peak_is_at_least_the_largest_buffer() {
        let (g, plan) = unfused();
        let a = analyze(&g, &plan);
        assert_eq!(a.resident_words.len(), plan.steps.len());
        let largest = a.liveness.iter().map(|b| b.words).max().unwrap();
        assert!(a.peak_resident_words >= largest);
        assert_eq!(
            a.resident_words[a.peak_step], a.peak_resident_words,
            "peak step disagrees with the resident curve"
        );
        // saved tensors stay resident to the end
        let saved = a
            .liveness
            .iter()
            .find(|b| b.role == DataRole::Saved)
            .expect("forward plans save tensors for backward");
        assert_eq!(saved.end, plan.steps.len() - 1);
    }

    #[test]
    fn shuffled_schedule_is_caught() {
        let (g, mut plan) = unfused();
        // move the last step first: it consumes activations produced later
        let last = plan.steps.pop().unwrap();
        plan.steps.insert(0, last);
        let a = analyze(&g, &plan);
        assert!(a
            .lints
            .iter()
            .any(|l| matches!(l, PlanLint::UseBeforeDef { .. })));
        assert!(!a.is_clean());
    }

    #[test]
    fn duplicated_write_is_caught() {
        let (g, mut plan) = unfused();
        let dup = plan.steps[3].clone();
        plan.steps.insert(4, dup);
        let a = analyze(&g, &plan);
        assert!(
            a.lints
                .iter()
                .any(|l| matches!(l, PlanLint::DoubleWrite { .. })),
            "{:?}",
            a.lints
        );
    }

    #[test]
    fn orphan_and_redundant_relayouts_are_caught() {
        let (g, mut plan) = unfused();
        let foreign = plan.steps[5].outputs[0].clone();
        let own = plan.steps[1].inputs[0].clone();
        plan.steps[1].relayouts.push(Relayout {
            data: foreign.data,
            name: foreign.name.clone(),
            from: foreign.layout,
            to: foreign.layout,
        });
        plan.steps[1].relayouts.push(Relayout {
            data: own.data,
            name: own.name.clone(),
            from: own.layout,
            to: own.layout,
        });
        let a = analyze(&g, &plan);
        assert!(a
            .lints
            .iter()
            .any(|l| matches!(l, PlanLint::OrphanRelayout { .. })));
        assert!(a
            .lints
            .iter()
            .any(|l| matches!(l, PlanLint::RedundantRelayout { .. })));
    }

    #[test]
    fn audit_prices_canned_plans_and_fusion_reduces_movement() {
        let device = DeviceSpec::v100();
        let (gu, pu) = unfused();
        let (gf, pf) = fused();
        let au = audit(&gu, &pu, &device);
        let af = audit(&gf, &pf, &device);
        assert!(au.modelled_steps > 0);
        assert!((0.0..=100.0).contains(&au.plan_mue.value));
        assert!((0.0..=100.0).contains(&af.plan_mue.value));
        assert!(
            af.total_bytes() < au.total_bytes(),
            "fusion must reduce plan bytes ({} vs {})",
            af.total_bytes(),
            au.total_bytes()
        );
        // class shares cover all steps
        let counted: usize = au.per_class.iter().map(|c| c.steps).sum();
        assert_eq!(counted, pu.steps.len());
    }

    #[test]
    fn epilogue_fusion_lowers_d_with_q_constant() {
        let device = DeviceSpec::v100();
        let (gf, pf) = fused();
        let af = audit(&gf, &pf, &device);
        assert!(af.epilogue_chains >= 2, "chains: {}", af.epilogue_chains);
        assert!(af.epilogue_avoidable_bytes > 0);
        let mut ge = gf.clone();
        let eg = build::encoder(&EncoderDims::tiny());
        crate::fusion::apply_epilogues(&mut ge).unwrap();
        let pe = ExecutionPlan::natural(&ge, &forward_ops(&ge, eg.dy)).unwrap();
        let ae = audit(&ge, &pe, &device);
        // what is left is the region pass's to collapse: QKT → SM
        assert_eq!(ae.epilogue_chains, 1);
        let collapsed = af.epilogue_avoidable_bytes - ae.epilogue_avoidable_bytes;
        assert!(collapsed > 0);
        // collapsing the chains removes pure movement, not algorithmic
        // demand: Q identical, D strictly lower, MUE strictly higher.
        let (mf, me) = (&af.plan_mue, &ae.plan_mue);
        assert!(
            (mf.q_words - me.q_words).abs() < 0.5,
            "Q changed: {} vs {}",
            mf.q_words,
            me.q_words
        );
        assert!(
            me.d_words < mf.d_words,
            "D must drop: {} vs {}",
            me.d_words,
            mf.d_words
        );
        assert!(me.value > mf.value, "MUE: {} vs {}", me.value, mf.value);
        // and the drop covers (at least) the avoidable interim traffic;
        // it may exceed it slightly when the mega-kernel's memlet floor
        // absorbs the GEMM model's excess k-pass traffic
        let wb = device.word_bytes as f64;
        let drop_bytes = (mf.d_words - me.d_words) * wb;
        assert!(
            drop_bytes + wb >= collapsed as f64,
            "D drop {drop_bytes} bytes vs avoidable {collapsed}"
        );
    }

    #[test]
    fn relayouts_lower_static_mue() {
        let device = DeviceSpec::v100();
        let (g, plan) = unfused();
        let base = audit(&g, &plan, &device);
        let mut permuted = plan.clone();
        for step in &mut permuted.steps {
            for operand in step.inputs.iter_mut().chain(step.outputs.iter_mut()) {
                operand.layout = reversed(operand.layout);
            }
        }
        permuted.reflow(&g);
        assert!(analyze(&g, &permuted).is_clean());
        let moved = audit(&g, &permuted, &device);
        assert!(moved.relayout_bytes > 0);
        assert!(moved.plan_mue.value < base.plan_mue.value);
        assert!(moved.plan_mue.d_words > base.plan_mue.d_words);
    }

    #[test]
    fn report_renders_all_sections() {
        let device = DeviceSpec::v100();
        let (g, plan) = fused();
        let a = analyze(&g, &plan);
        let m = audit(&g, &plan, &device);
        let r = render_report("Fused", &a, &m, &device);
        for needle in [
            "== Fused ==",
            "peak resident",
            "per-class movement",
            "tensor contraction",
            "static MUE",
            "lints:",
        ] {
            assert!(r.contains(needle), "report lacks `{needle}`:\n{r}");
        }
    }
}
