//! The static-arena interpreter: certified plans lowered onto one
//! preallocated slab.
//!
//! [`CompiledArena::compile`] takes a plan that already passed the static
//! analyzer, colors its buffer-liveness intervals into slab offsets with
//! [`crate::analyze::assign_arena`], proves the coloring respects liveness
//! with [`crate::sanitize::certify_arena`], and precompiles every step
//! into a `StepExec` descriptor over raw slab views. Execution then
//! walks the descriptors through the zero-allocation `*_into` kernels of
//! [`xform_tensor::into_ops`] — no tensors are built, no heap is touched.
//!
//! Three execution modes share one compiled arena:
//!
//! * **serial** — steps in schedule order, one per wave at
//!   [`ArenaGranularity::Serial`];
//! * **wave-parallel** — waves dispatched across a lazily-spawned
//!   persistent worker pool (scoped-thread spawning would allocate per
//!   call), bitwise-equal to the serial arena run at any thread count
//!   because every step draws from its own seeded RNG stream;
//! * **sanitized** — the aliasing-aware shadow mode: the slab is poisoned
//!   with NaN, each buffer is re-poisoned the moment its certified live
//!   interval ends, and every step's outputs are checked finite, so a
//!   read of a dead (reused) buffer surfaces as an error instead of
//!   silent corruption.
//!
//! Compilation is conservative: any step the arena cannot prove it
//! reproduces bitwise (non-natural operand layouts, relayout insertions,
//! unexpected operand counts) makes [`CompiledArena::compile`] return
//! `Ok(None)`, and callers fall back to the allocating interpreter.
//! Arithmetic on the supported set is mirrored statement-for-statement,
//! so with dropout disabled arena results are bitwise-identical to
//! [`crate::plan::execute_plan`].

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

use rand::Rng;

use xform_dataflow::{DataRole, Graph, NodeId, OpKind};
use xform_tensor::into_ops::{self, BiasMap, CausalMap, ContractPlan, LaneGeom};
use xform_tensor::lanes::{check_dropout_p, Dropout};
use xform_tensor::ops::elementwise::ActivationKind;
use xform_tensor::ops::layernorm::LayerNormStats;
use xform_tensor::{Axis, Layout, Result, Shape, Tensor, TensorError};

use crate::access::AccessCertificate;
use crate::analyze::{ArenaGranularity, PlanAnalysis};
use crate::plan::{
    classify_fused, epilogue_geometry, stacked_carve_start, ExecState, ExecutionPlan, FusedClass,
    PlanStep,
};
use crate::sanitize::{certify_arena, step_rng, ArenaCertificate};

/// One contiguous word range of the slab (or of the scratch/stats
/// buffers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BufView {
    off: usize,
    len: usize,
}

/// A precompiled step: every operand resolved to a slab view, every lane
/// decomposition and broadcast map baked in. Executing one of these
/// touches no heap.
#[derive(Debug, Clone)]
enum StepExec {
    /// Two-operand einsum: serial per-batch GEMMs straight through the
    /// plan's strided views of the operand and output slab ranges; the
    /// scratch at `s_off` holds only the packs of operands the plan has to
    /// gather (none for the canned plans).
    Contract {
        a: BufView,
        b: BufView,
        out: BufView,
        plan: ContractPlan,
        s_off: usize,
    },
    /// Broadcast bias add; `x` is pre-carved for stacked-Q/K/V steps.
    Bias {
        x: BufView,
        bias: BufView,
        out: BufView,
        bmap: BiasMap,
    },
    /// Fused AIB: all three Q/K/V biases over one stacked projection.
    InputBias {
        parts: Vec<(BufView, BufView, BufView, BiasMap)>,
    },
    Scale {
        x: BufView,
        out: BufView,
    },
    /// Unfused scale-folded softmax, causal for the masked variant.
    Softmax {
        x: BufView,
        out: BufView,
        lane: LaneGeom,
        causal: Option<CausalMap>,
    },
    /// Fused SM (scale + softmax + dropout), causal for decoders.
    Sm {
        x: BufView,
        softmax: BufView,
        alpha: BufView,
        mask: BufView,
        lane: LaneGeom,
        causal: Option<CausalMap>,
    },
    LayerNorm {
        x: BufView,
        gamma: BufView,
        beta: BufView,
        out: BufView,
        lane: LaneGeom,
        mean: BufView,
        inv_std: BufView,
    },
    Dropout {
        x: BufView,
        out: BufView,
        mask: BufView,
    },
    Activate {
        x: BufView,
        out: BufView,
    },
    Residual {
        a: BufView,
        b: BufView,
        out: BufView,
    },
    /// Fused BDRLN.
    Bdrln {
        x: BufView,
        bias: BufView,
        bmap: BiasMap,
        residual: BufView,
        gamma: BufView,
        beta: BufView,
        mask: BufView,
        ln_input: BufView,
        out: BufView,
        lane: LaneGeom,
        mean: BufView,
        inv_std: BufView,
    },
    /// Fused BRD (bias + activation + dropout).
    BrdAct {
        x: BufView,
        bias: BufView,
        bmap: BiasMap,
        pre_activation: BufView,
        out: BufView,
        mask: BufView,
    },
    /// Fused BDR (bias + dropout + residual, no norm).
    Bdr {
        x: BufView,
        bias: BufView,
        bmap: BiasMap,
        residual: BufView,
        mask: BufView,
        out: BufView,
    },
    /// GEMM-epilogue mega-kernel: pack each batch slice's B panels once,
    /// stream the GEMM in row tiles and apply the epilogue per tile. The
    /// contraction output lives only in the `tile_rows · n` tile inside the
    /// scratch at `s_off` — it has no slab slot.
    ContractEpilogue {
        a: BufView,
        b: BufView,
        plan: ContractPlan,
        tile_rows: usize,
        s_off: usize,
        epi: EpiExec,
    },
}

/// The baked per-tile epilogue of a [`StepExec::ContractEpilogue`] step.
#[derive(Debug, Clone)]
enum EpiExec {
    /// Scaled (optionally causal) softmax + dropout.
    Sm {
        softmax: BufView,
        alpha: BufView,
        mask: BufView,
        causal: Option<CausalMap>,
    },
    /// Bias + activation + dropout.
    BrdAct {
        bias: BufView,
        /// Tile bias map `[(n, m, 1)]`, built at compile time so the
        /// steady-state path stays allocation-free.
        bmap: into_ops::BiasMap,
        pre_activation: BufView,
        out: BufView,
        mask: BufView,
    },
    /// Bias + dropout + residual.
    Bdr {
        bias: BufView,
        /// Tile bias map `[(n, m, 1)]`, as in [`EpiExec::BrdAct`].
        bmap: into_ops::BiasMap,
        residual: BufView,
        mask: BufView,
        out: BufView,
    },
}

/// An external input the caller binds into the slab before execution.
#[derive(Debug, Clone)]
struct ExternalBind {
    name: String,
    view: BufView,
    /// Persistent cross-call state ([`DataRole::Cache`]): the slab range
    /// survives between executions — the initial sanitizer poison skips
    /// it, and a bind callback may decline it (returning `false`) to keep
    /// the resident contents instead of aborting the run.
    persistent: bool,
}

/// An output (or saved activation) materialized out of the slab after
/// execution.
#[derive(Debug, Clone)]
struct MaterializeSpec {
    name: String,
    shape: Shape,
    view: BufView,
    saved: bool,
}

/// A layer-norm statistics region surfaced after execution, keyed by the
/// norm's output container name like the allocating interpreter's stats
/// side channel.
#[derive(Debug, Clone)]
struct StatsSpec {
    name: String,
    mean: BufView,
    inv_std: BufView,
}

/// The slab, contraction scratch, and layer-norm statistics storage of one
/// arena, reused across calls under a mutex.
#[derive(Debug)]
struct ArenaBuffers {
    slab: Vec<f32>,
    scratch: Vec<f32>,
    stats: Vec<f32>,
}

/// Raw views of one [`ArenaBuffers`], copyable into worker threads. The
/// arena certificate makes concurrent use sound: steps sharing a wave
/// write disjoint slab ranges (their outputs' live intervals all start at
/// that wave, so the certifier proved them range-disjoint), scratch and
/// stats regions are disjoint per step by construction, and reads of
/// shared inputs are read-only.
#[derive(Debug, Clone, Copy)]
struct SlabMem {
    slab: *mut f32,
    scratch: *mut f32,
    stats: *mut f32,
}

unsafe impl Send for SlabMem {}
unsafe impl Sync for SlabMem {}

impl SlabMem {
    fn new(bufs: &mut ArenaBuffers) -> SlabMem {
        SlabMem {
            slab: bufs.slab.as_mut_ptr(),
            scratch: bufs.scratch.as_mut_ptr(),
            stats: bufs.stats.as_mut_ptr(),
        }
    }

    unsafe fn slab<'a>(self, v: BufView) -> &'a [f32] {
        unsafe { std::slice::from_raw_parts(self.slab.add(v.off), v.len) }
    }

    unsafe fn slab_mut<'a>(self, v: BufView) -> &'a mut [f32] {
        unsafe { std::slice::from_raw_parts_mut(self.slab.add(v.off), v.len) }
    }

    unsafe fn scratch_mut<'a>(self, off: usize, len: usize) -> &'a mut [f32] {
        unsafe { std::slice::from_raw_parts_mut(self.scratch.add(off), len) }
    }

    unsafe fn stats_mut<'a>(self, v: BufView) -> &'a mut [f32] {
        unsafe { std::slice::from_raw_parts_mut(self.stats.add(v.off), v.len) }
    }
}

/// Scalar knobs for one arena execution (the arena-side mirror of
/// [`crate::plan::ExecOptions`]).
#[derive(Debug, Clone, Copy)]
pub struct ArenaRun {
    /// Dropout probability (`0` draws nothing).
    pub dropout_p: f32,
    /// Activation behind generic activation nodes.
    pub activation: ActivationKind,
    /// Scale folded into the softmax kernels.
    pub scaler: f32,
    /// Base seed; each step draws from its own derived stream, so results
    /// are identical at any thread count.
    pub seed: u64,
    /// Worker threads: `<= 1` runs serially; more dispatches each wave
    /// across the persistent pool (requires a waves-granularity arena).
    pub threads: usize,
    /// Run the aliasing-aware shadow sanitizer (poison + finiteness
    /// checks).
    pub sanitize: bool,
    /// Absolute sequence position of the run's first query column: every
    /// causal softmax's visibility window shifts by this (decode steps set
    /// it to the current token position; full-sequence runs leave it 0).
    pub pos: usize,
}

/// Why an arena execution did or did not happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaOutcome {
    /// The plan executed out of the slab.
    Ran,
    /// The arena was unavailable (buffers busy in another thread, an
    /// external failed to bind, or the thread/granularity combination
    /// does not match) — the caller should fall back to the allocating
    /// interpreter.
    Busy,
}

/// One artifact surfaced to the sink after an arena execution. Borrows
/// slab storage, so sinks that only copy into preallocated destinations
/// keep the whole call allocation-free.
#[derive(Debug)]
pub enum ArenaArtifact<'a> {
    /// A produced output (or saved activation) container.
    Tensor {
        /// Container name.
        name: &'a str,
        /// `true` for saved-for-backward activations, `false` for
        /// outputs.
        saved: bool,
        /// The container's logical shape; data is dense row-major.
        shape: &'a Shape,
        /// The container's words in the slab.
        data: &'a [f32],
    },
    /// Per-lane layer-norm statistics, keyed by the norm's output
    /// container name.
    Stats {
        /// The norm's output container name.
        name: &'a str,
        /// Per-lane means.
        mean: &'a [f32],
        /// Per-lane inverse standard deviations.
        inv_std: &'a [f32],
    },
}

/// A certified plan compiled onto a static arena. Build one with
/// [`CompiledArena::compile`]; execute with
/// [`CompiledArena::execute_bound`] (zero-allocation entry) or
/// [`CompiledArena::run_with_state`] (drop-in for the allocating
/// interpreters' `ExecState`).
#[derive(Debug)]
pub struct CompiledArena {
    granularity: ArenaGranularity,
    cert: ArenaCertificate,
    access: AccessCertificate,
    slab_words: usize,
    scratch_words: usize,
    stats_words: usize,
    steps: Vec<StepExec>,
    step_names: Vec<String>,
    step_outputs: Vec<Vec<BufView>>,
    waves: Vec<Vec<usize>>,
    retire: Vec<Vec<BufView>>,
    externals: Vec<ExternalBind>,
    /// Slab spans the sanitizer may poison before a run: the complement
    /// of the persistent (cache) ranges, which hold live cross-call state.
    poison_spans: Vec<BufView>,
    outputs: Vec<MaterializeSpec>,
    stats_out: Vec<StatsSpec>,
    buffers: Mutex<ArenaBuffers>,
}

/// Row-major strides for a shape.
fn rm_strides(shape: &Shape) -> Vec<usize> {
    Layout::row_major(shape.rank()).strides(shape)
}

/// `true` when every operand of every step is declared in its container's
/// natural (logical row-major) layout and no relayouts were inserted —
/// the precondition for executing out of dense row-major slab views.
fn plan_is_row_major(graph: &Graph, plan: &ExecutionPlan) -> bool {
    plan.steps.iter().all(|step| {
        step.relayouts.is_empty()
            && step.inputs.iter().chain(&step.outputs).all(|o| {
                graph
                    .data(o.data)
                    .is_some_and(|d| d.shape.spec() == o.layout)
            })
    })
}

/// Broadcast map from `out`'s row-major geometry to `bias`'s row-major
/// geometry; `None` when a bias axis is absent from the output.
fn bias_map(out: &Shape, bias: &Shape) -> Option<BiasMap> {
    let out_strides = rm_strides(out);
    let bias_strides = rm_strides(bias);
    let mut dims = Vec::with_capacity(bias.rank());
    for (bi, &ax) in bias.axes().iter().enumerate() {
        let p = out.index_of(ax).ok()?;
        if out.sizes()[p] != bias.sizes()[bi] {
            return None;
        }
        dims.push((out_strides[p], out.sizes()[p], bias_strides[bi]));
    }
    Some(BiasMap { dims })
}

/// Lane decomposition of `shape` along `axis`.
fn lane_of(shape: &Shape, axis: Axis) -> Option<LaneGeom> {
    let ai = shape.index_of(axis).ok()?;
    Some(LaneGeom::new(shape.sizes(), ai))
}

/// Causal-query recovery for a masked softmax along `axis` of `shape`:
/// the query axis is the one immediately preceding the softmax axis, so
/// it is always part of a lane's `pre` coordinate.
fn causal_of(shape: &Shape, axis: Axis) -> Option<CausalMap> {
    let ai = shape.index_of(axis).ok()?;
    let q = crate::plan::causal_query_axis(shape, axis).ok()?;
    let qi = shape.index_of(q).ok()?;
    if qi >= ai {
        return None;
    }
    let div: usize = shape.sizes()[qi + 1..ai].iter().product();
    Some(CausalMap {
        div,
        len: shape.sizes()[qi],
        base: 0,
    })
}

impl CompiledArena {
    /// Lowers an analyzed plan onto a static arena at the given
    /// granularity.
    ///
    /// Returns `Ok(None)` when the plan is outside the arena's supported
    /// set (non-natural operand layouts, relayout insertions, operator
    /// kinds or operand counts the precompiler does not model) — callers
    /// fall back to the allocating interpreter.
    ///
    /// # Errors
    ///
    /// Returns an error when the arena *coloring* cannot be certified
    /// ([`crate::sanitize::certify_arena`] found aliasing between
    /// simultaneously-live buffers) — an internal invariant violation,
    /// not a fallback condition.
    pub fn compile(
        graph: &Graph,
        plan: &ExecutionPlan,
        analysis: &PlanAnalysis,
        granularity: ArenaGranularity,
    ) -> Result<Option<CompiledArena>> {
        if !plan_is_row_major(graph, plan) {
            return Ok(None);
        }
        let assignment = crate::analyze::assign_arena(analysis, granularity);
        let cert = certify_arena(plan, &assignment).map_err(|lints| {
            TensorError::Unsupported(format!(
                "arena coloring failed certification: {}",
                lints
                    .iter()
                    .map(|l| l.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            ))
        })?;
        let access =
            crate::access::certify_access_arena(graph, plan, &assignment).map_err(|lints| {
                TensorError::Unsupported(format!(
                    "arena access paths failed certification: {}",
                    lints
                        .iter()
                        .map(|l| l.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                ))
            })?;

        let view_of: HashMap<NodeId, BufView> = assignment
            .slots
            .iter()
            .map(|s| {
                (
                    s.data,
                    BufView {
                        off: s.offset as usize,
                        len: s.words as usize,
                    },
                )
            })
            .collect();

        let waves: Vec<Vec<usize>> = match granularity {
            ArenaGranularity::Serial => (0..plan.steps.len()).map(|i| vec![i]).collect(),
            ArenaGranularity::Waves => analysis.parallel_waves(),
        };

        let mut steps = Vec::with_capacity(plan.steps.len());
        let mut stats_words = 0usize;
        let mut stats_out = Vec::new();
        for step in &plan.steps {
            let Some(exec) = compile_step(graph, step, &view_of, &mut stats_words, &mut stats_out)?
            else {
                return Ok(None);
            };
            steps.push(exec);
        }

        // per-wave cumulative scratch offsets for the contraction steps;
        // the high-water mark over waves sizes the scratch allocation
        let mut scratch_words = 0usize;
        for wave in &waves {
            let mut acc = 0usize;
            for &si in wave {
                match &mut steps[si] {
                    StepExec::Contract {
                        plan: cp, s_off, ..
                    } => {
                        *s_off = acc;
                        acc += cp.scratch_words();
                    }
                    StepExec::ContractEpilogue {
                        plan: cp,
                        tile_rows,
                        s_off,
                        ..
                    } => {
                        *s_off = acc;
                        acc += cp.epilogue_scratch_words(*tile_rows);
                    }
                    _ => {}
                }
            }
            scratch_words = scratch_words.max(acc);
        }

        let step_outputs: Vec<Vec<BufView>> = plan
            .steps
            .iter()
            .map(|step| {
                step.outputs
                    .iter()
                    .filter_map(|o| view_of.get(&o.data).copied())
                    .collect()
            })
            .collect();

        let mut retire: Vec<Vec<BufView>> = vec![Vec::new(); waves.len()];
        let last = waves.len().saturating_sub(1);
        for slot in &assignment.slots {
            if slot.end < last {
                retire[slot.end].push(BufView {
                    off: slot.offset as usize,
                    len: slot.words as usize,
                });
            }
        }

        let mut externals = Vec::new();
        let mut outputs = Vec::new();
        for b in &analysis.liveness {
            let Some(&view) = view_of.get(&b.data) else {
                return Ok(None);
            };
            if b.def.is_none() {
                externals.push(ExternalBind {
                    name: b.name.clone(),
                    view,
                    persistent: b.role == DataRole::Cache,
                });
            }
            if matches!(b.role, DataRole::Output | DataRole::Saved) {
                let Some(d) = graph.data(b.data) else {
                    return Ok(None);
                };
                outputs.push(MaterializeSpec {
                    name: b.name.clone(),
                    shape: d.shape.clone(),
                    view,
                    saved: b.role == DataRole::Saved,
                });
            }
        }

        let slab_words = assignment.slab_words as usize;

        // sanitizer poison spans: the whole slab minus persistent ranges
        let mut persist: Vec<(usize, usize)> = externals
            .iter()
            .filter(|e| e.persistent)
            .map(|e| (e.view.off, e.view.off + e.view.len))
            .collect();
        persist.sort_unstable();
        let mut poison_spans = Vec::new();
        let mut cur = 0usize;
        for (s, e) in persist {
            if s > cur {
                poison_spans.push(BufView {
                    off: cur,
                    len: s - cur,
                });
            }
            cur = cur.max(e);
        }
        if cur < slab_words {
            poison_spans.push(BufView {
                off: cur,
                len: slab_words - cur,
            });
        }

        Ok(Some(CompiledArena {
            granularity,
            cert,
            access,
            slab_words,
            scratch_words,
            stats_words,
            step_names: plan.steps.iter().map(|s| s.name.clone()).collect(),
            steps,
            step_outputs,
            waves,
            retire,
            externals,
            poison_spans,
            outputs,
            stats_out,
            buffers: Mutex::new(ArenaBuffers {
                slab: vec![0.0; slab_words],
                scratch: vec![0.0; scratch_words],
                stats: vec![0.0; stats_words],
            }),
        }))
    }

    /// The execution order this arena's coloring is valid for.
    pub fn granularity(&self) -> ArenaGranularity {
        self.granularity
    }

    /// The certificate proving the coloring respects liveness.
    pub fn certificate(&self) -> &ArenaCertificate {
        &self.cert
    }

    /// The certificate proving every step's access paths in-bounds and
    /// alias-free within the slab.
    pub fn access_certificate(&self) -> &AccessCertificate {
        &self.access
    }

    /// Slab size in words — the arena's high-water mark.
    pub fn slab_words(&self) -> usize {
        self.slab_words
    }

    /// Contraction scratch words held alongside the slab: the epilogue
    /// steps' packed B panels and output tiles, plus the pack of any
    /// operand a contraction plan has to gather.
    pub fn scratch_words(&self) -> usize {
        self.scratch_words
    }

    /// Layer-norm statistics words held alongside the slab.
    pub fn stats_words(&self) -> usize {
        self.stats_words
    }

    /// Slab size in bytes at f32 width.
    pub fn slab_bytes(&self) -> usize {
        self.slab_words * 4
    }

    /// Cheap structural guard that `plan` is the schedule this arena was
    /// compiled from (same step count and kernel names, in order). The
    /// certificate's fingerprint is authoritative but hashing allocates;
    /// this check is allocation-free for the steady-state path.
    pub fn matches(&self, plan: &ExecutionPlan) -> bool {
        self.step_names.len() == plan.steps.len()
            && self
                .step_names
                .iter()
                .zip(&plan.steps)
                .all(|(n, s)| n == &s.name)
    }

    /// Runs `f` over the resident slab region of the external container
    /// `name` (dense row-major). Returns `None` when no external of that
    /// name exists or the buffers are locked by a concurrent run.
    ///
    /// This is the read half of the cross-call residency surface: decode
    /// sessions use it to migrate cache contents between arenas when a
    /// position bucket grows.
    pub fn with_external<R>(&self, name: &str, f: impl FnOnce(&[f32]) -> R) -> Option<R> {
        let e = self.externals.iter().find(|e| e.name == name)?;
        let guard = self.buffers.try_lock().ok()?;
        Some(f(&guard.slab[e.view.off..e.view.off + e.view.len]))
    }

    /// Runs `f` over the mutable resident slab region of the external
    /// container `name`. Returns `None` when no external of that name
    /// exists or the buffers are locked by a concurrent run.
    ///
    /// This is the write half of the cross-call residency surface: decode
    /// sessions append one new cache column per step through a
    /// bounds-checked [`crate::access::column_span`] license before the
    /// attend plan runs.
    pub fn with_external_mut<R>(&self, name: &str, f: impl FnOnce(&mut [f32]) -> R) -> Option<R> {
        let e = self.externals.iter().find(|e| e.name == name)?;
        let mut guard = self.buffers.try_lock().ok()?;
        Some(f(&mut guard.slab[e.view.off..e.view.off + e.view.len]))
    }

    /// Executes the compiled plan with caller-provided binding and
    /// materialization, touching no heap on the steady-state path.
    ///
    /// `bind` is called once per external input with the container name
    /// and its (dense row-major) slab destination; returning `false`
    /// aborts with [`ArenaOutcome::Busy`] (the caller falls back to the
    /// allocating interpreter). `sink` is called once per output/saved
    /// container and per layer-norm statistics region after the run;
    /// artifacts borrow slab storage, so copying sinks stay
    /// allocation-free.
    ///
    /// Returns [`ArenaOutcome::Busy`] without executing when the buffers
    /// are locked by a concurrent run or the thread/granularity
    /// combination does not match.
    ///
    /// # Errors
    ///
    /// Returns an error when `run.dropout_p` is outside `[0, 1)`, a worker
    /// panics, or the shadow sanitizer detects a non-finite output (a read
    /// of a dead, reused buffer).
    pub fn execute_bound(
        &self,
        run: &ArenaRun,
        bind: &mut dyn FnMut(&str, &mut [f32]) -> bool,
        sink: &mut dyn FnMut(ArenaArtifact<'_>),
    ) -> Result<ArenaOutcome> {
        check_dropout_p(run.dropout_p)?;
        if run.threads > 1 && self.granularity != ArenaGranularity::Waves {
            return Ok(ArenaOutcome::Busy);
        }
        let Ok(mut guard) = self.buffers.try_lock() else {
            return Ok(ArenaOutcome::Busy);
        };
        let bufs = &mut *guard;
        if run.sanitize {
            // poison everything except persistent (cache) ranges, whose
            // resident contents must survive between calls
            for span in &self.poison_spans {
                for v in &mut bufs.slab[span.off..span.off + span.len] {
                    *v = f32::NAN;
                }
            }
        }
        for e in &self.externals {
            let dst = &mut bufs.slab[e.view.off..e.view.off + e.view.len];
            if !bind(&e.name, dst) {
                if e.persistent {
                    // a declined persistent external keeps its resident
                    // slab contents (the steady-state decode path: the
                    // cache already lives here)
                    continue;
                }
                return Ok(ArenaOutcome::Busy);
            }
        }
        let mem = SlabMem::new(bufs);
        if run.threads > 1 {
            self.run_parallel(mem, run)?;
        } else {
            self.run_serial(mem, run)?;
        }
        for m in &self.outputs {
            sink(ArenaArtifact::Tensor {
                name: &m.name,
                saved: m.saved,
                shape: &m.shape,
                data: &bufs.slab[m.view.off..m.view.off + m.view.len],
            });
        }
        for s in &self.stats_out {
            sink(ArenaArtifact::Stats {
                name: &s.name,
                mean: &bufs.stats[s.mean.off..s.mean.off + s.mean.len],
                inv_std: &bufs.stats[s.inv_std.off..s.inv_std.off + s.inv_std.len],
            });
        }
        Ok(ArenaOutcome::Ran)
    }

    /// Drop-in arena execution over the allocating interpreters'
    /// [`ExecState`]: externals are copied out of `state.env`, and
    /// outputs, saved activations, and layer-norm statistics are
    /// materialized back into it (which allocates — use
    /// [`CompiledArena::execute_bound`] for the zero-allocation path).
    ///
    /// # Errors
    ///
    /// Same as [`CompiledArena::execute_bound`].
    pub fn run_with_state(&self, state: &mut ExecState, run: &ArenaRun) -> Result<ArenaOutcome> {
        let env = &state.env;
        let mut bind = |name: &str, dst: &mut [f32]| -> bool {
            match env.get(name) {
                Some(t) if t.len() == dst.len() => {
                    into_ops::copy_tensor_into(t, dst);
                    true
                }
                _ => false,
            }
        };
        let mut produced: Vec<(String, Tensor)> = Vec::new();
        let mut stats: Vec<(String, LayerNormStats)> = Vec::new();
        let mut sink = |a: ArenaArtifact<'_>| match a {
            ArenaArtifact::Tensor {
                name, shape, data, ..
            } => {
                if let Ok(t) = Tensor::from_vec(shape.clone(), data.to_vec()) {
                    produced.push((name.to_string(), t));
                }
            }
            ArenaArtifact::Stats {
                name,
                mean,
                inv_std,
            } => {
                stats.push((
                    name.to_string(),
                    LayerNormStats {
                        mean: mean.to_vec(),
                        inv_std: inv_std.to_vec(),
                    },
                ));
            }
        };
        let outcome = self.execute_bound(run, &mut bind, &mut sink)?;
        if outcome == ArenaOutcome::Ran {
            for (name, t) in produced {
                state.env.insert(name, t);
            }
            for (name, s) in stats {
                state.stats.insert(name, s);
            }
        }
        Ok(outcome)
    }

    fn run_serial(&self, mem: SlabMem, run: &ArenaRun) -> Result<()> {
        for (w, wave) in self.waves.iter().enumerate() {
            for &si in wave {
                let mut rng = step_rng(run.seed, si);
                // SAFETY: the arena certificate proves every pair of
                // simultaneously-live buffers occupies disjoint slab
                // ranges, and serial execution never overlaps two steps.
                unsafe { run_step(&self.steps[si], mem, run, &mut rng) };
            }
            if run.sanitize {
                self.sanitize_wave(mem, w)?;
            }
        }
        Ok(())
    }

    fn run_parallel(&self, mem: SlabMem, run: &ArenaRun) -> Result<()> {
        let pool = pool();
        // serialize concurrent parallel arena runs; waves of one run must
        // not interleave with another run's on the shared job slot
        let _dispatch = pool.dispatch.lock().unwrap_or_else(|e| e.into_inner());
        for (w, wave) in self.waves.iter().enumerate() {
            if wave.len() <= 1 || pool.workers == 0 {
                for &si in wave {
                    let mut rng = step_rng(run.seed, si);
                    // SAFETY: as in `run_serial`.
                    unsafe { run_step(&self.steps[si], mem, run, &mut rng) };
                }
            } else {
                pool.run_wave(&self.steps, wave, mem, run)?;
            }
            if run.sanitize {
                self.sanitize_wave(mem, w)?;
            }
        }
        Ok(())
    }

    /// Shadow-sanitizer epilogue for one wave: every output written by the
    /// wave must be finite (a NaN means some kernel read poisoned — dead
    /// and reused — slab words), then every buffer whose certified live
    /// interval ends at this wave is re-poisoned.
    fn sanitize_wave(&self, mem: SlabMem, w: usize) -> Result<()> {
        for &si in &self.waves[w] {
            for v in &self.step_outputs[si] {
                // SAFETY: the wave finished; no kernel holds these words.
                let data = unsafe { mem.slab(*v) };
                if data.iter().any(|x| !x.is_finite()) {
                    return Err(TensorError::Unsupported(format!(
                        "arena sanitizer: step {si} (`{}`) produced a non-finite value — a kernel read a retired (reused) buffer",
                        self.step_names[si]
                    )));
                }
            }
        }
        for v in &self.retire[w] {
            // SAFETY: the buffer's live interval ended with this wave.
            let data = unsafe { mem.slab_mut(*v) };
            for x in data.iter_mut() {
                *x = f32::NAN;
            }
        }
        Ok(())
    }
}

/// Precompiles one plan step into a [`StepExec`], accumulating layer-norm
/// statistics regions. `Ok(None)` means the step is outside the supported
/// set and the whole plan falls back.
fn compile_step(
    graph: &Graph,
    step: &PlanStep,
    view_of: &HashMap<NodeId, BufView>,
    stats_words: &mut usize,
    stats_out: &mut Vec<StatsSpec>,
) -> Result<Option<StepExec>> {
    let shape_of = |id: NodeId| -> Option<&Shape> { graph.data(id).map(|d| &d.shape) };
    let vw = |id: NodeId| -> Option<BufView> { view_of.get(&id).copied() };
    let in_shape = |k: usize| -> Option<&Shape> { shape_of(step.inputs.get(k)?.data) };
    let out_shape = |k: usize| -> Option<&Shape> { shape_of(step.outputs.get(k)?.data) };
    let in_view = |k: usize| -> Option<BufView> { vw(step.inputs.get(k)?.data) };
    let out_view = |k: usize| -> Option<BufView> { vw(step.outputs.get(k)?.data) };
    let mut alloc_stats = |lanes: usize, key: &str| -> (BufView, BufView) {
        let mean = BufView {
            off: *stats_words,
            len: lanes,
        };
        let inv_std = BufView {
            off: *stats_words + lanes,
            len: lanes,
        };
        *stats_words += 2 * lanes;
        stats_out.push(StatsSpec {
            name: key.to_string(),
            mean,
            inv_std,
        });
        (mean, inv_std)
    };
    // carve of a stacked-QKV projection: a contiguous row-major slice
    // along the stacking axis (always the first)
    let carve =
        |x_view: BufView, x_shape: &Shape, out_shape: &Shape, name: &str| -> Option<BufView> {
            let total = *x_shape.sizes().first()?;
            let len = *out_shape.sizes().first()?;
            if x_shape.sizes()[1..] != out_shape.sizes()[1..] {
                return None;
            }
            let rest: usize = x_shape.sizes()[1..].iter().product();
            let start = stacked_carve_start(name, total, len)?;
            Some(BufView {
                off: x_view.off + start * rest,
                len: len * rest,
            })
        };

    let exec = match &step.kind {
        OpKind::Einsum(spec) => {
            if step.inputs.len() != 2 || step.outputs.len() != 1 {
                return Ok(None);
            }
            let (a_c, b_c, out_c) = match (in_shape(0), in_shape(1), out_shape(0)) {
                (Some(a), Some(b), Some(c)) => (a, b, c),
                _ => return Ok(None),
            };
            let ops = spec.operands();
            if ops.len() != 2 {
                return Ok(None);
            }
            // relabel the operands' shapes positionally to the spec's
            // letters, as the interpreter does before contracting
            let relabel = |axes: &[Axis], c: &Shape| -> Option<Shape> {
                if axes.len() != c.rank() {
                    return None;
                }
                let dims: Vec<(char, usize)> =
                    axes.iter().zip(c.sizes()).map(|(a, &s)| (a.0, s)).collect();
                Shape::new(dims).ok()
            };
            let (a_shape, b_shape) = match (relabel(&ops[0], a_c), relabel(&ops[1], b_c)) {
                (Some(a), Some(b)) => (a, b),
                _ => return Ok(None),
            };
            // the labeled output shape must positionally match the
            // container's declared shape, or the GEMM would misplace
            let size_of =
                |ax: Axis| -> Option<usize> { a_shape.size(ax).or_else(|_| b_shape.size(ax)).ok() };
            let lbl_dims: Vec<(char, usize)> = match spec
                .output()
                .iter()
                .map(|&ax| size_of(ax).map(|s| (ax.0, s)))
                .collect::<Option<Vec<_>>>()
            {
                Some(d) => d,
                None => return Ok(None),
            };
            let Ok(lbl_shape) = Shape::new(lbl_dims) else {
                return Ok(None);
            };
            if lbl_shape.sizes() != out_c.sizes() {
                return Ok(None);
            }
            // operands and output are dense row-major slab ranges
            let Ok(plan) = ContractPlan::compile(
                spec,
                &a_shape,
                &rm_strides(&a_shape),
                &b_shape,
                &rm_strides(&b_shape),
                &rm_strides(&lbl_shape),
            ) else {
                return Ok(None);
            };
            let (a, b, out) = match (in_view(0), in_view(1), out_view(0)) {
                (Some(a), Some(b), Some(o)) => (a, b, o),
                _ => return Ok(None),
            };
            StepExec::Contract {
                a,
                b,
                out,
                plan,
                s_off: 0,
            }
        }
        OpKind::Bias { .. } => {
            if step.inputs.len() != 2 || step.outputs.len() != 1 {
                return Ok(None);
            }
            let (x_s, b_s, o_s) = match (in_shape(0), in_shape(1), out_shape(0)) {
                (Some(x), Some(b), Some(o)) => (x, b, o),
                _ => return Ok(None),
            };
            let (x_v, b_v, o_v) = match (in_view(0), in_view(1), out_view(0)) {
                (Some(x), Some(b), Some(o)) => (x, b, o),
                _ => return Ok(None),
            };
            let x = if x_s.sizes() != o_s.sizes() || x_s.spec() != o_s.spec() {
                match carve(x_v, x_s, o_s, &step.name) {
                    Some(v) => v,
                    None => return Ok(None),
                }
            } else {
                x_v
            };
            let Some(bmap) = bias_map(o_s, b_s) else {
                return Ok(None);
            };
            StepExec::Bias {
                x,
                bias: b_v,
                out: o_v,
                bmap,
            }
        }
        OpKind::Scale => {
            let (Some(x), Some(out)) = (in_view(0), out_view(0)) else {
                return Ok(None);
            };
            StepExec::Scale { x, out }
        }
        OpKind::Softmax { axis } => {
            let (Some(x_s), Some(x), Some(out)) = (in_shape(0), in_view(0), out_view(0)) else {
                return Ok(None);
            };
            let Some(lane) = lane_of(x_s, *axis) else {
                return Ok(None);
            };
            let causal = if step.name.contains("Masked") {
                let Some(causal) = causal_of(x_s, *axis) else {
                    return Ok(None);
                };
                Some(causal)
            } else {
                None
            };
            StepExec::Softmax {
                x,
                out,
                lane,
                causal,
            }
        }
        OpKind::LayerNorm { axis } => {
            if step.inputs.len() != 3 || step.outputs.len() != 1 {
                return Ok(None);
            }
            let (Some(x_s), Some(x), Some(gamma), Some(beta), Some(out)) =
                (in_shape(0), in_view(0), in_view(1), in_view(2), out_view(0))
            else {
                return Ok(None);
            };
            let Some(lane) = lane_of(x_s, *axis) else {
                return Ok(None);
            };
            if gamma.len != lane.len || beta.len != lane.len {
                return Ok(None);
            }
            let (mean, inv_std) = alloc_stats(lane.lanes(), &step.outputs[0].name);
            StepExec::LayerNorm {
                x,
                gamma,
                beta,
                out,
                lane,
                mean,
                inv_std,
            }
        }
        OpKind::Dropout => {
            if step.outputs.len() != 2 {
                return Ok(None);
            }
            let (Some(x), Some(out), Some(mask)) = (in_view(0), out_view(0), out_view(1)) else {
                return Ok(None);
            };
            StepExec::Dropout { x, out, mask }
        }
        OpKind::Relu => {
            let (Some(x), Some(out)) = (in_view(0), out_view(0)) else {
                return Ok(None);
            };
            StepExec::Activate { x, out }
        }
        OpKind::Residual => {
            if step.inputs.len() != 2 {
                return Ok(None);
            }
            let (Some(a), Some(b), Some(out)) = (in_view(0), in_view(1), out_view(0)) else {
                return Ok(None);
            };
            if a.len != out.len || b.len != out.len {
                return Ok(None);
            }
            StepExec::Residual { a, b, out }
        }
        OpKind::Fused {
            parts, reduce_axis, ..
        } => {
            let Some(class) = classify_fused(parts) else {
                return Ok(None);
            };
            match class {
                FusedClass::InputBias => {
                    if step.inputs.len() != step.outputs.len() + 1 || step.outputs.is_empty() {
                        return Ok(None);
                    }
                    let (Some(stacked_s), Some(stacked_v)) = (in_shape(0), in_view(0)) else {
                        return Ok(None);
                    };
                    let rest: usize = stacked_s.sizes()[1..].iter().product();
                    let mut start = 0usize;
                    let mut parts_exec = Vec::with_capacity(step.outputs.len());
                    for k in 0..step.outputs.len() {
                        let (Some(o_s), Some(b_s)) = (out_shape(k), in_shape(k + 1)) else {
                            return Ok(None);
                        };
                        if o_s.sizes()[1..] != stacked_s.sizes()[1..] {
                            return Ok(None);
                        }
                        let len = o_s.sizes()[0];
                        let x = BufView {
                            off: stacked_v.off + start * rest,
                            len: len * rest,
                        };
                        let (Some(b_v), Some(o_v)) = (in_view(k + 1), out_view(k)) else {
                            return Ok(None);
                        };
                        let Some(bmap) = bias_map(o_s, b_s) else {
                            return Ok(None);
                        };
                        parts_exec.push((x, b_v, o_v, bmap));
                        start += len;
                    }
                    StepExec::InputBias { parts: parts_exec }
                }
                FusedClass::Softmax { causal } => {
                    if step.outputs.len() != 3 {
                        return Ok(None);
                    }
                    let (Some(x_s), Some(x)) = (in_shape(0), in_view(0)) else {
                        return Ok(None);
                    };
                    let Some(axis) = *reduce_axis else {
                        return Ok(None);
                    };
                    let Some(lane) = lane_of(x_s, axis) else {
                        return Ok(None);
                    };
                    let causal_map = if causal {
                        match causal_of(x_s, axis) {
                            Some(c) => Some(c),
                            None => return Ok(None),
                        }
                    } else {
                        None
                    };
                    let (Some(softmax), Some(alpha), Some(mask)) =
                        (out_view(0), out_view(1), out_view(2))
                    else {
                        return Ok(None);
                    };
                    StepExec::Sm {
                        x,
                        softmax,
                        alpha,
                        mask,
                        lane,
                        causal: causal_map,
                    }
                }
                FusedClass::BiasDropResidualNorm => {
                    if step.inputs.len() != 5 || step.outputs.len() != 3 {
                        return Ok(None);
                    }
                    let (Some(x_s), Some(b_s)) = (in_shape(0), in_shape(1)) else {
                        return Ok(None);
                    };
                    let Some(axis) = *reduce_axis else {
                        return Ok(None);
                    };
                    let Some(lane) = lane_of(x_s, axis) else {
                        return Ok(None);
                    };
                    let Some(bmap) = bias_map(x_s, b_s) else {
                        return Ok(None);
                    };
                    let (
                        Some(x),
                        Some(bias),
                        Some(residual),
                        Some(gamma),
                        Some(beta),
                        Some(mask),
                        Some(ln_input),
                        Some(out),
                    ) = (
                        in_view(0),
                        in_view(1),
                        in_view(2),
                        in_view(3),
                        in_view(4),
                        out_view(0),
                        out_view(1),
                        out_view(2),
                    )
                    else {
                        return Ok(None);
                    };
                    if gamma.len != lane.len || beta.len != lane.len {
                        return Ok(None);
                    }
                    let (mean, inv_std) = alloc_stats(lane.lanes(), &step.outputs[2].name);
                    StepExec::Bdrln {
                        x,
                        bias,
                        bmap,
                        residual,
                        gamma,
                        beta,
                        mask,
                        ln_input,
                        out,
                        lane,
                        mean,
                        inv_std,
                    }
                }
                FusedClass::BiasActDrop => {
                    if step.inputs.len() != 2 || step.outputs.len() != 3 {
                        return Ok(None);
                    }
                    let (Some(x_s), Some(b_s)) = (in_shape(0), in_shape(1)) else {
                        return Ok(None);
                    };
                    let Some(bmap) = bias_map(x_s, b_s) else {
                        return Ok(None);
                    };
                    let (Some(x), Some(bias), Some(pre), Some(out), Some(mask)) = (
                        in_view(0),
                        in_view(1),
                        out_view(0),
                        out_view(1),
                        out_view(2),
                    ) else {
                        return Ok(None);
                    };
                    StepExec::BrdAct {
                        x,
                        bias,
                        bmap,
                        pre_activation: pre,
                        out,
                        mask,
                    }
                }
                FusedClass::BiasDropResidual => {
                    if step.inputs.len() != 3 || step.outputs.len() != 2 {
                        return Ok(None);
                    }
                    let (Some(x_s), Some(b_s)) = (in_shape(0), in_shape(1)) else {
                        return Ok(None);
                    };
                    let Some(bmap) = bias_map(x_s, b_s) else {
                        return Ok(None);
                    };
                    let (Some(x), Some(bias), Some(residual), Some(mask), Some(out)) =
                        (in_view(0), in_view(1), in_view(2), out_view(0), out_view(1))
                    else {
                        return Ok(None);
                    };
                    StepExec::Bdr {
                        x,
                        bias,
                        bmap,
                        residual,
                        mask,
                        out,
                    }
                }
                FusedClass::Norm => {
                    if step.inputs.len() != 3 || step.outputs.len() != 1 {
                        return Ok(None);
                    }
                    let (Some(x_s), Some(x), Some(gamma), Some(beta), Some(out)) =
                        (in_shape(0), in_view(0), in_view(1), in_view(2), out_view(0))
                    else {
                        return Ok(None);
                    };
                    let Some(axis) = *reduce_axis else {
                        return Ok(None);
                    };
                    let Some(lane) = lane_of(x_s, axis) else {
                        return Ok(None);
                    };
                    if gamma.len != lane.len || beta.len != lane.len {
                        return Ok(None);
                    }
                    let (mean, inv_std) = alloc_stats(lane.lanes(), &step.outputs[0].name);
                    StepExec::LayerNorm {
                        x,
                        gamma,
                        beta,
                        out,
                        lane,
                        mean,
                        inv_std,
                    }
                }
            }
        }
        OpKind::ContractionEpilogue {
            spec,
            parts,
            reduce_axis,
            ..
        } => {
            if step.inputs.len() < 2 || step.outputs.is_empty() {
                return Ok(None);
            }
            let (Some(a_c), Some(b_c), Some(out_c)) = (in_shape(0), in_shape(1), out_shape(0))
            else {
                return Ok(None);
            };
            let Some(geom) = epilogue_geometry(
                spec,
                parts,
                *reduce_axis,
                a_c,
                b_c,
                out_c,
                in_shape(2),
                in_shape(3),
            ) else {
                return Ok(None);
            };
            let (Some(a), Some(b)) = (in_view(0), in_view(1)) else {
                return Ok(None);
            };
            let epi = match geom.class {
                FusedClass::Softmax { .. } => {
                    if step.inputs.len() != 2 || step.outputs.len() != 3 {
                        return Ok(None);
                    }
                    let (Some(softmax), Some(alpha), Some(mask)) =
                        (out_view(0), out_view(1), out_view(2))
                    else {
                        return Ok(None);
                    };
                    EpiExec::Sm {
                        softmax,
                        alpha,
                        mask,
                        causal: geom.causal,
                    }
                }
                FusedClass::BiasActDrop => {
                    if step.inputs.len() != 3 || step.outputs.len() != 3 {
                        return Ok(None);
                    }
                    let (Some(bias), Some(pre), Some(out), Some(mask)) =
                        (in_view(2), out_view(0), out_view(1), out_view(2))
                    else {
                        return Ok(None);
                    };
                    EpiExec::BrdAct {
                        bias,
                        bmap: into_ops::BiasMap {
                            dims: vec![(geom.plan.n, geom.plan.m, 1)],
                        },
                        pre_activation: pre,
                        out,
                        mask,
                    }
                }
                FusedClass::BiasDropResidual => {
                    if step.inputs.len() != 4 || step.outputs.len() != 2 {
                        return Ok(None);
                    }
                    let (Some(bias), Some(residual), Some(mask), Some(out)) =
                        (in_view(2), in_view(3), out_view(0), out_view(1))
                    else {
                        return Ok(None);
                    };
                    EpiExec::Bdr {
                        bias,
                        bmap: into_ops::BiasMap {
                            dims: vec![(geom.plan.n, geom.plan.m, 1)],
                        },
                        residual,
                        mask,
                        out,
                    }
                }
                _ => return Ok(None),
            };
            StepExec::ContractEpilogue {
                a,
                b,
                plan: geom.plan,
                tile_rows: geom.tile_rows,
                s_off: 0,
                epi,
            }
        }
        _ => return Ok(None),
    };
    Ok(Some(exec))
}

/// Executes one precompiled step out of the slab through the `*_into`
/// drivers, which pick each kernel's unit-stride or strided instantiation
/// from the step's own lane geometry.
///
/// # Safety
///
/// `mem` must point into live buffers at least as large as every view the
/// step references, and no concurrently-running step may write any word
/// this step touches — guaranteed by the arena certificate (interval
/// overlap ⇒ range disjointness) plus the wave partition's race
/// certificate semantics.
unsafe fn run_step<R: Rng + ?Sized>(step: &StepExec, mem: SlabMem, run: &ArenaRun, rng: &mut R) {
    let drop = &mut Dropout::new(run.dropout_p, rng)
        .expect("dropout_p was validated when the arena run was admitted");
    match step {
        StepExec::Contract {
            a,
            b,
            out,
            plan,
            s_off,
        } => unsafe {
            into_ops::contract_into(
                plan,
                mem.slab(*a),
                mem.slab(*b),
                mem.slab_mut(*out),
                mem.scratch_mut(*s_off, plan.scratch_words()),
            );
        },
        StepExec::Bias { x, bias, out, bmap } => unsafe {
            into_ops::bias_add_into(mem.slab(*x), mem.slab(*bias), bmap, mem.slab_mut(*out));
        },
        StepExec::InputBias { parts } => unsafe {
            for (x, bias, out, bmap) in parts {
                into_ops::bias_add_into(mem.slab(*x), mem.slab(*bias), bmap, mem.slab_mut(*out));
            }
        },
        StepExec::Scale { x, out } => unsafe {
            into_ops::scale_into(mem.slab(*x), run.scaler, mem.slab_mut(*out));
        },
        StepExec::Softmax {
            x,
            out,
            lane,
            causal,
        } => unsafe {
            let c = causal.map(|c| c.at(c.base + run.pos));
            into_ops::softmax_into(mem.slab(*x), run.scaler, *lane, c, mem.slab_mut(*out));
        },
        StepExec::Sm {
            x,
            softmax,
            alpha,
            mask,
            lane,
            causal,
        } => unsafe {
            let (x, softmax, alpha, mask) = (
                mem.slab(*x),
                mem.slab_mut(*softmax),
                mem.slab_mut(*alpha),
                mem.slab_mut(*mask),
            );
            let c = causal.map(|c| c.at(c.base + run.pos));
            into_ops::sm_into(x, run.scaler, *lane, c, drop, softmax, alpha, mask);
        },
        StepExec::LayerNorm {
            x,
            gamma,
            beta,
            out,
            lane,
            mean,
            inv_std,
        } => unsafe {
            let (x, gamma, beta, out, mean, inv_std) = (
                mem.slab(*x),
                mem.slab(*gamma),
                mem.slab(*beta),
                mem.slab_mut(*out),
                mem.stats_mut(*mean),
                mem.stats_mut(*inv_std),
            );
            into_ops::layernorm_into(x, gamma, beta, *lane, out, mean, inv_std);
        },
        StepExec::Dropout { x, out, mask } => unsafe {
            if run.dropout_p > 0.0 {
                into_ops::dropout_into(mem.slab(*x), drop, mem.slab_mut(*out), mem.slab_mut(*mask));
            } else {
                into_ops::dropout_disabled_into(
                    mem.slab(*x),
                    mem.slab_mut(*out),
                    mem.slab_mut(*mask),
                );
            }
        },
        StepExec::Activate { x, out } => unsafe {
            into_ops::activate_into(mem.slab(*x), run.activation, mem.slab_mut(*out));
        },
        StepExec::Residual { a, b, out } => unsafe {
            into_ops::add_into(mem.slab(*a), mem.slab(*b), mem.slab_mut(*out));
        },
        StepExec::Bdrln {
            x,
            bias,
            bmap,
            residual,
            gamma,
            beta,
            mask,
            ln_input,
            out,
            lane,
            mean,
            inv_std,
        } => unsafe {
            let (x, bias, residual, gamma, beta, mask, ln_input, out, mean, inv_std) = (
                mem.slab(*x),
                mem.slab(*bias),
                mem.slab(*residual),
                mem.slab(*gamma),
                mem.slab(*beta),
                mem.slab_mut(*mask),
                mem.slab_mut(*ln_input),
                mem.slab_mut(*out),
                mem.stats_mut(*mean),
                mem.stats_mut(*inv_std),
            );
            into_ops::bdrln_into(
                x, bias, bmap, residual, gamma, beta, *lane, drop, mask, ln_input, out, mean,
                inv_std,
            );
        },
        StepExec::BrdAct {
            x,
            bias,
            bmap,
            pre_activation,
            out,
            mask,
        } => unsafe {
            let (x, bias, pre_activation, out, mask) = (
                mem.slab(*x),
                mem.slab(*bias),
                mem.slab_mut(*pre_activation),
                mem.slab_mut(*out),
                mem.slab_mut(*mask),
            );
            into_ops::brd_act_into(
                x,
                bias,
                bmap,
                run.activation,
                drop,
                pre_activation,
                out,
                mask,
            );
        },
        StepExec::Bdr {
            x,
            bias,
            bmap,
            residual,
            mask,
            out,
        } => unsafe {
            let (x, bias, residual, mask, out) = (
                mem.slab(*x),
                mem.slab(*bias),
                mem.slab(*residual),
                mem.slab_mut(*mask),
                mem.slab_mut(*out),
            );
            into_ops::bdr_into(x, bias, bmap, residual, drop, mask, out);
        },
        StepExec::ContractEpilogue {
            a,
            b,
            plan,
            tile_rows,
            s_off,
            epi,
        } => unsafe {
            let mut drive = |e: &mut into_ops::TileEpilogue<'_>| {
                into_ops::contract_epilogue_tiled(
                    plan,
                    *tile_rows,
                    mem.slab(*a),
                    mem.slab(*b),
                    mem.scratch_mut(*s_off, plan.epilogue_scratch_words(*tile_rows)),
                    drop,
                    e,
                );
            };
            match epi {
                EpiExec::Sm {
                    softmax,
                    alpha,
                    mask,
                    causal,
                } => drive(&mut into_ops::TileEpilogue::Softmax {
                    scaler: run.scaler,
                    causal: causal.map(|c| c.at(c.base + run.pos)),
                    softmax: mem.slab_mut(*softmax),
                    alpha: mem.slab_mut(*alpha),
                    mask: mem.slab_mut(*mask),
                }),
                EpiExec::BrdAct {
                    bias,
                    bmap,
                    pre_activation,
                    out,
                    mask,
                } => drive(&mut into_ops::TileEpilogue::BiasActDrop {
                    bias: mem.slab(*bias),
                    bmap,
                    kind: run.activation,
                    pre_activation: mem.slab_mut(*pre_activation),
                    out: mem.slab_mut(*out),
                    mask: mem.slab_mut(*mask),
                }),
                EpiExec::Bdr {
                    bias,
                    bmap,
                    residual,
                    mask,
                    out,
                } => drive(&mut into_ops::TileEpilogue::BiasDropResidual {
                    bias: mem.slab(*bias),
                    bmap,
                    residual: mem.slab(*residual),
                    mask: mem.slab_mut(*mask),
                    out: mem.slab_mut(*out),
                }),
            }
        },
    }
}

/// `XFORM_SANITIZE`, resolved once per process. Reading an environment
/// variable allocates, so the arena's steady-state path caches the flag;
/// the allocating interpreters keep resolving it per call. Callers
/// building an [`ArenaRun`] from a [`crate::plan::SanitizeMode::Env`]
/// option should use this to stay allocation-free.
pub fn env_sanitize_cached() -> bool {
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(crate::sanitize::sanitize_enabled)
}

/// A wave handed to the persistent worker pool: raw views of one arena's
/// step table, wave slice, and buffers, all outliving the dispatch because
/// the publishing thread blocks until every worker has drained.
#[derive(Clone, Copy)]
struct WaveJob {
    steps: *const StepExec,
    wave: *const usize,
    wave_len: usize,
    mem: SlabMem,
    run: ArenaRun,
}

unsafe impl Send for WaveJob {}

struct PoolState {
    epoch: u64,
    job: Option<WaveJob>,
    running: usize,
    panicked: bool,
    /// Workers that have reached their wait loop (see [`pool`]).
    started: usize,
}

/// The persistent wave-execution pool. Workers are spawned once, on the
/// first parallel arena run (part of warmup), and live for the process —
/// spawning scoped threads per call would allocate stacks on every
/// forward.
struct Pool {
    /// Serializes whole parallel runs onto the single job slot.
    dispatch: Mutex<()>,
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Work-stealing cursor into the published wave.
    claim: AtomicUsize,
    workers: usize,
}

impl Pool {
    fn run_wave(
        &self,
        steps: &[StepExec],
        wave: &[usize],
        mem: SlabMem,
        run: &ArenaRun,
    ) -> Result<()> {
        self.claim.store(0, Ordering::Relaxed);
        {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            st.job = Some(WaveJob {
                steps: steps.as_ptr(),
                wave: wave.as_ptr(),
                wave_len: wave.len(),
                mem,
                run: *run,
            });
            st.epoch = st.epoch.wrapping_add(1);
            st.panicked = false;
        }
        self.work_cv.notify_all();
        // participate from the publishing thread
        let own = catch_unwind(AssertUnwindSafe(|| loop {
            let i = self.claim.fetch_add(1, Ordering::Relaxed);
            if i >= wave.len() {
                break;
            }
            let si = wave[i];
            let mut rng = step_rng(run.seed, si);
            // SAFETY: per the arena certificate, see `run_step`.
            unsafe { run_step(&steps[si], mem, run, &mut rng) };
        }));
        // wait until no worker still holds the job's pointers, then
        // retract it — workers that wake later see `None` and re-wait
        let panicked;
        {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            while st.running > 0 {
                st = self.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.job = None;
            panicked = st.panicked;
        }
        if own.is_err() || panicked {
            return Err(TensorError::Unsupported(
                "arena wave execution panicked".into(),
            ));
        }
        Ok(())
    }
}

fn worker_loop(pool: &'static Pool) {
    {
        let mut st = pool.state.lock().unwrap_or_else(|e| e.into_inner());
        st.started += 1;
        pool.done_cv.notify_all();
    }
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = pool.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                match st.job {
                    Some(j) if st.epoch != seen => {
                        seen = st.epoch;
                        st.running += 1;
                        break j;
                    }
                    _ => {
                        st = pool.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                }
            }
        };
        let res = catch_unwind(AssertUnwindSafe(|| loop {
            let i = pool.claim.fetch_add(1, Ordering::Relaxed);
            if i >= job.wave_len {
                break;
            }
            // SAFETY: the publisher keeps `steps`/`wave`/`mem` alive until
            // `running` drops to zero, which happens strictly after this
            // worker finishes.
            let si = unsafe { *job.wave.add(i) };
            let mut rng = step_rng(job.run.seed, si);
            unsafe { run_step(&*job.steps.add(si), job.mem, &job.run, &mut rng) };
        }));
        let mut st = pool.state.lock().unwrap_or_else(|e| e.into_inner());
        if res.is_err() {
            st.panicked = true;
        }
        st.running -= 1;
        if st.running == 0 {
            pool.done_cv.notify_all();
        }
    }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .saturating_sub(1)
            .min(7);
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            dispatch: Mutex::new(()),
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                running: 0,
                panicked: false,
                started: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            claim: AtomicUsize::new(0),
            workers,
        }));
        for _ in 0..workers {
            std::thread::spawn(move || worker_loop(pool));
        }
        // A spawned thread frees its start-up state (the boxed entry
        // closure among it) whenever the scheduler first runs it — on a
        // busy host that can be many forwards later, inside a window a
        // caller is counting heap events over. Hold the first parallel
        // run until every worker has reached its wait loop, so all of it
        // lands in warmup.
        let mut st = pool.state.lock().unwrap_or_else(|e| e.into_inner());
        while st.started < workers {
            st = pool.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        drop(st);
        pool
    })
}

#[cfg(test)]
mod tests {

    use super::*;
    use crate::analyze::analyze;
    use crate::fusion::{apply_plan, encoder_fusion_plan};
    use crate::plan::{execute_plan, random_externals, ExecOptions, SanitizeMode};
    use crate::recipe::forward_ops;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xform_dataflow::{build, EncoderDims};

    fn fused_plan() -> (Graph, ExecutionPlan) {
        let eg = build::encoder(&EncoderDims::tiny());
        let mut g = eg.graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        let plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
        (g, plan)
    }

    fn run_env(graph: &Graph, plan: &ExecutionPlan, state: &mut ExecState) {
        let opts = ExecOptions::builder().sanitize(SanitizeMode::Off).build();
        let mut rng = StdRng::seed_from_u64(opts.seed);
        execute_plan(graph, plan, state, &opts, &mut rng).unwrap();
    }

    #[test]
    fn canned_fused_plan_compiles_and_matches_env_bitwise() {
        let (graph, plan) = fused_plan();
        let analysis = analyze(&graph, &plan);
        let arena = CompiledArena::compile(&graph, &plan, &analysis, ArenaGranularity::Serial)
            .unwrap()
            .expect("canned fused encoder plan must compile to an arena");
        assert!(arena.matches(&plan));
        assert_eq!(
            arena.slab_words() as u64,
            analysis.peak_resident_words,
            "serial arena slab must hit the peak-resident target exactly"
        );

        let mut env_state = random_externals(&graph, &plan, 42).unwrap();
        let mut arena_state = ExecState {
            env: env_state.env.clone(),
            stats: Default::default(),
        };
        run_env(&graph, &plan, &mut env_state);
        let run = ArenaRun {
            dropout_p: 0.0,
            activation: ActivationKind::Relu,
            scaler: 1.0,
            seed: 0x5eed,
            threads: 1,
            sanitize: false,
            pos: 0,
        };
        let outcome = arena.run_with_state(&mut arena_state, &run).unwrap();
        assert_eq!(outcome, ArenaOutcome::Ran);
        // every Output/Saved container must be bitwise equal to the
        // allocating interpreter's result
        let mut compared = 0;
        for (name, t) in &arena_state.env {
            let e = env_state.env.get(name).expect("env missing container");
            assert_eq!(t.shape(), e.shape(), "{name} shape");
            assert_eq!(t.data(), e.data(), "{name} data");
            compared += 1;
        }
        assert!(compared > 3);
        for (name, s) in &arena_state.stats {
            let e = env_state.stats.get(name).expect("env missing stats");
            assert_eq!(s.mean, e.mean, "{name} mean");
            assert_eq!(s.inv_std, e.inv_std, "{name} inv_std");
        }
        assert!(!arena_state.stats.is_empty());
    }

    #[test]
    fn waves_arena_parallel_matches_serial_arena_bitwise() {
        let (graph, plan) = fused_plan();
        let analysis = analyze(&graph, &plan);
        let arena = CompiledArena::compile(&graph, &plan, &analysis, ArenaGranularity::Waves)
            .unwrap()
            .expect("waves arena must compile");
        let base = random_externals(&graph, &plan, 7).unwrap();
        let mut results = Vec::new();
        for threads in [1usize, 2, 8] {
            for p in [0.0f32, 0.4] {
                let mut state = ExecState {
                    env: base.env.clone(),
                    stats: Default::default(),
                };
                let run = ArenaRun {
                    dropout_p: p,
                    activation: ActivationKind::Relu,
                    scaler: 0.5,
                    seed: 0xfeed,
                    threads,
                    sanitize: false,
                    pos: 0,
                };
                assert_eq!(
                    arena.run_with_state(&mut state, &run).unwrap(),
                    ArenaOutcome::Ran
                );
                let mut names: Vec<&String> = state.env.keys().collect();
                names.sort();
                let snapshot: Vec<Vec<f32>> = names
                    .iter()
                    .map(|n| state.env[*n].data().to_vec())
                    .collect();
                results.push((p, snapshot));
            }
        }
        // group by p: all thread counts must agree bitwise
        for p in [0.0f32, 0.4] {
            let group: Vec<_> = results.iter().filter(|(rp, _)| *rp == p).collect();
            for w in group.windows(2) {
                assert_eq!(w[0].1, w[1].1, "thread-count variance at p={p}");
            }
        }
    }

    #[test]
    fn sanitized_arena_run_passes_on_clean_plan() {
        let (graph, plan) = fused_plan();
        let analysis = analyze(&graph, &plan);
        for g in [ArenaGranularity::Serial, ArenaGranularity::Waves] {
            let arena = CompiledArena::compile(&graph, &plan, &analysis, g)
                .unwrap()
                .expect("arena must compile");
            let mut state = random_externals(&graph, &plan, 11).unwrap();
            let run = ArenaRun {
                dropout_p: 0.0,
                activation: ActivationKind::Relu,
                scaler: 1.0,
                seed: 1,
                threads: if g == ArenaGranularity::Waves { 4 } else { 1 },
                sanitize: true,
                pos: 0,
            };
            assert_eq!(
                arena.run_with_state(&mut state, &run).unwrap(),
                ArenaOutcome::Ran,
                "sanitized arena run must pass at {g}"
            );
        }
    }

    #[test]
    fn all_canned_plans_compile_at_the_peak_resident_target() {
        let dims = EncoderDims::tiny();
        type FusionFn = fn() -> Vec<crate::fusion::FusionGroup>;
        let canned: Vec<(&str, Graph, Option<FusionFn>)> = vec![
            ("encoder reference", build::encoder(&dims).graph, None),
            (
                "encoder fused",
                build::encoder(&dims).graph,
                Some(encoder_fusion_plan),
            ),
            ("decoder reference", build::decoder(&dims).graph, None),
            (
                "decoder fused",
                build::decoder(&dims).graph,
                Some(crate::fusion::decoder_fusion_plan),
            ),
        ];
        for (label, graph, fuse) in canned {
            let eg = if label.starts_with("encoder") {
                build::encoder(&dims)
            } else {
                build::decoder(&dims)
            };
            let mut g = graph;
            if let Some(f) = fuse {
                apply_plan(&mut g, &f()).unwrap();
            }
            let plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
            let analysis = analyze(&g, &plan);
            let arena = CompiledArena::compile(&g, &plan, &analysis, ArenaGranularity::Serial)
                .unwrap()
                .unwrap_or_else(|| panic!("{label} plan must compile to an arena"));
            assert_eq!(
                arena.slab_words() as u64,
                analysis.peak_resident_words,
                "{label}: serial slab must hit the peak-resident target"
            );
        }
    }
}
