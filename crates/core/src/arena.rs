//! The interpreter: plans compiled onto one preallocated slab. Every plan
//! that passes the analyzer's lint gate runs here, in whatever layouts it
//! declares; nothing else executes a plan in production
//! ([`crate::plan::execute_plan`] is the oracle the equivalence suites
//! compare this module against).
//!
//! [`CompiledArena::compile`] passes the plan through the lint gate, colors
//! its buffer-liveness intervals into slab offsets with
//! [`crate::analyze::assign_arena`], proves the coloring respects liveness
//! ([`crate::sanitize::certify_arena`]) and every access path stays inside
//! its slot ([`crate::access::certify_access_arena`]), at
//! [`ArenaGranularity::Waves`] proves the wave partition it is about to
//! dispatch free of races ([`crate::sanitize::certify_waves`]), and
//! precompiles every step into a `StepExec`: the step lowering's kernel
//! class (DESIGN.md, "Step lowering") with each operand's slab slot. All of
//! that happens once; [`compiled`] memoizes the result per distinct plan.
//! Execution then walks the descriptors through the zero-allocation
//! `*_into` kernels of [`xform_tensor::into_ops`] — no tensors are built,
//! no heap is touched.
//!
//! **Views.** A kernel is handed each operand as its slot's words plus the
//! lowering's [`xform_tensor::into_ops::View`] of them: a base offset and
//! one stride per logical axis of the step's iteration space, resolved
//! from the layout the step declares. A layout is therefore an index map,
//! never a copy: a permuted operand is other strides, a broadcast bias
//! zero strides, one projection of a stacked Q/K/V tensor a base offset.
//! The drivers iterate in the container's *logical* order whatever the
//! strides, so per-lane statistics land in the same order and dropout
//! draws once per element in the same order — a plan's outputs, masks and
//! statistics are the same bits in any layout. Whether a sweep runs the
//! slice body lane by lane, in panels of adjacent strided lanes, or the
//! bounds-checked strided body is read off the strides its views carry
//! ([`Sweep::walk`]), never off an option. The
//! access certificate is computed from the very same views
//! (`access::view_path`), so it describes the words the kernels
//! touch by construction ([`CompiledArena::step_views`]).
//!
//! **Relayouts.** A relayout insertion permutes its container in place, in
//! the one slot its liveness interval owns: a gather into the step's
//! scratch in the new physical order, then one copy back, before the
//! step's kernel starts. The hazard analysis treats it as a write for that
//! reason (no reader of the container shares its wave). Outputs are
//! materialized in the layout the plan last leaves them in.
//!
//! **Externals.** A container no step defines is the caller's: a run asks
//! its resolver for each by name and is handed a slice of the container's
//! words, in the layout the plan first touches it in — natural, for any
//! plan the lint gate's coherence check passed. Where the words then live
//! is decided at compile ([`crate::analyze::Home`]):
//!
//! * **borrowed** — an input or weight no relayout touches owns no slab
//!   range at all. Its operand slots resolve to the caller's slice and the
//!   kernels read it where it is, so binding is an addressing change, not
//!   a copy. Nobody may write it: a slot that resolves to a borrowed
//!   external is only ever handed out as `&[f32]`, the access certifier
//!   convicts any other access to one, and a plan whose step declares an
//!   input or weight as its output is refused at compile, naming the step;
//! * **resident** — a [`DataRole::Cache`] keeps its slab range between
//!   runs: a resolver that declines it leaves the resident contents, one
//!   that answers overwrites them, and the owner reads and appends through
//!   [`CompiledArena::with_external`] / [`CompiledArena::with_external_mut`]
//!   — never a plan step;
//! * **re-laid** — an external some step wants in another layout gets a
//!   slab range to be permuted in. When the relayout is the container's
//!   first touch it gathers straight out of the caller's slice, one
//!   strided pass; when a step reads the container first as it came, it is
//!   copied into its range at bind (the one copy binding still makes, and
//!   `repro audit` prints it per plan: zero for every canned plan).
//!
//! **The tail boundary.** A tile program step reads its contractions'
//! operands through their declared strides, but a one-contraction
//! program's tail streams are walked as dense row blocks: declared in any
//! but the natural layout they are a compile error naming the step.
//!
//! One compiled arena serves four modes, none of which changes a result
//! bit, because every step draws from its own seeded RNG stream:
//!
//! * **serial** — steps in schedule order (`threads <= 1`);
//! * **waves** — each wave dispatched across a lazily-spawned persistent
//!   worker pool (scoped-thread spawning would allocate per call);
//! * **poison** — the aliasing-aware shadow mode: the slab is poisoned
//!   with NaN, each buffer is re-poisoned the moment its certified live
//!   interval ends, and every step's outputs are checked finite, so a
//!   read of a dead (reused) buffer surfaces as an error instead of
//!   silent corruption;
//! * **timed** — with a profiler sink set, each step writes its wall time
//!   into a slot of its own preallocated at compile (workers need no
//!   lock), each wave likewise, and the run surfaces them as
//!   [`ArenaArtifact::Timings`] for the caller — who holds the graph and
//!   the plan — to fold into a [`crate::profile::PlanProfiler`]. With no
//!   sink set no clock is read.
//!
//! An arena's buffers sit behind a mutex and a run holds it for its whole
//! duration: concurrent callers of one arena queue, they are never handed
//! to another executor. A plan with a step the lowering does not model is
//! an error at compile, naming the step.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xform_dataflow::{DataRole, Graph, NodeId, OpKind};
use xform_tensor::into_ops::{self, RowTail, Sweep, View};
use xform_tensor::lanes::{check_dropout_p, Dropout};
use xform_tensor::ops::elementwise::ActivationKind;
use xform_tensor::ops::layernorm::LayerNormStats;
use xform_tensor::{Layout, Result, Shape, Tensor, TensorError};

use crate::access::{view_path, AccessPath};
use crate::analyze::{analyze, ArenaGranularity, Home, PlanAnalysis};
use crate::lower::{lower_step, walk_of, Kernel, RelayoutCopy, Role, Slot, Tail};
use crate::plan::{layout_spec, ExecOptions, ExecState, ExecutionPlan, PlanStep, SanitizeMode};
use crate::sanitize::{certify_analyzed, certify_arena, plan_fingerprint, ArenaCertificate};

/// One contiguous word range of the slab (or of the scratch/stats
/// buffers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BufView {
    off: usize,
    len: usize,
}

/// Where a step finds one operand's words.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// A range of the slab.
    Slab(BufView),
    /// Entry `k` of the run's externals table: the caller's slice, read
    /// where it lives. Never an output.
    Borrowed(usize),
}

/// A precompiled step: the lowering's kernel class with its baked
/// geometry, and every operand's slab slot. Executing one of these touches
/// no heap.
#[derive(Debug, Clone)]
struct StepExec {
    kernel: Kernel,
    /// The operand views compiled for the drivers
    /// ([`crate::lower::StepLowering::sweeps`]).
    sweeps: Vec<Sweep>,
    /// One slot per operand of the lowering, in its order — which is the
    /// kernel's argument order ([`run_step`]) — with the role and view the
    /// kernel addresses it through (the slot's first word is the view's
    /// word zero).
    operands: Vec<(Place, Role, View)>,
    /// The step's relayout insertions, each with its container's slot and,
    /// for the one that is an external's first touch, the externals-table
    /// entry it gathers from instead of permuting the slot in place.
    relayouts: Vec<(Option<usize>, BufView, RelayoutCopy)>,
    /// Per-lane mean and inverse-deviation regions of the statistics
    /// buffer (the normalizing classes).
    stats: Option<(BufView, BufView)>,
    /// The step's scratch range
    /// ([`crate::lower::StepLowering::scratch_words`]): the staging copy of
    /// a relayout, the gather packs of a contraction (none for the canned
    /// plans), and for a tile program its packed B panels and its tiles —
    /// the intermediates between its kernels have no slab slot.
    scratch: BufView,
    /// The dropout stream the step draws from
    /// ([`ExecutionPlan::stream_of`]).
    stream: usize,
}

/// A container no step defines: the caller resolves it to a slice per run.
#[derive(Debug, Clone)]
struct ExternalBind {
    name: String,
    /// Its range in the arena's address space
    /// ([`crate::analyze::ArenaSlot`]): slab words unless borrowed.
    view: BufView,
    /// [`Home::Borrowed`] and [`Home::Gathered`] externals are read out of
    /// the caller's slice; a [`Home::Copied`] one is copied into its range
    /// at bind; [`Home::Slab`] is a [`DataRole::Cache`], persistent
    /// cross-call state — the initial sanitizer poison skips its range,
    /// and a resolver may decline it to keep the resident contents.
    home: Home,
}

/// One entry of a run's externals table: the caller's slice for the
/// external of the same index (empty until a run binds it).
#[derive(Debug, Clone, Copy)]
struct ExtSlice(*const [f32]);

// SAFETY: an entry is dereferenced only by the steps of the run that wrote
// it, while the caller's borrow of the slice is still live (see
// `CompiledArena::execute_bound`); between runs it is a stale address no
// one reads.
unsafe impl Send for ExtSlice {}

/// An output (or saved activation) materialized out of the slab after
/// execution.
#[derive(Debug, Clone)]
struct MaterializeSpec {
    name: String,
    shape: Shape,
    /// The layout the plan last leaves the container in.
    layout: Layout,
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

/// The slab, contraction scratch, layer-norm statistics storage and timing
/// slots (one per step, one per wave) of one arena, reused across calls
/// under a mutex.
#[derive(Debug, Default)]
struct ArenaBuffers {
    slab: Vec<f32>,
    scratch: Vec<f32>,
    stats: Vec<f32>,
    step_us: Vec<f64>,
    wave_us: Vec<f64>,
    ext: Vec<ExtSlice>,
}

/// Raw views of one [`ArenaBuffers`], copyable into worker threads. The
/// arena certificate makes concurrent use sound: steps sharing a wave
/// write disjoint slab ranges (their outputs' live intervals all start at
/// that wave, so the certifier proved them range-disjoint), scratch and
/// stats regions are disjoint per step by construction, reads of shared
/// inputs are read-only — the externals table and the callers' slices
/// behind it among them — and a timing slot is written only by the one
/// execution of the step (or the one dispatcher of the wave) it belongs to.
#[derive(Debug, Clone, Copy)]
struct SlabMem {
    slab: *mut f32,
    scratch: *mut f32,
    stats: *mut f32,
    step_us: *mut f64,
    wave_us: *mut f64,
    ext: *const ExtSlice,
}

// SAFETY: the pointers address one `ArenaBuffers` whose mutex guard the
// dispatching thread holds for the whole run; what each thread may touch
// through them is partitioned as described above.
unsafe impl Send for SlabMem {}
unsafe impl Sync for SlabMem {}

impl SlabMem {
    fn new(bufs: &mut ArenaBuffers) -> SlabMem {
        SlabMem {
            slab: bufs.slab.as_mut_ptr(),
            scratch: bufs.scratch.as_mut_ptr(),
            stats: bufs.stats.as_mut_ptr(),
            step_us: bufs.step_us.as_mut_ptr(),
            wave_us: bufs.wave_us.as_mut_ptr(),
            ext: bufs.ext.as_ptr(),
        }
    }

    /// The caller's slice behind entry `k` of the externals table.
    unsafe fn ext<'a>(self, k: usize) -> &'a [f32] {
        unsafe { &*(*self.ext.add(k)).0 }
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

/// What one arena execution reads of an [`ExecOptions`], resolved: the
/// scalar knobs, the sanitizer mode as a flag, and whether to time.
#[derive(Debug, Clone, Copy)]
struct ArenaRun {
    dropout_p: f32,
    activation: ActivationKind,
    scaler: f32,
    /// Base seed; each step draws from its own derived stream, so results
    /// are identical at any thread count.
    seed: u64,
    threads: usize,
    /// Run the aliasing-aware shadow sanitizer (poison + finiteness
    /// checks).
    sanitize: bool,
    /// Absolute sequence position of the run's first query column: every
    /// causal softmax's visibility window shifts by this.
    pos: usize,
    /// A profiler sink is set: write step and wave wall times into the
    /// timing slots.
    timed: bool,
}

impl ArenaRun {
    /// The one place an [`ExecOptions`] becomes an arena run.
    /// [`SanitizeMode::Env`] resolves through a flag cached once per
    /// process: reading the environment allocates, and a steady-state run
    /// must not.
    fn new(opts: &ExecOptions) -> ArenaRun {
        static ENV_SANITIZE: OnceLock<bool> = OnceLock::new();
        ArenaRun {
            dropout_p: opts.dropout_p,
            activation: opts.activation,
            scaler: opts.scaler,
            seed: opts.seed,
            threads: opts.threads,
            sanitize: match opts.sanitize {
                SanitizeMode::Off => false,
                SanitizeMode::On => true,
                SanitizeMode::Env => *ENV_SANITIZE.get_or_init(crate::sanitize::sanitize_enabled),
            },
            pos: opts.pos,
            timed: opts.profiler.is_some(),
        }
    }
}

/// RNG stream number `stream` of a run seeded `seed`: what the step that
/// [`ExecutionPlan::stream_of`] gives that number draws from. A function of
/// the seed and the step's place in the schedule alone, so stochastic
/// kernels (dropout with `p > 0`) draw the same masks at any thread count
/// and in any dispatch order — and whoever knows the two can draw a step's
/// masks again.
pub fn step_rng(seed: u64, stream: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (stream as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
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
        /// The container's logical shape.
        shape: &'a Shape,
        /// The layout `data` is stored in: the one the plan last declared
        /// for the container.
        layout: &'a Layout,
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
    /// Wall times of a timed run (a profiler sink was set), surfaced last.
    /// Fold them with [`crate::profile::record_arena_timings`].
    Timings {
        /// Microseconds per step, indexed by schedule position.
        step_us: &'a [f64],
        /// The wave partition the run dispatched (step indices per wave).
        waves: &'a [Vec<usize>],
        /// Microseconds per wave, sanitizer checks excluded; empty for a
        /// serial run, which has no waves to speak of.
        wave_us: &'a [f64],
        /// Threads that served the multi-step waves.
        workers: usize,
        /// Whether the poison mode was on (its slab sweeps sit between the
        /// steps, not inside them).
        sanitized: bool,
    },
}

/// A certified plan compiled onto a static arena. Build one with
/// [`CompiledArena::compile`] (or memoized, with [`compiled`]); execute
/// with [`CompiledArena::execute_bound`] (zero-allocation entry) or
/// [`CompiledArena::execute_into_state`] (every produced container
/// materialized into an [`ExecState`]).
#[derive(Debug)]
pub struct CompiledArena {
    granularity: ArenaGranularity,
    cert: ArenaCertificate,
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

/// The arena execution order a run at this thread count needs:
/// wave-granularity colorings for the worker pool, serial colorings
/// (tighter slabs) otherwise.
pub fn granularity_for(threads: usize) -> ArenaGranularity {
    if threads > 1 {
        ArenaGranularity::Waves
    } else {
        ArenaGranularity::Serial
    }
}

impl CompiledArena {
    /// Lowers an analyzed plan onto a static arena at the given
    /// granularity. Everything a run would otherwise have to re-check per
    /// call is checked here, once: the analyzer's lint gate, the coloring
    /// and access-path certificates, and — at
    /// [`ArenaGranularity::Waves`] — the race proof over the plan's own
    /// wave partition, the one the worker pool will be handed.
    ///
    /// Always `Ok(Some(_))` on success: every plan that passes the gate
    /// compiles, in any layout. (The `Option` dates from when strided
    /// plans ran elsewhere; the signature is frozen.)
    ///
    /// # Errors
    ///
    /// Returns an error when `analysis` carries an error-severity lint,
    /// the coloring or the access paths cannot be certified
    /// ([`crate::sanitize::certify_arena`],
    /// [`crate::access::certify_access_arena`] — an internal invariant
    /// violation), the wave partition fails
    /// [`crate::sanitize::certify_waves`], or a step has no arena lowering
    /// (an operator kind or operand count the step lowering does not
    /// model, or a tile program's tail stream declared in a non-natural
    /// layout).
    pub fn compile(
        graph: &Graph,
        plan: &ExecutionPlan,
        analysis: &PlanAnalysis,
        granularity: ArenaGranularity,
    ) -> Result<Option<CompiledArena>> {
        analysis.gate()?;
        CompiledArena::build(graph, plan, analysis, granularity).map(Some)
    }

    /// [`CompiledArena::compile`] past the lint gate. The measurement
    /// source compiles one-step plans here whose inputs it stands up as
    /// externals in the layouts under test — which the gate's coherence
    /// and use-before-def lints, written for whole schedules, would
    /// refuse; everything certified per arena is still certified.
    pub(crate) fn build(
        graph: &Graph,
        plan: &ExecutionPlan,
        analysis: &PlanAnalysis,
        granularity: ArenaGranularity,
    ) -> Result<CompiledArena> {
        let refused = |what: &str, lints: Vec<crate::analyze::PlanLint>| {
            let lints: Vec<String> = lints.iter().map(|l| l.to_string()).collect();
            TensorError::Unsupported(format!("{what} failed certification: {}", lints.join("; ")))
        };
        let waves: Vec<Vec<usize>> = match granularity {
            ArenaGranularity::Serial => (0..plan.steps.len()).map(|i| vec![i]).collect(),
            ArenaGranularity::Waves => {
                let waves = analysis.parallel_waves();
                certify_analyzed(graph, plan, analysis, &waves)
                    .map_err(|lints| refused("wave partition", lints))?;
                waves
            }
        };
        let assignment = crate::analyze::assign_arena(analysis, granularity);
        let cert =
            certify_arena(plan, &assignment).map_err(|lints| refused("arena coloring", lints))?;
        crate::access::certify_access_arena(graph, plan, &assignment)
            .map_err(|lints| refused("arena access paths", lints))?;

        let view = |s: &crate::analyze::ArenaSlot| BufView {
            off: s.offset as usize,
            len: s.words as usize,
        };
        // one slot per live buffer, in liveness order
        let mut externals = Vec::new();
        let mut place_of: HashMap<NodeId, Place> = HashMap::new();
        // the table entry of every gathered external, until its first
        // relayout has taken it
        let mut gather_from: HashMap<NodeId, usize> = HashMap::new();
        for (b, s) in analysis.liveness.iter().zip(&assignment.slots) {
            let place = match s.borrowed {
                true => Place::Borrowed(externals.len()),
                false => Place::Slab(view(s)),
            };
            place_of.insert(b.data, place);
            if b.def.is_none() {
                if b.home == Home::Gathered {
                    gather_from.insert(b.data, externals.len());
                }
                externals.push(ExternalBind {
                    name: b.name.clone(),
                    view: view(s),
                    home: b.home,
                });
            }
        }

        let no_lowering =
            |what: String| TensorError::Unsupported(format!("{what} has no arena lowering"));
        let mut steps = Vec::with_capacity(plan.steps.len());
        let mut stats_words = 0usize;
        let mut stats_out = Vec::new();
        for (si, step) in plan.steps.iter().enumerate() {
            let role = |o: &&crate::plan::Operand| graph.data(o.data).map(|d| d.role);
            let read_only = |o: &_| matches!(role(o), Some(DataRole::Input | DataRole::Weight));
            if let Some(o) = step.outputs.iter().find(read_only) {
                return Err(TensorError::Unsupported(format!(
                    "step {si} (`{}`) writes `{}`, an input or weight: the arena reads those where the caller keeps them and never writes one",
                    step.name, o.name
                )));
            }
            let stream = plan.stream_of(si);
            let exec = compile_step(
                graph,
                step,
                stream,
                &place_of,
                &mut gather_from,
                &mut stats_words,
                &mut stats_out,
            )
            .ok_or_else(|| match strided_tail(step) {
                Some(o) => TensorError::Unsupported(format!(
                    "step {si} (`{}`): tile-program tail stream `{}` is declared in layout `{}`; tail streams must be in natural layout",
                    step.name, o.name, layout_spec(graph, o.data, o.layout)
                )),
                None => no_lowering(format!("step {si} (`{}`)", step.name)),
            })?;
            steps.push(exec);
        }

        // per-wave cumulative scratch offsets; the high-water mark over
        // waves sizes the scratch allocation
        let mut scratch_words = 0usize;
        for wave in &waves {
            let mut acc = 0usize;
            for &si in wave {
                steps[si].scratch.off = acc;
                acc += steps[si].scratch.len;
            }
            scratch_words = scratch_words.max(acc);
        }

        let step_outputs: Vec<Vec<BufView>> = plan
            .steps
            .iter()
            .map(|step| {
                let slab = |o: &crate::plan::Operand| match place_of.get(&o.data) {
                    Some(&Place::Slab(v)) => Some(v),
                    _ => None,
                };
                step.outputs.iter().filter_map(slab).collect()
            })
            .collect();

        let mut retire: Vec<Vec<BufView>> = vec![Vec::new(); waves.len()];
        let last = waves.len().saturating_sub(1);
        for slot in &assignment.slots {
            if slot.end < last && !slot.borrowed {
                retire[slot.end].push(view(slot));
            }
        }

        // the layout the schedule leaves each container in
        let mut left_in: HashMap<NodeId, Layout> = HashMap::new();
        for step in &plan.steps {
            let relayouts = step.relayouts.iter().map(|r| (r.data, r.to));
            let operands = step.inputs.iter().chain(&step.outputs);
            for (data, layout) in relayouts.chain(operands.map(|o| (o.data, o.layout))) {
                left_in.insert(data, layout);
            }
        }

        let mut outputs = Vec::new();
        for b in &analysis.liveness {
            let container = || no_lowering(format!("container `{}`", b.name));
            // an external in one of these roles is the caller's already
            if let (Some(&Place::Slab(view)), DataRole::Output | DataRole::Saved) =
                (place_of.get(&b.data), b.role)
            {
                let d = graph.data(b.data).ok_or_else(container)?;
                outputs.push(MaterializeSpec {
                    name: b.name.clone(),
                    shape: d.shape.clone(),
                    layout: *left_in.get(&b.data).ok_or_else(container)?,
                    view,
                    saved: b.role == DataRole::Saved,
                });
            }
        }

        let slab_words = assignment.slab_words as usize;

        // sanitizer poison spans: the whole slab minus persistent ranges
        let mut persist: Vec<(usize, usize)> = externals
            .iter()
            .filter(|e| e.home == Home::Slab)
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

        Ok(CompiledArena {
            granularity,
            cert,
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
            buffers: Mutex::default(),
        }
        .with_zeroed_buffers())
    }

    /// The arena over zeroed buffers of its own, sized for its plan.
    fn with_zeroed_buffers(mut self) -> CompiledArena {
        self.buffers = Mutex::new(ArenaBuffers {
            slab: vec![0.0; self.slab_words],
            scratch: vec![0.0; self.scratch_words],
            stats: vec![0.0; self.stats_words],
            step_us: vec![0.0; self.steps.len()],
            wave_us: vec![0.0; self.waves.len()],
            ext: vec![ExtSlice(&[]); self.externals.len()],
        });
        self
    }

    /// A second arena of the same compiled plan with zeroed buffers of its
    /// own: nothing is analyzed, certified or lowered again. A decode
    /// session compiles its attend plan once and takes one of these per
    /// layer, each slab holding that layer's resident cache.
    pub fn fresh(&self) -> CompiledArena {
        CompiledArena {
            granularity: self.granularity,
            cert: self.cert.clone(),
            slab_words: self.slab_words,
            scratch_words: self.scratch_words,
            stats_words: self.stats_words,
            steps: self.steps.clone(),
            step_names: self.step_names.clone(),
            step_outputs: self.step_outputs.clone(),
            waves: self.waves.clone(),
            retire: self.retire.clone(),
            externals: self.externals.clone(),
            poison_spans: self.poison_spans.clone(),
            outputs: self.outputs.clone(),
            stats_out: self.stats_out.clone(),
            buffers: Mutex::default(),
        }
        .with_zeroed_buffers()
    }

    /// The view of every operand step `si` hands its kernel, in the
    /// kernel's argument order, as an access path in the words of the
    /// arena's address space (the slab, then each borrowed external's own
    /// range) — what the access certificate's paths, embedded in their
    /// slots, must equal.
    pub fn step_views(&self, si: usize) -> impl Iterator<Item = AccessPath> + '_ {
        let step = &self.steps[si];
        let operands = step.operands.iter().enumerate();
        operands.map(|(k, (place, role, view))| {
            let walk = walk_of(&step.sweeps, step.operands.len(), k);
            let mut path = view_path(role, view, walk).0;
            path.base += match *place {
                Place::Slab(slot) => slot.off,
                Place::Borrowed(e) => self.externals[e].view.off,
            } as u64;
            path
        })
    }

    /// The certificate proving the coloring respects liveness.
    pub fn certificate(&self) -> &ArenaCertificate {
        &self.cert
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

    fn lock_buffers(&self) -> std::sync::MutexGuard<'_, ArenaBuffers> {
        // a run that panicked mid-way leaves stale words, never invalid
        // ones: the next run rebinds every external and rewrites the rest
        self.buffers.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Every external container of the plan — what a run's resolver is
    /// asked for — as `(name, words)`.
    pub fn externals(&self) -> impl Iterator<Item = (&str, usize)> {
        self.externals.iter().map(|e| (e.name.as_str(), e.view.len))
    }

    /// The slab range of the external `name`, if it has one.
    fn resident(&self, name: &str) -> Option<std::ops::Range<usize>> {
        let named = |e: &&ExternalBind| e.name == name && e.home != Home::Borrowed;
        let e = self.externals.iter().find(named)?;
        Some(e.view.off..e.view.off + e.view.len)
    }

    /// Runs `f` over the resident slab region of the external container
    /// `name` (in the layout the plan first touches it in: natural for
    /// every gated plan), waiting for a run in progress to finish.
    /// Returns `None` when no external of that name lives in the slab — a
    /// borrowed one is the caller's own memory.
    ///
    /// This is the read half of the cross-call residency surface: decode
    /// sessions use it to migrate cache contents between arenas when a
    /// position bucket grows.
    pub fn with_external<R>(&self, name: &str, f: impl FnOnce(&[f32]) -> R) -> Option<R> {
        let range = self.resident(name)?;
        Some(f(&self.lock_buffers().slab[range]))
    }

    /// Runs `f` over the mutable resident slab region of the external
    /// container `name`, waiting for a run in progress to finish. Returns
    /// `None` when no external of that name lives in the slab.
    ///
    /// This is the write half of the cross-call residency surface: decode
    /// sessions append one new cache column per step through a
    /// bounds-checked [`crate::access::column_span`] license before the
    /// attend plan runs.
    pub fn with_external_mut<R>(&self, name: &str, f: impl FnOnce(&mut [f32]) -> R) -> Option<R> {
        let range = self.resident(name)?;
        Some(f(&mut self.lock_buffers().slab[range]))
    }

    /// Executes the compiled plan with caller-provided binding and
    /// materialization, touching no heap on the steady-state path. Of
    /// `opts` it reads the scalar knobs, `seed`, `threads`, `sanitize`,
    /// `pos`, and whether a profiler sink is set. It waits for the arena's
    /// buffers if another thread is running out of them.
    ///
    /// `resolve` is called once per external container with its name and
    /// answers with the container's words — in the layout the plan first
    /// touches it in, which for every plan that passed the lint gate is the
    /// natural (logical row-major) one. The kernels read them out of that
    /// very slice: nothing is copied unless the plan re-lays the container
    /// after reading it as it came. A [`DataRole::Cache`] external answered
    /// with a slice is overwritten by it; answered with `None` it keeps its
    /// resident contents. `sink` is called after the run, once per
    /// output/saved container and per layer-norm statistics region and, on
    /// a timed run, once with the [`ArenaArtifact::Timings`]; artifacts
    /// borrow the arena's storage, so copying sinks stay allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDropout`] when `opts.dropout_p` is
    /// outside `[0, 1)`, [`TensorError::SerialOnly`] when `opts.threads >
    /// 1` on an arena compiled at [`ArenaGranularity::Serial`],
    /// [`TensorError::UnboundExternal`] naming the container `resolve`
    /// answered with no slice (but for a cache) or one of the wrong length,
    /// and an error when a worker panics or the shadow sanitizer detects a
    /// non-finite output (a read of a dead, reused buffer).
    pub fn execute_bound<'a>(
        &self,
        opts: &ExecOptions,
        resolve: &mut dyn FnMut(&str) -> Option<&'a [f32]>,
        sink: &mut dyn FnMut(ArenaArtifact<'_>),
    ) -> Result<()> {
        let run = &ArenaRun::new(opts);
        check_dropout_p(run.dropout_p)?;
        let parallel = run.threads > 1;
        if parallel && self.granularity != ArenaGranularity::Waves {
            return Err(TensorError::SerialOnly {
                threads: run.threads,
            });
        }
        let mut guard = self.lock_buffers();
        let bufs = &mut *guard;
        if run.sanitize {
            // poison everything except persistent (cache) ranges, whose
            // resident contents must survive between calls
            for span in &self.poison_spans {
                bufs.slab[span.off..span.off + span.len].fill(f32::NAN);
            }
        }
        // the table entries outlive the run: `'a` outlives this call
        for (e, entry) in self.externals.iter().zip(&mut bufs.ext) {
            match resolve(&e.name) {
                Some(src) if src.len() == e.view.len => {
                    *entry = ExtSlice(src);
                    if matches!(e.home, Home::Slab | Home::Copied) {
                        bufs.slab[e.view.off..e.view.off + e.view.len].copy_from_slice(src);
                    }
                }
                // the steady-state decode path: the cache already lives here
                None if e.home == Home::Slab => {}
                _ => {
                    return Err(TensorError::UnboundExternal {
                        container: e.name.clone(),
                        words: e.view.len,
                    })
                }
            }
        }
        let mem = SlabMem::new(bufs);
        let workers = if parallel {
            self.run_parallel(mem, run)?
        } else {
            self.run_serial(mem, run)?;
            1
        };
        for m in &self.outputs {
            sink(ArenaArtifact::Tensor {
                name: &m.name,
                saved: m.saved,
                shape: &m.shape,
                layout: &m.layout,
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
        if run.timed {
            sink(ArenaArtifact::Timings {
                step_us: &bufs.step_us,
                waves: &self.waves,
                wave_us: if parallel { &bufs.wave_us } else { &[] },
                workers,
                sanitized: run.sanitize,
            });
        }
        Ok(())
    }

    /// [`CompiledArena::execute_bound`] with every produced container,
    /// saved activation and layer-norm statistic materialized into `out`
    /// (which allocates) and, when `opts.profiler` is set, the run's
    /// timings folded into the sink against `graph` and `plan` — the
    /// schedule this arena was compiled from.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledArena::execute_bound`].
    pub fn execute_into_state<'a>(
        &self,
        graph: &Graph,
        plan: &ExecutionPlan,
        opts: &ExecOptions,
        resolve: &mut dyn FnMut(&str) -> Option<&'a [f32]>,
        out: &mut ExecState,
    ) -> Result<()> {
        let mut sink = |a: ArenaArtifact<'_>| match a {
            ArenaArtifact::Tensor {
                name,
                shape,
                layout,
                data,
                ..
            } => {
                // one pass over the words: no zero fill ahead of the copy
                let t = Tensor::from_vec_with_layout(shape.clone(), *layout, data.to_vec())
                    .expect("a slot holds its container's words");
                out.env.insert(name.to_string(), t);
            }
            ArenaArtifact::Stats {
                name,
                mean,
                inv_std,
            } => {
                out.stats.insert(
                    name.to_string(),
                    LayerNormStats {
                        mean: mean.to_vec(),
                        inv_std: inv_std.to_vec(),
                    },
                );
            }
            timings @ ArenaArtifact::Timings { .. } => {
                if let Some(profiler) = opts.profiler {
                    crate::profile::record_arena_timings(profiler, graph, plan, &timings);
                }
            }
        };
        self.execute_bound(opts, resolve, &mut sink)
    }

    fn run_serial(&self, mem: SlabMem, run: &ArenaRun) -> Result<()> {
        for (w, wave) in self.waves.iter().enumerate() {
            for &si in wave {
                // SAFETY: the arena certificate proves every pair of
                // simultaneously-live buffers occupies disjoint slab
                // ranges, and serial execution never overlaps two steps.
                unsafe { run_indexed(&self.steps, si, mem, run) };
            }
            if run.sanitize {
                self.sanitize_wave(mem, w)?;
            }
        }
        Ok(())
    }

    /// Dispatches each wave across the pool; returns how many threads
    /// served the multi-step waves.
    fn run_parallel(&self, mem: SlabMem, run: &ArenaRun) -> Result<usize> {
        let pool = pool();
        // serialize concurrent parallel arena runs; waves of one run must
        // not interleave with another run's on the shared job slot
        let _dispatch = pool.dispatch.lock().unwrap_or_else(|e| e.into_inner());
        for (w, wave) in self.waves.iter().enumerate() {
            let t0 = run.timed.then(Instant::now);
            if wave.len() <= 1 || pool.workers == 0 {
                for &si in wave {
                    // SAFETY: as in `run_serial`.
                    unsafe { run_indexed(&self.steps, si, mem, run) };
                }
            } else {
                pool.run_wave(&self.steps, wave, mem, run)?;
            }
            if let Some(t0) = t0 {
                // SAFETY: one slot per wave, sized at compile; only this
                // dispatching thread writes wave slots.
                unsafe { *mem.wave_us.add(w) = t0.elapsed().as_secs_f64() * 1e6 };
            }
            if run.sanitize {
                self.sanitize_wave(mem, w)?;
            }
        }
        Ok(pool.workers + 1)
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
            unsafe { mem.slab_mut(*v) }.fill(f32::NAN);
        }
        Ok(())
    }
}

type Memo = Mutex<HashMap<(u64, ArenaGranularity), Arc<CompiledArena>>>;

fn memo() -> &'static Memo {
    static MEMO: OnceLock<Memo> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// [`plan_fingerprint`] extended by the extents of every operand's
/// container: the fingerprint covers operators, names and layouts, and one
/// schedule lowered at two sets of dimensions must not share an arena.
fn plan_key(graph: &Graph, plan: &ExecutionPlan) -> u64 {
    let mut h = plan_fingerprint(plan);
    let mut eat = |n: u64| h = (h ^ n).wrapping_mul(0x0000_0100_0000_01b3);
    for step in &plan.steps {
        for o in step.inputs.iter().chain(&step.outputs) {
            if let Some(d) = graph.data(o.data) {
                d.shape.sizes().iter().for_each(|&n| eat(n as u64));
            }
            eat(u64::MAX);
        }
    }
    h
}

/// The compiled arena of `plan` at `granularity`, analyzed, certified and
/// compiled on first use and memoized per distinct plan — so a plan is
/// checked once, not on every call. Always `Ok(Some(_))` on success (see
/// [`CompiledArena::compile`]). Callers of one plan share one arena and
/// queue on its buffers.
///
/// # Errors
///
/// Same as [`CompiledArena::compile`].
pub fn compiled(
    graph: &Graph,
    plan: &ExecutionPlan,
    granularity: ArenaGranularity,
) -> Result<Option<Arc<CompiledArena>>> {
    memoized(graph, plan, granularity).map(Some)
}

/// [`compiled`] without the vestigial `Option`.
pub(crate) fn memoized(
    graph: &Graph,
    plan: &ExecutionPlan,
    granularity: ArenaGranularity,
) -> Result<Arc<CompiledArena>> {
    let key = (plan_key(graph, plan), granularity);
    let lock = || memo().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hit) = lock().get(&key).filter(|a| a.matches(plan)) {
        return Ok(Arc::clone(hit));
    }
    // compile outside the lock; a racing duplicate is benign
    let analysis = analyze(graph, plan);
    analysis.gate()?;
    let built = Arc::new(CompiledArena::build(graph, plan, &analysis, granularity)?);
    lock().insert(key, Arc::clone(&built));
    Ok(built)
}

/// Drops every arena [`compiled`] memoized.
pub fn clear_compiled() {
    memo().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Runs `plan` against `state` on its memoized arena ([`compiled`]) at the
/// granularity `opts.threads` asks for, binding externals out of
/// `state.env` and materializing every output, saved activation and
/// layer-norm statistic back into it, each in the layout the plan leaves
/// it in.
///
/// # Errors
///
/// Returns an error if the plan fails the lint gate or certification, an
/// external the plan reads is missing from `state.env` or has the wrong
/// size, or a kernel rejects its operands.
pub fn execute(
    graph: &Graph,
    plan: &ExecutionPlan,
    state: &mut ExecState,
    opts: &ExecOptions,
) -> Result<()> {
    let arena = memoized(graph, plan, granularity_for(opts.threads))?;
    let mut produced = ExecState::default();
    // the words of a tensor stored in its natural layout are borrowed as
    // they are; one an earlier plan left in another is normalized first
    let permuted = |t: &&Tensor| t.natural_words().is_none();
    let natural: HashMap<&str, Tensor> = (arena.externals())
        .filter_map(|(name, _)| Some((name, state.env.get(name).filter(permuted)?)))
        .map(|(name, t)| (name, t.relayout(&Layout::row_major(t.shape().rank()))))
        .collect();
    let env = &state.env;
    let resolve = &mut |name: &str| natural.get(name).or(env.get(name)).map(Tensor::data);
    arena.execute_into_state(graph, plan, opts, resolve, &mut produced)?;
    state.env.extend(produced.env);
    state.stats.extend(produced.stats);
    Ok(())
}

/// The first tail stream of a one-contraction tile program declared in a
/// non-natural layout — the one thing [`lower_step`] refuses that the
/// reference interpreter runs.
fn strided_tail(step: &PlanStep) -> Option<&crate::plan::Operand> {
    if !matches!(step.kind, OpKind::TileProgram { second: None, .. }) {
        return None;
    }
    let tail = step.inputs.iter().skip(2).chain(&step.outputs);
    tail.into_iter().find(|o| !o.layout.is_row_major())
}

/// Precompiles one plan step: its lowering (`core::lower`), with every
/// operand's view embedded in the declared operand's slot — a slab range
/// or a borrowed external — and a statistics region allotted to the
/// normalizing classes. A relayout that finds its container in
/// `gather_from` takes the entry: it gathers out of the caller's slice.
/// `None` means the lowering does not model the step (its kind, operand
/// count, geometry or tail layout), an operand has no slot, or an output
/// or a relayout resolves to a borrowed external, which
/// [`CompiledArena::compile`] reports as an error naming the step.
fn compile_step(
    graph: &Graph,
    step: &PlanStep,
    stream: usize,
    place_of: &HashMap<NodeId, Place>,
    gather_from: &mut HashMap<NodeId, usize>,
    stats_words: &mut usize,
    stats_out: &mut Vec<StatsSpec>,
) -> Option<StepExec> {
    let low = lower_step(graph, step)?;
    let scratch = BufView {
        off: 0,
        len: low.scratch_words(),
    };
    let operands = (low.operands.into_iter())
        .map(|(slot, role, view)| {
            let place = match slot {
                Slot::In(k) => *place_of.get(&step.inputs.get(k)?.data)?,
                Slot::Out(k) => match *place_of.get(&step.outputs.get(k)?.data)? {
                    Place::Borrowed(_) => return None,
                    slab => slab,
                },
            };
            Some((place, role, view))
        })
        .collect::<Option<_>>()?;
    let relayouts = (low.relayouts.into_iter())
        .map(|r| match *place_of.get(&r.data)? {
            Place::Slab(slot) => Some((gather_from.remove(&r.data), slot, r)),
            Place::Borrowed(_) => None,
        })
        .collect::<Option<_>>()?;
    let stats = match low.stats {
        Some((out, lanes)) => {
            let region = |k: usize| BufView {
                off: *stats_words + k * lanes,
                len: lanes,
            };
            let (mean, inv_std) = (region(0), region(1));
            *stats_words += 2 * lanes;
            stats_out.push(StatsSpec {
                name: step.outputs.get(out)?.name.clone(),
                mean,
                inv_std,
            });
            Some((mean, inv_std))
        }
        None => None,
    };
    Some(StepExec {
        kernel: low.kernel,
        sweeps: low.sweeps,
        operands,
        relayouts,
        stats,
        scratch,
        stream,
    })
}

/// Runs step `si` of `steps` on its own RNG stream and, on a timed run,
/// writes its wall time into the step's own timing slot.
///
/// # Safety
///
/// As [`run_step`]; in addition `mem.step_us` must address one slot per
/// step, and no other thread may be executing step `si` — each step index
/// sits in exactly one wave and is claimed exactly once.
unsafe fn run_indexed(steps: &[StepExec], si: usize, mem: SlabMem, run: &ArenaRun) {
    let mut rng = step_rng(run.seed, steps[si].stream);
    let t0 = run.timed.then(Instant::now);
    // SAFETY: the caller's contract is `run_step`'s.
    unsafe { run_step(&steps[si], mem, run, &mut rng) };
    if let Some(t0) = t0 {
        // SAFETY: `si` indexed `steps`, so it is in range of the equally
        // long slot array, and this is the step's only execution.
        unsafe { *mem.step_us.add(si) = t0.elapsed().as_secs_f64() * 1e6 };
    }
}

/// Executes one precompiled step out of the slab: its relayouts, then its
/// kernel through the `*_into` drivers, which run the walk the step's
/// compiled sweep chose from the strides of the step's own views. This
/// is the only place that knows a kernel's argument order: `r(k)`/`w(k)`
/// are the slot of the step's `k`-th operand, in the order the lowering's
/// [`Kernel`] variants document.
///
/// # Safety
///
/// `mem` must point into live buffers at least as large as every slot the
/// step references, every entry of its externals table the step references
/// must hold a live slice of the external's words, and no
/// concurrently-running step may write any word this step touches —
/// guaranteed by the arena certificate (interval overlap ⇒ range
/// disjointness) plus the wave partition's race certificate semantics; a
/// borrowed external no step can write at all.
unsafe fn run_step<R: Rng + ?Sized>(step: &StepExec, mem: SlabMem, run: &ArenaRun, rng: &mut R) {
    let drop = &mut Dropout::new(run.dropout_p, rng)
        .expect("dropout_p was validated when the arena run was admitted");
    // SAFETY (all three): the caller's contract covers every slot of the
    // step, its statistics regions and its scratch range.
    let r = |k: usize| match step.operands[k].0 {
        Place::Slab(v) => unsafe { mem.slab(v) },
        Place::Borrowed(e) => unsafe { mem.ext(e) },
    };
    let w = |k: usize| match step.operands[k].0 {
        Place::Slab(v) => unsafe { mem.slab_mut(v) },
        Place::Borrowed(_) => unreachable!("`compile_step` admits no borrowed output"),
    };
    let scratch = || unsafe { mem.scratch_mut(step.scratch.off, step.scratch.len) };
    let stats = || {
        let (mean, inv_std) = step
            .stats
            .expect("a normalizing class has statistics regions");
        unsafe { (mem.stats_mut(mean), mem.stats_mut(inv_std)) }
    };
    for (source, slot, copy) in &step.relayouts {
        // SAFETY: the hazard analysis orders a relayout against every
        // other access of its container, so this step owns the slot.
        let slot = unsafe { mem.slab_mut(*slot) };
        match *source {
            // SAFETY: the run bound entry `e` before its first step.
            Some(e) => into_ops::relayout_from(&copy.dims, unsafe { mem.ext(e) }, slot),
            None => into_ops::relayout_into(&copy.dims, slot, scratch()),
        }
    }
    let s = step.sweeps.first();
    let s = || s.expect("a sweeping class has a compiled sweep");
    let pos = |causal: bool| causal.then_some(run.pos);
    match &step.kernel {
        Kernel::Contract { plan } => into_ops::contract_into(plan, r(0), r(1), w(2), scratch()),
        Kernel::Bias => {
            for (k, s) in step.sweeps.iter().enumerate() {
                into_ops::bias_add_into(s, r(3 * k), r(3 * k + 1), w(3 * k + 2));
            }
        }
        Kernel::Scale => into_ops::scale_into(s(), r(0), run.scaler, w(1)),
        Kernel::Activate => into_ops::activate_into(s(), r(0), run.activation, w(1)),
        Kernel::Dropout if run.dropout_p > 0.0 => {
            into_ops::dropout_into(s(), r(0), drop, w(1), w(2));
        }
        Kernel::Dropout => into_ops::dropout_disabled_into(s(), r(0), w(1), w(2)),
        Kernel::Residual => into_ops::add_into(s(), r(0), r(1), w(2)),
        Kernel::Softmax { causal } => {
            into_ops::softmax_into(s(), r(0), run.scaler, pos(*causal), w(1));
        }
        Kernel::Sm { causal } => {
            let c = pos(*causal);
            into_ops::sm_into(s(), r(0), run.scaler, c, drop, w(1), w(2), w(3));
        }
        Kernel::LayerNorm => {
            let (mean, inv_std) = stats();
            into_ops::layernorm_into(s(), r(0), r(1), r(2), w(3), mean, inv_std);
        }
        Kernel::Bdrln => {
            let (mean, inv_std) = stats();
            into_ops::bdrln_into(
                s(),
                r(0),
                r(1),
                r(2),
                r(3),
                r(4),
                drop,
                w(5),
                w(6),
                w(7),
                mean,
                inv_std,
            );
        }
        Kernel::BrdAct => {
            into_ops::brd_act_into(s(), r(0), r(1), run.activation, drop, w(2), w(3), w(4));
        }
        Kernel::Bdr => into_ops::bdr_into(s(), r(0), r(1), r(2), drop, w(3), w(4)),
        Kernel::BiasSoftmax => into_ops::bias_softmax_into(s(), r(0), r(1), w(2)),
        Kernel::Tile { plan, tail } => {
            let mut tail = match *tail {
                Tail::BrdAct => RowTail::BiasActDrop {
                    bias: r(2),
                    kind: run.activation,
                    pre_activation: w(3),
                    out: w(4),
                    mask: w(5),
                },
                Tail::Bdr => RowTail::BiasDropResidual {
                    bias: r(2),
                    residual: r(3),
                    mask: w(4),
                    out: w(5),
                },
                Tail::BiasSoftmax => RowTail::BiasSoftmax {
                    bias: r(2),
                    out: w(3),
                },
                Tail::Softmax { causal } => RowTail::Softmax {
                    scaler: run.scaler,
                    causal: pos(causal),
                },
            };
            // the attention region's context contraction: the values, the
            // output
            let second = plan.second.is_some().then(|| (r(2), w(3)));
            into_ops::tile_into(plan, r(0), r(1), &mut tail, second, drop, scratch());
        }
    }
}

/// A wave handed to the persistent worker pool: raw views of one arena's
/// step table, wave slice, and buffers, all outliving the dispatch because
/// the publishing thread blocks until every worker has drained.
#[derive(Clone, Copy)]
struct WaveJob {
    steps: *const [StepExec],
    wave: *const [usize],
    mem: SlabMem,
    run: ArenaRun,
}

// SAFETY: the pointers address the publishing arena's step table and wave
// slice, both immutable and alive until the publisher has seen every
// worker leave the job (see `Pool::run_wave`).
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
                steps,
                wave,
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
            // SAFETY: per the arena certificate, see `run_step`; the claim
            // counter hands each wave position to one thread.
            unsafe { run_indexed(steps, wave[i], mem, run) };
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
        // SAFETY: the publisher keeps `steps`/`wave`/`mem` alive until
        // `running` drops to zero, which happens strictly after this
        // worker finishes.
        let (steps, wave) = unsafe { (&*job.steps, &*job.wave) };
        let res = catch_unwind(AssertUnwindSafe(|| loop {
            let i = pool.claim.fetch_add(1, Ordering::Relaxed);
            if i >= wave.len() {
                break;
            }
            // SAFETY: as in `Pool::run_wave`.
            unsafe { run_indexed(steps, wave[i], job.mem, &job.run) };
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
    use crate::fusion::{apply_plan, encoder_fusion_plan};
    use crate::plan::testing::reversed;
    use crate::plan::{execute_plan, execute_step, random_externals};
    use crate::profile::{PlanProfiler, ProfilerSink};
    use crate::recipe::forward_ops;
    use xform_dataflow::{build, EncoderDims};
    use xform_tensor::lanes::Walk;

    fn fused_plan() -> (Graph, ExecutionPlan) {
        fused_plan_at(&EncoderDims::tiny())
    }

    fn fused_plan_at(dims: &EncoderDims) -> (Graph, ExecutionPlan) {
        let eg = build::encoder(dims);
        let mut g = eg.graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        let plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
        (g, plan)
    }

    fn compile(graph: &Graph, plan: &ExecutionPlan, g: ArenaGranularity) -> CompiledArena {
        CompiledArena::compile(graph, plan, &analyze(graph, plan), g)
            .unwrap()
            .expect("every gated plan compiles")
    }

    /// The most words the buffers that are not borrowed hold at any one
    /// step, recomputed from the live intervals alone.
    fn slab_owned_peak(analysis: &PlanAnalysis) -> u64 {
        let owned = || {
            analysis
                .liveness
                .iter()
                .filter(|b| b.home != Home::Borrowed)
        };
        let at = |t: usize| owned().filter(move |b| b.start <= t && t <= b.end);
        let steps = 0..analysis.resident_words.len();
        steps
            .map(|t| at(t).map(|b| b.words).sum())
            .max()
            .unwrap_or(0)
    }

    /// A resolver that answers every external out of `base`, except `skip`.
    fn binder<'a>(base: &'a ExecState, skip: &'a str) -> impl FnMut(&str) -> Option<&'a [f32]> {
        move |name| {
            base.env
                .get(name)
                .filter(|_| name != skip)
                .map(Tensor::data)
        }
    }

    /// One run of `arena` over the externals in `base`: everything it
    /// produced, as name-sorted `(name, data)` pairs, stats included.
    fn run(
        arena: &CompiledArena,
        graph: &Graph,
        plan: &ExecutionPlan,
        base: &ExecState,
        opts: &ExecOptions,
    ) -> Vec<(String, Vec<f32>)> {
        let mut out = ExecState::default();
        arena
            .execute_into_state(graph, plan, opts, &mut binder(base, ""), &mut out)
            .unwrap();
        let mut all: Vec<(String, Vec<f32>)> = out
            .env
            .into_iter()
            .map(|(n, t)| (n, t.data().to_vec()))
            .collect();
        for (n, s) in out.stats {
            all.push((format!("{n}/mean"), s.mean));
            all.push((format!("{n}/inv_std"), s.inv_std));
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    #[test]
    fn canned_fused_plan_compiles_and_matches_env_bitwise() {
        let (graph, plan) = fused_plan();
        let analysis = analyze(&graph, &plan);
        let arena = compile(&graph, &plan, ArenaGranularity::Serial);
        assert!(arena.matches(&plan));
        assert_eq!(
            arena.slab_words() as u64,
            slab_owned_peak(&analysis),
            "serial arena slab must hit the peak-resident target exactly"
        );

        let base = random_externals(&graph, &plan, 42).unwrap();
        let opts = ExecOptions::builder().sanitize(SanitizeMode::Off).build();
        let mut reference = base.clone();
        let mut rng = StdRng::seed_from_u64(opts.seed);
        execute_plan(&graph, &plan, &mut reference, &opts, &mut rng).unwrap();
        // every Output/Saved container and statistic must be bitwise equal
        // to the reference interpreter's
        let produced = run(&arena, &graph, &plan, &base, &opts);
        assert!(produced.len() > 5);
        for (name, data) in &produced {
            match name.rsplit_once('/') {
                Some((norm, "mean")) => assert_eq!(data, &reference.stats[norm].mean, "{name}"),
                Some((norm, _)) => assert_eq!(data, &reference.stats[norm].inv_std, "{name}"),
                None => assert_eq!(data, reference.env[name].data(), "{name}"),
            }
        }
    }

    /// At `tiny` the norm steps' `b·j = 8` strided lanes are one panel of
    /// eight. At `b·j = 21` a row of lanes is cut into a panel of 16, one of
    /// 4 and a last lane alone, with dropout drawing into each: the oracle's
    /// bits, masks and statistics, run for run (Miri interprets this one).
    #[test]
    fn a_row_of_lanes_no_multiple_of_the_panel_width_matches_env_bitwise() {
        let dims = EncoderDims {
            b: 3,
            j: 7,
            k: 7,
            ..EncoderDims::tiny()
        };
        let (graph, plan) = fused_plan_at(&dims);
        let arena = compile(&graph, &plan, ArenaGranularity::Serial);
        let panels = arena.steps.iter().flat_map(|s| &s.sweeps);
        assert!(panels.filter(|s| s.walk() == Walk::Panel).count() >= 2);
        let base = random_externals(&graph, &plan, 21).unwrap();
        let opts = ExecOptions::builder()
            .dropout_p(0.3)
            .sanitize(SanitizeMode::Off)
            .build();
        // the oracle on the arena's RNG discipline: one stream per step
        let mut reference = base.clone();
        for (si, step) in plan.steps.iter().enumerate() {
            let rng = &mut step_rng(opts.seed, si);
            execute_step(&graph, step, &mut reference, &opts, rng).unwrap();
        }
        for (name, data) in &run(&arena, &graph, &plan, &base, &opts) {
            match name.rsplit_once('/') {
                Some((norm, "mean")) => assert_eq!(data, &reference.stats[norm].mean, "{name}"),
                Some((norm, _)) => assert_eq!(data, &reference.stats[norm].inv_std, "{name}"),
                None => assert_eq!(data, reference.env[name].data(), "{name}"),
            }
        }
    }

    #[test]
    fn waves_arena_parallel_matches_serial_arena_bitwise() {
        let (graph, plan) = fused_plan();
        let arena = compile(&graph, &plan, ArenaGranularity::Waves);
        let base = random_externals(&graph, &plan, 7).unwrap();
        // every external of a natural plan is borrowed: the workers of a
        // wave share the caller's slices, and none has a slab range
        assert_eq!(arena.externals().count(), base.env.len());
        for (name, _) in arena.externals() {
            assert!(arena.with_external(name, |_| ()).is_none(), "`{name}`");
        }
        for p in [0.0f32, 0.4] {
            let at = |threads| {
                let opts = ExecOptions::builder()
                    .dropout_p(p)
                    .scaler(0.5)
                    .seed(0xfeed)
                    .threads(threads)
                    .sanitize(SanitizeMode::Off)
                    .build();
                run(&arena, &graph, &plan, &base, &opts)
            };
            let serial = at(1);
            assert_eq!(serial, at(2), "thread-count variance at p={p}");
            assert_eq!(serial, at(8), "thread-count variance at p={p}");
        }
    }

    #[test]
    fn sanitized_arena_run_passes_on_clean_plan() {
        let (graph, plan) = fused_plan();
        let base = random_externals(&graph, &plan, 11).unwrap();
        for (g, threads) in [(ArenaGranularity::Serial, 1), (ArenaGranularity::Waves, 4)] {
            let arena = compile(&graph, &plan, g);
            let opts = ExecOptions::builder()
                .threads(threads)
                .sanitize(SanitizeMode::On)
                .build();
            assert!(!run(&arena, &graph, &plan, &base, &opts).is_empty(), "{g}");
        }
    }

    /// The run CI interprets under Miri: wave-parallel, sink set, so the
    /// per-step and per-wave timing slots are written through the raw
    /// views and the buffers are taken with the blocking lock.
    #[test]
    fn timed_wave_parallel_run_fills_every_slot_and_changes_no_bit() {
        let (graph, plan) = fused_plan();
        let arena = compile(&graph, &plan, ArenaGranularity::Waves);
        let base = random_externals(&graph, &plan, 5).unwrap();
        let plain = ExecOptions::builder().dropout_p(0.3).threads(4).build();
        let untimed = run(&arena, &graph, &plan, &base, &plain);

        let sink: ProfilerSink = Mutex::new(PlanProfiler::with_peak(1.0));
        let timed_opts = plain.to_builder().profiler(Some(&sink)).build();
        let timed = run(&arena, &graph, &plan, &base, &timed_opts);
        assert_eq!(timed, untimed, "observing must not change a bit");

        let prof = sink.into_inner().unwrap();
        assert_eq!(
            prof.steps().count(),
            plan.steps.len(),
            "one record per step"
        );
        assert!(prof.steps().all(|s| s.time_us > 0.0 && s.wave.is_some()));
        let waves = analyze(&graph, &plan).parallel_waves();
        assert_eq!(prof.waves().count(), waves.len(), "one record per wave");
        assert!(prof.waves().all(|w| w.wall_us > 0.0));
        // a serial run of the same arena reports steps and no waves
        let sink: ProfilerSink = Mutex::new(PlanProfiler::with_peak(1.0));
        let serial = plain.to_builder().threads(1).profiler(Some(&sink)).build();
        assert_eq!(run(&arena, &graph, &plan, &base, &serial), untimed);
        let prof = sink.into_inner().unwrap();
        assert_eq!(prof.steps().count(), plan.steps.len());
        assert_eq!(prof.waves().count(), 0);
    }

    #[test]
    fn tampered_wave_partition_is_refused_at_compile() {
        let (graph, plan) = fused_plan();
        let mut analysis = analyze(&graph, &plan);
        // forget every hazard: the partition collapses into one wave that
        // holds producers next to their consumers
        analysis.deps.clear();
        assert_eq!(analysis.parallel_waves().len(), 1);
        let err = CompiledArena::compile(&graph, &plan, &analysis, ArenaGranularity::Waves)
            .unwrap_err()
            .to_string();
        assert!(err.contains("wave partition failed certification"), "{err}");
    }

    #[test]
    fn unbound_externals_and_threads_on_a_serial_arena_are_typed_errors() {
        let (graph, plan) = fused_plan();
        let arena = compile(&graph, &plan, ArenaGranularity::Serial);
        let base = random_externals(&graph, &plan, 3).unwrap();
        let mut out = ExecState::default();
        let opts = ExecOptions::default();
        // a binder that does not know `w1`
        let err = arena
            .execute_into_state(&graph, &plan, &opts, &mut binder(&base, "w1"), &mut out)
            .unwrap_err();
        let words = base.env["w1"].len();
        assert_eq!(
            err,
            TensorError::UnboundExternal {
                container: "w1".into(),
                words
            }
        );
        // the state-based entry reports a mis-sized external the same way
        let mut short = base.clone();
        short.env.insert(
            "w1".into(),
            Tensor::zeros(Shape::new([('u', 1), ('i', 1)]).unwrap()),
        );
        let err = execute(&graph, &plan, &mut short, &opts).unwrap_err();
        assert!(
            matches!(&err, TensorError::UnboundExternal { container, .. } if container == "w1"),
            "{err}"
        );
        // more than one thread needs the wave coloring
        let two = ExecOptions::builder().threads(2).build();
        let err = arena
            .execute_into_state(&graph, &plan, &two, &mut binder(&base, ""), &mut out)
            .unwrap_err();
        assert_eq!(err, TensorError::SerialOnly { threads: 2 });
        // only a cache may be declined: an external that lives in the slab
        // because the plan re-lays it is unbound without its slice
        let (graph, _, strided) = strided_plan();
        let arena = compile(&graph, &strided, ArenaGranularity::Serial);
        for name in ["x", "w1"] {
            assert!(arena.with_external(name, |_| ()).is_some(), "`{name}`");
            let err = arena
                .execute_into_state(&graph, &strided, &opts, &mut binder(&base, name), &mut out)
                .unwrap_err();
            assert!(
                matches!(&err, TensorError::UnboundExternal { container, .. } if container == name),
                "{err}"
            );
        }
    }

    /// The static half of the read-only contract: a step that declares an
    /// input or weight container as its output never reaches a kernel.
    #[test]
    fn a_step_that_writes_an_input_or_weight_is_refused_at_compile_naming_the_step() {
        let shape = || Shape::new([('b', 3), ('i', 4)]).unwrap();
        for role in [DataRole::Input, DataRole::Weight] {
            let mut graph = Graph::new();
            let [a, b] = ["a", "b"].map(|n| graph.add_data(n, shape(), DataRole::Input));
            let w = graph.add_data("w", shape(), role);
            let y = graph.add_data("y", shape(), DataRole::Output);
            let clobber = graph.add_op("clobber", OpKind::Residual, &[a, b], &[w]);
            let reader = graph.add_op("reader", OpKind::Residual, &[a, w], &[y]);
            let plan = ExecutionPlan::natural(&graph, &[clobber, reader]).unwrap();
            let err = CompiledArena::build(
                &graph,
                &plan,
                &analyze(&graph, &plan),
                ArenaGranularity::Serial,
            )
            .unwrap_err()
            .to_string();
            assert!(err.contains("step 0 (`clobber`) writes `w`"), "{err}");
        }
    }

    /// The fused plan with the first step's outputs stored transposed
    /// (their consumers relayout them back), the softmax reading its
    /// input with the reduce axis outermost, and two externals re-laid:
    /// the weight `w1` by the one step that reads it, and `x` by its last
    /// reader after the first has read it as it came. Strided views,
    /// strided lanes and relayout insertions, in place and gathered.
    fn strided_plan() -> (Graph, ExecutionPlan, ExecutionPlan) {
        let (graph, natural) = fused_plan();
        let mut strided = natural.clone();
        for o in strided.steps[0].outputs.iter_mut() {
            o.layout = reversed(o.layout);
        }
        let sm = strided.steps.iter().position(|s| s.name == "SM").unwrap();
        let reads = |s: &PlanStep, name: &str| s.inputs.iter().any(|i| i.name == name);
        let w1 = strided.steps.iter().position(|s| reads(s, "w1")).unwrap();
        let x = strided.steps.iter().rposition(|s| reads(s, "x")).unwrap();
        assert!(x > 0 && reads(&strided.steps[0], "x"));
        for (si, name) in [(sm, "beta"), (w1, "w1"), (x, "x")] {
            let input = strided.steps[si].inputs.iter_mut().find(|i| i.name == name);
            let layout = &mut input.unwrap().layout;
            *layout = reversed(*layout);
        }
        strided.reflow(&graph);
        assert!(strided.relayout_count() >= 4);
        let analysis = analyze(&graph, &strided);
        let home = |name: &str| {
            analysis
                .liveness
                .iter()
                .find(|b| b.name == name)
                .unwrap()
                .home
        };
        assert_eq!(
            [home("w1"), home("x"), home("w2"), home("beta")],
            [Home::Gathered, Home::Copied, Home::Borrowed, Home::Slab]
        );
        (graph, natural, strided)
    }

    /// The strided-plus-relayout run CI interprets under Miri: the same
    /// plan in other layouts is the same logical bits — outputs, saved
    /// masks and statistics, dropout on — at either granularity, each
    /// container materialized in the layout its plan leaves it in.
    #[test]
    fn a_strided_plan_with_relayouts_computes_the_natural_plans_bits() {
        let (graph, natural, strided) = strided_plan();
        for g in [ArenaGranularity::Serial, ArenaGranularity::Waves] {
            let a = compiled(&graph, &strided, g).unwrap().unwrap();
            let b = compiled(&graph, &strided, g).unwrap().unwrap();
            assert!(Arc::ptr_eq(&a, &b), "one arena per distinct plan");
            let n = compiled(&graph, &natural, g).unwrap().unwrap();
            assert!(!Arc::ptr_eq(&a, &n));
        }
        let base = random_externals(&graph, &natural, 9).unwrap();
        let sink: ProfilerSink = Mutex::new(PlanProfiler::with_peak(1.0));
        let row_major = |t: &Tensor| t.relayout(&Layout::row_major(t.shape().rank()));
        for threads in [1, 4] {
            for profiler in [None, Some(&sink)] {
                let opts = ExecOptions::builder()
                    .dropout_p(0.3)
                    .threads(threads)
                    .profiler(profiler)
                    .build();
                let (mut nat, mut st) = (base.clone(), base.clone());
                execute(&graph, &natural, &mut nat, &opts).unwrap();
                execute(&graph, &strided, &mut st, &opts).unwrap();
                assert!(nat.env.len() > base.env.len() + 5);
                for (name, t) in &nat.env {
                    assert_eq!(row_major(&st.env[name]).data(), t.data(), "`{name}`");
                }
                for (name, s) in &nat.stats {
                    assert_eq!(st.stats[name].mean, s.mean, "`{name}`");
                    assert_eq!(st.stats[name].inv_std, s.inv_std, "`{name}`");
                }
            }
        }
        // materialized as declared: the transposed first output is saved
        let first = &strided.steps[0].outputs[0];
        if let Some(t) = {
            let mut st = base.clone();
            execute(&graph, &strided, &mut st, &ExecOptions::default()).unwrap();
            st.env.remove(&first.name)
        } {
            assert_eq!(*t.layout(), first.layout);
        }
        // same schedule, other dimensions: another arena
        let eg = build::encoder(&EncoderDims {
            b: 3,
            ..EncoderDims::tiny()
        });
        let mut wider = eg.graph;
        apply_plan(&mut wider, &encoder_fusion_plan()).unwrap();
        let wider_plan = ExecutionPlan::natural(&wider, &forward_ops(&wider, eg.dy)).unwrap();
        let a = compiled(&graph, &natural, ArenaGranularity::Serial)
            .unwrap()
            .unwrap();
        let b = compiled(&wider, &wider_plan, ArenaGranularity::Serial)
            .unwrap()
            .unwrap();
        assert!(b.slab_words() > a.slab_words());
    }

    /// A relayout permutes its container's one slot in place, so a wave
    /// that holds it next to a reader of the container is a race: the
    /// analyzer orders the pair, and a partition tampered to hold both is
    /// refused at compile.
    #[test]
    fn a_wave_holding_a_reader_and_a_relayout_of_one_container_is_refused() {
        // two otherwise independent adds read `a`; the second wants it
        // transposed, so it relayouts what the first reads
        let mut graph = Graph::new();
        let shape = || Shape::new([('b', 3), ('i', 4)]).unwrap();
        let [a, b, c] = ["a", "b", "c"].map(|n| graph.add_data(n, shape(), DataRole::Input));
        let [y, z] = ["y", "z"].map(|n| graph.add_data(n, shape(), DataRole::Output));
        let reader = graph.add_op("reader", OpKind::Residual, &[a, b], &[y]);
        let mover = graph.add_op("mover", OpKind::Residual, &[a, c], &[z]);
        let mut plan = ExecutionPlan::natural(&graph, &[reader, mover]).unwrap();
        plan.steps[1].inputs[0].layout = Layout::from_axis_order(&shape(), "ib").unwrap();
        plan.reflow(&graph);
        assert_eq!(plan.steps[1].relayouts.len(), 1);

        let mut analysis = analyze(&graph, &plan);
        assert!(analysis.is_clean(), "{:?}", analysis.errors());
        assert_eq!(
            analysis.wave_of(),
            [0, 1],
            "the reader precedes the relayout"
        );
        let arena = compile(&graph, &plan, ArenaGranularity::Waves);
        // and the pair computes what the natural plan does
        let base = random_externals(&graph, &plan, 2).unwrap();
        let opts = ExecOptions::builder().threads(2).build();
        let got = run(&arena, &graph, &plan, &base, &opts);
        let natural = ExecutionPlan::natural(&graph, &[reader, mover]).unwrap();
        let want = compile(&graph, &natural, ArenaGranularity::Waves);
        assert_eq!(got, run(&want, &graph, &natural, &base, &opts));

        // forget the hazard: reader and relayout share a wave
        analysis.deps.clear();
        assert_eq!(analysis.wave_of(), [0, 0]);
        let err = CompiledArena::compile(&graph, &plan, &analysis, ArenaGranularity::Waves)
            .unwrap_err()
            .to_string();
        assert!(err.contains("wave partition failed certification"), "{err}");
        // the serial order never overlaps two steps: still fine
        CompiledArena::compile(&graph, &plan, &analysis, ArenaGranularity::Serial).unwrap();
    }

    /// The one boundary: an epilogue step reads A and B strided but its
    /// tail streams must be natural — a typed error naming step and
    /// stream.
    #[test]
    fn a_strided_epilogue_tail_is_a_compile_error_naming_the_step() {
        let eg = build::encoder(&EncoderDims::tiny());
        let mut g = eg.graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        assert!(!crate::fusion::apply_epilogues(&mut g).unwrap().is_empty());
        let mut plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
        let si = (plan.steps.iter())
            .position(|s| matches!(s.kind, OpKind::TileProgram { second: None, .. }))
            .unwrap();
        // strided A: fine
        let a = &mut plan.steps[si].inputs[0].layout;
        *a = reversed(*a);
        plan.reflow(&g);
        compile(&g, &plan, ArenaGranularity::Serial);
        // strided tail stream: refused
        let (name, out) = (
            plan.steps[si].name.clone(),
            plan.steps[si].outputs[0].name.clone(),
        );
        let o = &mut plan.steps[si].outputs[0].layout;
        *o = reversed(*o);
        plan.reflow(&g);
        let analysis = analyze(&g, &plan);
        assert!(analysis.is_clean(), "{:?}", analysis.errors());
        let err = CompiledArena::compile(&g, &plan, &analysis, ArenaGranularity::Serial)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains(&format!("step {si} (`{name}`)")) && err.contains(&format!("`{out}`")),
            "{err}"
        );
    }

    #[test]
    fn all_canned_plans_compile_at_the_peak_resident_target() {
        let dims = EncoderDims::tiny();
        type FusionFn = fn() -> Vec<crate::fusion::FusionGroup>;
        let canned: Vec<(&str, Option<FusionFn>)> = vec![
            ("encoder reference", None),
            ("encoder fused", Some(encoder_fusion_plan)),
            ("decoder reference", None),
            ("decoder fused", Some(crate::fusion::decoder_fusion_plan)),
        ];
        for (label, fuse) in canned {
            let eg = if label.starts_with("encoder") {
                build::encoder(&dims)
            } else {
                build::decoder(&dims)
            };
            let mut g = eg.graph;
            if let Some(f) = fuse {
                apply_plan(&mut g, &f()).unwrap();
            }
            let plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
            let arena = compile(&g, &plan, ArenaGranularity::Serial);
            let analysis = analyze(&g, &plan);
            assert_eq!(
                arena.slab_words() as u64,
                slab_owned_peak(&analysis),
                "{label}: serial slab must hit the peak of what it owns"
            );
            // and what it owns is everything but the inputs and weights
            let owns = |b: &&crate::analyze::BufferLiveness| b.home != Home::Borrowed;
            let external = |b: &crate::analyze::BufferLiveness| {
                matches!(b.role, DataRole::Input | DataRole::Weight)
            };
            assert!(analysis.liveness.iter().filter(owns).all(|b| !external(b)));
            assert!(analysis.home_words(Home::Borrowed) > 0, "{label}");
        }
    }
}
