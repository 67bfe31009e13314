//! The interpreter: plans compiled onto one preallocated slab. Every plan
//! that passes the analyzer's lint gate runs here, in whatever layouts it
//! declares; nothing else executes a plan in production
//! ([`crate::plan::execute_plan`] is the oracle the equivalence suites
//! compare this module against).
//!
//! [`CompiledArena::compile`] passes the plan through the lint gate, colors
//! its buffer-liveness intervals into slab offsets with
//! [`crate::analyze::assign_arena`] — one coloring per plan, over its
//! wave intervals — certifies the plan over those waves and that coloring
//! ([`crate::sanitize::certify_plan`]: the coloring respects liveness,
//! every access path stays inside its slot, no two steps of a wave race)
//! and keeps the [`PlanCertificate`], and precompiles every step into a
//! `StepExec`: the step lowering's kernel class (DESIGN.md, "Step
//! lowering") with each operand's slab words. All of that happens once;
//! [`compiled`] memoizes the result per distinct plan.
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
//! strides, so per-lane statistics land in the same order, and every
//! dropout mask is computed from the step's key at its element's logical
//! index — a plan's outputs, masks and statistics are the same bits in any
//! layout. Whether a sweep runs the slice body lane by lane, in panels of
//! adjacent strided lanes, or the bounds-checked strided body is read off
//! the strides its views carry ([`Sweep::walk`]), never off an option. The
//! certificate's access paths are read off the very same views
//! (`access::view_path`), and each kernel is handed exactly the hull of
//! its operand's path — one projection of a stacked Q/K/V tensor is handed
//! its third, not the stacked slot — so a kernel reading outside its
//! certified path indexes out of range in every mode
//! ([`CompiledArena::step_views`]).
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
//! A statistic a backward kernel reads is an external too, asked for by
//! its [`stats_names`] name and borrowed like an input: one entry of the
//! externals table however many steps read it, and the kernels read the
//! resolver's answer — the forward's [`Record`], or
//! [`ExecState::stats`] — where it lies.
//!
//! **The record.** What a run saves — its [`DataRole::Saved`] containers
//! and the statistics its forward norms write — lives past the slab, in a
//! [`Record`] outside the coloring: the caller's, lent by
//! [`CompiledArena::lend_record`], or the arena's own for a run that keeps
//! none. A run writes it in place and reports only its outputs; the
//! record's accessors are the one view of what it saved.
//!
//! **The tail boundary.** A tile program step reads its contractions'
//! operands through their declared strides, but a one-contraction
//! program's tail streams are walked as dense row blocks: declared in any
//! but the natural layout they are a compile error naming the step.
//!
//! One compiled arena serves four modes, none of which changes a result
//! bit, because a step's masks are a function of its key — the run's seed
//! and the step's stream ([`stream_key`]) — and of each element's index:
//!
//! * **caller's thread** — the certified waves in order, each wave's steps
//!   one after another (`threads <= 1`): no pool is touched, no thread
//!   spawned and no dispatch lock taken;
//! * **pool** — the same waves in the same order, each multi-step wave
//!   dispatched across a lazily-spawned persistent worker pool
//!   (scoped-thread spawning would allocate per call);
//! * **poison** — the aliasing-aware checking mode: the slab and the
//!   record are filled with one quiet NaN of the arena's own (`POISON`),
//!   each buffer is filled again after the wave its certified live
//!   interval ends in, and a step whose outputs carry that NaN, of either
//!   sign, fails, so a read of a dead (reused) buffer surfaces as an error
//!   instead of silent corruption, while a NaN the caller hands in flows
//!   through as data;
//! * **timed** — with a profiler sink set, each step writes its wall time
//!   into a slot of its own preallocated at compile (workers need no
//!   lock), each wave likewise, and the run folds them into the sink — a
//!   [`crate::profile::PlanProfiler`] made for the arena's plan, which a
//!   run refuses otherwise before it binds anything. With no sink set no
//!   clock is read.
//!
//! An arena's buffers sit behind a mutex and a run holds it for its whole
//! duration: concurrent callers of one arena queue, they are never handed
//! to another executor. A plan with a step the lowering does not model is
//! an error at compile, naming the step.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use xform_dataflow::{DataRole, Graph, NodeId, OpKind};
use xform_tensor::into_ops::{self, RowTail, Sweep, View};
use xform_tensor::lanes::Dropout;
use xform_tensor::matmul::WeightPack;
use xform_tensor::ops::elementwise::ActivationKind;
use xform_tensor::ops::layernorm::LayerNormStats;
use xform_tensor::{Layout, Result, Shape, Tensor, TensorError};

use crate::access::{step_accesses, view_path, AccessKind, AccessPath};
use crate::analyze::{analyze, assign_arena, ArenaGranularity, Home, PlanAnalysis};
use crate::lower::{
    lower_step, sweep_of, walk_of, weight_pack, Kernel, RelayoutCopy, Role, Slot, Stats, Tail,
};
use crate::plan::{layout_spec, ExecOptions, ExecState, ExecutionPlan, PlanStep, SanitizeMode};
use crate::profile::{PlanProfiler, ProfilerSink};
use crate::sanitize::{certify_plan, plan_fingerprint, PlanCertificate};

/// One contiguous word range of the slab (or of the record or the
/// scratch).
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
    /// A range of the run's record: a saved container, written where it
    /// is kept.
    Record(BufView),
    /// A range of entry `k` of the run's externals table: the caller's
    /// slice, read where it lives. Never an output.
    Borrowed(usize, BufView),
}

/// The externals-table entry a relayout gathers from, when it is the
/// external's first touch, with the entry's pack if it is a projection
/// weight's.
type Gather = Option<(usize, Option<WeightPack>)>;

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
    /// entry it gathers from instead of permuting the slot in place (and
    /// the entry's pack, if it is a projection weight's).
    relayouts: Vec<(Gather, Place, RelayoutCopy)>,
    /// The per-lane means and inverse deviations of the step's layer norm
    /// (the normalizing classes): regions of the record a forward norm
    /// writes, or the externals-table entries a backward kernel reads.
    stats: Option<[Place; 2]>,
    /// The step's scratch range
    /// ([`crate::lower::StepLowering::scratch_words`]): the staging copy of
    /// a relayout, the gather packs of a contraction (none for the canned
    /// plans), and for a tile program its packed B panels and its tiles —
    /// the intermediates between its kernels have no slab slot.
    scratch: BufView,
    /// The dropout stream the step keys its masks by
    /// ([`ExecutionPlan::stream_of`]).
    stream: usize,
    /// The operands the kernel accumulates into (a bias or layer-norm
    /// weight gradient, through a broadcast or per-lane view), zeroed first.
    zeroed: Vec<usize>,
    /// The words the step writes: each output's hull, what the poison mode
    /// checks after its wave.
    written: Vec<Place>,
    /// The words the step reads of the arena's own memory, by its access
    /// facts ([`step_accesses`]): each read container's slot with the path
    /// the step walks through it, what the poison mode checks before its
    /// wave.
    reads: Vec<(Place, AccessPath, String)>,
    /// The graph's activation ([`Graph::activation`]).
    activation: ActivationKind,
    /// The graph's softmax scale ([`Graph::softmax_scale`]).
    scaler: f32,
}

/// A container no step defines: the caller resolves it to a slice per run.
#[derive(Debug, Clone)]
struct ExternalBind {
    name: String,
    /// Its range in the arena's address space
    /// ([`crate::analyze::ArenaSlot`]): slab words unless borrowed. A
    /// statistic a backward kernel reads has no slot: its offset is 0.
    view: BufView,
    /// [`Home::Borrowed`] and [`Home::Gathered`] externals are read out of
    /// the caller's slice; a [`Home::Copied`] one is copied into its range
    /// at bind; [`Home::Slab`] is a [`DataRole::Cache`], persistent
    /// cross-call state — the initial sanitizer poison skips its range,
    /// and a resolver may decline it to keep the resident contents.
    home: Home,
    /// A projection weight ([`crate::lower::weight_pack`]): the caller's
    /// words are its panel pack, which a slab copy unpacks.
    pack: Option<WeightPack>,
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

/// An output, or a saved container, of a run: its range of the slab, or
/// of the record.
#[derive(Debug, Clone)]
struct MaterializeSpec {
    name: String,
    shape: Shape,
    /// The layout the plan last leaves the container in.
    layout: Layout,
    view: BufView,
}

/// The statistics a forward norm writes into the record, keyed by the
/// norm's output container name like the allocating interpreter's stats
/// side channel.
#[derive(Debug, Clone)]
struct StatsSpec {
    name: String,
    mean: BufView,
    inv_std: BufView,
}

/// The names a run's resolver is asked for the statistics a backward
/// kernel reads of the layer norm whose output container is `norm`: its
/// per-lane means, then its per-lane inverse deviations.
pub fn stats_names(norm: &str) -> [String; 2] {
    [format!("{norm}.mean"), format!("{norm}.inv_std")]
}

/// The layer norm a name of [`stats_names`] asks for, and whether it asks
/// for the inverse deviations; `None` for any other name.
pub fn stats_name_of(name: &str) -> Option<(&str, bool)> {
    match name.strip_suffix(".mean") {
        Some(norm) => Some((norm, false)),
        None => name.strip_suffix(".inv_std").map(|norm| (norm, true)),
    }
}

/// The slab, contraction scratch and timing slots (one per step, one per
/// wave) of one arena, reused across calls under a mutex, and the record a
/// run writes into when its caller keeps none (sized on the first such
/// run).
#[derive(Debug, Default)]
struct ArenaBuffers {
    slab: Vec<f32>,
    record: Vec<f32>,
    scratch: Vec<f32>,
    step_us: Vec<f64>,
    wave_us: Vec<f64>,
    ext: Vec<ExtSlice>,
}

/// Raw views of one [`ArenaBuffers`] and of the record a run writes (the
/// caller's, or the arena's own), copyable into worker threads. The arena
/// certificate makes concurrent use sound: steps sharing a wave write
/// disjoint slab ranges (their outputs' live intervals all start at that
/// wave, so the certifier proved them range-disjoint), record ranges are
/// disjoint per container and per forward norm by construction, as are
/// scratch ranges per step, reads of shared inputs are read-only — the
/// externals table and the callers' slices behind it, a backward's
/// statistics among them — and a timing slot
/// is written only by the one execution of the step (or the one dispatcher
/// of the wave) it belongs to.
#[derive(Debug, Clone, Copy)]
struct SlabMem {
    slab: *mut f32,
    record: *mut f32,
    scratch: *mut f32,
    step_us: *mut f64,
    wave_us: *mut f64,
    ext: *const ExtSlice,
}

// SAFETY: the pointers address one `ArenaBuffers` whose mutex guard the
// dispatching thread holds for the whole run, and a record the run borrows
// mutably for as long; what each thread may touch through them is
// partitioned as described above.
unsafe impl Send for SlabMem {}
unsafe impl Sync for SlabMem {}

impl SlabMem {
    /// Views of `bufs`, with `record` as the record the run writes.
    fn new(bufs: &mut ArenaBuffers, record: *mut f32) -> SlabMem {
        SlabMem {
            slab: bufs.slab.as_mut_ptr(),
            record,
            scratch: bufs.scratch.as_mut_ptr(),
            step_us: bufs.step_us.as_mut_ptr(),
            wave_us: bufs.wave_us.as_mut_ptr(),
            ext: bufs.ext.as_ptr(),
        }
    }

    /// The caller's slice behind entry `k` of the externals table.
    unsafe fn ext<'a>(self, k: usize) -> &'a [f32] {
        unsafe { &*(*self.ext.add(k)).0 }
    }

    /// The words `place` names, to read.
    ///
    /// # Safety
    ///
    /// `place` lies inside its buffer (or table entry, which the run
    /// bound), and no thread writes its words while the slice lives.
    unsafe fn words<'a>(self, place: Place) -> &'a [f32] {
        let (base, v) = match place {
            Place::Borrowed(e, v) => return unsafe { &self.ext(e)[v.off..v.off + v.len] },
            Place::Slab(v) => (self.slab, v),
            Place::Record(v) => (self.record, v),
        };
        unsafe { std::slice::from_raw_parts(base.add(v.off), v.len) }
    }

    /// The words `place` names, to write: the arena's own, never a
    /// borrowed external's.
    ///
    /// # Safety
    ///
    /// `place` lies inside its buffer, and no other thread touches its
    /// words while the slice lives.
    unsafe fn words_mut<'a>(self, place: Place) -> &'a mut [f32] {
        let (base, v) = match place {
            Place::Slab(v) => (self.slab, v),
            Place::Record(v) => (self.record, v),
            Place::Borrowed(..) => unreachable!("`compile_step` admits no borrowed output"),
        };
        unsafe { std::slice::from_raw_parts_mut(base.add(v.off), v.len) }
    }

    unsafe fn scratch_mut<'a>(self, off: usize, len: usize) -> &'a mut [f32] {
        unsafe { std::slice::from_raw_parts_mut(self.scratch.add(off), len) }
    }
}

/// What one arena execution reads of an [`ExecOptions`], resolved: the
/// dropout probability, the sanitizer mode as a flag, and whether to time.
#[derive(Debug, Clone)]
struct ArenaRun {
    /// The validated dropout probability; each step keys it by
    /// [`stream_key`].
    drop: Dropout,
    /// Base seed of every step's key.
    seed: u64,
    threads: usize,
    /// Run the poison mode (NaN fills + finiteness checks).
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
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDropout`] unless `0 <= dropout_p < 1`.
    fn new(opts: &ExecOptions) -> Result<ArenaRun> {
        static ENV_SANITIZE: OnceLock<bool> = OnceLock::new();
        Ok(ArenaRun {
            drop: Dropout::new(opts.dropout_p, &StdRng::seed_from_u64(opts.seed))?,
            seed: opts.seed,
            threads: opts.threads,
            sanitize: match opts.sanitize {
                SanitizeMode::Off => false,
                SanitizeMode::On => true,
                SanitizeMode::Env => *ENV_SANITIZE.get_or_init(crate::env::sanitize_enabled),
            },
            pos: opts.pos,
            timed: opts.profiler.is_some(),
        })
    }
}

/// The poison mode's fill: a quiet NaN with a payload of its own. A
/// kernel that writes a NaN itself writes [`f32::NAN`], and arithmetic on
/// a NaN keeps its payload, so an output carrying this one — of either
/// sign — was computed from a poisoned word, while a NaN the caller hands
/// in flows through as data.
const POISON: f32 = f32::from_bits(0x7fc0_dead);

/// The dropout key of stream `stream` of a run seeded `seed`: the position
/// of the workspace's SplitMix64 generator the step that
/// [`ExecutionPlan::stream_of`] gives that number computes its masks from
/// ([`Dropout::mask`]), built once per step. A function of the seed and
/// the step's place in the schedule alone, so a step's masks are the same
/// at any thread count and in any dispatch order — and whoever knows the
/// two computes them again.
pub fn stream_key(seed: u64, stream: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream_mix(stream))
}

fn stream_mix(stream: usize) -> u64 {
    (stream as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The seed under which stream `to` of a run is keyed as stream `from` is
/// under `seed`: `stream_key(rekeyed(seed, from, to), to)` is
/// `stream_key(seed, from)`. A backward plan whose one masked step
/// recomputes a forward step's masks — the attention region's, at `to` in
/// its own schedule — runs under it.
pub fn rekeyed(seed: u64, from: usize, to: usize) -> u64 {
    seed ^ stream_mix(from) ^ stream_mix(to)
}

/// One output of an arena run, handed to the sink after it: a
/// [`DataRole::Output`] container's words, borrowed from the slab, so a
/// sink that only copies into preallocated destinations keeps the whole
/// call allocation-free. What the run saved is its [`Record`]'s to show.
#[derive(Debug)]
pub struct ArenaArtifact<'a> {
    /// Container name.
    pub name: &'a str,
    /// The container's logical shape.
    pub shape: &'a Shape,
    /// The layout `data` is stored in: the one the plan last declared for
    /// the container.
    pub layout: &'a Layout,
    /// The container's words in the slab.
    pub data: &'a [f32],
}

/// Where each saved container and forward statistic of a plan lies in a
/// record's words, and the plan's pool of idle record buffers: shared by
/// the plan's arenas and every record they lent.
#[derive(Debug)]
struct RecordPlan {
    tensors: Vec<MaterializeSpec>,
    stats: Vec<StatsSpec>,
    words: usize,
    pool: Mutex<RecordPool>,
}

/// The records of one plan alive and the buffers of dropped ones kept for
/// reuse: never more idle than alive.
#[derive(Debug, Default)]
struct RecordPool {
    idle: Vec<Vec<f32>>,
    live: usize,
}

impl RecordPlan {
    fn pool(&self) -> MutexGuard<'_, RecordPool> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// What one forward run saved, written where it is kept, and the one view
/// of it: the words of its plan's [`DataRole::Saved`] containers and of
/// the statistics its layer norms write, lent by
/// [`CompiledArena::lend_record`] and filled in place by the
/// [`CompiledArena::execute_bound`] it is handed to. Dropped, its buffer
/// returns to its plan's pool, which keeps no more idle buffers than the
/// plan has live records, so a warm forward writes into recycled memory
/// rather than a fresh, zero-filled one.
#[derive(Debug)]
pub struct Record {
    words: Vec<f32>,
    plan: Arc<RecordPlan>,
}

impl Drop for Record {
    fn drop(&mut self) {
        let mut pool = self.plan.pool();
        let RecordPool { idle, live } = &mut *pool;
        *live -= 1;
        idle.push(std::mem::take(&mut self.words));
        idle.truncate(*live);
    }
}

impl Record {
    /// Every word of the record: the saved containers', then the
    /// statistics'.
    pub fn words(&self) -> &[f32] {
        &self.words
    }

    /// The saved containers' names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.plan.tensors.iter().map(|m| m.name.as_str())
    }

    /// The saved container `name`: its shape, the layout the plan leaves
    /// it in and its words.
    pub fn container(&self, name: &str) -> Option<(&Shape, &Layout, &[f32])> {
        let m = self.plan.tensors.iter().find(|m| m.name == name)?;
        Some((&m.shape, &m.layout, self.at(m.view)))
    }

    /// The statistics of every layer norm the run wrote, by the norm's
    /// output container name: its per-lane means and inverse deviations.
    pub fn stats(&self) -> impl Iterator<Item = (&str, &[f32], &[f32])> {
        let plan = self.plan.stats.iter();
        plan.map(|s| (s.name.as_str(), self.at(s.mean), self.at(s.inv_std)))
    }

    /// What a run's resolver answers `name` with out of this record: a
    /// statistic by its [`stats_names`] name, or a saved container stored
    /// in its natural layout.
    pub fn resolve(&self, name: &str) -> Option<&[f32]> {
        let Some((norm, inv)) = stats_name_of(name) else {
            let (shape, layout, words) = self.container(name)?;
            return layout.is_row_major_for(shape).then_some(words);
        };
        let (_, mean, inv_std) = self.stats().find(|s| s.0 == norm)?;
        Some(if inv { inv_std } else { mean })
    }

    fn at(&self, v: BufView) -> &[f32] {
        &self.words[v.off..][..v.len]
    }
}

/// A certified plan compiled onto a static arena. Build one with
/// [`CompiledArena::compile`] (or memoized, with [`compiled`]); execute
/// with [`CompiledArena::execute_bound`], the one run entry, which touches
/// no heap and writes what the run saves into the [`Record`] it is handed
/// (the arena's own without one), or [`CompiledArena::execute_into_state`]
/// (every output, saved container and statistic materialized into an
/// [`ExecState`]).
#[derive(Debug)]
pub struct CompiledArena {
    /// The plan's [`plan_key`]: a profiler sink made for another plan is
    /// refused.
    key: u64,
    cert: PlanCertificate,
    slab_words: usize,
    scratch_words: usize,
    steps: Vec<StepExec>,
    step_names: Vec<String>,
    retire: Vec<Vec<BufView>>,
    externals: Vec<ExternalBind>,
    /// Slab spans the sanitizer may poison before a run: the complement
    /// of the persistent (cache) ranges, which hold live cross-call state.
    poison_spans: Vec<BufView>,
    outputs: Vec<MaterializeSpec>,
    record: Arc<RecordPlan>,
    buffers: Mutex<ArenaBuffers>,
}

/// A profiler sink, locked: a panic under the lock leaves whole records.
fn lock_sink(sink: &ProfilerSink) -> MutexGuard<'_, PlanProfiler> {
    sink.lock().unwrap_or_else(PoisonError::into_inner)
}

impl CompiledArena {
    /// Lowers an analyzed plan onto a static arena. Everything a run would
    /// otherwise have to re-check per call is checked here, once: the
    /// analyzer's lint gate, then the one certificate
    /// ([`crate::sanitize::certify_plan`]) over the plan's
    /// [`parallel_waves`](PlanAnalysis::parallel_waves), which every run
    /// walks at any thread count, and the one coloring over those waves
    /// ([`crate::analyze::assign_arena`]) it will run out of.
    ///
    /// Always `Ok(Some(_))` on success: every plan that passes the gate
    /// compiles, in any layout. (The `Option` dates from when strided
    /// plans ran elsewhere, and the [`ArenaGranularity`] selects nothing
    /// since the arena has one coloring; the signature is frozen.)
    ///
    /// # Errors
    ///
    /// Returns an error when `analysis` carries an error-severity lint,
    /// the plan cannot be certified over its partition and coloring
    /// (under-declared operands, aliased names, racing steps, an access
    /// escaping its buffer or slot, a write to a cache), or a step has no
    /// arena lowering
    /// (an operator kind or operand count the step lowering does not
    /// model, or a tile program's tail stream declared in a non-natural
    /// layout).
    pub fn compile(
        graph: &Graph,
        plan: &ExecutionPlan,
        analysis: &PlanAnalysis,
        _granularity: ArenaGranularity,
    ) -> Result<Option<CompiledArena>> {
        analysis.gate()?;
        CompiledArena::build(graph, plan, analysis).map(Some)
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
    ) -> Result<CompiledArena> {
        let waves = analysis.parallel_waves();
        let assignment = assign_arena(analysis);
        let cert =
            certify_plan(graph, plan, analysis, &waves, Some(&assignment)).map_err(|lints| {
                let lints: Vec<String> = lints.iter().map(ToString::to_string).collect();
                TensorError::Unsupported(format!(
                    "the plan failed certification: {}",
                    lints.join("; ")
                ))
            })?;

        let view = |s: &crate::analyze::ArenaSlot| BufView {
            off: s.offset as usize,
            len: s.words as usize,
        };
        // one slot per live buffer, in liveness order
        let mut externals = Vec::new();
        // every projection weight the plan reads, with its one pack
        let mut packs: HashMap<NodeId, WeightPack> = HashMap::new();
        for (si, step) in plan.steps.iter().enumerate() {
            if let Some((data, pack, _)) = weight_pack(graph, step) {
                if *packs.entry(data).or_insert(pack) != pack {
                    return Err(TensorError::Unsupported(format!(
                        "step {si} (`{}`) reads weight `{}` as another matrix than an earlier step: a weight has one pack",
                        step.name, step.inputs.first().map_or("?", |o| o.name.as_str())
                    )));
                }
            }
        }
        let mut place_of: HashMap<NodeId, Place> = HashMap::new();
        // the table entry of every gathered external, until its first
        // relayout has taken it
        let mut gather_from: HashMap<NodeId, usize> = HashMap::new();
        // past the slab, the record: its containers, then the statistics
        let slab_words = assignment.slab_words as usize;
        let recorded = assignment.slots.iter().filter(|s| s.record);
        let mut record_words: usize = recorded.map(|s| s.words as usize).sum();
        for (b, s) in analysis.liveness.iter().zip(&assignment.slots) {
            let place = match (s.borrowed, s.record) {
                (true, _) => Place::Borrowed(externals.len(), BufView { off: 0, ..view(s) }),
                (_, true) => Place::Record(BufView {
                    off: view(s).off - slab_words,
                    ..view(s)
                }),
                _ => Place::Slab(view(s)),
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
                    pack: packs.get(&b.data).copied(),
                });
            }
        }

        let no_lowering =
            |what: String| TensorError::Unsupported(format!("{what} has no arena lowering"));
        let mut steps = Vec::with_capacity(plan.steps.len());
        let mut stats = Vec::new();
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
                (&place_of, &mut externals),
                &mut gather_from,
                &mut record_words,
                &mut stats,
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

        // the outputs a run reports, and the saved containers its record
        // holds
        let (mut outputs, mut kept) = (Vec::new(), Vec::new());
        for b in &analysis.liveness {
            let container = || no_lowering(format!("container `{}`", b.name));
            let (to, view) = match place_of.get(&b.data) {
                Some(&Place::Slab(view)) if b.role == DataRole::Output => (&mut outputs, view),
                Some(&Place::Record(view)) => (&mut kept, view),
                _ => continue,
            };
            let d = graph.data(b.data).ok_or_else(container)?;
            to.push(MaterializeSpec {
                name: b.name.clone(),
                shape: d.shape.clone(),
                layout: *left_in.get(&b.data).ok_or_else(container)?,
                view,
            });
        }

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
            key: plan_key(graph, plan),
            cert,
            slab_words,
            scratch_words,
            step_names: plan.steps.iter().map(|s| s.name.clone()).collect(),
            steps,
            retire,
            externals,
            poison_spans,
            outputs,
            record: Arc::new(RecordPlan {
                tensors: kept,
                stats,
                words: record_words,
                pool: Mutex::default(),
            }),
            buffers: Mutex::default(),
        }
        .with_zeroed_buffers())
    }

    /// The arena over zeroed buffers of its own, sized for its plan.
    fn with_zeroed_buffers(mut self) -> CompiledArena {
        self.buffers = Mutex::new(ArenaBuffers {
            slab: vec![0.0; self.slab_words],
            record: Vec::new(),
            scratch: vec![0.0; self.scratch_words],
            step_us: vec![0.0; self.steps.len()],
            wave_us: vec![0.0; self.cert.waves.len()],
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
            key: self.key,
            cert: self.cert.clone(),
            slab_words: self.slab_words,
            scratch_words: self.scratch_words,
            steps: self.steps.clone(),
            step_names: self.step_names.clone(),
            retire: self.retire.clone(),
            externals: self.externals.clone(),
            poison_spans: self.poison_spans.clone(),
            outputs: self.outputs.clone(),
            record: Arc::clone(&self.record),
            buffers: Mutex::default(),
        }
        .with_zeroed_buffers()
    }

    /// The view of every operand step `si` hands its kernel, in the
    /// kernel's argument order, as an access path in the words of the
    /// arena's address space (the slab, then each borrowed external's own
    /// range) — what the certificate's paths, embedded in their slots, must
    /// equal.
    pub fn step_views(&self, si: usize) -> impl Iterator<Item = AccessPath> + '_ {
        let step = &self.steps[si];
        let operands = step.operands.iter().enumerate();
        operands.map(|(k, (place, role, view))| {
            let walk = walk_of(&step.sweeps, k);
            let mut path = view_path(role, view, walk).0;
            path.base += match *place {
                Place::Slab(words) => words.off,
                Place::Record(words) => self.slab_words + words.off,
                Place::Borrowed(e, words) => self.externals[e].view.off + words.off,
            } as u64;
            path
        })
    }

    /// The certificate the plan earned at compile, over the plan's waves
    /// and this arena's coloring.
    pub fn certificate(&self) -> &PlanCertificate {
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

    /// Words of a record: the plan's saved containers and the statistics
    /// its layer norms write.
    pub fn record_words(&self) -> usize {
        self.record.words
    }

    /// A record for a run of this arena's plan to write into
    /// ([`CompiledArena::execute_bound`]): an idle buffer of the plan's
    /// pool, or a fresh, zeroed one when the pool holds none.
    pub fn lend_record(&self) -> Record {
        let plan = Arc::clone(&self.record);
        let mut pool = plan.pool();
        pool.live += 1;
        let words = pool.idle.pop().unwrap_or_else(|| vec![0.0; plan.words]);
        drop(pool);
        Record { words, plan }
    }

    /// The idle record buffers this plan's pool holds.
    pub fn idle_records(&self) -> usize {
        self.record.pool().idle.len()
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

    /// Everything a run's resolver is asked for, each once, as `(name,
    /// words)`: every external container of the plan, then the statistics
    /// its backward kernels read ([`stats_names`]).
    pub fn externals(&self) -> impl Iterator<Item = (&str, usize)> {
        self.externals.iter().map(|e| (e.name.as_str(), e.view.len))
    }

    /// The projection weights among the externals, each with the pack its
    /// resolver must answer with: the panel order of that GEMM-A matrix
    /// over the weight's logical words.
    pub fn weight_packs(&self) -> impl Iterator<Item = (&str, WeightPack)> {
        let packed = self.externals.iter().filter_map(|e| Some((e, e.pack?)));
        packed.map(|(e, pack)| (e.name.as_str(), pack))
    }

    /// The panel packs of the projection weights in `env` — logical
    /// tensors, in any layout — that a resolver over `env` answers with.
    pub fn pack_weights(&self, env: &HashMap<String, Tensor>) -> HashMap<String, Vec<f32>> {
        let packed = self.weight_packs().filter_map(|(name, pack)| {
            // one of another size is the run's to refuse
            let t = env.get(name).filter(|t| t.len() == pack.m * pack.k)?;
            let logical = t.relayout(&Layout::row_major(t.shape().rank()));
            let mut panels = vec![0.0; logical.len()];
            pack.pack(logical.data(), &mut panels);
            Some((name.to_string(), panels))
        });
        packed.collect()
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
    /// materialization — the arena's one run entry — touching no heap on
    /// the steady-state path. Of `opts` it reads the scalar knobs, `seed`,
    /// `threads`, `sanitize`, `pos`, and the profiler sink, into which it
    /// folds every step's (and, wave-parallel, every wave's) wall time
    /// after the run. It waits for the arena's buffers if another thread is
    /// running out of them.
    ///
    /// `resolve` is called once per external ([`CompiledArena::externals`])
    /// with its name and answers with its words — a container's in the
    /// layout the plan first touches it in, which for every plan that
    /// passed the lint gate is the natural (logical row-major) one, or a
    /// statistic a backward kernel reads. The kernels read them out of that
    /// very slice: nothing is copied unless the plan re-lays the container
    /// after reading it as it came. A [`DataRole::Cache`] external answered
    /// with a slice is overwritten by it; answered with `None` it keeps its
    /// resident contents.
    ///
    /// The plan's saved containers and the statistics its layer norms
    /// write go straight into `record`, a [`Record`] this arena's plan
    /// lent, which the caller keeps — or, with `None`, into the arena's own,
    /// sized on the first such run. The poison mode poisons whichever
    /// record the run writes, as it does the slab. `sink` is called after
    /// the run once per output container; artifacts borrow the slab, so
    /// copying sinks stay allocation-free.
    ///
    /// # Errors
    ///
    /// Returns, before the run, [`TensorError::Unsupported`] for a record
    /// lent for another plan or a profiler sink made for another plan,
    /// [`TensorError::InvalidDropout`] when `opts.dropout_p` is outside
    /// `[0, 1)`, and [`TensorError::UnboundExternal`] naming the external
    /// `resolve` answered with no slice (but for a cache) or one of the
    /// wrong length; after it, an error when a worker panics or the poison
    /// mode finds a step's output carrying its NaN (a read of a dead,
    /// reused buffer).
    pub fn execute_bound<'a>(
        &self,
        opts: &ExecOptions,
        resolve: &mut dyn FnMut(&str) -> Option<&'a [f32]>,
        record: Option<&mut Record>,
        sink: &mut dyn FnMut(ArenaArtifact<'_>),
    ) -> Result<()> {
        let ours = |r: &&mut Record| Arc::ptr_eq(&r.plan, &self.record);
        if !record.as_ref().is_none_or(ours) {
            let what = "a record is lent for one plan: this arena runs another";
            return Err(TensorError::Unsupported(what.into()));
        }
        let run = &ArenaRun::new(opts)?;
        let parallel = run.threads > 1;
        let refused = |sink: &ProfilerSink| !lock_sink(sink).admits(self.key);
        if opts.profiler.is_some_and(refused) {
            return Err(TensorError::Unsupported(
                "a profiler sink is made for one plan: this arena runs another".into(),
            ));
        }
        let mut guard = self.lock_buffers();
        let bufs = &mut *guard;
        // the record the run writes: the caller's, or the arena's own
        let record = match record {
            Some(r) => &mut r.words[..],
            None => {
                bufs.record.resize(self.record.words, 0.0);
                &mut bufs.record[..]
            }
        };
        if run.sanitize {
            // poison the record and everything of the slab except
            // persistent (cache) ranges, whose resident contents must
            // survive between calls
            record.fill(POISON);
            for span in &self.poison_spans {
                bufs.slab[span.off..span.off + span.len].fill(POISON);
            }
        }
        let record = record.as_mut_ptr();
        // the table entries outlive the run: `'a` outlives this call
        for (e, entry) in self.externals.iter().zip(&mut bufs.ext) {
            match resolve(&e.name) {
                Some(src) if src.len() == e.view.len => {
                    *entry = ExtSlice(src);
                    if matches!(e.home, Home::Slab | Home::Copied) {
                        let slot = &mut bufs.slab[e.view.off..e.view.off + e.view.len];
                        match e.pack {
                            Some(pack) => pack.unpack(src, slot),
                            None => slot.copy_from_slice(src),
                        }
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
        let workers = self.run_waves(SlabMem::new(bufs, record), run)?;
        for m in &self.outputs {
            sink(ArenaArtifact {
                name: &m.name,
                shape: &m.shape,
                layout: &m.layout,
                data: &bufs.slab[m.view.off..m.view.off + m.view.len],
            });
        }
        if let Some(profiler) = opts.profiler {
            let mut prof = lock_sink(profiler);
            for (w, wave) in self.cert.waves.iter().enumerate() {
                for &si in wave {
                    let tag = parallel.then_some(w);
                    prof.record_step(si, tag, bufs.step_us[si], run.sanitize);
                }
                if parallel {
                    prof.record_wave(w, wave, workers.min(wave.len()), bufs.wave_us[w]);
                }
            }
        }
        Ok(())
    }

    /// [`CompiledArena::execute_bound`] into a record lent for the run, with
    /// every output, then — through the record's accessors — every saved
    /// container and layer-norm statistic materialized into `out` (which
    /// allocates).
    ///
    /// # Errors
    ///
    /// Same as [`CompiledArena::execute_bound`].
    pub fn execute_into_state<'a>(
        &self,
        opts: &ExecOptions,
        resolve: &mut dyn FnMut(&str) -> Option<&'a [f32]>,
        out: &mut ExecState,
    ) -> Result<()> {
        let mut record = self.lend_record();
        self.execute_bound(opts, resolve, Some(&mut record), &mut |a| out.record(a))?;
        for name in record.names() {
            let (shape, layout, data) = record.container(name).expect("a record holds its names");
            out.record(ArenaArtifact {
                name,
                shape,
                layout,
                data,
            });
        }
        for (norm, mean, inv_std) in record.stats() {
            let (mean, inv_std) = (mean.to_vec(), inv_std.to_vec());
            let stats = LayerNormStats { mean, inv_std };
            out.stats.insert(norm.into(), stats);
        }
        Ok(())
    }

    /// Runs the certified waves in order: on the caller's thread at
    /// `threads <= 1`, which never touches the pool, and otherwise with
    /// each multi-step wave dispatched across it. Returns how many threads
    /// served the multi-step waves.
    fn run_waves(&self, mem: SlabMem, run: &ArenaRun) -> Result<usize> {
        let pool = (run.threads > 1).then(pool);
        // serialize concurrent parallel arena runs; waves of one run must
        // not interleave with another run's on the shared job slot
        let _dispatch = pool.map(|p| p.dispatch.lock().unwrap_or_else(|e| e.into_inner()));
        for (w, wave) in self.cert.waves.iter().enumerate() {
            if run.sanitize {
                self.sanitize_reads(mem, w)?;
            }
            let t0 = run.timed.then(Instant::now);
            match pool {
                Some(pool) if wave.len() > 1 && pool.workers > 0 => {
                    pool.run_wave(&self.steps, wave, mem, run)?;
                }
                _ => {
                    for &si in wave {
                        // SAFETY: the arena certificate proves every pair
                        // of simultaneously-live buffers occupies disjoint
                        // slab ranges, and this thread runs one step at a
                        // time.
                        unsafe { run_indexed(&self.steps, si, mem, run) };
                    }
                }
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
        Ok(pool.map_or(1, |p| p.workers + 1))
    }

    /// Poison-mode prologue for one wave: no word a step of the wave reads
    /// of the slab or the record may carry the poison. Checked before the
    /// kernels run, because a kernel may write a NaN it read as a NaN of
    /// its own (a softmax lane writes `f32::NAN`), which the epilogue
    /// cannot tell from data.
    fn sanitize_reads(&self, mem: SlabMem, w: usize) -> Result<()> {
        for &si in &self.cert.waves[w] {
            for (place, path, name) in &self.steps[si].reads {
                // SAFETY: the wave has not started; no kernel holds these words.
                let data = unsafe { mem.words(*place) };
                if reaches_poison(data, path.base, &path.dims) {
                    return Err(TensorError::Unsupported(format!(
                        "arena sanitizer: step {si} (`{}`) would read a non-finite value, the poison, in `{name}` — a word no step wrote before it, or a retired (reused) buffer",
                        self.step_names[si]
                    )));
                }
            }
        }
        Ok(())
    }

    /// Poison-mode epilogue for one wave: no output written by the wave
    /// may carry the poison (one that does means some kernel read poisoned
    /// — dead and reused — words), then every buffer whose certified live
    /// interval ends at this wave is poisoned again.
    fn sanitize_wave(&self, mem: SlabMem, w: usize) -> Result<()> {
        for &si in &self.cert.waves[w] {
            for v in &self.steps[si].written {
                // SAFETY: the wave finished; no kernel holds these words.
                let data = unsafe { mem.words(*v) };
                if data.iter().any(|x| x.abs().to_bits() == POISON.to_bits()) {
                    return Err(TensorError::Unsupported(format!(
                        "arena sanitizer: step {si} (`{}`) produced a non-finite value, the poison — a kernel read a retired (reused) buffer",
                        self.step_names[si]
                    )));
                }
            }
        }
        for v in &self.retire[w] {
            // SAFETY: the buffer's live interval ended with this wave.
            unsafe { mem.words_mut(Place::Slab(*v)) }.fill(POISON);
        }
        Ok(())
    }
}

/// Whether a word of `data` the path `(at, dims)` reaches carries the
/// poison (either sign), the outermost loop first.
fn reaches_poison(data: &[f32], at: u64, dims: &[(u64, u64)]) -> bool {
    match dims {
        [] => data[at as usize].abs().to_bits() == POISON.to_bits(),
        [(n, s), inner @ ..] => (0..*n).any(|i| reaches_poison(data, at + i * s, inner)),
    }
}

type Memo = Mutex<HashMap<u64, Arc<CompiledArena>>>;

fn memo() -> &'static Memo {
    static MEMO: OnceLock<Memo> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// [`plan_fingerprint`] extended by the extents of every operand's
/// container and by the graph's arithmetic: the fingerprint covers
/// operators, names and layouts, and one schedule lowered at two sets of
/// dimensions, or over graphs that differ in their activation or softmax
/// scale, must not share an arena or a profiler sink.
pub(crate) fn plan_key(graph: &Graph, plan: &ExecutionPlan) -> u64 {
    let mut h = plan_fingerprint(plan);
    let mut eat = |n: u64| h = (h ^ n).wrapping_mul(0x0000_0100_0000_01b3);
    eat(graph.activation() as u64);
    eat(u64::from(graph.softmax_scale().to_bits()));
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

/// The compiled arena of `plan`, analyzed, certified and compiled on first
/// use and memoized per distinct plan — so a plan is checked once, not on
/// every call, and runs out of one slab at any thread count. Callers of
/// one plan share one arena and queue on its buffers.
///
/// # Errors
///
/// Same as [`CompiledArena::compile`].
pub fn compiled(graph: &Graph, plan: &ExecutionPlan) -> Result<Arc<CompiledArena>> {
    let key = plan_key(graph, plan);
    let lock = || memo().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hit) = lock().get(&key).filter(|a| a.matches(plan)) {
        return Ok(Arc::clone(hit));
    }
    // compile outside the lock; a racing duplicate is benign
    let analysis = analyze(graph, plan);
    analysis.gate()?;
    let built = Arc::new(CompiledArena::build(graph, plan, &analysis)?);
    lock().insert(key, Arc::clone(&built));
    Ok(built)
}

/// Drops every arena [`compiled`] memoized.
pub fn clear_compiled() {
    memo().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Runs `plan` against `state` on its memoized arena ([`compiled`]) at
/// `opts.threads`, binding externals out of `state.env` (and the
/// statistics a backward kernel reads out of `state.stats`, where they
/// lie), and materializing every output, saved container and layer-norm
/// statistic back into it ([`CompiledArena::execute_into_state`]), each
/// container in the layout the plan leaves it in.
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
    let arena = compiled(graph, plan)?;
    let mut produced = ExecState::default();
    // the words of a tensor stored in its natural layout are borrowed as
    // they are; one an earlier plan left in another is normalized first
    let permuted = |t: &&Tensor| t.natural_words().is_none();
    let natural: HashMap<&str, Tensor> = (arena.externals())
        .filter_map(|(name, _)| Some((name, state.env.get(name).filter(permuted)?)))
        .map(|(name, t)| (name, t.relayout(&Layout::row_major(t.shape().rank()))))
        .collect();
    // a projection weight is bound as its panel pack
    let packed = arena.pack_weights(&state.env);
    let (env, stats) = (&state.env, &state.stats);
    let resolve = &mut |name: &str| match (packed.get(name), stats_name_of(name)) {
        (Some(panels), _) => Some(&panels[..]),
        (None, Some((norm, inv))) => stats
            .get(norm)
            .map(|s| &[&s.mean, &s.inv_std][usize::from(inv)][..]),
        (None, None) => natural.get(name).or(env.get(name)).map(Tensor::data),
    };
    arena.execute_into_state(opts, resolve, &mut produced)?;
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
/// or a borrowed external — cut to the hull of the operand's access path
/// (the words the certificate proved the kernel touches, a carve's third
/// of the stacked slot), and the statistics of a normalizing class: a
/// region of the record for a forward norm, which writes them, and for a
/// backward kernel, which reads them, an entry of `externals` per
/// statistic, appended by the first step that reads it. A relayout that finds its container in
/// `gather_from` takes the entry: it gathers out of the caller's slice.
/// `None` means the lowering does not model the step (its kind, operand
/// count, geometry or tail layout), an operand has no slot, or an output
/// or a relayout resolves to a borrowed external, which
/// [`CompiledArena::compile`] reports as an error naming the step.
fn compile_step(
    graph: &Graph,
    step: &PlanStep,
    stream: usize,
    (place_of, externals): (&HashMap<NodeId, Place>, &mut Vec<ExternalBind>),
    gather_from: &mut HashMap<NodeId, usize>,
    record_words: &mut usize,
    record_stats: &mut Vec<StatsSpec>,
) -> Option<StepExec> {
    let mut low = lower_step(graph, step)?;
    let scratch = BufView {
        off: 0,
        len: low.scratch_words(),
    };
    let n = low.operands.len();
    let mut operands: Vec<(Place, Role, View)> = Vec::with_capacity(n);
    let (mut zeroed, mut written) = (Vec::new(), Vec::new());
    for (k, (slot, role, mut view)) in low.operands.into_iter().enumerate() {
        let place = match slot {
            Slot::In(k) => *place_of.get(&step.inputs.get(k)?.data)?,
            Slot::Out(k) => match *place_of.get(&step.outputs.get(k)?.data)? {
                Place::Borrowed(..) => return None,
                slab => slab,
            },
        };
        // the kernel is handed the hull of its path, its view rebased onto it
        let hull = view_path(&role, &view, walk_of(&low.sweeps, k)).0.hull();
        let (lo, len) = (hull.start as usize, (hull.end - hull.start) as usize);
        let cut = |words: BufView| {
            (lo + len <= words.len).then_some(BufView {
                off: words.off + lo,
                len,
            })
        };
        let place = match place {
            Place::Slab(words) => Place::Slab(cut(words)?),
            Place::Record(words) => Place::Record(cut(words)?),
            Place::Borrowed(e, words) => Place::Borrowed(e, cut(words)?),
        };
        view.base -= lo;
        if let Some((i, at)) = sweep_of(&low.sweeps, k) {
            low.sweeps[i].rebase(at, lo);
        }
        if let Slot::Out(_) = slot {
            written.push(place);
            if matches!(role, Role::Broadcast | Role::LaneWeights) {
                zeroed.push(k);
            }
        }
        operands.push((place, role, view));
    }
    // a weight read where the caller keeps it is its panel pack, which only
    // a contraction reading it as its A can read
    let packed = |k: usize| match operands[k].0 {
        Place::Borrowed(e, _) => externals[e].pack.is_some(),
        _ => false,
    };
    if (0..operands.len()).any(packed) {
        let plan = match &mut low.kernel {
            Kernel::Contract { plan } => &mut **plan,
            Kernel::Tile { plan, .. } => &mut plan.first,
            _ => return None,
        };
        let (_, _, transposed) = weight_pack(graph, step)?;
        if (1..operands.len()).any(packed) || plan.swapped {
            return None;
        }
        *plan = plan.with_panel_a(transposed)?;
    }
    let relayouts = (low.relayouts.into_iter())
        .map(|r| match *place_of.get(&r.data)? {
            Place::Borrowed(..) => None,
            slot => {
                let from = gather_from.remove(&r.data).map(|e| (e, externals[e].pack));
                Some((from, slot, r))
            }
        })
        .collect::<Option<Vec<_>>>()?;
    // what the step's access facts say it reads of the slab and the record
    // that some earlier step wrote: the words its paths reach, not their
    // hulls (a causal step never reads the half of a lane past its
    // query). A container the step relays out is read after its relayout
    // (which comes first), and one it gathers from the caller's slice is
    // not read from the arena at all.
    let gathered = relayouts.iter().filter(|(from, ..)| from.is_some());
    let mut fresh: Vec<NodeId> = gathered.map(|(.., r)| r.data).collect();
    let mut reads = Vec::new();
    for a in step_accesses(graph, step).accesses {
        match (a.kind, place_of.get(&a.data)) {
            (AccessKind::Materialize, _) => fresh.push(a.data),
            (AccessKind::Read, Some(&place @ (Place::Slab(_) | Place::Record(_))))
                if a.bound() && !fresh.contains(&a.data) =>
            {
                reads.push((place, a.path, a.name))
            }
            _ => {}
        }
    }
    let lanes = |n| BufView { off: 0, len: n };
    let stats = match low.stats {
        Some((Stats::Writes(out), n)) => {
            let region = |k: usize| BufView {
                off: *record_words + k * n,
                ..lanes(n)
            };
            let (mean, inv_std) = (region(0), region(1));
            *record_words += 2 * n;
            let name = step.outputs.get(out)?.name.clone();
            record_stats.push(StatsSpec {
                name,
                mean,
                inv_std,
            });
            Some([mean, inv_std].map(Place::Record))
        }
        // read where the resolver's answer lies: one entry of the externals
        // table per statistic, however many steps read it
        Some((Stats::Reads(norm), n)) => Some(stats_names(&graph.data(norm)?.name).map(|name| {
            let e = externals.iter().position(|e| e.name == name);
            let e = e.unwrap_or_else(|| {
                externals.push(ExternalBind {
                    name,
                    view: lanes(n),
                    home: Home::Borrowed,
                    pack: None,
                });
                externals.len() - 1
            });
            Place::Borrowed(e, lanes(n))
        })),
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
        zeroed,
        written,
        reads,
        activation: graph.activation(),
        scaler: graph.softmax_scale(),
    })
}

/// Runs step `si` of `steps` and, on a timed run, writes its wall time into
/// the step's own timing slot.
///
/// # Safety
///
/// As [`run_step`]; in addition `mem.step_us` must address one slot per
/// step, and no other thread may be executing step `si` — each step index
/// sits in exactly one wave and is claimed exactly once.
unsafe fn run_indexed(steps: &[StepExec], si: usize, mem: SlabMem, run: &ArenaRun) {
    let t0 = run.timed.then(Instant::now);
    // SAFETY: the caller's contract is `run_step`'s.
    unsafe { run_step(&steps[si], mem, run) };
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
unsafe fn run_step(step: &StepExec, mem: SlabMem, run: &ArenaRun) {
    let drop = &run.drop.keyed(stream_key(run.seed, step.stream));
    // a forward norm writes its statistics into the record, a backward
    // kernel reads them where they lie
    let stats = |k: usize| step.stats.expect("a normalizing class has statistics")[k];
    // SAFETY (all five): the caller's contract covers every slot of the
    // step, its statistics and its scratch range.
    let r = |k: usize| unsafe { mem.words(step.operands[k].0) };
    let w = |k: usize| unsafe { mem.words_mut(step.operands[k].0) };
    let stat = |k: usize| unsafe { mem.words(stats(k)) };
    let stat_mut = |k: usize| unsafe { mem.words_mut(stats(k)) };
    let scratch = || unsafe { mem.scratch_mut(step.scratch.off, step.scratch.len) };
    for (source, slot, copy) in &step.relayouts {
        // SAFETY: the hazard analysis orders a relayout against every
        // other access of its container, so this step owns the slot.
        let slot = unsafe { mem.words_mut(*slot) };
        match *source {
            // SAFETY: the run bound entry `e` before its first step.
            Some((e, None)) => into_ops::relayout_from(&copy.dims, unsafe { mem.ext(e) }, slot),
            Some((e, Some(pack))) => {
                // a weight's panels, unpacked to its logical order first
                let logical = &mut scratch()[..slot.len()];
                pack.unpack(unsafe { mem.ext(e) }, logical);
                into_ops::relayout_from(&copy.dims, logical, slot);
            }
            None => into_ops::relayout_into(&copy.dims, slot, scratch()),
        }
    }
    for &k in &step.zeroed {
        w(k).fill(0.0);
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
        Kernel::Scale => into_ops::scale_into(s(), r(0), step.scaler, w(1)),
        Kernel::Activate => into_ops::activate_into(s(), r(0), step.activation, w(1)),
        Kernel::Dropout => into_ops::dropout_into(s(), r(0), drop, w(1), w(2)),
        Kernel::Residual => into_ops::add_into(s(), r(0), r(1), w(2)),
        Kernel::Softmax { causal } => {
            into_ops::softmax_into(s(), r(0), step.scaler, pos(*causal), w(1));
        }
        Kernel::Sm { causal } => {
            let c = pos(*causal);
            into_ops::sm_into(s(), r(0), step.scaler, c, drop, w(1), w(2), w(3));
        }
        Kernel::LayerNorm => {
            into_ops::layernorm_into(s(), r(0), r(1), r(2), w(3), stat_mut(0), stat_mut(1));
        }
        Kernel::Bdrln => {
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
                stat_mut(0),
                stat_mut(1),
            );
        }
        Kernel::BrdAct => {
            into_ops::brd_act_into(s(), r(0), r(1), step.activation, drop, w(2), w(3), w(4));
        }
        Kernel::Bdr => into_ops::bdr_into(s(), r(0), r(1), r(2), drop, w(3), w(4)),
        Kernel::BiasSoftmax => into_ops::bias_softmax_into(s(), r(0), r(1), w(2)),
        Kernel::Tile { plan, tail } => {
            let mut tail = match *tail {
                Tail::BrdAct => RowTail::BiasActDrop {
                    bias: r(2),
                    kind: step.activation,
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
                    scaler: step.scaler,
                    causal: pos(causal),
                },
            };
            // the attention region's context contraction: the values, the
            // output
            let second = plan.second.is_some().then(|| (r(2), w(3)));
            into_ops::tile_into(plan, r(0), r(1), &mut tail, second, drop, scratch());
        }
        Kernel::BiasGrad => {
            for (k, s) in step.sweeps.iter().enumerate() {
                into_ops::bias_grad_into(s, r(2 * k), w(2 * k + 1));
            }
        }
        Kernel::DropoutGrad => into_ops::dropout_backward_into(s(), r(0), r(1), w(2)),
        Kernel::ActivateGrad => {
            into_ops::activate_backward_into(s(), r(0), r(1), step.activation, w(2));
        }
        Kernel::SoftmaxGrad => into_ops::softmax_backward_into(s(), r(0), r(1), step.scaler, w(2)),
        Kernel::Bs => into_ops::bs_into(s(), r(0), r(1), r(2), step.scaler, w(3)),
        Kernel::NormGradX => {
            into_ops::layernorm_backward_input_into(s(), r(0), r(1), r(2), stat(0), stat(1), w(3));
        }
        Kernel::NormGradW => {
            into_ops::layernorm_backward_weights_into(
                s(),
                r(0),
                r(1),
                stat(0),
                stat(1),
                w(2),
                w(3),
            );
        }
        Kernel::Blnrd => {
            into_ops::blnrd_into(s(), r(0), r(1), r(2), r(3), stat(0), stat(1), w(4), w(5));
        }
        Kernel::Blnr => {
            into_ops::blnr_into(s(), r(0), r(1), r(2), r(3), stat(0), stat(1), w(4));
        }
        Kernel::Ebsb => {
            into_ops::ebsb_into(s(), r(0), r(1), r(2), stat(0), stat(1), w(3), w(4), w(5));
        }
        Kernel::Bdb => into_ops::bdb_into(s(), r(0), r(1), w(2), w(3)),
        Kernel::Bdrb => {
            // the merged bias dW first, when the step has one
            let at = 2 * (step.sweeps.len() - 1);
            if let [merged, _] = &step.sweeps[..] {
                into_ops::bias_grad_into(merged, r(0), w(1));
            }
            let (s, act) = (step.sweeps.last().expect("BDRB's sweep"), step.activation);
            into_ops::bdrb_act_into(s, r(at), r(at + 1), r(at + 2), act, w(at + 3), w(at + 4));
        }
    }
}

/// A wave handed to the persistent worker pool: raw views of one arena's
/// step table, wave slice, buffers and run, all outliving the dispatch
/// because the publishing thread blocks until every worker has drained.
#[derive(Clone, Copy)]
struct WaveJob {
    steps: *const [StepExec],
    wave: *const [usize],
    mem: SlabMem,
    run: *const ArenaRun,
}

// SAFETY: the pointers address the publishing arena's step table, wave
// slice and run, all immutable and alive until the publisher has seen
// every worker leave the job (see `Pool::run_wave`).
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
                run,
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
        // SAFETY: the publisher keeps `steps`/`wave`/`mem`/`run` alive
        // until `running` drops to zero, which happens strictly after this
        // worker finishes.
        let (steps, wave, run) = unsafe { (&*job.steps, &*job.wave, &*job.run) };
        let res = catch_unwind(AssertUnwindSafe(|| loop {
            let i = pool.claim.fetch_add(1, Ordering::Relaxed);
            if i >= wave.len() {
                break;
            }
            // SAFETY: as in `Pool::run_wave`.
            unsafe { run_indexed(steps, wave[i], job.mem, run) };
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

    fn compile(graph: &Graph, plan: &ExecutionPlan) -> CompiledArena {
        CompiledArena::compile(graph, plan, &analyze(graph, plan), ArenaGranularity::Serial)
            .unwrap()
            .expect("every gated plan compiles")
    }

    /// The most words the buffers neither borrowed nor recorded hold at
    /// any one step, recomputed from the live intervals alone.
    fn slab_owned_peak(analysis: &PlanAnalysis) -> u64 {
        let owned = || {
            analysis
                .liveness
                .iter()
                .filter(|b| !matches!(b.home, Home::Borrowed | Home::Record))
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
    fn run(arena: &CompiledArena, base: &ExecState, opts: &ExecOptions) -> Vec<(String, Vec<f32>)> {
        let mut out = ExecState::default();
        let packed = arena.pack_weights(&base.env);
        let mut resolve = |name: &str| match packed.get(name) {
            Some(panels) => Some(&panels[..]),
            None => binder(base, "")(name),
        };
        arena
            .execute_into_state(opts, &mut resolve, &mut out)
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
        let arena = compile(&graph, &plan);
        assert!(arena.matches(&plan));
        assert_eq!(
            arena.slab_words() as u64,
            slab_owned_peak(&analysis),
            "a chain's slab must hit the peak-resident target exactly"
        );

        let base = random_externals(&graph, &plan, 42).unwrap();
        let opts = ExecOptions::builder().sanitize(SanitizeMode::Off).build();
        let mut reference = base.clone();
        let mut rng = StdRng::seed_from_u64(opts.seed);
        execute_plan(&graph, &plan, &mut reference, &opts, &mut rng).unwrap();
        // every Output/Saved container and statistic must be bitwise equal
        // to the reference interpreter's
        let produced = run(&arena, &base, &opts);
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
    /// 4 and a last lane alone, with dropout masks in each: the oracle's
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
        let arena = compile(&graph, &plan);
        let panels = arena.steps.iter().flat_map(|s| &s.sweeps);
        assert!(panels.filter(|s| s.walk() == Walk::Panel).count() >= 2);
        let base = random_externals(&graph, &plan, 21).unwrap();
        let opts = ExecOptions::builder()
            .dropout_p(0.3)
            .sanitize(SanitizeMode::Off)
            .build();
        // the oracle keyed as the arena keys: one stream per step
        let mut reference = base.clone();
        for (si, step) in plan.steps.iter().enumerate() {
            let rng = &mut stream_key(opts.seed, plan.stream_of(si));
            execute_step(&graph, step, &mut reference, &opts, rng).unwrap();
        }
        for (name, data) in &run(&arena, &base, &opts) {
            match name.rsplit_once('/') {
                Some((norm, "mean")) => assert_eq!(data, &reference.stats[norm].mean, "{name}"),
                Some((norm, _)) => assert_eq!(data, &reference.stats[norm].inv_std, "{name}"),
                None => assert_eq!(data, reference.env[name].data(), "{name}"),
            }
        }
    }

    #[test]
    fn one_arena_runs_the_same_bits_at_any_thread_count() {
        let (graph, plan) = fused_plan();
        let arena = compile(&graph, &plan);
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
                    .seed(0xfeed)
                    .threads(threads)
                    .sanitize(SanitizeMode::Off)
                    .build();
                run(&arena, &base, &opts)
            };
            let serial = at(1);
            assert_eq!(serial, at(2), "thread-count variance at p={p}");
            assert_eq!(serial, at(8), "thread-count variance at p={p}");
        }
    }

    /// A recycled record is poisoned before a checked run, as the slab is:
    /// a step scheduled ahead of the writer of the saved container it reads
    /// (a schedule the lint gate refuses, compiled past it) reads the last
    /// run's words unchecked, and NaN checked, and fails naming itself.
    #[test]
    fn a_read_of_a_saved_container_before_its_write_fails_under_poison() {
        let eg = build::decoder(&EncoderDims::tiny());
        let natural = ExecutionPlan::natural(&eg.graph, &forward_ops(&eg.graph, eg.dy)).unwrap();
        let step = |name: &str| {
            natural
                .steps
                .iter()
                .find(|s| s.name == name)
                .unwrap()
                .clone()
        };
        let plan = ExecutionPlan {
            steps: vec![step("Q,K,V"), step("LayerNorm 1")],
        };
        let arena = CompiledArena::build(&eg.graph, &plan, &analyze(&eg.graph, &plan)).unwrap();
        let base = random_externals(&eg.graph, &plan, 3).unwrap();
        let packed = arena.pack_weights(&base.env);
        let mut record = arena.lend_record();
        let mut run = |sanitize| {
            let opts = ExecOptions::builder().sanitize(sanitize).build();
            let resolve = &mut |name: &str| match packed.get(name) {
                Some(panels) => Some(&panels[..]),
                None => binder(&base, "")(name),
            };
            arena.execute_bound(&opts, resolve, Some(&mut record), &mut |_| {})
        };
        for _ in 0..2 {
            run(SanitizeMode::Off).unwrap();
        }
        let err = run(SanitizeMode::On).unwrap_err().to_string();
        assert!(
            err.contains("non-finite") && err.contains("`Q,K,V`"),
            "{err}"
        );
    }

    /// A softmax writes a poisoned lane as `f32::NAN` of its own, so only
    /// its reads can give it away: scheduled ahead of `QKT`, its producer,
    /// the unfused encoder's `Scaled softmax` reads slab words no step has
    /// written, and the poison mode refuses the run before the step runs.
    #[test]
    fn a_softmax_scheduled_before_its_producer_is_refused_under_poison() {
        let eg = build::encoder(&EncoderDims::tiny());
        let natural = ExecutionPlan::natural(&eg.graph, &forward_ops(&eg.graph, eg.dy)).unwrap();
        let at = |name: &str| natural.steps.iter().position(|s| s.name == name).unwrap();
        let mut plan = natural.clone();
        let softmax = plan.steps.remove(at("Scaled softmax"));
        plan.steps.insert(at("QKT"), softmax);
        let arena = CompiledArena::build(&eg.graph, &plan, &analyze(&eg.graph, &plan)).unwrap();
        let base = random_externals(&eg.graph, &plan, 3).unwrap();
        let packed = arena.pack_weights(&base.env);
        let run_reordered = |sanitize| {
            let opts = ExecOptions::builder().sanitize(sanitize).build();
            let resolve = &mut |name: &str| match packed.get(name) {
                Some(panels) => Some(&panels[..]),
                None => binder(&base, "")(name),
            };
            arena.execute_bound(&opts, resolve, None, &mut |_| {})
        };
        run_reordered(SanitizeMode::Off).unwrap();
        let err = run_reordered(SanitizeMode::On).unwrap_err().to_string();
        assert!(err.contains("`Scaled softmax`"), "{err}");
        // the natural order reads only what its producers wrote
        let arena = compile(&eg.graph, &natural);
        let opts = ExecOptions::builder().sanitize(SanitizeMode::On).build();
        assert!(!run(&arena, &base, &opts).is_empty());
    }

    /// A run writes a record only of the plan that lent it, refused before
    /// it binds anything (the resolver here answers nothing).
    #[test]
    fn a_record_lent_for_another_plan_is_refused_before_the_run() {
        let (graph, plan) = fused_plan();
        let (g, p) = fused_plan_at(&EncoderDims {
            b: 3,
            ..EncoderDims::tiny()
        });
        let mut record = compile(&g, &p).lend_record();
        let run = compile(&graph, &plan).execute_bound(
            &ExecOptions::default(),
            &mut |_| None,
            Some(&mut record),
            &mut |_| {},
        );
        assert!(matches!(run, Err(TensorError::Unsupported(_))), "{run:?}");
    }

    #[test]
    fn sanitized_arena_run_passes_on_clean_plan() {
        let (graph, plan) = fused_plan();
        let base = random_externals(&graph, &plan, 11).unwrap();
        let arena = compile(&graph, &plan);
        for threads in [1, 4] {
            let opts = ExecOptions::builder()
                .threads(threads)
                .sanitize(SanitizeMode::On)
                .build();
            assert!(!run(&arena, &base, &opts).is_empty(), "{threads}");
        }
    }

    /// The run CI interprets under Miri: wave-parallel, sink set, so the
    /// per-step and per-wave timing slots are written through the raw
    /// views and the buffers are taken with the blocking lock.
    #[test]
    fn timed_wave_parallel_run_fills_every_slot_and_changes_no_bit() {
        let (graph, plan) = fused_plan();
        let arena = compile(&graph, &plan);
        let base = random_externals(&graph, &plan, 5).unwrap();
        let plain = ExecOptions::builder().dropout_p(0.3).threads(4).build();
        let untimed = run(&arena, &base, &plain);

        let sink: ProfilerSink = Mutex::new(PlanProfiler::with_peak(&graph, &plan, 1.0));
        let timed_opts = plain.to_builder().profiler(Some(&sink)).build();
        let timed = run(&arena, &base, &timed_opts);
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
        let sink: ProfilerSink = Mutex::new(PlanProfiler::with_peak(&graph, &plan, 1.0));
        let serial = plain.to_builder().threads(1).profiler(Some(&sink)).build();
        assert_eq!(run(&arena, &base, &serial), untimed);
        let prof = sink.into_inner().unwrap();
        assert_eq!(prof.steps().count(), plan.steps.len());
        assert_eq!(prof.waves().count(), 0);
    }

    /// A kernel is handed the hull of its certified path, not its slot:
    /// the unfused plan's `Input bias K` gets the middle third of
    /// `qkv_raw`, so reading Q's or V's rows is an out-of-range index.
    #[test]
    fn a_carve_kernel_receives_exactly_its_third_of_the_stacked_slot() {
        let eg = build::encoder(&EncoderDims::tiny());
        let plan = ExecutionPlan::natural(&eg.graph, &forward_ops(&eg.graph, eg.dy)).unwrap();
        let arena = compile(&eg.graph, &plan);
        let slot_of = |name: &str, output: bool| {
            let si = plan.steps.iter().position(|s| s.name == name).unwrap();
            let k = match output {
                true => arena.steps[si].operands.len() - 1,
                false => 0,
            };
            match arena.steps[si].operands[k].0 {
                Place::Slab(words) => words,
                _ => panic!("`{name}` reads a slab container"),
            }
        };
        // the projection writes the whole stacked container
        let stacked = slot_of("Q,K,V", true);
        let third = stacked.len / 3;
        let k = slot_of("Input bias K", false);
        assert_eq!((k.off, k.len), (stacked.off + third, third));
    }

    #[test]
    fn tampered_wave_partition_is_refused_at_compile() {
        let (graph, plan) = fused_plan();
        let mut analysis = analyze(&graph, &plan);
        // forget every hazard: the partition collapses into one wave that
        // holds producers next to their consumers
        analysis.deps.clear();
        assert_eq!(analysis.parallel_waves().len(), 1);
        let err = CompiledArena::compile(&graph, &plan, &analysis, ArenaGranularity::Serial)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("failed certification") && err.contains("race on"),
            "{err}"
        );
    }

    #[test]
    fn unbound_externals_are_typed_errors() {
        let (graph, plan) = fused_plan();
        let arena = compile(&graph, &plan);
        let base = random_externals(&graph, &plan, 3).unwrap();
        let mut out = ExecState::default();
        let opts = ExecOptions::default();
        // a binder that does not know `w1`
        let err = arena
            .execute_into_state(&opts, &mut binder(&base, "w1"), &mut out)
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
        // only a cache may be declined: an external that lives in the slab
        // because the plan re-lays it is unbound without its slice
        let (graph, _, strided) = strided_plan();
        let arena = compile(&graph, &strided);
        for name in ["x", "w1"] {
            assert!(arena.with_external(name, |_| ()).is_some(), "`{name}`");
            let err = arena
                .execute_into_state(&opts, &mut binder(&base, name), &mut out)
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
            let err = CompiledArena::build(&graph, &plan, &analyze(&graph, &plan))
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
    /// masks and statistics, dropout on — at one thread and at four, each
    /// container materialized in the layout its plan leaves it in.
    #[test]
    fn a_strided_plan_with_relayouts_computes_the_natural_plans_bits() {
        let (graph, natural, strided) = strided_plan();
        let a = compiled(&graph, &strided).unwrap();
        let b = compiled(&graph, &strided).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one arena per distinct plan");
        let n = compiled(&graph, &natural).unwrap();
        assert!(!Arc::ptr_eq(&a, &n));
        let base = random_externals(&graph, &natural, 9).unwrap();
        // a sink is made for one plan: one for each
        let sinks: [ProfilerSink; 2] =
            [&natural, &strided].map(|p| Mutex::new(PlanProfiler::with_peak(&graph, p, 1.0)));
        let row_major = |t: &Tensor| t.relayout(&Layout::row_major(t.shape().rank()));
        for threads in [1, 4] {
            for profiled in [false, true] {
                let opts = |sink| {
                    ExecOptions::builder()
                        .dropout_p(0.3)
                        .threads(threads)
                        .profiler(profiled.then_some(sink))
                        .build()
                };
                let (mut nat, mut st) = (base.clone(), base.clone());
                execute(&graph, &natural, &mut nat, &opts(&sinks[0])).unwrap();
                execute(&graph, &strided, &mut st, &opts(&sinks[1])).unwrap();
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
        let a = compiled(&graph, &natural).unwrap();
        let b = compiled(&wider, &wider_plan).unwrap();
        assert!(b.slab_words() > a.slab_words());
        // same schedule, other arithmetic: another arena, other bits
        let y = |graph: &Graph| {
            let mut state = base.clone();
            execute(graph, &natural, &mut state, &ExecOptions::default()).unwrap();
            state.env.remove("y").unwrap()
        };
        let (mut gelu, mut unscaled) = (graph.clone(), graph.clone());
        gelu.set_activation(ActivationKind::Gelu);
        unscaled.set_softmax_scale(1.0);
        for other in [gelu, unscaled] {
            let c = compiled(&other, &natural).unwrap();
            assert!(!Arc::ptr_eq(&a, &c));
            assert_ne!(y(&other).data(), y(&graph).data());
        }
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
        let arena = compile(&graph, &plan);
        // and the pair computes what the natural plan does
        let base = random_externals(&graph, &plan, 2).unwrap();
        let opts = ExecOptions::builder().threads(2).build();
        let got = run(&arena, &base, &opts);
        let natural = ExecutionPlan::natural(&graph, &[reader, mover]).unwrap();
        let want = compile(&graph, &natural);
        assert_eq!(got, run(&want, &base, &opts));

        // forget the hazard: reader and relayout share a wave
        analysis.deps.clear();
        assert_eq!(analysis.wave_of(), [0, 0]);
        let err = CompiledArena::compile(&graph, &plan, &analysis, ArenaGranularity::Serial)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("failed certification") && err.contains("race on"),
            "{err}"
        );
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
        compile(&g, &plan);
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
            let arena = compile(&g, &plan);
            let analysis = analyze(&g, &plan);
            assert_eq!(
                arena.slab_words() as u64,
                slab_owned_peak(&analysis),
                "{label}: a chain's slab must hit the peak of what it owns"
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
