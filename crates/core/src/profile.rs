//! Runtime plan profiler: measured per-step time, bytes, bandwidth, and
//! MUE, plus profile-guided re-selection.
//!
//! The paper's recipe is *enumerate → measure → select*; the offline half
//! lives in [`crate::sweep`] / [`crate::selection`]. This module closes
//! the loop at runtime: a [`PlanProfiler`] observes the arena the plan runs
//! on anyway via [`crate::plan::ExecOptions::profiler`] — the arena writes
//! per-step and per-wave wall times into slots of its own and hands them
//! over after the run ([`record_arena_timings`]) — against the *static*
//! movement accounting (the exact word
//! counts [`crate::analyze::audit`] charges, cross-checked against the
//! symbolic footprints of [`crate::sanitize::step_footprint`]). From time and
//! bytes it derives achieved bandwidth and a **measured MUE**
//! (`Q/D · B/B̂ · 100`, Sec. III-C) per step, per operator class, and per
//! plan — the measured mirror of the static audit.
//!
//! On top of the profiler, [`ProfiledSource`] replays recorded step
//! timings through the [`PerfSource`] trait so SSSP configuration
//! selection can re-run from real interpreter measurements instead of
//! sweep microbenches; [`reselect`] is the end-to-end driver: profile the
//! natural plan, re-select against the profiled timings, profile the
//! candidate on the same executor, and adopt whichever plan measured
//! faster.

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

use xform_dataflow::{flops, Graph, NodeId, OpClass};
use xform_gpusim::mue::{Mue, MueAccum};
use xform_gpusim::opmodel::OpConfig;
use xform_gpusim::{DeviceSpec, KernelCost};
use xform_tensor::{Result, TensorError};

use crate::arena::ArenaArtifact;
use crate::plan::{
    random_externals, ExecOptions, ExecState, ExecutionPlan, PlanStep, SanitizeMode,
};
use crate::sanitize::step_footprint;
use crate::selection::{select_forward_cost, CostModel, Selection};
use crate::sweep::{sweep_all, PerfSource, SweepOptions};

/// The sink type the executors record into: a [`PlanProfiler`] behind a
/// mutex, so it can sit in a shared [`ExecOptions`].
pub type ProfilerSink = Mutex<PlanProfiler>;

/// One step's measured profile, merged across repeated runs (times keep
/// the minimum — the least-disturbed observation, like the sweep
/// microbenches).
#[derive(Debug, Clone)]
pub struct StepProfile {
    /// Step index in the schedule.
    pub step: usize,
    /// The operator the step executes.
    pub op: NodeId,
    /// Kernel name.
    pub name: String,
    /// Operator class.
    pub class: OpClass,
    /// Whether the serial interpreter can run this step standalone.
    pub interpretable: bool,
    /// Wave index, when recorded by a wave-parallel arena run.
    pub wave: Option<usize>,
    /// Best (minimum) measured wall-clock time across runs, µs.
    pub time_us: f64,
    /// How many executions were merged into this record.
    pub runs: usize,
    /// Whether any merged run executed under the arena's poison mode (its
    /// slab sweeps sit between the steps, not inside them).
    pub sanitized: bool,
    /// Words the step's graph memlets read (identical to
    /// [`crate::analyze::StepAudit::read_words`]).
    pub read_words: u64,
    /// Words the step's graph memlets write (identical to
    /// [`crate::analyze::StepAudit::write_words`]).
    pub write_words: u64,
    /// Words moved by the step's explicit relayouts (read + write of each
    /// relayouted container; identical to
    /// [`crate::analyze::StepAudit::relayout_words`]).
    pub relayout_words: u64,
    /// The operator's I/O lower bound in words (`Q` of the MUE formula).
    pub q_words: u64,
    /// Words of `q_words` that an un-collapsed GEMM-epilogue chain merely
    /// shuttles through its eliminable interim (the head's write of it
    /// plus the tail's read-back). Like the static audit, the measured
    /// MUE counts these as pure movement, not algorithmic demand, so a
    /// plan that collapses the chain profiles at the same `Q`.
    pub avoid_words: u64,
    /// Words covered by the symbolic footprint oracle
    /// ([`crate::sanitize::step_footprint`]) — the certifier's independent
    /// derivation of the same traffic, for cross-checking.
    pub footprint_words: u64,
    /// Flop the operator performs.
    pub flop: u64,
}

impl StepProfile {
    /// Total words this step moves: kernel memlets plus relayouts.
    #[must_use]
    pub fn moved_words(&self) -> u64 {
        self.read_words + self.write_words + self.relayout_words
    }

    /// Total bytes this step moves (f32 words).
    #[must_use]
    pub fn moved_bytes(&self) -> u64 {
        self.moved_words() * 4
    }

    /// Achieved bandwidth over the best run, bytes/µs.
    #[must_use]
    pub fn achieved_bytes_per_us(&self) -> f64 {
        self.moved_bytes() as f64 / self.time_us.max(1e-3)
    }

    /// Whether the footprint oracle's word count agrees with the audit's
    /// memlet accounting for this step (they derive the same traffic two
    /// different ways; disagreement means an over-declared operand).
    #[must_use]
    pub fn footprint_matches(&self) -> bool {
        self.footprint_words == self.moved_words()
    }
}

/// One wave's measured profile under a wave-parallel arena run.
#[derive(Debug, Clone)]
pub struct WaveProfile {
    /// Wave index.
    pub wave: usize,
    /// Step indices the wave dispatched.
    pub steps: Vec<usize>,
    /// Worker threads the wave actually used.
    pub workers: usize,
    /// Best (minimum) wall-clock time of the whole wave across runs, µs.
    pub wall_us: f64,
    /// How many executions were merged into this record.
    pub runs: usize,
}

/// Measured totals of one operator class (the measured mirror of
/// [`crate::analyze::ClassMovement`]).
#[derive(Debug, Clone, Copy)]
pub struct ClassProfile {
    /// The class.
    pub class: OpClass,
    /// Number of profiled steps in the class.
    pub steps: usize,
    /// Summed best step times, µs.
    pub time_us: f64,
    /// Summed moved bytes (memlets plus relayouts).
    pub moved_bytes: u64,
    /// Measured class-level MUE (D-weighted across the class's steps).
    pub mue: Mue,
}

/// Accumulates measured per-step records from the arena and derives
/// achieved bandwidth and measured MUE per step, per class, and per plan.
///
/// Byte accounting is *static* — the profiler charges each step exactly
/// the words [`crate::analyze::audit`] charges (graph memlets plus
/// relayout traffic), so measured and static MUE differ only in the
/// bandwidth term and are directly comparable. Time is *measured* —
/// wall-clock around each step's kernel on the arena, with repeated runs
/// merged by minimum.
///
/// One profiler instance expects records from one plan: step indices are
/// the merge key, so replaying a *different* plan into the same sink mixes
/// unrelated steps.
#[derive(Debug, Clone)]
pub struct PlanProfiler {
    /// Peak streaming bandwidth of this host, bytes/µs (`B̂` of the MUE
    /// formula) — calibrated at construction by the same contiguous-read
    /// microbench [`crate::cpusource::CpuSource`] uses.
    pub peak_bytes_per_us: f64,
    steps: Vec<Option<StepProfile>>,
    waves: Vec<Option<WaveProfile>>,
}

impl Default for PlanProfiler {
    fn default() -> Self {
        PlanProfiler::new()
    }
}

impl PlanProfiler {
    /// A profiler with the host's calibrated peak streaming rate.
    #[must_use]
    pub fn new() -> Self {
        PlanProfiler::with_peak(crate::cpusource::calibrate_stream_rate())
    }

    /// A profiler normalizing bandwidth against an explicit peak
    /// (bytes/µs) — for tests and cross-host comparisons.
    #[must_use]
    pub fn with_peak(peak_bytes_per_us: f64) -> Self {
        PlanProfiler {
            peak_bytes_per_us: peak_bytes_per_us.max(1e-6),
            steps: Vec::new(),
            waves: Vec::new(),
        }
    }

    /// Records one execution of step `si`, merging into any existing
    /// record (minimum time, run count, latest wave assignment). The
    /// static word accounting is derived once, on first record.
    pub fn record_step(
        &mut self,
        graph: &Graph,
        step: &PlanStep,
        si: usize,
        wave: Option<usize>,
        time_us: f64,
        sanitized: bool,
    ) {
        if self.steps.len() <= si {
            self.steps.resize_with(si + 1, || None);
        }
        match &mut self.steps[si] {
            Some(existing) => {
                existing.runs += 1;
                existing.time_us = existing.time_us.min(time_us);
                existing.sanitized |= sanitized;
                if wave.is_some() {
                    existing.wave = wave;
                }
            }
            slot @ None => {
                let read_words = graph.input_words(step.op);
                let write_words = graph.output_words(step.op);
                let relayout_words: u64 = step
                    .relayouts
                    .iter()
                    .map(|r| {
                        2 * graph
                            .data(r.data)
                            .map(|d| d.shape.num_elements() as u64)
                            .unwrap_or(0)
                    })
                    .sum();
                let footprint_words = step_footprint(graph, step)
                    .iter()
                    .map(|a| a.span.words())
                    .sum();
                *slot = Some(StepProfile {
                    step: si,
                    op: step.op,
                    name: step.name.clone(),
                    class: step.kind.class(),
                    interpretable: crate::plan::step_is_interpretable(&step.kind, &step.name),
                    wave,
                    time_us,
                    runs: 1,
                    sanitized,
                    read_words,
                    write_words,
                    relayout_words,
                    q_words: graph.io_words(step.op),
                    avoid_words: crate::fusion::detect_tiles(graph)
                        .iter()
                        .filter(|c| c.head == step.op || c.tail == step.op)
                        .map(|c| c.interim_words)
                        .sum::<u64>()
                        .min(graph.io_words(step.op)),
                    footprint_words,
                    flop: flops::op_flop(graph, step.op).unwrap_or(0),
                });
            }
        }
    }

    /// Records one wave dispatch (wave-parallel arena run), merging into
    /// any existing record by minimum wall time.
    pub fn record_wave(&mut self, wave: usize, steps: &[usize], workers: usize, wall_us: f64) {
        if self.waves.len() <= wave {
            self.waves.resize_with(wave + 1, || None);
        }
        match &mut self.waves[wave] {
            Some(existing) => {
                existing.runs += 1;
                existing.wall_us = existing.wall_us.min(wall_us);
            }
            slot @ None => {
                *slot = Some(WaveProfile {
                    wave,
                    steps: steps.to_vec(),
                    workers: workers.max(1),
                    wall_us,
                    runs: 1,
                });
            }
        }
    }

    /// The recorded step profiles, in schedule order.
    pub fn steps(&self) -> impl Iterator<Item = &StepProfile> {
        self.steps.iter().flatten()
    }

    /// The recorded wave profiles, in wave order (empty for serial runs).
    pub fn waves(&self) -> impl Iterator<Item = &WaveProfile> {
        self.waves.iter().flatten()
    }

    /// The profile of step `si`, when recorded.
    #[must_use]
    pub fn step(&self, si: usize) -> Option<&StepProfile> {
        self.steps.get(si).and_then(Option::as_ref)
    }

    /// Sum of best per-step times, µs — the serial measured plan total.
    #[must_use]
    pub fn total_time_us(&self) -> f64 {
        self.steps().map(|s| s.time_us).sum()
    }

    /// Total bytes the plan moved (memlets plus relayouts).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.steps().map(StepProfile::moved_bytes).sum()
    }

    /// Measured MUE of one step: `Q` and `D` from the static accounting,
    /// `B/B̂` from measured time over the calibrated peak.
    #[must_use]
    pub fn measured_mue(&self, s: &StepProfile) -> Mue {
        let q = (s.q_words - s.avoid_words) as f64;
        let d = (s.moved_words() as f64).max(q).max(1.0);
        let bw = (s.achieved_bytes_per_us() / self.peak_bytes_per_us).clamp(0.0, 1.0);
        Mue {
            value: (q / d * bw * 100.0).clamp(0.0, 100.0),
            q_words: q,
            d_words: d,
            bandwidth_frac: bw,
        }
    }

    /// Folds one step into a [`MueAccum`] using its measured bandwidth:
    /// memlet words join as kernel traffic (with `Q`), relayout words as
    /// pure movement (without).
    fn accumulate(&self, acc: &mut MueAccum, s: &StepProfile) {
        let bw = (s.achieved_bytes_per_us() / self.peak_bytes_per_us).clamp(0.0, 1.0);
        let moved = (s.read_words + s.write_words) as f64;
        acc.add_kernel(
            (s.q_words - s.avoid_words) as f64,
            &KernelCost {
                time_us: s.time_us,
                moved_words: moved.max(s.q_words as f64) - s.avoid_words as f64,
                bandwidth_frac: bw,
                flop: s.flop as f64,
            },
        );
        if s.avoid_words > 0 {
            acc.add_movement(s.avoid_words as f64, bw);
        }
        if s.relayout_words > 0 {
            acc.add_movement(s.relayout_words as f64, bw);
        }
    }

    /// Plan-level measured MUE (D-weighted across every recorded step).
    #[must_use]
    pub fn plan_mue(&self) -> Mue {
        let mut acc = MueAccum::default();
        for s in self.steps() {
            self.accumulate(&mut acc, s);
        }
        acc.total()
    }

    /// Measured totals per operator class, in the audit's class order.
    #[must_use]
    pub fn per_class(&self) -> Vec<ClassProfile> {
        [
            OpClass::TensorContraction,
            OpClass::StatisticalNormalization,
            OpClass::Elementwise,
        ]
        .into_iter()
        .map(|class| {
            let mut acc = MueAccum::default();
            let (mut steps, mut time_us, mut moved_bytes) = (0usize, 0.0f64, 0u64);
            for s in self.steps().filter(|s| s.class == class) {
                steps += 1;
                time_us += s.time_us;
                moved_bytes += s.moved_bytes();
                self.accumulate(&mut acc, s);
            }
            ClassProfile {
                class,
                steps,
                time_us,
                moved_bytes,
                mue: acc.total(),
            }
        })
        .collect()
    }
}

/// Folds the [`ArenaArtifact::Timings`] of one timed arena run of `plan`
/// into `sink`: one step record per slot, charged the static byte account
/// of `graph`, and — for a wave-parallel run — one wave record per wave.
/// Any other artifact is ignored, so an arena sink can pass everything it
/// sees.
pub fn record_arena_timings(
    sink: &ProfilerSink,
    graph: &Graph,
    plan: &ExecutionPlan,
    artifact: &ArenaArtifact<'_>,
) {
    let &ArenaArtifact::Timings {
        step_us,
        waves,
        wave_us,
        workers,
        sanitized,
    } = artifact
    else {
        return;
    };
    let mut prof = sink
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let parallel = !wave_us.is_empty();
    for (w, wave) in waves.iter().enumerate() {
        for &si in wave {
            let tag = parallel.then_some(w);
            prof.record_step(graph, &plan.steps[si], si, tag, step_us[si], sanitized);
        }
        if parallel {
            prof.record_wave(w, wave, workers.min(wave.len()), wave_us[w]);
        }
    }
}

/// Profiles `reps` executions of a plan against clones of `base` on its
/// arena ([`crate::arena::execute`]), at `opts.threads`, merging per-step
/// (and per-wave) times by minimum. The sanitizer is forced off so timings
/// measure the kernels, not the poison sweeps; dropout and the other
/// scalar knobs follow `opts`.
///
/// # Errors
///
/// Returns an error if any execution fails.
pub fn profile_plan(
    graph: &Graph,
    plan: &ExecutionPlan,
    base: &ExecState,
    opts: &ExecOptions,
    reps: usize,
) -> Result<PlanProfiler> {
    let sink: ProfilerSink = Mutex::new(PlanProfiler::new());
    let run = opts
        .to_builder()
        .profiler(Some(&sink))
        .sanitize(SanitizeMode::Off)
        .build();
    for _ in 0..reps.max(1) {
        let mut state = base.clone();
        crate::arena::execute(graph, plan, &mut state, &run)?;
        std::hint::black_box(state.env.len());
    }
    Ok(sink
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner))
}

struct Anchor {
    time_us: f64,
    cfg: OpConfig,
}

/// A [`PerfSource`] that replays profiler-measured step timings into
/// configuration selection.
///
/// For each profiled operator the profiler observed exactly one
/// configuration — the one the plan declared (its *anchor*). The source
/// prices that anchor through the fallback once, then rescales every
/// other configuration's fallback estimate by
/// `measured_time / fallback_anchor_time`: the configuration that
/// actually ran reproduces its measured time exactly, and the rest keep
/// the fallback's *relative* cost structure under the measured absolute
/// scale. Operators the profiler never saw fall through to the fallback
/// unscaled.
pub struct ProfiledSource<'a> {
    anchors: HashMap<NodeId, Anchor>,
    anchor_price: Mutex<HashMap<NodeId, f64>>,
    fallback: &'a dyn PerfSource,
    name: String,
}

impl fmt::Debug for ProfiledSource<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProfiledSource")
            .field("anchors", &self.anchors.len())
            .field("fallback", &self.fallback.name())
            .finish()
    }
}

impl<'a> ProfiledSource<'a> {
    /// Builds the source from a profiled run of `plan`: every step with a
    /// recorded time and a derivable anchor configuration (see
    /// `crate::analyze`'s step-config convention) becomes an anchor.
    #[must_use]
    pub fn from_profile(
        graph: &Graph,
        plan: &ExecutionPlan,
        profiler: &PlanProfiler,
        fallback: &'a dyn PerfSource,
    ) -> Self {
        let mut anchors = HashMap::new();
        for (si, step) in plan.steps.iter().enumerate() {
            let Some(sp) = profiler.step(si) else {
                continue;
            };
            let Some(cfg) = crate::analyze::step_config(graph, step) else {
                continue;
            };
            anchors.insert(
                step.op,
                Anchor {
                    time_us: sp.time_us,
                    cfg,
                },
            );
        }
        ProfiledSource {
            anchors,
            anchor_price: Mutex::new(HashMap::new()),
            name: format!("profiled({})", fallback.name()),
            fallback,
        }
    }

    /// How many operators carry a measured anchor.
    #[must_use]
    pub fn anchored_ops(&self) -> usize {
        self.anchors.len()
    }
}

impl PerfSource for ProfiledSource<'_> {
    fn name(&self) -> &str {
        &self.name
    }

    fn measure(&self, graph: &Graph, op: NodeId, cfg: &OpConfig) -> Result<KernelCost> {
        let base = self.fallback.measure(graph, op, cfg)?;
        let Some(anchor) = self.anchors.get(&op) else {
            return Ok(base);
        };
        let anchor_us = {
            let cached = self
                .anchor_price
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .get(&op)
                .copied();
            match cached {
                Some(v) => v,
                None => {
                    let v = self.fallback.measure(graph, op, &anchor.cfg)?.time_us;
                    self.anchor_price
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .insert(op, v);
                    v
                }
            }
        };
        let scale = anchor.time_us / anchor_us.max(1e-9);
        Ok(KernelCost {
            time_us: (base.time_us * scale).max(1e-6),
            ..base
        })
    }
}

/// The outcome of profile-guided re-selection.
#[derive(Debug)]
pub struct Reselection {
    /// The selection computed from profiled timings.
    pub selection: Selection,
    /// The adopted plan: the re-selected plan when it measured no slower
    /// than the natural plan, the natural plan otherwise.
    pub plan: ExecutionPlan,
    /// Profile of the natural plan (the measurement that drove selection).
    pub natural: PlanProfiler,
    /// Profile of the re-selected candidate plan.
    pub reselected: PlanProfiler,
    /// Whether the candidate was adopted.
    pub adopted: bool,
}

impl Reselection {
    /// Measured total of the natural plan, µs.
    #[must_use]
    pub fn natural_us(&self) -> f64 {
        self.natural.total_time_us()
    }

    /// Measured total of the re-selected candidate, µs.
    #[must_use]
    pub fn reselected_us(&self) -> f64 {
        self.reselected.total_time_us()
    }

    /// Measured total of the adopted plan, µs — by construction never
    /// worse than [`Reselection::natural_us`].
    #[must_use]
    pub fn best_us(&self) -> f64 {
        self.natural_us().min(self.reselected_us())
    }

    /// Measured improvement of the adopted plan over the natural plan, %.
    #[must_use]
    pub fn improvement_pct(&self) -> f64 {
        let n = self.natural_us();
        if n <= 0.0 {
            return 0.0;
        }
        (n - self.best_us()) / n * 100.0
    }
}

/// Profile-guided re-selection: profiles the natural plan on this host,
/// re-runs SSSP configuration selection with a [`ProfiledSource`] wrapping
/// `fallback`, lowers and profiles the selected candidate on the same
/// inputs, and adopts whichever plan measured faster (so the result's
/// measured total is never worse than the natural plan's). Both sides run
/// on the arena, so the duel compares layouts, not executors.
///
/// `fwd_ops` are the forward operators to select over (execution order);
/// `reps` runs are merged by minimum per step; `seed` fixes the random
/// externals both plans execute against.
///
/// # Errors
///
/// Returns an error if profiling, the sweep, selection, or lowering fails.
#[allow(clippy::too_many_arguments)]
pub fn reselect(
    graph: &Graph,
    natural_plan: &ExecutionPlan,
    fwd_ops: &[NodeId],
    device: &DeviceSpec,
    fallback: &dyn PerfSource,
    sweep: SweepOptions,
    opts: &ExecOptions,
    reps: usize,
    seed: u64,
) -> Result<Reselection> {
    reselect_cost(
        graph,
        natural_plan,
        fwd_ops,
        device,
        fallback,
        sweep,
        opts,
        reps,
        seed,
        &CostModel::Flat,
    )
}

/// [`reselect`] under an explicit [`CostModel`]: with
/// [`CostModel::CacheAware`] the re-run SSSP prices each layout pair's
/// predicted extra DRAM words into its edge weight, so the candidate plan
/// prefers cache-resident layouts before it is ever profiled. The
/// adoption duel is unchanged — the result is still never worse than the
/// natural plan on this host.
///
/// # Errors
///
/// Same conditions as [`reselect`].
#[allow(clippy::too_many_arguments)]
pub fn reselect_cost(
    graph: &Graph,
    natural_plan: &ExecutionPlan,
    fwd_ops: &[NodeId],
    device: &DeviceSpec,
    fallback: &dyn PerfSource,
    sweep: SweepOptions,
    opts: &ExecOptions,
    reps: usize,
    seed: u64,
    cost_model: &CostModel,
) -> Result<Reselection> {
    let base = random_externals(graph, natural_plan, seed)?;
    let natural = profile_plan(graph, natural_plan, &base, opts, reps)?;
    if natural.steps().count() == 0 {
        return Err(TensorError::Unsupported(
            "profile-guided re-selection needs a non-empty profiled plan".into(),
        ));
    }
    let source = ProfiledSource::from_profile(graph, natural_plan, &natural, fallback);
    let sweeps = sweep_all(&source, graph, sweep)?;
    let selection = select_forward_cost(graph, device, fwd_ops, &sweeps, None, cost_model)?;
    let candidate = ExecutionPlan::lower(graph, &selection)?;
    let cbase = random_externals(graph, &candidate, seed)?;
    let reselected = profile_plan(graph, &candidate, &cbase, opts, reps)?;
    let adopted = reselected.total_time_us() <= natural.total_time_us();
    let plan = if adopted {
        candidate
    } else {
        natural_plan.clone()
    };
    Ok(Reselection {
        selection,
        plan,
        natural,
        reselected,
        adopted,
    })
}

/// A counting wrapper around the system allocator, for certifying the
/// arena interpreter's zero-allocation steady state (`tests/
/// alloc_discipline.rs`, `repro profile --check`). Install as the global
/// allocator and diff [`CountingAlloc::allocations`] around the region
/// under test:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: CountingAlloc = CountingAlloc::new();
/// let before = ALLOC.allocations();
/// // ... steady-state calls ...
/// assert_eq!(ALLOC.allocations() - before, 0);
/// ```
///
/// Counters are process-wide and relaxed: they order with nothing, so
/// measure single-threaded regions (background threads parked in a
/// condvar wait, as the arena's worker pool keeps them, do not
/// allocate).
#[derive(Debug)]
pub struct CountingAlloc {
    allocs: std::sync::atomic::AtomicU64,
    deallocs: std::sync::atomic::AtomicU64,
    reallocs: std::sync::atomic::AtomicU64,
    bytes: std::sync::atomic::AtomicU64,
}

impl CountingAlloc {
    /// A fresh counter set (usable in `static` position).
    pub const fn new() -> Self {
        use std::sync::atomic::AtomicU64;
        CountingAlloc {
            allocs: AtomicU64::new(0),
            deallocs: AtomicU64::new(0),
            reallocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Heap acquisitions so far: `alloc` + `alloc_zeroed` calls.
    pub fn allocations(&self) -> u64 {
        self.allocs.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// `dealloc` calls so far.
    pub fn deallocations(&self) -> u64 {
        self.deallocs.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// `realloc` calls so far (counted separately from acquisitions).
    pub fn reallocations(&self) -> u64 {
        self.reallocs.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Bytes acquired so far (alloc + alloc_zeroed + realloc growth).
    pub fn bytes_allocated(&self) -> u64 {
        self.bytes.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Every heap event so far — the number that must not move across a
    /// zero-allocation region.
    pub fn events(&self) -> u64 {
        self.allocations() + self.deallocations() + self.reallocations()
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: defers every operation to `System`, only bumping counters.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        use std::sync::atomic::Ordering::Relaxed;
        self.allocs.fetch_add(1, Relaxed);
        self.bytes.fetch_add(layout.size() as u64, Relaxed);
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        use std::sync::atomic::Ordering::Relaxed;
        self.allocs.fetch_add(1, Relaxed);
        self.bytes.fetch_add(layout.size() as u64, Relaxed);
        unsafe { std::alloc::System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        use std::sync::atomic::Ordering::Relaxed;
        self.deallocs.fetch_add(1, Relaxed);
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        use std::sync::atomic::Ordering::Relaxed;
        self.reallocs.fetch_add(1, Relaxed);
        self.bytes
            .fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::{apply_plan, encoder_fusion_plan};
    use crate::recipe::forward_ops;
    use crate::sweep::SimulatorSource;
    use xform_dataflow::{build, EncoderDims};

    fn fused_plan() -> (Graph, ExecutionPlan, Vec<NodeId>) {
        let eg = build::encoder(&EncoderDims::tiny());
        let mut g = eg.graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        let fwd = forward_ops(&g, eg.dy);
        let plan = ExecutionPlan::natural(&g, &fwd).unwrap();
        (g, plan, fwd)
    }

    #[test]
    fn profiler_records_every_step_with_positive_time_and_bytes() {
        let (g, plan, _) = fused_plan();
        let base = random_externals(&g, &plan, 3).unwrap();
        let prof = profile_plan(&g, &plan, &base, &ExecOptions::default(), 2).unwrap();
        assert_eq!(prof.steps().count(), plan.steps.len());
        for s in prof.steps() {
            assert!(s.time_us > 0.0, "step {} has no time", s.step);
            assert!(s.moved_bytes() > 0, "step {} moved nothing", s.step);
            assert_eq!(s.runs, 2);
            assert!(!s.sanitized);
            let m = prof.measured_mue(s);
            assert!(
                m.value > 0.0 && m.value <= 100.0,
                "MUE {} out of range",
                m.value
            );
        }
        assert!(prof.total_time_us() > 0.0);
        assert!(prof.plan_mue().value > 0.0);
    }

    #[test]
    fn parallel_profile_records_every_wave() {
        let (g, plan, _) = fused_plan();
        let waves = crate::analyze::analyze(&g, &plan).parallel_waves();
        let base = random_externals(&g, &plan, 3).unwrap();
        let opts = ExecOptions::builder().threads(4).build();
        let prof = profile_plan(&g, &plan, &base, &opts, 2).unwrap();
        assert_eq!(prof.waves().count(), waves.len());
        let covered: usize = prof.waves().map(|w| w.steps.len()).sum();
        assert_eq!(covered, plan.steps.len());
        for s in prof.steps() {
            assert!(s.wave.is_some(), "parallel profile must tag waves");
        }
    }

    #[test]
    fn profiled_source_reproduces_anchor_timings_and_scales_others() {
        let (g, plan, _) = fused_plan();
        let base = random_externals(&g, &plan, 3).unwrap();
        let prof = profile_plan(&g, &plan, &base, &ExecOptions::default(), 2).unwrap();
        let sim = SimulatorSource::default();
        let src = ProfiledSource::from_profile(&g, &plan, &prof, &sim);
        assert!(src.anchored_ops() > 0);
        for (si, step) in plan.steps.iter().enumerate() {
            let Some(cfg) = crate::analyze::step_config(&g, step) else {
                continue;
            };
            let sp = prof.step(si).unwrap();
            let priced = src.measure(&g, step.op, &cfg).unwrap();
            let rel = (priced.time_us - sp.time_us).abs() / sp.time_us.max(1e-9);
            assert!(
                rel < 1e-6,
                "anchor config must reproduce its measured time: {} vs {}",
                priced.time_us,
                sp.time_us
            );
        }
    }

    #[test]
    fn reselection_is_never_worse_than_natural_by_construction() {
        let (g, plan, fwd) = fused_plan();
        let sim = SimulatorSource::default();
        let r = reselect(
            &g,
            &plan,
            &fwd,
            &DeviceSpec::v100(),
            &sim,
            SweepOptions {
                max_configs: Some(16),
                threads: 1,
            },
            &ExecOptions::default(),
            2,
            7,
        )
        .unwrap();
        assert!(r.best_us() <= r.natural_us() + 1e-9);
        assert!(r.improvement_pct() >= -1e-9);
        if r.adopted {
            assert!((r.best_us() - r.reselected_us()).abs() < 1e-9);
        }
    }
}
