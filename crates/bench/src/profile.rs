//! `repro profile`: runtime plan profiling and profile-guided re-selection,
//! end to end — one collection pass, rendered as the full report, as the
//! `--check` gate or as the `--json` mirror.
//!
//! Every profile is taken by `xform_core::profile::profile_plan`, which
//! observes the arena that serves `forward`. The pass measures:
//!
//! * the six canned plans at small profile dims (the fused and epilogue
//!   encoder and decoder, the decode project and attend steps), serially:
//!   per step the measured time, the bytes the step moves (identical to
//!   `xform_core::analyze::audit`'s accounting), achieved bandwidth and
//!   measured vs static MUE, Table-III style, then per-class totals;
//! * the unfused reference encoder at 4 threads, which must record every
//!   wave of its race certificate, and some wave of more than one step (its
//!   waves are up to three wide: the pool dispatches them);
//! * each element-wise-fused plan against its GEMM-epilogue twin on two
//!   traffic shapes, the second sequence-dominant: the epilogue plan must
//!   move strictly fewer measured bytes;
//! * the arena's steady-state heap discipline, under the counting global
//!   allocator `repro` installs: slab/scratch/stats bytes of the one arena
//!   and heap events across warm `forward_into` calls — zero for the fused
//!   and the epilogue encoder, at 1 and 4 threads — and the same for
//!   a streaming decode session's steps;
//! * the static cache model (`xform_core::cachemodel`) against the
//!   profiler: on fused-encoder shapes sized so the softmax interim and the
//!   layernorm lanes each occupy ~3× the validation hierarchy's LLC, the
//!   predicted DRAM bytes must bracket the footprint-checked measured bytes
//!   within 30%;
//! * profile-guided re-selection: re-run SSSP selection from the measured
//!   timings (`xform_core::profile::ProfiledSource`) under the cache-aware
//!   cost model and keep the natural plan unless the candidate measures no
//!   worse.
//!
//! `--check` exits non-zero unless every one of those gates holds — CI
//! runs it to keep the profiler (and the arena's zero-allocation claim)
//! honest. `--json` writes `BENCH_plan_profile.json`, the byte and count
//! accounts only, so two runs write the same bytes: whole-plan wall clock
//! at these dimensions is the benchmark's business (`benchmark/`), not
//! this mirror's.

use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xform_core::analyze::audit;
use xform_core::analyze::ArenaGranularity;
use xform_core::arena;
use xform_core::cachemodel::{trace_plan, CacheGeometry};
use xform_core::cpusource::CpuSource;
use xform_core::fusion::{apply_plan, encoder_fusion_plan};
use xform_core::plan::{random_externals, ExecOptions, ExecutionPlan};
use xform_core::profile::{profile_plan, reselect_cost, CountingAlloc, PlanProfiler, Reselection};
use xform_core::recipe::forward_ops;
use xform_core::selection::CostModel;
use xform_core::sweep::SweepOptions;
use xform_dataflow::{build, EncoderDims, Graph, OpClass};
use xform_gpusim::DeviceSpec;
use xform_tensor::{Shape, Tensor};
use xform_transformer::decode::{DecodeOptions, DecodeSession, Sampling};
use xform_transformer::encoder::{EncoderLayer, Executor};
use xform_transformer::interp::{self, PlanKind};
use xform_transformer::model::{BlockKind, ModelConfig, TransformerModel};
use xform_transformer::params::EncoderWeights;

use crate::cli::{Flags, CHECK, JSON};
use crate::{jstr, Res};

const REPS: usize = 5;
const STEADY_CALLS: usize = 20;
/// Threads of the wave-parallel profile.
const PAR_THREADS: usize = 4;

/// Relative tolerance for the predicted-vs-measured DRAM-byte gate: on
/// shapes whose per-step working sets dwarf the hierarchy, the cache
/// model's predicted DRAM traffic must land within 30% of the profiler's
/// measured byte account.
const DRAM_VALIDATION_TOL: f64 = 0.30;

/// Reference hierarchy the DRAM cross-validation sizes its shapes
/// against, unless `XFORM_CACHE_GEOM` overrides it. Deliberately compact —
/// the validation shapes are sized to ~3× its LLC so every lane misses by
/// footprint alone, and a small LLC keeps those shapes cheap on CI.
const VALIDATION_GEOM: &str = "16k:64:4,128k:64:8,512k:64:16";

/// The canned plans profiled at the profile dims, in mirror order; the
/// first four are the fused/epilogue twins of the duels.
const PLANS: [(&str, PlanKind); 6] = [
    ("encoder-fused", PlanKind::EncoderFused),
    ("encoder-epilogue", PlanKind::EncoderEpilogue),
    ("decoder-fused", PlanKind::DecoderFused),
    ("decoder-epilogue", PlanKind::DecoderEpilogue),
    ("decoder-step-project", PlanKind::DecoderStepProject),
    ("decoder-step", PlanKind::DecoderStep),
];

/// The profile dims: small enough that every plan runs in microseconds.
fn dims() -> EncoderDims {
    EncoderDims {
        b: 2,
        j: 24,
        k: 24,
        h: 2,
        p: 8,
        i: 16,
        u: 32,
    }
}

/// One canned plan's serial profile.
struct Profiled {
    key: &'static str,
    steps: usize,
    prof: PlanProfiler,
}

/// Profiles the canned plan `kind` at `dims`, serially, under default
/// options: what the plan computes is its graph's.
fn profile_canned(key: &'static str, dims: &EncoderDims, kind: PlanKind) -> Res<Profiled> {
    let pf = interp::cached_plan(dims, kind)?;
    let base = random_externals(&pf.graph, &pf.plan, 11)?;
    let prof = profile_plan(&pf.graph, &pf.plan, &base, &ExecOptions::default(), REPS)?;
    let steps = pf.plan.steps.len();
    Ok(Profiled { key, steps, prof })
}

struct ArenaRow {
    plan: &'static str,
    tag: &'static str,
    threads: usize,
    slab_bytes: usize,
    scratch_bytes: usize,
    record_bytes: usize,
    /// Heap events (alloc + dealloc + realloc) across `STEADY_CALLS`
    /// post-warmup `forward_into` calls. Must be zero.
    events: u64,
}

/// Runs an encoder executor through the zero-allocation arena entry
/// point at 1 and at [`PAR_THREADS`] threads and measures steady-state heap
/// traffic; a row's `tag` names the thread count (`serial` or `waves`).
fn arena_rows(
    alloc: &CountingAlloc,
    plan: &'static str,
    executor: Executor,
    kind: PlanKind,
) -> Res<Vec<ArenaRow>> {
    let dims = dims();
    let mut rng = StdRng::seed_from_u64(3);
    let w = EncoderWeights::init(&dims, &mut rng);
    let shape = Shape::from_spec("ibj", &dims.size_table())?;
    let x = Tensor::random(shape.clone(), &Uniform::new(-1.0, 1.0), &mut rng);
    let (layer, mut y) = (EncoderLayer::new(dims, executor, 0.0), Tensor::zeros(shape));
    let mut rows = Vec::new();
    for (tag, threads) in [("serial", 1usize), ("waves", PAR_THREADS)] {
        let opts = ExecOptions::builder().threads(threads).seed(7).build();
        let arena = interp::cached_arena(&dims, kind, ArenaGranularity::Serial)?
            .ok_or("arena did not compile for the encoder plan")?;
        // warmup: plan + arena caches, worker pool, env-var resolution
        layer.forward_into(&x, &w, &opts, &mut y)?;
        layer.forward_into(&x, &w, &opts, &mut y)?;
        let before = alloc.events();
        for _ in 0..STEADY_CALLS {
            layer.forward_into(&x, &w, &opts, &mut y)?;
        }
        rows.push(ArenaRow {
            plan,
            tag,
            threads,
            slab_bytes: arena.slab_bytes(),
            scratch_bytes: arena.scratch_words() * 4,
            record_bytes: arena.record_words() * 4,
            events: alloc.events() - before,
        });
    }
    Ok(rows)
}

/// One predicted-vs-measured DRAM row of the cache-model
/// cross-validation.
struct DramRow {
    shape: String,
    step: String,
    predicted_bytes: u64,
    measured_bytes: u64,
    time_us: f64,
    /// Whether the measured traffic dwarfs the LLC (at least 4×), so the
    /// row is held to the tolerance.
    gated: bool,
}

impl DramRow {
    fn ratio(&self) -> f64 {
        self.predicted_bytes as f64 / self.measured_bytes.max(1) as f64
    }
}

/// Cross-validates the static cache model against the runtime profiler
/// on the memory-bound normalization steps (softmax, layernorm): two
/// fused-encoder shapes are sized so the softmax interim (resp. the
/// layernorm lanes) occupy ~3× the validation LLC — every reference then
/// misses by footprint alone, predicted DRAM converges to the flat byte
/// account, and the profiler's footprint-checked measured bytes must
/// bracket it within [`DRAM_VALIDATION_TOL`]. Steps whose traffic does
/// not dwarf the hierarchy (at least 4× the LLC) are reported but not
/// gated: residency makes their DRAM traffic legitimately smaller than
/// their byte account.
///
/// The schedule is the fused encoder with `SM` a step of its own — the
/// fusion table applied and nothing else, as every recipe-lowered plan runs
/// it: the canned plan keeps the softmax inside its attention region, where
/// it has no bytes to account.
fn dram_rows(geom: &CacheGeometry) -> Res<(Vec<DramRow>, u64)> {
    let llc = geom.largest_bytes().max(64 * 1024);
    // target words per lane footprint: 3× LLC at 4-byte words
    let target = (3 * llc / 4) as f64;
    // softmax interim is b·h·j·k words (b = h = 2, k = j): 4j² ≥ target
    let j = (target / 4.0).sqrt().ceil() as usize;
    // layernorm lanes are b·j·i words (i = h·p): grow the batch
    let (lj, li) = (64usize, 128usize);
    let lb = (target / (lj * li) as f64).ceil() as usize;
    let shapes = [
        (
            format!("softmax-bound j={j}"),
            EncoderDims { j, k: j, ..dims() },
        ),
        (
            format!("layernorm-bound b={lb}"),
            EncoderDims {
                b: lb,
                j: lj,
                k: lj,
                h: 2,
                p: 64,
                i: li,
                u: 32,
            },
        ),
    ];
    let mut rows = Vec::new();
    for (tag, d) in shapes {
        let eg = build::encoder(&d);
        let mut graph = eg.graph;
        apply_plan(&mut graph, &encoder_fusion_plan())?;
        let plan = ExecutionPlan::natural(&graph, &forward_ops(&graph, eg.dy))?;
        let base = random_externals(&graph, &plan, 11)?;
        let prof = profile_plan(&graph, &plan, &base, &ExecOptions::default(), REPS)?;
        let traffic = trace_plan(&graph, &plan, geom, 4);
        for s in prof
            .steps()
            .filter(|s| s.account.class == OpClass::StatisticalNormalization)
        {
            rows.push(DramRow {
                shape: tag.clone(),
                step: s.account.name.clone(),
                predicted_bytes: traffic.per_step[s.account.step].dram_words() * 4,
                measured_bytes: s.moved_bytes(),
                time_us: s.time_us,
                gated: s.moved_bytes() >= 4 * llc,
            });
        }
    }
    Ok((rows, llc))
}

fn class_tag(c: OpClass) -> &'static str {
    match c {
        OpClass::TensorContraction => "tc",
        OpClass::StatisticalNormalization => "norm",
        OpClass::Elementwise => "elem",
    }
}

/// Profile-guided re-selection under the cache-aware cost model: SSSP
/// edge weights carry the predicted DRAM overfetch of each candidate
/// layout under the modelled device's hierarchy, so the selection
/// prefers cache-resident layouts. The adoption duel downstream still
/// measures both plans and keeps the natural one unless the re-selected
/// plan is measurably no worse.
fn reselection(graph: &Graph, plan: &ExecutionPlan) -> xform_tensor::Result<Reselection> {
    let fwd: Vec<_> = plan.steps.iter().map(|s| s.op).collect();
    let device = DeviceSpec::v100();
    let cost = CostModel::CacheAware(CacheGeometry::for_device(&device));
    let sweep = SweepOptions {
        max_configs: Some(48),
        ..SweepOptions::default()
    };
    let (opts, fallback) = (ExecOptions::default(), CpuSource::new(2));
    reselect_cost(
        graph, plan, &fwd, &device, &fallback, sweep, &opts, REPS, 11, &cost,
    )
}

/// The streaming decode session's heap discipline and footprint.
struct Decode {
    /// Prompt tokens across the batch.
    prompt_tokens: usize,
    /// Measured decode steps (each yields `batch` tokens).
    steps: usize,
    batch: usize,
    /// The session's cache bucket, the attend step's key count.
    capacity: usize,
    /// Heap events per decoded step across the measured window.
    allocs_per_step: f64,
    /// Resident arena bytes (cache slabs + projection arena).
    resident_bytes: usize,
}

/// Runs streaming decode on a small decoder stack at the profile dims:
/// prefill, two warm steps, then heap events over a window of steps that
/// stays inside one cache bucket.
fn decode(alloc: &CountingAlloc) -> Res<Decode> {
    const PROMPT: usize = 4;
    const STEPS: usize = 16;
    let d = dims();
    let cfg = ModelConfig {
        dims: d,
        layers: 2,
        vocab: 32,
        block: BlockKind::Decoder,
        dropout_p: 0.0,
    };
    let mut rng = StdRng::seed_from_u64(17);
    let model = TransformerModel::init(cfg, &mut rng)?;
    let prompt: Vec<Vec<usize>> = (0..d.b)
        .map(|b| (0..PROMPT).map(|j| (b * 7 + j * 3) % cfg.vocab).collect())
        .collect();
    let mut sess = DecodeSession::new(&model, DecodeOptions::default())?;
    sess.prefill(&prompt)?;
    let sampling = Sampling::Temperature {
        temperature: 0.9,
        top_k: Some(8),
    };
    let mut tokens = vec![0usize; d.b];
    for _ in 0..2 {
        sess.sample(sampling, &mut tokens)?;
        sess.advance(&tokens)?;
    }
    if sess.len() + STEPS > sess.capacity() || sess.len() + STEPS > d.j {
        return Err("the measured decode window must stay inside one bucket".into());
    }
    let before = alloc.events();
    for _ in 0..STEPS {
        sess.sample(sampling, &mut tokens)?;
        sess.advance(&tokens)?;
    }
    Ok(Decode {
        prompt_tokens: PROMPT * d.b,
        steps: STEPS,
        batch: d.b,
        capacity: sess.capacity(),
        allocs_per_step: (alloc.events() - before) as f64 / STEPS as f64,
        resident_bytes: sess.resident_bytes(),
    })
}

/// Everything one profile run measures.
struct Collected {
    /// [`PLANS`] at the profile dims (the attend step over the decode
    /// session's bucket), serially.
    plans: Vec<Profiled>,
    /// The four fused/epilogue twins at a sequence-dominant shape.
    long: Vec<Profiled>,
    /// The unfused reference encoder at [`PAR_THREADS`] threads.
    parallel: PlanProfiler,
    /// The waves of the certificate of the arena the parallel profile ran
    /// on.
    waves: Vec<Vec<usize>>,
    arena: Vec<ArenaRow>,
    decode: Decode,
    dram: Vec<DramRow>,
    llc: u64,
    reselection: Reselection,
}

impl Collected {
    fn collect(geom: &CacheGeometry, alloc: &CountingAlloc) -> Res<Collected> {
        let d = dims();
        let decode = decode(alloc)?;
        let plans = (PLANS.iter())
            .map(|&(key, kind)| {
                let at = match kind {
                    PlanKind::DecoderStepProject => EncoderDims { j: 1, k: 1, ..d },
                    PlanKind::DecoderStep => EncoderDims {
                        j: 1,
                        k: decode.capacity,
                        ..d
                    },
                    _ => d,
                };
                profile_canned(key, &at, kind)
            })
            .collect::<Res<_>>()?;
        let seq = EncoderDims { j: 96, k: 96, ..d };
        let long = (PLANS[..4].iter())
            .map(|&(key, kind)| profile_canned(key, &seq, kind))
            .collect::<Res<_>>()?;
        // a plan with multi-step waves, so the pool has something to run
        let par = interp::cached_plan(&d, PlanKind::EncoderReference)?;
        let base = random_externals(&par.graph, &par.plan, 11)?;
        let par_opts = ExecOptions::builder().threads(PAR_THREADS).build();
        let parallel = profile_plan(&par.graph, &par.plan, &base, &par_opts, REPS)?;
        // the arena the parallel profile ran on, and its certificate
        let ran_on = arena::compiled(&par.graph, &par.plan)?;
        let pf = interp::cached_plan(&d, PlanKind::EncoderFused)?;
        let mut arena = arena_rows(alloc, "fused", Executor::Fused, PlanKind::EncoderFused)?;
        let epilogue = (Executor::Epilogue, PlanKind::EncoderEpilogue);
        arena.extend(arena_rows(alloc, "epilogue", epilogue.0, epilogue.1)?);
        let (dram, llc) = dram_rows(geom)?;
        Ok(Collected {
            plans,
            long,
            parallel,
            waves: ran_on.certificate().waves.clone(),
            arena,
            decode,
            dram,
            llc,
            reselection: reselection(&pf.graph, &pf.plan)?,
        })
    }

    /// The fused/epilogue twins, pairwise, with their shape: both
    /// families at the profile dims, then at the sequence-dominant shape.
    fn duels(&self) -> impl Iterator<Item = (String, &Profiled, &Profiled)> {
        let sets = [("j=24", &self.plans[..4]), ("j=96", &self.long[..])];
        sets.into_iter().flat_map(|(tag, set)| {
            set.chunks(2).map(move |twins| {
                let family = twins[0].key.split('-').next().unwrap_or_default();
                (format!("{family} {tag}"), &twins[0], &twins[1])
            })
        })
    }

    /// Every violated gate, described.
    fn failures(&self) -> Vec<String> {
        let enc = &self.plans[0];
        let mut bad = check_profile("serial", &enc.prof, enc.steps);
        let par_steps = self.waves.iter().map(Vec::len).sum();
        bad.extend(check_profile("parallel", &self.parallel, par_steps));
        if self.parallel.waves().count() != self.waves.len() {
            bad.push(format!(
                "parallel: profiled {} of {} waves",
                self.parallel.waves().count(),
                self.waves.len()
            ));
        }
        // the leg exists to reach the pool; a worker count is no gate (a
        // one-vCPU host has no worker)
        if self.parallel.waves().all(|w| w.steps.len() < 2) {
            bad.push("parallel: no profiled wave holds more than one step".into());
        }
        let r = &self.reselection;
        if r.best_us() > r.natural_us() {
            bad.push(format!(
                "re-selection: adopted {:.1} µs is worse than natural {:.1} µs",
                r.best_us(),
                r.natural_us()
            ));
        }
        // the arena's zero-allocation steady state is a hard gate — for the
        // element-wise-fused plan AND the epilogue mega-kernel plan
        for row in self.arena.iter().filter(|r| r.events != 0) {
            bad.push(format!(
                "arena ({}, {}, {} threads): {} heap event(s) across {STEADY_CALLS} \
                 steady-state forward_into calls (must be 0)",
                row.plan, row.tag, row.threads, row.events
            ));
        }
        // the GEMM epilogues' gate: on every profiled traffic shape the
        // epilogue plan moves strictly fewer measured bytes — a
        // deterministic account
        for (shape, unfused, epilogue) in self.duels() {
            let (u, e) = (unfused.prof.total_bytes(), epilogue.prof.total_bytes());
            if e >= u {
                bad.push(format!(
                    "epilogue duel ({shape}): measured {e} bytes, not below the unfused plan's {u}"
                ));
            }
        }
        // the streaming decode gates: zero heap events per steady-state
        // step and a sane measured MUE for the attend-step plan
        if self.decode.allocs_per_step != 0.0 {
            bad.push(format!(
                "decode: {:.2} heap event(s) per steady-state step (must be 0)",
                self.decode.allocs_per_step
            ));
        }
        let step_mue = self.plans[5].prof.plan_mue().value;
        if !(step_mue > 0.0 && step_mue <= 100.0) {
            bad.push(format!(
                "decode: attend-step measured MUE {step_mue} outside (0, 100]"
            ));
        }
        // the cache model's empirical gate: on the LLC-busting validation
        // shapes, predicted DRAM bytes must bracket the profiler's measured
        // byte account within tolerance on both memory-bound normalization
        // classes (softmax and layernorm)
        let gated: Vec<&DramRow> = self.dram.iter().filter(|r| r.gated).collect();
        for r in &gated {
            if (r.ratio() - 1.0).abs() > DRAM_VALIDATION_TOL {
                bad.push(format!(
                    "dram validation ({}, {}): predicted {} bytes vs measured {} \
                     (ratio {:.2}, tolerance ±{DRAM_VALIDATION_TOL})",
                    r.shape,
                    r.step,
                    r.predicted_bytes,
                    r.measured_bytes,
                    r.ratio()
                ));
            }
        }
        for (class, hit) in [
            ("softmax", gated.iter().any(|r| r.step == "SM")),
            ("layernorm", gated.iter().any(|r| r.step.contains("LN"))),
        ] {
            if !hit {
                bad.push(format!(
                    "dram validation: no LLC-busting {class}-class step was gated \
                     ({} gated rows of {})",
                    gated.len(),
                    self.dram.len()
                ));
            }
        }
        bad
    }

    /// The full report.
    fn print(&self) -> Res<()> {
        let d = dims();
        let enc = &self.plans[0];
        let prof = &enc.prof;
        println!(
            "runtime profile of the fused encoder plan, dims i={} j={} b={} h={} p={} u={} \
             ({REPS} reps, min per step)",
            d.i, d.j, d.b, d.h, d.p, d.u
        );
        let pf = interp::cached_plan(&d, PlanKind::EncoderFused)?;
        let static_audit = audit(&pf.graph, &pf.plan, &DeviceSpec::v100());
        println!(
            "\nhost peak bandwidth {:.2} GB/s (calibrated); measured vs static MUE per step:",
            prof.peak_bytes_per_us * 1e6 / 1e9
        );
        println!(
            "  {:>4}  {:<26} {:>5} {:>9} {:>9} {:>8} {:>5} {:>8} {:>8}",
            "step", "kernel", "class", "time µs", "KiB", "GB/s", "bw%", "MUE", "static"
        );
        for s in prof.steps() {
            let m = prof.measured_mue(s);
            let st = static_audit
                .per_step
                .get(s.account.step)
                .and_then(|a| a.mue.as_ref())
                .map_or_else(|| "—".into(), |m| format!("{:8.1}", m.value));
            println!(
                "  {:>4}  {:<26} {:>5} {:>9.1} {:>9.1} {:>8.2} {:>5.1} {:>8.1} {:>8}",
                s.account.step,
                s.account.name,
                class_tag(s.account.class),
                s.time_us,
                s.moved_bytes() as f64 / 1024.0,
                s.achieved_bytes_per_us() * 1e6 / 1e9,
                m.bandwidth_frac * 100.0,
                m.value,
                st,
            );
        }
        println!(
            "\nplan totals: {:.1} µs summed, {:.1} KiB moved, measured MUE {:.1} \
             (static MUE {:.1} over {} modelled steps)",
            prof.total_time_us(),
            prof.total_bytes() as f64 / 1024.0,
            prof.plan_mue().value,
            static_audit.plan_mue.value,
            static_audit.modelled_steps,
        );
        println!("\nper-class totals (measured):");
        for c in prof.per_class() {
            println!(
                "  {:<5} {:>2} steps  {:>9.1} µs  {:>9.1} KiB  MUE {:>5.1}",
                class_tag(c.class),
                c.steps,
                c.time_us,
                c.moved_bytes as f64 / 1024.0,
                c.mue.value,
            );
        }
        println!(
            "\nwave-parallel at {PAR_THREADS} threads: {} of {} certified waves profiled, \
             widest {} steps",
            self.parallel.waves().count(),
            self.waves.len(),
            self.parallel
                .waves()
                .map(|w| w.steps.len())
                .max()
                .unwrap_or(0),
        );

        println!("\nGEMM-epilogue mega-kernels vs element-wise fusion (measured, 1 thread):");
        println!(
            "  {:<14} {:>12} {:>12} {:>9}",
            "shape", "unfused KiB", "epilogue KiB", "MUE"
        );
        for (shape, u, e) in self.duels() {
            println!(
                "  {:<14} {:>12.1} {:>12.1} {:>4.1}→{:<4.1}",
                shape,
                u.prof.total_bytes() as f64 / 1024.0,
                e.prof.total_bytes() as f64 / 1024.0,
                u.prof.plan_mue().value,
                e.prof.plan_mue().value,
            );
        }

        let dc = &self.decode;
        println!(
            "\nstreaming decode (prompt {} tokens, {} steady-state steps × batch {}):",
            dc.prompt_tokens, dc.steps, dc.batch
        );
        println!(
            "  resident {:>9.1} KiB arena slabs, {:.2} allocs/step, \
             attend-step measured MUE {:.1} (cache capacity {})",
            dc.resident_bytes as f64 / 1024.0,
            dc.allocs_per_step,
            self.plans[5].prof.plan_mue().value,
            dc.capacity,
        );

        println!(
            "\ncache-model DRAM cross-validation (LLC {:.0} KiB, gate ±{:.0}% where measured ≥ 4× LLC):",
            self.llc as f64 / 1024.0,
            DRAM_VALIDATION_TOL * 100.0
        );
        println!(
            "  {:<22} {:<8} {:>14} {:>13} {:>9} {:>7}",
            "shape", "step", "predicted KiB", "measured KiB", "time µs", "ratio"
        );
        for r in &self.dram {
            println!(
                "  {:<22} {:<8} {:>14.1} {:>13.1} {:>9.1} {:>6.2}{}",
                r.shape,
                r.step,
                r.predicted_bytes as f64 / 1024.0,
                r.measured_bytes as f64 / 1024.0,
                r.time_us,
                r.ratio(),
                if r.gated { "" } else { "  (resident, ungated)" },
            );
        }

        println!("\narena execution (encoder, zero-allocation steady state):");
        println!(
            "  {:<8} {:<7} {:>7} {:>9} {:>11} {:>10} {:>12}",
            "plan", "granul.", "threads", "slab KiB", "scratch KiB", "record KiB", "allocs/call"
        );
        for r in &self.arena {
            println!(
                "  {:<8} {:<7} {:>7} {:>9.1} {:>11.1} {:>10.1} {:>12.2}",
                r.plan,
                r.tag,
                r.threads,
                r.slab_bytes as f64 / 1024.0,
                r.scratch_bytes as f64 / 1024.0,
                r.record_bytes as f64 / 1024.0,
                r.events as f64 / STEADY_CALLS as f64,
            );
        }

        let r = &self.reselection;
        println!("\nprofile-guided re-selection (CPU-measured fallback, sweep ≤48 configs/op):");
        println!("  natural plan     {:>9.1} µs measured", r.natural_us());
        println!(
            "  re-selected plan {:>9.1} µs measured on the same arena ({} relayouts; {} transposes, {:.1} µs modeled)",
            r.reselected_us(),
            r.reselected.steps().filter(|s| s.account.relayout_words > 0).count(),
            r.selection.transposes,
            r.selection.total_us,
        );
        println!(
            "  adopted: {} — measured improvement {:.1}% (total {:.1} µs, never worse than natural)",
            if r.adopted { "re-selected" } else { "natural" },
            r.improvement_pct(),
            r.best_us(),
        );
        Ok(())
    }

    /// `BENCH_plan_profile.json`: per plan the steps and the measured bytes
    /// per class, the arena's slab/scratch/stats bytes and allocations per
    /// call, the duels' bytes, the decode session's heap events and
    /// footprint, and the DRAM cross-validation's byte pairs — every field
    /// a byte or count account, so the mirror is the same from run to run.
    fn json(&self) -> String {
        let plans: Vec<String> = (self.plans.iter())
            .map(|p| {
                let classes: Vec<String> = (p.prof.per_class().iter())
                    .map(|c| {
                        format!(
                            "{{\"class\":{},\"steps\":{},\"moved_bytes\":{}}}",
                            jstr(class_tag(c.class)),
                            c.steps,
                            c.moved_bytes
                        )
                    })
                    .collect();
                format!(
                    "{}:{{\"steps\":{},\"total_bytes\":{},\"per_class\":[{}]}}",
                    jstr(p.key),
                    p.steps,
                    p.prof.total_bytes(),
                    classes.join(","),
                )
            })
            .collect();
        let arena: Vec<String> = (self.arena.iter())
            .map(|r| {
                format!(
                    "{{\"plan\":{},\"granularity\":{},\"threads\":{},\"slab_bytes\":{},\
                     \"scratch_bytes\":{},\"record_bytes\":{},\"allocs_per_call\":{:.2}}}",
                    jstr(r.plan),
                    jstr(r.tag),
                    r.threads,
                    r.slab_bytes,
                    r.scratch_bytes,
                    r.record_bytes,
                    r.events as f64 / STEADY_CALLS as f64,
                )
            })
            .collect();
        let duels: Vec<String> = (self.duels())
            .map(|(shape, u, e)| {
                format!(
                    "{{\"shape\":{},\"unfused_bytes\":{},\"epilogue_bytes\":{}}}",
                    jstr(&shape),
                    u.prof.total_bytes(),
                    e.prof.total_bytes(),
                )
            })
            .collect();
        let dc = &self.decode;
        let decode = format!(
            "{{\"prompt_tokens\":{},\"steps\":{},\"batch\":{},\"capacity\":{},\
             \"allocs_per_step\":{:.2},\"resident_bytes\":{}}}",
            dc.prompt_tokens,
            dc.steps,
            dc.batch,
            dc.capacity,
            dc.allocs_per_step,
            dc.resident_bytes,
        );
        let dram: Vec<String> = (self.dram.iter())
            .map(|r| {
                format!(
                    "{{\"shape\":{},\"step\":{},\"predicted_bytes\":{},\"measured_bytes\":{},\
                     \"gated\":{}}}",
                    jstr(&r.shape),
                    jstr(&r.step),
                    r.predicted_bytes,
                    r.measured_bytes,
                    r.gated,
                )
            })
            .collect();
        let d = dims();
        format!(
            "{{\"dims\":{{\"b\":{},\"j\":{},\"k\":{},\"h\":{},\"p\":{},\"i\":{},\"u\":{}}},\
             \"plans\":{{{}}},\"arena\":[{}],\"duels\":[{}],\"decode\":{},\
             \"dram_validation\":{{\"llc_bytes\":{},\"rows\":[{}]}}}}\n",
            d.b,
            d.j,
            d.k,
            d.h,
            d.p,
            d.i,
            d.u,
            plans.join(","),
            arena.join(","),
            duels.join(","),
            decode,
            self.llc,
            dram.join(","),
        )
    }
}

/// Returns the failures found while smoke-checking a profiled canned plan.
fn check_profile(tag: &str, prof: &PlanProfiler, expect_steps: usize) -> Vec<String> {
    let mut bad = Vec::new();
    if prof.steps().count() != expect_steps {
        bad.push(format!(
            "{tag}: profiled {} of {expect_steps} steps",
            prof.steps().count()
        ));
    }
    for s in prof.steps() {
        if s.interpretable && s.moved_bytes() == 0 {
            bad.push(format!(
                "{tag}: step {} ({}) moved 0 bytes",
                s.account.step, s.account.name
            ));
        }
        if s.time_us <= 0.0 {
            bad.push(format!(
                "{tag}: step {} ({}) has no time",
                s.account.step, s.account.name
            ));
        }
        let m = prof.measured_mue(s);
        if !(m.value > 0.0 && m.value <= 100.0) {
            bad.push(format!(
                "{tag}: step {} ({}) measured MUE {} outside (0, 100]",
                s.account.step, s.account.name, m.value
            ));
        }
        if !s.footprint_matches() {
            bad.push(format!(
                "{tag}: step {} ({}) footprint {} words vs audited {}",
                s.account.step,
                s.account.name,
                s.footprint_words,
                s.account.moved_words()
            ));
        }
    }
    bad
}

/// Collects the profile once and renders what `flags` ask for: the
/// `--check` verdict, the `--json` mirror, or the full report. `alloc` is
/// the process's global allocator; `geometry` overrides the DRAM
/// validation's hierarchy.
///
/// # Errors
///
/// A plan that fails to run, or under `--check` any failed gate.
pub fn run(flags: &Flags, geometry: Option<CacheGeometry>, alloc: &CountingAlloc) -> Res<()> {
    let geometry = match geometry {
        Some(g) => g,
        None => CacheGeometry::parse(VALIDATION_GEOM).ok_or("the validation geometry parses")?,
    };
    let c = Collected::collect(&geometry, alloc)?;
    if flags.has(CHECK) {
        let bad = c.failures();
        if !bad.is_empty() {
            for b in &bad {
                eprintln!("FAIL: {b}");
            }
            return Err(format!("{} profiler check(s) failed", bad.len()).into());
        }
        let (enc, r) = (&c.plans[0], &c.reselection);
        println!(
            "repro profile --check: OK — {} steps profiled on the arena at 1 and {PAR_THREADS} \
             threads, re-selected total {:.1} µs ≤ natural {:.1} µs, \
             {} DRAM predictions within ±{:.0}%, \
             0 steady-state arena allocations, 0 allocs per decode step",
            enc.steps,
            r.best_us(),
            r.natural_us(),
            c.dram.iter().filter(|r| r.gated).count(),
            DRAM_VALIDATION_TOL * 100.0,
        );
    } else if flags.has(JSON) {
        let (path, body) = ("BENCH_plan_profile.json", c.json());
        std::fs::write(path, &body)?;
        println!("wrote {path} ({} bytes)", body.len());
    } else {
        c.print()?;
    }
    Ok(())
}
