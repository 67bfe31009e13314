//! `repro audit`: the static data-movement audit of execution plans — no
//! kernel ever runs.
//!
//! For each schedule (Reference encoder, Fused encoder, Fused decoder, the
//! decode steps, the model head over a 30 522-word vocabulary, and a
//! recipe-selected plan lowered from simulator sweeps) this prints the
//! report of `xform_core::analyze`: the dependency DAG's parallel waves,
//! peak resident bytes, per-operator-class byte volumes (Table I style),
//! the plan-level static MUE (`Q/D · B/B̂`), and every lint the analyzer
//! raises. The audited set includes the GEMM-epilogue mega-kernel plans,
//! which must beat their unfused counterparts on the static account:
//! `D` strictly lower with `Q` unchanged and strictly fewer bytes resident
//! at the peak, in an arena slab no larger — violations fail the
//! audit. Every canned plan behind a fused
//! `SM` runs its attention core as one region, so none but the unfused
//! reference may hold a container with both a query and a key axis — the
//! `[h,b,j,k]` tensors are virtual; one that does fails the audit too.
//! Beside the slab, each plan's row shows what binding its externals
//! costs: the bytes the arena borrows where the caller keeps them, and the
//! bytes it copies into the slab at bind — an external a step reads as it
//! came before a later one re-lays it. A canned plan borrows every external
//! and copies nothing; one that does not fails the audit. The
//! recipe-selected plan is lowered over the graph the fusion table alone
//! leaves (regions and epilogues are properties of the canned plans), so
//! its row moves only when the recipe does. With `--check` it fails if any
//! plan carries an error-severity lint or any plan's static MUE regresses
//! below the checked-in floor in `crates/bench/baseline_static_mue.txt` —
//! CI uses this to fail the build on a lint-dirty or MUE-regressed canned
//! plan. With `--cache` (composable with `--check`) every plan is
//! additionally pushed through the reuse-distance cache model
//! (`xform_core::cachemodel`) under the modelled device's hierarchy (or the
//! `XFORM_CACHE_GEOM` override): the cache-corrected MUE must be at least
//! the flat one on every plan with `Q` untouched, the GEMM-epilogue plans
//! must stay strictly ahead of their unfused counterparts on the corrected
//! account, and each plan's corrected MUE must hold the floor pinned in
//! `crates/bench/baseline_cache_mue.txt`. With `--json` it writes
//! `BENCH_plan_audit.json` — the machine-readable mirror of the full audit
//! (flat and cache-corrected MUE, predicted DRAM bytes, arena slab bytes,
//! and every lint) — so the static account is tracked across PRs like
//! `repro profile --json` tracks the measured one. With `--certify` it runs
//! the plan certificate (`xform_core::sanitize::certify`) on every plan
//! and prints each certificate's fingerprint and wave partition, failing if
//! any plan cannot be certified for wave-parallel execution. With
//! `--access` it runs the same certificate at the logical level
//! (`xform_core::access::certify_access`) and over the arena's one
//! coloring, printing each plan's unit-stride step count and
//! every access lint, failing if any plan fails certification. A strided
//! inner loop is a warning — that step runs its kernel's lane-at-a-time
//! strided instantiation — and does not fail a *selected* plan, which may buy it
//! with a cheaper neighbour; a canned natural plan carrying one fails the
//! audit: every natural sweep either has a contiguous lane or runs in
//! panels whose rows are.

use std::collections::HashMap;

use xform_core::access::certify_access;
use xform_core::analyze::{
    analyze, assign_arena, audit, cross_call_high_water, lint_selection, render_report, Home,
    PlanLint, Severity,
};
use xform_core::cachemodel::{cache_audit, CacheGeometry};
use xform_core::fusion::{apply_plan, encoder_fusion_plan};
use xform_core::plan::ExecutionPlan;
use xform_core::recipe::forward_ops;
use xform_core::sanitize::{certify, certify_plan, PlanCertificate};
use xform_core::selection::select_forward;
use xform_core::sweep::{sweep_all, SimulatorSource, SweepOptions, SweepResult};
use xform_dataflow::{build, EncoderDims, Graph, NodeId};
use xform_gpusim::mue::Mue;
use xform_gpusim::DeviceSpec;
use xform_transformer::interp::{self, PlanKind};

use crate::cli::{Flags, ACCESS, CACHE, CERTIFY, CHECK, JSON};
use crate::{jstr, Res};

/// Checked-in static-MUE floor per canned plan. `--check` fails when any
/// plan's audited static MUE regresses below its pinned value; re-pin by
/// editing the file when a change legitimately raises a floor.
const BASELINE: &str = include_str!("../baseline_static_mue.txt");

/// Checked-in cache-corrected MUE floor per canned plan, gated by
/// `--cache --check` under the deterministic device hierarchy.
const CACHE_BASELINE: &str = include_str!("../baseline_cache_mue.txt");

/// The vocabulary the model head is audited over: BERT's.
const HEAD_VOCAB: usize = 30_522;

/// Every audited plan's baseline key and title, in report order.
const PLANS: [(&str, &str); 10] = [
    ("encoder-reference", "Reference (unfused, natural layouts)"),
    ("encoder-fused", "Fused (natural layouts)"),
    ("encoder-epilogue", "Encoder (GEMM-epilogue mega-kernels)"),
    ("decoder-fused", "Decoder (fused, natural layouts)"),
    ("decoder-epilogue", "Decoder (GEMM-epilogue mega-kernels)"),
    (
        "recipe-selected",
        "Recipe-selected (simulator sweeps + SSSP layouts)",
    ),
    (
        "decoder-step-project",
        "Decode step: project (token column -> q/k/v columns)",
    ),
    (
        "decoder-step",
        "Decode step: attend (one query column over the KV cache)",
    ),
    (
        "head-fused",
        "Head (bias + vocabulary softmax fused, logits materialized)",
    ),
    ("head-epilogue", "Head (one GEMM-epilogue step)"),
];

/// Each GEMM-epilogue plan and the plan it must beat on the static account.
const EPILOGUE_PAIRS: [(&str, &str); 3] = [
    ("encoder-fused", "encoder-epilogue"),
    ("decoder-fused", "decoder-epilogue"),
    ("head-fused", "head-epilogue"),
];

/// Tolerance (MUE points) when comparing against the pinned baseline,
/// absorbing float-summation noise across platforms.
const BASELINE_TOL: f64 = 0.05;

struct Audited {
    title: &'static str,
    /// Stable key into the static-MUE baseline file.
    key: &'static str,
    errors: usize,
    steps: usize,
    warnings: usize,
    /// The audited static plan MUE (None in certify/access modes).
    mue: Option<Mue>,
    /// Serial arena slab bytes (None in certify/access modes).
    slab_bytes: Option<u64>,
    /// Peak resident bytes, slab-owned and borrowed, at f32 width like the
    /// slab (this and the next two: zero in certify/access modes).
    peak_bytes: u64,
    /// Bytes of externals the arena borrows where the caller keeps them.
    borrowed_bytes: u64,
    /// Bytes of externals it copies into the slab at bind.
    bind_copy_bytes: u64,
    /// Every analyzer lint, rendered (kept for the JSON mirror).
    lints: Vec<(Severity, String)>,
    /// Cache-corrected account (None unless `--cache` / `--json`).
    cache: Option<CacheSummary>,
}

/// The cache-corrected slice of one plan's audit.
struct CacheSummary {
    mue: Mue,
    dram_bytes: u64,
    flat_bytes: u64,
    hit_words: Vec<u64>,
    compulsory_words: u64,
    lints: Vec<String>,
}

fn parse_baseline(text: &'static str) -> HashMap<&'static str, f64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.split_once(char::is_whitespace)?;
            Some((key, value.trim().parse().ok()?))
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Full rendered report per plan.
    Full,
    /// Lint summary only, non-zero exit on error lints.
    Check,
    /// Machine-readable mirror written to `BENCH_plan_audit.json`.
    Json,
    /// Race certification, non-zero exit on an uncertifiable plan.
    Certify,
    /// Access-path certification at the logical level and over the arena's
    /// coloring, non-zero exit on error-severity access lints.
    Access,
}

/// The strided-inner-loop warnings of a certificate: the sweeps that fall
/// to the lane-at-a-time strided body. None may appear in a canned natural
/// plan.
fn strided_sweeps(cert: &PlanCertificate) -> usize {
    let strided = |l: &&PlanLint| matches!(l, PlanLint::StridedInnerLoop { .. });
    cert.lints.iter().filter(strided).count()
}

/// Certifies one plan logically and over the arena's coloring and wave
/// partition. Returns the number of error lints across the two passes, to
/// which a `natural` (canned, unselected) plan adds its strided sweeps.
fn report_access(title: &str, graph: &Graph, plan: &ExecutionPlan, natural: bool) -> usize {
    let analysis = analyze(graph, plan);
    let mut errors = 0usize;
    let logical = certify_access(graph, plan).map(|c| (c, "logical".to_string()));
    let arena = certify_plan(
        graph,
        plan,
        &analysis,
        &analysis.parallel_waves(),
        Some(&assign_arena(&analysis)),
    )
    .map(|c| (c, "arena/Waves".to_string()));
    for outcome in [logical, arena] {
        match outcome {
            Ok((cert, tag)) => {
                println!(
                    "{title} [{tag}]: certified {:#018x} — unit-stride {}/{} steps, {} warnings",
                    cert.plan_hash,
                    cert.unit_stride_steps(),
                    cert.steps.len(),
                    cert.lints.len()
                );
                for lint in &cert.lints {
                    println!("  [warning] {lint}");
                }
                if natural && strided_sweeps(&cert) > 0 {
                    println!("{title} [{tag}]: a canned natural plan sweeps strided");
                    errors += strided_sweeps(&cert);
                }
            }
            Err(lints) => {
                let fatal = lints
                    .iter()
                    .filter(|l| l.severity() == Severity::Error)
                    .count();
                println!("{title}: access certification FAILED, {fatal} error lints");
                for lint in &lints {
                    println!("  [{:?}] {lint}", lint.severity());
                }
                errors += fatal;
            }
        }
    }
    errors
}

/// The attention region's static gate: no canned plan other than the
/// unfused reference — the recipe's plan is not canned — may touch a
/// container with both a query (`j`) and a key (`k`) axis; the `[h,b,j,k]`
/// tensors belong inside the region. Returns 1 for a plan that does.
fn scores_materialized(key: &str, graph: &Graph, plan: &ExecutionPlan) -> usize {
    let both = |o: &&xform_core::plan::Operand| {
        let has =
            |axis| (graph.data(o.data)).is_some_and(|d| d.shape.contains(xform_tensor::Axis(axis)));
        has('j') && has('k')
    };
    let operands = (plan.steps.iter()).flat_map(|s| s.inputs.iter().chain(&s.outputs));
    match operands.filter(both).map(|o| o.name.as_str()).next() {
        Some(name) if !["encoder-reference", "recipe-selected"].contains(&key) => {
            eprintln!("FAIL: {key} materializes `{name}`, a container with a query and a key axis");
            1
        }
        _ => 0,
    }
}

/// One mode of the audit over the modelled device.
struct Auditor {
    device: DeviceSpec,
    mode: Mode,
    /// The hierarchy the cache-corrected account runs under, when it runs.
    cache: Option<CacheGeometry>,
}

impl Auditor {
    /// Audits one plan in this mode, printing as the mode asks. `sweeps`
    /// marks the recipe-selected plan (its selection lints ride along).
    fn report(
        &self,
        title: &'static str,
        key: &'static str,
        graph: &Graph,
        plan: &ExecutionPlan,
        sweeps: Option<&HashMap<NodeId, SweepResult>>,
    ) -> Audited {
        let (device, mode) = (&self.device, self.mode);
        let quiet = Audited {
            title,
            key,
            errors: 0,
            steps: plan.steps.len(),
            warnings: 0,
            mue: None,
            slab_bytes: None,
            peak_bytes: 0,
            borrowed_bytes: 0,
            bind_copy_bytes: 0,
            lints: Vec::new(),
            cache: None,
        };
        if mode == Mode::Access {
            let errors = report_access(title, graph, plan, sweeps.is_none());
            return Audited { errors, ..quiet };
        }
        if mode == Mode::Certify {
            return match certify(graph, plan) {
                Ok(cert) => {
                    let widest = cert.waves.iter().map(Vec::len).max().unwrap_or(0);
                    println!(
                        "{title}: certified {:#018x} — {} steps in {} waves (widest {widest})",
                        cert.plan_hash,
                        plan.steps.len(),
                        cert.waves.len()
                    );
                    quiet
                }
                Err(lints) => {
                    println!("{title}: NOT certifiable, {} error lints", lints.len());
                    for lint in &lints {
                        println!("  [error] {lint}");
                    }
                    Audited {
                        errors: lints.len(),
                        ..quiet
                    }
                }
            };
        }
        let mut analysis = analyze(graph, plan);
        if let Some(sweeps) = sweeps {
            analysis.lints.extend(lint_selection(graph, plan, sweeps));
        }
        // arena coloring rides the audit: any fragmentation divergence
        // between the colored slab and the liveness peak becomes a typed
        // (warning) lint alongside the analyzer's own findings
        let arena = assign_arena(&analysis);
        analysis.lints.extend(arena.lints.iter().cloned());
        let mut errors = analysis.errors().len() + scores_materialized(key, graph, plan);
        let [borrowed, copied] = [Home::Borrowed, Home::Copied].map(|h| analysis.home_words(h) * 4);
        // a canned plan re-lays nothing: whatever it does not define, but
        // for a cache, it reads where the caller keeps it
        let relaid = |b: &&xform_core::analyze::BufferLiveness| {
            matches!(b.home, Home::Gathered | Home::Copied)
        };
        if let (Some(b), None) = (analysis.liveness.iter().find(relaid), sweeps) {
            eprintln!("FAIL: {key}: external `{}` owns a slab range", b.name);
            errors += 1;
        }
        let movement = audit(graph, plan, device);
        let cache = self.cache.as_ref().map(|geometry| {
            let ca = cache_audit(graph, plan, device, geometry);
            analysis.lints.extend(ca.lints.iter().cloned());
            CacheSummary {
                mue: ca.plan_mue,
                dram_bytes: ca.dram_words * device.word_bytes as u64,
                flat_bytes: movement.total_bytes(),
                hit_words: ca.hit_words.clone(),
                compulsory_words: ca.compulsory_words,
                lints: ca.lints.iter().map(|l| l.to_string()).collect(),
            }
        });
        let warnings = analysis
            .lints
            .iter()
            .filter(|l| l.severity() == Severity::Warning)
            .count();
        let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
        if mode == Mode::Check {
            println!(
                "{title}: {} steps, {errors} errors, {warnings} warnings, {} B copied at bind, \
                 static MUE {:.4}{}",
                plan.steps.len(),
                copied,
                movement.plan_mue.value,
                cache
                    .as_ref()
                    .map(|c| format!(
                        ", cache MUE {:.4} ({:.1} MiB DRAM vs {:.1} MiB flat)",
                        c.mue.value,
                        mib(c.dram_bytes),
                        mib(c.flat_bytes),
                    ))
                    .unwrap_or_default(),
            );
            for lint in analysis
                .lints
                .iter()
                .filter(|l| l.severity() == Severity::Error)
            {
                println!("  [error] {lint}");
            }
        } else if mode == Mode::Full {
            print!("{}", render_report(title, &analysis, &movement, device));
            println!(
                "arena (waves): slab {:.1} KiB vs {:.1} KiB peak-resident{}",
                arena.slab_bytes(4) as f64 / 1024.0,
                (arena.target_words * 4) as f64 / 1024.0,
                if arena.lints.is_empty() {
                    " — exact"
                } else {
                    " — FRAGMENTED"
                },
            );
            println!(
                "externals: {:.1} KiB borrowed in place, {:.1} KiB copied at bind",
                borrowed as f64 / 1024.0,
                copied as f64 / 1024.0,
            );
            if let Some(c) = &cache {
                println!(
                    "cache-corrected: MUE {:.4} (flat {:.4}), predicted DRAM {:.1} MiB \
                     of {:.1} MiB flat, hits/level {:?} words, {} compulsory words",
                    c.mue.value,
                    movement.plan_mue.value,
                    mib(c.dram_bytes),
                    mib(c.flat_bytes),
                    c.hit_words,
                    c.compulsory_words,
                );
                for lint in &c.lints {
                    println!("  [cache] {lint}");
                }
            }
            println!();
        }
        Audited {
            errors,
            warnings,
            mue: Some(movement.plan_mue),
            slab_bytes: Some(arena.slab_bytes(4)),
            peak_bytes: analysis.peak_resident_bytes(4),
            borrowed_bytes: borrowed,
            bind_copy_bytes: copied,
            lints: analysis
                .lints
                .iter()
                .map(|l| (l.severity(), l.to_string()))
                .collect(),
            cache,
            ..quiet
        }
    }
}

/// Runs the audit in the mode `flags` select, under `geometry` when the
/// caller overrides the modelled device's hierarchy.
///
/// # Errors
///
/// A plan that fails to build, or any failed gate.
pub fn run(flags: &Flags, geometry: Option<CacheGeometry>) -> Res<()> {
    let mode = if flags.has(ACCESS) {
        Mode::Access
    } else if flags.has(CERTIFY) {
        Mode::Certify
    } else if flags.has(JSON) {
        Mode::Json
    } else if flags.has(CHECK) {
        Mode::Check
    } else {
        Mode::Full
    };
    let dims = EncoderDims::bert_large();
    let device = DeviceSpec::v100();
    let geometry = geometry.unwrap_or_else(|| CacheGeometry::for_device(&device));
    let auditor = Auditor {
        device,
        mode,
        // the JSON mirror always carries the cache-corrected account
        cache: (flags.has(CACHE) || mode == Mode::Json).then(|| geometry.clone()),
    };

    let canned = |kind| interp::cached_plan(&dims, kind);
    let reference = canned(PlanKind::EncoderReference)?;
    let fused = canned(PlanKind::EncoderFused)?;
    let epilogue = canned(PlanKind::EncoderEpilogue)?;
    let decoder = canned(PlanKind::DecoderFused)?;
    let dec_epilogue = canned(PlanKind::DecoderEpilogue)?;

    // the streaming-decode plan family: the prefill is the fused decoder
    // plan above at the full sequence; one project step (token column →
    // q/k/v columns) and one attend step over a cache sized to it
    let step_dims = EncoderDims {
        j: 1,
        k: dims.j,
        ..dims
    };
    let project_dims = EncoderDims { j: 1, k: 1, ..dims };
    let project = interp::cached_plan(&project_dims, PlanKind::DecoderStepProject)?;
    let step = interp::cached_plan(&step_dims, PlanKind::DecoderStep)?;

    // the model head over BERT's 30 522-word vocabulary, as one
    // GEMM-epilogue step and as its twin that materializes the logits
    let head_fused = interp::head_fused(&dims, HEAD_VOCAB)?;
    let head = canned(PlanKind::Head { vocab: HEAD_VOCAB })?;

    // the recipe: simulator sweeps over the fused graph — the fusion table
    // applied and nothing else, as `optimize_encoder` builds it — SSSP
    // layout selection, lowered to a schedule and audited like the rest
    let recipe = build::encoder(&dims);
    let mut recipe_graph = recipe.graph;
    apply_plan(&mut recipe_graph, &encoder_fusion_plan())?;
    let fwd = forward_ops(&recipe_graph, recipe.dy);
    let sweeps = sweep_all(
        &SimulatorSource::default(),
        &recipe_graph,
        SweepOptions {
            max_configs: Some(2000),
            ..SweepOptions::default()
        },
    )?;
    let sel = select_forward(&recipe_graph, &auditor.device, &fwd, &sweeps)?;
    let selected = ExecutionPlan::lower(&recipe_graph, &sel)?;

    let schedules = [
        (&reference.graph, &reference.plan),
        (&fused.graph, &fused.plan),
        (&epilogue.graph, &epilogue.plan),
        (&decoder.graph, &decoder.plan),
        (&dec_epilogue.graph, &dec_epilogue.plan),
        (&recipe_graph, &selected),
        (&project.graph, &project.plan),
        (&step.graph, &step.plan),
        (&head_fused.graph, &head_fused.plan),
        (&head.graph, &head.plan),
    ];
    let results: Vec<Audited> = (PLANS.iter().zip(schedules))
        .map(|(&(key, title), (graph, plan))| {
            let sweeps = (key == "recipe-selected").then_some(&sweeps);
            auditor.report(title, key, graph, plan, sweeps)
        })
        .collect();

    if mode == Mode::Json {
        write_json(&results, &geometry)?;
    }

    let mut failures = 0usize;
    for r in results.iter().filter(|r| r.errors > 0) {
        eprintln!("{}: {} error-severity lints", r.title, r.errors);
        failures += 1;
    }

    if matches!(mode, Mode::Full | Mode::Check | Mode::Json) {
        failures += check_epilogue_invariants(&results);
        failures += check_floors(&results, BASELINE, "static MUE", |r| r.mue.as_ref());
        failures += decode_section(&step.graph, &step.plan, &results, &dims, &auditor.device);
        if auditor.cache.is_some() {
            failures += check_cache_invariants(&results);
            if mode == Mode::Check {
                failures += check_floors(&results, CACHE_BASELINE, "cache-corrected MUE", |r| {
                    r.cache.as_ref().map(|c| &c.mue)
                });
            }
        }
    }
    if failures > 0 {
        return Err(format!("{failures} audit gate(s) failed").into());
    }
    match mode {
        Mode::Check if auditor.cache.is_some() => println!(
            "all plans are error-clean, at or above both MUE baselines, \
             and cache-corrected MUE dominates flat"
        ),
        Mode::Check => {
            println!("all plans are error-clean and at or above the static-MUE baseline")
        }
        Mode::Json => println!("wrote BENCH_plan_audit.json"),
        Mode::Certify => println!("all plans certified for wave-parallel execution"),
        Mode::Access => println!("all plans earn access certificates over their arenas"),
        Mode::Full => {}
    }
    Ok(())
}

/// The streaming-decode data-movement signature and the cross-call
/// residency audit:
///
/// * the attend step's static account must be GEMV-like — one query
///   column against the whole resident cache means essentially every
///   moved word (`D`) is weight/cache streaming with a tiny useful
///   minimum (`Q`), the signature that makes decode bandwidth-bound;
///   `--check` gates `D > Q`;
/// * the per-call peak-resident account is extended to the cross-call
///   high-water mark: cache containers are live-in/live-out, so the real
///   steady-state footprint scales their columns to the horizon — the
///   audited sequence length.
///
/// Returns the number of violated invariants.
fn decode_section(
    graph: &Graph,
    plan: &ExecutionPlan,
    results: &[Audited],
    dims: &EncoderDims,
    device: &DeviceSpec,
) -> usize {
    let mut failures = 0usize;
    let find = |key: &str| results.iter().find(|r| r.key == key);
    // the prefill pass is the fused decoder's forward plan
    let (Some(step), Some(prefill)) = (find("decoder-step"), find("decoder-fused")) else {
        return 0;
    };
    let (Some(m), Some(pm)) = (&step.mue, &prefill.mue) else {
        return 0;
    };
    // a decode step produces `b` tokens; the prefill produces `b·j`
    let step_d_per_token = m.d_words / dims.b as f64;
    let prefill_d_per_token = pm.d_words / (dims.b * dims.j) as f64;
    let ratio = step_d_per_token / prefill_d_per_token.max(1.0);
    println!(
        "\ndecode step (cache capacity {}): Q {:.0} words, D {:.0} words, static MUE {:.4}",
        dims.j, m.q_words, m.d_words, m.value
    );
    println!(
        "decode D/token {:.0} words vs prefill D/token {:.0} words — {ratio:.0}x \
         (GEMV-like signature: every weight and cache word re-streams per generated \
         token, where the prefill amortizes them over {} positions)",
        step_d_per_token, prefill_d_per_token, dims.j
    );
    if step_d_per_token <= 4.0 * prefill_d_per_token {
        eprintln!(
            "FAIL: decoder-step: per-token D must dwarf the prefill's \
             (GEMV-like decode signature)"
        );
        failures += 1;
    }

    let analysis = analyze(graph, plan);
    let hw = cross_call_high_water(graph, &analysis, dims.j);
    let mib = |w: u64| w as f64 * device.word_bytes as f64 / (1024.0 * 1024.0);
    println!(
        "decode residency: per-call peak {:.1} MiB ({:.1} MiB KV cache at capacity {}), \
         cross-call high-water {:.1} MiB at max_seq {} ({:.1} MiB cache)",
        mib(hw.peak_words),
        mib(hw.cache_words),
        dims.j,
        mib(hw.high_water_words),
        hw.max_seq,
        mib(hw.cache_words_at_max_seq),
    );
    if hw.cache_words == 0 {
        eprintln!("FAIL: decoder-step: no cache containers in the liveness account");
        failures += 1;
    }
    failures
}

/// The static gate of the GEMM epilogues: each epilogue plan must show `D`
/// strictly lower with `Q` unchanged (hence strictly higher static MUE),
/// strictly fewer bytes resident at the peak — the slab's and the borrowed
/// externals', what the slab alone held while it copied them — and a
/// arena slab no larger than its unfused counterpart's. Returns the
/// number of violated invariants.
fn check_epilogue_invariants(results: &[Audited]) -> usize {
    let find = |key: &str| results.iter().find(|r| r.key == key);
    let mut failures = 0usize;
    for (unfused_key, epilogue_key) in EPILOGUE_PAIRS {
        let (Some(f), Some(e)) = (find(unfused_key), find(epilogue_key)) else {
            continue;
        };
        let (Some(fm), Some(em)) = (&f.mue, &e.mue) else {
            continue;
        };
        let (Some(fs), Some(es)) = (f.slab_bytes, e.slab_bytes) else {
            continue;
        };
        let (fp, ep) = (f.peak_bytes, e.peak_bytes);
        let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
        println!(
            "{epilogue_key} vs {unfused_key}: Q {:+.1} words, D {:+.1} words, \
             MUE {:.2} → {:.2}, peak resident {:.1} → {:.1} MiB, slab {:.1} → {:.1} MiB",
            em.q_words - fm.q_words,
            em.d_words - fm.d_words,
            fm.value,
            em.value,
            mib(fp),
            mib(ep),
            mib(fs),
            mib(es),
        );
        for (ok, what) in [
            ((em.q_words - fm.q_words).abs() < 0.5, "Q must be unchanged"),
            (em.d_words < fm.d_words, "D must strictly drop"),
            (em.value > fm.value, "static MUE must strictly rise"),
            (ep < fp, "peak resident bytes must strictly shrink"),
            (es <= fs, "arena slab must not grow"),
        ] {
            if !ok {
                eprintln!("FAIL: {epilogue_key} vs {unfused_key}: {what}");
                failures += 1;
            }
        }
    }
    failures
}

/// The cache model's acceptance gates, active under `--cache`:
///
/// * every plan's cache-corrected MUE is at least its flat MUE, with `Q`
///   untouched by the correction;
/// * each GEMM-epilogue plan stays *strictly* ahead of its unfused
///   counterpart on the corrected account, still at `ΔQ = 0`.
///
/// Returns the number of violations.
fn check_cache_invariants(results: &[Audited]) -> usize {
    let mut failures = 0usize;
    for r in results {
        let (Some(flat), Some(c)) = (&r.mue, &r.cache) else {
            continue;
        };
        println!(
            "{}: cache-corrected MUE {:.4} vs flat {:.4}",
            r.key, c.mue.value, flat.value
        );
        for (ok, what) in [
            (
                c.mue.value + 1e-9 >= flat.value,
                "cache-corrected MUE must not drop below flat",
            ),
            (
                (c.mue.q_words - flat.q_words).abs() < 0.5,
                "the cache correction must not touch Q",
            ),
            (
                c.mue.d_words <= flat.d_words + 0.5,
                "the cache correction must not raise D",
            ),
        ] {
            if !ok {
                eprintln!("FAIL: {}: {what}", r.key);
                failures += 1;
            }
        }
    }
    let find = |key: &str| results.iter().find(|r| r.key == key);
    for (unfused_key, epilogue_key) in EPILOGUE_PAIRS {
        let pair = (find(unfused_key), find(epilogue_key));
        let (Some(Some(f)), Some(Some(e))) = (
            pair.0.map(|r| r.cache.as_ref()),
            pair.1.map(|r| r.cache.as_ref()),
        ) else {
            continue;
        };
        for (ok, what) in [
            (
                e.mue.value > f.mue.value,
                "cache-corrected MUE must strictly rise under epilogue fusion",
            ),
            (
                (e.mue.q_words - f.mue.q_words).abs() < 0.5,
                "Q must be unchanged on the corrected account",
            ),
        ] {
            if !ok {
                eprintln!("FAIL: {epilogue_key} vs {unfused_key}: {what}");
                failures += 1;
            }
        }
    }
    failures
}

/// Holds every audited plan's `what` (static or cache-corrected MUE, read
/// by `mue`) to the floor pinned for it in `baseline`. Returns the number
/// of regressions and unpinned plans.
fn check_floors(
    results: &[Audited],
    baseline: &'static str,
    what: &str,
    mue: fn(&Audited) -> Option<&Mue>,
) -> usize {
    let floors = parse_baseline(baseline);
    let mut failures = 0usize;
    for r in results {
        let Some(m) = mue(r) else {
            continue;
        };
        match floors.get(r.key) {
            None => eprintln!("FAIL: {} has no pinned {what} baseline", r.key),
            Some(&floor) if m.value < floor - BASELINE_TOL => eprintln!(
                "FAIL: {} {what} {:.4} regressed below the pinned baseline {floor:.4}",
                r.key, m.value
            ),
            Some(_) => continue,
        }
        failures += 1;
    }
    failures
}

/// Writes `BENCH_plan_audit.json`: the machine-readable mirror of the
/// static audit — per-plan flat and cache-corrected MUE (value, `Q`,
/// `D`), predicted DRAM and flat bytes, per-level hit words, the arena's
/// slab bytes, the externals' borrowed and copied-at-bind bytes, and every
/// lint with its severity — alongside the geometry it was computed under.
fn write_json(results: &[Audited], geometry: &CacheGeometry) -> Res<()> {
    let mut out = String::from("{\n  \"bench\": \"plan_audit\",\n");
    out.push_str("  \"geometry\": [");
    let levels: Vec<String> = geometry
        .levels
        .iter()
        .map(|l| {
            format!(
                "{{\"name\": {}, \"size_bytes\": {}, \"line_bytes\": {}, \"assoc\": {}}}",
                jstr(&l.name),
                l.size_bytes,
                l.line_bytes,
                l.assoc
            )
        })
        .collect();
    out.push_str(&levels.join(", "));
    out.push_str("],\n  \"plans\": [\n");
    let plans: Vec<String> = results
        .iter()
        .map(|r| {
            let mut fields = vec![
                format!("      \"key\": {}", jstr(r.key)),
                format!("      \"title\": {}", jstr(r.title)),
                format!("      \"steps\": {}", r.steps),
                format!("      \"errors\": {}", r.errors),
                format!("      \"warnings\": {}", r.warnings),
            ];
            if let Some(m) = &r.mue {
                fields.push(format!(
                    "      \"static_mue\": {{\"value\": {:.6}, \"q_words\": {:.1}, \"d_words\": {:.1}}}",
                    m.value, m.q_words, m.d_words
                ));
            }
            if let Some(s) = r.slab_bytes {
                fields.push(format!("      \"slab_bytes\": {s}"));
                fields.push(format!(
                    "      \"borrowed_external_bytes\": {}",
                    r.borrowed_bytes
                ));
                fields.push(format!("      \"bind_copy_bytes\": {}", r.bind_copy_bytes));
            }
            if let Some(c) = &r.cache {
                fields.push(format!(
                    "      \"cache_mue\": {{\"value\": {:.6}, \"q_words\": {:.1}, \"d_words\": {:.1}}}",
                    c.mue.value, c.mue.q_words, c.mue.d_words
                ));
                fields.push(format!("      \"predicted_dram_bytes\": {}", c.dram_bytes));
                fields.push(format!("      \"flat_bytes\": {}", c.flat_bytes));
                let hits: Vec<String> = c.hit_words.iter().map(u64::to_string).collect();
                fields.push(format!("      \"hit_words\": [{}]", hits.join(", ")));
                fields.push(format!(
                    "      \"compulsory_words\": {}",
                    c.compulsory_words
                ));
            }
            let lints: Vec<String> = r
                .lints
                .iter()
                .map(|(sev, l)| {
                    format!(
                        "{{\"severity\": {}, \"message\": {}}}",
                        jstr(&format!("{sev:?}")),
                        jstr(l)
                    )
                })
                .collect();
            fields.push(format!("      \"lints\": [{}]", lints.join(", ")));
            format!("    {{\n{}\n    }}", fields.join(",\n"))
        })
        .collect();
    out.push_str(&plans.join(",\n"));
    out.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_plan_audit.json", out)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--access` gate: a canned natural plan has no strided sweep, and
    /// injecting one (an operand that shares no contiguous axis with the
    /// others) is counted.
    #[test]
    fn the_access_gate_counts_a_strided_sweep_injected_into_a_natural_plan() {
        let dims = EncoderDims::bert_large();
        let canned = interp::cached_plan(&dims, PlanKind::EncoderFused).unwrap();
        let clean = certify_access(&canned.graph, &canned.plan).unwrap();
        assert_eq!(strided_sweeps(&clean), 0);
        assert_eq!(
            report_access("canned", &canned.graph, &canned.plan, true),
            0
        );

        let mut plan = canned.plan.clone();
        let si = plan.steps.iter().position(|s| s.name == "DRLN").unwrap();
        let mut rotated: Vec<usize> = plan.steps[si].inputs[0].layout.order().collect();
        rotated.rotate_right(1);
        plan.steps[si].inputs[0].layout = xform_tensor::Layout::from_order(&rotated).unwrap();
        plan.reflow(&canned.graph);
        let cert = certify_access(&canned.graph, &plan).unwrap();
        assert!(strided_sweeps(&cert) > 0);
        assert!(report_access("injected", &canned.graph, &plan, true) > 0);
        assert_eq!(report_access("selected", &canned.graph, &plan, false), 0);
    }
}
