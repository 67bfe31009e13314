//! Cross-crate consistency of the runtime profiler: the bytes the
//! profiler charges each executed step must equal the static audit's
//! accounting *exactly* (same memlet words, same relayout traffic — the
//! measured MUE and the static MUE may then differ only in the bandwidth
//! term), and profile-guided re-selection must never adopt a plan that
//! measured slower than the natural one.

use std::sync::Mutex;

use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;
use substation::core::analyze::{audit, MovementAudit};
use substation::core::arena;
use substation::core::cpusource::CpuSource;
use substation::core::plan::{execute_plan, random_externals, ExecOptions, ExecutionPlan};
use substation::core::profile::{profile_plan, reselect_cost, PlanProfiler, ProfilerSink};
use substation::core::selection::{select_forward, CostModel};
use substation::core::sweep::{sweep_all, SimulatorSource, SweepOptions};
use substation::dataflow::{EncoderDims, Graph};
use substation::gpusim::DeviceSpec;
use substation::tensor::ops::layernorm::LayerNormStats;
use substation::tensor::{Shape, Tensor, TensorError};
use substation::transformer::decoder::DecoderLayer;
use substation::transformer::encoder::{EncoderLayer, Executor};
use substation::transformer::interp;
use substation::transformer::params::EncoderWeights;

fn dims() -> EncoderDims {
    EncoderDims {
        b: 2,
        j: 8,
        k: 8,
        h: 2,
        p: 4,
        i: 8,
        u: 12,
    }
}

/// The canned fused encoder plan — natural layouts, with GEMM-epilogue
/// chains left for the tile driver — and the recipe-lowered plan over the
/// same graph, which pays relayouts for its selected layouts.
fn natural_and_recipe_plans() -> (Graph, [ExecutionPlan; 2]) {
    let pf = interp::cached_plan(&dims(), interp::PlanKind::EncoderFused).unwrap();
    let fwd: Vec<_> = pf.plan.steps.iter().map(|s| s.op).collect();
    let sweep = SweepOptions {
        max_configs: Some(400),
        ..SweepOptions::default()
    };
    let sweeps = sweep_all(&SimulatorSource::default(), &pf.graph, sweep).unwrap();
    let sel = select_forward(&pf.graph, &DeviceSpec::v100(), &fwd, &sweeps).unwrap();
    let recipe = ExecutionPlan::lower(&pf.graph, &sel).unwrap();
    (pf.graph.clone(), [pf.plan.clone(), recipe])
}

/// Every step of `prof` is charged exactly the words and flop `audited`
/// charges it.
fn assert_charged_as_audited(label: &str, prof: &PlanProfiler, audited: &MovementAudit) {
    assert_eq!(prof.steps().count(), audited.per_step.len(), "{label}");
    for (sp, sa) in prof.steps().zip(&audited.per_step) {
        let (sp, sa) = (&sp.account, &sa.account);
        assert_eq!(sp.step, sa.step);
        assert_eq!(sp.name, sa.name, "{label} step {} name", sp.step);
        assert_eq!(sp.class, sa.class, "{label} step {} class", sp.step);
        assert_eq!(
            sp.read_words, sa.read_words,
            "{label} step {} ({}) read words",
            sp.step, sp.name
        );
        assert_eq!(
            sp.write_words, sa.write_words,
            "{label} step {} ({}) write words",
            sp.step, sp.name
        );
        assert_eq!(
            sp.relayout_words, sa.relayout_words,
            "{label} step {} ({}) relayout words",
            sp.step, sp.name
        );
        assert_eq!(
            sp.flop, sa.flop,
            "{label} step {} ({}) flop",
            sp.step, sp.name
        );
    }
}

#[test]
fn profiler_bytes_equal_static_audit_exactly() {
    let (graph, [natural, recipe]) = natural_and_recipe_plans();
    assert!(
        recipe.relayout_count() > 0,
        "the recipe plan pays relayouts"
    );
    for (label, plan) in [("natural", &natural), ("recipe", &recipe)] {
        let base = random_externals(&graph, plan, 7).unwrap();
        let prof = profile_plan(&graph, plan, &base, &ExecOptions::default(), 2).unwrap();
        let audited = audit(&graph, plan, &DeviceSpec::v100());
        if label == "natural" {
            assert!(
                audited.per_step.iter().any(|s| s.account.avoid_words > 0),
                "the natural plan leaves an epilogue interim to avoid"
            );
        }

        assert_charged_as_audited(label, &prof, &audited);
        // plan-level totals follow from the per-step identity (the audit
        // prices bytes at the device's word size, the profiler at f32, so
        // compare words)
        let audited_words: u64 = audited
            .per_step
            .iter()
            .map(|s| s.account.read_words + s.account.write_words + s.account.relayout_words)
            .sum();
        assert_eq!(prof.total_bytes(), audited_words * 4, "{label}");
        // and the MUE numerators agree — measured MUE differs from static
        // only via the bandwidth term
        let pm = prof.plan_mue();
        let am = &audited.plan_mue;
        assert_eq!(pm.q_words, am.q_words, "{label}");
    }
}

/// A backward plan profiles like a forward one: `random_externals` binds
/// the layer-norm statistics its norm steps read (no forward ran to save
/// them), and every step is charged the audit's words.
#[test]
fn backward_plans_profile_with_the_audits_bytes() {
    for kind in [
        interp::PlanKind::EncoderTrain,
        interp::PlanKind::DecoderTrain,
    ] {
        let pf = interp::cached_plan(&dims(), kind).unwrap();
        let base = random_externals(&pf.graph, &pf.plan, 3).unwrap();
        assert!(!base.stats.is_empty(), "{kind:?} reads saved statistics");
        let positive = |s: &LayerNormStats| s.inv_std.iter().all(|&v| v > 0.0);
        assert!(base.stats.values().all(positive), "{kind:?}");
        let prof = profile_plan(&pf.graph, &pf.plan, &base, &ExecOptions::default(), 2).unwrap();
        let audited = audit(&pf.graph, &pf.plan, &DeviceSpec::v100());
        assert_charged_as_audited(&format!("{kind:?}"), &prof, &audited);
        assert!(prof.steps().all(|s| s.runs == 2), "{kind:?}");
    }
}

/// A sink holds one plan's records. A decoder forward into a sink that
/// watched an encoder forward — through either door a layer runs, the
/// allocating `forward` or `forward_into` — is refused before it runs,
/// and the sink keeps exactly the encoder's records.
#[test]
fn a_sink_holding_one_plans_records_refuses_another_plan() {
    let dims = dims();
    let mut rng = StdRng::seed_from_u64(5);
    let w = EncoderWeights::init(&dims, &mut rng);
    let spec = Shape::from_spec("ibj", &dims.size_table()).unwrap();
    let x = Tensor::random(spec, &Uniform::new(-1.0, 1.0), &mut rng);
    let pf = interp::cached_plan(&dims, interp::PlanKind::EncoderFused).unwrap();
    let sink: ProfilerSink = Mutex::new(PlanProfiler::with_peak(&pf.graph, &pf.plan, 1.0));
    let opts = ExecOptions::builder().profiler(Some(&sink)).build();
    let encoder = EncoderLayer::new(dims, Executor::Fused, 0.0);
    let mut y = encoder.forward(&x, &w, &opts).unwrap().y;
    let decoder = DecoderLayer::new(dims, 0.0);
    let refused = |r: Result<(), TensorError>| matches!(r, Err(TensorError::Unsupported(_)));
    assert!(refused(decoder.forward(&x, &w, &opts).map(drop)));
    assert!(refused(decoder.forward_into(&x, &w, &opts, &mut y)));

    let prof = sink.into_inner().unwrap();
    let names: Vec<&str> = prof.steps().map(|s| s.account.name.as_str()).collect();
    let expect: Vec<&str> = pf.plan.steps.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, expect);
    assert!(prof.steps().all(|s| s.runs == 1));
}

/// A sink is made for one plan, dimensions included: the same schedule at
/// another sequence length has the same step names, and runs into the sink
/// through neither door — refused before a kernel runs, so the caller's
/// buffer keeps its words and the sink its one run of the plan it was made
/// for, each step charged that plan's words.
#[test]
fn a_sink_refuses_its_plan_at_other_dimensions() {
    let tiny = EncoderDims::tiny();
    let long = EncoderDims {
        j: 16,
        k: 16,
        ..tiny
    };
    let mut rng = StdRng::seed_from_u64(8);
    let w = EncoderWeights::init(&tiny, &mut rng);
    let input = |d: &EncoderDims, rng: &mut StdRng| {
        let spec = Shape::from_spec("ibj", &d.size_table()).unwrap();
        Tensor::random(spec, &Uniform::new(-1.0, 1.0), rng)
    };
    let (x, x_long) = (input(&tiny, &mut rng), input(&long, &mut rng));
    let pf = interp::cached_plan(&tiny, interp::PlanKind::EncoderFused).unwrap();
    let sink: ProfilerSink = Mutex::new(PlanProfiler::with_peak(&pf.graph, &pf.plan, 1.0));
    let opts = ExecOptions::builder().profiler(Some(&sink)).build();
    EncoderLayer::new(tiny, Executor::Fused, 0.0)
        .forward(&x, &w, &opts)
        .unwrap();

    let layer = EncoderLayer::new(long, Executor::Fused, 0.0);
    let refused = |r: Result<(), TensorError>| matches!(r, Err(TensorError::Unsupported(_)));
    assert!(refused(layer.forward(&x_long, &w, &opts).map(drop)));
    let mut y = Tensor::from_vec(x_long.shape().clone(), vec![7.0; x_long.len()]).unwrap();
    assert!(refused(layer.forward_into(&x_long, &w, &opts, &mut y)));
    assert!(y.data().iter().all(|&v| v == 7.0), "no kernel wrote `y`");

    let prof = sink.into_inner().unwrap();
    let audited = audit(&pf.graph, &pf.plan, &DeviceSpec::v100());
    assert_eq!(prof.steps().count(), pf.plan.steps.len());
    for (sp, sa) in prof.steps().zip(&audited.per_step) {
        assert_eq!(sp.runs, 1, "step {}", sp.account.name);
        assert_eq!(
            sp.account.q_words, sa.account.q_words,
            "step {}",
            sp.account.name
        );
    }
}

/// Every canned plan a layer or the model runs takes the caller's options:
/// a sink made for a block's backward plan or for the head, handed to the
/// public `backward` or `head_forward`, holds one record per step of its
/// plan, each of one run.
#[test]
fn a_sink_reaches_the_backward_and_the_head_through_their_public_entries() {
    let dims = dims();
    let mut rng = StdRng::seed_from_u64(9);
    let w = EncoderWeights::init(&dims, &mut rng);
    let spec = Shape::from_spec("ibj", &dims.size_table()).unwrap();
    let x = Tensor::random(spec.clone(), &Uniform::new(-1.0, 1.0), &mut rng);
    let dy = Tensor::random(spec, &Uniform::new(-1.0, 1.0), &mut rng);
    let forward = ExecOptions::builder().seed(4).build();
    let encoder = EncoderLayer::new(dims, Executor::Fused, 0.1);
    let decoder = DecoderLayer::new(dims, 0.1);
    let vocab = 11;
    let head = Tensor::random(
        Shape::new([('v', vocab), ('i', dims.i)]).unwrap(),
        &Uniform::new(-1.0, 1.0),
        &mut rng,
    );
    let bias = Tensor::zeros(Shape::new([('v', vocab)]).unwrap());
    for kind in [
        interp::PlanKind::EncoderTrain,
        interp::PlanKind::DecoderTrain,
        interp::PlanKind::Head { vocab },
    ] {
        let pf = interp::cached_plan(&dims, kind).unwrap();
        let sink: ProfilerSink = Mutex::new(PlanProfiler::with_peak(&pf.graph, &pf.plan, 1.0));
        let opts = ExecOptions::builder().profiler(Some(&sink)).build();
        match kind {
            interp::PlanKind::EncoderTrain => {
                let saved = encoder.forward(&x, &w, &forward).unwrap().saved;
                encoder.backward(&dy, &x, &w, &saved, &opts).map(drop)
            }
            interp::PlanKind::DecoderTrain => {
                let saved = decoder.forward(&x, &w, &forward).unwrap().saved;
                decoder.backward(&dy, &x, &w, &saved, &opts).map(drop)
            }
            _ => interp::head_forward(&dims, &x, &head, &bias, &opts).map(drop),
        }
        .unwrap();
        let prof = sink.into_inner().unwrap();
        assert_eq!(prof.steps().count(), pf.plan.steps.len(), "{kind:?}");
        assert!(prof.steps().all(|s| s.runs == 1), "{kind:?}");
    }
}

/// A backward runs its own plan, not the forward's: a sink made for the
/// forward plan and filled by one forward is refused by the backward
/// before any kernel runs, and keeps that forward's one run.
#[test]
fn a_forward_plans_sink_handed_to_the_backward_is_refused() {
    let dims = dims();
    let mut rng = StdRng::seed_from_u64(10);
    let w = EncoderWeights::init(&dims, &mut rng);
    let spec = Shape::from_spec("ibj", &dims.size_table()).unwrap();
    let x = Tensor::random(spec, &Uniform::new(-1.0, 1.0), &mut rng);
    let pf = interp::cached_plan(&dims, interp::PlanKind::EncoderFused).unwrap();
    let sink: ProfilerSink = Mutex::new(PlanProfiler::with_peak(&pf.graph, &pf.plan, 1.0));
    let opts = ExecOptions::builder().profiler(Some(&sink)).build();
    let layer = EncoderLayer::new(dims, Executor::Fused, 0.0);
    let (y, saved) = layer.forward(&x, &w, &opts).unwrap().into_pair().unwrap();
    let r = layer.backward(&y, &x, &w, &saved, &opts);
    assert!(matches!(r, Err(TensorError::Unsupported(_))), "{r:?}");
    let prof = sink.into_inner().unwrap();
    assert_eq!(prof.steps().count(), pf.plan.steps.len());
    assert!(prof.steps().all(|s| s.runs == 1));
}

/// The arena fills the sink itself: one handed straight to
/// `CompiledArena::execute_bound`, with no caller code around the run,
/// holds a record of every step of the plan.
#[test]
fn a_sink_handed_to_execute_bound_is_filled() {
    let dims = dims();
    let mut rng = StdRng::seed_from_u64(6);
    let w = EncoderWeights::init(&dims, &mut rng);
    let spec = Shape::from_spec("ibj", &dims.size_table()).unwrap();
    let x = Tensor::random(spec, &Uniform::new(-1.0, 1.0), &mut rng);
    let pf = interp::cached_plan(&dims, interp::PlanKind::EncoderFused).unwrap();
    let sink: ProfilerSink = Mutex::new(PlanProfiler::with_peak(&pf.graph, &pf.plan, 1.0));
    let opts = ExecOptions::builder().profiler(Some(&sink)).build();
    let arena = arena::compiled(&pf.graph, &pf.plan).unwrap();
    let resolve = &mut |name: &str| match name {
        "x" => x.natural_words(),
        _ => w.container(name),
    };
    arena
        .execute_bound(&opts, resolve, None, &mut |_| {})
        .unwrap();

    let prof = sink.into_inner().unwrap();
    assert_eq!(prof.steps().count(), pf.plan.steps.len());
    assert!(prof.steps().all(|s| s.runs == 1 && s.time_us > 0.0));
}

#[test]
fn reselection_never_measures_worse_than_natural() {
    let pf = interp::cached_plan(&dims(), interp::PlanKind::EncoderFused).unwrap();
    let fwd: Vec<_> = pf.plan.steps.iter().map(|s| s.op).collect();
    // simulator fallback keeps this deterministic and fast; the adoption
    // guard is what's under test, and it must hold for any fallback
    for run in 0..2u64 {
        let fallback: Box<dyn substation::core::sweep::PerfSource> = if run == 0 {
            Box::new(SimulatorSource::default())
        } else {
            Box::new(CpuSource::new(1))
        };
        let r = reselect_cost(
            &pf.graph,
            &pf.plan,
            &fwd,
            &DeviceSpec::v100(),
            fallback.as_ref(),
            SweepOptions {
                max_configs: Some(24),
                ..SweepOptions::default()
            },
            &ExecOptions::default(),
            3,
            run + 1,
            &CostModel::Flat,
        )
        .unwrap();
        assert!(
            r.best_us() <= r.natural_us(),
            "run {run}: adopted {:.1} µs worse than natural {:.1} µs",
            r.best_us(),
            r.natural_us()
        );
        if r.adopted {
            assert!(r.reselected_us() <= r.natural_us());
        } else {
            assert!(r.reselected_us() > r.natural_us());
        }
    }
}

/// What `profile_plan`, `reselect_cost`'s duel and every study stand their
/// environment up with must not make the kernels it times take the
/// subnormal microcode assist. With weights drawn at U(−1, 1) whatever
/// their fan-in, the attention scores at this shape saturate and the
/// softmax writes subnormals (counted at PR 16: 13 words each in `att` and
/// `alpha` of the encoder plans, 5 in the causal decoder ones); at
/// ±1/√fan-in, like `EncoderWeights::init`, one forward of every canned
/// plan leaves none in any container.
#[test]
fn random_externals_leave_no_subnormal_in_any_container() {
    use interp::PlanKind::*;
    let full = EncoderDims {
        b: 1,
        j: 16,
        k: 16,
        h: 4,
        p: 64,
        i: 256,
        u: 256,
    };
    let token = EncoderDims { j: 1, ..full };
    let kinds = [
        (EncoderReference, full),
        (EncoderFused, full),
        (EncoderEpilogue, full),
        (DecoderFused, full),
        (DecoderEpilogue, full),
        (DecoderStepProject, EncoderDims { k: 1, ..token }),
        (DecoderStep, token),
    ];
    for (kind, dims) in kinds {
        let pf = interp::cached_plan(&dims, kind).unwrap();
        let mut state = random_externals(&pf.graph, &pf.plan, 11).unwrap();
        let opts = ExecOptions::default();
        let mut rng = StdRng::seed_from_u64(opts.seed);
        execute_plan(&pf.graph, &pf.plan, &mut state, &opts, &mut rng).unwrap();
        for (name, t) in &state.env {
            let subnormal = t.data().iter().filter(|v| v.is_subnormal()).count();
            assert_eq!(subnormal, 0, "{kind:?}: `{name}` holds subnormal words");
        }
    }
}
