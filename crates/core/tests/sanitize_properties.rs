//! Property tests for the footprint sanitizer and race certifier: each
//! injected corruption — an under-declared operand, an overlapping
//! aliased write, a wave-internal WAR race — must be rejected statically
//! by `certify`/`certify_waves`, and caught dynamically by the shadow
//! interpreter when the static check is bypassed
//! (`execute_plan_sanitized` runs without the lint gate).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use xform_core::analyze::{analyze, DepKind, PlanLint};
use xform_core::fusion::{apply_plan, encoder_fusion_plan};
use xform_core::plan::{random_externals, ExecOptions, ExecutionPlan};
use xform_core::recipe::forward_ops;
use xform_core::sanitize::{certify, certify_waves, execute_plan_sanitized};
use xform_dataflow::{build, DataRole, EncoderDims, Graph, OpKind};
use xform_tensor::Shape;

fn fused() -> (Graph, ExecutionPlan) {
    let eg = build::encoder(&EncoderDims::tiny());
    let mut g = eg.graph;
    apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
    let plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
    (g, plan)
}

fn unfused() -> (Graph, ExecutionPlan) {
    let eg = build::encoder(&EncoderDims::tiny());
    let plan = ExecutionPlan::natural(&eg.graph, &forward_ops(&eg.graph, eg.dy)).unwrap();
    (eg.graph, plan)
}

fn opts() -> ExecOptions<'static> {
    ExecOptions::builder().scaler(1.0 / (3f32).sqrt()).build()
}

/// Runs the shadow interpreter over a (possibly corrupted) plan with the
/// static gate bypassed, binding externals from the *untampered* plan so
/// every legitimately-consumed container exists.
fn shadow_run(
    graph: &Graph,
    sound: &ExecutionPlan,
    tampered: &ExecutionPlan,
    waves: Option<&[Vec<usize>]>,
) -> xform_tensor::Result<()> {
    let mut state = random_externals(graph, sound, 17).unwrap();
    let mut rng = StdRng::seed_from_u64(23);
    execute_plan_sanitized(graph, tampered, &mut state, &opts(), &mut rng, waves)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Dropping any declared input operand under-declares the step's
    // footprint: the certifier rejects it (with an explicit
    // UnderDeclaredFootprint lint), and the shadow interpreter catches
    // the kernel touching the undeclared container at runtime.
    #[test]
    fn under_declared_operand_is_rejected_and_caught(step_pick in 0usize..64, input_pick in 0usize..8) {
        for (g, sound) in [unfused(), fused()] {
            let mut plan = sound.clone();
            let si = step_pick % plan.steps.len();
            let step = &mut plan.steps[si];
            prop_assert!(!step.inputs.is_empty());
            let removed = step.inputs.remove(input_pick % step.inputs.len());
            // keep the relayout list consistent with the declared operands
            step.relayouts.retain(|r| r.data != removed.data);

            let lints = certify(&g, &plan).expect_err("under-declaration must not certify");
            prop_assert!(
                lints.iter().any(|l| matches!(
                    l,
                    PlanLint::UnderDeclaredFootprint { step, declared_words: 0, .. } if *step == si
                )),
                "expected an UnderDeclaredFootprint lint at step {si}, got {lints:?}"
            );

            let err = shadow_run(&g, &sound, &plan, None)
                .expect_err("the shadow interpreter must catch the undeclared access");
            prop_assert!(err.to_string().contains("sanitizer") || !err.to_string().is_empty());
        }
    }

    // Renaming a step's output to another container's name makes two
    // distinct buffers share one environment slot — an overlapping write
    // through an alias. Rejected statically (NameAlias), caught
    // dynamically by the per-step name check.
    #[test]
    fn aliased_overlapping_write_is_rejected_and_caught(step_pick in 0usize..64, victim_pick in 0usize..64) {
        let (g, sound) = fused();
        let mut plan = sound.clone();
        let n = plan.steps.len();
        let si = step_pick % n;
        let vi = victim_pick % n;
        let victim = plan.steps[vi].outputs[0].name.clone();
        if plan.steps[si].outputs[0].name == victim {
            return Ok(()); // picked itself; nothing aliased
        }
        plan.steps[si].outputs[0].name = victim;

        let lints = certify(&g, &plan).expect_err("an aliased write must not certify");
        prop_assert!(
            lints.iter().any(|l| matches!(l, PlanLint::NameAlias { step, .. } if *step == si)),
            "expected a NameAlias lint at step {si}, got {lints:?}"
        );

        let err = shadow_run(&g, &sound, &plan, None)
            .expect_err("the shadow interpreter must catch the alias");
        prop_assert!(err.to_string().contains("alias"), "{err}");
    }

    // A container with two legitimate writers (slice-writer pattern) and a
    // reader between them carries a genuine WAR edge. Merging the reader's
    // and the rewriter's waves injects a wave-internal WAR race: the
    // certifier refuses the partition, and the shadow interpreter flags
    // the same conflict when handed the partition directly.
    #[test]
    fn wave_internal_war_race_is_rejected_and_caught(rows in 2usize..6, cols in 2usize..6) {
        let mut g = Graph::new();
        let shape = || Shape::new([('b', rows), ('i', cols)]).unwrap();
        let a = g.add_data("a", shape(), DataRole::Input);
        let b = g.add_data("b", shape(), DataRole::Input);
        let c = g.add_data("c", shape(), DataRole::Input);
        let y = g.add_data("y", shape(), DataRole::Activation);
        let w = g.add_data("w", shape(), DataRole::Output);
        let z = g.add_data("z", shape(), DataRole::Output);
        let first = g.add_op("first write", OpKind::Residual, &[a, b], &[y]);
        let reader = g.add_op("reader", OpKind::Residual, &[y, a], &[w]);
        let rewrite = g.add_op("rewrite", OpKind::Residual, &[a, c], &[y]);
        let sink = g.add_op("sink", OpKind::Residual, &[y, w], &[z]);
        let plan = ExecutionPlan::natural(&g, &[first, reader, rewrite, sink]).unwrap();

        // sound: the analyzer serializes the WAR hazard and certifies
        let analysis = analyze(&g, &plan);
        prop_assert!(analysis.is_clean(), "{:?}", analysis.errors());
        prop_assert!(
            analysis.deps.iter().any(|e| e.kind == DepKind::War && e.from == 1 && e.to == 2),
            "expected a WAR edge reader→rewrite, got {:?}",
            analysis.deps
        );
        certify(&g, &plan).expect("the serialized schedule certifies");

        // injected: reader and rewriter share a wave
        let racy = vec![vec![0], vec![1, 2], vec![3]];
        let lints = certify_waves(&g, &plan, &racy).expect_err("a WAR race within a wave");
        prop_assert!(
            lints.iter().any(|l| matches!(
                l,
                PlanLint::WaveHazard { kind: DepKind::War, from: 1, to: 2, .. }
            )),
            "expected a WAR WaveHazard, got {lints:?}"
        );

        let err = shadow_run(&g, &plan, &plan, Some(&racy))
            .expect_err("the shadow interpreter must flag the racy partition");
        prop_assert!(err.to_string().contains("race"), "{err}");
    }
}

// The tampered plans above must be rejected by the production entry
// points too: the reference interpreter gates every call on the same error
// lints the certifier aggregates, and the arena — where every plan runs —
// holds them to that gate, plus the wave proof, before it compiles
// anything.
#[test]
fn corrupted_plans_cannot_reach_execution() {
    use rand::Rng;
    let (g, sound) = fused();
    let mut under = sound.clone();
    under.steps[3].inputs.pop();
    let mut aliased = sound.clone();
    aliased.steps[2].outputs[0].name = sound.steps[5].outputs[0].name.clone();
    for plan in [&under, &aliased] {
        let mut state = random_externals(&g, &sound, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = rng.gen::<u32>();
        let err = xform_core::plan::execute_plan(&g, plan, &mut state, &opts(), &mut rng)
            .expect_err("the serial interpreter refuses error-lint plans");
        assert!(err.to_string().contains("invalid execution plan"), "{err}");
        for threads in [1, 4] {
            let run = opts().to_builder().threads(threads).build();
            let err = xform_core::arena::execute(&g, plan, &mut state, &run)
                .expect_err("the arena refuses error-lint plans at compile");
            assert!(err.to_string().contains("invalid execution plan"), "{err}");
        }
        assert!(certify(&g, plan).is_err());
    }
}
