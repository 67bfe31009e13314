//! Property tests for the plan certificate's race and declaration checks:
//! each injected corruption — an under-declared operand, an overlapping
//! aliased write, a wave-internal WAR race — must be rejected statically
//! by both certificate entries (`sanitize::certify`, or `certify_waves`
//! for an explicit partition, and `access::certify_access`), and never
//! reach a kernel on the arena: `CompiledArena::compile` refuses the plan
//! at both granularities and `arena::execute` at one and four threads. The
//! injected race partition cannot be handed to the arena at all; the
//! partition it dispatches instead runs the plan to the serial bits.

use proptest::prelude::*;

use xform_core::access::certify_access;
use xform_core::analyze::{analyze, ArenaGranularity, DepKind, PlanLint};
use xform_core::arena::{self, CompiledArena};
use xform_core::fusion::{apply_plan, encoder_fusion_plan};
use xform_core::plan::{random_externals, ExecOptions, ExecutionPlan};
use xform_core::recipe::forward_ops;
use xform_core::sanitize::{certify, certify_waves};
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

/// The arena refuses a tampered plan before any kernel runs: compiling it
/// fails, and a run at one and at four threads
/// fails with the environment — bound from the *untampered* plan, so every
/// legitimately-consumed container exists — holding no output.
fn refused_by_the_arena(
    graph: &Graph,
    sound: &ExecutionPlan,
    tampered: &ExecutionPlan,
) -> Result<(), String> {
    let analysis = analyze(graph, tampered);
    let compiled = CompiledArena::compile(graph, tampered, &analysis, ArenaGranularity::Serial);
    prop_assert!(compiled.is_err(), "the arena compiled a tampered plan");
    for threads in [1, 4] {
        let mut state = random_externals(graph, sound, 17).unwrap();
        let bound = state.env.len();
        let run = ExecOptions::builder().threads(threads).build();
        prop_assert!(arena::execute(graph, tampered, &mut state, &run).is_err());
        prop_assert!(
            state.env.len() == bound,
            "a kernel ran at {threads} threads"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Dropping any declared input operand under-declares the step's
    // footprint: both entries reject it with an explicit
    // UnderDeclaredFootprint lint, and the arena never runs it.
    #[test]
    fn under_declared_operand_is_rejected_by_both_entries(step_pick in 0usize..64, input_pick in 0usize..8) {
        for (g, sound) in [unfused(), fused()] {
            let mut plan = sound.clone();
            let si = step_pick % plan.steps.len();
            let step = &mut plan.steps[si];
            prop_assert!(!step.inputs.is_empty());
            let removed = step.inputs.remove(input_pick % step.inputs.len());
            // keep the relayout list consistent with the declared operands
            step.relayouts.retain(|r| r.data != removed.data);

            let under = |l: &PlanLint| matches!(
                l,
                PlanLint::UnderDeclaredFootprint { step, declared_words: 0, .. } if *step == si
            );
            let race = certify(&g, &plan).expect_err("under-declaration must not certify");
            prop_assert!(race.iter().any(under), "certify at step {si}: {race:?}");
            let access = certify_access(&g, &plan).expect_err("nor pass the access entry");
            prop_assert!(access.iter().any(under), "certify_access at step {si}: {access:?}");

            refused_by_the_arena(&g, &sound, &plan)?;
        }
    }

    // Renaming a step's output to another container's name makes two
    // distinct buffers share one environment slot — an overlapping write
    // through an alias. Rejected statically (NameAlias) by both entries,
    // and never run by the arena.
    #[test]
    fn aliased_overlapping_write_is_rejected_by_both_entries(step_pick in 0usize..64, victim_pick in 0usize..64) {
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

        let alias = |l: &PlanLint| matches!(l, PlanLint::NameAlias { step, .. } if *step == si);
        let race = certify(&g, &plan).expect_err("an aliased write must not certify");
        prop_assert!(race.iter().any(alias), "certify at step {si}: {race:?}");
        // the access entry's global scan names the step where the name
        // turns up the second time
        let access = certify_access(&g, &plan).expect_err("nor pass the access entry");
        let aliased = |l: &PlanLint| matches!(l, PlanLint::NameAlias { .. });
        prop_assert!(access.iter().any(aliased), "certify_access: {access:?}");

        refused_by_the_arena(&g, &sound, &plan)?;
    }

    // A container with two legitimate writers (slice-writer pattern) and a
    // reader between them carries a genuine WAR edge. Merging the reader's
    // and the rewriter's waves injects a wave-internal WAR race: the
    // certificate refuses the partition. The arena is never handed one —
    // it dispatches the partition it certifies itself, which keeps the
    // reader and the rewriter apart and runs the plan at four threads to
    // the bits of the serial run.
    #[test]
    fn wave_internal_war_race_is_rejected_and_never_dispatched(rows in 2usize..6, cols in 2usize..6) {
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

        let waves = CompiledArena::compile(&g, &plan, &analysis, ArenaGranularity::Serial)
            .unwrap()
            .unwrap()
            .certificate()
            .waves
            .clone();
        prop_assert!(!waves.iter().any(|w| w.contains(&1) && w.contains(&2)), "{waves:?}");
        let run = |threads: usize| {
            let mut state = random_externals(&g, &plan, 5).unwrap();
            let knobs = ExecOptions::builder().threads(threads).build();
            arena::execute(&g, &plan, &mut state, &knobs).unwrap();
            ["w", "z"].map(|name| state.env[name].data().to_vec())
        };
        let serial = run(1);
        for (got, want) in run(4).iter().zip(&serial) {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(got), bits(want));
        }
    }
}

// The tampered plans above must be rejected by the reference interpreter
// too: it gates every call on the analyzer's error lints.
#[test]
fn corrupted_plans_cannot_reach_execution() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let (g, sound) = fused();
    let mut under = sound.clone();
    under.steps[3].inputs.pop();
    let mut aliased = sound.clone();
    aliased.steps[2].outputs[0].name = sound.steps[5].outputs[0].name.clone();
    for plan in [&under, &aliased] {
        let mut state = random_externals(&g, &sound, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let err =
            xform_core::plan::execute_plan(&g, plan, &mut state, &ExecOptions::default(), &mut rng)
                .expect_err("the serial interpreter refuses error-lint plans");
        assert!(err.to_string().contains("invalid execution plan"), "{err}");
        for threads in [1, 4] {
            let run = ExecOptions::builder().threads(threads).build();
            let err = arena::execute(&g, plan, &mut state, &run)
                .expect_err("the arena refuses error-lint plans at compile");
            assert!(err.to_string().contains("invalid execution plan"), "{err}");
        }
        assert!(certify(&g, plan).is_err());
    }
}
