//! Property tests for the plan certificate's access checks: every
//! injected access corruption — an out-of-bounds retarget, a strided inner
//! loop, an intra-step write/read alias, a dropped operand, a tampered
//! arena slot — must surface as the right typed lint statically from both
//! certificate entries (`access::certify_access`, `sanitize::certify`), and
//! the plan-level corruptions must never reach a kernel on the arena:
//! `CompiledArena::compile` refuses them at both granularities and
//! `arena::execute` at one and four threads.

use proptest::prelude::*;

use xform_core::access::{certify_access, step_accesses};
use xform_core::analyze::{analyze, assign_arena, ArenaGranularity, PlanLint, Severity};
use xform_core::arena::{self, CompiledArena};
use xform_core::fusion::{apply_plan, encoder_fusion_plan};
use xform_core::plan::{random_externals, ExecOptions, ExecutionPlan};
use xform_core::recipe::forward_ops;
use xform_core::sanitize::{certify, certify_plan};
use xform_dataflow::{build, EncoderDims, Graph};
use xform_tensor::Layout;

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
/// fails with the environment — bound from the untampered plan — holding
/// no output.
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

/// Rotates a layout left by one: `hbjk` → `bjkh`. On a rank > 1 swept
/// container this moves the innermost axis, de-vectorizing the kernel's
/// inner loop.
fn rotate(layout: Layout) -> Layout {
    let mut order: Vec<usize> = layout.order().collect();
    order.rotate_left(1);
    Layout::from_order(&order).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Retargeting an input operand (data + environment name) at a
    // strictly smaller container leaves the kernel sweeping the original
    // edge's words through a buffer that cannot hold them: both entries
    // prove the escape (UnprovenAccess, error severity), and the arena
    // refuses the plan before the kernel runs.
    #[test]
    fn out_of_bounds_retarget_is_convicted_and_caught(
        step_pick in 0usize..64, input_pick in 0usize..8,
    ) {
        for (g, sound) in [unfused(), fused()] {
            // the smallest container named anywhere in the plan (a bias)
            let victim = sound
                .steps
                .iter()
                .flat_map(|s| s.inputs.iter())
                .min_by_key(|o| g.data(o.data).unwrap().shape.num_elements())
                .unwrap()
                .clone();
            let victim_words = g.data(victim.data).unwrap().shape.num_elements();

            // pick a (step, input) whose edge is strictly larger than the
            // victim and which doesn't already touch the victim's name
            let mut plan = sound.clone();
            let n = plan.steps.len();
            let pick = (0..n)
                .flat_map(|si| (0..plan.steps[si].inputs.len()).map(move |k| (si, k)))
                .cycle()
                .skip(step_pick * 7 + input_pick)
                .take(n * 8)
                .find(|&(si, k)| {
                    let s = &plan.steps[si];
                    let edge = g.inputs_of(s.op)[k];
                    g.data(edge).unwrap().shape.num_elements() > victim_words
                        && s.inputs.iter().all(|o| o.name != victim.name)
                        && s.outputs.iter().all(|o| o.name != victim.name)
                });
            let Some((si, k)) = pick else { return Ok(()) };
            plan.steps[si].inputs[k].data = victim.data;
            plan.steps[si].inputs[k].name = victim.name.clone();
            plan.steps[si].relayouts.clear();

            let lints = certify_access(&g, &plan)
                .expect_err("an out-of-bounds retarget must not certify");
            prop_assert!(
                lints.iter().any(|l| matches!(
                    l,
                    PlanLint::UnprovenAccess { step, .. } if *step == si
                )),
                "expected an UnprovenAccess lint at step {si}, got {lints:?}"
            );
            prop_assert!(
                lints.iter().any(|l| l.severity() == Severity::Error),
                "the conviction must be error severity"
            );
            let race = certify(&g, &plan).expect_err("nor pass the race entry");
            prop_assert!(race.iter().any(|l| matches!(
                l,
                PlanLint::UnprovenAccess { step, .. } if *step == si
            )), "certify at step {si}: {race:?}");

            refused_by_the_arena(&g, &sound, &plan)?;
        }
    }

    // Rotating a swept operand's layout moves the kernel's inner loop off
    // the contiguous axis. That is not a safety violation — the certifier
    // still certifies — but the step stops counting as unit-stride
    // (StridedInnerLoop, warning severity): its kernel will run the
    // strided instantiation.
    #[test]
    fn strided_inner_loop_demotes_but_does_not_reject(step_pick in 0usize..64) {
        let (g, sound) = fused();
        let baseline = certify_access(&g, &sound).expect("the canned plan certifies");
        // pick a unit-stride step whose first input, once rotated, genuinely
        // sweeps with a non-unit inner stride (a singleton axis moved to
        // the innermost slot would leave the walk contiguous)
        let n = sound.steps.len();
        let mut found = None;
        for off in 0..n {
            let si = (step_pick + off) % n;
            if !baseline.unit_stride(si) {
                continue;
            }
            let s = &sound.steps[si];
            let Some(op0) = s.inputs.first() else { continue };
            if op0.layout.rank() < 2 {
                continue;
            }
            let mut step = s.clone();
            step.inputs[0].layout = rotate(op0.layout);
            let sa = step_accesses(&g, &step);
            if sa
                .accesses
                .iter()
                .any(|a| a.swept && a.path.inner_stride() != 1)
            {
                found = Some((si, step));
                break;
            }
        }
        let Some((si, step)) = found else { return Ok(()) };
        let mut plan = sound.clone();
        plan.steps[si] = step;

        let cert = certify_access(&g, &plan)
            .expect("a strided loop is a demotion, not a rejection");
        prop_assert!(
            !cert.unit_stride(si),
            "step {si} must stop counting as unit-stride after the layout rotation"
        );
        prop_assert!(
            cert.lints.iter().any(|l| matches!(
                l,
                PlanLint::StridedInnerLoop { step, .. } if *step == si
            )),
            "expected a StridedInnerLoop lint at step {si}, got {:?}",
            cert.lints
        );
        prop_assert!(
            cert.lints
                .iter()
                .all(|l| l.severity() == Severity::Warning),
            "strided demotions are warnings, never errors"
        );
    }

    // Pointing a step's output at one of its own input containers is a
    // write/read overlap the certificate never grants: rejected with an
    // error lint by both entries, and never run by the arena.
    #[test]
    fn intra_step_alias_is_convicted_and_caught(step_pick in 0usize..64) {
        let (g, sound) = fused();
        let n = sound.steps.len();
        // pick a step with a same-shape input/output pair so the only
        // defect is the alias itself (not a size mismatch)
        let pick = (0..n)
            .cycle()
            .skip(step_pick)
            .take(n)
            .find(|&si| {
                let s = &sound.steps[si];
                s.inputs.first().zip(s.outputs.first()).is_some_and(|(i, o)| {
                    g.data(i.data).unwrap().shape.num_elements()
                        == g.data(o.data).unwrap().shape.num_elements()
                })
            });
        let Some(si) = pick else { return Ok(()) };
        let mut plan = sound.clone();
        // the output now writes through the input's container while still
        // declaring its own name: a same-data write/read overlap
        plan.steps[si].outputs[0].data = plan.steps[si].inputs[0].data;

        let unproven = |l: &PlanLint| matches!(
            l,
            PlanLint::UnprovenAccess { step, .. } if *step == si
        );
        let lints = certify_access(&g, &plan)
            .expect_err("an intra-step write/read alias must not certify");
        prop_assert!(lints.iter().any(unproven), "certify_access at step {si}: {lints:?}");
        let race = certify(&g, &plan).expect_err("nor pass the race entry");
        prop_assert!(race.iter().any(unproven), "certify at step {si}: {race:?}");

        refused_by_the_arena(&g, &sound, &plan)?;
    }

    // Dropping any declared input is an under-declaration the access entry
    // convicts as well as the race entry: what a step touches is derived
    // once, from the graph's edges, whatever the declarations say.
    #[test]
    fn a_dropped_input_is_convicted_by_the_access_entry(step_pick in 0usize..64, input_pick in 0usize..8) {
        for (g, sound) in [unfused(), fused()] {
            let mut plan = sound.clone();
            let si = step_pick % plan.steps.len();
            let k = input_pick % plan.steps[si].inputs.len();
            let removed = plan.steps[si].inputs.remove(k);
            plan.steps[si].relayouts.retain(|r| r.data != removed.data);
            let lints = certify_access(&g, &plan).expect_err("a dropped input must not certify");
            prop_assert!(lints.iter().any(|l| matches!(
                l,
                PlanLint::UnderDeclaredFootprint { step, declared_words: 0, .. } if *step == si
            )), "certify_access at step {si}: {lints:?}");
            prop_assert!(certify(&g, &plan).is_err());
        }
    }

    // Tampering with the arena coloring — shrinking a slot under its
    // container — breaks the slab embedding: the certificate over the
    // coloring convicts it even though the logical certificate is clean.
    #[test]
    fn shrunken_arena_slot_is_convicted(victim_pick in 0usize..64) {
        let (g, plan) = fused();
        let analysis = analyze(&g, &plan);
        let (mut arena, waves) = (assign_arena(&analysis), analysis.parallel_waves());
        let pass = |arena: &_| certify_plan(&g, &plan, &analysis, &waves, Some(arena));
        pass(&arena).expect("the untampered coloring certifies");

        let shrinkable: Vec<usize> = (0..arena.slots.len())
            .filter(|&i| arena.slots[i].words > 1)
            .collect();
        prop_assert!(!shrinkable.is_empty());
        let vi = shrinkable[victim_pick % shrinkable.len()];
        arena.slots[vi].words /= 2;

        let lints = pass(&arena).expect_err("a shrunken slot must not certify");
        prop_assert!(
            lints.iter().any(|l| matches!(l, PlanLint::UnprovenAccess { .. })),
            "expected an UnprovenAccess conviction, got {lints:?}"
        );
    }
}
