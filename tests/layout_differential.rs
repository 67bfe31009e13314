//! Differential tests of the one executor against the oracle and against
//! itself, over layouts: every canned `PlanKind`, its operand layouts
//! randomly permuted (so `reflow` inserts relayouts wherever a consumer
//! now disagrees with its producer or with an earlier consumer), must
//!
//! * compute, on the arena, bit for bit what the reference interpreter
//!   (`execute_plan`, called directly) computes for the same strided plan
//!   at `p = 0`;
//! * compute, at `p = 0.3`, bit for bit what the *natural* plan computes
//!   on the arena — outputs, saved activations, dropout masks and
//!   layer-norm statistics: the drivers iterate in logical order and a
//!   mask is a function of its element's logical index, so neither a value
//!   nor a mask depends on a stride;
//! * compute, at `p = 0.3`, bit for bit what the reference interpreter
//!   computes for the same strided plan stepped one stream a step, each
//!   step keyed as the arena keys it (`stream_key(seed, stream_of(si))`);
//! * be the same bits serial and wave-parallel at 2 and 4 threads;
//! * materialize every container in the layout the plan declares for it.

mod common;

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use substation::core::arena;
use substation::core::plan::{
    execute_plan, execute_step, random_externals, ExecOptions, ExecState, ExecutionPlan,
};
use substation::dataflow::{EncoderDims, Graph};
use substation::tensor::{Layout, Tensor};
use substation::transformer::interp::{self, PlanKind, PlannedForward};

/// The eight canned plans, the decode-step ones at one query column and the
/// head over five words, and the head's un-epilogued twin.
fn plans() -> Vec<(EncoderDims, String, Arc<PlannedForward>)> {
    let dims = EncoderDims::tiny();
    let step = EncoderDims { j: 1, ..dims };
    let kinds = [
        (dims, PlanKind::EncoderReference),
        (dims, PlanKind::EncoderFused),
        (dims, PlanKind::EncoderEpilogue),
        (dims, PlanKind::DecoderFused),
        (dims, PlanKind::DecoderEpilogue),
        (step, PlanKind::DecoderStepProject),
        (step, PlanKind::DecoderStep),
        (dims, PlanKind::Head { vocab: 5 }),
    ];
    let canned = kinds.map(|(d, kind)| {
        (
            d,
            format!("{kind:?}"),
            interp::cached_plan(&d, kind).unwrap(),
        )
    });
    let twin = Arc::new(interp::head_fused(&dims, 5).unwrap());
    [Vec::from(canned), vec![(dims, "head twin".into(), twin)]].concat()
}

fn on_arena(graph: &Graph, plan: &ExecutionPlan, base: &ExecState, o: &ExecOptions) -> ExecState {
    let mut state = base.clone();
    arena::execute(graph, plan, &mut state, o).expect("the plan runs on the arena");
    state
}

/// The layout `plan` leaves the container `name` in.
fn left_in(plan: &ExecutionPlan, name: &str) -> Layout {
    let mut last = None;
    for step in &plan.steps {
        let relayouts = step.relayouts.iter().map(|r| (&r.name, r.to));
        let operands = step.inputs.iter().chain(&step.outputs);
        for (n, layout) in relayouts.chain(operands.map(|o| (&o.name, o.layout))) {
            if n == name {
                last = Some(layout);
            }
        }
    }
    last.expect("the plan touches what it produced")
}

fn row_major(t: &Tensor) -> Tensor {
    t.relayout(&Layout::row_major(t.shape().rank()))
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Everything `got` produced beyond `base` equals `want`'s, element for
/// logical element and statistic for statistic, bitwise.
fn assert_same_logical_bits(got: &ExecState, want: &ExecState, base: &ExecState, tag: &str) {
    let produced: Vec<&String> = got
        .env
        .keys()
        .filter(|n| !base.env.contains_key(*n))
        .collect();
    assert!(!produced.is_empty(), "{tag}: nothing materialized");
    for name in produced {
        let (g, w) = (row_major(&got.env[name]), row_major(&want.env[name]));
        assert!(bits(g.data()) == bits(w.data()), "{tag}: `{name}` differs");
    }
    assert_eq!(got.stats.len(), want.stats.len(), "{tag}: statistics");
    for (name, s) in &got.stats {
        assert!(
            bits(&s.mean) == bits(&want.stats[name].mean),
            "{tag}: `{name}` means"
        );
        assert!(
            bits(&s.inv_std) == bits(&want.stats[name].inv_std),
            "{tag}: `{name}` inv_std"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_plan_kind_in_any_layout_is_the_same_bits(seed in 0u64..10_000, pos in 0usize..4) {
        for (dims, name, pf) in plans() {
            let tag = format!("{name} seed {seed}");
            let (graph, natural) = (&pf.graph, &pf.plan);
            let strided = common::permuted(graph, natural, seed);
            let base = random_externals(graph, natural, seed ^ 0x5a5a).unwrap();
            let knobs = |p: f32, threads: usize| ExecOptions::builder()
                .dropout_p(p)
                .seed(seed)
                .threads(threads)
                .pos(pos.min(dims.k - 1))
                .build();

            // the oracle, on the same strided plan, without randomness
            let got = on_arena(graph, &strided, &base, &knobs(0.0, 1));
            let mut want = base.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            execute_plan(graph, &strided, &mut want, &knobs(0.0, 1), &mut rng).unwrap();
            assert_same_logical_bits(&got, &want, &base, &format!("{tag} vs oracle"));
            for (name, t) in got.env.iter().filter(|(n, _)| !base.env.contains_key(*n)) {
                // both executors materialize as declared, so raw buffers agree too
                prop_assert!(*t.layout() == left_in(&strided, name), "{} `{}`", tag, name);
                prop_assert!(t.layout() == want.env[name].layout(), "{} `{}`", tag, name);
                prop_assert!(bits(t.data()) == bits(want.env[name].data()), "{} `{}`", tag, name);
            }

            // the natural plan, on the same executor, with dropout
            let serial = on_arena(graph, &strided, &base, &knobs(0.3, 1));
            let canned = on_arena(graph, natural, &base, &knobs(0.3, 1));
            assert_same_logical_bits(&serial, &canned, &base, &format!("{tag} vs natural"));

            // the oracle with dropout, on the same strided plan, keyed step by
            // step as the arena keys its steps
            let mut keyed = base.clone();
            for (si, step) in strided.steps.iter().enumerate() {
                let key = &mut arena::stream_key(seed, strided.stream_of(si));
                execute_step(graph, step, &mut keyed, &knobs(0.3, 1), key).unwrap();
            }
            assert_same_logical_bits(&serial, &keyed, &base, &format!("{tag} vs keyed oracle"));

            // serial == waves
            for threads in [2usize, 4] {
                let waves = on_arena(graph, &strided, &base, &knobs(0.3, threads));
                assert_same_logical_bits(&waves, &serial, &base, &format!("{tag} at {threads} threads"));
                for (name, t) in &waves.env {
                    prop_assert!(t.layout() == serial.env[name].layout(), "{} `{}`", tag, name);
                }
            }
        }
    }
}
