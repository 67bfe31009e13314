//! The `StridedInnerLoop` path, end to end: a deliberately strided
//! schedule (the softmax input's layout rotated so the reduce axis is no
//! longer innermost, plus random layout twists elsewhere) is demoted by
//! the access certifier's performance lint — the step no longer counts as
//! unit-stride, so its kernel runs the strided instantiation of the one
//! lane body — compiles to an arena like the canned plan and must compute
//! exactly what the canned unit-stride plan computes, with the run bitwise
//! identical at every thread count asked for. Dropout is off, so no RNG
//! stream is consumed and any divergence is a kernel-dispatch bug, not
//! noise.
//!
//! The schedule is the fused encoder with its attention core as the three
//! steps `QKT`, `SM`, `Gamma` — what the fusion table alone gives, and what
//! every recipe-lowered plan runs. The canned plan it is held against runs
//! the core as one region, so the comparison also holds the region to the
//! chain it replaced, through the layer.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use substation::core::access::certify_access;
use substation::core::analyze::{analyze, PlanLint, Severity};
use substation::core::arena;
use substation::core::fusion::{apply_plan, encoder_fusion_plan};
use substation::core::plan::{ExecOptions, ExecutionPlan};
use substation::core::recipe::forward_ops;
use substation::core::sanitize::certify;
use substation::dataflow::{build, EncoderDims, Graph};
use substation::tensor::{Layout, Shape, Tensor};
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

/// The fused encoder forward in natural layouts, `SM` a step of its own.
fn three_step_core(dims: &EncoderDims) -> (Graph, ExecutionPlan) {
    let eg = build::encoder(dims);
    let mut graph = eg.graph;
    apply_plan(&mut graph, &encoder_fusion_plan()).unwrap();
    let plan = ExecutionPlan::natural(&graph, &forward_ops(&graph, eg.dy)).unwrap();
    (graph, plan)
}

/// Rotates `layout` left by `n`.
fn rotate(layout: Layout, n: usize) -> Layout {
    let mut order: Vec<usize> = layout.order().collect();
    let n = n % order.len().max(1);
    order.rotate_left(n);
    Layout::from_order(&order).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // A strided softmax input runs the strided instantiation of the
    // softmax body (StridedInnerLoop warning, step not unit-stride): same
    // values as the canned plan, at any thread count.
    #[test]
    fn strided_plan_demotes_and_wave_parallel_matches_serial_bitwise(
        seed in 0u64..1_000,
        twist in 0u64..1_000,
    ) {
        let dims = dims();
        let (graph, mut plan) = three_step_core(&dims);

        // force the strided lanes: the softmax input's reduce axis leaves the
        // innermost position, so its access path gains an inner stride
        let si = plan.steps.iter().position(|s| s.name == "SM").unwrap();
        // (right by one: left by the rank less one)
        let sm_in = &mut plan.steps[si].inputs[0].layout;
        *sm_in = rotate(*sm_in, sm_in.rank() - 1);
        // and twist a few other operands for variety
        let mut r = StdRng::seed_from_u64(twist);
        for step in &mut plan.steps {
            for o in step.inputs.iter_mut().chain(step.outputs.iter_mut()) {
                let n = rand::Rng::gen_range(&mut r, 0..3usize);
                if n > 0 {
                    o.layout = rotate(o.layout, n);
                }
            }
        }
        plan.reflow(&graph);
        prop_assert!(analyze(&graph, &plan).lints
            .iter()
            .all(|l| l.severity() != Severity::Error));

        // the access certifier still certifies the plan (strided is a
        // warning, not an error) and records the step as not unit-stride
        let acc = certify_access(&graph, &plan)
            .expect("a strided plan certifies with warnings");
        prop_assert!(
            acc.lints
                .iter()
                .any(|l| matches!(l, PlanLint::StridedInnerLoop { .. })),
            "the rotated layout must surface a StridedInnerLoop warning"
        );
        prop_assert!(
            !acc.unit_stride(si),
            "the strided softmax step must not count as unit-stride"
        );

        certify(&graph, &plan).expect("race certification");
        let mut rng = StdRng::seed_from_u64(seed);
        let w = EncoderWeights::init(&dims, &mut rng);
        let x = Tensor::random(
            Shape::from_spec("ibj", &dims.size_table()).unwrap(),
            &rand::distributions::Uniform::new(-1.0, 1.0),
            &mut rng,
        );
        let layer = EncoderLayer::new(dims, Executor::Fused, 0.0);
        // the strided plan on its own arena, from the layer's inputs
        let strided = |opts: &ExecOptions| {
            let mut state = interp::bind_inputs(&x, &w);
            arena::execute(&graph, &plan, &mut state, opts).map(|()| state.take("y").unwrap())
        };
        let serial = ExecOptions::builder().seed(3).dropout_p(0.0).build();
        let y_serial = strided(&serial).expect("serial forward of the strided plan");
        // both instantiations are one body: the strided plan computes the
        // canned (unit-stride) plan's values exactly
        let y_canned = layer
            .forward(&x, &w, &ExecOptions::builder().seed(3).build())
            .expect("forward of the canned plan")
            .y;
        prop_assert_eq!(y_serial.max_abs_diff(&y_canned).unwrap(), 0.0);
        for threads in [2usize, 4, 8] {
            let run = serial.to_builder().threads(threads).build();
            let y_par = strided(&run).expect("wave-parallel forward of the strided plan");
            prop_assert_eq!(y_par.data(), y_serial.data());
            prop_assert_eq!(y_par.layout(), y_serial.layout());
        }
    }
}
