//! Cross-crate equivalence of the plan-driven execution engine: a plan
//! lowered from the full recipe (fuse → sweep → SSSP select) produces the
//! same encoder output as the reference executor; that recipe-selected
//! plan — strided operands, relayout insertions — certifies, compiles to
//! an arena like any other, equals the canned plan bit for bit and
//! returns the same bits whatever `threads` asks for; arbitrary layout
//! perturbations survive `reflow` unchanged in value; and malformed plans
//! are rejected by the static analyzer before any kernel runs. A canned
//! plan runs through its layer's `forward`; every other plan through the
//! door any plan takes, [`substation::core::arena::execute`], from the
//! inputs [`substation::transformer::interp::bind_inputs`] binds.

use proptest::prelude::*;
use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

use substation::core::analyze::{analyze, PlanLint, Severity};
use substation::core::arena;
use substation::core::plan::{ExecOptions, ExecState, ExecutionPlan};
use substation::core::sanitize::certify;
use substation::core::selection::select_forward;
use substation::core::sweep::{sweep_all, SimulatorSource, SweepOptions};
use substation::dataflow::EncoderDims;
use substation::gpusim::DeviceSpec;
use substation::tensor::{Layout, Shape, Tensor};
use substation::transformer::encoder::{EncoderLayer, Executor};
use substation::transformer::interp::{self, PlanKind};
use substation::transformer::params::EncoderWeights;

fn is_error_clean(plan: &ExecutionPlan, graph: &substation::dataflow::Graph) -> bool {
    analyze(graph, plan)
        .lints
        .iter()
        .all(|l| l.severity() != Severity::Error)
}

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

fn inputs(dims: &EncoderDims, seed: u64) -> (Tensor, EncoderWeights) {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = EncoderWeights::init(dims, &mut rng);
    let x = Tensor::random(
        Shape::from_spec("ibj", &dims.size_table()).unwrap(),
        &Uniform::new(-1.0, 1.0),
        &mut rng,
    );
    (x, w)
}

/// The layers' options at `p = 0`, `dropout_p` stated: `arena::execute`
/// merges no layer's in.
fn opts(seed: u64) -> ExecOptions<'static> {
    ExecOptions::builder().seed(seed).dropout_p(0.0).build()
}

/// `plan` over `graph` on its arena, from `x` and the weights: everything
/// the run left, `y` and the saved containers among it.
fn run_plan(
    graph: &substation::dataflow::Graph,
    plan: &ExecutionPlan,
    (x, w): (&Tensor, &EncoderWeights),
    opts: &ExecOptions,
) -> substation::tensor::Result<ExecState> {
    let mut state = interp::bind_inputs(x, w);
    arena::execute(graph, plan, &mut state, opts)?;
    Ok(state)
}

/// The reference executor's output for the given input (dropout off).
fn reference_y(dims: &EncoderDims, x: &Tensor, w: &EncoderWeights) -> Tensor {
    let layer = EncoderLayer::new(*dims, Executor::Reference, 0.0);
    layer.forward(x, w, &opts(3)).expect("reference forward").y
}

#[test]
fn recipe_lowered_plan_matches_reference_executor() {
    let dims = dims();
    let planned = interp::cached_plan(&dims, PlanKind::EncoderFused).unwrap();
    let fwd: Vec<_> = planned.plan.steps.iter().map(|s| s.op).collect();
    let sweeps = sweep_all(
        &SimulatorSource::default(),
        &planned.graph,
        SweepOptions {
            max_configs: Some(400),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    let sel = select_forward(&planned.graph, &DeviceSpec::v100(), &fwd, &sweeps).unwrap();
    let plan = ExecutionPlan::lower(&planned.graph, &sel).unwrap();
    assert!(is_error_clean(&plan, &planned.graph));

    let (x, w) = inputs(&dims, 17);
    let y_ref = reference_y(&dims, &x, &w);
    let y_sel = run_plan(&planned.graph, &plan, (&x, &w), &opts(3))
        .expect("plan-driven forward")
        .take("y")
        .unwrap();
    // layouts may differ; max_abs_diff compares logical elements
    assert!(
        y_sel.max_abs_diff(&y_ref).unwrap() < 1e-4,
        "recipe-selected plan diverged from the reference executor"
    );
}

// Lowers the recipe-selected plan and certifies it. Its strided layouts
// and relayout insertions compile to an arena at both granularities, the
// forward through it equals the canned plan's bit for bit (one kernel
// body, addressed through other strides), and `threads` changes neither
// the output values nor the materialized layout.
#[test]
fn parallel_execution_of_recipe_plan_is_bitwise_equal_to_serial() {
    let dims = dims();
    let planned = interp::cached_plan(&dims, PlanKind::EncoderFused).unwrap();
    let fwd: Vec<_> = planned.plan.steps.iter().map(|s| s.op).collect();
    let sweeps = sweep_all(
        &SimulatorSource::default(),
        &planned.graph,
        SweepOptions {
            max_configs: Some(400),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    let sel = select_forward(&planned.graph, &DeviceSpec::v100(), &fwd, &sweeps).unwrap();
    let plan = ExecutionPlan::lower(&planned.graph, &sel).unwrap();
    certify(&planned.graph, &plan).expect("the recipe-selected plan certifies");
    assert!(
        plan.strided_operand_count() > 0 && plan.relayout_count() > 0,
        "the selection must pick non-natural layouts and pay relayouts for them"
    );
    let arena = arena::compiled(&planned.graph, &plan).expect("the recipe-lowered plan compiles");
    assert!(arena.matches(&plan));

    let (x, w) = inputs(&dims, 29);
    let layer = EncoderLayer::new(dims, Executor::Fused, 0.0);
    let serial = opts(3);
    let run = |opts: &ExecOptions| run_plan(&planned.graph, &plan, (&x, &w), opts);
    let a_serial = run(&serial).expect("serial plan-driven forward");
    let y_serial = a_serial.get("y").unwrap();
    let canned = layer.forward(&x, &w, &opts(3)).expect("canned forward").y;
    assert_eq!(
        y_serial.max_abs_diff(&canned).unwrap().to_bits(),
        0,
        "the selected plan must equal the canned plan exactly"
    );
    for threads in [1usize, 2, 4, 8] {
        let run_opts = serial.to_builder().threads(threads).build();
        let a_par = run(&run_opts).expect("parallel plan-driven forward");
        let y_par = a_par.get("y").unwrap();
        assert_eq!(
            y_par.data(),
            y_serial.data(),
            "parallel output diverged at {threads} threads"
        );
        assert_eq!(y_par.layout(), y_serial.layout());
        for name in ["gamma", "ln1_in"] {
            let (par, serial) = (a_par.get(name).unwrap(), a_serial.get(name).unwrap());
            assert_eq!(par.data(), serial.data(), "`{name}` at {threads} threads");
        }
        assert_eq!(a_par.stats["y"].mean, a_serial.stats["y"].mean);
    }
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

    // Any valid per-operand layout perturbation of the fused schedule,
    // repaired by `reflow`, executes to the reference output.
    #[test]
    fn perturbed_plans_execute_to_the_same_output(seed in 0u64..1_000) {
        let dims = dims();
        let planned = interp::cached_plan(&dims, PlanKind::EncoderFused).unwrap();
        let mut plan = planned.plan.clone();
        let mut twist = StdRng::seed_from_u64(seed);
        for step in &mut plan.steps {
            for o in step.inputs.iter_mut().chain(step.outputs.iter_mut()) {
                let n = rand::Rng::gen_range(&mut twist, 0..4usize);
                o.layout = rotate(o.layout, n);
            }
        }
        plan.reflow(&planned.graph);
        prop_assert!(is_error_clean(&plan, &planned.graph));

        let (x, w) = inputs(&dims, seed ^ 0xABCD);
        let y_ref = reference_y(&dims, &x, &w);
        let y = run_plan(&planned.graph, &plan, (&x, &w), &opts(3))
            .expect("perturbed plan executes")
            .take("y")
            .unwrap();
        prop_assert!(y.max_abs_diff(&y_ref).unwrap() < 1e-4);
    }
}

#[test]
fn invalid_plans_are_rejected_before_execution() {
    let dims = dims();
    let planned = interp::cached_plan(&dims, PlanKind::EncoderFused).unwrap();
    let (x, w) = inputs(&dims, 5);
    let run = |plan: &ExecutionPlan, x: &Tensor, w: &EncoderWeights| {
        run_plan(&planned.graph, plan, (x, w), &opts(3))
    };

    // a layout of another rank than the container's
    let mut garbled = planned.plan.clone();
    let rank = garbled.steps[0].inputs[0].layout.rank();
    garbled.steps[0].inputs[0].layout = Layout::row_major(rank + 1);
    assert!(analyze(&planned.graph, &garbled)
        .lints
        .iter()
        .any(|l| matches!(l, PlanLint::BadLayout { .. })));
    assert!(run(&garbled, &x, &w).is_err());

    // a schedule missing the producer of a consumed container
    let mut truncated = planned.plan.clone();
    let mid = truncated.steps.len() / 2;
    truncated.steps.remove(mid);
    assert!(!is_error_clean(&truncated, &planned.graph));
    assert!(run(&truncated, &x, &w).is_err());
}
