//! Generated-graph differential tests: the plan certificate beyond the
//! canned plans. Each case builds a small random DAG of `Bias`, `Scale`,
//! `Softmax`, `LayerNorm`, `Dropout`, `Relu`, `Residual` and `Einsum`
//! operators and of the backward kinds `ReluGrad`, `DropoutGrad`,
//! `SoftmaxGrad`, `LayerNormGradX`, `LayerNormGradW` and `BiasGrad` over
//! `[b, j, k]` activations with `j ≠ k` — each operand in a random layout,
//! the relayouts between them inserted by `reflow` — and holds two
//! properties:
//!
//! * a plan the certificate accepts runs on the arena, in its poison mode,
//!   at one and at four threads, to the bits of the reference interpreter
//!   (forward kinds) and of the allocating `xform_tensor::ops` functions
//!   (backward kinds) at `p = 0`, a backward norm reading the statistics its
//!   forward norm left;
//! * over random wave partitions, the certificate accepts a partition
//!   exactly when every analyzer hazard edge crosses it forward and no two
//!   steps of one wave share a container that either writes or re-lays
//!   out.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xform_core::analyze::analyze;
use xform_core::arena;
use xform_core::plan::{
    execute_step, random_externals, ExecOptions, ExecState, ExecutionPlan, SanitizeMode,
};
use xform_core::sanitize::{certify, certify_waves};
use xform_dataflow::{DataRole, Graph, NodeId, OpKind};
use xform_tensor::einsum::EinsumSpec;
use xform_tensor::ops::dropout::dropout_backward;
use xform_tensor::ops::elementwise::{activate_backward, bias_grad, ActivationKind};
use xform_tensor::ops::layernorm::{layernorm_backward_input, layernorm_backward_weights};
use xform_tensor::ops::softmax::softmax_backward;
use xform_tensor::{Axis, Layout, Result, Shape, Tensor};

/// `(b, j, k)`: every activation is `[b, j, k]`, and `j ≠ k`.
const DIMS: [(char, usize); 3] = [('b', 2), ('j', 3), ('k', 5)];

fn activation() -> Shape {
    Shape::new(DIMS).unwrap()
}

/// A random DAG of `ops` operators over two inputs, and its plan in
/// random operand layouts. Every activation no later operator reads is an
/// output.
fn generated(seed: u64, ops: usize) -> (Graph, ExecutionPlan) {
    let mut rng = StdRng::seed_from_u64(seed);
    // what each operator is and which earlier values it reads; values are
    // the two inputs, then every operator's outputs in order
    let mut program: Vec<(usize, Vec<usize>, usize)> = Vec::new();
    let mut values = 2usize;
    for _ in 0..ops {
        let kind = rng.gen_range(0..14);
        // the residual and the backward kinds read a gradient and a second
        // activation (the forward's output, input or mask)
        let arity = if kind == 6 || (8..13).contains(&kind) {
            2
        } else {
            1
        };
        let reads: Vec<usize> = (0..arity).map(|_| rng.gen_range(0..values)).collect();
        // a layer-norm or bias dW writes gradients of the weights, which no
        // later operator reads
        let writes = match kind {
            4 => 2,
            12 | 13 => 0,
            _ => 1,
        };
        program.push((kind, reads, writes));
        values += writes;
    }
    let read: Vec<bool> = (0..values)
        .map(|v| program.iter().any(|(_, reads, _)| reads.contains(&v)))
        .collect();

    let mut g = Graph::new();
    let mut ids: Vec<NodeId> = ["x0", "x1"]
        .map(|n| g.add_data(n, activation(), DataRole::Input))
        .to_vec();
    let mut order = Vec::new();
    for (n, (kind, reads, writes)) in program.into_iter().enumerate() {
        let role = |v: usize| {
            if read[v] {
                DataRole::Activation
            } else {
                DataRole::Output
            }
        };
        let outs: Vec<NodeId> = (0..writes)
            .map(|w| g.add_data(format!("v{n}_{w}"), activation(), role(ids.len() + w)))
            .collect();
        let mut ins: Vec<NodeId> = reads.iter().map(|&v| ids[v]).collect();
        let axis = Axis(DIMS[rng.gen_range(0..3)].0);
        let along = |g: &mut Graph, name: &str, role| {
            let n = DIMS.iter().find(|d| d.0 == axis.0).unwrap().1;
            g.add_data(name, Shape::new([(axis.0, n)]).unwrap(), role)
        };
        // a backward norm's forward: a layer norm over a private scaled copy
        // of its activation, which the backward reads as the norm's input
        let norm_input = |g: &mut Graph, ins: &mut Vec<NodeId>, order: &mut Vec<NodeId>| {
            let x = g.add_data(format!("s{n}"), activation(), DataRole::Activation);
            order.push(g.add_op(format!("scale{n}"), OpKind::Scale, &[ins[1]], &[x]));
            let gamma = along(g, &format!("gamma{n}"), DataRole::Weight);
            let beta = along(g, &format!("beta{n}"), DataRole::Weight);
            let y = g.add_data(format!("y{n}"), activation(), DataRole::Output);
            let norm = OpKind::LayerNorm { axis };
            order.push(g.add_op(format!("norm{n}"), norm, &[x, gamma, beta], &[y]));
            ins[1] = x;
            gamma
        };
        let mut outs = outs;
        let op = match kind {
            0 => {
                ins.push(along(&mut g, &format!("bias{n}"), DataRole::Weight));
                OpKind::Bias { axes: vec![axis] }
            }
            1 => OpKind::Scale,
            2 => OpKind::Softmax { axis },
            3 => {
                ins.push(along(&mut g, &format!("gamma{n}"), DataRole::Weight));
                ins.push(along(&mut g, &format!("beta{n}"), DataRole::Weight));
                OpKind::LayerNorm { axis }
            }
            4 => OpKind::Dropout,
            5 => OpKind::Relu,
            6 => OpKind::Residual,
            8 => OpKind::ReluGrad,
            9 => OpKind::DropoutGrad,
            10 => OpKind::SoftmaxGrad { axis },
            11 => {
                let gamma = norm_input(&mut g, &mut ins, &mut order);
                ins.push(gamma);
                OpKind::LayerNormGradX { axis }
            }
            12 => {
                norm_input(&mut g, &mut ins, &mut order);
                let names = ["dgamma", "dbeta"].map(|w| format!("{w}{n}"));
                outs = names.map(|w| along(&mut g, &w, DataRole::Output)).to_vec();
                OpKind::LayerNormGradW { axis }
            }
            13 => {
                outs = vec![along(&mut g, &format!("dbias{n}"), DataRole::Output)];
                OpKind::BiasGrad { axes: vec![axis] }
            }
            _ => {
                // contract `j` or `k` against a square weight, read first
                // (a projection, bound as its panel pack) or second
                let (m, spec) = match rng.gen_bool(0.5) {
                    true => (5, ["bjm,mk->bjk", "mk,bjm->bjk"]),
                    false => (3, ["bmk,jm->bjk", "jm,bmk->bjk"]),
                };
                let shape = Shape::new([('m', m), ('n', m)]).unwrap();
                let w = g.add_data(format!("w{n}"), shape, DataRole::Weight);
                let first = rng.gen_bool(0.5);
                match first {
                    true => ins.insert(0, w),
                    false => ins.push(w),
                }
                OpKind::Einsum(EinsumSpec::parse(spec[usize::from(first)]).unwrap())
            }
        };
        order.push(g.add_op(format!("op{n}"), op, &ins, &outs));
        // a weight gradient is no `[b, j, k]` value a later operator reads
        if writes > 0 {
            ids.extend(outs);
        }
    }

    let mut plan = ExecutionPlan::natural(&g, &order).unwrap();
    for step in &mut plan.steps {
        for o in step.inputs.iter_mut().chain(&mut step.outputs) {
            let mut axes: Vec<usize> = (0..o.layout.rank()).collect();
            for i in (1..axes.len()).rev() {
                axes.swap(i, rng.gen_range(0..i + 1));
            }
            o.layout = Layout::from_order(&axes).unwrap();
        }
    }
    plan.reflow(&g);
    (g, plan)
}

/// Runs `plan` as its oracle: each forward step through the reference
/// interpreter, each backward one through the allocating `ops` function of
/// its kind over the state's tensors (in whatever layouts they hold),
/// reading a norm's statistics where the forward norm left them.
fn oracle(
    g: &Graph,
    plan: &ExecutionPlan,
    state: &mut ExecState,
    opts: &ExecOptions,
) -> Result<()> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    for step in &plan.steps {
        let t = |k: usize| state.env[&step.inputs[k].name].clone();
        // the forward norm whose input is the step's second operand
        let stats = |state: &ExecState| {
            let x = step.inputs[1].data;
            let norm = g
                .consumers_of(x)
                .into_iter()
                .find(|&op| matches!(g.op(op).unwrap().kind, OpKind::LayerNorm { .. }));
            state.stats[&g.data(g.outputs_of(norm.unwrap())[0]).unwrap().name].clone()
        };
        let out: Vec<Tensor> = match &step.kind {
            OpKind::ReluGrad => vec![activate_backward(&t(0), &t(1), ActivationKind::Relu)?],
            OpKind::DropoutGrad => vec![dropout_backward(&t(0), &t(1))?],
            OpKind::SoftmaxGrad { axis } => vec![softmax_backward(&t(0), &t(1), *axis)?],
            OpKind::LayerNormGradX { axis } => {
                let stats = stats(state);
                vec![layernorm_backward_input(
                    &t(0),
                    &t(1),
                    *axis,
                    &t(2),
                    &stats,
                )?]
            }
            OpKind::LayerNormGradW { axis } => {
                let (dgamma, dbeta) =
                    layernorm_backward_weights(&t(0), &t(1), *axis, &stats(state))?;
                vec![dgamma, dbeta]
            }
            OpKind::BiasGrad { axes } => vec![bias_grad(&t(0), axes)?],
            _ => {
                execute_step(g, step, state, opts, &mut rng)?;
                continue;
            }
        };
        for (o, t) in step.outputs.iter().zip(out) {
            state.env.insert(o.name.clone(), t);
        }
    }
    Ok(())
}

/// Every produced output of `state`, in logical order, as bits.
fn outputs(g: &Graph, state: &xform_core::plan::ExecState) -> Vec<(String, Vec<u32>)> {
    let mut out: Vec<(String, Vec<u32>)> = (g.data_nodes().iter())
        .filter_map(|&id| g.data(id).filter(|d| d.role == DataRole::Output))
        .map(|d| {
            let t = &state.env[&d.name];
            let logical = t.relayout(&Layout::row_major(t.shape().rank()));
            (
                d.name.clone(),
                logical.data().iter().map(|x| x.to_bits()).collect(),
            )
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn an_accepted_plan_runs_poisoned_on_the_arena_to_the_reference_bits(
        seed in any::<u64>(), ops in 2usize..7,
    ) {
        let (g, plan) = generated(seed, ops);
        if certify(&g, &plan).is_err() {
            return Ok(());
        }
        let base = random_externals(&g, &plan, seed).unwrap();
        let opts = ExecOptions::builder().dropout_p(0.0).seed(seed).build();
        let mut reference = base.clone();
        oracle(&g, &plan, &mut reference, &opts).unwrap();
        let want = outputs(&g, &reference);
        for threads in [1, 4] {
            let poisoned = opts.to_builder().threads(threads).sanitize(SanitizeMode::On).build();
            // a backward norm reads the statistics its forward saved: here,
            // the oracle's forward norm's
            let mut state = base.clone();
            state.stats = reference.stats.clone();
            arena::execute(&g, &plan, &mut state, &poisoned)
                .map_err(|e| format!("{threads} threads: {e}"))?;
            prop_assert!(outputs(&g, &state) == want, "{} threads differ from the reference", threads);
        }
    }

    #[test]
    fn a_partition_certifies_exactly_when_its_hazards_cross_forward_and_its_waves_share_no_write(
        seed in any::<u64>(), ops in 2usize..7,
    ) {
        let (g, plan) = generated(seed, ops);
        let analysis = analyze(&g, &plan);
        if !analysis.is_clean() {
            return Ok(());
        }
        let n = plan.steps.len();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
        for _ in 0..8 {
            let wave_of: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            let waves: Vec<Vec<usize>> = (0..n)
                .map(|w| (0..n).filter(|&s| wave_of[s] == w).collect::<Vec<_>>())
                .filter(|w| !w.is_empty())
                .collect();
            let rank = |s: usize| waves.iter().position(|w| w.contains(&s)).unwrap();
            let forward = analysis.deps.iter().all(|e| rank(e.from) < rank(e.to));
            // what a step reads, and what it writes or re-lays out
            let touches = |s: usize| {
                let step = &plan.steps[s];
                let reads = step.inputs.iter().map(|o| (o.data, false));
                let writes = step.outputs.iter().map(|o| (o.data, true));
                let moves = step.relayouts.iter().map(|r| (r.data, true));
                reads.chain(writes).chain(moves).collect::<Vec<_>>()
            };
            let clash = |a: usize, b: usize| {
                let tb = touches(b);
                touches(a)
                    .into_iter()
                    .any(|(d, w)| tb.iter().any(|&(e, v)| d == e && (w || v)))
            };
            let apart = waves.iter().all(|w| {
                w.iter()
                    .enumerate()
                    .all(|(i, &a)| w[i + 1..].iter().all(|&b| !clash(a, b)))
            });
            let certified = certify_waves(&g, &plan, &waves).is_ok();
            prop_assert!(
                certified == (forward && apart),
                "{waves:?}: certified {certified}, forward {forward}, apart {apart}"
            );
        }
    }
}
