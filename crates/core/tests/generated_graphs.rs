//! Generated-graph differential tests: the plan certificate beyond the
//! canned plans. Each case builds a small random DAG of `Bias`, `Scale`,
//! `Softmax`, `LayerNorm`, `Dropout`, `Relu`, `Residual` and `Einsum`
//! operators over `[b, j, k]` activations with `j ≠ k` — each operand in a
//! random layout, the relayouts between them inserted by `reflow` — and
//! holds two properties:
//!
//! * a plan the certificate accepts runs on the arena, in its poison mode,
//!   at one and at four threads, to the reference interpreter's bits at
//!   `p = 0`;
//! * over random wave partitions, the certificate accepts a partition
//!   exactly when every analyzer hazard edge crosses it forward and no two
//!   steps of one wave share a container that either writes or re-lays
//!   out.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xform_core::analyze::analyze;
use xform_core::arena;
use xform_core::plan::{execute_plan, random_externals, ExecOptions, ExecutionPlan, SanitizeMode};
use xform_core::sanitize::{certify, certify_waves};
use xform_dataflow::{DataRole, Graph, NodeId, OpKind};
use xform_tensor::einsum::EinsumSpec;
use xform_tensor::{Axis, Layout, Shape};

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
        let kind = rng.gen_range(0..8);
        let arity = if kind == 6 { 2 } else { 1 };
        let reads: Vec<usize> = (0..arity).map(|_| rng.gen_range(0..values)).collect();
        let writes = if kind == 4 { 2 } else { 1 };
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
        let along = |g: &mut Graph, name: &str| {
            let n = DIMS.iter().find(|d| d.0 == axis.0).unwrap().1;
            g.add_data(name, Shape::new([(axis.0, n)]).unwrap(), DataRole::Weight)
        };
        let op = match kind {
            0 => {
                ins.push(along(&mut g, &format!("bias{n}")));
                OpKind::Bias { axes: vec![axis] }
            }
            1 => OpKind::Scale,
            2 => OpKind::Softmax { axis },
            3 => {
                ins.push(along(&mut g, &format!("gamma{n}")));
                ins.push(along(&mut g, &format!("beta{n}")));
                OpKind::LayerNorm { axis }
            }
            4 => OpKind::Dropout,
            5 => OpKind::Relu,
            6 => OpKind::Residual,
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
        ids.extend(outs);
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
        let mut rng = StdRng::seed_from_u64(seed);
        execute_plan(&g, &plan, &mut reference, &opts, &mut rng).unwrap();
        let want = outputs(&g, &reference);
        for threads in [1, 4] {
            let poisoned = opts.to_builder().threads(threads).sanitize(SanitizeMode::On).build();
            let mut state = base.clone();
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
