//! Shared by the layout suites: a canned plan with its operand layouts
//! shuffled.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use substation::core::analyze::{analyze, Severity};
use substation::core::plan::ExecutionPlan;
use substation::dataflow::{Graph, OpKind};
use substation::tensor::Layout;

/// `plan` with about half of its operand layouts replaced by a random
/// permutation of the container's axes (seeded), then `reflow`ed — which
/// inserts a relayout wherever a consumer now disagrees with its producer
/// or with an earlier consumer. The tail streams of one-contraction tile
/// programs stay natural: that is the one layout the arena refuses (and
/// says so).
/// The result is error-clean.
pub fn permuted(graph: &Graph, plan: &ExecutionPlan, seed: u64) -> ExecutionPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = plan.clone();
    for step in &mut out.steps {
        let epilogue = matches!(step.kind, OpKind::TileProgram { second: None, .. });
        let free: Vec<_> = if epilogue {
            step.inputs.iter_mut().take(2).collect()
        } else {
            step.inputs.iter_mut().chain(&mut step.outputs).collect()
        };
        for operand in free {
            if rng.gen_bool(0.5) {
                let mut axes: Vec<usize> = operand.layout.order().collect();
                for i in (1..axes.len()).rev() {
                    axes.swap(i, rng.gen_range(0..i + 1));
                }
                operand.layout = Layout::from_order(&axes).unwrap();
            }
        }
    }
    out.reflow(graph);
    let errors: Vec<_> = (analyze(graph, &out).lints.into_iter())
        .filter(|l| l.severity() == Severity::Error)
        .collect();
    assert!(errors.is_empty(), "seed {seed}: {errors:?}");
    out
}
