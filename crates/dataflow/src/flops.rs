//! Flop accounting per operator.
//!
//! Conventions are calibrated against the paper's Fig. 2 / Table III
//! numbers (they count one flop per scalar add/mul; a fused multiply-add is
//! two flop). Per-element constants:
//!
//! | operator | flop/element | paper cross-check (BERT-large) |
//! |---|---|---|
//! | bias, scale, dropout, residual | 1 | dropout on 4.19M words → 0.004 Gflop ✓ |
//! | ReLU | 0 | listed as "—" in Table III ✓ |
//! | softmax | 5 | scaled softmax (5+1)·33.5M ≈ 0.20G vs 0.188G |
//! | softmax dX | 5 | 0.168G vs 0.156G |
//! | layernorm | 7 | 7·4.19M = 29.3M vs Fig. 2's 29M ✓ |
//! | layernorm dX | 8 | 33.5M vs 0.035G ✓ |
//! | layernorm dW | 4 | 16.8M vs 16M ✓ |
//! | bias dW | 1 | reduction counted as one add per input word ✓ |
//! | einsum | 2·B·M·N·K | exact |

use xform_tensor::{Result, TensorError};

use crate::graph::{Graph, NodeId};
use crate::op::OpKind;

/// Flop per element for softmax forward.
pub const SOFTMAX_FLOP_PER_ELEM: u64 = 5;
/// Flop per element for softmax backward.
pub const SOFTMAX_GRAD_FLOP_PER_ELEM: u64 = 5;
/// Flop per element for layer normalization forward.
pub const LAYERNORM_FLOP_PER_ELEM: u64 = 7;
/// Flop per element for layer normalization input gradient.
pub const LAYERNORM_GRAD_X_FLOP_PER_ELEM: u64 = 8;
/// Flop per element for layer normalization weight gradients.
pub const LAYERNORM_GRAD_W_FLOP_PER_ELEM: u64 = 4;

/// Flop performed by one operator node of `graph`.
///
/// Element-wise and normalization operators are counted per element of
/// their *primary* tensor: the first input for backward/reduction kernels,
/// the first output otherwise. Contractions are exact.
///
/// # Errors
///
/// Returns an error if `op` is not a live operator, an einsum node lacks
/// two inputs, or einsum shapes are inconsistent.
pub fn op_flop(graph: &Graph, op: NodeId) -> Result<u64> {
    let node = graph
        .op(op)
        .ok_or_else(|| TensorError::Unsupported(format!("{op} is not an operator")))?;
    let first_input_elems = || -> Result<u64> {
        let inputs = graph.inputs_of(op);
        let d = inputs
            .first()
            .and_then(|&i| graph.data(i))
            .ok_or_else(|| TensorError::Unsupported(format!("`{}` has no inputs", node.name)))?;
        Ok(d.shape.num_elements() as u64)
    };
    let first_output_elems = || -> Result<u64> {
        let outputs = graph.outputs_of(op);
        let d = outputs
            .first()
            .and_then(|&o| graph.data(o))
            .ok_or_else(|| TensorError::Unsupported(format!("`{}` has no outputs", node.name)))?;
        Ok(d.shape.num_elements() as u64)
    };
    match &node.kind {
        OpKind::Einsum(spec) => {
            let inputs = graph.inputs_of(op);
            if inputs.len() < 2 {
                return Err(TensorError::Unsupported(format!(
                    "einsum `{}` needs two inputs",
                    node.name
                )));
            }
            let a = &graph.data(inputs[0]).expect("data").shape;
            let b = &graph.data(inputs[1]).expect("data").shape;
            spec.flop(a, b)
        }
        OpKind::Bias { .. } | OpKind::Scale | OpKind::Dropout | OpKind::Residual => {
            first_output_elems()
        }
        OpKind::DropoutGrad | OpKind::BiasGrad { .. } => first_input_elems(),
        OpKind::Relu | OpKind::ReluGrad => Ok(0),
        OpKind::Softmax { .. } => Ok(SOFTMAX_FLOP_PER_ELEM * first_output_elems()?),
        OpKind::SoftmaxGrad { .. } => Ok(SOFTMAX_GRAD_FLOP_PER_ELEM * first_input_elems()?),
        OpKind::LayerNorm { .. } => Ok(LAYERNORM_FLOP_PER_ELEM * first_output_elems()?),
        OpKind::LayerNormGradX { .. } => Ok(LAYERNORM_GRAD_X_FLOP_PER_ELEM * first_input_elems()?),
        OpKind::LayerNormGradW { .. } => Ok(LAYERNORM_GRAD_W_FLOP_PER_ELEM * first_input_elems()?),
        OpKind::Fused { flop, .. } | OpKind::TileProgram { flop, .. } => Ok(*flop),
    }
}

/// Total flop over every operator in the graph.
pub fn total_flop(graph: &Graph) -> u64 {
    graph
        .ops()
        .into_iter()
        .map(|op| op_flop(graph, op).unwrap_or(0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DataRole;
    use xform_tensor::{Axis, Shape};

    #[test]
    fn einsum_flop_is_exact() {
        let mut g = Graph::new();
        let a = g.add_data(
            "a",
            Shape::new([('m', 4), ('k', 8)]).unwrap(),
            DataRole::Input,
        );
        let b = g.add_data(
            "b",
            Shape::new([('k', 8), ('n', 2)]).unwrap(),
            DataRole::Input,
        );
        let c = g.add_data(
            "c",
            Shape::new([('m', 4), ('n', 2)]).unwrap(),
            DataRole::Output,
        );
        let op = g.add_op(
            "mm",
            OpKind::Einsum("mk,kn->mn".parse().unwrap()),
            &[a, b],
            &[c],
        );
        assert_eq!(op_flop(&g, op).unwrap(), 2 * 4 * 8 * 2);
    }

    #[test]
    fn elementwise_and_normalization_constants() {
        let mut g = Graph::new();
        let shape = Shape::new([('b', 3), ('i', 10)]).unwrap();
        let x = g.add_data("x", shape.clone(), DataRole::Input);
        let y = g.add_data("y", shape.clone(), DataRole::Activation);
        let z = g.add_data("z", shape.clone(), DataRole::Activation);
        let w = g.add_data("w", shape, DataRole::Output);
        let ln = g.add_op("ln", OpKind::LayerNorm { axis: Axis('i') }, &[x], &[y]);
        let sm = g.add_op("sm", OpKind::Softmax { axis: Axis('i') }, &[y], &[z]);
        let dp = g.add_op("dp", OpKind::Dropout, &[z], &[w]);
        assert_eq!(op_flop(&g, ln).unwrap(), 7 * 30);
        assert_eq!(op_flop(&g, sm).unwrap(), 5 * 30);
        assert_eq!(op_flop(&g, dp).unwrap(), 30);
        assert_eq!(total_flop(&g), 13 * 30);
    }

    #[test]
    fn relu_is_free() {
        let mut g = Graph::new();
        let shape = Shape::new([('x', 5)]).unwrap();
        let a = g.add_data("a", shape.clone(), DataRole::Input);
        let b = g.add_data("b", shape, DataRole::Output);
        let op = g.add_op("r", OpKind::Relu, &[a], &[b]);
        assert_eq!(op_flop(&g, op).unwrap(), 0);
    }

    #[test]
    fn fused_uses_recorded_flop() {
        let mut g = Graph::new();
        let shape = Shape::new([('x', 6)]).unwrap();
        let a = g.add_data("a", shape.clone(), DataRole::Input);
        let b = g.add_data("b", shape.clone(), DataRole::Activation);
        let c = g.add_data("c", shape, DataRole::Output);
        let o1 = g.add_op("s", OpKind::Scale, &[a], &[b]);
        let o2 = g.add_op("d", OpKind::Dropout, &[b], &[c]);
        let before = total_flop(&g);
        let fused = g.fuse(&[o1, o2], "F").unwrap();
        assert_eq!(op_flop(&g, fused).unwrap(), before);
    }

    #[test]
    fn non_op_errors() {
        let mut g = Graph::new();
        let a = g.add_data("a", Shape::new([('x', 2)]).unwrap(), DataRole::Input);
        assert!(op_flop(&g, a).is_err());
    }
}
