//! Iteration spaces and fusion-compatibility rules (Sec. IV).
//!
//! Every operator has *independent* dimensions (parallelizable over GPU
//! blocks/threads) and possibly *reduction* dimensions. Two operators can
//! be fused if their iteration-space implementations are compatible: they
//! are the same, or the only difference is that one performs a reduction.
//! This module derives iteration spaces from dataflow-graph operators and
//! decides compatibility, classifying matches into the paper's four
//! structural patterns (Fig. 3).

use xform_dataflow::{Graph, NodeId, OpKind};
use xform_tensor::{Result, TensorError};

/// The iteration space of one operator: independent and reduction
/// dimensions with sizes, in a canonical (sorted) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterSpace {
    /// Parallelizable dimensions `(axis, size)`.
    pub independent: Vec<(char, usize)>,
    /// Reduced dimensions `(axis, size)`.
    pub reduction: Vec<(char, usize)>,
}

impl IterSpace {
    fn sorted(mut independent: Vec<(char, usize)>, mut reduction: Vec<(char, usize)>) -> Self {
        independent.sort_unstable();
        reduction.sort_unstable();
        IterSpace {
            independent,
            reduction,
        }
    }

    /// Whether this space performs any reduction.
    pub fn has_reduction(&self) -> bool {
        !self.reduction.is_empty()
    }

    /// All dimensions (independent ∪ reduction), sorted.
    pub fn all_dims(&self) -> Vec<(char, usize)> {
        let mut v = self.independent.clone();
        v.extend(self.reduction.iter().copied());
        v.sort_unstable();
        v
    }
}

/// Derives the iteration space of an operator from the graph.
///
/// * element-wise operators iterate their output axes;
/// * softmax/layer-norm style operators iterate all input axes and reduce
///   over the normalized axis (their output keeps the axis, but the
///   implementation reduces along it);
/// * bias-gradient / layer-norm-dW operators iterate their output axes and
///   reduce over the remaining input axes;
/// * tensor contractions are rejected — the paper never fuses them with
///   other operator classes (Sec. IV-C handles them separately).
///
/// # Errors
///
/// Returns an error for contractions or ids that are not operators.
pub fn op_iter_space(graph: &Graph, op: NodeId) -> Result<IterSpace> {
    let node = graph
        .op(op)
        .ok_or_else(|| TensorError::Unsupported(format!("{op} is not an operator")))?;
    if matches!(node.kind, OpKind::Einsum(_) | OpKind::TileProgram { .. }) {
        return Err(TensorError::Unsupported(format!(
            "`{}` is a tensor contraction; its iteration space is handled by the GEMM path",
            node.name
        )));
    }
    let first = |ids: Vec<NodeId>| -> Result<Vec<(char, usize)>> {
        let d = ids
            .first()
            .and_then(|&i| graph.data(i))
            .ok_or_else(|| TensorError::Unsupported(format!("`{}` lacks data", node.name)))?;
        Ok(d.shape
            .axes()
            .iter()
            .zip(d.shape.sizes())
            .map(|(a, &n)| (a.name(), n))
            .collect())
    };
    let in_dims = first(graph.inputs_of(op))?;
    let out_dims = first(graph.outputs_of(op))?;
    match &node.kind {
        OpKind::BiasGrad { .. } | OpKind::LayerNormGradW { .. } => {
            // reduce input axes that are absent from the output
            let reduction: Vec<(char, usize)> = in_dims
                .iter()
                .copied()
                .filter(|(a, _)| !out_dims.iter().any(|(o, _)| o == a))
                .collect();
            Ok(IterSpace::sorted(out_dims, reduction))
        }
        kind => {
            if let Some(axis) = kind.reduce_axis() {
                let r = axis.name();
                let reduction: Vec<(char, usize)> =
                    in_dims.iter().copied().filter(|(a, _)| *a == r).collect();
                let independent: Vec<(char, usize)> =
                    in_dims.iter().copied().filter(|(a, _)| *a != r).collect();
                Ok(IterSpace::sorted(independent, reduction))
            } else {
                Ok(IterSpace::sorted(out_dims, Vec::new()))
            }
        }
    }
}

/// The paper's four structural fusion patterns (Fig. 3), from the
/// perspective of fusing a `producer` with a `consumer` of its output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusePattern {
    /// Identical iteration spaces with no reductions (pure element-wise
    /// chains, e.g. bias + dropout).
    SameSpace,
    /// The producer reduces, the consumer maps over the same independent
    /// space (e.g. layernorm followed by dropout backward: `BLNRD`).
    ProducerReduces,
    /// The consumer reduces over the producer's space, either along one
    /// axis (softmax after scaling: `SM`) or down to a summary (bias dW
    /// after ReLU dX: `BDRB`).
    ConsumerReduces,
    /// Both reduce over compatible spaces (e.g. the two layer-norm dW
    /// reductions of `BSB`, which share independent dims).
    BothReduce,
}

/// Decides whether two iteration spaces are fusion-compatible, and under
/// which pattern. `None` means the kernels cannot share an iteration space.
pub fn fusion_compatible(producer: &IterSpace, consumer: &IterSpace) -> Option<FusePattern> {
    let same_independent = producer.independent == consumer.independent;
    match (producer.has_reduction(), consumer.has_reduction()) {
        (false, false) => {
            if same_independent {
                Some(FusePattern::SameSpace)
            } else if subsumes(&producer.independent, consumer) {
                // consumer iterates a subset: partial fusion of the shared
                // outermost dimensions (Sec. IV "partial fusion")
                Some(FusePattern::SameSpace)
            } else {
                None
            }
        }
        (true, false) => {
            // Producer's full space (independent + reduced) must cover the
            // consumer's independent space.
            if producer.all_dims() == consumer.independent || same_independent {
                Some(FusePattern::ProducerReduces)
            } else {
                None
            }
        }
        (false, true) => {
            if producer.independent == consumer.all_dims()
                || subsumes(&producer.independent, consumer)
            {
                Some(FusePattern::ConsumerReduces)
            } else {
                None
            }
        }
        (true, true) => {
            if same_independent && producer.reduction == consumer.reduction {
                Some(FusePattern::BothReduce)
            } else {
                None
            }
        }
    }
}

/// Whether `space`'s dimensions (independent + reduction) are exactly the
/// `dims` set — i.e. the consumer re-partitions the producer's iteration
/// space into kept and reduced dimensions.
fn subsumes(dims: &[(char, usize)], space: &IterSpace) -> bool {
    space.all_dims() == dims
}

#[cfg(test)]
mod tests {
    use super::*;
    use xform_dataflow::{build, DataRole, EncoderDims};
    use xform_tensor::{Axis, Shape};

    fn enc() -> xform_dataflow::Graph {
        build::encoder(&EncoderDims::bert_large()).graph
    }

    fn space(g: &xform_dataflow::Graph, name: &str) -> IterSpace {
        op_iter_space(g, g.op_by_name(name).unwrap()).unwrap()
    }

    #[test]
    fn elementwise_space_is_output_axes() {
        let g = enc();
        let s = space(&g, "Dropout 1");
        assert!(!s.has_reduction());
        assert_eq!(s.independent.len(), 3); // i, b, j
    }

    #[test]
    fn softmax_space_reduces_k() {
        let g = enc();
        let s = space(&g, "Scaled softmax");
        assert_eq!(s.reduction, vec![('k', 512)]);
        assert_eq!(s.independent.len(), 3); // h, b, j
    }

    #[test]
    fn bias_grad_space_reduces_non_bias_axes() {
        let g = enc();
        let s = space(&g, "Bias 1 dW");
        assert_eq!(s.independent, vec![('u', 4096)]);
        assert_eq!(s.reduction, vec![('b', 8), ('j', 512)]);
    }

    #[test]
    fn contractions_are_rejected() {
        let g = enc();
        assert!(op_iter_space(&g, g.op_by_name("Linear 1").unwrap()).is_err());
    }

    #[test]
    fn sm_pattern_consumer_maps_after_reduction() {
        // softmax (reduces k) then dropout (maps over h,b,j,k)
        let g = enc();
        let sm = space(&g, "Scaled softmax");
        let drop = space(&g, "Dropout att");
        assert_eq!(
            fusion_compatible(&sm, &drop),
            Some(FusePattern::ProducerReduces)
        );
    }

    #[test]
    fn drln_chain_is_compatible() {
        let g = enc();
        let bias = space(&g, "Output bias");
        let drop = space(&g, "Dropout 1");
        let resid = space(&g, "Residual 1");
        let ln = space(&g, "LayerNorm 1");
        assert_eq!(
            fusion_compatible(&bias, &drop),
            Some(FusePattern::SameSpace)
        );
        assert_eq!(
            fusion_compatible(&drop, &resid),
            Some(FusePattern::SameSpace)
        );
        assert_eq!(
            fusion_compatible(&resid, &ln),
            Some(FusePattern::ConsumerReduces)
        );
    }

    #[test]
    fn bdrb_tail_reduction_is_compatible() {
        let g = enc();
        let relu_dx = space(&g, "ReLU dX");
        let bias_dw = space(&g, "Bias 1 dW");
        assert_eq!(
            fusion_compatible(&relu_dx, &bias_dw),
            Some(FusePattern::ConsumerReduces)
        );
    }

    #[test]
    fn mismatched_spaces_do_not_fuse() {
        // attention-space dropout vs embedding-space dropout
        let g = enc();
        let a = space(&g, "Dropout att");
        let b = space(&g, "Dropout 1");
        assert_eq!(fusion_compatible(&a, &b), None);
    }

    #[test]
    fn both_reduce_requires_matching_reductions() {
        let mut g = xform_dataflow::Graph::new();
        let s = Shape::new([('b', 2), ('i', 4)]).unwrap();
        let si = Shape::new([('i', 4)]).unwrap();
        let x = g.add_data("x", s.clone(), DataRole::Input);
        let y1 = g.add_data("y1", si.clone(), DataRole::Output);
        let o1 = g.add_op(
            "ln dW",
            xform_dataflow::OpKind::LayerNormGradW { axis: Axis('i') },
            &[x],
            &[y1],
        );
        // LayerNormGradW outputs over i, reduces b — self-compatible
        let sp = op_iter_space(&g, o1).unwrap();
        assert_eq!(fusion_compatible(&sp, &sp), Some(FusePattern::BothReduce));
    }
}
