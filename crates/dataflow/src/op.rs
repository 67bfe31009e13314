//! Operator kinds and the paper's three-way operator classification.

use std::fmt;

use xform_tensor::einsum::EinsumSpec;
use xform_tensor::Axis;

/// The paper's operator classes (Sec. III-B, Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// △ — (batched) matrix-matrix multiplications: linear layers and the
    /// MHA contractions. >99% of flop, ~61% of runtime.
    TensorContraction,
    /// ⬜ — softmax, layer normalization and other reduce-then-map
    /// operators. ~0.17% of flop, ~25% of runtime.
    StatisticalNormalization,
    /// ○ — biases, dropout, activations, residuals. ~0.03% of flop,
    /// ~13% of runtime.
    Elementwise,
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::TensorContraction => "tensor contraction",
            OpClass::StatisticalNormalization => "statistical normalization",
            OpClass::Elementwise => "element-wise",
        };
        f.write_str(s)
    }
}

impl OpClass {
    /// The marker glyph used in the paper's tables.
    pub fn glyph(self) -> char {
        match self {
            OpClass::TensorContraction => '△',
            OpClass::StatisticalNormalization => '⬜',
            OpClass::Elementwise => '○',
        }
    }
}

/// A single logical operator in the dataflow graph.
///
/// Each variant corresponds to one operator node of the paper's Fig. 2
/// (forward or backward). A [`OpKind::Fused`] node is produced by the
/// fusion pass, which replaces a chain of element-wise / normalization
/// nodes with one kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// A tensor contraction described by an einsum.
    Einsum(EinsumSpec),
    /// Broadcast bias add over the named axes.
    Bias {
        /// Axes of the bias tensor.
        axes: Vec<Axis>,
    },
    /// Bias gradient: reduction over every non-bias axis.
    BiasGrad {
        /// Axes of the bias tensor.
        axes: Vec<Axis>,
    },
    /// Multiplication by a scalar (the attention `1/√P` scaling).
    Scale,
    /// Softmax along an axis.
    Softmax {
        /// The normalized axis.
        axis: Axis,
    },
    /// Softmax backward along an axis.
    SoftmaxGrad {
        /// The normalized axis.
        axis: Axis,
    },
    /// Layer normalization along an axis (with learned scale and shift).
    LayerNorm {
        /// The normalized axis.
        axis: Axis,
    },
    /// Layer-norm input gradient.
    LayerNormGradX {
        /// The normalized axis.
        axis: Axis,
    },
    /// Layer-norm weight gradients (`dgamma`, `dbeta`).
    LayerNormGradW {
        /// The normalized axis.
        axis: Axis,
    },
    /// Dropout (mask generation + application).
    Dropout,
    /// Dropout backward (mask application).
    DropoutGrad,
    /// ReLU activation.
    Relu,
    /// ReLU backward.
    ReluGrad,
    /// Residual connection (element-wise add).
    Residual,
    /// A fused kernel produced by the fusion pass. Flop is recorded at
    /// fusion time (the sum over constituents); I/O is implied by the
    /// rewired edges, which is exactly how fusion saves data movement.
    Fused {
        /// Kernel name (e.g. `"SM"`, `"BDRLN"`).
        name: String,
        /// Names of the constituent operators, for reporting.
        parts: Vec<String>,
        /// Total flop of the constituents.
        flop: u64,
        /// The dominant class among constituents.
        class: OpClass,
        /// Reduction axis, if any constituent reduces (drives the
        /// performance model's warp-reduction handling).
        reduce_axis: Option<Axis>,
    },
    /// A GEMM-epilogue mega-kernel: a tensor contraction fused with its
    /// downstream element-wise / normalization chain, applied per output
    /// tile so the contraction's output is never materialized. Produced
    /// by the epilogue fusion pass ([`crate::Graph::fuse_epilogue`]); the
    /// eliminated intermediate's memlets are gone from the graph, which
    /// is exactly the data-movement saving.
    ContractionEpilogue {
        /// The contraction the kernel computes.
        spec: EinsumSpec,
        /// Names of the constituent operators (contraction first, then
        /// the epilogue chain), for reporting.
        parts: Vec<String>,
        /// Total flop of the constituents.
        flop: u64,
        /// Reduction axis of the epilogue chain, if any.
        reduce_axis: Option<Axis>,
    },
    /// An attention region: the scores contraction, the scale / mask /
    /// softmax / dropout chain behind it and the context contraction behind
    /// that, as one kernel that works a panel of query rows at a time — so
    /// the `[h,b,j,k]` tensors between the three (VTC's *virtual* tensors:
    /// named by the program, never materialized) have no container. Produced
    /// by the region pass ([`crate::Graph::fuse_region`]). Reads the scores
    /// contraction's operands in its order, then the values; writes the
    /// context.
    AttentionRegion {
        /// The scores contraction (`QKT`), over inputs 0 and 1.
        qkt: EinsumSpec,
        /// The context contraction (`Gamma`), over input 2 and the virtual
        /// attention weights.
        gamma: EinsumSpec,
        /// Names of the constituent operators (scores contraction, the
        /// softmax chain, context contraction), for reporting.
        parts: Vec<String>,
        /// Total flop of the constituents.
        flop: u64,
        /// The softmax axis, as `qkt`'s output labels it.
        reduce_axis: Axis,
        /// Schedule positions the region stands for: the steps of the chain
        /// it replaced (`QKT`, `SM`, `Gamma`: three). An executor that
        /// numbers per-step dropout streams numbers them by these, so a
        /// plan draws the masks it drew before its chain was collapsed.
        span: usize,
    },
}

impl OpKind {
    /// The operator class per the paper's taxonomy.
    pub fn class(&self) -> OpClass {
        match self {
            OpKind::Einsum(_) => OpClass::TensorContraction,
            OpKind::Softmax { .. }
            | OpKind::SoftmaxGrad { .. }
            | OpKind::LayerNorm { .. }
            | OpKind::LayerNormGradX { .. }
            | OpKind::LayerNormGradW { .. }
            | OpKind::BiasGrad { .. } => OpClass::StatisticalNormalization,
            OpKind::Bias { .. }
            | OpKind::Scale
            | OpKind::Dropout
            | OpKind::DropoutGrad
            | OpKind::Relu
            | OpKind::ReluGrad
            | OpKind::Residual => OpClass::Elementwise,
            OpKind::Fused { class, .. } => *class,
            OpKind::ContractionEpilogue { .. } | OpKind::AttentionRegion { .. } => {
                OpClass::TensorContraction
            }
        }
    }

    /// Whether this operator contains a reduction dimension (relevant for
    /// the fusion-compatibility rules of Sec. IV).
    pub fn has_reduction(&self) -> bool {
        match self {
            OpKind::Einsum(_)
            | OpKind::Softmax { .. }
            | OpKind::SoftmaxGrad { .. }
            | OpKind::LayerNorm { .. }
            | OpKind::LayerNormGradX { .. }
            | OpKind::LayerNormGradW { .. }
            | OpKind::BiasGrad { .. } => true,
            OpKind::Fused { reduce_axis, .. } => reduce_axis.is_some(),
            OpKind::ContractionEpilogue { .. } | OpKind::AttentionRegion { .. } => true,
            _ => false,
        }
    }

    /// The axis reduced by a normalization (or fused) operator, if any.
    /// Einsum reduction dimensions are described by the spec instead.
    pub fn reduce_axis(&self) -> Option<Axis> {
        match self {
            OpKind::Softmax { axis }
            | OpKind::SoftmaxGrad { axis }
            | OpKind::LayerNorm { axis }
            | OpKind::LayerNormGradX { axis }
            | OpKind::LayerNormGradW { axis } => Some(*axis),
            OpKind::Fused { reduce_axis, .. } => *reduce_axis,
            OpKind::ContractionEpilogue { reduce_axis, .. } => *reduce_axis,
            OpKind::AttentionRegion { reduce_axis, .. } => Some(*reduce_axis),
            _ => None,
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Einsum(spec) => write!(f, "einsum[{spec}]"),
            OpKind::Bias { axes } => {
                write!(f, "bias[")?;
                for a in axes {
                    write!(f, "{a}")?;
                }
                write!(f, "]")
            }
            OpKind::BiasGrad { axes } => {
                write!(f, "bias-dW[")?;
                for a in axes {
                    write!(f, "{a}")?;
                }
                write!(f, "]")
            }
            OpKind::Scale => write!(f, "scale"),
            OpKind::Softmax { axis } => write!(f, "softmax[{axis}]"),
            OpKind::SoftmaxGrad { axis } => write!(f, "softmax-dX[{axis}]"),
            OpKind::LayerNorm { axis } => write!(f, "layernorm[{axis}]"),
            OpKind::LayerNormGradX { axis } => write!(f, "layernorm-dX[{axis}]"),
            OpKind::LayerNormGradW { axis } => write!(f, "layernorm-dW[{axis}]"),
            OpKind::Dropout => write!(f, "dropout"),
            OpKind::DropoutGrad => write!(f, "dropout-dX"),
            OpKind::Relu => write!(f, "relu"),
            OpKind::ReluGrad => write!(f, "relu-dX"),
            OpKind::Residual => write!(f, "residual"),
            OpKind::Fused { name, parts, .. } => {
                write!(f, "{name}{{{}}}", parts.join("+"))
            }
            OpKind::ContractionEpilogue { spec, parts, .. } => {
                write!(f, "gemm-epilogue[{spec}]{{{}}}", parts.join("+"))
            }
            OpKind::AttentionRegion {
                qkt, gamma, parts, ..
            } => write!(f, "attention[{qkt};{gamma}]{{{}}}", parts.join("+")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_paper_taxonomy() {
        let spec: EinsumSpec = "ik,kj->ij".parse().unwrap();
        assert_eq!(OpKind::Einsum(spec).class(), OpClass::TensorContraction);
        assert_eq!(
            OpKind::Softmax { axis: Axis('k') }.class(),
            OpClass::StatisticalNormalization
        );
        assert_eq!(
            OpKind::LayerNormGradW { axis: Axis('i') }.class(),
            OpClass::StatisticalNormalization
        );
        assert_eq!(OpKind::Dropout.class(), OpClass::Elementwise);
        assert_eq!(OpKind::Residual.class(), OpClass::Elementwise);
        assert_eq!(
            OpKind::BiasGrad {
                axes: vec![Axis('i')]
            }
            .class(),
            OpClass::StatisticalNormalization
        );
    }

    #[test]
    fn reductions_flagged() {
        assert!(OpKind::Softmax { axis: Axis('k') }.has_reduction());
        assert!(OpKind::BiasGrad {
            axes: vec![Axis('i')]
        }
        .has_reduction());
        assert!(!OpKind::Bias {
            axes: vec![Axis('i')]
        }
        .has_reduction());
        assert!(!OpKind::Relu.has_reduction());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(OpKind::Scale.to_string(), "scale");
        assert_eq!(
            OpKind::Bias {
                axes: vec![Axis('p'), Axis('h')]
            }
            .to_string(),
            "bias[ph]"
        );
        let fused = OpKind::Fused {
            name: "SM".into(),
            parts: vec!["scale".into(), "softmax".into(), "dropout".into()],
            flop: 42,
            class: OpClass::StatisticalNormalization,
            reduce_axis: Some(Axis('k')),
        };
        assert_eq!(fused.to_string(), "SM{scale+softmax+dropout}");
    }

    #[test]
    fn glyphs_are_distinct() {
        let g = [
            OpClass::TensorContraction.glyph(),
            OpClass::StatisticalNormalization.glyph(),
            OpClass::Elementwise.glyph(),
        ];
        assert_ne!(g[0], g[1]);
        assert_ne!(g[1], g[2]);
    }
}
