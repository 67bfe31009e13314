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
    /// A tile program: a tensor contraction whose output rows live in a
    /// tile while the fused chain behind it runs on them, then optionally a
    /// second contraction over the chain's rows — one kernel, so the
    /// intermediates between them (VTC's *virtual* tensors: named by the
    /// program, never materialized) have no container. Produced by
    /// [`crate::Graph::fuse_tile`]: a bias epilogue (`Linear 1+BRD`, the
    /// model head's `Head+BSV`) has one contraction, the attention region
    /// (`QKT+SM+Gamma`) two. Reads the first contraction's operands in its
    /// order, the chain's other inputs, then the second contraction's
    /// first operand; writes the chain's outputs, or the second's.
    TileProgram {
        /// The first contraction, over inputs 0 and 1.
        first: EinsumSpec,
        /// The second contraction, over the last input and the chain's
        /// rows.
        second: Option<EinsumSpec>,
        /// Names of the constituent operators (first contraction, the
        /// chain, the second contraction), for reporting.
        parts: Vec<String>,
        /// Total flop of the constituents.
        flop: u64,
        /// The chain's reduction axis, if any, as the first contraction's
        /// output labels it.
        reduce_axis: Option<Axis>,
        /// Schedule positions the program stands for. An executor that
        /// numbers per-step dropout streams numbers them by these, so a
        /// plan draws the masks it drew before its chain was collapsed: one
        /// for an epilogue; for the attention region the steps of the chain
        /// it replaced (`QKT`, `SM`, `Gamma`: three, or two where `QKT+SM`
        /// was one step).
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
            OpKind::TileProgram { .. } => OpClass::TensorContraction,
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
            OpKind::TileProgram { .. } => true,
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
            OpKind::Fused { reduce_axis, .. } | OpKind::TileProgram { reduce_axis, .. } => {
                *reduce_axis
            }
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
            OpKind::TileProgram {
                first,
                second,
                parts,
                ..
            } => {
                write!(f, "tile[{first}")?;
                if let Some(second) = second {
                    write!(f, ";{second}")?;
                }
                write!(f, "]{{{}}}", parts.join("+"))
            }
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
