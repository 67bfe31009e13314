//! Error types for the tensor substrate.

use std::fmt;

use crate::axes::Axis;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Errors produced by tensor construction, layout manipulation, einsum
/// parsing, and kernel execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// An axis name appeared twice in a shape or spec.
    DuplicateAxis(Axis),
    /// An axis was requested that the shape does not contain.
    UnknownAxis(Axis),
    /// An axis was declared with size zero.
    ZeroSizedAxis(Axis),
    /// A layout permutation did not match the tensor rank.
    LayoutRankMismatch {
        /// Rank expected by the tensor shape.
        expected: usize,
        /// Rank of the offered layout.
        found: usize,
    },
    /// A layout permutation was not a permutation of `0..rank`.
    InvalidPermutation,
    /// Two tensors that must agree in shape did not.
    ShapeMismatch {
        /// Description of the operation that failed.
        context: &'static str,
    },
    /// An einsum specification could not be parsed.
    ParseError(String),
    /// Sizes bound to the same einsum label disagreed between operands.
    SizeConflict(Axis),
    /// The operation is not supported for the given operands.
    Unsupported(String),
    /// A dropout probability outside `[0, 1)` (the offending value, as
    /// text: the error type is `Eq`).
    InvalidDropout(String),
    /// An execution was not handed an external container its plan reads:
    /// the binder does not know the name, or offered a different number of
    /// words than the container holds.
    UnboundExternal {
        /// The container's name in the plan's graph.
        container: String,
        /// Words the plan's container holds.
        words: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::DuplicateAxis(a) => write!(f, "duplicate axis `{a}` in shape"),
            TensorError::UnknownAxis(a) => write!(f, "unknown axis `{a}`"),
            TensorError::ZeroSizedAxis(a) => write!(f, "axis `{a}` has size zero"),
            TensorError::LayoutRankMismatch { expected, found } => {
                write!(
                    f,
                    "layout rank {found} does not match tensor rank {expected}"
                )
            }
            TensorError::InvalidPermutation => {
                write!(f, "layout order is not a permutation of the axes")
            }
            TensorError::ShapeMismatch { context } => {
                write!(f, "shape mismatch in {context}")
            }
            TensorError::ParseError(msg) => write!(f, "einsum parse error: {msg}"),
            TensorError::SizeConflict(a) => {
                write!(f, "conflicting sizes bound to einsum label `{a}`")
            }
            TensorError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            TensorError::InvalidDropout(p) => {
                write!(f, "dropout probability {p} is outside [0, 1)")
            }
            TensorError::UnboundExternal { container, words } => {
                write!(
                    f,
                    "external container `{container}` ({words} words) was not bound"
                )
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let cases: Vec<TensorError> = vec![
            TensorError::DuplicateAxis(Axis('b')),
            TensorError::UnknownAxis(Axis('q')),
            TensorError::ZeroSizedAxis(Axis('j')),
            TensorError::LayoutRankMismatch {
                expected: 3,
                found: 2,
            },
            TensorError::InvalidPermutation,
            TensorError::ShapeMismatch { context: "add" },
            TensorError::ParseError("bad".into()),
            TensorError::SizeConflict(Axis('k')),
            TensorError::Unsupported("x".into()),
            TensorError::InvalidDropout("1.5".into()),
            TensorError::UnboundExternal {
                container: "w1".into(),
                words: 8,
            },
        ];
        for e in cases {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
