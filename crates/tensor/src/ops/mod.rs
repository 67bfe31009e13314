//! Operator kernels for the transformer encoder layer.
//!
//! Split by the paper's operator classes (Sec. III-B):
//!
//! * tensor contractions live in [`crate::contract`] (△),
//! * statistical normalizations here in [`softmax`] and [`layernorm`] (⬜),
//! * element-wise operators in [`elementwise`] and [`dropout`] (○).
//!
//! Every forward kernel has a matching backward kernel, since the paper
//! optimizes the full training step (forward and backpropagation). In
//! either direction an operator here is a thin tensor driver: it checks
//! shapes, compiles a [`Sweep`] over its tensors' own strides and calls
//! the `*_into` view driver of
//! [`crate::into_ops`], whose arithmetic is a lane body of
//! [`crate::lanes`] — nothing in this module addresses a word by hand.

pub mod dropout;
pub mod elementwise;
pub mod layernorm;
pub mod softmax;

use crate::error::{Result, TensorError};
use crate::into_ops::{Sweep, View};
use crate::tensor::Tensor;

/// `t` whole, through its own strides: a tensor driver's operand as the
/// view drivers of [`crate::into_ops`] take it.
pub(crate) fn view_of(t: &Tensor) -> View {
    View::whole(t.shape().sizes(), t.strides())
}

/// The sweep of `views` along logical axis `lane` (`query`: the causal
/// query axis) — how every tensor driver, forward and backward, enumerates
/// its lanes.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the views do not compile (a
/// rank beyond what a sweep's odometer holds).
pub(crate) fn sweep_of(
    views: &[&View],
    lane: Option<usize>,
    query: Option<usize>,
    context: &'static str,
) -> Result<Sweep> {
    Sweep::compile(views, lane, query).ok_or(TensorError::ShapeMismatch { context })
}

/// Verifies that two tensors share a shape, for kernels that require it.
pub(crate) fn check_same_shape(a: &Tensor, b: &Tensor, context: &'static str) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch { context });
    }
    Ok(())
}
