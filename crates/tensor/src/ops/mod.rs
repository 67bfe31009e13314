//! Operator kernels for the transformer encoder layer.
//!
//! Split by the paper's operator classes (Sec. III-B):
//!
//! * tensor contractions live in [`crate::contract`] (△),
//! * statistical normalizations here in [`softmax`] and [`layernorm`] (⬜),
//! * element-wise operators in [`elementwise`] and [`dropout`] (○).
//!
//! Every forward kernel has a matching backward kernel, since the paper
//! optimizes the full training step (forward and backpropagation).

pub mod dropout;
pub mod elementwise;
pub mod layernorm;
pub mod softmax;

use crate::axes::Shape;
use crate::error::{Result, TensorError};
use crate::into_ops::{Sweep, View};
use crate::tensor::Tensor;

/// Calls `f` once per multi-index over all axes of `shape` except the axis
/// at logical position `skip` (which stays 0 in the passed index). The
/// caller turns the index into per-tensor base offsets and sweeps the lane.
/// Only the eager backward kernels enumerate this way (ROADMAP item 3
/// removes them); forward kernels compile a [`Sweep`] ([`sweep_of`]).
pub(crate) fn for_each_outer<F>(shape: &Shape, skip: usize, mut f: F)
where
    F: FnMut(&[usize]),
{
    let rank = shape.rank();
    let mut idx = vec![0usize; rank];
    loop {
        f(&idx);
        // advance, skipping `skip`
        let mut done = true;
        for i in (0..rank).rev() {
            if i == skip {
                continue;
            }
            idx[i] += 1;
            if idx[i] < shape.sizes()[i] {
                done = false;
                break;
            }
            idx[i] = 0;
        }
        if done {
            break;
        }
    }
}

/// `t` whole, through its own strides: a tensor driver's operand as the
/// view drivers of [`crate::into_ops`] take it.
pub(crate) fn view_of(t: &Tensor) -> View {
    View::whole(t.shape().sizes(), t.strides())
}

/// The sweep of `views` along logical axis `lane` (`query`: the causal
/// query axis) — how every forward tensor driver enumerates its lanes.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_outer_visits_all_but_skipped() {
        let s = Shape::new([('a', 2), ('b', 3), ('c', 4)]).unwrap();
        let mut count = 0;
        for_each_outer(&s, 1, |idx| {
            assert_eq!(idx[1], 0);
            count += 1;
        });
        assert_eq!(count, 2 * 4);
    }

    #[test]
    fn for_each_outer_rank_one() {
        let s = Shape::new([('a', 5)]).unwrap();
        let mut count = 0;
        for_each_outer(&s, 0, |_| count += 1);
        assert_eq!(count, 1);
    }
}
