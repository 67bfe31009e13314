//! Layer normalization (⬜ statistical normalization) forward and backward.
//!
//! The encoder layer normalizes over the embedding axis `i` with learned
//! scale `gamma` and shift `beta`. Backward is split exactly as in Fig. 2:
//! `LayerNorm dX` (gradient w.r.t. the input) and `LayerNorm dW` (gradients
//! w.r.t. `gamma`/`beta`), because the paper fuses those into different
//! kernels (`BLNRD` vs `BSB`/`EBSB`).

use crate::axes::{Axis, Shape};
use crate::error::{Result, TensorError};
use crate::into_ops::{
    layernorm_backward_input_into, layernorm_backward_weights_into, layernorm_into, Sweep, View,
};
use crate::tensor::Tensor;

use super::{check_same_shape, sweep_of, view_of};

/// Default variance epsilon (matches common BERT configurations).
pub const EPS: f32 = 1e-5;

/// Saved forward statistics needed by the backward pass.
#[derive(Debug, Clone)]
pub struct LayerNormStats {
    /// Per-slice mean of the input, shaped like the input minus the
    /// normalized axis (flattened row-major over the remaining axes).
    pub mean: Vec<f32>,
    /// Per-slice `1/sqrt(var + eps)`.
    pub inv_std: Vec<f32>,
}

/// Layer normalization over `axis` with learned `gamma`/`beta` (1-D tensors
/// over that axis). Returns the output and the statistics consumed by
/// [`layernorm_backward_input`] / [`layernorm_backward_weights`].
///
/// # Errors
///
/// Returns an error if `axis` is missing from `x` or if `gamma`/`beta` do
/// not have shape `[axis]`.
pub fn layernorm(
    x: &Tensor,
    axis: Axis,
    gamma: &Tensor,
    beta: &Tensor,
) -> Result<(Tensor, LayerNormStats)> {
    let ai = x.shape().index_of(axis)?;
    check_weight(gamma, axis, x.shape().sizes()[ai])?;
    check_weight(beta, axis, x.shape().sizes()[ai])?;
    let (v, w) = (view_of(x), View::lane_weights(x.shape().sizes(), ai));
    let sweep = sweep_of(&[&v, &w, &w, &v], Some(ai), None, "layernorm")?;
    let mut out = x.clone();
    let mut stats = LayerNormStats {
        mean: vec![0.0; sweep.lanes()],
        inv_std: vec![0.0; sweep.lanes()],
    };
    layernorm_into(
        &sweep,
        x.data(),
        gamma.data(),
        beta.data(),
        out.data_mut(),
        &mut stats.mean,
        &mut stats.inv_std,
    );
    Ok((out, stats))
}

/// Layer-norm backward w.r.t. the input (`LayerNorm dX` in Fig. 2):
///
/// `dx = inv_std · (dy·γ − mean(dy·γ) − x̂ · mean(dy·γ·x̂))`.
///
/// # Errors
///
/// Returns an error on shape disagreements, or if `stats` does not hold one
/// entry per lane of `x`.
pub fn layernorm_backward_input(
    dy: &Tensor,
    x: &Tensor,
    axis: Axis,
    gamma: &Tensor,
    stats: &LayerNormStats,
) -> Result<Tensor> {
    check_same_shape(dy, x, "layernorm_backward_input")?;
    let ai = x.shape().index_of(axis)?;
    check_weight(gamma, axis, x.shape().sizes()[ai])?;
    let (vg, vx) = (view_of(dy), view_of(x));
    let vw = View::lane_weights(x.shape().sizes(), ai);
    let sweep = sweep_of(&[&vg, &vx, &vw, &vx], Some(ai), None, "layernorm dX")?;
    check_stats(stats, &sweep)?;
    let mut dx = x.clone();
    layernorm_backward_input_into(
        &sweep,
        dy.data(),
        x.data(),
        gamma.data(),
        &stats.mean,
        &stats.inv_std,
        dx.data_mut(),
    );
    Ok(dx)
}

/// Layer-norm backward w.r.t. the weights (`LayerNorm dW` in Fig. 2):
/// returns `(dgamma, dbeta)`, each shaped `[axis]`.
///
/// # Errors
///
/// Returns an error on shape disagreements, or if `stats` does not hold one
/// entry per lane of `x`.
pub fn layernorm_backward_weights(
    dy: &Tensor,
    x: &Tensor,
    axis: Axis,
    stats: &LayerNormStats,
) -> Result<(Tensor, Tensor)> {
    check_same_shape(dy, x, "layernorm_backward_weights")?;
    let ai = x.shape().index_of(axis)?;
    let (vg, vx) = (view_of(dy), view_of(x));
    let vw = View::lane_weights(x.shape().sizes(), ai);
    let sweep = sweep_of(&[&vg, &vx, &vw, &vw], Some(ai), None, "layernorm dW")?;
    check_stats(stats, &sweep)?;
    let (mut dgamma, mut dbeta) = weight_grads(axis, x.shape().sizes()[ai])?;
    layernorm_backward_weights_into(
        &sweep,
        dy.data(),
        x.data(),
        &stats.mean,
        &stats.inv_std,
        dgamma.data_mut(),
        dbeta.data_mut(),
    );
    Ok((dgamma, dbeta))
}

/// Zeroed `(dgamma, dbeta)` accumulators, each shaped `[axis]`.
pub(crate) fn weight_grads(axis: Axis, len: usize) -> Result<(Tensor, Tensor)> {
    let shape = Shape::new([(axis, len)])?;
    Ok((Tensor::zeros(shape.clone()), Tensor::zeros(shape)))
}

pub(crate) fn check_weight(w: &Tensor, axis: Axis, len: usize) -> Result<()> {
    if w.shape().rank() != 1 || !w.shape().contains(axis) || w.shape().sizes()[0] != len {
        return Err(TensorError::ShapeMismatch {
            context: "layernorm weight",
        });
    }
    Ok(())
}

/// The backward kernels index the saved statistics by lane ordinal: both
/// vectors must hold exactly one entry per lane of the sweep — fewer would
/// index out of bounds, more are another tensor's statistics.
pub(crate) fn check_stats(stats: &LayerNormStats, sweep: &Sweep) -> Result<()> {
    if stats.mean.len() != sweep.lanes() || stats.inv_std.len() != sweep.lanes() {
        return Err(TensorError::ShapeMismatch {
            context: "layernorm stats",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axes::Shape;
    use crate::layout::Layout;
    use rand::distributions::Uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (Tensor, Tensor, Tensor) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::random(
            Shape::new([('b', 2), ('j', 3), ('i', 5)]).unwrap(),
            &Uniform::new(-2.0, 2.0),
            &mut rng,
        );
        let gamma = Tensor::random(
            Shape::new([('i', 5)]).unwrap(),
            &Uniform::new(0.5, 1.5),
            &mut rng,
        );
        let beta = Tensor::random(
            Shape::new([('i', 5)]).unwrap(),
            &Uniform::new(-0.5, 0.5),
            &mut rng,
        );
        (x, gamma, beta)
    }

    #[test]
    fn normalizes_mean_and_variance() {
        let (x, _, _) = setup(1);
        let ones = Tensor::from_vec(Shape::new([('i', 5)]).unwrap(), vec![1.0; 5]).unwrap();
        let zeros = Tensor::zeros(Shape::new([('i', 5)]).unwrap());
        let (y, _) = layernorm(&x, Axis('i'), &ones, &zeros).unwrap();
        for b in 0..2 {
            for j in 0..3 {
                let mut mean = 0.0;
                let mut var = 0.0;
                for i in 0..5 {
                    mean += y.at(&[b, j, i]);
                }
                mean /= 5.0;
                for i in 0..5 {
                    var += (y.at(&[b, j, i]) - mean).powi(2);
                }
                var /= 5.0;
                assert!(mean.abs() < 1e-5);
                assert!((var - 1.0).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn gamma_beta_applied() {
        let (x, gamma, beta) = setup(2);
        let (y, _) = layernorm(&x, Axis('i'), &gamma, &beta).unwrap();
        let ones = Tensor::from_vec(Shape::new([('i', 5)]).unwrap(), vec![1.0; 5]).unwrap();
        let zeros = Tensor::zeros(Shape::new([('i', 5)]).unwrap());
        let (yhat, _) = layernorm(&x, Axis('i'), &ones, &zeros).unwrap();
        let mut idx = vec![0usize; 3];
        loop {
            let expect = yhat.at(&idx) * gamma.at(&[idx[2]]) + beta.at(&[idx[2]]);
            assert!((y.at(&idx) - expect).abs() < 1e-5);
            if !x.advance(&mut idx) {
                break;
            }
        }
    }

    #[test]
    fn layout_independent() {
        let (x, gamma, beta) = setup(3);
        let (base, _) = layernorm(&x, Axis('i'), &gamma, &beta).unwrap();
        for layout in Layout::all(3) {
            let xp = x.relayout(&layout);
            let (y, _) = layernorm(&xp, Axis('i'), &gamma, &beta).unwrap();
            assert!(y.max_abs_diff(&base).unwrap() < 1e-5);
        }
    }

    #[test]
    fn backward_input_matches_numerical() {
        let (x, gamma, beta) = setup(4);
        let mut rng = StdRng::seed_from_u64(40);
        let w = Tensor::random(x.shape().clone(), &Uniform::new(-1.0, 1.0), &mut rng);
        let loss = |xx: &Tensor| -> f32 {
            let (y, _) = layernorm(xx, Axis('i'), &gamma, &beta).unwrap();
            y.iter().map(|(i, v)| w.at(&i) * v).sum()
        };
        let (y, stats) = layernorm(&x, Axis('i'), &gamma, &beta).unwrap();
        let _ = y;
        let dx = layernorm_backward_input(&w, &x, Axis('i'), &gamma, &stats).unwrap();
        let eps = 1e-2f32;
        let mut idx = vec![0usize; 3];
        loop {
            let mut xp = x.clone();
            let off = xp.offset(&idx);
            xp.data_mut()[off] += eps;
            let mut xm = x.clone();
            xm.data_mut()[off] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (num - dx.at(&idx)).abs() < 5e-2,
                "numerical {num} vs analytic {} at {idx:?}",
                dx.at(&idx)
            );
            if !x.advance(&mut idx) {
                break;
            }
        }
    }

    #[test]
    fn backward_weights_matches_numerical() {
        let (x, gamma, beta) = setup(5);
        let mut rng = StdRng::seed_from_u64(50);
        let w = Tensor::random(x.shape().clone(), &Uniform::new(-1.0, 1.0), &mut rng);
        let (_, stats) = layernorm(&x, Axis('i'), &gamma, &beta).unwrap();
        let (dgamma, dbeta) = layernorm_backward_weights(&w, &x, Axis('i'), &stats).unwrap();
        let eps = 1e-2f32;
        for i in 0..5 {
            // dgamma
            let mut gp = gamma.clone();
            gp.data_mut()[i] += eps;
            let mut gm = gamma.clone();
            gm.data_mut()[i] -= eps;
            let lp: f32 = layernorm(&x, Axis('i'), &gp, &beta)
                .unwrap()
                .0
                .iter()
                .map(|(ix, v)| w.at(&ix) * v)
                .sum();
            let lm: f32 = layernorm(&x, Axis('i'), &gm, &beta)
                .unwrap()
                .0
                .iter()
                .map(|(ix, v)| w.at(&ix) * v)
                .sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - dgamma.at(&[i])).abs() < 5e-2);
            // dbeta
            let mut bp = beta.clone();
            bp.data_mut()[i] += eps;
            let mut bm = beta.clone();
            bm.data_mut()[i] -= eps;
            let lp: f32 = layernorm(&x, Axis('i'), &gamma, &bp)
                .unwrap()
                .0
                .iter()
                .map(|(ix, v)| w.at(&ix) * v)
                .sum();
            let lm: f32 = layernorm(&x, Axis('i'), &gamma, &bm)
                .unwrap()
                .0
                .iter()
                .map(|(ix, v)| w.at(&ix) * v)
                .sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - dbeta.at(&[i])).abs() < 5e-2);
        }
    }

    #[test]
    fn rejects_bad_weight_shapes() {
        let (x, _, _) = setup(6);
        let bad = Tensor::zeros(Shape::new([('i', 4)]).unwrap());
        let beta = Tensor::zeros(Shape::new([('i', 5)]).unwrap());
        assert!(layernorm(&x, Axis('i'), &bad, &beta).is_err());
    }
}
