//! Dropout (○ element-wise) forward and backward.
//!
//! Matches the training-time behaviour the paper measures: a Bernoulli mask
//! is generated (cuRAND on the GPU, [`Dropout::mask`] of the caller's
//! generator here), survivors are scaled by `1/(1-p)`, and the mask is
//! saved because backpropagation reuses it (`Dropout dX` nodes in Fig. 2
//! consume the stored mask, which is why the mask counts toward data
//! movement).

use rand::rngs::StdRng;

use crate::error::Result;
use crate::into_ops::dropout_into;
use crate::lanes::Dropout;
use crate::tensor::Tensor;

use super::{check_same_shape, sweep_of, view_of};

/// Applies dropout with drop probability `p`, returning `(output, mask)`.
/// The mask holds `0.0` for dropped elements and `1/(1-p)` for kept ones,
/// so backward is a plain element-wise product with the mask. Both are in
/// `x`'s layout; an element's mask is the one of its row-major logical
/// index, as in every other element-wise dropout, whatever the layout.
/// `rng` is the masks' key and moves past one word an element, at any `p`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1)`.
pub fn dropout(x: &Tensor, p: f32, rng: &mut StdRng) -> (Tensor, Tensor) {
    let drop = Dropout::new(p, rng).expect("dropout probability must be in [0, 1)");
    let v = view_of(x);
    let sweep = sweep_of(&[&v, &v, &v], None, None, "dropout").expect("a tensor's own strides");
    let mut out = x.clone();
    let mut mask = x.clone();
    dropout_into(&sweep, x.data(), &drop, out.data_mut(), mask.data_mut());
    rng.skip(x.len() as u64);
    (out, mask)
}

/// Dropout backward: `dx = dy ⊙ mask`.
///
/// # Errors
///
/// Returns [`crate::TensorError::ShapeMismatch`] if shapes differ.
pub fn dropout_backward(dy: &Tensor, mask: &Tensor) -> Result<Tensor> {
    check_same_shape(dy, mask, "dropout_backward")?;
    super::elementwise::mul(dy, mask)
}

/// Identity dropout used for inference or deterministic tests: the returned
/// mask keeps every element with scale 1.
pub fn dropout_disabled(x: &Tensor) -> (Tensor, Tensor) {
    let mut mask = x.clone();
    mask.fill(1.0);
    (x.clone(), mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axes::Shape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ones(n: usize) -> Tensor {
        Tensor::from_vec(Shape::new([('x', n)]).unwrap(), vec![1.0; n]).unwrap()
    }

    #[test]
    fn keeps_expected_fraction() {
        let x = ones(10_000);
        let mut rng = StdRng::seed_from_u64(1);
        let (_, mask) = dropout(&x, 0.3, &mut rng);
        let kept = mask.data().iter().filter(|&&m| m > 0.0).count();
        let frac = kept as f32 / 10_000.0;
        assert!((frac - 0.7).abs() < 0.02, "kept fraction {frac}");
    }

    #[test]
    fn scales_survivors() {
        let x = ones(100);
        let mut rng = StdRng::seed_from_u64(2);
        let (y, mask) = dropout(&x, 0.5, &mut rng);
        for (yv, mv) in y.data().iter().zip(mask.data()) {
            if *mv > 0.0 {
                assert!((yv - 2.0).abs() < 1e-6);
            } else {
                assert_eq!(*yv, 0.0);
            }
        }
    }

    #[test]
    fn expectation_preserved() {
        let x = ones(100_000);
        let mut rng = StdRng::seed_from_u64(3);
        let (y, _) = dropout(&x, 0.1, &mut rng);
        let mean = y.sum() / 100_000.0;
        assert!((mean - 1.0).abs() < 0.01);
    }

    #[test]
    fn backward_uses_mask() {
        let x = ones(50);
        let mut rng = StdRng::seed_from_u64(4);
        let (_, mask) = dropout(&x, 0.4, &mut rng);
        let dy = ones(50);
        let dx = dropout_backward(&dy, &mask).unwrap();
        assert_eq!(dx.data(), mask.data());
    }

    #[test]
    fn zero_probability_is_identity() {
        let x = ones(10);
        let mut rng = StdRng::seed_from_u64(5);
        let (y, mask) = dropout(&x, 0.0, &mut rng);
        assert_eq!(y.data(), x.data());
        assert!(mask.data().iter().all(|&m| m == 1.0));
    }

    #[test]
    fn disabled_is_identity() {
        let x = ones(10);
        let (y, mask) = dropout_disabled(&x);
        assert_eq!(y.data(), x.data());
        assert!(mask.data().iter().all(|&m| m == 1.0));
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn rejects_bad_probability() {
        let x = ones(4);
        let mut rng = StdRng::seed_from_u64(6);
        let _ = dropout(&x, 1.0, &mut rng);
    }
}
