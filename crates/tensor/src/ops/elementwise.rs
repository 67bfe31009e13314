//! Element-wise operators (○): bias, activation, residual, scaling, and
//! their backward passes.

use crate::axes::{Axis, Shape};
use crate::error::{Result, TensorError};
use crate::into_ops::{activate_backward_into, bias_add_into, bias_grad_into, zip_into, View};
use crate::lanes::{exp, map_lane, BLOCK};
use crate::tensor::Tensor;

use super::{check_same_shape, sweep_of, view_of};

/// Applies `f` to every element, producing a tensor with the same shape and
/// layout as `x`.
pub fn map<F>(x: &Tensor, mut f: F) -> Tensor
where
    F: FnMut(f32) -> f32,
{
    let mut out = x.clone();
    for v in out.data_mut() {
        *v = f(*v);
    }
    out
}

/// Combines two same-shape tensors element-wise. The output inherits `a`'s
/// layout. Layouts of `a` and `b` may differ.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn zip_map<F>(a: &Tensor, b: &Tensor, mut f: F) -> Result<Tensor>
where
    F: FnMut(f32, f32) -> f32,
{
    check_same_shape(a, b, "zip_map")?;
    let mut out = a.clone();
    if a.layout() == b.layout() {
        // identical memory mapping — a single fused sweep
        for (o, &bv) in out.data_mut().iter_mut().zip(b.data()) {
            *o = f(*o, bv);
        }
        return Ok(out);
    }
    let (va, vb) = (view_of(a), view_of(b));
    let sweep = sweep_of(&[&va, &vb, &va], None, None, "zip_map")?;
    zip_into(&sweep, a.data(), b.data(), out.data_mut(), f);
    Ok(out)
}

/// Residual connection: `a + b`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    zip_map(a, b, |x, y| x + y)
}

/// Element-wise product (used for dropout-mask application).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn mul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    zip_map(a, b, |x, y| x * y)
}

/// Multiplies every element by `alpha` (the `1/sqrt(P)` attention scaling —
/// the one operation cuBLAS lets the paper fuse into a contraction).
pub fn scale(x: &Tensor, alpha: f32) -> Tensor {
    map(x, |v| alpha * v)
}

/// Adds a broadcast bias: `out[idx] = x[idx] + bias[idx restricted to bias
/// axes]`. The bias's axes must be a subset of `x`'s (e.g. bias `[p,h]`
/// added to a `[p,h,b,j]` activation — the paper's "bias `[ph]`" nodes).
///
/// # Errors
///
/// Returns [`TensorError::UnknownAxis`] if a bias axis is absent from `x`.
pub fn bias_add(x: &Tensor, bias: &Tensor) -> Result<Tensor> {
    let (vx, vb) = (
        view_of(x),
        bias_view(bias.shape(), bias.strides(), x, "bias_add")?,
    );
    let sweep = sweep_of(&[&vx, &vb, &vx], None, None, "bias_add")?;
    let mut out = Tensor::zeros_with_layout(x.shape().clone(), *x.layout());
    bias_add_into(&sweep, x.data(), bias.data(), out.data_mut());
    Ok(out)
}

/// A bias of the given shape and strides broadcast onto `x`'s axes by name.
///
/// # Errors
///
/// Returns [`TensorError::UnknownAxis`] if `x` lacks one of its axes and
/// [`TensorError::ShapeMismatch`] if an extent disagrees.
pub(crate) fn bias_view(
    shape: &Shape,
    strides: &[usize],
    x: &Tensor,
    context: &'static str,
) -> Result<View> {
    for &ax in shape.axes() {
        x.shape().index_of(ax)?;
    }
    View::broadcast(shape, strides, x.shape()).ok_or(TensorError::ShapeMismatch { context })
}

/// Gradient of a broadcast bias: sums `dy` over every axis not in the bias
/// (the `bji->i`-style reduction of Fig. 3), each sum in `dy`'s logical
/// order.
///
/// # Errors
///
/// Returns [`TensorError::UnknownAxis`] if a bias axis is absent from `dy`.
pub fn bias_grad(dy: &Tensor, bias_axes: &[Axis]) -> Result<Tensor> {
    let mut out = Tensor::zeros(bias_shape(dy, bias_axes)?);
    let vo = bias_view(out.shape(), out.strides(), dy, "bias_grad")?;
    let sweep = sweep_of(&[&view_of(dy), &vo], None, None, "bias_grad")?;
    bias_grad_into(&sweep, dy.data(), out.data_mut());
    Ok(out)
}

/// The shape of a bias over `bias_axes` of `dy`, in the order given.
///
/// # Errors
///
/// Returns [`TensorError::UnknownAxis`] if a bias axis is absent from `dy`.
pub(crate) fn bias_shape(dy: &Tensor, bias_axes: &[Axis]) -> Result<Shape> {
    let sizes = bias_axes
        .iter()
        .map(|&ax| Ok((ax, dy.shape().sizes()[dy.shape().index_of(ax)?])))
        .collect::<Result<Vec<_>>>()?;
    Shape::new(sizes)
}

/// ReLU activation.
pub fn relu(x: &Tensor) -> Tensor {
    map(x, |v| v.max(0.0))
}

/// ReLU backward: `dx = dy · 1[x > 0]`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn relu_backward(dy: &Tensor, x: &Tensor) -> Result<Tensor> {
    zip_map(dy, x, |g, v| if v > 0.0 { g } else { 0.0 })
}

/// The feed-forward activation function. The paper's BERT figure uses
/// ReLU; the original BERT (and GPT-2) use GELU — both are supported and
/// the recipe is agnostic (they are element-wise either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ActivationKind {
    /// `max(0, x)`.
    #[default]
    Relu,
    /// The tanh-approximated Gaussian error linear unit used by BERT/GPT-2.
    Gelu,
}

/// `√(2/π)` and the cubic coefficient of the GELU tanh approximation.
const GELU_C: f32 = 0.797_884_6;
const GELU_A: f32 = 0.044_715;

/// `½·x·(1 + tanh u)` with `u = √(2/π)·(x + 0.044715·x³)`, written on
/// `1 + tanh u = 2/(1 + e⁻²ᵘ)` over the kernel layer's one [`exp`]. The
/// exponential may overflow to `+inf` (`x / inf` is the `−0` the tanh form
/// gives) or flush to zero (`x / 1`).
#[inline]
fn gelu(x: f32) -> f32 {
    let u = GELU_C * (x + GELU_A * x * x * x);
    x / (1.0 + exp(-2.0 * u))
}

/// GELU′ `= s + x·s·(1 − s)·2u′` with `s = 1/(1 + e⁻²ᵘ)`. The exponential is
/// taken of `−|2u|`, which cannot overflow: `q = 1/(1 + e)` is then `s` or
/// `1 − s` by the sign of `u`, and `s·(1 − s) = e·q²` either way — where
/// the one-sided form is `inf · 0` from `x = −30` down.
#[inline]
fn gelu_grad(x: f32) -> f32 {
    let u = GELU_C * (x + GELU_A * x * x * x);
    let du = GELU_C * (1.0 + 3.0 * GELU_A * x * x);
    let e = exp(-(2.0 * u).abs());
    let q = 1.0 / (1.0 + e);
    let s = if u >= 0.0 { q } else { e * q };
    s + x * (e * q * q) * (2.0 * du)
}

/// `f` of every word of a block, as a loop the compiler vectorizes
/// (`array::map` it does not).
#[inline(always)]
fn each(mut x: [f32; BLOCK], f: impl Fn(f32) -> f32) -> [f32; BLOCK] {
    for v in &mut x {
        *v = f(*v);
    }
    x
}

impl ActivationKind {
    /// Applies the activation to one value.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Gelu => gelu(x),
        }
    }

    /// Derivative of the activation with respect to its pre-activation.
    #[inline]
    pub fn grad(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => f32::from(u8::from(x > 0.0)),
            ActivationKind::Gelu => gelu_grad(x),
        }
    }

    /// [`ActivationKind::apply`] on a block of lane positions: the kind is
    /// matched once and the arithmetic runs on the sixteen abreast.
    #[inline]
    pub(crate) fn apply_block(self, x: [f32; BLOCK]) -> [f32; BLOCK] {
        match self {
            ActivationKind::Relu => each(x, |v| ActivationKind::Relu.apply(v)),
            ActivationKind::Gelu => each(x, gelu),
        }
    }

    /// [`ActivationKind::grad`] on a block of lane positions.
    #[inline]
    pub(crate) fn grad_block(self, x: [f32; BLOCK]) -> [f32; BLOCK] {
        match self {
            ActivationKind::Relu => each(x, |v| ActivationKind::Relu.grad(v)),
            ActivationKind::Gelu => each(x, gelu_grad),
        }
    }
}

/// Applies an activation element-wise.
pub fn activate(x: &Tensor, kind: ActivationKind) -> Tensor {
    let mut out = Tensor::zeros_with_layout(x.shape().clone(), *x.layout());
    // same layout in and out: the buffers are one lane
    map_lane(x.data(), out.data_mut(), |v| kind.apply(v));
    out
}

/// Activation backward: `dx = dy · act'(x)` where `x` is the saved
/// pre-activation.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn activate_backward(dy: &Tensor, x: &Tensor, kind: ActivationKind) -> Result<Tensor> {
    check_same_shape(dy, x, "activate_backward")?;
    let (vg, vx) = (view_of(dy), view_of(x));
    let sweep = sweep_of(&[&vg, &vx, &vg], None, None, "activate_backward")?;
    let mut dx = dy.clone();
    activate_backward_into(&sweep, dy.data(), x.data(), kind, dx.data_mut());
    Ok(dx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axes::Shape;
    use crate::layout::Layout;

    fn t(vals: &[f32]) -> Tensor {
        Tensor::from_vec(Shape::new([('b', 2), ('j', 2)]).unwrap(), vals.to_vec()).unwrap()
    }

    #[test]
    fn add_and_mul() {
        let a = t(&[1.0, 2.0, 3.0, 4.0]);
        let b = t(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(add(&a, &b).unwrap().data(), &[11.0, 22.0, 33.0, 44.0]);
        assert_eq!(mul(&a, &b).unwrap().data(), &[10.0, 40.0, 90.0, 160.0]);
    }

    #[test]
    fn zip_map_handles_mixed_layouts() {
        let a = t(&[1.0, 2.0, 3.0, 4.0]);
        let b_rm = t(&[10.0, 20.0, 30.0, 40.0]);
        let b = b_rm.relayout(&Layout::from_axis_order(b_rm.shape(), "jb").unwrap());
        let out = add(&a, &b).unwrap();
        let expect = add(&a, &b_rm).unwrap();
        assert_eq!(out.max_abs_diff(&expect).unwrap(), 0.0);
        assert_eq!(out.layout(), a.layout());
    }

    #[test]
    fn zip_map_rejects_shape_mismatch() {
        let a = t(&[0.0; 4]);
        let b = Tensor::zeros(Shape::new([('b', 2)]).unwrap());
        assert!(add(&a, &b).is_err());
    }

    #[test]
    fn scale_scales() {
        let a = t(&[1.0, -2.0, 3.0, -4.0]);
        assert_eq!(scale(&a, 0.5).data(), &[0.5, -1.0, 1.5, -2.0]);
    }

    #[test]
    fn bias_add_broadcasts_over_missing_axes() {
        let x = t(&[1.0, 2.0, 3.0, 4.0]); // axes (b, j)
        let bias = Tensor::from_vec(Shape::new([('j', 2)]).unwrap(), vec![10.0, 20.0]).unwrap();
        let out = bias_add(&x, &bias).unwrap();
        assert_eq!(out.data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn bias_add_validates_axes() {
        let x = t(&[0.0; 4]);
        let bias = Tensor::zeros(Shape::new([('q', 2)]).unwrap());
        assert!(bias_add(&x, &bias).is_err());
        let bias = Tensor::zeros(Shape::new([('j', 3)]).unwrap());
        assert!(bias_add(&x, &bias).is_err());
    }

    #[test]
    fn bias_grad_reduces_other_axes() {
        let dy = t(&[1.0, 2.0, 3.0, 4.0]);
        let g = bias_grad(&dy, &[Axis('j')]).unwrap();
        assert_eq!(g.data(), &[4.0, 6.0]);
        let g2 = bias_grad(&dy, &[Axis('b'), Axis('j')]).unwrap();
        assert_eq!(g2.data(), dy.data());
    }

    #[test]
    fn gelu_matches_reference_values() {
        // reference values from the tanh approximation
        let cases = [
            (0.0f32, 0.0f32),
            (1.0, 0.841_192),
            (-1.0, -0.158_808),
            (3.0, 2.996_363),
            (-3.0, -0.003_637),
        ];
        for (x, want) in cases {
            let got = ActivationKind::Gelu.apply(x);
            assert!((got - want).abs() < 1e-3, "gelu({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn gelu_grad_matches_numerical() {
        for &x in &[-2.5f32, -1.0, -0.1, 0.0, 0.3, 1.7, 4.0] {
            let eps = 1e-3;
            let num = (ActivationKind::Gelu.apply(x + eps) - ActivationKind::Gelu.apply(x - eps))
                / (2.0 * eps);
            let ana = ActivationKind::Gelu.grad(x);
            assert!(
                (num - ana).abs() < 1e-2,
                "gelu'({x}): {ana} vs numeric {num}"
            );
        }
    }

    #[test]
    fn gelu_and_its_derivative_are_finite_wherever_the_input_is_moderate() {
        // every 4099th bit pattern up to 10⁴, both signs
        for bits in (0..=1e4f32.to_bits()).step_by(4099) {
            for x in [f32::from_bits(bits), -f32::from_bits(bits)] {
                let (y, dy) = (ActivationKind::Gelu.apply(x), ActivationKind::Gelu.grad(x));
                assert!(y.is_finite() && dy.is_finite(), "x = {x}: {y}, {dy}");
            }
        }
        // where a one-sided sigmoid form of the derivative is `inf · 0`
        assert_eq!(ActivationKind::Gelu.grad(-30.0), 0.0);
        assert_eq!(ActivationKind::Gelu.grad(30.0), 1.0);
        // and at the ends, what the tanh form gave
        assert_eq!(ActivationKind::Gelu.apply(f32::INFINITY), f32::INFINITY);
        assert!(ActivationKind::Gelu.apply(f32::NEG_INFINITY).is_nan());
        assert!(ActivationKind::Gelu.apply(f32::NAN).is_nan());
        for x in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            assert!(ActivationKind::Gelu.grad(x).is_nan(), "x = {x}");
        }
    }

    #[test]
    fn a_block_is_its_words_one_by_one() {
        let x: [f32; BLOCK] = std::array::from_fn(|k| 0.7 * k as f32 - 5.0);
        for kind in [ActivationKind::Relu, ActivationKind::Gelu] {
            let bits = |b: [f32; BLOCK]| b.map(f32::to_bits);
            assert_eq!(bits(kind.apply_block(x)), bits(x.map(|v| kind.apply(v))));
            assert_eq!(bits(kind.grad_block(x)), bits(x.map(|v| kind.grad(v))));
        }
    }

    #[test]
    fn activate_dispatches_and_backward_agrees_with_relu_path() {
        let x = t(&[1.0, -2.0, 0.5, -0.1]);
        let a = activate(&x, ActivationKind::Relu);
        assert_eq!(a.data(), relu(&x).data());
        let dy = t(&[1.0, 1.0, 1.0, 1.0]);
        let g1 = activate_backward(&dy, &x, ActivationKind::Relu).unwrap();
        let g2 = relu_backward(&dy, &x).unwrap();
        assert_eq!(g1.data(), g2.data());
        // GELU is smooth and nonzero on both sides
        let g3 = activate_backward(&dy, &x, ActivationKind::Gelu).unwrap();
        assert!(g3.data().iter().all(|v| v.is_finite()));
        assert!(g3.at(&[0, 1]) != 0.0);
    }

    #[test]
    fn relu_and_backward() {
        let x = t(&[1.0, -2.0, 0.0, 4.0]);
        assert_eq!(relu(&x).data(), &[1.0, 0.0, 0.0, 4.0]);
        let dy = t(&[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(
            relu_backward(&dy, &x).unwrap().data(),
            &[5.0, 0.0, 0.0, 5.0]
        );
    }
}
