//! The forward kernel layer: one safe body per kernel, written against a
//! *lane* — the words one reduction sweeps — and generic over how the lane
//! is addressed.
//!
//! ```text
//!   lane bodies        softmax_lane · norm_lane · map_lane · zip_lane · dropout_lane
//!        │             brd_lane · bdr_lane · Dropout::mask_select
//!   lane dispatch      softmax_at · sm_at · layernorm_at · bdrln_at
//!        │             (every stride 1 → exact `[f32]` chunks, else `Strided` views)
//!        ├── view drivers    into_ops::*_into over a `Sweep`, the epilogue tile
//!        │                   driver (logical order, one view per operand)
//!        └── tensor drivers  ops::{softmax, layernorm, dropout}, fused::*
//!                            (logical order, per-operand strides)
//! ```
//!
//! A body is monomorphised over plain slices, whose bounds checks the
//! compiler hoists out of the loops once the lane is cut to its exact
//! extent, and over bounds-checked `Strided` views (which a broadcast
//! operand always is: its stride along the lane may be zero). Which
//! instantiation runs is decided from geometry the driver already holds —
//! the strides of the lane in each operand — never from an option or a
//! certificate.
//! Drivers only enumerate lanes; every statement of arithmetic, and the one
//! dropout draw, is here.

use std::ops::{Deref, DerefMut};

use rand::Rng;

use crate::error::{Result, TensorError};
use crate::ops::elementwise::ActivationKind;
use crate::ops::layernorm::EPS;

/// Read access to the words of one lane.
pub(crate) trait Lane {
    /// Number of lane positions.
    fn lane_len(&self) -> usize;
    /// The word at lane position `v`.
    fn get(&self, v: usize) -> f32;
}

/// Write access to the words of one lane.
pub(crate) trait LaneMut: Lane {
    /// Stores `val` at lane position `v`.
    fn set(&mut self, v: usize, val: f32);
}

impl Lane for [f32] {
    #[inline]
    fn lane_len(&self) -> usize {
        self.len()
    }
    #[inline]
    fn get(&self, v: usize) -> f32 {
        self[v]
    }
}

impl LaneMut for [f32] {
    #[inline]
    fn set(&mut self, v: usize, val: f32) {
        self[v] = val;
    }
}

/// A bounds-checked strided view of one lane (`D` is `&[f32]` or
/// `&mut [f32]`, starting at lane position 0).
#[derive(Debug)]
pub(crate) struct Strided<D> {
    data: D,
    stride: usize,
    len: usize,
}

impl<D: Deref<Target = [f32]>> Lane for Strided<D> {
    #[inline]
    fn lane_len(&self) -> usize {
        self.len
    }
    #[inline]
    fn get(&self, v: usize) -> f32 {
        self.data[v * self.stride]
    }
}

impl<D: DerefMut<Target = [f32]>> LaneMut for Strided<D> {
    #[inline]
    fn set(&mut self, v: usize, val: f32) {
        self.data[v * self.stride] = val;
    }
}

/// Where one lane sits in a flat buffer: `len` words starting at `base`,
/// `stride` words apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneAt {
    /// Offset of lane position 0.
    pub(crate) base: usize,
    /// Distance between consecutive lane positions.
    pub(crate) stride: usize,
    /// Number of lane positions.
    pub(crate) len: usize,
}

impl LaneAt {
    /// The lane as an exact contiguous chunk (`stride == 1`).
    pub(crate) fn unit(self, buf: &[f32]) -> &[f32] {
        &buf[self.base..self.base + self.len]
    }

    /// Mutable [`LaneAt::unit`].
    pub(crate) fn unit_mut(self, buf: &mut [f32]) -> &mut [f32] {
        &mut buf[self.base..self.base + self.len]
    }

    /// The lane as a strided view (any stride).
    pub(crate) fn strided(self, buf: &[f32]) -> Strided<&[f32]> {
        Strided {
            data: &buf[self.base..],
            stride: self.stride,
            len: self.len,
        }
    }

    /// Mutable [`LaneAt::strided`].
    pub(crate) fn strided_mut(self, buf: &mut [f32]) -> Strided<&mut [f32]> {
        Strided {
            data: &mut buf[self.base..],
            stride: self.stride,
            len: self.len,
        }
    }
}

/// A validated dropout probability with its survivor scale and RNG: the
/// draw state every kernel that drops shares. Holding one proves
/// `p ∈ [0, 1)`, so `1/(1-p)` is finite and positive.
#[derive(Debug)]
pub struct Dropout<'r, R: ?Sized> {
    p: f32,
    keep_scale: f32,
    rng: &'r mut R,
}

impl<'r, R: Rng + ?Sized> Dropout<'r, R> {
    /// Validates `p` and binds the RNG the masks are drawn from.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDropout`] unless `0 <= p < 1`.
    pub fn new(p: f32, rng: &'r mut R) -> Result<Self> {
        check_dropout_p(p)?;
        Ok(Dropout {
            p,
            keep_scale: 1.0 / (1.0 - p),
            rng,
        })
    }

    /// Draws one mask value: `0` with probability `p`, else `1/(1-p)`.
    /// Always consumes one `f32` from the RNG — the only dropout draw in
    /// the crate. The select is a multiply, not a branch on random data
    /// (which mispredicts `p` of the time); it is exact because the
    /// validated scale is finite and positive: `1 · s = s`, `0 · s = +0`.
    #[inline]
    pub fn mask_select(&mut self) -> f32 {
        ((self.rng.gen::<f32>() >= self.p) as u32 as f32) * self.keep_scale
    }

    /// The fused kernels' mask value: [`Dropout::mask_select`] when
    /// `p > 0`; at `p == 0` the constant `1` with **no** draw, so a
    /// dropout-free forward leaves the RNG untouched.
    #[inline]
    pub fn mask(&mut self) -> f32 {
        if self.p > 0.0 {
            self.mask_select()
        } else {
            self.keep_scale
        }
    }
}

/// The one range check on a dropout probability.
///
/// # Errors
///
/// Returns [`TensorError::InvalidDropout`] unless `0 <= p < 1` (NaN is
/// rejected).
pub fn check_dropout_p(p: f32) -> Result<()> {
    if (0.0..1.0).contains(&p) {
        Ok(())
    } else {
        Err(TensorError::InvalidDropout(p.to_string()))
    }
}

/// BRD element: `z = x + bias`, `out = dropout(activation(z))`. Returns
/// `(z, mask, out)`.
#[inline]
pub(crate) fn brd<R: Rng + ?Sized>(
    x: f32,
    bias: f32,
    kind: ActivationKind,
    drop: &mut Dropout<'_, R>,
) -> (f32, f32, f32) {
    let z = x + bias;
    let m = drop.mask();
    (z, m, kind.apply(z) * m)
}

/// BDR element: `out = dropout(x + bias) + residual`. Returns
/// `(mask, out)`. At `p == 0` the mask is exactly `1`, so the multiply is
/// a bitwise identity.
#[inline]
pub(crate) fn bdr<R: Rng + ?Sized>(
    x: f32,
    bias: f32,
    residual: f32,
    drop: &mut Dropout<'_, R>,
) -> (f32, f32) {
    let m = drop.mask();
    (m, (x + bias) * m + residual)
}

/// `out[v] = f(x[v])` along one lane: scaling and the activations.
#[inline]
pub(crate) fn map_lane<X: Lane + ?Sized, O: LaneMut + ?Sized>(
    x: &X,
    out: &mut O,
    f: impl Fn(f32) -> f32,
) {
    let len = out.lane_len();
    assert!(x.lane_len() >= len, "lane input shorter than its output");
    for v in 0..len {
        out.set(v, f(x.get(v)));
    }
}

/// `out[v] = f(a[v], b[v])` along one lane: the residual add and the bias
/// add.
#[inline]
pub(crate) fn zip_lane<A: Lane + ?Sized, B: Lane + ?Sized, O: LaneMut + ?Sized>(
    a: &A,
    b: &B,
    out: &mut O,
    f: impl Fn(f32, f32) -> f32,
) {
    let len = out.lane_len();
    assert!(a.lane_len() >= len && b.lane_len() >= len);
    for v in 0..len {
        out.set(v, f(a.get(v), b.get(v)));
    }
}

/// Unfused dropout along one lane: one [`Dropout::mask_select`] per
/// position — a draw even at `p == 0`, unlike the fused kernels —
/// survivors scaled by `1/(1-p)`.
#[inline]
pub(crate) fn dropout_lane<X: Lane + ?Sized, O: LaneMut + ?Sized, R: Rng + ?Sized>(
    x: &X,
    drop: &mut Dropout<'_, R>,
    out: &mut O,
    mask: &mut O,
) {
    let len = out.lane_len();
    assert!(x.lane_len() >= len && mask.lane_len() >= len);
    for v in 0..len {
        let m = drop.mask_select();
        mask.set(v, m);
        out.set(v, x.get(v) * m);
    }
}

/// [`brd`] along one lane, saving the pre-activation and the mask.
#[inline]
pub(crate) fn brd_lane<X, B, O, R>(
    x: &X,
    bias: &B,
    kind: ActivationKind,
    drop: &mut Dropout<'_, R>,
    pre_activation: &mut O,
    out: &mut O,
    mask: &mut O,
) where
    X: Lane + ?Sized,
    B: Lane + ?Sized,
    O: LaneMut + ?Sized,
    R: Rng + ?Sized,
{
    let len = out.lane_len();
    assert!(x.lane_len() >= len && bias.lane_len() >= len);
    assert!(pre_activation.lane_len() >= len && mask.lane_len() >= len);
    for v in 0..len {
        let (z, m, o) = brd(x.get(v), bias.get(v), kind, drop);
        pre_activation.set(v, z);
        mask.set(v, m);
        out.set(v, o);
    }
}

/// [`bdr`] along one lane, saving the mask.
#[inline]
pub(crate) fn bdr_lane<X, B, O, R>(
    x: &X,
    bias: &B,
    residual: &X,
    drop: &mut Dropout<'_, R>,
    mask: &mut O,
    out: &mut O,
) where
    X: Lane + ?Sized,
    B: Lane + ?Sized,
    O: LaneMut + ?Sized,
    R: Rng + ?Sized,
{
    let len = out.lane_len();
    assert!(x.lane_len() >= len && bias.lane_len() >= len);
    assert!(residual.lane_len() >= len && mask.lane_len() >= len);
    for v in 0..len {
        let (m, o) = bdr(x.get(v), bias.get(v), residual.get(v), drop);
        mask.set(v, m);
        out.set(v, o);
    }
}

/// What [`softmax_lane`] does with each normalized value beyond storing
/// it: nothing (`()`, the plain and causal softmax) or the fused SM's
/// dropout ([`Dropped`]).
pub(crate) trait SoftmaxTail {
    /// Visible position `v` holds the softmax value `y`.
    fn keep(&mut self, v: usize, y: f32);
    /// Position `v` was zeroed (masked tail, or a fully masked lane).
    fn zero(&mut self, v: usize);
}

impl SoftmaxTail for () {
    fn keep(&mut self, _: usize, _: f32) {}
    fn zero(&mut self, _: usize) {}
}

/// The fused SM's outputs beside the saved softmax: `alpha = y · mask`,
/// one [`Dropout::mask`] per visible position, in lane order.
#[derive(Debug)]
pub(crate) struct Dropped<'a, 'r, O: ?Sized, R: ?Sized> {
    /// Dropped-out attention weights.
    pub(crate) alpha: &'a mut O,
    /// Saved dropout mask.
    pub(crate) mask: &'a mut O,
    /// Draw state.
    pub(crate) drop: &'a mut Dropout<'r, R>,
}

impl<O: LaneMut + ?Sized, R: Rng + ?Sized> SoftmaxTail for Dropped<'_, '_, O, R> {
    fn keep(&mut self, v: usize, y: f32) {
        let m = self.drop.mask();
        self.mask.set(v, m);
        self.alpha.set(v, y * m);
    }
    fn zero(&mut self, v: usize) {
        self.mask.set(v, 0.0);
        self.alpha.set(v, 0.0);
    }
}

/// Scale → numerically stable softmax over the first `visible` positions
/// → (tail-defined) dropout → zero tail. Covers the plain softmax
/// (`visible == len`), the causal softmax and the fused SM.
///
/// A lane whose visible inputs are all `−inf` (a fully masked row) has no
/// defined distribution: every output of the lane is zero and nothing is
/// drawn. A NaN anywhere in the visible prefix poisons the whole visible
/// lane (`max` skips it, the sum does not) — the arena sanitizer's NaN
/// poison relies on that. A `+inf` input likewise yields NaN, not a panic.
#[inline]
pub(crate) fn softmax_lane<X: Lane + ?Sized, O: LaneMut + ?Sized, T: SoftmaxTail>(
    x: &X,
    scaler: f32,
    visible: usize,
    out: &mut O,
    tail: &mut T,
) {
    let len = out.lane_len();
    assert!(x.lane_len() >= len, "softmax input shorter than its output");
    let mut live = visible.min(len);
    let mut mx = f32::NEG_INFINITY;
    for v in 0..live {
        mx = mx.max(scaler * x.get(v));
    }
    if mx == f32::NEG_INFINITY && (0..live).all(|v| scaler * x.get(v) == f32::NEG_INFINITY) {
        live = 0;
    }
    let mut sum = 0.0f32;
    for v in 0..live {
        let e = (scaler * x.get(v) - mx).exp();
        out.set(v, e);
        sum += e;
    }
    let inv = 1.0 / sum;
    for v in 0..live {
        let y = out.get(v) * inv;
        out.set(v, y);
        tail.keep(v, y);
    }
    for v in live..len {
        out.set(v, 0.0);
        tail.zero(v);
    }
}

/// What [`norm_lane`] normalizes: a lane as it is (`&X`), or the fused
/// bias + dropout + residual prologue computed on the way in.
pub(crate) trait NormSource {
    /// Produces the layer-norm input at position `v` (first pass, `v`
    /// ascending).
    fn load(&mut self, v: usize) -> f32;
    /// Re-reads the layer-norm input at position `v` (second pass).
    fn normed(&self, v: usize) -> f32;
}

impl<X: Lane + ?Sized> NormSource for &X {
    fn load(&mut self, v: usize) -> f32 {
        self.get(v)
    }
    fn normed(&self, v: usize) -> f32 {
        self.get(v)
    }
}

/// The BDRLN prologue: `ln_input = dropout(x + bias) + residual`, saving
/// the mask and `ln_input`; one [`Dropout::mask`] per position.
#[derive(Debug)]
pub(crate) struct BiasDropResidual<'a, 'r, X: ?Sized, O: ?Sized, B, R: ?Sized> {
    /// The lane being normalized.
    pub(crate) x: &'a X,
    /// Bias value at lane position `v`.
    pub(crate) bias: B,
    /// Residual lane (its own addressing).
    pub(crate) residual: &'a X,
    /// Saved dropout mask.
    pub(crate) mask: &'a mut O,
    /// Saved layer-norm input.
    pub(crate) ln_input: &'a mut O,
    /// Draw state.
    pub(crate) drop: &'a mut Dropout<'r, R>,
}

impl<X, O, B, R> NormSource for BiasDropResidual<'_, '_, X, O, B, R>
where
    X: Lane + ?Sized,
    O: LaneMut + ?Sized,
    B: FnMut(usize) -> f32,
    R: Rng + ?Sized,
{
    fn load(&mut self, v: usize) -> f32 {
        let (x, r) = (self.x.get(v), self.residual.get(v));
        let (m, li) = bdr(x, (self.bias)(v), r, self.drop);
        self.mask.set(v, m);
        self.ln_input.set(v, li);
        li
    }
    fn normed(&self, v: usize) -> f32 {
        self.ln_input.get(v)
    }
}

/// (Optional prologue →) moments → affine: `out = (src − mean) · inv_std ·
/// gamma + beta` along one lane. Returns `(mean, inv_std)`. Covers
/// `layernorm` and BDRLN.
#[inline]
pub(crate) fn norm_lane<S: NormSource, O: LaneMut + ?Sized>(
    mut src: S,
    gamma: &[f32],
    beta: &[f32],
    out: &mut O,
) -> (f32, f32) {
    let len = out.lane_len();
    let (gamma, beta) = (&gamma[..len], &beta[..len]);
    let mut sum = 0.0f32;
    let mut sq = 0.0f32;
    for v in 0..len {
        let val = src.load(v);
        sum += val;
        sq += val * val;
    }
    let mean = sum / len as f32;
    let var = (sq / len as f32 - mean * mean).max(0.0);
    let inv_std = 1.0 / (var + EPS).sqrt();
    for v in 0..len {
        let xhat = (src.normed(v) - mean) * inv_std;
        out.set(v, xhat * gamma[v] + beta[v]);
    }
    (mean, inv_std)
}

/// Whether every one of `lanes` is contiguous, so the slice instantiation
/// of a body serves all of them.
pub(crate) fn all_unit(lanes: &[LaneAt]) -> bool {
    lanes.iter().all(|at| at.stride == 1)
}

/// [`softmax_lane`] on the lane at `xa` of `x`, into the lane at `oa` of
/// `out`.
pub(crate) fn softmax_at(
    x: &[f32],
    xa: LaneAt,
    scaler: f32,
    visible: usize,
    out: &mut [f32],
    oa: LaneAt,
) {
    if all_unit(&[xa, oa]) {
        softmax_lane(xa.unit(x), scaler, visible, oa.unit_mut(out), &mut ());
    } else {
        let out = &mut oa.strided_mut(out);
        softmax_lane(&xa.strided(x), scaler, visible, out, &mut ());
    }
}

/// Fused SM on the lane at `xa` of `x`; each output names its own lane.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sm_at<R: Rng + ?Sized>(
    x: &[f32],
    xa: LaneAt,
    scaler: f32,
    visible: usize,
    drop: &mut Dropout<'_, R>,
    (softmax, sa): (&mut [f32], LaneAt),
    (alpha, aa): (&mut [f32], LaneAt),
    (mask, ma): (&mut [f32], LaneAt),
) {
    if all_unit(&[xa, sa, aa, ma]) {
        let (alpha, mask) = (aa.unit_mut(alpha), ma.unit_mut(mask));
        let mut tail = Dropped { alpha, mask, drop };
        softmax_lane(xa.unit(x), scaler, visible, sa.unit_mut(softmax), &mut tail);
    } else {
        let (alpha, mask) = (&mut aa.strided_mut(alpha), &mut ma.strided_mut(mask));
        let mut tail = Dropped { alpha, mask, drop };
        let softmax = &mut sa.strided_mut(softmax);
        softmax_lane(&xa.strided(x), scaler, visible, softmax, &mut tail);
    }
}

/// Layer norm on the lane at `xa` of `x`, into the lane at `oa` of `out`.
/// Returns `(mean, inv_std)`.
pub(crate) fn layernorm_at(
    x: &[f32],
    xa: LaneAt,
    gamma: &[f32],
    beta: &[f32],
    out: &mut [f32],
    oa: LaneAt,
) -> (f32, f32) {
    if all_unit(&[xa, oa]) {
        norm_lane(xa.unit(x), gamma, beta, oa.unit_mut(out))
    } else {
        norm_lane(&xa.strided(x), gamma, beta, &mut oa.strided_mut(out))
    }
}

/// Fused BDRLN on the lane at `xa` of `x`; the residual and each output
/// name their own lanes, and `bias(v)` yields the bias at lane position
/// `v`. Returns `(mean, inv_std)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bdrln_at<B: FnMut(usize) -> f32, R: Rng + ?Sized>(
    x: &[f32],
    xa: LaneAt,
    bias: B,
    (residual, ra): (&[f32], LaneAt),
    gamma: &[f32],
    beta: &[f32],
    drop: &mut Dropout<'_, R>,
    (mask, ma): (&mut [f32], LaneAt),
    (ln_input, la): (&mut [f32], LaneAt),
    (out, oa): (&mut [f32], LaneAt),
) -> (f32, f32) {
    if all_unit(&[xa, ra, ma, la, oa]) {
        let src = BiasDropResidual {
            x: xa.unit(x),
            bias,
            residual: ra.unit(residual),
            mask: ma.unit_mut(mask),
            ln_input: la.unit_mut(ln_input),
            drop,
        };
        norm_lane(src, gamma, beta, oa.unit_mut(out))
    } else {
        let src = BiasDropResidual {
            x: &xa.strided(x),
            bias,
            residual: &ra.strided(residual),
            mask: &mut ma.strided_mut(mask),
            ln_input: &mut la.strided_mut(ln_input),
            drop,
        };
        norm_lane(src, gamma, beta, &mut oa.strided_mut(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    const NEG: f32 = f32::NEG_INFINITY;

    /// The fused SM body over two unit-stride 3-word lanes; returns
    /// `(softmax, alpha, mask)` and the RNG's next draw. (The strided
    /// instantiation is the same source; `tests/proptests.rs` holds the two
    /// bitwise-equal and `ops::softmax`'s tests repeat the masked-lane case
    /// on every layout.)
    fn sm(x: [f32; 6], visible: usize, p: f32) -> ([Vec<f32>; 3], u64) {
        let mut rng = StdRng::seed_from_u64(5);
        let mut drop = Dropout::new(p, &mut rng).unwrap();
        let [mut s, mut a, mut m] = [vec![7.0f32; 6], vec![7.0f32; 6], vec![7.0f32; 6]];
        for base in [0, 3] {
            let at = LaneAt {
                base,
                stride: 1,
                len: 3,
            };
            sm_at(
                &x,
                at,
                0.5,
                visible,
                &mut drop,
                (&mut s, at),
                (&mut a, at),
                (&mut m, at),
            );
        }
        ([s, a, m], rng.next_u64())
    }

    #[test]
    fn fully_masked_lane_is_zero_in_every_output_and_draws_nothing() {
        // lane 0 is all −inf over its visible prefix; lane 1 is ordinary
        let ([s, a, m], next) = sm([NEG, NEG, 3.0, 0.0, 1.0, 2.0], 2, 0.5);
        assert_eq!(&s[..3], &[0.0; 3]);
        assert_eq!(&a[..3], &[0.0; 3]);
        assert_eq!(&m[..3], &[0.0; 3]);
        assert!((s[3] + s[4] - 1.0).abs() < 1e-6 && s[5] == 0.0);
        // only lane 1's two visible positions drew
        let mut rng = StdRng::seed_from_u64(5);
        let mut drop = Dropout::new(0.5, &mut rng).unwrap();
        drop.mask_select();
        drop.mask_select();
        assert_eq!(next, rng.next_u64());
    }

    #[test]
    fn nan_poisons_the_whole_visible_lane_but_not_the_masked_tail() {
        // a NaN next to −inf must not be mistaken for a fully masked lane
        for lane0 in [[f32::NAN, 1.0, 9.0], [NEG, f32::NAN, 9.0]] {
            let [x0, x1, x2] = lane0;
            let ([s, a, _], _) = sm([x0, x1, x2, 0.0, 1.0, 2.0], 2, 0.0);
            assert!(s[0].is_nan() && s[1].is_nan(), "visible prefix: {s:?}");
            assert!(a[0].is_nan() && a[1].is_nan());
            assert_eq!(s[2], 0.0, "masked tail stays an exact zero");
            assert!(s[3..].iter().all(|v| v.is_finite()), "the other lane");
        }
    }

    #[test]
    fn positive_infinity_does_not_panic() {
        let ([s, ..], _) = sm([f32::INFINITY, 1.0, 2.0, 0.0, 0.0, 0.0], 3, 0.0);
        assert!(
            s[..3].iter().all(|v| v.is_nan()),
            "inf − inf poisons: {s:?}"
        );
    }

    #[test]
    fn dropout_probability_is_range_checked() {
        let mut rng = StdRng::seed_from_u64(1);
        for p in [1.0f32, 1.5, -0.5, f32::NAN, f32::INFINITY] {
            let err = Dropout::new(p, &mut rng).unwrap_err();
            assert!(matches!(err, TensorError::InvalidDropout(_)), "p = {p}");
        }
        assert!(Dropout::new(0.0, &mut rng).is_ok());
        assert!(Dropout::new(0.999, &mut rng).is_ok());
    }

    #[test]
    fn unfused_dropout_draws_even_at_p_zero_and_fused_does_not() {
        let next_after = |select: bool| {
            let mut rng = StdRng::seed_from_u64(2);
            let mut drop = Dropout::new(0.0, &mut rng).unwrap();
            let m = if select {
                drop.mask_select()
            } else {
                drop.mask()
            };
            assert_eq!(m, 1.0);
            rng.next_u64()
        };
        let untouched = StdRng::seed_from_u64(2).next_u64();
        assert_eq!(next_after(false), untouched, "mask() drew at p == 0");
        assert_ne!(next_after(true), untouched, "mask_select() must draw");
    }
}
