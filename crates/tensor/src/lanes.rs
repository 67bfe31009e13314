//! The forward kernel layer: one safe body per kernel, written against a
//! *lane* — the words one reduction sweeps — and generic over how the lane
//! is addressed.
//!
//! ```text
//!   lane bodies        softmax_lane · norm_lane · brd · bdr · Dropout::mask_select
//!        │
//!   lane dispatch      softmax_at · sm_at · layernorm_at · bdrln_at
//!        │             (stride == 1 → exact `[f32]` chunks, else `Strided` views)
//!        ├── slice drivers   into_ops::*_into, the epilogue tile driver
//!        │                   (physical order over dense row-major buffers)
//!        └── tensor drivers  ops::{softmax, layernorm, dropout}, fused::*
//!                            (logical order, per-operand strides)
//! ```
//!
//! A body is monomorphised twice: over plain slices, whose bounds checks
//! the compiler hoists out of the loops once the lane is cut to its exact
//! extent, and over bounds-checked `Strided` views. Which instantiation
//! runs is decided from geometry the driver already holds — the lane's
//! stride — never from an option or a certificate. Drivers only enumerate
//! lanes; every statement of arithmetic, and the one dropout draw, is here.

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
    fn unit(self, buf: &[f32]) -> &[f32] {
        &buf[self.base..self.base + self.len]
    }

    /// Mutable [`LaneAt::unit`].
    fn unit_mut(self, buf: &mut [f32]) -> &mut [f32] {
        &mut buf[self.base..self.base + self.len]
    }

    /// The lane as a strided view (any stride).
    fn strided(self, buf: &[f32]) -> Strided<&[f32]> {
        Strided {
            data: &buf[self.base..],
            stride: self.stride,
            len: self.len,
        }
    }

    /// Mutable [`LaneAt::strided`].
    fn strided_mut(self, buf: &mut [f32]) -> Strided<&mut [f32]> {
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

/// [`softmax_lane`] on the lane at `at` of `x`, into the same lane of
/// `out` (the two share a layout).
pub(crate) fn softmax_at(x: &[f32], at: LaneAt, scaler: f32, visible: usize, out: &mut [f32]) {
    if at.stride == 1 {
        softmax_lane(at.unit(x), scaler, visible, at.unit_mut(out), &mut ());
    } else {
        let out = &mut at.strided_mut(out);
        softmax_lane(&at.strided(x), scaler, visible, out, &mut ());
    }
}

/// Fused SM on the lane at `at`: all three outputs share `x`'s layout.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sm_at<R: Rng + ?Sized>(
    x: &[f32],
    at: LaneAt,
    scaler: f32,
    visible: usize,
    drop: &mut Dropout<'_, R>,
    softmax: &mut [f32],
    alpha: &mut [f32],
    mask: &mut [f32],
) {
    if at.stride == 1 {
        let (alpha, mask) = (at.unit_mut(alpha), at.unit_mut(mask));
        let mut tail = Dropped { alpha, mask, drop };
        softmax_lane(at.unit(x), scaler, visible, at.unit_mut(softmax), &mut tail);
    } else {
        let (alpha, mask) = (&mut at.strided_mut(alpha), &mut at.strided_mut(mask));
        let mut tail = Dropped { alpha, mask, drop };
        let softmax = &mut at.strided_mut(softmax);
        softmax_lane(&at.strided(x), scaler, visible, softmax, &mut tail);
    }
}

/// Layer norm on the lane at `at` of `x`, into the same lane of `out`.
/// Returns `(mean, inv_std)`.
pub(crate) fn layernorm_at(
    x: &[f32],
    at: LaneAt,
    gamma: &[f32],
    beta: &[f32],
    out: &mut [f32],
) -> (f32, f32) {
    if at.stride == 1 {
        norm_lane(at.unit(x), gamma, beta, at.unit_mut(out))
    } else {
        norm_lane(&at.strided(x), gamma, beta, &mut at.strided_mut(out))
    }
}

/// Fused BDRLN on the lane at `at` of `x`; `mask`, `ln_input` and `out`
/// share `x`'s layout, the residual sits at `r_at`, and `bias(v)` yields
/// the bias at lane position `v`. Returns `(mean, inv_std)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bdrln_at<B: FnMut(usize) -> f32, R: Rng + ?Sized>(
    x: &[f32],
    at: LaneAt,
    bias: B,
    residual: &[f32],
    r_at: LaneAt,
    gamma: &[f32],
    beta: &[f32],
    drop: &mut Dropout<'_, R>,
    mask: &mut [f32],
    ln_input: &mut [f32],
    out: &mut [f32],
) -> (f32, f32) {
    if at.stride == 1 && r_at.stride == 1 {
        let src = BiasDropResidual {
            x: at.unit(x),
            bias,
            residual: r_at.unit(residual),
            mask: at.unit_mut(mask),
            ln_input: at.unit_mut(ln_input),
            drop,
        };
        norm_lane(src, gamma, beta, at.unit_mut(out))
    } else {
        let src = BiasDropResidual {
            x: &at.strided(x),
            bias,
            residual: &r_at.strided(residual),
            mask: &mut at.strided_mut(mask),
            ln_input: &mut at.strided_mut(ln_input),
            drop,
        };
        norm_lane(src, gamma, beta, &mut at.strided_mut(out))
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
            sm_at(&x, at, 0.5, visible, &mut drop, &mut s, &mut a, &mut m);
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
