//! Single-sweep CPU implementations of the paper's fused operators
//! (Sec. IV-A).
//!
//! Each function corresponds to one fused CUDA kernel from Table III and
//! performs the work of several unfused operators in a single pass over the
//! data, saving the intermediate loads/stores between them — exactly the
//! data-movement saving the paper quantifies (∼22.91% overall). Every one
//! compiles one [`Sweep`](crate::into_ops::Sweep) over its tensors' own
//! strides and makes one `*_into` driver call, allocating nothing beyond
//! its outputs; the arithmetic is the body in [`crate::lanes`] that the
//! unfused operators run too, so a fused kernel equals its operator chain
//! bit for bit. The fused operators are:
//!
//! | Name | Fuses |
//! |---|---|
//! | [`sm`] | scaling + softmax + dropout |
//! | [`brd`] | bias + ReLU + dropout |
//! | [`bdrln`] | bias + dropout + residual + layernorm |
//! | [`blnrd`] | backward layernorm dX + dropout dX |
//! | [`bdrb_act`] | backward dropout + activation + bias dW |
//! | [`ebsb`] | backward residual + layernorm scale & bias |
//! | [`bs`] | backward dropout + softmax + scaling |
//!
//! AIB, the Q/K/V input biases, is one step of the canned plans (the bias
//! carve of the stacked projection) and has no allocating twin here. The
//! paper's remaining backward names fuse nothing on a CPU and are the
//! operators themselves: BSB is
//! [`layernorm_backward_weights`](crate::ops::layernorm::layernorm_backward_weights),
//! BAOB and each stream of BAIB
//! [`bias_grad`](crate::ops::elementwise::bias_grad), BEI
//! [`add`](crate::ops::elementwise::add).
//!
//! The kernels that drop take the caller's generator as the key of their
//! masks ([`Dropout::mask`]) and move it past the indices they used:
//! their span at `p > 0`, nothing at `p == 0`.
//!
//! Equivalence with the unfused composition is covered by unit and property
//! tests; the Criterion benches measure the actual CPU memory-traffic
//! saving.

use rand::rngs::StdRng;

use crate::axes::Axis;
use crate::error::Result;
use crate::into_ops::{
    bdrb_act_into, bdrln_into, blnrd_into, brd_act_into, bs_into, ebsb_into, sm_into, View,
};
use crate::lanes::Dropout;
use crate::ops::elementwise::{bias_shape, bias_view, ActivationKind};
use crate::ops::layernorm::{check_stats, check_weight, weight_grads, LayerNormStats};
use crate::ops::{check_same_shape, sweep_of, view_of};
use crate::tensor::Tensor;

/// Output of the fused [`sm`] kernel.
#[derive(Debug, Clone)]
pub struct SmOutput {
    /// Dropped-out attention weights `alpha` (input to the `gamma`
    /// contraction).
    pub alpha: Tensor,
    /// Softmax output before dropout, saved for the backward pass.
    pub softmax: Tensor,
    /// Dropout mask, saved for the backward pass.
    pub mask: Tensor,
}

/// SM — softmax with scaling and dropout, fused into one lane sweep:
/// `alpha = dropout(softmax(scaler · beta))` along `axis`.
///
/// # Errors
///
/// Returns an error if `axis` is missing or `p` is outside `[0, 1)`.
pub fn sm(beta: &Tensor, scaler: f32, axis: Axis, p: f32, rng: &mut StdRng) -> Result<SmOutput> {
    sm_lanes(beta, scaler, axis, None, p, rng)
}

/// SM with causal masking — the decoder ("masked") self-attention variant
/// (Sec. II-B-1: masking prevents a model from "seeing the future"). The
/// kernel is the same lane sweep as [`sm`], but positions with key index
/// greater than the query index are excluded from the softmax (their
/// attention weight, saved softmax, and mask entries are zero).
///
/// `query_axis` names the query-sequence axis in `beta` (the `j` of
/// `hbjk`); the reduction runs over `axis` (the `k`).
///
/// # Errors
///
/// Returns an error if either axis is missing or `p` is outside `[0, 1)`.
pub fn sm_causal(
    beta: &Tensor,
    scaler: f32,
    query_axis: Axis,
    axis: Axis,
    p: f32,
    rng: &mut StdRng,
) -> Result<SmOutput> {
    sm_causal_at(beta, scaler, query_axis, axis, p, rng, 0)
}

/// [`sm_causal`] with the query axis shifted to absolute position
/// `query_base`: local query index `q` masks keys past `query_base + q`.
/// A decode step runs this with a single-column query (`len(j) == 1`) at
/// `query_base = pos` over a cache-capacity key axis, so exactly
/// `pos + 1` cache slots are visible — bitwise-identical to the
/// full-sequence kernel's row `pos`.
///
/// # Errors
///
/// Returns an error if either axis is missing or `p` is outside `[0, 1)`.
#[allow(clippy::too_many_arguments)]
pub fn sm_causal_at(
    beta: &Tensor,
    scaler: f32,
    query_axis: Axis,
    axis: Axis,
    p: f32,
    rng: &mut StdRng,
    query_base: usize,
) -> Result<SmOutput> {
    let qi = beta.shape().index_of(query_axis)?;
    sm_lanes(beta, scaler, axis, Some((qi, query_base)), p, rng)
}

/// The logical-order SM driver: the sweep of `beta`'s own strides, all
/// three outputs in `beta`'s layout. `causal` is the query axis position
/// and the absolute position of its index 0.
fn sm_lanes(
    beta: &Tensor,
    scaler: f32,
    axis: Axis,
    causal: Option<(usize, usize)>,
    p: f32,
    rng: &mut StdRng,
) -> Result<SmOutput> {
    let drop = Dropout::new(p, rng)?;
    let ai = beta.shape().index_of(axis)?;
    let v = view_of(beta);
    let sweep = sweep_of(&[&v, &v, &v, &v], Some(ai), causal.map(|c| c.0), "sm")?;
    let fresh = || Tensor::zeros_with_layout(beta.shape().clone(), *beta.layout());
    let mut softmax = fresh();
    let mut alpha = fresh();
    let mut mask = fresh();
    let pos = causal.map(|c| c.1);
    let (s, a, m) = (softmax.data_mut(), alpha.data_mut(), mask.data_mut());
    sm_into(&sweep, beta.data(), scaler, pos, &drop, s, a, m);
    drop.skip_past(rng, sweep.span(pos));
    Ok(SmOutput {
        alpha,
        softmax,
        mask,
    })
}

/// Output of the fused [`brd`] kernel.
#[derive(Debug, Clone)]
pub struct BrdOutput {
    /// `dropout(relu(x + bias))`.
    pub out: Tensor,
    /// `x + bias` (pre-activation), saved for the ReLU backward.
    pub pre_activation: Tensor,
    /// Dropout mask.
    pub mask: Tensor,
}

/// BRD — bias + ReLU + dropout in one element-wise sweep (the feed-forward
/// activation path).
///
/// # Errors
///
/// Returns an error if the bias axes are not a subset of `x`'s or `p` is
/// outside `[0, 1)`.
pub fn brd(x: &Tensor, bias: &Tensor, p: f32, rng: &mut StdRng) -> Result<BrdOutput> {
    brd_act(x, bias, ActivationKind::Relu, p, rng)
}

/// [`brd`] with a selectable activation (ReLU for the paper's figures,
/// GELU for faithful BERT/GPT-2 blocks). The fused sweep is identical —
/// activations are element-wise either way.
///
/// # Errors
///
/// Returns an error if the bias axes are not a subset of `x`'s or `p` is
/// outside `[0, 1)`.
pub fn brd_act(
    x: &Tensor,
    bias: &Tensor,
    activation: ActivationKind,
    p: f32,
    rng: &mut StdRng,
) -> Result<BrdOutput> {
    let drop = Dropout::new(p, rng)?;
    let (vx, vb) = (
        view_of(x),
        bias_view(bias.shape(), bias.strides(), x, "brd bias")?,
    );
    let sweep = sweep_of(&[&vx, &vb, &vx, &vx, &vx], None, None, "brd")?;
    let fresh = || Tensor::zeros_with_layout(x.shape().clone(), *x.layout());
    let mut out = fresh();
    let mut pre_activation = fresh();
    let mut mask = fresh();
    brd_act_into(
        &sweep,
        x.data(),
        bias.data(),
        activation,
        &drop,
        pre_activation.data_mut(),
        out.data_mut(),
        mask.data_mut(),
    );
    drop.skip_past(rng, sweep.span(None));
    Ok(BrdOutput {
        out,
        pre_activation,
        mask,
    })
}

/// Output of the fused [`bdrln`] kernel.
#[derive(Debug, Clone)]
pub struct BdrlnOutput {
    /// `layernorm(dropout(x + bias) + residual)`.
    pub out: Tensor,
    /// The layernorm input (`dropout(x + bias) + residual`), saved because
    /// both backward layernorm kernels consume it.
    pub ln_input: Tensor,
    /// Dropout mask.
    pub mask: Tensor,
    /// Forward statistics for the backward pass.
    pub stats: LayerNormStats,
}

/// BDRLN — bias + dropout + residual + layernorm fused into one lane sweep
/// (also used, with a zero bias, as the paper's `DRLN`).
///
/// # Errors
///
/// Returns an error on axis/shape disagreements or if `p` is outside
/// `[0, 1)`.
#[allow(clippy::too_many_arguments)]
pub fn bdrln(
    x: &Tensor,
    bias: &Tensor,
    residual: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    axis: Axis,
    p: f32,
    rng: &mut StdRng,
) -> Result<BdrlnOutput> {
    let drop = Dropout::new(p, rng)?;
    check_same_shape(x, residual, "bdrln residual")?;
    let ai = x.shape().index_of(axis)?;
    let vb = bias_view(bias.shape(), bias.strides(), x, "bdrln bias")?;
    let (vx, vr) = (view_of(x), view_of(residual));
    let vw = View::lane_weights(x.shape().sizes(), ai);
    let views = [&vx, &vb, &vr, &vw, &vw, &vx, &vx, &vx];
    let sweep = sweep_of(&views, Some(ai), None, "bdrln")?;
    let fresh = || Tensor::zeros_with_layout(x.shape().clone(), *x.layout());
    let mut out = fresh();
    let mut ln_input = fresh();
    let mut mask = fresh();
    let mut stats = LayerNormStats {
        mean: vec![0.0; sweep.lanes()],
        inv_std: vec![0.0; sweep.lanes()],
    };
    bdrln_into(
        &sweep,
        x.data(),
        bias.data(),
        residual.data(),
        gamma.data(),
        beta.data(),
        &drop,
        mask.data_mut(),
        ln_input.data_mut(),
        out.data_mut(),
        &mut stats.mean,
        &mut stats.inv_std,
    );
    drop.skip_past(rng, sweep.span(None));
    Ok(BdrlnOutput {
        out,
        ln_input,
        mask,
        stats,
    })
}

/// BLNRD — backward layernorm dX fused with backward dropout in one lane
/// sweep, returning both the post-dropout gradient (continuing down the
/// main branch) and the layernorm input gradient itself (`dx_ln`), which
/// the residual connection also consumes (the "saving the intermediate
/// result" note in Sec. IV-A). Both in `ln_input`'s layout.
///
/// # Errors
///
/// Returns an error on shape disagreements, or if `stats` does not hold one
/// entry per lane of `ln_input`.
pub fn blnrd(
    dy: &Tensor,
    ln_input: &Tensor,
    gamma: &Tensor,
    mask: &Tensor,
    axis: Axis,
    stats: &LayerNormStats,
) -> Result<(Tensor, Tensor)> {
    check_same_shape(dy, ln_input, "blnrd")?;
    check_same_shape(ln_input, mask, "blnrd mask")?;
    let ai = ln_input.shape().index_of(axis)?;
    check_weight(gamma, axis, ln_input.shape().sizes()[ai])?;
    let (vg, vx, vm) = (view_of(dy), view_of(ln_input), view_of(mask));
    let vw = View::lane_weights(ln_input.shape().sizes(), ai);
    let sweep = sweep_of(&[&vg, &vx, &vw, &vm, &vx, &vx], Some(ai), None, "blnrd")?;
    check_stats(stats, &sweep)?;
    let mut dx_ln = ln_input.clone();
    let mut dx = ln_input.clone();
    blnrd_into(
        &sweep,
        dy.data(),
        ln_input.data(),
        gamma.data(),
        mask.data(),
        &stats.mean,
        &stats.inv_std,
        dx_ln.data_mut(),
        dx.data_mut(),
    );
    Ok((dx, dx_ln))
}

/// BDRB — backward dropout + activation + bias dW in one element-wise
/// sweep. Returns `(dx, dbias)` where `dx = dy ⊙ mask · act′(pre)`, in
/// `dy`'s layout, and `dbias` reduces `dx` over every non-bias axis.
///
/// # Errors
///
/// Returns an error on shape/axis disagreements.
pub fn bdrb_act(
    dy: &Tensor,
    mask: &Tensor,
    pre_activation: &Tensor,
    activation: ActivationKind,
    bias_axes: &[Axis],
) -> Result<(Tensor, Tensor)> {
    check_same_shape(dy, mask, "bdrb mask")?;
    check_same_shape(dy, pre_activation, "bdrb pre-activation")?;
    let mut dbias = Tensor::zeros(bias_shape(dy, bias_axes)?);
    let (vg, vm, vp) = (view_of(dy), view_of(mask), view_of(pre_activation));
    let vb = bias_view(dbias.shape(), dbias.strides(), dy, "bdrb bias")?;
    let sweep = sweep_of(&[&vg, &vm, &vp, &vg, &vb], None, None, "bdrb")?;
    let mut dx = dy.clone();
    bdrb_act_into(
        &sweep,
        dy.data(),
        mask.data(),
        pre_activation.data(),
        activation,
        dx.data_mut(),
        dbias.data_mut(),
    );
    Ok((dx, dbias))
}

/// EBSB — backward residual add fused with backward layernorm scale & bias
/// in one lane sweep. Returns `(dsum, dgamma, dbeta)` where
/// `dsum = dy_main + dy_residual`, in `dy_main`'s layout, and the weight
/// gradients are computed from `dsum`.
///
/// # Errors
///
/// Returns an error on shape disagreements, or if `stats` does not hold one
/// entry per lane of `ln_input`.
pub fn ebsb(
    dy_main: &Tensor,
    dy_residual: &Tensor,
    ln_input: &Tensor,
    axis: Axis,
    stats: &LayerNormStats,
) -> Result<(Tensor, Tensor, Tensor)> {
    check_same_shape(dy_main, dy_residual, "ebsb residual")?;
    check_same_shape(dy_main, ln_input, "ebsb")?;
    let ai = ln_input.shape().index_of(axis)?;
    let (vg, vr, vx) = (view_of(dy_main), view_of(dy_residual), view_of(ln_input));
    let vw = View::lane_weights(ln_input.shape().sizes(), ai);
    let sweep = sweep_of(&[&vg, &vr, &vx, &vg, &vw, &vw], Some(ai), None, "ebsb")?;
    check_stats(stats, &sweep)?;
    let mut dsum = dy_main.clone();
    let (mut dgamma, mut dbeta) = weight_grads(axis, ln_input.shape().sizes()[ai])?;
    ebsb_into(
        &sweep,
        dy_main.data(),
        dy_residual.data(),
        ln_input.data(),
        &stats.mean,
        &stats.inv_std,
        dsum.data_mut(),
        dgamma.data_mut(),
        dbeta.data_mut(),
    );
    Ok((dsum, dgamma, dbeta))
}

/// BS — backward dropout + softmax + scaling in one lane sweep:
/// `dbeta = scaler · softmax_bwd(dalpha ⊙ mask, y)`, in `softmax_out`'s
/// layout.
///
/// # Errors
///
/// Returns an error on shape/axis disagreements.
pub fn bs(
    dalpha: &Tensor,
    mask: &Tensor,
    softmax_out: &Tensor,
    axis: Axis,
    scaler: f32,
) -> Result<Tensor> {
    check_same_shape(dalpha, mask, "bs mask")?;
    check_same_shape(dalpha, softmax_out, "bs softmax output")?;
    let ai = softmax_out.shape().index_of(axis)?;
    let (vg, vm, vy) = (view_of(dalpha), view_of(mask), view_of(softmax_out));
    let sweep = sweep_of(&[&vg, &vm, &vy, &vy], Some(ai), None, "bs")?;
    let mut dbeta = softmax_out.clone();
    bs_into(
        &sweep,
        dalpha.data(),
        mask.data(),
        softmax_out.data(),
        scaler,
        dbeta.data_mut(),
    );
    Ok(dbeta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axes::Shape;
    use crate::ops::dropout::dropout_disabled;
    use crate::ops::elementwise::scale;
    use crate::ops::elementwise::{add, bias_add, bias_grad, relu, relu_backward};
    use crate::ops::layernorm::{layernorm, layernorm_backward_input};
    use crate::ops::softmax::{softmax, softmax_backward};
    use rand::distributions::Uniform;
    use rand::{Rng, SeedableRng};

    fn rand_t(spec: &str, sizes: &[(char, usize)], seed: u64) -> Tensor {
        let shape = Shape::from_spec(spec, sizes).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::random(shape, &Uniform::new(-1.0, 1.0), &mut rng)
    }

    const SIZES: [(char, usize); 5] = [('b', 2), ('j', 3), ('k', 4), ('i', 5), ('u', 6)];

    #[test]
    fn sm_matches_unfused_without_dropout() {
        let beta = rand_t("bjk", &SIZES, 1);
        let mut rng = StdRng::seed_from_u64(10);
        let fused = sm(&beta, 0.5, Axis('k'), 0.0, &mut rng).unwrap();
        let unfused = softmax(&scale(&beta, 0.5), Axis('k')).unwrap();
        assert!(fused.alpha.max_abs_diff(&unfused).unwrap() < 1e-6);
        assert!(fused.softmax.max_abs_diff(&unfused).unwrap() < 1e-6);
        assert!(fused.mask.data().iter().all(|&m| m == 1.0));
    }

    #[test]
    fn out_of_range_dropout_is_a_typed_error() {
        use crate::error::TensorError;
        let x = rand_t("bji", &SIZES, 50);
        let bias = rand_t("i", &SIZES, 51);
        let mut rng = StdRng::seed_from_u64(52);
        for p in [1.0f32, 1.5, -0.5, f32::NAN] {
            let invalid = |e: TensorError| matches!(e, TensorError::InvalidDropout(_));
            assert!(invalid(sm(&x, 1.0, Axis('i'), p, &mut rng).unwrap_err()));
            assert!(invalid(
                sm_causal_at(&x, 1.0, Axis('j'), Axis('i'), p, &mut rng, 0).unwrap_err()
            ));
            assert!(invalid(
                brd_act(&x, &bias, ActivationKind::Gelu, p, &mut rng).unwrap_err()
            ));
            assert!(invalid(
                bdrln(&x, &bias, &x, &bias, &bias, Axis('i'), p, &mut rng).unwrap_err()
            ));
        }
    }

    #[test]
    fn sm_dropout_zeroes_and_scales() {
        let beta = rand_t("bjk", &SIZES, 2);
        let mut rng = StdRng::seed_from_u64(11);
        let fused = sm(&beta, 1.0, Axis('k'), 0.5, &mut rng).unwrap();
        let mut idx = vec![0usize; 3];
        loop {
            let m = fused.mask.at(&idx);
            assert!(m == 0.0 || (m - 2.0).abs() < 1e-6);
            let expect = fused.softmax.at(&idx) * m;
            assert!((fused.alpha.at(&idx) - expect).abs() < 1e-6);
            if !beta.advance(&mut idx) {
                break;
            }
        }
    }

    #[test]
    fn brd_matches_unfused() {
        let x = rand_t("bju", &SIZES, 3);
        let bias = rand_t("u", &SIZES, 4);
        let mut rng = StdRng::seed_from_u64(12);
        let fused = brd(&x, &bias, 0.0, &mut rng).unwrap();
        let pre = bias_add(&x, &bias).unwrap();
        let (expect, _) = dropout_disabled(&relu(&pre));
        assert!(fused.out.max_abs_diff(&expect).unwrap() < 1e-6);
        assert!(fused.pre_activation.max_abs_diff(&pre).unwrap() < 1e-6);
    }

    #[test]
    fn bdrln_matches_unfused() {
        let x = rand_t("bji", &SIZES, 5);
        let bias = rand_t("i", &SIZES, 6);
        let residual = rand_t("bji", &SIZES, 7);
        let gamma = rand_t("i", &SIZES, 8);
        let beta_w = rand_t("i", &SIZES, 9);
        let mut rng = StdRng::seed_from_u64(13);
        let fused = bdrln(
            &x,
            &bias,
            &residual,
            &gamma,
            &beta_w,
            Axis('i'),
            0.0,
            &mut rng,
        )
        .unwrap();
        let z = bias_add(&x, &bias).unwrap();
        let ln_in = add(&z, &residual).unwrap();
        let (expect, stats) = layernorm(&ln_in, Axis('i'), &gamma, &beta_w).unwrap();
        assert!(fused.out.max_abs_diff(&expect).unwrap() < 1e-5);
        assert!(fused.ln_input.max_abs_diff(&ln_in).unwrap() < 1e-6);
        for (a, b) in fused.stats.mean.iter().zip(&stats.mean) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn blnrd_matches_unfused() {
        let dy = rand_t("bji", &SIZES, 14);
        let ln_input = rand_t("bji", &SIZES, 15);
        let gamma = rand_t("i", &SIZES, 16);
        let beta_w = rand_t("i", &SIZES, 17);
        let (_, stats) = layernorm(&ln_input, Axis('i'), &gamma, &beta_w).unwrap();
        let mut mask = dy.clone();
        let mut rng = StdRng::seed_from_u64(18);
        for m in mask.data_mut() {
            *m = if rng.gen::<f32>() < 0.5 { 0.0 } else { 2.0 };
        }
        let (dx, dx_ln) = blnrd(&dy, &ln_input, &gamma, &mask, Axis('i'), &stats).unwrap();
        let expect_ln =
            layernorm_backward_input(&dy, &ln_input, Axis('i'), &gamma, &stats).unwrap();
        let expect_dx = crate::ops::dropout::dropout_backward(&expect_ln, &mask).unwrap();
        assert!(dx_ln.max_abs_diff(&expect_ln).unwrap() < 1e-6);
        assert!(dx.max_abs_diff(&expect_dx).unwrap() < 1e-6);
    }

    #[test]
    fn bdrb_matches_unfused() {
        let dy = rand_t("bju", &SIZES, 19);
        let pre = rand_t("bju", &SIZES, 20);
        let mut mask = dy.clone();
        let mut rng = StdRng::seed_from_u64(21);
        for m in mask.data_mut() {
            *m = if rng.gen::<f32>() < 0.3 {
                0.0
            } else {
                1.0 / 0.7
            };
        }
        let (dx, dbias) = bdrb_act(&dy, &mask, &pre, ActivationKind::Relu, &[Axis('u')]).unwrap();
        let after_drop = crate::ops::dropout::dropout_backward(&dy, &mask).unwrap();
        let expect_dx = relu_backward(&after_drop, &pre).unwrap();
        let expect_db = bias_grad(&expect_dx, &[Axis('u')]).unwrap();
        assert!(dx.max_abs_diff(&expect_dx).unwrap() < 1e-6);
        assert!(dbias.max_abs_diff(&expect_db).unwrap() < 1e-5);
    }

    #[test]
    fn ebsb_matches_unfused() {
        let dy1 = rand_t("bji", &SIZES, 22);
        let dy2 = rand_t("bji", &SIZES, 23);
        let ln_input = rand_t("bji", &SIZES, 24);
        let gamma = rand_t("i", &SIZES, 25);
        let beta_w = rand_t("i", &SIZES, 26);
        let (_, stats) = layernorm(&ln_input, Axis('i'), &gamma, &beta_w).unwrap();
        let (dsum, dgamma, dbeta) = ebsb(&dy1, &dy2, &ln_input, Axis('i'), &stats).unwrap();
        let expect_sum = add(&dy1, &dy2).unwrap();
        let (eg, eb) = crate::ops::layernorm::layernorm_backward_weights(
            &expect_sum,
            &ln_input,
            Axis('i'),
            &stats,
        )
        .unwrap();
        assert!(dsum.max_abs_diff(&expect_sum).unwrap() < 1e-6);
        assert!(dgamma.max_abs_diff(&eg).unwrap() < 1e-5);
        assert!(dbeta.max_abs_diff(&eb).unwrap() < 1e-5);
    }

    #[test]
    fn bs_matches_unfused() {
        let beta = rand_t("bjk", &SIZES, 27);
        let scaler = 0.25f32;
        let y = softmax(&scale(&beta, scaler), Axis('k')).unwrap();
        let dalpha = rand_t("bjk", &SIZES, 28);
        let mut mask = dalpha.clone();
        let mut rng = StdRng::seed_from_u64(29);
        for m in mask.data_mut() {
            *m = if rng.gen::<f32>() < 0.4 {
                0.0
            } else {
                1.0 / 0.6
            };
        }
        let got = bs(&dalpha, &mask, &y, Axis('k'), scaler).unwrap();
        let after_drop = crate::ops::dropout::dropout_backward(&dalpha, &mask).unwrap();
        let dsm = softmax_backward(&after_drop, &y, Axis('k')).unwrap();
        let expect = scale(&dsm, scaler);
        assert!(got.max_abs_diff(&expect).unwrap() < 1e-5);
    }

    #[test]
    fn sm_causal_masks_the_future() {
        let sizes = [('b', 2), ('j', 4), ('k', 4)];
        let beta = rand_t("bjk", &sizes, 40);
        let mut rng = StdRng::seed_from_u64(41);
        let out = sm_causal(&beta, 0.5, Axis('j'), Axis('k'), 0.0, &mut rng).unwrap();
        for b in 0..2 {
            for j in 0..4 {
                let mut sum = 0.0f32;
                for k in 0..4 {
                    let v = out.softmax.at(&[b, j, k]);
                    if k > j {
                        assert_eq!(v, 0.0, "future position ({j},{k}) visible");
                        assert_eq!(out.alpha.at(&[b, j, k]), 0.0);
                    } else {
                        assert!(v > 0.0);
                    }
                    sum += v;
                }
                assert!((sum - 1.0).abs() < 1e-5, "row ({b},{j}) sums to {sum}");
            }
        }
    }

    #[test]
    fn sm_causal_full_visibility_matches_sm_on_last_row() {
        // the last query sees everything: its weights equal unmasked sm's
        let sizes = [('b', 1), ('j', 5), ('k', 5)];
        let beta = rand_t("bjk", &sizes, 42);
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(1);
        let causal = sm_causal(&beta, 1.0, Axis('j'), Axis('k'), 0.0, &mut r1).unwrap();
        let full = sm(&beta, 1.0, Axis('k'), 0.0, &mut r2).unwrap();
        for k in 0..5 {
            let a = causal.softmax.at(&[0, 4, k]);
            let b = full.softmax.at(&[0, 4, k]);
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn brd_act_gelu_matches_unfused() {
        use crate::ops::elementwise::{activate, ActivationKind};
        let x = rand_t("bju", &SIZES, 43);
        let bias = rand_t("u", &SIZES, 44);
        let mut rng = StdRng::seed_from_u64(45);
        let fused = brd_act(&x, &bias, ActivationKind::Gelu, 0.0, &mut rng).unwrap();
        let pre = bias_add(&x, &bias).unwrap();
        let expect = activate(&pre, ActivationKind::Gelu);
        assert!(fused.out.max_abs_diff(&expect).unwrap() < 1e-5);
    }

    #[test]
    fn bdrb_act_gelu_matches_unfused() {
        use crate::ops::elementwise::{activate_backward, ActivationKind};
        let dy = rand_t("bju", &SIZES, 46);
        let pre = rand_t("bju", &SIZES, 47);
        let mut mask = dy.clone();
        mask.fill(1.0);
        let (dx, dbias) = bdrb_act(&dy, &mask, &pre, ActivationKind::Gelu, &[Axis('u')]).unwrap();
        let expect_dx = activate_backward(&dy, &pre, ActivationKind::Gelu).unwrap();
        let expect_db = bias_grad(&expect_dx, &[Axis('u')]).unwrap();
        assert!(dx.max_abs_diff(&expect_dx).unwrap() < 1e-6);
        assert!(dbias.max_abs_diff(&expect_db).unwrap() < 1e-5);
    }

    /// The saved statistics are indexed by lane ordinal: a vector of any
    /// other length than the lane count — too short used to index out of
    /// bounds, too long silently read another tensor's statistics — is a
    /// typed error at all four entry points.
    #[test]
    fn stats_of_another_shape_are_a_typed_error() {
        use crate::error::TensorError;
        use crate::ops::layernorm::layernorm_backward_weights;
        let dy = rand_t("bji", &SIZES, 60);
        let x = rand_t("bji", &SIZES, 61);
        let gamma = rand_t("i", &SIZES, 62);
        let (_, good) = layernorm(&x, Axis('i'), &gamma, &gamma).unwrap();
        assert_eq!(good.mean.len(), 6);
        let i = Axis('i');
        let run = |stats: &LayerNormStats| {
            [
                layernorm_backward_input(&dy, &x, i, &gamma, stats).map(drop),
                layernorm_backward_weights(&dy, &x, i, stats).map(drop),
                blnrd(&dy, &x, &gamma, &dy, i, stats).map(drop),
                ebsb(&dy, &dy, &x, i, stats).map(drop),
            ]
        };
        assert!(run(&good).iter().all(|r| r.is_ok()));
        let resized = |mean: usize, inv_std: usize| LayerNormStats {
            mean: vec![0.0; mean],
            inv_std: vec![1.0; inv_std],
        };
        for bad in [resized(2, 2), resized(7, 7), resized(6, 5), resized(0, 6)] {
            for (entry, r) in run(&bad).into_iter().enumerate() {
                assert!(
                    matches!(r, Err(TensorError::ShapeMismatch { .. })),
                    "entry point {entry} with {}/{} stats: {r:?}",
                    bad.mean.len(),
                    bad.inv_std.len()
                );
            }
        }
    }
}
