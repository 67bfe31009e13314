//! The eager backward sub-blocks, written once: the attention chain and the
//! feed-forward chain that [`crate::encoder::EncoderLayer::backward`] (both
//! executors), [`crate::decoder::DecoderLayer::backward`] and
//! [`crate::mha::mha_backward`] share. Post-LN versus pre-LN is where the
//! caller takes its projection source and feed-forward input from; the
//! executor is the `fused` flag, which selects between a fused backward
//! kernel — one sweep of `xform_tensor::lanes` — and the chain of unfused
//! operators it equals bit for bit (BS and BDRB here; BLNRD and EBSB in the
//! encoder). The paper's other backward names (BSB, BAOB, BAIB, BEI) fuse
//! nothing on a CPU and are the operators themselves under either executor.
//!
//! # Rematerialization
//!
//! A forward that ran the attention region keeps none of the core's
//! `[h,b,j,k]` tensors — at `j = 512` they were four fifths of a block's
//! saved bytes. What its [`Saved`] record keeps is the region step's
//! dropout stream. Ahead of [`attention_backward`],
//! [`Saved::redraw_softmax`] computes the bundle again from the saved
//! `qq`/`kk` with the chain the region stands for — `einsum` of the scores,
//! then `fused::sm` / `sm_causal` keyed as the region step was — which the
//! region equals bit for bit, masks included (the region proptests of
//! `xform-tensor`). It is the eager mirror of the `QKT → SM` nodes
//! `fusion::apply_regions` leaves on the backward side of a training graph.

use xform_core::arena::stream_key;
use xform_tensor::fused::{self, SmOutput};
use xform_tensor::ops::dropout::dropout_backward;
use xform_tensor::ops::elementwise::{activate_backward, add, bias_grad, scale, ActivationKind};
use xform_tensor::ops::softmax::softmax_backward;
use xform_tensor::{einsum, into_ops, Axis, Result, Shape, Tensor, TensorError};

use crate::interp::Saved;
use crate::params::{EncoderGrads, EncoderWeights};

impl Saved {
    /// The softmax bundle of a forward that ran the attention region,
    /// computed again (module docs) from the projections it saved, the
    /// attention scale, and the dropout probability and causal masking of
    /// its softmax; `None` for a forward without a region, which saved the
    /// bundle itself.
    pub(crate) fn redraw_softmax(
        &self,
        scaler: f32,
        dropout_p: f32,
        causal: bool,
    ) -> Result<Option<SmOutput>> {
        let Some((seed, stream)) = self.region else {
            return Ok(None);
        };
        let (j, k) = (Axis('j'), Axis('k'));
        let beta = einsum("phbk,phbj->hbjk", &[self.tensor("kk")?, self.tensor("qq")?])?;
        let rng = &mut stream_key(seed, stream);
        Ok(Some(if causal {
            fused::sm_causal(&beta, scaler, j, k, dropout_p, rng)?
        } else {
            fused::sm(&beta, scaler, k, dropout_p, rng)?
        }))
    }
}

/// The forward values the attention backward reads, by their graph names.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AttentionSaved<'a> {
    /// Biased query projections `[p,h,b,j]`.
    pub qq: &'a Tensor,
    /// Biased key projections `[p,h,b,k]`.
    pub kk: &'a Tensor,
    /// Biased value projections `[w,h,b,k]`.
    pub vv: &'a Tensor,
    /// The saved softmax `[h,b,j,k]`.
    pub att: &'a Tensor,
    /// The dropped-out attention weights `[h,b,j,k]`.
    pub alpha: &'a Tensor,
    /// The attention dropout mask `[h,b,j,k]`.
    pub att_mask: &'a Tensor,
    /// Attention context `[w,h,b,j]`.
    pub gamma: &'a Tensor,
}

/// Gradients of the three projection streams and of the inputs they
/// projected.
#[derive(Debug, Clone)]
pub(crate) struct AttentionGrads {
    /// Gradient of the biased query projections.
    pub d_qq: Tensor,
    /// Gradient of the biased key projections.
    pub d_kk: Tensor,
    /// Gradient of the biased value projections.
    pub d_vv: Tensor,
    /// Gradient of the query input `[i,b,j]`.
    pub dq: Tensor,
    /// Gradient of the key input `[i,b,k]`.
    pub dk: Tensor,
    /// Gradient of the value input `[i,b,k]`.
    pub dv: Tensor,
}

/// Attention backward from `d_attn`, the gradient of the (biased) output
/// projection: `d_attn → d_gam → d_alpha/d_vv → BS → d_qq/d_kk`, then each
/// stream's input gradient. With `fused` the dropout + softmax + scale
/// backward is the BS kernel, otherwise its three operators. Masked entries
/// have zero softmax output and zero mask, so the causal case needs nothing
/// of its own.
pub(crate) fn attention_backward(
    d_attn: &Tensor,
    w: &EncoderWeights,
    a: &AttentionSaved<'_>,
    scaler: f32,
    fused: bool,
) -> Result<AttentionGrads> {
    let k = Axis('k');
    let d_gam =
        w.wo.product(0..w.wo.pack().m, true, d_attn, a.gamma.shape().clone())?;
    let d_alpha = einsum("whbk,whbj->hbjk", &[a.vv, &d_gam])?;
    let d_vv = einsum("whbj,hbjk->whbk", &[&d_gam, a.alpha])?;
    let d_beta = if fused {
        fused::bs(&d_alpha, a.att_mask, a.att, k, scaler)?
    } else {
        let after = dropout_backward(&d_alpha, a.att_mask)?;
        scale(&softmax_backward(&after, a.att, k)?, scaler)
    };
    let d_qq = einsum("phbk,hbjk->phbj", &[a.kk, &d_beta])?;
    let d_kk = einsum("phbj,hbjk->phbk", &[a.qq, &d_beta])?;
    // each stream's input gradient reads its third of the stack's rows
    let (ph, i) = (w.w_qkv.pack().m / 3, w.w_qkv.pack().k);
    let input = |s: usize, d: &Tensor| {
        let out = columns_of(d, &[('i', i)])?;
        w.w_qkv.product(s * ph..(s + 1) * ph, true, d, out)
    };
    Ok(AttentionGrads {
        dq: input(0, &d_qq)?,
        dk: input(1, &d_kk)?,
        dv: input(2, &d_vv)?,
        d_qq,
        d_kk,
        d_vv,
    })
}

/// [`attention_backward`] for self-attention over one source `src`
/// (`[i,b,j]`: the block input post-LN, its first layer norm's output
/// pre-LN), reading the block forward's record `a` — the softmax bundle
/// from it or, after a region, computed again with the forward's softmax
/// knobs `(scaler, dropout_p, causal)`: fills the attention weight
/// gradients of `g` (`bo`, `wo`, the three projection biases and `w_qkv`)
/// and returns the gradient of `src`.
pub(crate) fn self_attention_backward(
    d_attn: &Tensor,
    src: &Tensor,
    w: &EncoderWeights,
    a: &Saved,
    (scaler, dropout_p, causal): (f32, f32, bool),
    fused: bool,
    g: &mut EncoderGrads,
) -> Result<Tensor> {
    let redrawn = a.redraw_softmax(scaler, dropout_p, causal)?;
    let (att, alpha, att_mask) = match &redrawn {
        Some(sm) => (&sm.softmax, &sm.alpha, &sm.mask),
        None => (a.tensor("att")?, a.tensor("alpha")?, a.tensor("att_mask")?),
    };
    let saved = AttentionSaved {
        qq: a.tensor("qq")?,
        kk: a.tensor("kk")?,
        vv: a.tensor("vv")?,
        att,
        alpha,
        att_mask,
        gamma: a.tensor("gamma")?,
    };
    g.bo = bias_grad(d_attn, &[Axis('i')])?;
    g.wo = einsum("whbj,ibj->whi", &[saved.gamma, d_attn])?;
    let s = attention_backward(d_attn, w, &saved, scaler, fused)?;
    let ph = [Axis('p'), Axis('h')];
    g.bq = bias_grad(&s.d_qq, &ph)?;
    g.bk = bias_grad(&s.d_kk, &ph)?;
    g.bv = bias_grad(&s.d_vv, &[Axis('w'), Axis('h')])?;
    let src_k = src.relabel("ibk")?;
    let blocks = [
        einsum("phbj,ibj->phi", &[&s.d_qq, src])?,
        einsum("phbk,ibk->phi", &[&s.d_kk, &src_k])?,
        einsum("whbk,ibk->whi", &[&s.d_vv, &src_k])?,
    ];
    g.w_qkv = Tensor::zeros(w.w_qkv.shape().clone());
    let len = g.w_qkv.len() / 3;
    for (dst, block) in g.w_qkv.data_mut().chunks_exact_mut(len).zip(&blocks) {
        into_ops::copy_tensor_into(block, dst);
    }
    add(&add(&s.dq, &s.dk.relabel("ibj")?)?, &s.dv.relabel("ibj")?)
}

/// Feed-forward backward from `d_out`, the gradient of the second bias's
/// output, over the saved `ff1_b`, `ff1_drop` and `drop2_mask` of `a`:
/// fills `b2`, `w2`, `b1`, `w1` of `g` and returns the gradient of the
/// network's input `x`. With `fused` the dropout + activation + bias-dW
/// backward is the BDRB kernel, otherwise its three operators.
pub(crate) fn ffn_backward(
    d_out: &Tensor,
    x: &Tensor,
    w: &EncoderWeights,
    a: &Saved,
    activation: ActivationKind,
    fused: bool,
    g: &mut EncoderGrads,
) -> Result<Tensor> {
    let u = [Axis('u')];
    let (ff1_b, mask) = (a.tensor("ff1_b")?, a.tensor("drop2_mask")?);
    g.b2 = bias_grad(d_out, &[Axis('i')])?;
    let (i, u_len) = (w.w2.pack().m, w.w2.pack().k);
    let d_brd =
        w.w2.product(0..i, true, d_out, columns_of(d_out, &[('u', u_len)])?)?;
    g.w2 = einsum("ibj,ubj->iu", &[d_out, a.tensor("ff1_drop")?])?;
    let d_ff1 = if fused {
        let (d_ff1, db1) = fused::bdrb_act(&d_brd, mask, ff1_b, activation, &u)?;
        g.b1 = db1;
        d_ff1
    } else {
        let after = dropout_backward(&d_brd, mask)?;
        let d_ff1 = activate_backward(&after, ff1_b, activation)?;
        g.b1 = bias_grad(&d_ff1, &u)?;
        d_ff1
    };
    g.w1 = einsum("ubj,ibj->ui", &[&d_ff1, x])?;
    let (u_len, i) = (w.w1.pack().m, w.w1.pack().k);
    w.w1.product(0..u_len, true, &d_ff1, columns_of(&d_ff1, &[('i', i)])?)
}

/// `lead` followed by the last two axes of `x` (its `b` and `j`/`k`): the
/// shape of a projection's product with `x`.
pub(crate) fn columns_of(x: &Tensor, lead: &[(char, usize)]) -> Result<Shape> {
    let (axes, sizes) = (x.shape().axes(), x.shape().sizes());
    let cols = axes
        .len()
        .checked_sub(2)
        .ok_or(TensorError::ShapeMismatch {
            context: "a projection's operand has a batch and a sequence axis",
        })?;
    let trailing = (axes[cols..].iter().map(|a| a.name())).zip(sizes[cols..].iter().copied());
    Shape::new(lead.iter().copied().chain(trailing))
}
