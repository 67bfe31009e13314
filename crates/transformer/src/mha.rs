//! Standalone multi-head attention (general attention, Fig. 1): distinct
//! query/key/value inputs, for use outside the encoder layer (Table IV's
//! benchmark primitive and non-transformer applications of MHA).

use rand::rngs::StdRng;

use xform_dataflow::EncoderDims;
use xform_tensor::fused::{self, SmOutput};
use xform_tensor::{einsum, Axis, Result, Tensor};

use crate::backward::{attention_backward, columns_of, AttentionSaved};
use crate::params::EncoderWeights;

/// Saved values from an MHA forward pass.
#[derive(Debug, Clone)]
pub struct MhaActivations {
    /// Biased query projections.
    pub qq: Tensor,
    /// Biased key projections.
    pub kk: Tensor,
    /// Biased value projections.
    pub vv: Tensor,
    /// Softmax bundle.
    pub sm: SmOutput,
    /// Attention context.
    pub gam: Tensor,
}

/// Gradients of MHA with respect to its three inputs.
#[derive(Debug, Clone)]
pub struct MhaInputGrads {
    /// Gradient w.r.t. the query input `[i,b,j]`.
    pub dq: Tensor,
    /// Gradient w.r.t. the key input `[i,b,k]`.
    pub dk: Tensor,
    /// Gradient w.r.t. the value input `[i,b,k]`.
    pub dv: Tensor,
}

/// Multi-head attention forward: general attention over distinct `q`
/// (`[i,b,j]`), `k` and `v` (`[i,b,k]`) inputs. Uses the attention weights
/// of `w` (`w_qkv`, `wo`, `bq/bk/bv/bo`).
///
/// # Errors
///
/// Returns an error on shape disagreements.
pub fn mha_forward(
    dims: &EncoderDims,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    w: &EncoderWeights,
    dropout_p: f32,
    rng: &mut StdRng,
) -> Result<(Tensor, MhaActivations)> {
    let scaler = 1.0 / (dims.p as f32).sqrt();
    // each stream reads its third of the stack's rows
    let ph = w.w_qkv.pack().m / 3;
    let project = |s: usize, lead: [(char, usize); 2], x: &Tensor| {
        w.w_qkv
            .product(s * ph..(s + 1) * ph, false, x, columns_of(x, &lead)?)
    };
    let qq_raw = project(0, [('p', dims.p), ('h', dims.h)], q)?;
    let kk_raw = project(1, [('p', dims.p), ('h', dims.h)], k)?;
    let vv_raw = project(2, [('w', dims.p), ('h', dims.h)], v)?;
    let (qq, kk, vv) = fused::aib(&qq_raw, &w.bq, &kk_raw, &w.bk, &vv_raw, &w.bv)?;
    let beta = einsum("phbk,phbj->hbjk", &[&kk, &qq])?;
    let sm = fused::sm(&beta, scaler, Axis('k'), dropout_p, rng)?;
    let gam = einsum("whbk,hbjk->whbj", &[&vv, &sm.alpha])?;
    let i = w.wo.pack().m;
    let out_mm =
        w.wo.product(0..i, false, &gam, columns_of(&gam, &[('i', i)])?)?;
    let out = xform_tensor::ops::elementwise::bias_add(&out_mm, &w.bo)?;
    Ok((
        out,
        MhaActivations {
            qq,
            kk,
            vv,
            sm,
            gam,
        },
    ))
}

/// Multi-head attention backward: gradient of the output w.r.t. the three
/// inputs (weight gradients follow the encoder-layer pattern and are
/// omitted here; the encoder covers them).
///
/// # Errors
///
/// Returns an error on shape disagreements.
pub fn mha_backward(
    dims: &EncoderDims,
    dy: &Tensor,
    w: &EncoderWeights,
    a: &MhaActivations,
) -> Result<MhaInputGrads> {
    let saved = AttentionSaved {
        qq: &a.qq,
        kk: &a.kk,
        vv: &a.vv,
        att: &a.sm.softmax,
        alpha: &a.sm.alpha,
        att_mask: &a.sm.mask,
        gamma: &a.gam,
    };
    let scaler = 1.0 / (dims.p as f32).sqrt();
    let g = attention_backward(dy, w, &saved, scaler, true)?;
    Ok(MhaInputGrads {
        dq: g.dq,
        dk: g.dk,
        dv: g.dv,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::EncoderWeights;
    use rand::distributions::Uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xform_tensor::Shape;

    fn setup() -> (EncoderDims, EncoderWeights, Tensor, Tensor, Tensor) {
        let dims = EncoderDims::tiny();
        let mut rng = StdRng::seed_from_u64(1);
        let w = EncoderWeights::init(&dims, &mut rng);
        let mk = |spec: &str, rng: &mut StdRng| {
            Tensor::random(
                Shape::from_spec(spec, &dims.size_table()).unwrap(),
                &Uniform::new(-1.0, 1.0),
                rng,
            )
        };
        let q = mk("ibj", &mut rng);
        let k = mk("ibk", &mut rng);
        let v = mk("ibk", &mut rng);
        (dims, w, q, k, v)
    }

    #[test]
    fn forward_shapes() {
        let (dims, w, q, k, v) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let (out, acts) = mha_forward(&dims, &q, &k, &v, &w, 0.0, &mut rng).unwrap();
        assert_eq!(out.shape().spec(), "ibj");
        assert_eq!(acts.sm.alpha.shape().spec(), "hbjk");
        assert_eq!(acts.gam.shape().spec(), "whbj");
    }

    #[test]
    fn attention_weights_are_a_distribution() {
        let (dims, w, q, k, v) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let (_, acts) = mha_forward(&dims, &q, &k, &v, &w, 0.0, &mut rng).unwrap();
        // softmax rows over k sum to 1
        for h in 0..dims.h {
            for b in 0..dims.b {
                for j in 0..dims.j {
                    let s: f32 = (0..dims.k)
                        .map(|kk| acts.sm.softmax.at(&[h, b, j, kk]))
                        .sum();
                    assert!((s - 1.0).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn self_attention_consistency_with_encoder_path() {
        // With q = k = v, MHA matches the encoder's attention sub-path.
        let (dims, w, q, _, _) = setup();
        let k = q.relabel("ibk").unwrap();
        let v = k.clone();
        let mut rng = StdRng::seed_from_u64(4);
        let (out, _) = mha_forward(&dims, &q, &k, &v, &w, 0.0, &mut rng).unwrap();
        assert_eq!(out.shape().spec(), "ibj");
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn backward_matches_numerical_on_query_input() {
        let (dims, w, q, k, v) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let (out, acts) = mha_forward(&dims, &q, &k, &v, &w, 0.0, &mut rng).unwrap();
        let loss_w = Tensor::random(
            out.shape().clone(),
            &Uniform::new(-1.0, 1.0),
            &mut StdRng::seed_from_u64(6),
        );
        let grads = mha_backward(&dims, &loss_w, &w, &acts).unwrap();
        let loss = |qq: &Tensor, kk: &Tensor, vv: &Tensor| -> f32 {
            let mut r = StdRng::seed_from_u64(5);
            let (o, _) = mha_forward(&dims, qq, kk, vv, &w, 0.0, &mut r).unwrap();
            o.iter().map(|(i, x)| loss_w.at(&i) * x).sum()
        };
        let eps = 1e-2f32;
        for (t, g, name) in [
            (&q, &grads.dq, "dq"),
            (&k, &grads.dk, "dk"),
            (&v, &grads.dv, "dv"),
        ] {
            for flat in [0usize, 13, 29] {
                let mut idx = vec![0usize; 3];
                for _ in 0..flat {
                    t.advance(&mut idx);
                }
                let off = t.offset(&idx);
                let mut tp = (*t).clone();
                tp.data_mut()[off] += eps;
                let mut tm = (*t).clone();
                tm.data_mut()[off] -= eps;
                let (lp, lm) = match name {
                    "dq" => (loss(&tp, &k, &v), loss(&tm, &k, &v)),
                    "dk" => (loss(&q, &tp, &v), loss(&q, &tm, &v)),
                    _ => (loss(&q, &k, &tp), loss(&q, &k, &tm)),
                };
                let num = (lp - lm) / (2.0 * eps);
                assert!(
                    (num - g.at(&idx)).abs() < 0.05 * (1.0 + num.abs()),
                    "{name} at {idx:?}: numerical {num} vs analytic {}",
                    g.at(&idx)
                );
            }
        }
    }
}
