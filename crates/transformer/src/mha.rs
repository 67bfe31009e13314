//! Standalone multi-head attention (general attention, Fig. 1): distinct
//! query/key/value inputs, for use outside the encoder layer (Table IV's
//! benchmark primitive and non-transformer applications of MHA).

use rand::rngs::StdRng;

use xform_dataflow::EncoderDims;
use xform_tensor::fused::{self, SmOutput};
use xform_tensor::{einsum, Axis, Result, Shape, Tensor, TensorError};

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
            .product(s * ph..(s + 1) * ph, x, columns_of(x, &lead)?)
    };
    let qq_raw = project(0, [('p', dims.p), ('h', dims.h)], q)?;
    let kk_raw = project(1, [('p', dims.p), ('h', dims.h)], k)?;
    let vv_raw = project(2, [('w', dims.p), ('h', dims.h)], v)?;
    let (qq, kk, vv) = fused::aib(&qq_raw, &w.bq, &kk_raw, &w.bk, &vv_raw, &w.bv)?;
    let beta = einsum("phbk,phbj->hbjk", &[&kk, &qq])?;
    let sm = fused::sm(&beta, scaler, Axis('k'), dropout_p, rng)?;
    let gam = einsum("whbk,hbjk->whbj", &[&vv, &sm.alpha])?;
    let i = w.wo.pack().m;
    let out_mm = w.wo.product(0..i, &gam, columns_of(&gam, &[('i', i)])?)?;
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

/// `lead` followed by the last two axes of `x` (its `b` and `j`/`k`): the
/// shape of a projection's product with `x`.
fn columns_of(x: &Tensor, lead: &[(char, usize)]) -> Result<Shape> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::EncoderWeights;
    use rand::distributions::Uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
}
