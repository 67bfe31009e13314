//! Synthetic inputs for the examples, benches and tests that drive a layer
//! directly. Training itself is [`crate::model::TransformerModel`]'s
//! `forward` → `cross_entropy` → `backward` → `sgd_step` (the paper's
//! Sec. VI-C notes the optimized layer "can be extended to support a full
//! training pipeline by stacking").

use rand::distributions::Uniform;
use rand::Rng;

use xform_dataflow::EncoderDims;
use xform_tensor::{Result, Shape, Tensor};

/// Generates a batch of synthetic token embeddings (for examples).
pub fn synthetic_batch<R: Rng + ?Sized>(dims: &EncoderDims, rng: &mut R) -> Result<Tensor> {
    Ok(Tensor::random(
        Shape::from_spec("ibj", &dims.size_table())?,
        &Uniform::new(-1.0, 1.0),
        rng,
    ))
}
