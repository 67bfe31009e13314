//! BERT encoder layer on the CPU tensor substrate.
//!
//! Executable counterpart to the dataflow graphs of `xform-dataflow`: the
//! full forward **and** backward pass of a BERT encoder layer (multi-head
//! self-attention + feed-forward, with dropout, layer norm and residuals),
//! in two interchangeable executors — [`encoder::Executor::Reference`]
//! (one unfused operator per dataflow node, the eager-framework baseline)
//! and [`encoder::Executor::Fused`] (the paper's twelve fused kernels).
//! Both are validated against each other and against numerical gradients.
//!
//! Every layer exposes **one** forward entry point,
//! `forward(&x, &weights, &ExecOptions)`, which returns `y` and one
//! [`interp::Saved`] record — the graph's saved containers as the plan
//! materialized them, by name, which the layer's `backward` binds into its
//! backward plan — and its allocation-free twin for inference,
//! `forward_into`. Forward and backward alike run as certified plans out of
//! static arenas. The
//! [`xform_core::plan::ExecOptions`] argument selects serial vs.
//! certified wave-parallel execution (`threads`), sanitized execution
//! (`sanitize`) and an optional runtime profiler sink (`profiler`); any
//! plan other than a layer's canned one runs through
//! [`xform_core::arena::execute`].
//!
//! * [`params`] — encoder weights/gradients and the one update rule, SGD;
//! * [`encoder`] — the layer itself;
//! * [`decoder`] — the GPT-2-style causal variant;
//! * [`decode`] — streaming KV-cache decoding ([`decode::DecodeSession`]):
//!   prefill once, then token-at-a-time steps over persistent per-layer
//!   cache slabs, bitwise-equal to the full-sequence forward and
//!   allocation-free in the steady state;
//! * [`model`] — embeddings, stacked blocks and the head: the training
//!   step;
//! * [`training`] — synthetic inputs for driving a layer directly.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use xform_core::plan::ExecOptions;
//! use xform_dataflow::EncoderDims;
//! use xform_transformer::encoder::{EncoderLayer, Executor};
//! use xform_transformer::params::EncoderWeights;
//! use xform_transformer::training::synthetic_batch;
//! # fn main() -> xform_tensor::Result<()> {
//! let dims = EncoderDims::tiny();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let weights = EncoderWeights::init(&dims, &mut rng);
//! let layer = EncoderLayer::new(dims, Executor::Fused, 0.0);
//! let x = synthetic_batch(&dims, &mut rng)?;
//! let opts = ExecOptions::builder().seed(42).build();
//! let (y, acts) = layer.forward(&x, &weights, &opts)?.into_pair()?;
//! let (dx, grads) = layer.backward(&y, &x, &weights, &acts)?;
//! assert_eq!(dx.shape(), x.shape());
//! assert_eq!(grads.w1.shape(), weights.w1.shape());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod decode;
pub mod decoder;
pub mod encoder;
pub mod interp;
pub mod model;
pub mod params;
pub mod training;
