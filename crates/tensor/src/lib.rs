//! CPU tensor substrate for data-movement-centric transformer optimization.
//!
//! This crate provides the numerical foundation of the `substation-rs`
//! workspace, a Rust reproduction of *Ivanov et al., "Data Movement Is All
//! You Need: A Case Study on Optimizing Transformers" (MLSys 2021)*:
//!
//! * [`Shape`] / [`Axis`] — tensors with *named* logical dimensions, in the
//!   paper's single-letter convention (`b` batch, `j`/`k` sequence, `h`
//!   heads, `p`/`w` projection, `i` embedding, `u` feed-forward);
//! * [`Layout`] — permutable memory layouts, the central experimental knob
//!   of the paper's Sec. V;
//! * [`Tensor`] — dense `f32` storage addressed logically, so relayouting
//!   never changes values, only access patterns;
//! * [`einsum()`](crate::einsum()) / [`contract`](crate::contract::contract) — Einstein-sum
//!   contractions lowered onto tiled (batched) GEMM, like the paper lowers
//!   onto cuBLAS;
//! * [`ops`] — the unfused operator kernels of a BERT encoder layer,
//!   forward *and* backward;
//! * [`fused`] — single-sweep implementations of the paper's twelve fused
//!   kernels (AIB, SM, BRD, BDRLN, BSB, BLNRD, BDRB, EBSB, BS, BAOB, BAIB,
//!   BEI);
//! * [`lanes`] — the one body of every forward kernel, which [`into_ops`]
//!   drives in logical order over caller-provided buffers — a contiguous
//!   lane at a time, in panels of adjacent strided lanes, or a strided lane
//!   at a time, as the strides decide — and [`ops`] and [`fused`] drive
//!   through it;
//! * [`half`] — software FP16 for mixed-precision storage accounting.
//!
//! # Examples
//!
//! A query projection as in the paper's Fig. 1, followed by its bias:
//!
//! ```
//! use xform_tensor::{einsum, ops::elementwise::bias_add, Shape, Tensor};
//! # fn main() -> Result<(), xform_tensor::TensorError> {
//! let sizes = [('p', 4), ('h', 2), ('i', 8), ('b', 2), ('j', 3)];
//! let wq = Tensor::zeros(Shape::from_spec("phi", &sizes)?);
//! let x = Tensor::zeros(Shape::from_spec("ibj", &sizes)?);
//! let bq = Tensor::zeros(Shape::from_spec("ph", &sizes)?);
//! let qq = einsum("phi,ibj->phbj", &[&wq, &x])?;
//! let q = bias_add(&qq, &bq)?;
//! assert_eq!(q.shape().spec(), "phbj");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod axes;
pub mod contract;
pub mod einsum;
mod error;
pub mod fused;
pub mod half;
pub mod into_ops;
pub mod lanes;
mod layout;
pub mod matmul;
pub mod ops;
mod tensor;

pub use axes::{Axis, Shape};
pub use contract::einsum;
pub use error::{Result, TensorError};
pub use layout::{Layout, MAX_RANK};
pub use tensor::{Iter, Tensor};
