//! The paper's contribution: a recipe for globally optimizing data
//! movement in transformer training.
//!
//! This crate implements Sections III–VI of *Ivanov et al., "Data Movement
//! Is All You Need" (MLSys 2021)* on top of the dataflow IR
//! (`xform-dataflow`) and the device model (`xform-gpusim`):
//!
//! * [`itspace`] — iteration spaces and the fusion-compatibility rules of
//!   Sec. IV, including the four structural patterns of Fig. 3;
//! * [`fusion`] — automatic fusion-group detection, the paper's exact
//!   encoder fusion plan (AIB, SM, DRLN, BRD, BDRLN, BSB, BLNRD, BDRB,
//!   EBSB, BAOB, BS, BAIB, BEI) and the one fusion step
//!   ([`fusion::fuse`]) the recipe and every canned plan run;
//! * [`algebraic`] — the stacked Q/K/V projection variants of Table II;
//! * [`sweep`] — exhaustive per-operator configuration sweeps behind the
//!   [`sweep::PerfSource`] trait (simulator or real measurements);
//! * [`selection`] — the shortest-path global configuration selection of
//!   Sec. VI-A / Fig. 6;
//! * [`plan`] — lowering a fusion plan plus a layout selection into an
//!   executable, layout-annotated schedule ([`plan::ExecutionPlan`]), one
//!   step builder under a configuration or none (natural), and the
//!   reference interpreter ([`plan::execute_plan`]): serial, allocating —
//!   the test oracle, with no production caller;
//! * `lower` (crate-private) — the step lowering: the one place that says
//!   which kernel class a step is and, under the layout the step declares
//!   for it, how the kernel addresses each operand (a strided view);
//!   [`arena`] and [`access`] consume its views as slab views and access
//!   paths;
//! * [`arena`] — the interpreter ([`arena::execute`] runs any plan):
//!   every plan, in any layout, is certified once and lowered onto one
//!   preallocated slab via the liveness coloring of [`analyze::assign_arena`], executing through
//!   the zero-allocation `*_into` kernels so steady-state forwards touch
//!   the heap not at all;
//! * [`access`] — what a step touches: every operand's index-affine
//!   access path per step ([`access::step_accesses`]), the one derivation
//!   the certificate, the cache model and the profiler read;
//! * [`sanitize`] — the plan certificate: one pass over one analysis
//!   ([`sanitize::certify_plan`]) proving declarations cover what the
//!   kernels read, waves free of races, every path in its buffer and slot,
//!   and caches frozen — the [`sanitize::PlanCertificate`] the arena keeps
//!   (entries [`sanitize::certify`] and [`access::certify_access`]);
//! * [`cachemodel`] — the static cache-hierarchy analyzer: reuse-distance
//!   abstract interpretation of each step's access paths through a
//!   parameterized L1/L2/LLC geometry ([`cachemodel::CacheGeometry`]),
//!   predicting per-level hit words and DRAM-interface traffic and
//!   yielding a cache-corrected static MUE ([`cachemodel::cache_audit`])
//!   alongside `analyze::audit`'s flat one, plus the tile-overflow /
//!   cache-thrash / layout-conflict lints;
//! * [`profile`] — the runtime plan profiler ([`profile::PlanProfiler`]):
//!   measured per-step time/bytes/bandwidth and measured MUE observed on
//!   the executor a plan runs on via [`plan::ExecOptions::profiler`], plus
//!   profile-guided re-selection ([`profile::ProfiledSource`],
//!   [`profile::reselect_cost`]);
//! * [`recipe`] — the end-to-end driver assembling the optimized encoder;
//! * [`report`] — Table-III-style per-operator comparisons.
//!
//! # Examples
//!
//! ```no_run
//! use xform_core::recipe::{optimize_encoder, RecipeOptions};
//! use xform_dataflow::EncoderDims;
//! use xform_gpusim::DeviceSpec;
//! # fn main() -> xform_tensor::Result<()> {
//! let plan = optimize_encoder(
//!     &DeviceSpec::v100(),
//!     &EncoderDims::bert_large(),
//!     &RecipeOptions::default(),
//! )?;
//! println!("forward {:.2} ms", plan.forward_us / 1000.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod access;
pub mod algebraic;
pub mod analyze;
pub mod arena;
pub mod cachemodel;
pub mod cpusource;
pub mod env;
pub mod fusion;
pub mod itspace;
mod lower;
pub mod plan;
pub mod profile;
pub mod recipe;
pub mod report;
pub mod sanitize;
pub mod selection;
pub mod sweep;
