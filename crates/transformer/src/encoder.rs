//! The BERT encoder layer on the CPU tensor substrate: forward and
//! backward, with a reference (unfused) and a fused executor.
//!
//! Since the plan-driven refactor both executors are *canned execution
//! plans*: the reference executor is the unfused dataflow graph with
//! natural layouts (the eager per-operator execution of the PyTorch
//! baseline), the fused executor the same graph with the paper's fusion
//! plan applied, one step per fused kernel. The single entry point
//! [`EncoderLayer::forward`] is driven entirely by [`ExecOptions`], and
//! there is one interpreter: every plan runs out of its static arena at
//! any thread count, sanitized or not, profiled or not. Any other plan over
//! the encoder graph — one lowered from the recipe's SSSP layout
//! selection, say, whose strided operands are views and whose transposes
//! are in-place relayouts — runs on the same arena through
//! [`xform_core::arena::execute`]. Both canned executors compute identical
//! values (equivalence is tested with dropout disabled), and so do their
//! backward plans, given the same saved masks.

use xform_core::plan::ExecOptions;
use xform_dataflow::EncoderDims;
use xform_tensor::{Result, Tensor};

use crate::interp::{self, ForwardOutput, Saved};
use crate::params::{EncoderGrads, EncoderWeights};

/// Which kernel set executes the layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// One unfused operator per dataflow node (the PyTorch-style baseline).
    Reference,
    /// The paper's fused kernels (AIB, SM, BDRLN, BRD, BSB, BLNRD, BDRB,
    /// EBSB, BS, BAOB, BAIB, BEI).
    Fused,
    /// The fused kernels plus GEMM-epilogue mega-kernels: the Linear 1→BRD
    /// chain collapses into a single tiled contraction step whose
    /// intermediate (`ff1`) is never materialized. (The attention core runs
    /// as one region under this executor and under [`Executor::Fused`]
    /// alike.)
    Epilogue,
}

/// A configured encoder layer.
#[derive(Debug, Clone)]
pub struct EncoderLayer {
    /// Problem dimensions.
    pub dims: EncoderDims,
    /// Kernel set.
    pub executor: Executor,
    /// Dropout probability (0 disables dropout deterministically).
    pub dropout_p: f32,
}

impl EncoderLayer {
    /// Creates a layer running `executor`'s canned plan with the given
    /// dropout probability. Its arithmetic is its graph's
    /// ([`xform_dataflow::build::encoder`]): the paper's Fig. 2 ReLU
    /// feed-forward and the attention scale `1/√P`.
    pub fn new(dims: EncoderDims, executor: Executor, dropout_p: f32) -> Self {
        EncoderLayer {
            dims,
            executor,
            dropout_p,
        }
    }

    /// The canned-plan cache key for the layer's executor kind.
    fn plan_kind(&self) -> interp::PlanKind {
        match self.executor {
            Executor::Reference => interp::PlanKind::EncoderReference,
            Executor::Fused => interp::PlanKind::EncoderFused,
            Executor::Epilogue => interp::PlanKind::EncoderEpilogue,
        }
    }

    /// Runs forward propagation on input `x` (`[i,b,j]`) — the single
    /// entry point for every execution mode — and returns `y` with the
    /// [`Saved`] record [`EncoderLayer::backward`] reads. The plan runs out
    /// of its memoized static arena, `x` and the weights bound straight into
    /// the slab; what `opts` selects:
    ///
    /// * [`ExecOptions::threads`] — `1` (or `0`) runs the plan's certified
    ///   waves in order on the caller's thread, more dispatches each
    ///   multi-step wave across the worker pool; the arena is the same
    ///   one. Results are bitwise the same at any count, dropout
    ///   included: every step draws from its own stream derived from
    ///   [`ExecOptions::seed`];
    /// * [`ExecOptions::profiler`] — observes the run: per-step (and, at
    ///   `threads > 1`, per-wave) wall times land in the sink
    ///   ([`xform_core::profile::PlanProfiler`]). Neither the executor nor
    ///   one output bit changes;
    /// * [`ExecOptions::sanitize`] — turns on the arena's checking mode,
    ///   the NaN-poisoning of retired buffers. Results are unchanged.
    ///
    /// Concurrent callers of one layer queue on the arena's buffers; each
    /// gets the result a lone call would.
    ///
    /// The layer's `dropout_p` is taken from the layer itself; the
    /// `ExecOptions` field is ignored. What the plan computes — its
    /// activation and its attention scale — is its graph's.
    ///
    /// # Errors
    ///
    /// Returns an error if the layer's `dropout_p` is outside `[0, 1)`,
    /// `x` has the wrong shape for the layer's dimensions, the plan fails
    /// its lint gate or certification, or a kernel rejects its operands.
    pub fn forward(
        &self,
        x: &Tensor,
        w: &EncoderWeights,
        opts: &ExecOptions,
    ) -> Result<ForwardOutput> {
        let run = interp::layer_options(opts, self.dropout_p)?;
        interp::forward(&self.dims, self.plan_kind(), x, w, &run)
    }

    /// Forward propagation into a caller-provided output tensor — the
    /// steady-state zero-allocation entry point. Same plan, same executor,
    /// same values as [`EncoderLayer::forward`] under the same `opts`, but
    /// no saved activations: after a warmup call has populated the plan
    /// and arena caches, every subsequent call binds `x` and the weights
    /// straight into the layer's static arena, executes out of the slab
    /// through the `*_into` kernels, and copies the produced `y` into
    /// `&mut y` without touching the heap (see `tests/alloc_discipline.rs`),
    /// profiled or not: a sink made for the layer's plan holds a record per
    /// step from its construction, and the arena merges each run's times
    /// into them in place.
    ///
    /// `y` must be a dense row-major tensor of the layer's output
    /// geometry (`[i,b,j]`), or the call is refused before it runs; its
    /// contents are overwritten with the plan's `y`.
    /// [`xform_core::plan::SanitizeMode::Env`] is resolved once per
    /// process on the arena, so set `XFORM_SANITIZE` before the first
    /// call.
    ///
    /// # Errors
    ///
    /// Returns an error if `dropout_p` is outside `[0, 1)`, `y` is not of
    /// the plan's `y` shape or not stored row-major, `x` has the wrong
    /// shape, or the execution itself fails (see [`EncoderLayer::forward`]).
    pub fn forward_into(
        &self,
        x: &Tensor,
        w: &EncoderWeights,
        opts: &ExecOptions,
        y: &mut Tensor,
    ) -> Result<()> {
        let run = interp::layer_options(opts, self.dropout_p)?;
        interp::forward_into(&self.dims, self.plan_kind(), x, w, &run, y)
    }

    /// Runs backpropagation under `opts`, option for option as
    /// [`EncoderLayer::forward`] runs (the layer's `dropout_p` is the
    /// layer's own): given the output gradient `dy` and the record the
    /// forward saved, returns the input gradient `dx` and all weight
    /// gradients. The backward plan the record calls for runs out of its
    /// static arena — [`interp::PlanKind::EncoderTrain`] for a forward that
    /// ran the attention region (it recomputes the softmax bundle under the
    /// record's dropout stream, whatever `opts.seed` says),
    /// [`interp::PlanKind::EncoderReferenceTrain`] for one that saved the
    /// bundle (the reference executor's) — with `dy`, `x`, the weights and
    /// the record's containers and statistics read where they lie: the
    /// returned tensors are the only heap the call touches once the caches
    /// are warm. A profiler sink must be made for that backward plan.
    ///
    /// # Errors
    ///
    /// Returns an error if the layer's `dropout_p` is outside `[0, 1)`,
    /// `dy` or `x` is not `[i,b,j]` at the layer's dimensions, `opts.profiler`
    /// was made for another plan, or naming a container `a` lacks (a
    /// decoder block's record, say).
    pub fn backward(
        &self,
        dy: &Tensor,
        x: &Tensor,
        w: &EncoderWeights,
        a: &Saved,
        opts: &ExecOptions,
    ) -> Result<(Tensor, EncoderGrads)> {
        let run = interp::layer_options(opts, self.dropout_p)?;
        interp::backward(&self.dims, self.plan_kind(), dy, x, w, a, &run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::distributions::Uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(p: f32, executor: Executor) -> (EncoderLayer, EncoderWeights, Tensor) {
        let dims = EncoderDims::tiny();
        let mut rng = StdRng::seed_from_u64(42);
        let w = EncoderWeights::init(&dims, &mut rng);
        let x = Tensor::random(
            xform_tensor::Shape::from_spec("ibj", &dims.size_table()).unwrap(),
            &Uniform::new(-1.0, 1.0),
            &mut rng,
        );
        (EncoderLayer::new(dims, executor, p), w, x)
    }

    /// Unified-API forward with a fixed seed, destructured for tests.
    fn fwd(layer: &EncoderLayer, x: &Tensor, w: &EncoderWeights, seed: u64) -> (Tensor, Saved) {
        let opts = ExecOptions::builder().seed(seed).build();
        layer.forward(x, w, &opts).unwrap().into_pair().unwrap()
    }

    #[test]
    fn forward_output_shape_and_normalization() {
        let (layer, w, x) = setup(0.0, Executor::Fused);
        let (y, _) = fwd(&layer, &x, &w, 1);
        assert_eq!(y.shape().spec(), "ibj");
        // output of a layernorm with unit gamma: per-(b,j) slice has
        // mean ~0 and variance ~1 over i
        let (i_n, b_n, j_n) = (layer.dims.i, layer.dims.b, layer.dims.j);
        for b in 0..b_n {
            for j in 0..j_n {
                let mut mean = 0.0;
                for i in 0..i_n {
                    mean += y.at(&[i, b, j]);
                }
                mean /= i_n as f32;
                assert!(mean.abs() < 1e-4, "mean {mean}");
            }
        }
    }

    #[test]
    fn executors_agree_on_forward() {
        let (fused_layer, w, x) = setup(0.0, Executor::Fused);
        let ref_layer = EncoderLayer::new(fused_layer.dims, Executor::Reference, 0.0);
        let (y1, a1) = fwd(&fused_layer, &x, &w, 2);
        let (y2, a2) = fwd(&ref_layer, &x, &w, 2);
        assert!(y1.max_abs_diff(&y2).unwrap() < 1e-5);
        let diff = |name| {
            let (t1, t2) = (a1.tensor(name).unwrap(), a2.tensor(name).unwrap());
            t1.max_abs_diff(&t2).unwrap()
        };
        assert!(diff("qq") < 1e-5 && diff("ln1_in") < 1e-5);
        // the reference executor keeps the softmax bundle, the fused one the
        // stream to compute it again from
        let kept = |a: &Saved| a.names().any(|n| n == "att");
        assert!(a1.region().is_some() && !kept(&a1));
        assert!(a2.region().is_none() && kept(&a2));
    }

    #[test]
    fn executors_agree_on_backward_given_same_activations() {
        let (fused_layer, w, x) = setup(0.3, Executor::Fused);
        let (y, acts) = fwd(&fused_layer, &x, &w, 3);
        let dy = Tensor::random(
            y.shape().clone(),
            &Uniform::new(-1.0, 1.0),
            &mut StdRng::seed_from_u64(4),
        );
        let ref_layer = EncoderLayer::new(fused_layer.dims, Executor::Reference, 0.3);
        let (dx1, g1) = fused_layer
            .backward(&dy, &x, &w, &acts, &ExecOptions::default())
            .unwrap();
        let (dx2, g2) = ref_layer
            .backward(&dy, &x, &w, &acts, &ExecOptions::default())
            .unwrap();
        assert!(dx1.max_abs_diff(&dx2).unwrap() < 1e-4);
        for ((n1, t1), (_, t2)) in g1.fields().iter().zip(g2.fields()) {
            assert!(
                t1.max_abs_diff(t2).unwrap() < 1e-4,
                "gradient {n1} disagrees"
            );
        }
    }

    #[test]
    fn parallel_forward_is_bitwise_equal_to_serial() {
        for executor in [Executor::Reference, Executor::Fused] {
            let (layer, w, x) = setup(0.0, executor);
            let (y_serial, a_serial) = fwd(&layer, &x, &w, 8);
            for threads in [2, 4] {
                let opts = ExecOptions::builder().threads(threads).build();
                let (y_par, a_par) = layer.forward(&x, &w, &opts).unwrap().into_pair().unwrap();
                assert_eq!(y_par.data(), y_serial.data(), "{executor:?} @{threads}");
                for name in ["gamma", "ln2_in"] {
                    let (par, serial) = (a_par.tensor(name), a_serial.tensor(name));
                    assert_eq!(par.unwrap().data(), serial.unwrap().data());
                }
            }
        }
    }

    #[test]
    fn parallel_dropout_is_thread_count_invariant() {
        let (layer, w, x) = setup(0.5, Executor::Fused);
        let mk = |threads| ExecOptions::builder().threads(threads).seed(99).build();
        let (y2, a2) = layer.forward(&x, &w, &mk(2)).unwrap().into_pair().unwrap();
        let (y4, a4) = layer.forward(&x, &w, &mk(4)).unwrap().into_pair().unwrap();
        assert_eq!(y2.data(), y4.data());
        let mask2 = a2.tensor("drop2_mask").unwrap();
        assert_eq!(mask2.data(), a4.tensor("drop2_mask").unwrap().data());
        assert!(mask2.data().contains(&0.0));
    }

    #[test]
    fn dropout_masks_are_saved_and_applied() {
        let (layer, w, x) = setup(0.5, Executor::Fused);
        let (_, acts) = fwd(&layer, &x, &w, 5);
        let (mask, out) = (acts.tensor("drop2_mask"), acts.tensor("ff1_drop"));
        let (mask, out) = (mask.unwrap(), out.unwrap());
        let zeros = mask.data().iter().filter(|&&m| m == 0.0).count();
        assert!(zeros > 0, "dropout never fired at p=0.5");
        // dropped positions are zero in the output
        let mut idx = vec![0usize; 3];
        loop {
            if mask.at(&idx) == 0.0 {
                assert_eq!(out.at(&idx), 0.0);
            }
            if !out.advance(&mut idx) {
                break;
            }
        }
    }

    /// Central-difference check of the full backward pass, spot-checking a
    /// handful of coordinates of `dx` and of several weight gradients.
    #[test]
    fn gradients_match_numerical() {
        let (layer, w, x) = setup(0.0, Executor::Fused);
        let (y, acts) = fwd(&layer, &x, &w, 6);
        let loss_w = Tensor::random(
            y.shape().clone(),
            &Uniform::new(-1.0, 1.0),
            &mut StdRng::seed_from_u64(7),
        );
        let dy = loss_w.clone();
        let (dx, grads) = layer
            .backward(&dy, &x, &w, &acts, &ExecOptions::default())
            .unwrap();
        let loss = |xx: &Tensor, ww: &EncoderWeights| -> f32 {
            let (yy, _) = fwd(&layer, xx, ww, 6);
            yy.iter().map(|(i, v)| loss_w.at(&i) * v).sum()
        };
        let eps = 1e-2f32;
        // dx spot checks
        for flat in [0usize, 7, 23, 41] {
            let mut idx = vec![0usize; 3];
            for _ in 0..flat {
                x.advance(&mut idx);
            }
            let mut xp = x.clone();
            let off = xp.offset(&idx);
            xp.data_mut()[off] += eps;
            let mut xm = x.clone();
            xm.data_mut()[off] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!(
                (num - dx.at(&idx)).abs() < 0.05 * (1.0 + num.abs()),
                "dx at {idx:?}: numerical {num} vs analytic {}",
                dx.at(&idx)
            );
        }
        // weight gradient spot checks: one index in each of the Q, K and V
        // blocks of the stack
        let n = w.w_qkv.data().len() / 3;
        let checks: Vec<(&str, usize)> = vec![
            ("w_qkv", 3),
            ("w_qkv", n + 5),
            ("w_qkv", 2 * n + 7),
            ("wo", 5),
            ("b1", 2),
            ("w2", 11),
            ("ln2_gamma", 1),
            ("bo", 4),
            ("ln1_beta", 0),
        ];
        for (name, flat) in checks {
            let analytic = {
                let (_, t) = grads
                    .fields()
                    .into_iter()
                    .find(|(n, _)| *n == name)
                    .unwrap();
                t.data()[flat]
            };
            let (wp, wm) = (w.nudged(name, flat, eps), w.nudged(name, flat, -eps));
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!(
                (num - analytic).abs() < 0.05 * (1.0 + num.abs()),
                "grad {name}[{flat}]: numerical {num} vs analytic {analytic}"
            );
        }
    }
}
