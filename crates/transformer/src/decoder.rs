//! A GPT-2-style decoder block on the CPU substrate: **pre**-layer-norm,
//! causally masked self-attention, GELU feed-forward — the variant the
//! paper's Sec. VIII says the recipe transfers to unchanged. Forward and
//! backward, validated against numerical gradients, each on the block's
//! canned plan; any other plan over the decoder graph runs through
//! [`xform_core::arena::execute`].

use xform_core::plan::ExecOptions;
use xform_dataflow::EncoderDims;
use xform_tensor::{Result, Tensor};

use crate::interp::{self, ForwardOutput, Saved};
use crate::params::{EncoderGrads, EncoderWeights};

/// A configured decoder block. Weights are shared with the encoder layout
/// ([`EncoderWeights`]); only the wiring differs (pre-LN, causal mask,
/// GELU), and its graph says so ([`xform_dataflow::build::decoder`]).
#[derive(Debug, Clone)]
pub struct DecoderLayer {
    /// Problem dimensions (`j = k`).
    pub dims: EncoderDims,
    /// Dropout probability.
    pub dropout_p: f32,
    /// When set, the block runs the GEMM-epilogue canned plan
    /// ([`interp::PlanKind::DecoderEpilogue`]): the Out→BDR, Linear 1→BRD
    /// and Linear 2→BDR2 chains collapse into tiled mega-kernels whose
    /// intermediates never materialize.
    pub epilogue: bool,
}

impl DecoderLayer {
    /// Creates a GPT-2-style block (GELU activation).
    pub fn new(dims: EncoderDims, dropout_p: f32) -> Self {
        DecoderLayer {
            dims,
            dropout_p,
            epilogue: false,
        }
    }

    /// Switches the block onto the GEMM-epilogue canned plan
    /// (builder-style).
    pub fn with_epilogue(mut self) -> Self {
        self.epilogue = true;
        self
    }

    /// The canned-plan cache key for the block's configuration.
    fn plan_kind(&self) -> interp::PlanKind {
        if self.epilogue {
            interp::PlanKind::DecoderEpilogue
        } else {
            interp::PlanKind::DecoderFused
        }
    }

    /// Forward propagation: `x` (`[i,b,j]`) → `y` (`[i,b,j]`) plus the
    /// [`Saved`] record [`DecoderLayer::backward`] reads, with the same
    /// unified [`ExecOptions`]-driven surface as
    /// [`crate::encoder::EncoderLayer::forward`], option for option: the
    /// block's canned plan runs out of its one static arena at any
    /// `threads`,
    /// `profiler` / `sanitize` behave identically. The block's `dropout_p`
    /// comes from the block; its GELU and attention scale from its graph.
    ///
    /// # Errors
    ///
    /// Returns an error if the block's `dropout_p` is outside `[0, 1)`,
    /// `x` has the wrong shape, the plan fails its lint gate or
    /// certification, or a kernel rejects its operands.
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
    /// steady-state zero-allocation entry point, mirroring
    /// [`crate::encoder::EncoderLayer::forward_into`]: same plan, same
    /// executor and same values as [`DecoderLayer::forward`], no saved
    /// activations, and after warmup no heap allocation while the block
    /// runs its canned plan out of its static arena into the caller's
    /// dense row-major `[i,b,j]` buffer, profiled or not.
    ///
    /// # Errors
    ///
    /// Returns an error if `dropout_p` is outside `[0, 1)`, `y` is not of
    /// the plan's `y` shape or not stored row-major, `x` has the wrong
    /// shape, or the execution itself fails.
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

    /// Backpropagation under `opts`: `(dx, weight gradients)` from the
    /// output gradient and the record the forward saved, on the block's
    /// backward plan ([`interp::PlanKind::DecoderTrain`]) out of its static
    /// arena, as [`crate::encoder::EncoderLayer::backward`] runs the
    /// encoder's.
    ///
    /// # Errors
    ///
    /// Returns an error if the block's `dropout_p` is outside `[0, 1)`,
    /// `dy` or `x` is not `[i,b,j]` at the block's dimensions,
    /// `opts.profiler` was made for another plan, or naming a container `a`
    /// lacks (an encoder layer's record, say).
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
    use xform_tensor::Shape;

    fn setup() -> (DecoderLayer, EncoderWeights, Tensor) {
        let dims = EncoderDims::tiny();
        let mut rng = StdRng::seed_from_u64(7);
        let w = EncoderWeights::init(&dims, &mut rng);
        let x = Tensor::random(
            Shape::from_spec("ibj", &dims.size_table()).unwrap(),
            &Uniform::new(-1.0, 1.0),
            &mut rng,
        );
        (DecoderLayer::new(dims, 0.0), w, x)
    }

    fn fwd(layer: &DecoderLayer, x: &Tensor, w: &EncoderWeights, seed: u64) -> (Tensor, Saved) {
        let opts = ExecOptions::builder().seed(seed).build();
        layer.forward(x, w, &opts).unwrap().into_pair().unwrap()
    }

    #[test]
    fn forward_shape_and_what_it_saves_of_the_softmax() {
        let (layer, w, x) = setup();
        let (y, acts) = fwd(&layer, &x, &w, 1);
        assert_eq!(y.shape().spec(), "ibj");
        // no `[h,b,j,k]` tensor: the region step's dropout stream instead
        // (that no attention weight looks at the future shows in `y`, below)
        assert!(acts.names().all(|n| n != "att"));
        let (seed, _) = acts.region().expect("the attention core runs as a region");
        assert_eq!(seed, 1);
    }

    #[test]
    fn causality_propagates_to_output() {
        // Changing a future token must not change earlier outputs.
        let (layer, w, x) = setup();
        let (y1, _) = fwd(&layer, &x, &w, 2);
        let mut x2 = x.clone();
        let d = layer.dims;
        // perturb the last position (j = d.j - 1) for every (i, b)
        for i in 0..d.i {
            for b in 0..d.b {
                let v = x2.at(&[i, b, d.j - 1]);
                x2.set(&[i, b, d.j - 1], v + 1.0);
            }
        }
        let (y2, _) = fwd(&layer, &x2, &w, 2);
        for i in 0..d.i {
            for b in 0..d.b {
                for j in 0..d.j - 1 {
                    assert!(
                        (y1.at(&[i, b, j]) - y2.at(&[i, b, j])).abs() < 1e-5,
                        "future leak at ({i},{b},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn gradients_match_numerical() {
        let (layer, w, x) = setup();
        let (y, acts) = fwd(&layer, &x, &w, 3);
        let loss_w = Tensor::random(
            y.shape().clone(),
            &Uniform::new(-1.0, 1.0),
            &mut StdRng::seed_from_u64(4),
        );
        let (dx, grads) = layer
            .backward(&loss_w, &x, &w, &acts, &ExecOptions::default())
            .unwrap();
        let loss = |xx: &Tensor, ww: &EncoderWeights| -> f32 {
            let (yy, _) = fwd(&layer, xx, ww, 3);
            yy.iter().map(|(i, v)| loss_w.at(&i) * v).sum()
        };
        let eps = 1e-2f32;
        for flat in [0usize, 11, 29, 40] {
            let mut idx = vec![0usize; 3];
            for _ in 0..flat {
                x.advance(&mut idx);
            }
            let off = x.offset(&idx);
            let mut xp = x.clone();
            xp.data_mut()[off] += eps;
            let mut xm = x.clone();
            xm.data_mut()[off] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!(
                (num - dx.at(&idx)).abs() < 0.05 * (1.0 + num.abs()),
                "dx at {idx:?}: numeric {num} vs analytic {}",
                dx.at(&idx)
            );
        }
        // one index in each of the Q, K and V blocks of the stack
        let n = w.w_qkv.data().len() / 3;
        let qkv = [("w_qkv", 2), ("w_qkv", n + 4), ("w_qkv", 2 * n + 6)];
        let rest = [("wo", 7), ("w1", 5), ("ln1_gamma", 1), ("b2", 3)];
        for (name, flat) in qkv.into_iter().chain(rest) {
            let analytic = grads
                .fields()
                .into_iter()
                .find(|(n, _)| *n == name)
                .unwrap()
                .1
                .data()[flat];
            let (wp, wm) = (w.nudged(name, flat, eps), w.nudged(name, flat, -eps));
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!(
                (num - analytic).abs() < 0.05 * (1.0 + num.abs()),
                "grad {name}[{flat}]: numeric {num} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn parallel_forward_matches_serial() {
        // The unified API gives the decoder a certified parallel path for
        // free: the wave-parallel interpreter must reproduce the serial
        // result bitwise (dropout off, so RNG streams don't matter).
        let (layer, w, x) = setup();
        let (y_serial, _) = fwd(&layer, &x, &w, 11);
        for threads in [2, 4] {
            let opts = ExecOptions::builder().seed(11).threads(threads).build();
            let (y_par, _) = layer.forward(&x, &w, &opts).unwrap().into_pair().unwrap();
            assert_eq!(y_serial.data(), y_par.data(), "threads = {threads}");
        }
    }
}
