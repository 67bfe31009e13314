//! Encoder-layer parameters and gradients.

use rand::distributions::Uniform;
use rand::Rng;

use xform_dataflow::EncoderDims;
use xform_tensor::{Result, Shape, Tensor, TensorError};

/// All learned parameters of one BERT encoder layer, in the paper's axis
/// convention (the `shi` Q/K/V stack and the `whi` output projection,
/// `ph`/`wh`/`i` biases, `ui`/`iu` feed-forward weights, `i`-sized
/// layer-norm scale/shift).
#[derive(Debug, Clone)]
pub struct EncoderWeights {
    /// The query, key and value projections stacked, in that order, as
    /// the graphs read them: `w_qkv [s = 3p, h, i]`, each projection a
    /// `[p, h, i]` block of it.
    pub w_qkv: Tensor,
    /// Output projection `[w, h, i]`.
    pub wo: Tensor,
    /// Query bias `[p, h]`.
    pub bq: Tensor,
    /// Key bias `[p, h]`.
    pub bk: Tensor,
    /// Value bias `[w, h]`.
    pub bv: Tensor,
    /// Attention output bias `[i]`.
    pub bo: Tensor,
    /// First layer-norm scale `[i]`.
    pub ln1_gamma: Tensor,
    /// First layer-norm shift `[i]`.
    pub ln1_beta: Tensor,
    /// Feed-forward up projection `[u, i]`.
    pub w1: Tensor,
    /// Feed-forward up bias `[u]`.
    pub b1: Tensor,
    /// Feed-forward down projection `[i, u]`.
    pub w2: Tensor,
    /// Feed-forward down bias `[i]`.
    pub b2: Tensor,
    /// Second layer-norm scale `[i]`.
    pub ln2_gamma: Tensor,
    /// Second layer-norm shift `[i]`.
    pub ln2_beta: Tensor,
}

/// Gradients matching [`EncoderWeights`] field for field.
pub type EncoderGrads = EncoderWeights;

fn shape(dims: &EncoderDims, spec: &str) -> Shape {
    Shape::from_spec(spec, &dims.size_table()).expect("valid parameter spec")
}

impl EncoderWeights {
    /// Initializes weights with uniform(-scale, scale) where
    /// `scale = 1/√I`, biases at zero, layer-norm scale at one.
    ///
    /// # Panics
    ///
    /// Panics if `dims.h`, `dims.p`, `dims.i` or `dims.u` is zero (a
    /// `Shape` has no empty axis); [`crate::model::TransformerModel::init`]
    /// checks first and returns an error.
    pub fn init<R: Rng + ?Sized>(dims: &EncoderDims, rng: &mut R) -> Self {
        let s = 1.0 / (dims.i as f32).sqrt();
        let dist = Uniform::new(-s, s);
        // Q, then K, then V, each drawn row-major
        let qkv = [('s', 3 * dims.p), ('h', dims.h), ('i', dims.i)];
        let w_qkv = Tensor::random(Shape::new(qkv).expect("valid stack"), &dist, rng);
        let mut rand = |spec: &str| Tensor::random(shape(dims, spec), &dist, rng);
        let wo = rand("whi");
        let w1 = rand("ui");
        let w2 = rand("iu");
        let ones = |spec: &str| {
            let mut t = Tensor::zeros(shape(dims, spec));
            t.fill(1.0);
            t
        };
        EncoderWeights {
            w_qkv,
            wo,
            bq: Tensor::zeros(shape(dims, "ph")),
            bk: Tensor::zeros(shape(dims, "ph")),
            bv: Tensor::zeros(shape(dims, "wh")),
            bo: Tensor::zeros(shape(dims, "i")),
            ln1_gamma: ones("i"),
            ln1_beta: Tensor::zeros(shape(dims, "i")),
            w1,
            b1: Tensor::zeros(shape(dims, "u")),
            w2,
            b2: Tensor::zeros(shape(dims, "i")),
            ln2_gamma: ones("i"),
            ln2_beta: Tensor::zeros(shape(dims, "i")),
        }
    }

    /// The weight tensor bound to graph container `name` — the one table
    /// every executor's binder resolves weights through. The graphs of
    /// [`xform_dataflow::build`] name their weight containers after these
    /// fields.
    pub fn container(&self, name: &str) -> Option<&Tensor> {
        self.fields()
            .into_iter()
            .find(|(field, _)| *field == name)
            .map(|(_, t)| t)
    }

    /// Projection `n` of the stack (0: Q, 1: K, 2: V) copied out as its own
    /// `[p, h, i]` tensor under `spec` — what the eager passes contract.
    ///
    /// # Errors
    ///
    /// Returns an error if `n > 2`, `spec` is not three distinct axes, or
    /// the stack is stored permuted (a forward would not bind it either).
    pub(crate) fn projection(&self, n: usize, spec: &str) -> Result<Tensor> {
        let [s, h, i] = self.w_qkv.shape().sizes()[..] else {
            let context = "`w_qkv` is `[s, h, i]`";
            return Err(TensorError::ShapeMismatch { context });
        };
        let shape = Shape::new(spec.chars().zip([s / 3, h, i]))?;
        let len = shape.num_elements();
        let words = self
            .w_qkv
            .natural_words()
            .and_then(|w| w.get(n * len..(n + 1) * len));
        let words = words.ok_or_else(|| {
            TensorError::Unsupported(format!("no projection {n} in a row-major `w_qkv`"))
        })?;
        Tensor::from_vec(shape, words.to_vec())
    }

    /// Zero-filled gradients with matching shapes.
    pub fn zeros_like(&self) -> EncoderGrads {
        let z = |t: &Tensor| Tensor::zeros(t.shape().clone());
        EncoderWeights {
            w_qkv: z(&self.w_qkv),
            wo: z(&self.wo),
            bq: z(&self.bq),
            bk: z(&self.bk),
            bv: z(&self.bv),
            bo: z(&self.bo),
            ln1_gamma: z(&self.ln1_gamma),
            ln1_beta: z(&self.ln1_beta),
            w1: z(&self.w1),
            b1: z(&self.b1),
            w2: z(&self.w2),
            b2: z(&self.b2),
            ln2_gamma: z(&self.ln2_gamma),
            ln2_beta: z(&self.ln2_beta),
        }
    }

    /// Every field as a `(name, tensor)` pair, for generic parameter
    /// traversal (updates, norms, serialization, container binding).
    pub fn fields(&self) -> [(&'static str, &Tensor); 14] {
        [
            ("w_qkv", &self.w_qkv),
            ("wo", &self.wo),
            ("bq", &self.bq),
            ("bk", &self.bk),
            ("bv", &self.bv),
            ("bo", &self.bo),
            ("ln1_gamma", &self.ln1_gamma),
            ("ln1_beta", &self.ln1_beta),
            ("w1", &self.w1),
            ("b1", &self.b1),
            ("w2", &self.w2),
            ("b2", &self.b2),
            ("ln2_gamma", &self.ln2_gamma),
            ("ln2_beta", &self.ln2_beta),
        ]
    }

    /// Mutable field iterator, aligned with [`EncoderWeights::fields`].
    pub fn fields_mut(&mut self) -> Vec<(&'static str, &mut Tensor)> {
        vec![
            ("w_qkv", &mut self.w_qkv),
            ("wo", &mut self.wo),
            ("bq", &mut self.bq),
            ("bk", &mut self.bk),
            ("bv", &mut self.bv),
            ("bo", &mut self.bo),
            ("ln1_gamma", &mut self.ln1_gamma),
            ("ln1_beta", &mut self.ln1_beta),
            ("w1", &mut self.w1),
            ("b1", &mut self.b1),
            ("w2", &mut self.w2),
            ("b2", &mut self.b2),
            ("ln2_gamma", &mut self.ln2_gamma),
            ("ln2_beta", &mut self.ln2_beta),
        ]
    }

    /// In-place SGD step: `w ← w − lr · g`.
    ///
    /// # Panics
    ///
    /// Panics if gradient shapes disagree with the weights.
    pub fn sgd_step(&mut self, grads: &EncoderGrads, lr: f32) {
        let gs = grads.fields();
        for ((_, w), (_, g)) in self.fields_mut().into_iter().zip(gs) {
            assert_eq!(w.shape(), g.shape(), "gradient shape mismatch");
            for (wv, gv) in w.data_mut().iter_mut().zip(g.data()) {
                *wv -= lr * gv;
            }
        }
    }

    /// Total number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.fields().iter().map(|(_, t)| t.len()).sum()
    }

    /// Global L2 norm over all parameters (for training diagnostics).
    pub fn global_norm(&self) -> f32 {
        self.fields()
            .iter()
            .flat_map(|(_, t)| t.data())
            .map(|v| v * v)
            .sum::<f32>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn init_shapes_are_consistent() {
        let dims = EncoderDims::tiny();
        let mut rng = StdRng::seed_from_u64(1);
        let w = EncoderWeights::init(&dims, &mut rng);
        assert_eq!(w.w_qkv.shape().spec(), "shi");
        assert_eq!(w.w_qkv.shape().sizes(), &[3 * dims.p, dims.h, dims.i]);
        assert_eq!(w.w1.shape().spec(), "ui");
        assert_eq!(w.w2.shape().spec(), "iu");
        assert_eq!(w.fields().len(), 14);
        // BERT-large parameter count per layer ≈ 12.6M
        let big = EncoderWeights::init(&EncoderDims::bert_large(), &mut rng);
        let n = big.num_parameters();
        assert!(n > 12_000_000 && n < 13_000_000, "params {n}");
    }

    #[test]
    fn container_table_borrows_every_field_the_stack_included() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = EncoderWeights::init(&EncoderDims::tiny(), &mut rng);
        for (name, t) in w.fields() {
            assert!(std::ptr::eq(w.container(name).unwrap(), t), "{name}");
        }
        let stack = w.container("w_qkv").unwrap();
        assert!(std::ptr::eq(stack.data(), w.w_qkv.data()));
        for name in ["wq", "wk", "wv", "x"] {
            assert!(w.container(name).is_none(), "{name}");
        }
    }

    /// The stack is Q, then K, then V, each `[p, h, i]` row-major.
    #[test]
    fn projections_are_the_stacks_three_blocks() {
        let dims = EncoderDims::tiny();
        let w = EncoderWeights::init(&dims, &mut StdRng::seed_from_u64(6));
        let n = dims.p * dims.h * dims.i;
        for (k, spec) in ["phi", "phi", "whi"].into_iter().enumerate() {
            let q = w.projection(k, spec).unwrap();
            assert_eq!(q.shape().spec(), spec);
            assert_eq!(q.data(), &w.w_qkv.data()[k * n..(k + 1) * n]);
        }
        assert!(w.projection(3, "phi").is_err());
    }

    #[test]
    fn layernorm_weights_start_at_identity() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = EncoderWeights::init(&EncoderDims::tiny(), &mut rng);
        assert!(w.ln1_gamma.data().iter().all(|&v| v == 1.0));
        assert!(w.ln1_beta.data().iter().all(|&v| v == 0.0));
        assert!(w.bq.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn sgd_step_moves_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut w = EncoderWeights::init(&EncoderDims::tiny(), &mut rng);
        let mut g = w.zeros_like();
        g.w1.fill(1.0);
        let before = w.w1.at(&[0, 0]);
        w.sgd_step(&g, 0.1);
        assert!((w.w1.at(&[0, 0]) - (before - 0.1)).abs() < 1e-6);
        // untouched params stay
        assert!(w.ln1_gamma.data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn norms_and_zeros() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = EncoderWeights::init(&EncoderDims::tiny(), &mut rng);
        assert!(w.global_norm() > 0.0);
        let z = w.zeros_like();
        for (_, t) in z.fields() {
            assert!(t.data().iter().all(|&v| v == 0.0));
        }
    }
}
