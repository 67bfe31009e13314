//! Encoder-layer parameters and gradients.

use rand::distributions::Uniform;
use rand::Rng;

use xform_dataflow::EncoderDims;
use xform_tensor::{into_ops, Shape, Tensor};

/// All learned parameters of one BERT encoder layer, in the paper's axis
/// convention (`phi`/`whi` projections, `ph`/`wh`/`i` biases, `ui`/`iu`
/// feed-forward weights, `i`-sized layer-norm scale/shift).
#[derive(Debug, Clone)]
pub struct EncoderWeights {
    /// Query projection `[p, h, i]`.
    pub wq: Tensor,
    /// Key projection `[p, h, i]`.
    pub wk: Tensor,
    /// Value projection `[w, h, i]`.
    pub wv: Tensor,
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
        let mut rand = |spec: &str| Tensor::random(shape(dims, spec), &dist, rng);
        let wq = rand("phi");
        let wk = rand("phi");
        let wv = rand("whi");
        let wo = rand("whi");
        let w1 = rand("ui");
        let w2 = rand("iu");
        let ones = |spec: &str| {
            let mut t = Tensor::zeros(shape(dims, spec));
            t.fill(1.0);
            t
        };
        EncoderWeights {
            wq,
            wk,
            wv,
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
    /// fields, with one exception: they read the Q/K/V projection weights
    /// stacked as `w_qkv` ([`EncoderWeights::stack_qkv_into`]), so `wq`,
    /// `wk` and `wv` name no container.
    pub fn container(&self, name: &str) -> Option<&Tensor> {
        self.fields()
            .into_iter()
            .find(|(field, _)| *field == name && !matches!(name, "wq" | "wk" | "wv"))
            .map(|(_, t)| t)
    }

    /// Words of the stacked `w_qkv` container.
    pub fn qkv_words(&self) -> usize {
        self.wq.len() + self.wk.len() + self.wv.len()
    }

    /// Stacks the Q, K and V projection weights, in that order and each
    /// dense row-major, into the graphs' `w_qkv` container (`[s, h, i]`)
    /// without materializing the concatenation. Returns `false`, writing
    /// nothing, unless `dst` holds exactly [`EncoderWeights::qkv_words`].
    pub fn stack_qkv_into(&self, dst: &mut [f32]) -> bool {
        if dst.len() != self.qkv_words() {
            return false;
        }
        let (q, rest) = dst.split_at_mut(self.wq.len());
        let (k, v) = rest.split_at_mut(self.wk.len());
        into_ops::copy_tensor_into(&self.wq, q);
        into_ops::copy_tensor_into(&self.wk, k);
        into_ops::copy_tensor_into(&self.wv, v);
        true
    }

    /// Zero-filled gradients with matching shapes.
    pub fn zeros_like(&self) -> EncoderGrads {
        let z = |t: &Tensor| Tensor::zeros(t.shape().clone());
        EncoderWeights {
            wq: z(&self.wq),
            wk: z(&self.wk),
            wv: z(&self.wv),
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
    pub fn fields(&self) -> [(&'static str, &Tensor); 16] {
        [
            ("wq", &self.wq),
            ("wk", &self.wk),
            ("wv", &self.wv),
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
            ("wq", &mut self.wq),
            ("wk", &mut self.wk),
            ("wv", &mut self.wv),
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
        assert_eq!(w.wq.shape().spec(), "phi");
        assert_eq!(w.w1.shape().spec(), "ui");
        assert_eq!(w.w2.shape().spec(), "iu");
        assert_eq!(w.fields().len(), 16);
        // BERT-large parameter count per layer ≈ 12.6M
        let big = EncoderWeights::init(&EncoderDims::bert_large(), &mut rng);
        let n = big.num_parameters();
        assert!(n > 12_000_000 && n < 13_000_000, "params {n}");
    }

    #[test]
    fn container_table_resolves_every_listed_name_and_stacks_qkv() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = EncoderWeights::init(&EncoderDims::tiny(), &mut rng);
        for (name, t) in w.fields() {
            let stacked = matches!(name, "wq" | "wk" | "wv");
            assert_eq!(
                w.container(name).map(Tensor::data),
                (!stacked).then_some(t.data())
            );
        }
        assert!(w.container("w_qkv").is_none() && w.container("x").is_none());
        let mut stacked = vec![0.0; w.qkv_words()];
        assert!(w.stack_qkv_into(&mut stacked));
        let (nq, nk) = (w.wq.len(), w.wk.len());
        assert_eq!(&stacked[..nq], w.wq.data());
        assert_eq!(&stacked[nq..nq + nk], w.wk.data());
        assert_eq!(&stacked[nq + nk..], w.wv.data());
        assert!(!w.stack_qkv_into(&mut stacked[1..]));
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
