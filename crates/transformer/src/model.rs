//! A complete miniature language model: token + positional embeddings, a
//! stack of transformer blocks, and a tied-free linear head with
//! cross-entropy loss — the "full training pipeline by stacking our
//! optimized layers" the paper points to in Sec. VI-C.
//!
//! The stack can be built from post-LN encoder layers (BERT-style) or
//! pre-LN causal decoder blocks (GPT-style). Training on the toy
//! copy-previous-token task exercises every operator of the training
//! graph, end to end, on the CPU substrate.

use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xform_dataflow::EncoderDims;
use xform_tensor::{Result, Shape, Tensor, TensorError};

use crate::decoder::DecoderLayer;
use crate::encoder::{EncoderLayer, Executor};
use crate::interp::{check_extents, Saved};
use crate::params::{sgd_update, EncoderGrads, EncoderWeights};

/// Which block the stack repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Post-LN bidirectional encoder layers (BERT).
    Encoder,
    /// Pre-LN causally masked decoder blocks (GPT-2).
    Decoder,
}

/// Model hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Per-block dimensions (`j` is the sequence length).
    pub dims: EncoderDims,
    /// Number of stacked blocks.
    pub layers: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Block kind.
    pub block: BlockKind,
    /// Dropout probability during training.
    pub dropout_p: f32,
}

/// Forward-pass bookkeeping for the whole model.
#[derive(Debug, Clone)]
pub struct ModelActs {
    /// Each block's input, then the last block's output: the embedded
    /// tokens first, the hidden state the head reads last.
    pub block_inputs: Vec<Tensor>,
    /// What each block's forward saved for its backward.
    pub blocks: Vec<Saved>,
    /// Softmax of the logits over the vocabulary (saved for backward):
    /// logically `[v,b,j]`, stored in the `(b,j,v)` layout the head plan
    /// writes, each vocabulary row contiguous.
    pub probs: Tensor,
}

/// The model: embeddings, block stack, head.
#[derive(Debug, Clone)]
pub struct TransformerModel {
    /// Hyperparameters.
    pub config: ModelConfig,
    /// Token embedding `[v, i]`.
    pub embedding: Tensor,
    /// Positional embedding `[j, i]` (learned, GPT-style).
    pub positional: Tensor,
    /// Per-block weights.
    pub blocks: Vec<EncoderWeights>,
    /// Output head `[v, i]`.
    pub head: Tensor,
    /// Head bias `[v]`.
    pub head_bias: Tensor,
}

/// Gradients for [`TransformerModel`].
#[derive(Debug, Clone)]
pub struct ModelGrads {
    /// Token-embedding gradient.
    pub embedding: Tensor,
    /// Positional-embedding gradient.
    pub positional: Tensor,
    /// Per-block gradients.
    pub blocks: Vec<EncoderGrads>,
    /// Head gradient.
    pub head: Tensor,
    /// Head-bias gradient.
    pub head_bias: Tensor,
}

impl TransformerModel {
    /// Initializes a model.
    ///
    /// # Errors
    ///
    /// Returns an error for zero-sized configuration values: no layer, no
    /// word, or an empty block extent
    /// ([`TensorError::ShapeMismatch`], ahead of any weight).
    pub fn init<R: Rng + ?Sized>(config: ModelConfig, rng: &mut R) -> Result<Self> {
        if config.layers == 0 || config.vocab == 0 {
            return Err(TensorError::Unsupported(
                "model needs at least one layer and one token".into(),
            ));
        }
        check_extents(&config.dims)?;
        let d = &config.dims;
        let s = 1.0 / (d.i as f32).sqrt();
        let dist = Uniform::new(-s, s);
        let emb = Tensor::random(Shape::new([('v', config.vocab), ('i', d.i)])?, &dist, rng);
        let pos = Tensor::random(Shape::new([('j', d.j), ('i', d.i)])?, &dist, rng);
        let head = Tensor::random(Shape::new([('v', config.vocab), ('i', d.i)])?, &dist, rng);
        let blocks = (0..config.layers)
            .map(|_| EncoderWeights::init(d, rng))
            .collect();
        Ok(TransformerModel {
            config,
            embedding: emb,
            positional: pos,
            blocks,
            head,
            head_bias: Tensor::zeros(Shape::new([('v', config.vocab)])?),
        })
    }

    /// Total scalar parameter count.
    pub fn num_parameters(&self) -> usize {
        self.embedding.len()
            + self.positional.len()
            + self.head.len()
            + self.head_bias.len()
            + self
                .blocks
                .iter()
                .map(|b| b.num_parameters())
                .sum::<usize>()
    }

    /// Checks an id batch — tokens or targets — against the configuration:
    /// exactly `[b][j]`, every id below `vocab`. Everything past this indexes
    /// tensors by these ids unchecked.
    fn check_ids(&self, ids: &[Vec<usize>], context: &'static str) -> Result<()> {
        let d = &self.config.dims;
        if ids.len() != d.b || ids.iter().any(|row| row.len() != d.j) {
            return Err(TensorError::ShapeMismatch { context });
        }
        match ids.iter().flatten().find(|&&t| t >= self.config.vocab) {
            Some(t) => Err(TensorError::Unsupported(format!(
                "token id {t} out of vocabulary"
            ))),
            None => Ok(()),
        }
    }

    /// Embeds a token batch (`tokens[b][j]`) into `x[i,b,j]`.
    ///
    /// # Errors
    ///
    /// Returns an error if a token id is out of range or the batch shape
    /// disagrees with the configuration.
    pub fn embed(&self, tokens: &[Vec<usize>]) -> Result<Tensor> {
        self.check_ids(tokens, "embed batch")?;
        let d = &self.config.dims;
        let mut x = Tensor::zeros(Shape::from_spec("ibj", &d.size_table())?);
        for j in 0..d.j {
            self.embed_column(tokens.iter().map(|row| row[j]), j, (x.data_mut(), j))?;
        }
        Ok(x)
    }

    /// Embeds `tokens` (one per batch row) at position `pos` into column
    /// `col` of `x` (`[i,b,cols]`, row-major): each token's embedding row
    /// plus the position's, read as rows — the crate's one gather.
    ///
    /// # Errors
    ///
    /// Returns an error if a token id is out of range or either table is
    /// stored permuted.
    pub(crate) fn embed_column(
        &self,
        tokens: impl Iterator<Item = usize>,
        pos: usize,
        (x, col): (&mut [f32], usize),
    ) -> Result<()> {
        let d = self.config.dims;
        let cols = x.len() / (d.i * d.b);
        let permuted = || TensorError::Unsupported("embeddings must be stored row-major".into());
        let embedding = self.embedding.natural_words().ok_or_else(permuted)?;
        let positional = self.positional.natural_words().ok_or_else(permuted)?;
        let position = &positional[pos * d.i..][..d.i];
        for (b, t) in tokens.enumerate() {
            if t >= self.config.vocab {
                return Err(TensorError::Unsupported(format!(
                    "token id {t} out of vocabulary"
                )));
            }
            let token = &embedding[t * d.i..][..d.i];
            for (i, (e, p)) in token.iter().zip(position).enumerate() {
                x[(i * d.b + b) * cols + col] = e + p;
            }
        }
        Ok(())
    }

    /// Full forward pass to vocabulary probabilities.
    ///
    /// # Errors
    ///
    /// Returns an error on shape disagreements.
    pub fn forward<R: Rng + ?Sized>(
        &self,
        tokens: &[Vec<usize>],
        rng: &mut R,
    ) -> Result<ModelActs> {
        let (d, p) = (self.config.dims, self.config.dropout_p);
        let mut block_inputs = Vec::with_capacity(self.blocks.len() + 1);
        block_inputs.push(self.embed(tokens)?);
        // one seed a block, drawn up front in block order from the caller's
        // RNG: block `l` keys its dropout stream `s` by `(seeds[l], s)`
        let seeds: Vec<u64> = self.blocks.iter().map(|_| rng.gen()).collect();
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (l, (w, &seed)) in self.blocks.iter().zip(&seeds).enumerate() {
            let opts = xform_core::plan::ExecOptions::builder().seed(seed).build();
            let x = &block_inputs[l];
            let out = match self.config.block {
                BlockKind::Encoder => {
                    EncoderLayer::new(d, Executor::Fused, p).forward(x, w, &opts)?
                }
                BlockKind::Decoder => DecoderLayer::new(d, p).forward(x, w, &opts)?,
            };
            block_inputs.push(out.y);
            blocks.push(out.saved);
        }
        // head: probs = softmax over v of head[v,i]·h[i,b,j] + bias[v], one
        // plan step whose logits never leave its tile
        let h = &block_inputs[self.blocks.len()];
        let probs = crate::interp::head_forward(&d, h, &self.head, &self.head_bias)?;
        Ok(ModelActs {
            block_inputs,
            blocks,
            probs,
        })
    }

    /// Checks saved activations against the configuration: `probs` is
    /// `[v,b,j]`, there is one block's record per layer and one input per
    /// layer plus the final hidden state, `[i,b,j]`. Everything past this
    /// indexes them unchecked (`Tensor::at` only debug-asserts).
    fn check_acts(&self, acts: &ModelActs, context: &'static str) -> Result<()> {
        let (d, layers) = (&self.config.dims, self.config.layers);
        let vbj = Shape::new([('v', self.config.vocab), ('b', d.b), ('j', d.j)])?;
        let ibj = Shape::from_spec("ibj", &d.size_table())?;
        if *acts.probs.shape() != vbj
            || acts.blocks.len() != layers
            || acts.block_inputs.len() != layers + 1
            || *acts.block_inputs[layers].shape() != ibj
        {
            return Err(TensorError::ShapeMismatch { context });
        }
        Ok(())
    }

    /// Mean cross-entropy of the saved probabilities against targets.
    ///
    /// # Errors
    ///
    /// Returns the errors of [`TransformerModel::embed`] for `targets` that
    /// are not `[b][j]` ids below the vocabulary size, and
    /// [`TensorError::ShapeMismatch`] for activations another configuration
    /// saved.
    pub fn cross_entropy(&self, acts: &ModelActs, targets: &[Vec<usize>]) -> Result<f32> {
        self.check_ids(targets, "cross-entropy targets")?;
        self.check_acts(acts, "cross-entropy activations")?;
        let d = &self.config.dims;
        let mut loss = 0.0f32;
        for (b, row) in targets.iter().enumerate() {
            for (j, &t) in row.iter().enumerate() {
                loss -= acts.probs.at(&[t, b, j]).max(1e-12).ln();
            }
        }
        Ok(loss / (d.b * d.j) as f32)
    }

    /// Full backward pass from cross-entropy targets; returns gradients for
    /// every parameter.
    ///
    /// # Errors
    ///
    /// Returns the errors of [`TransformerModel::embed`] for `tokens` or
    /// `targets` that are not `[b][j]` ids below the vocabulary size,
    /// [`TensorError::ShapeMismatch`] for activations another configuration
    /// saved, and the error of a block's `backward` for a record another
    /// block kind saved.
    pub fn backward(
        &self,
        tokens: &[Vec<usize>],
        targets: &[Vec<usize>],
        acts: &ModelActs,
    ) -> Result<ModelGrads> {
        self.check_ids(tokens, "backward tokens")?;
        self.check_ids(targets, "backward targets")?;
        self.check_acts(acts, "backward activations")?;
        let d = &self.config.dims;
        let n = (d.b * d.j) as f32;
        // d logits = (softmax - onehot) / N
        let mut d_logits = acts.probs.clone();
        for (b, row) in targets.iter().enumerate() {
            for (j, &t) in row.iter().enumerate() {
                let cur = d_logits.at(&[t, b, j]);
                d_logits.set(&[t, b, j], cur - 1.0);
            }
        }
        for v in d_logits.data_mut() {
            *v /= n;
        }
        // head grads and hidden gradient
        let hidden = &acts.block_inputs[self.config.layers];
        let head_grad = xform_tensor::einsum("vbj,ibj->vi", &[&d_logits, hidden])?;
        let head_bias_grad =
            xform_tensor::ops::elementwise::bias_grad(&d_logits, &[xform_tensor::Axis('v')])?;
        let mut dh = xform_tensor::einsum("vi,vbj->ibj", &[&self.head, &d_logits])?;
        // backprop through the stack
        let mut block_grads: Vec<EncoderGrads> = Vec::with_capacity(self.blocks.len());
        let p = self.config.dropout_p;
        for (idx, w) in self.blocks.iter().enumerate().rev() {
            let (x, a) = (&acts.block_inputs[idx], &acts.blocks[idx]);
            let (dx, g) = match self.config.block {
                BlockKind::Encoder => {
                    EncoderLayer::new(*d, Executor::Fused, p).backward(&dh, x, w, a)?
                }
                BlockKind::Decoder => DecoderLayer::new(*d, p).backward(&dh, x, w, a)?,
            };
            block_grads.push(g);
            dh = dx;
        }
        block_grads.reverse();
        // embedding gradients: scatter-add of dh, the embedded input's gradient
        let mut emb_grad = Tensor::zeros(self.embedding.shape().clone());
        let mut pos_grad = Tensor::zeros(self.positional.shape().clone());
        for (b, row) in tokens.iter().enumerate() {
            for (j, &t) in row.iter().enumerate() {
                for i in 0..d.i {
                    let g = dh.at(&[i, b, j]);
                    let cur = emb_grad.at(&[t, i]);
                    emb_grad.set(&[t, i], cur + g);
                    let cur = pos_grad.at(&[j, i]);
                    pos_grad.set(&[j, i], cur + g);
                }
            }
        }
        Ok(ModelGrads {
            embedding: emb_grad,
            positional: pos_grad,
            blocks: block_grads,
            head: head_grad,
            head_bias: head_bias_grad,
        })
    }

    /// In-place SGD step over every parameter: `w ← w − lr · g`, element
    /// by element in logical correspondence, whatever layout a gradient is
    /// stored in.
    ///
    /// # Panics
    ///
    /// Panics if `grads` holds another number of blocks than the model, or
    /// a gradient's shape is not its parameter's (gradients of another
    /// configuration: another vocabulary, width or sequence length).
    pub fn sgd_step(&mut self, grads: &ModelGrads, lr: f32) {
        assert_eq!(
            self.blocks.len(),
            grads.blocks.len(),
            "gradient block count mismatch"
        );
        sgd_update(&mut self.embedding, &grads.embedding, lr);
        sgd_update(&mut self.positional, &grads.positional, lr);
        sgd_update(&mut self.head, &grads.head, lr);
        sgd_update(&mut self.head_bias, &grads.head_bias, lr);
        for (w, g) in self.blocks.iter_mut().zip(&grads.blocks) {
            w.sgd_step(g, lr);
        }
    }
}

/// The toy task: predict the *previous* token at every position (position
/// 0 predicts a fixed begin token 0). A causal model can only solve it by
/// attending one step back — it exercises attention, not just the FFN.
pub fn copy_task_batch<R: Rng + ?Sized>(
    config: &ModelConfig,
    rng: &mut R,
) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let d = &config.dims;
    let mut tokens = Vec::with_capacity(d.b);
    let mut targets = Vec::with_capacity(d.b);
    for _ in 0..d.b {
        let row: Vec<usize> = (0..d.j).map(|_| rng.gen_range(1..config.vocab)).collect();
        let mut tgt = vec![0usize];
        tgt.extend_from_slice(&row[..d.j - 1]);
        tokens.push(row);
        targets.push(tgt);
    }
    (tokens, targets)
}

/// Trains a model on the copy task, returning per-step losses.
///
/// # Errors
///
/// Returns an error on shape disagreements.
pub fn train_lm(
    config: ModelConfig,
    steps: usize,
    lr: f32,
    seed: u64,
) -> Result<(TransformerModel, Vec<f32>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = TransformerModel::init(config, &mut rng)?;
    let mut losses = Vec::with_capacity(steps);
    for step in 0..steps {
        let mut data_rng = StdRng::seed_from_u64(seed ^ (1000 + step as u64 % 8));
        let (tokens, targets) = copy_task_batch(&config, &mut data_rng);
        let acts = model.forward(&tokens, &mut rng)?;
        losses.push(model.cross_entropy(&acts, &targets)?);
        let grads = model.backward(&tokens, &targets, &acts)?;
        model.sgd_step(&grads, lr);
    }
    Ok((model, losses))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(block: BlockKind) -> ModelConfig {
        ModelConfig {
            dims: EncoderDims {
                b: 2,
                j: 6,
                k: 6,
                h: 2,
                p: 4,
                i: 8,
                u: 16,
            },
            layers: 2,
            vocab: 5,
            block,
            dropout_p: 0.0,
        }
    }

    #[test]
    fn forward_produces_distributions() {
        let cfg = config(BlockKind::Decoder);
        let mut rng = StdRng::seed_from_u64(1);
        let model = TransformerModel::init(cfg, &mut rng).unwrap();
        let (tokens, _) = copy_task_batch(&cfg, &mut rng);
        let acts = model.forward(&tokens, &mut rng).unwrap();
        for b in 0..cfg.dims.b {
            for j in 0..cfg.dims.j {
                let s: f32 = (0..cfg.vocab).map(|v| acts.probs.at(&[v, b, j])).sum();
                assert!((s - 1.0).abs() < 1e-4);
            }
        }
        assert_eq!(acts.blocks.len(), 2);
    }

    #[test]
    fn loss_decreases_on_copy_task_decoder() {
        let cfg = config(BlockKind::Decoder);
        let (_, losses) = train_lm(cfg, 60, 0.5, 3).unwrap();
        let first = losses[..5].iter().sum::<f32>() / 5.0;
        let last = losses[losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(
            last < first * 0.8,
            "LM did not learn: {first:.3} -> {last:.3}"
        );
    }

    #[test]
    fn loss_decreases_with_encoder_blocks_too() {
        let cfg = config(BlockKind::Encoder);
        let (_, losses) = train_lm(cfg, 40, 0.5, 4).unwrap();
        let first = losses[..5].iter().sum::<f32>() / 5.0;
        let last = losses[losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(
            last < first,
            "encoder stack did not learn: {first:.3} -> {last:.3}"
        );
    }

    #[test]
    fn embedding_gradients_match_numerical() {
        let cfg = config(BlockKind::Decoder);
        let mut rng = StdRng::seed_from_u64(5);
        let model = TransformerModel::init(cfg, &mut rng).unwrap();
        let mut data_rng = StdRng::seed_from_u64(6);
        let (tokens, targets) = copy_task_batch(&cfg, &mut data_rng);
        let acts = model
            .forward(&tokens, &mut StdRng::seed_from_u64(7))
            .unwrap();
        let grads = model.backward(&tokens, &targets, &acts).unwrap();
        let loss_of = |m: &TransformerModel| -> f32 {
            let a = m.forward(&tokens, &mut StdRng::seed_from_u64(7)).unwrap();
            m.cross_entropy(&a, &targets).unwrap()
        };
        let eps = 1e-2f32;
        // used token embedding entries
        let t0 = tokens[0][0];
        for i in [0usize, 3] {
            let mut mp = model.clone();
            let v = mp.embedding.at(&[t0, i]);
            mp.embedding.set(&[t0, i], v + eps);
            let mut mm = model.clone();
            mm.embedding.set(&[t0, i], v - eps);
            let num = (loss_of(&mp) - loss_of(&mm)) / (2.0 * eps);
            let ana = grads.embedding.at(&[t0, i]);
            assert!(
                (num - ana).abs() < 0.03 * (1.0 + num.abs()),
                "emb[{t0},{i}]: numeric {num} vs analytic {ana}"
            );
        }
        // head entries
        for (v, i) in [(0usize, 1usize), (2, 5)] {
            let mut mp = model.clone();
            let w = mp.head.at(&[v, i]);
            mp.head.set(&[v, i], w + eps);
            let mut mm = model.clone();
            mm.head.set(&[v, i], w - eps);
            let num = (loss_of(&mp) - loss_of(&mm)) / (2.0 * eps);
            let ana = grads.head.at(&[v, i]);
            assert!(
                (num - ana).abs() < 0.03 * (1.0 + num.abs()),
                "head[{v},{i}]: numeric {num} vs analytic {ana}"
            );
        }
        // positional embedding
        let mut mp = model.clone();
        let v = mp.positional.at(&[1, 2]);
        mp.positional.set(&[1, 2], v + eps);
        let mut mm = model.clone();
        mm.positional.set(&[1, 2], v - eps);
        let num = (loss_of(&mp) - loss_of(&mm)) / (2.0 * eps);
        let ana = grads.positional.at(&[1, 2]);
        assert!((num - ana).abs() < 0.03 * (1.0 + num.abs()));
    }

    #[test]
    fn rejects_bad_inputs() {
        let cfg = config(BlockKind::Decoder);
        let mut rng = StdRng::seed_from_u64(8);
        let model = TransformerModel::init(cfg, &mut rng).unwrap();
        // wrong batch size
        assert!(model.embed(&[vec![0; 6]]).is_err());
        // out-of-vocabulary token
        let mut tokens = vec![vec![0usize; 6]; 2];
        tokens[0][0] = 99;
        assert!(model.embed(&tokens).is_err());
        // zero layers
        let bad = ModelConfig { layers: 0, ..cfg };
        assert!(TransformerModel::init(bad, &mut rng).is_err());
    }

    #[test]
    fn init_refuses_an_empty_block_extent() {
        // each of these panicked inside `EncoderWeights::init`
        let cfg = config(BlockKind::Decoder);
        let d = cfg.dims;
        for dims in [
            EncoderDims { u: 0, ..d },
            EncoderDims { h: 0, ..d },
            EncoderDims { p: 0, ..d },
        ] {
            let r =
                TransformerModel::init(ModelConfig { dims, ..cfg }, &mut StdRng::seed_from_u64(8));
            assert!(
                matches!(r, Err(TensorError::ShapeMismatch { .. })),
                "{dims:?}: {r:?}"
            );
        }
    }

    #[test]
    fn a_record_of_the_other_block_kind_is_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(12);
        let decoder = TransformerModel::init(config(BlockKind::Decoder), &mut rng).unwrap();
        let encoder = TransformerModel::init(config(BlockKind::Encoder), &mut rng).unwrap();
        let (tokens, targets) = copy_task_batch(&decoder.config, &mut rng);
        // the first name each block's backward plan binds that the other lacks
        for (from, to, missing) in [
            (&decoder, &encoder, "ln2_in"),
            (&encoder, &decoder, "ln2_out"),
        ] {
            let acts = from.forward(&tokens, &mut rng).unwrap();
            let err = to.backward(&tokens, &targets, &acts).unwrap_err();
            assert!(
                matches!(&err, TensorError::UnboundExternal { container, .. } if container == missing),
                "{err:?}"
            );
        }
    }

    #[test]
    fn loss_and_backward_reject_ids_they_would_index_out_of_bounds() {
        // `Tensor::offset` only debug-asserts: in release an extra target
        // row once read another token's probability and returned a wrong
        // loss (and gradients) instead of an error
        let cfg = config(BlockKind::Decoder);
        let mut rng = StdRng::seed_from_u64(10);
        let model = TransformerModel::init(cfg, &mut rng).unwrap();
        let (tokens, targets) = copy_task_batch(&cfg, &mut rng);
        let acts = model.forward(&tokens, &mut rng).unwrap();
        assert!(model.cross_entropy(&acts, &targets).is_ok());
        assert!(model.backward(&tokens, &targets, &acts).is_ok());

        let mut extra_row = targets.clone();
        extra_row.push(vec![0; cfg.dims.j]);
        let mut short_row = targets.clone();
        short_row[1].pop();
        let mut out_of_vocab = targets.clone();
        out_of_vocab[1][2] = cfg.vocab;
        let shape = |context| TensorError::ShapeMismatch { context };
        let vocab = TensorError::Unsupported(format!("token id {} out of vocabulary", cfg.vocab));
        for (bad, why) in [
            (&extra_row, None),
            (&short_row, None),
            (&out_of_vocab, Some(&vocab)),
        ] {
            let expect = |context| why.cloned().unwrap_or_else(|| shape(context));
            assert_eq!(
                model.cross_entropy(&acts, bad).unwrap_err(),
                expect("cross-entropy targets")
            );
            assert_eq!(
                model.backward(&tokens, bad, &acts).unwrap_err(),
                expect("backward targets")
            );
            // `backward` scatters the embedding gradients by `tokens`
            assert_eq!(
                model.backward(bad, &targets, &acts).unwrap_err(),
                expect("backward tokens")
            );
        }
    }

    /// The gradients of one training step of `model`.
    fn grads_of(model: &TransformerModel, seed: u64) -> ModelGrads {
        let mut rng = StdRng::seed_from_u64(seed);
        let (tokens, targets) = copy_task_batch(&model.config, &mut rng);
        let acts = model.forward(&tokens, &mut rng).unwrap();
        model.backward(&tokens, &targets, &acts).unwrap()
    }

    #[test]
    fn a_permuted_gradient_updates_the_model_as_its_row_major_copy() {
        use crate::params::reversed;
        let model =
            TransformerModel::init(config(BlockKind::Decoder), &mut StdRng::seed_from_u64(13))
                .unwrap();
        let g = grads_of(&model, 14);
        let mut permuted = g.clone();
        permuted.embedding = reversed(&g.embedding);
        permuted.positional = reversed(&g.positional);
        permuted.head = reversed(&g.head);
        permuted.blocks[1].bq = reversed(&g.blocks[1].bq);
        permuted.blocks[1].w1 = reversed(&g.blocks[1].w1);
        let (mut a, mut b) = (model.clone(), model);
        a.sgd_step(&g, 0.1);
        b.sgd_step(&permuted, 0.1);
        for (x, y) in [
            (&a.embedding, &b.embedding),
            (&a.positional, &b.positional),
            (&a.head, &b.head),
            (&a.head_bias, &b.head_bias),
        ] {
            assert_eq!(x.data(), y.data());
        }
        for (wa, wb) in a.blocks.iter().zip(&b.blocks) {
            for ((name, x), (_, y)) in wa.fields().iter().zip(wb.fields().iter()) {
                assert_eq!(x.data(), y.data(), "{name}");
            }
        }
    }

    /// Gradients of another vocabulary once updated a prefix of the
    /// embedding and the head.
    #[test]
    #[should_panic(expected = "gradient shape mismatch")]
    fn gradients_of_another_vocabulary_are_refused() {
        let cfg = config(BlockKind::Decoder);
        let mut rng = StdRng::seed_from_u64(15);
        let mut model = TransformerModel::init(cfg, &mut rng).unwrap();
        let other = ModelConfig {
            vocab: cfg.vocab + 1,
            ..cfg
        };
        let g = grads_of(&TransformerModel::init(other, &mut rng).unwrap(), 16);
        model.sgd_step(&g, 0.1);
    }

    /// Gradients with a block fewer once left the last block unstepped.
    #[test]
    #[should_panic(expected = "gradient block count mismatch")]
    fn gradients_with_a_block_fewer_are_refused() {
        let mut model =
            TransformerModel::init(config(BlockKind::Encoder), &mut StdRng::seed_from_u64(17))
                .unwrap();
        let mut g = grads_of(&model, 18);
        g.blocks.pop();
        model.sgd_step(&g, 0.1);
    }

    #[test]
    fn loss_and_backward_reject_activations_of_another_configuration() {
        // in release builds `Tensor::at` indexes unchecked: activations of a
        // longer sequence read another position's probability (a wrong loss
        // and wrong gradients), of a smaller vocabulary past the words
        let cfg = config(BlockKind::Decoder);
        let mut rng = StdRng::seed_from_u64(11);
        let model = TransformerModel::init(cfg, &mut rng).unwrap();
        let (tokens, targets) = copy_task_batch(&cfg, &mut rng);
        let longer = ModelConfig {
            dims: EncoderDims {
                j: 8,
                k: 8,
                ..cfg.dims
            },
            ..cfg
        };
        let smaller = ModelConfig { vocab: 3, ..cfg };
        let mut short = model.forward(&tokens, &mut rng).unwrap();
        short.blocks.pop();
        for acts in [run_of(longer, &mut rng), run_of(smaller, &mut rng), short] {
            assert_eq!(
                model.cross_entropy(&acts, &targets).unwrap_err(),
                TensorError::ShapeMismatch {
                    context: "cross-entropy activations"
                }
            );
            assert_eq!(
                model.backward(&tokens, &targets, &acts).unwrap_err(),
                TensorError::ShapeMismatch {
                    context: "backward activations"
                }
            );
        }
    }

    /// A forward of a fresh model of `cfg` over its own copy-task batch.
    fn run_of(cfg: ModelConfig, rng: &mut StdRng) -> ModelActs {
        let model = TransformerModel::init(cfg, rng).unwrap();
        let (tokens, _) = copy_task_batch(&cfg, rng);
        model.forward(&tokens, rng).unwrap()
    }

    #[test]
    fn parameter_count_is_consistent() {
        let cfg = config(BlockKind::Decoder);
        let mut rng = StdRng::seed_from_u64(9);
        let model = TransformerModel::init(cfg, &mut rng).unwrap();
        let expected = cfg.vocab * cfg.dims.i * 2        // embedding + head
            + cfg.dims.j * cfg.dims.i                    // positional
            + cfg.vocab                                  // head bias
            + model.blocks.iter().map(|b| b.num_parameters()).sum::<usize>();
        assert_eq!(model.num_parameters(), expected);
    }
}
