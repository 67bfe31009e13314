//! `bert_fwd` and `longseq_fwd`: one op is `TransformerModel::forward`,
//! tokens to vocabulary probabilities. Same code, opposite regimes: at the
//! BERT shape the wide GEMMs carry the layer, at the long-sequence shape
//! the `j×j` attention tensors do.

use rand::rngs::StdRng;
use rand::Rng;
use substation::core::plan::ExecOptions;
use substation::tensor::ops::elementwise::bias_add;
use substation::tensor::ops::softmax::softmax;
use substation::tensor::{einsum, Axis, Tensor};
use substation::transformer::decoder::DecoderLayer;
use substation::transformer::encoder::{EncoderLayer, Executor};
use substation::transformer::model::{BlockKind, ModelActs, ModelConfig, TransformerModel};
use substation::transformer::params::EncoderWeights;

use super::{err, span_p50, OpResult, Workload, BERT_DIMS, LONGSEQ_DIMS};
use crate::inputs::{self, Fingerprint, Stream};
use crate::metrics::Metric;
use crate::stats::median;
use crate::trace::Tracer;

const BERT_CONFIG: ModelConfig = ModelConfig {
    dims: BERT_DIMS,
    layers: 2,
    vocab: 2048,
    block: BlockKind::Encoder,
    dropout_p: 0.0,
};

/// Token batches a forward workload cycles through.
const BATCHES: usize = 4;
const WARM_UP_OPS: usize = 1;

pub struct Forward {
    model: TransformerModel,
    batches: Vec<Vec<Vec<usize>>>,
    /// The dropout stream `forward` draws per-block seeds from.
    rng: StdRng,
    last: Option<ModelActs>,
    fingerprint: u64,
}

impl Forward {
    pub fn bert(seed: u64) -> OpResult<Self> {
        Self::set_up(BERT_CONFIG, seed)
    }

    /// `bert_fwd` with its inputs but without the cold and warm-up ops.
    pub fn bert_unwarmed(seed: u64) -> OpResult<Self> {
        let d = BERT_CONFIG.dims;
        let batch = inputs::token_batch(
            &mut inputs::rng(seed, Stream::Tokens),
            d.b,
            d.j,
            BERT_CONFIG.vocab,
        );
        Self::with_batches(BERT_CONFIG, vec![batch], seed)
    }

    pub fn longseq(seed: u64) -> OpResult<Self> {
        let config = ModelConfig {
            dims: LONGSEQ_DIMS,
            layers: 2,
            vocab: 2048,
            block: BlockKind::Decoder,
            dropout_p: 0.0,
        };
        Self::set_up(config, seed)
    }

    fn set_up(config: ModelConfig, seed: u64) -> OpResult<Self> {
        let mut tokens = inputs::rng(seed, Stream::Tokens);
        let d = config.dims;
        let batches = (0..BATCHES)
            .map(|_| inputs::token_batch(&mut tokens, d.b, d.j, config.vocab))
            .collect();
        let mut w = Self::with_batches(config, batches, seed)?;
        for i in 0..=WARM_UP_OPS {
            w.op(i)?;
        }
        Ok(w)
    }

    /// Initialises the model from the seed and adopts `batches` as given:
    /// no op is run, so a batch the library rejects fails in the timed loop.
    pub fn with_batches(
        config: ModelConfig,
        batches: Vec<Vec<Vec<usize>>>,
        seed: u64,
    ) -> OpResult<Self> {
        let model =
            TransformerModel::init(config, &mut inputs::rng(seed, Stream::Weights)).map_err(err)?;
        let mut fp = Fingerprint::default();
        for batch in &batches {
            fp.tokens(batch);
        }
        fp.floats(model.embedding.data());
        fp.floats(model.head.data());
        for block in &model.blocks {
            fp.floats(block.w1.data());
        }
        Ok(Forward {
            model,
            batches,
            rng: inputs::rng(seed, Stream::Dropout),
            last: None,
            fingerprint: fp.finish(),
        })
    }

    fn config(&self) -> ModelConfig {
        self.model.config
    }

    /// One block's forward the way `TransformerModel::forward` calls it.
    fn block_forward(
        &self,
        x: &Tensor,
        w: &EncoderWeights,
        opts: &ExecOptions,
    ) -> OpResult<Tensor> {
        let c = self.config();
        let y = match c.block {
            BlockKind::Encoder => EncoderLayer::new(c.dims, Executor::Fused, c.dropout_p)
                .forward(x, w, opts)
                .and_then(|out| out.into_pair())
                .map(|(y, _)| y),
            BlockKind::Decoder => DecoderLayer::new(c.dims, c.dropout_p)
                .forward(x, w, opts)
                .and_then(|out| out.into_pair())
                .map(|(y, _)| y),
        };
        y.map_err(err)
    }

    /// Two independent kernel sets must agree on one block: fused against
    /// the unfused reference for encoder blocks; decoder blocks have no
    /// reference executor, so fused against the GEMM-epilogue plan.
    fn cross_check_block(&self) -> OpResult<f32> {
        let c = self.config();
        let x = self.model.embed(&self.batches[0]).map_err(err)?;
        let w = &self.model.blocks[0];
        let opts = ExecOptions::builder().threads(1).seed(1).build();
        let (a, b) = match c.block {
            BlockKind::Encoder => {
                let run = |executor| {
                    EncoderLayer::new(c.dims, executor, 0.0)
                        .forward(&x, w, &opts)
                        .map(|out| out.y)
                };
                (run(Executor::Fused), run(Executor::Reference))
            }
            BlockKind::Decoder => {
                let fused = DecoderLayer::new(c.dims, 0.0);
                let epilogue = fused.clone().with_epilogue();
                (
                    fused.forward(&x, w, &opts).map(|out| out.y),
                    epilogue.forward(&x, w, &opts).map(|out| out.y),
                )
            }
        };
        // logical comparison: the two outputs may sit in different layouts
        a.map_err(err)?.max_abs_diff(&b.map_err(err)?).map_err(err)
    }
}

/// Every `[b, j]` row of `probs[v,b,j]` is finite and sums to 1.
fn rows_are_distributions(probs: &Tensor, config: &ModelConfig) -> Option<String> {
    let d = config.dims;
    for b in 0..d.b {
        for j in 0..d.j {
            let sum: f32 = (0..config.vocab).map(|v| probs.at(&[v, b, j])).sum();
            if !sum.is_finite() || (sum - 1.0).abs() > 1e-3 {
                return Some(format!("probability row b={b} j={j} sums to {sum}"));
            }
        }
    }
    None
}

impl Workload for Forward {
    fn cycle_len(&self) -> usize {
        1
    }

    fn units(&self, _i: usize) -> f64 {
        let d = self.config().dims;
        (d.b * d.j) as f64
    }

    fn op(&mut self, i: usize) -> OpResult<()> {
        let tokens = &self.batches[i % self.batches.len()];
        let acts = self.model.forward(tokens, &mut self.rng).map_err(err)?;
        self.last = Some(acts);
        Ok(())
    }

    fn traced_op(&mut self, i: usize, tr: &mut Tracer) -> OpResult<()> {
        tr.next_op();
        let root = tr.begin("bench.op", "bench");
        let tokens = &self.batches[i % self.batches.len()];
        let mut h = tr
            .time("transformer.model.embed", "transformer", || {
                self.model.embed(tokens)
            })
            .map_err(err)?;
        let blocks = tr.begin("transformer.model.blocks", "transformer");
        for w in &self.model.blocks {
            let opts = ExecOptions::builder().seed(self.rng.gen::<u64>()).build();
            h = tr.time("transformer.layer.forward", "transformer", || {
                self.block_forward(&h, w, &opts)
            })?;
        }
        tr.end(blocks);
        let head = tr.begin("transformer.model.head", "transformer");
        let lin = tr
            .time("tensor.einsum_head", "tensor", || {
                einsum("vi,ibj->vbj", &[&self.model.head, &h])
            })
            .map_err(err)?;
        let logits = tr
            .time("tensor.bias_add", "tensor", || {
                bias_add(&lin, &self.model.head_bias)
            })
            .map_err(err)?;
        let probs = tr
            .time("tensor.softmax_vocab", "tensor", || {
                softmax(&logits, Axis('v'))
            })
            .map_err(err)?;
        tr.end(head);
        tr.end(root);
        std::hint::black_box(probs);
        Ok(())
    }

    fn check(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        match &self.last {
            Some(acts) => failures.extend(rows_are_distributions(&acts.probs, &self.config())),
            None => failures.push("no forward completed, nothing to check".into()),
        }
        match self.cross_check_block() {
            Ok(diff) if diff < 1e-3 => {}
            Ok(diff) => failures.push(format!("two kernel sets differ on one block by {diff}")),
            Err(e) => failures.push(format!("block cross-check failed to run: {e}")),
        }
        failures
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn layer_metrics(&mut self, tr: &Tracer, opaque_ms: &[f64], out: &mut Vec<Metric>) {
        // `transformer.model.*` is read at the `bert_fwd` shape only
        if self.config().dims != BERT_DIMS {
            return;
        }
        // one block as the model calls it: allocating, activations collected
        out.push(span_p50(tr, "transformer.layer.forward"));
        let mut children = 0.0;
        for part in ["embed", "blocks", "head"] {
            let m = span_p50(tr, &format!("transformer.model.{part}"));
            children += m.value;
            out.push(m);
        }
        // what `forward` spends outside its parts (clones, bookkeeping):
        // the opaque call minus its children, as measured, never clamped
        out.push(Metric::new(
            "transformer.model.self_ms_p50",
            median(opaque_ms) - children,
            "ms",
            opaque_ms.len(),
        ));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::workloads::dims;

    pub(crate) fn tiny_config() -> ModelConfig {
        ModelConfig {
            dims: dims(2, 6, 2, 4, 16),
            layers: 2,
            vocab: 11,
            block: BlockKind::Encoder,
            dropout_p: 0.0,
        }
    }

    #[test]
    fn a_forward_yields_distributions_and_the_kernel_sets_agree() {
        let c = tiny_config();
        let batch = inputs::token_batch(&mut inputs::rng(5, Stream::Tokens), 2, 6, 11);
        let mut w = Forward::with_batches(c, vec![batch], 5).unwrap();
        assert_eq!(w.op(0), Ok(()));
        assert_eq!(w.check(), Vec::<String>::new());
        let mut tr = Tracer::with_capacity(64);
        w.traced_op(0, &mut tr).unwrap();
        assert_eq!(tr.durations_ms("transformer.layer.forward").len(), c.layers);
        let decoder = ModelConfig {
            block: BlockKind::Decoder,
            ..c
        };
        let batch = inputs::token_batch(&mut inputs::rng(5, Stream::Tokens), 2, 6, 11);
        let mut w = Forward::with_batches(decoder, vec![batch], 5).unwrap();
        w.op(0).unwrap();
        assert_eq!(w.check(), Vec::<String>::new());
    }

    #[test]
    fn the_fingerprint_follows_the_seed() {
        let make = |seed| {
            let batch = inputs::token_batch(&mut inputs::rng(seed, Stream::Tokens), 2, 6, 11);
            Forward::with_batches(tiny_config(), vec![batch], seed)
                .unwrap()
                .fingerprint()
        };
        assert_eq!(make(1), make(1));
        assert_ne!(make(1), make(2));
    }
}
