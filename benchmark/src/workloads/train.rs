//! `train_step`: one op is `forward` → `cross_entropy` → `backward` →
//! `sgd_step` on a copy-task batch. The paper's actual subject, and the one
//! workload on the allocating `ops::*` kernels, the backward kernels,
//! activation collection and the dropout RNG.

use rand::rngs::StdRng;
use substation::transformer::model::{copy_task_batch, BlockKind, ModelConfig, TransformerModel};

use super::{err, span_p50, OpResult, Workload, TRAIN_DIMS};
use crate::inputs::{self, Fingerprint, Stream};
use crate::metrics::Metric;
use crate::trace::Tracer;

const LEARNING_RATE: f32 = 0.05;
/// Batches the steps cycle through, generated before the timed window.
const BATCHES: usize = 8;
const WARM_UP_OPS: usize = 1;
/// How many losses each end of the run contributes to the learning check.
const CHECK_WINDOW: usize = 5;

type Batch = (Vec<Vec<usize>>, Vec<Vec<usize>>);

pub struct Train {
    model: TransformerModel,
    batches: Vec<Batch>,
    dropout: StdRng,
    /// Loss of every step since initialisation, warm-up included.
    losses: Vec<f32>,
    fingerprint: u64,
}

impl Train {
    pub fn new(seed: u64) -> OpResult<Self> {
        let mut w = Self::unwarmed(seed)?;
        for i in 0..=WARM_UP_OPS {
            w.op(i)?;
        }
        Ok(w)
    }

    /// `train_step` with its inputs but without the cold and warm-up ops.
    pub fn unwarmed(seed: u64) -> OpResult<Self> {
        let config = ModelConfig {
            dims: TRAIN_DIMS,
            layers: 2,
            vocab: 1024,
            block: BlockKind::Encoder,
            dropout_p: 0.1,
        };
        Self::with_config(config, seed)
    }

    pub fn with_config(config: ModelConfig, seed: u64) -> OpResult<Self> {
        let model =
            TransformerModel::init(config, &mut inputs::rng(seed, Stream::Weights)).map_err(err)?;
        let mut tokens = inputs::rng(seed, Stream::Tokens);
        let batches: Vec<Batch> = (0..BATCHES)
            .map(|_| copy_task_batch(&config, &mut tokens))
            .collect();
        let mut fp = Fingerprint::default();
        for (tokens, targets) in &batches {
            fp.tokens(tokens);
            fp.tokens(targets);
        }
        fp.floats(model.embedding.data());
        fp.floats(model.head.data());
        Ok(Train {
            model,
            batches,
            dropout: inputs::rng(seed, Stream::Dropout),
            losses: Vec::with_capacity(1024),
            fingerprint: fp.finish(),
        })
    }

    fn step(&mut self, i: usize, tr: &mut Tracer) -> OpResult<()> {
        let (tokens, targets) = &self.batches[i % self.batches.len()];
        tr.next_op();
        let root = tr.begin("bench.op", "bench");
        let acts = tr
            .time("transformer.training.forward", "transformer", || {
                self.model.forward(tokens, &mut self.dropout)
            })
            .map_err(err)?;
        let loss = tr
            .time("transformer.training.loss", "transformer", || {
                self.model.cross_entropy(&acts, targets)
            })
            .map_err(err)?;
        let grads = tr
            .time("transformer.training.backward", "transformer", || {
                self.model.backward(tokens, targets, &acts)
            })
            .map_err(err)?;
        tr.time("transformer.training.sgd", "transformer", || {
            self.model.sgd_step(&grads, LEARNING_RATE)
        });
        tr.end(root);
        self.losses.push(loss);
        Ok(())
    }
}

fn mean(xs: &[f32]) -> f32 {
    xs.iter().sum::<f32>() / xs.len() as f32
}

impl Train {
    /// Mean loss of the first and of the last `CHECK_WINDOW` steps.
    fn loss_ends(&self) -> (f32, f32) {
        let n = CHECK_WINDOW.min(self.losses.len());
        (
            mean(&self.losses[..n]),
            mean(&self.losses[self.losses.len() - n..]),
        )
    }
}

impl Workload for Train {
    fn cycle_len(&self) -> usize {
        1
    }

    fn units(&self, _i: usize) -> f64 {
        let d = self.model.config.dims;
        (d.b * d.j) as f64
    }

    fn op(&mut self, i: usize) -> OpResult<()> {
        // a step has no opaque entry point: it is its four public calls
        self.step(i, &mut Tracer::off())
    }

    fn traced_op(&mut self, i: usize, tr: &mut Tracer) -> OpResult<()> {
        self.step(i, tr)
    }

    fn check(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        if let Some(at) = self.losses.iter().position(|l| !l.is_finite()) {
            failures.push(format!("loss of step {at} is {}", self.losses[at]));
        }
        if self.losses.len() < 2 * CHECK_WINDOW {
            failures.push(format!(
                "{} steps are too few to tell whether the model learns",
                self.losses.len()
            ));
        } else {
            let (first, last) = self.loss_ends();
            if last.is_nan() || last >= first {
                failures.push(format!("loss did not fall: {first} -> {last}"));
            }
        }
        failures
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn info(&self) -> Vec<Metric> {
        let (first, last) = self.loss_ends();
        let n = self.losses.len();
        vec![
            Metric::new(format!("loss_first{CHECK_WINDOW}"), first.into(), "nat", n),
            Metric::new(format!("loss_last{CHECK_WINDOW}"), last.into(), "nat", n),
        ]
    }

    fn layer_metrics(&mut self, tr: &Tracer, _opaque_ms: &[f64], out: &mut Vec<Metric>) {
        for part in ["forward", "loss", "backward", "sgd"] {
            out.push(span_p50(tr, &format!("transformer.training.{part}")));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::forward::tests::tiny_config;

    #[test]
    fn steps_record_finite_losses_and_the_check_wants_enough_of_them() {
        let config = ModelConfig {
            dropout_p: 0.1,
            ..tiny_config()
        };
        let mut w = Train::with_config(config, 2).unwrap();
        for i in 0..4 {
            w.op(i).unwrap();
        }
        assert!(w.losses.iter().all(|l| l.is_finite()));
        assert!(w.check().join("\n").contains("too few"));
        let mut tr = Tracer::with_capacity(64);
        w.traced_op(4, &mut tr).unwrap();
        assert_eq!(tr.durations_ms("transformer.training.backward").len(), 1);
        w.losses = vec![3.0, 3.0, 3.0, 3.0, 3.0, 2.0, 2.0, 2.0, 2.0, 2.0];
        assert_eq!(w.check(), Vec::<String>::new());
        w.losses.reverse();
        assert!(w.check().join("\n").contains("did not fall"));
        w.losses[3] = f32::NAN;
        assert!(w.check().join("\n").contains("loss of step 3"));
    }
}
