//! `gpt_generate`: one op is one request — a fresh `DecodeSession`, a
//! prefill, then greedy `sample`/`advance` for 64 new tokens. Closed loop,
//! one client. Decode is GEMV-shaped and bypasses the batch GEMM path; the
//! per-session arena compile and the bucket migrations sit inside the
//! latency a user sees.

use std::time::Instant;

use substation::transformer::decode::{DecodeOptions, DecodeSession, Sampling};
use substation::transformer::model::{BlockKind, ModelConfig, TransformerModel};

use super::{err, span_p50, OpResult, Workload, GPT_DIMS};
use crate::allocs::ReadHeap;
use crate::inputs::{self, Fingerprint, Stream};
use crate::metrics::Metric;
use crate::stats::{self, median};
use crate::trace::Tracer;

/// Evenly spaced over [32, 96]; the seed shuffles the order. A fixed set
/// run in whole passes keeps the mix of prompt lengths, on which time to
/// first token depends, the same in every run.
pub const PROMPT_LENGTHS: [usize; 5] = [32, 48, 64, 80, 96];
pub const NEW_TOKENS: usize = 64;

/// What the requests since the last reset measured.
#[derive(Default)]
struct Samples {
    ttft_ms: Vec<f64>,
    /// Every `advance` + `sample` gap.
    gap_ms: Vec<f64>,
    /// The gaps on steps where the session's `capacity()` changed.
    migration_gap_ms: Vec<f64>,
    /// How many of those the first request had: a count that repeats.
    first_request_migrations: usize,
    prompt_tokens: usize,
    /// Heap events during gaps without a migration (the repo claims 0);
    /// counted only when the allocation probe supplied a reader.
    steady_heap_events: u64,
    steady_steps: u64,
    requests: usize,
    resident_bytes: usize,
}

pub struct Generate {
    model: TransformerModel,
    /// One `[b=1][len]` prompt per entry of `PROMPT_LENGTHS`, seed-shuffled.
    prompts: Vec<Vec<Vec<usize>>>,
    seed: u64,
    samples: Samples,
    fingerprint: u64,
    /// Set by the allocation probe only: timed runs count nothing.
    heap: Option<ReadHeap>,
}

const CONFIG: ModelConfig = ModelConfig {
    dims: GPT_DIMS,
    layers: 4,
    vocab: 1024,
    block: BlockKind::Decoder,
    dropout_p: 0.0,
};

impl Generate {
    /// One mid-length prompt, no warm-up, heap events counted per step.
    pub fn single_prompt(seed: u64, heap: ReadHeap) -> OpResult<Self> {
        let mut w = Self::with_lengths(CONFIG, &[PROMPT_LENGTHS[2]], seed)?;
        w.heap = Some(heap);
        Ok(w)
    }

    pub fn steady_heap_events_per_step(&self) -> Metric {
        let s = &self.samples;
        Metric::new(
            "transformer.decode.allocs_per_step",
            s.steady_heap_events as f64 / s.steady_steps.max(1) as f64,
            "count",
            s.steady_steps as usize,
        )
    }

    pub fn new(seed: u64) -> OpResult<Self> {
        let mut w = Self::with_lengths(CONFIG, &PROMPT_LENGTHS, seed)?;
        // the cold first request, then a prefill per prompt length: each
        // length lowers its own prefill plan on first use
        let mut off = Tracer::off();
        w.request(0, NEW_TOKENS, &mut off)?;
        for i in 1..w.prompts.len() {
            w.request(i, 1, &mut off)?;
        }
        w.samples = Samples::default();
        Ok(w)
    }

    pub fn with_lengths(config: ModelConfig, lengths: &[usize], seed: u64) -> OpResult<Self> {
        let model =
            TransformerModel::init(config, &mut inputs::rng(seed, Stream::Weights)).map_err(err)?;
        let mut lengths = lengths.to_vec();
        inputs::shuffle(&mut lengths, &mut inputs::rng(seed, Stream::Order));
        let mut tokens = inputs::rng(seed, Stream::Tokens);
        let prompts: Vec<Vec<Vec<usize>>> = lengths
            .iter()
            .map(|&len| inputs::token_batch(&mut tokens, config.dims.b, len, config.vocab))
            .collect();
        let mut fp = Fingerprint::default();
        for p in &prompts {
            fp.tokens(p);
        }
        fp.floats(model.embedding.data());
        fp.floats(model.head.data());
        Ok(Generate {
            model,
            prompts,
            seed,
            samples: Samples::default(),
            fingerprint: fp.finish(),
            heap: None,
        })
    }

    /// One request against prompt `i`, generating `new_tokens` tokens;
    /// returns those of batch row 0.
    fn request(&mut self, i: usize, new_tokens: usize, tr: &mut Tracer) -> OpResult<Vec<usize>> {
        let prompt = &self.prompts[i % self.prompts.len()];
        let opts = DecodeOptions {
            threads: 1,
            seed: self.seed,
            ..DecodeOptions::default()
        };
        let mut generated = Vec::with_capacity(new_tokens);
        let mut step = vec![0usize; self.model.config.dims.b];
        tr.next_op();
        let root = tr.begin("bench.op", "bench");
        let started = Instant::now();
        let mut session = tr
            .time("transformer.decode.session_new", "transformer", || {
                DecodeSession::new(&self.model, opts)
            })
            .map_err(err)?;
        tr.time("transformer.decode.prefill", "transformer", || {
            session.prefill(prompt).map(drop)
        })
        .map_err(err)?;
        tr.time("transformer.decode.sample", "transformer", || {
            session.sample(Sampling::Greedy, &mut step)
        })
        .map_err(err)?;
        let ttft_ms = started.elapsed().as_secs_f64() * 1e3;
        generated.push(step[0]);
        let s = &mut self.samples;
        let heap_events = || self.heap.map_or(0, |read| read().events);
        for _ in 1..new_tokens {
            let capacity = session.capacity();
            let heap = heap_events();
            let gap = Instant::now();
            tr.time("transformer.decode.advance", "transformer", || {
                session.advance(&step).map(drop)
            })
            .map_err(err)?;
            tr.time("transformer.decode.sample", "transformer", || {
                session.sample(Sampling::Greedy, &mut step)
            })
            .map_err(err)?;
            let gap_ms = gap.elapsed().as_secs_f64() * 1e3;
            s.gap_ms.push(gap_ms);
            if session.capacity() == capacity {
                s.steady_heap_events += heap_events() - heap;
                s.steady_steps += 1;
            } else {
                s.migration_gap_ms.push(gap_ms);
            }
            generated.push(step[0]);
        }
        tr.end(root);
        if s.requests == 0 {
            s.first_request_migrations = s.migration_gap_ms.len();
        }
        s.ttft_ms.push(ttft_ms);
        s.prompt_tokens += prompt[0].len();
        s.requests += 1;
        s.resident_bytes = session.resident_bytes();
        Ok(generated)
    }

    /// The token a full `TransformerModel::forward` over `prefix` predicts
    /// next: the argmax at the prefix's last position. The model's sequence
    /// length is fixed, so the prefix is padded; under the causal mask the
    /// padding cannot reach back.
    fn full_forward_next(&self, prefix: &[usize]) -> OpResult<usize> {
        let c = self.model.config;
        let mut row = prefix.to_vec();
        row.resize(c.dims.j, 0);
        let batch = vec![row; c.dims.b];
        let acts = self
            .model
            .forward(&batch, &mut inputs::rng(self.seed, Stream::Dropout))
            .map_err(err)?;
        let at = prefix.len() - 1;
        let mut best = 0;
        for v in 1..c.vocab {
            // strict: ties break to the lowest id, as `Sampling::Greedy` does
            if acts.probs.at(&[v, 0, at]) > acts.probs.at(&[best, 0, at]) {
                best = v;
            }
        }
        Ok(best)
    }
}

impl Workload for Generate {
    fn cycle_len(&self) -> usize {
        self.prompts.len()
    }

    fn units(&self, _i: usize) -> f64 {
        NEW_TOKENS as f64
    }

    fn op(&mut self, i: usize) -> OpResult<()> {
        self.request(i, NEW_TOKENS, &mut Tracer::off()).map(drop)
    }

    fn traced_op(&mut self, i: usize, tr: &mut Tracer) -> OpResult<()> {
        self.request(i, NEW_TOKENS, tr).map(drop)
    }

    fn check(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        let kept = std::mem::take(&mut self.samples);
        let mut off = Tracer::off();
        let runs = (
            self.request(0, NEW_TOKENS, &mut off),
            self.request(0, NEW_TOKENS, &mut off),
        );
        self.samples = kept;
        let generated = match runs {
            (Ok(a), Ok(b)) => {
                if a != b {
                    failures.push("two same-seed sessions generated different tokens".into());
                }
                a
            }
            (Err(e), _) | (_, Err(e)) => {
                failures.push(format!("check request failed: {e}"));
                return failures;
            }
        };
        let mut prefix = self.prompts[0][0].clone();
        for (g, &token) in generated.iter().enumerate() {
            // four positions spread over the generated tokens
            if g % (NEW_TOKENS / 3).max(1) == 0 {
                match self.full_forward_next(&prefix) {
                    Ok(want) if want == token => {}
                    Ok(want) => failures.push(format!(
                        "generated token {g} is {token}; a full forward over the prefix gives {want}"
                    )),
                    Err(e) => failures.push(format!("full forward failed: {e}")),
                }
            }
            prefix.push(token);
        }
        failures
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn info(&self) -> Vec<Metric> {
        let s = &self.samples;
        let ttft_s: f64 = s.ttft_ms.iter().sum::<f64>() / 1e3;
        let decode_s: f64 = s.gap_ms.iter().sum::<f64>() / 1e3;
        let tail = stats::highest_supported(s.gap_ms.len());
        vec![
            Metric::new("ttft_ms_p50", median(&s.ttft_ms), "ms", s.ttft_ms.len()),
            Metric::new("itl_ms_p50", median(&s.gap_ms), "ms", s.gap_ms.len()),
            Metric::new(
                format!("itl_ms_p{tail}"),
                stats::percentile(&s.gap_ms, tail),
                "ms",
                s.gap_ms.len(),
            ),
            Metric::new(
                "decode_tok_s",
                s.gap_ms.len() as f64 / decode_s,
                "1/s",
                s.gap_ms.len(),
            ),
            Metric::new(
                "prefill_tok_s",
                s.prompt_tokens as f64 / ttft_s,
                "1/s",
                s.requests,
            ),
        ]
    }

    fn layer_metrics(&mut self, tr: &Tracer, _opaque_ms: &[f64], out: &mut Vec<Metric>) {
        for part in ["session_new", "prefill", "advance", "sample"] {
            out.push(span_p50(tr, &format!("transformer.decode.{part}")));
        }
        let s = &self.samples;
        let m = |name: &str, value: f64, unit: &'static str, n: usize| {
            Metric::new(format!("transformer.decode.{name}"), value, unit, n)
        };
        out.extend([
            m("ttft_ms_p50", median(&s.ttft_ms), "ms", s.ttft_ms.len()),
            m("itl_ms_p50", median(&s.gap_ms), "ms", s.gap_ms.len()),
            m(
                "itl_ms_p90",
                stats::tail(&s.gap_ms, 90).unwrap_or(f64::NAN),
                "ms",
                s.gap_ms.len(),
            ),
            m(
                "bucket_migrations",
                s.first_request_migrations as f64,
                "count",
                1,
            ),
            m(
                "migration_gap_ms_p50",
                median(&s.migration_gap_ms),
                "ms",
                s.migration_gap_ms.len(),
            ),
            m("resident_mb", s.resident_bytes as f64 / 1e6, "MB", 1),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::dims;

    #[test]
    fn a_request_is_deterministic_and_matches_the_full_forward() {
        let config = ModelConfig {
            dims: dims(1, 80, 2, 4, 16),
            layers: 2,
            vocab: 13,
            block: BlockKind::Decoder,
            dropout_p: 0.0,
        };
        let mut w = Generate::with_lengths(config, &[5, 7], 3).unwrap();
        let tokens = w.request(0, 8, &mut Tracer::off()).unwrap();
        assert_eq!(tokens.len(), 8);
        assert!(w.samples.ttft_ms[0] > 0.0);
        assert_eq!(w.samples.gap_ms.len(), 7);
        let mut prefix = w.prompts[0][0].clone();
        for &t in &tokens {
            assert_eq!(w.full_forward_next(&prefix).unwrap(), t);
            prefix.push(t);
        }
        let mut tr = Tracer::with_capacity(64);
        w.traced_op(1, &mut tr).unwrap();
        assert_eq!(tr.durations_ms("transformer.decode.prefill").len(), 1);
        assert_eq!(
            tr.durations_ms("transformer.decode.advance").len(),
            NEW_TOKENS - 1
        );
    }
}
