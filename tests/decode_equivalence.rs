//! Streaming-decode equivalence: prefill + token-at-a-time steps through a
//! [`xform_transformer::decode::DecodeSession`] must reproduce the
//! full-sequence decoder forward's logits **bitwise** at every position —
//! the KV cache, the bucketed step plans, and the position-shifted causal
//! softmax are pure data-movement changes, so not one ULP of drift is
//! tolerated. Also pins the sampling RNG discipline: the RNG end state
//! depends only on the number of sampled tokens, and sampled tokens are
//! invariant under the prefill thread count.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xform_dataflow::EncoderDims;
use xform_tensor::ops::elementwise::bias_add;
use xform_tensor::{einsum, Tensor};
use xform_transformer::decode::{DecodeOptions, DecodeSession, Sampling};
use xform_transformer::model::{BlockKind, ModelConfig, TransformerModel};

fn model(dims: EncoderDims, layers: usize, vocab: usize, seed: u64) -> TransformerModel {
    let cfg = ModelConfig {
        dims,
        layers,
        vocab,
        block: BlockKind::Decoder,
        dropout_p: 0.0,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    TransformerModel::init(cfg, &mut rng).expect("model init")
}

fn random_tokens(dims: &EncoderDims, vocab: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..dims.b)
        .map(|_| (0..dims.j).map(|_| rng.gen_range(0..vocab)).collect())
        .collect()
}

/// Full-sequence logits `[v,b,j]` via the model forward (the head is
/// `einsum("vi,ibj->vbj") + bias`, same accumulation the session uses).
fn full_logits(m: &TransformerModel, tokens: &[Vec<usize>]) -> Tensor {
    let mut rng = StdRng::seed_from_u64(7);
    let acts = m.forward(tokens, &mut rng).expect("full forward");
    let hidden = acts.block_inputs.last().expect("the last block's output");
    bias_add(
        &einsum("vi,ibj->vbj", &[&m.head, hidden]).expect("head einsum"),
        &m.head_bias,
    )
    .expect("head bias")
}

/// Drives a teacher-forced incremental decode over `tokens` (prefill on
/// the first `prompt_len` columns, then one `advance` per remaining
/// position) and asserts bitwise logit equality at every position.
fn assert_incremental_matches_full(
    m: &TransformerModel,
    tokens: &[Vec<usize>],
    prompt_len: usize,
    opts: DecodeOptions,
) {
    let d = m.config.dims;
    let total = tokens[0].len();
    let full = full_logits(m, tokens);
    let vocab = m.config.vocab;

    let mut sess = DecodeSession::new(m, opts).expect("session");
    let prompt: Vec<Vec<usize>> = tokens.iter().map(|r| r[..prompt_len].to_vec()).collect();
    let pre = sess.prefill(&prompt).expect("prefill");

    // prefill logits: all prompt columns, bitwise
    for v in 0..vocab {
        for b in 0..d.b {
            for j in 0..prompt_len {
                let got = pre.at(&[v, b, j]);
                let want = full.at(&[v, b, j]);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "prefill logit [{v},{b},{j}]: {got} != {want}"
                );
            }
        }
    }

    // teacher-forced steps: feed the true token at each position, compare
    // the new position's logit column bitwise
    for pos in prompt_len..total {
        let step: Vec<usize> = tokens.iter().map(|r| r[pos]).collect();
        let logits = sess.advance(&step).expect("advance");
        for v in 0..vocab {
            for b in 0..d.b {
                let got = logits.at(&[v, b, 0]);
                let want = full.at(&[v, b, pos]);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "step logit [{v},{b}] at pos {pos}: {got} != {want}"
                );
            }
        }
    }
    assert_eq!(sess.len(), total);
}

#[test]
fn incremental_decode_matches_full_forward_bitwise() {
    let dims = EncoderDims {
        b: 2,
        j: 12,
        k: 12,
        h: 2,
        p: 4,
        i: 8,
        u: 16,
    };
    let m = model(dims, 2, 11, 0xDEC0DE);
    let tokens = random_tokens(&dims, 11, 3);
    assert_incremental_matches_full(&m, &tokens, 5, DecodeOptions::default());
}

#[test]
fn bucket_growth_preserves_bitwise_equality() {
    let dims = EncoderDims {
        b: 2,
        j: 12,
        k: 12,
        h: 2,
        p: 4,
        i: 8,
        u: 16,
    };
    let m = model(dims, 2, 11, 0xDEC0DE);
    let tokens = random_tokens(&dims, 11, 4);
    // bucket 4 forces cache-slab migration mid-decode: prefill(3) compiles
    // capacity 4, so steps grow the bucket at positions 4 and 8
    let opts = DecodeOptions {
        bucket: Some(4),
        ..DecodeOptions::default()
    };
    let mut sess = DecodeSession::new(&m, opts).expect("session");
    let prompt: Vec<Vec<usize>> = tokens.iter().map(|r| r[..3].to_vec()).collect();
    sess.prefill(&prompt).expect("prefill");
    assert_eq!(sess.capacity(), 4);
    let full = full_logits(&m, &tokens);
    for pos in 3..dims.j {
        let step: Vec<usize> = tokens.iter().map(|r| r[pos]).collect();
        let logits = sess.advance(&step).expect("advance");
        for v in 0..m.config.vocab {
            for b in 0..dims.b {
                assert_eq!(
                    logits.at(&[v, b, 0]).to_bits(),
                    full.at(&[v, b, pos]).to_bits(),
                    "grown-bucket logit [{v},{b}] at pos {pos}"
                );
            }
        }
    }
    assert!(sess.capacity() >= dims.j);
}

#[test]
fn greedy_generation_is_deterministic_and_rng_free() {
    let dims = EncoderDims {
        b: 2,
        j: 10,
        k: 10,
        h: 2,
        p: 4,
        i: 8,
        u: 16,
    };
    let m = model(dims, 2, 9, 1);
    let prompt: Vec<Vec<usize>> = vec![vec![1, 2, 3], vec![4, 5, 6]];

    let mut a = DecodeSession::new(&m, DecodeOptions::default()).expect("session");
    let ta = a.generate(&prompt, 6, Sampling::Greedy).expect("generate");
    let mut b = DecodeSession::new(&m, DecodeOptions::default()).expect("session");
    let tb = b.generate(&prompt, 6, Sampling::Greedy).expect("generate");
    assert_eq!(ta, tb);
    // greedy never draws: both RNGs are still at their seeded origin
    assert_eq!(a.rng_fingerprint(), b.rng_fingerprint());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Random geometry, seeds, and temperatures: the incremental path
    // reproduces the full forward bitwise at every position; sampled
    // tokens and the RNG end state are invariant under the prefill
    // thread count.
    #[test]
    fn decode_equivalence_properties(
        b in 1usize..3,
        h in 1usize..3,
        p in 2usize..5,
        total in 6usize..11,
        prompt_len in 2usize..5,
        layers in 1usize..3,
        weight_seed in 0u64..1000,
        token_seed in 0u64..1000,
        sample_seed in 0u64..1000,
        temperature in 0.25f32..2.0,
        top_k in 1usize..8,
        bucket in 2usize..6,
    ) {
        let prompt_len = prompt_len.min(total - 1);
        let i = p * h;
        let dims = EncoderDims { b, j: total, k: total, h, p, i, u: 2 * i };
        let vocab = 7;
        let m = model(dims, layers, vocab, weight_seed);
        let tokens = random_tokens(&dims, vocab, token_seed);

        // bitwise equivalence, including under forced bucket growth
        let opts = DecodeOptions {
            bucket: Some(bucket),
            ..DecodeOptions::default()
        };
        assert_incremental_matches_full(&m, &tokens, prompt_len, opts);

        // sampling: thread-count invariance + RNG end-state equality
        let sampling = Sampling::Temperature { temperature, top_k: Some(top_k) };
        let prompt: Vec<Vec<usize>> =
            tokens.iter().map(|r| r[..prompt_len].to_vec()).collect();
        let steps = total - prompt_len;
        let mut one = DecodeSession::new(&m, DecodeOptions {
            seed: sample_seed,
            threads: 1,
            ..DecodeOptions::default()
        }).expect("session");
        let mut two = DecodeSession::new(&m, DecodeOptions {
            seed: sample_seed,
            threads: 2,
            ..DecodeOptions::default()
        }).expect("session");
        let t1 = one.generate(&prompt, steps, sampling).expect("generate");
        let t2 = two.generate(&prompt, steps, sampling).expect("generate");
        prop_assert_eq!(&t1, &t2);
        // the RNG advanced once per sampled token per row — end states match
        prop_assert_eq!(one.rng_fingerprint(), two.rng_fingerprint());
        for row in &t1 {
            prop_assert_eq!(row.len(), steps);
        }
    }
}
