//! A forward's record is written where it is kept, into a buffer its
//! plan's pool recycles: two live records never share a word, a record
//! keeps what its forward wrote while later forwards and backwards run, and
//! once every record is dropped the pool holds no idle buffer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use substation::core::analyze::ArenaGranularity;
use substation::core::plan::ExecOptions;
use substation::dataflow::EncoderDims;
use substation::transformer::decoder::DecoderLayer;
use substation::transformer::encoder::{EncoderLayer, Executor};
use substation::transformer::interp::{self, PlanKind, Saved};
use substation::transformer::model::{copy_task_batch, BlockKind, ModelConfig, TransformerModel};

fn bits(words: &[f32]) -> Vec<u32> {
    words.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn live_records_never_alias_and_dropped_ones_leave_no_idle_buffer() {
    let dims = EncoderDims {
        b: 2,
        j: 7,
        k: 7,
        h: 2,
        p: 4,
        i: 8,
        u: 20,
    };
    for (block, kind) in [
        (BlockKind::Encoder, PlanKind::EncoderFused),
        (BlockKind::Decoder, PlanKind::DecoderFused),
    ] {
        let cfg = ModelConfig {
            dims,
            layers: 2,
            vocab: 9,
            block,
            dropout_p: 0.2,
        };
        let mut rng = StdRng::seed_from_u64(31);
        let model = TransformerModel::init(cfg, &mut rng).unwrap();
        let (tokens, targets) = copy_task_batch(&cfg, &mut rng);
        let (other, _) = copy_task_batch(&cfg, &mut rng);
        // the seeds the first forward's blocks draw, in block order
        let mut probe = rng.clone();
        let seeds: Vec<u64> = (0..cfg.layers).map(|_| probe.gen()).collect();
        let first = model.forward(&tokens, &mut rng).unwrap();
        let second = model.forward(&other, &mut rng).unwrap();

        let spans: Vec<_> = (first.blocks.iter().chain(&second.blocks))
            .map(|s| s.words().as_ptr_range())
            .collect();
        for (k, a) in spans.iter().enumerate() {
            for b in &spans[k + 1..] {
                assert!(
                    a.end <= b.start || b.end <= a.start,
                    "{block:?}: records alias"
                );
            }
        }

        // what a fresh forward on the first's block inputs saves, bit for bit
        let fresh = |l: usize| -> Saved {
            let opts = ExecOptions::builder().seed(seeds[l]).build();
            let (x, w) = (&first.block_inputs[l], &model.blocks[l]);
            let out = match block {
                BlockKind::Encoder => {
                    EncoderLayer::new(dims, Executor::Fused, 0.2).forward(x, w, &opts)
                }
                BlockKind::Decoder => DecoderLayer::new(dims, 0.2).forward(x, w, &opts),
            };
            out.unwrap().saved
        };
        let holds = |when: &str| {
            for (l, saved) in first.blocks.iter().enumerate() {
                let want = fresh(l);
                assert_eq!(
                    bits(saved.words()),
                    bits(want.words()),
                    "{block:?} block {l} {when}"
                );
                assert_eq!(saved.region(), want.region(), "{block:?} block {l} {when}");
            }
        };
        holds("after a second forward");
        model.backward(&other, &targets, &second).unwrap();
        holds("after a backward on the second");

        let arena = interp::cached_arena(&dims, kind, ArenaGranularity::Serial)
            .unwrap()
            .unwrap();
        drop((first, second));
        assert_eq!(arena.idle_records(), 0, "{block:?}: idle buffers parked");
    }
}
