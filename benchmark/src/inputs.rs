//! Seeded input generation. Everything a workload feeds the library —
//! tokens, prompt lengths, weight initialisation, ladder order — derives
//! from `--seed` here; the library receives only the generated inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One independent random stream per purpose, so adding a draw to one
/// does not shift another.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Weights = 1,
    Tokens = 2,
    Order = 3,
    Dropout = 4,
}

pub fn rng(seed: u64, stream: Stream) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream as u64)
}

/// `b` rows of `j` token ids drawn uniformly from `0..vocab`.
pub fn token_batch<R: Rng>(rng: &mut R, b: usize, j: usize, vocab: usize) -> Vec<Vec<usize>> {
    (0..b)
        .map(|_| (0..j).map(|_| rng.gen_range(0..vocab)).collect())
        .collect()
}

/// Fisher–Yates shuffle.
pub fn shuffle<T, R: Rng>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// FNV-1a over 64-bit words: the `input_fingerprint` a workload prints,
/// identical across runs of one seed.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn tokens(&mut self, batch: &[Vec<usize>]) {
        for row in batch {
            self.word(row.len() as u64);
            for &t in row {
                self.word(t as u64);
            }
        }
    }

    pub fn floats(&mut self, data: &[f32]) {
        for x in data {
            self.word(u64::from(x.to_bits()));
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(seed: u64) -> (Vec<Vec<usize>>, Vec<usize>, u64) {
        let batch = token_batch(&mut rng(seed, Stream::Tokens), 3, 17, 100);
        let mut order: Vec<usize> = (0..12).collect();
        shuffle(&mut order, &mut rng(seed, Stream::Order));
        let mut fp = Fingerprint::default();
        fp.tokens(&batch);
        (batch, order, fp.finish())
    }

    #[test]
    fn one_seed_gives_one_input_and_another_seed_another() {
        assert_eq!(draw(7), draw(7));
        let (a, b) = (draw(7), draw(8));
        assert_ne!(a.0, b.0);
        assert_ne!(a.2, b.2);
        assert!(a.0.iter().flatten().all(|&t| t < 100));
    }

    #[test]
    fn shuffle_keeps_every_item_and_streams_are_independent() {
        let (_, mut order, _) = draw(3);
        assert_ne!(order, (0..12).collect::<Vec<_>>());
        order.sort_unstable();
        assert_eq!(order, (0..12).collect::<Vec<_>>());
        let a: u64 = rng(3, Stream::Tokens).gen();
        let b: u64 = rng(3, Stream::Order).gen();
        assert_ne!(a, b);
    }
}
