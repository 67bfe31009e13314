//! Inspect multi-head attention: dataflow annotations (Fig. 1) plus a real
//! CPU execution of general attention.
//!
//! ```text
//! cargo run --release --example mha_inspect
//! ```

use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

use substation::dataflow::{analysis, build, EncoderDims};
use substation::tensor::{Shape, Tensor};
use substation::transformer::mha::mha_forward;
use substation::transformer::params::EncoderWeights;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- the dataflow view (Fig. 1b) at paper scale ---
    let paper = EncoderDims::bert_large();
    let g = build::mha_forward(&paper);
    println!("MHA dataflow at BERT-large scale (Fig. 1b):");
    for a in analysis::annotate(&g) {
        println!(
            "  {:<14} {}  {:>8.3} Gflop  {:>7.1} flop/word",
            a.name,
            a.class.glyph(),
            a.flop as f64 / 1_073_741_824.0,
            a.flop_per_word()
        );
    }
    println!(
        "\nEvery edge of this graph is exact data movement; the flop/word column\n\
         is what separates compute-bound contractions from memory-bound rest.\n"
    );

    // --- a real execution at CPU scale (general attention: distinct q/k/v) ---
    let dims = EncoderDims {
        b: 2,
        j: 12,
        k: 10, // encoder/decoder attention: different key length
        h: 4,
        p: 8,
        i: 32,
        u: 64,
    };
    let mut rng = StdRng::seed_from_u64(3);
    let w = EncoderWeights::init(&dims, &mut rng);
    let sizes = dims.size_table();
    let q = Tensor::random(
        Shape::from_spec("ibj", &sizes)?,
        &Uniform::new(-1.0, 1.0),
        &mut rng,
    );
    let k = Tensor::random(
        Shape::from_spec("ibk", &sizes)?,
        &Uniform::new(-1.0, 1.0),
        &mut rng,
    );
    let v = Tensor::random(
        Shape::from_spec("ibk", &sizes)?,
        &Uniform::new(-1.0, 1.0),
        &mut rng,
    );
    let (out, acts) = mha_forward(&dims, &q, &k, &v, &w, 0.1, &mut rng)?;
    println!(
        "real CPU general attention (J={} queries over K={} keys):",
        dims.j, dims.k
    );
    println!("  output shape       : {}", out.shape());
    println!(
        "  attention row sums : {:.4} (softmax over keys)",
        (0..dims.k)
            .map(|kk| acts.sm.softmax.at(&[0, 0, 0, kk]))
            .sum::<f32>()
    );
    let dropped = acts.sm.mask.data().iter().filter(|&&m| m == 0.0).count();
    println!(
        "  dropout            : {:.1}% of attention weights dropped",
        100.0 * dropped as f32 / acts.sm.mask.len() as f32
    );
    Ok(())
}
