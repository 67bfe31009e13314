//! Inspect multi-head attention: the dataflow annotations of Fig. 1b, per
//! operator, at BERT-large scale. The attention the CPU runs is the
//! encoder's and decoder's self-attention, on their canned plans
//! (`examples/train_encoder.rs`, `examples/generate.rs`).
//!
//! ```text
//! cargo run --release --example mha_inspect
//! ```

use substation::dataflow::{analysis, build, EncoderDims};

fn main() -> Result<(), Box<dyn std::error::Error>> {
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
         is what separates compute-bound contractions from memory-bound rest."
    );
    Ok(())
}
