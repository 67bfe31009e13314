//! Train a real encoder layer on the CPU with the fused kernels.
//!
//! ```text
//! cargo run --release --example train_encoder
//! ```
//!
//! Regresses one layer's output onto a fixed random target (mean squared
//! error, SGD) twice — once with the unfused reference executor and once
//! with the paper's fused kernels, forward and backward each a certified
//! plan on its arena — checking that both learn identically (they compute
//! the same math) while the fused executor does fewer passes over memory.

use std::time::Instant;

use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

use substation::core::plan::ExecOptions;
use substation::dataflow::EncoderDims;
use substation::tensor::{Shape, Tensor};
use substation::transformer::encoder::{EncoderLayer, Executor};
use substation::transformer::params::EncoderWeights;

const STEPS: usize = 25;
const LEARNING_RATE: f32 = 0.05;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A CPU-sized layer: same structure as BERT-large, smaller dims.
    let dims = EncoderDims {
        b: 2,
        j: 16,
        k: 16,
        h: 4,
        p: 8,
        i: 32,
        u: 64,
    };
    println!(
        "training one encoder layer (i={}, h={}, b={}, j={}) on a synthetic task\n",
        dims.i, dims.h, dims.b, dims.j
    );
    let shape = Shape::from_spec("ibj", &dims.size_table())?;
    let mut losses = Vec::new();
    for (name, executor) in [
        ("reference (unfused)", Executor::Reference),
        ("fused kernels", Executor::Fused),
    ] {
        let mut w = EncoderWeights::init(&dims, &mut StdRng::seed_from_u64(42));
        let layer = EncoderLayer::new(dims, executor, 0.0);
        let start = Instant::now();
        let mut history = Vec::with_capacity(STEPS);
        for step in 0..STEPS {
            // four batches, each with its own frozen target
            let data = &mut StdRng::seed_from_u64(42 ^ (step as u64 % 4));
            let x = Tensor::random(shape.clone(), &Uniform::new(-1.0, 1.0), data);
            let target = Tensor::random(shape.clone(), &Uniform::new(-0.5, 0.5), data);
            let opts = ExecOptions::default();
            let (y, saved) = layer.forward(&x, &w, &opts)?.into_pair()?;
            // L = mean((y - t)^2), dL/dy = 2 (y - t) / N
            let n = y.len() as f32;
            let mut dy = y.clone();
            let errors = dy.data_mut().iter_mut().zip(target.data());
            let loss = errors.fold(0.0, |acc, (d, t)| {
                let e = *d - t;
                *d = 2.0 * e / n;
                acc + e * e / n
            });
            let (_, grads) = layer.backward(&dy, &x, &w, &saved, &opts)?;
            w.sgd_step(&grads, LEARNING_RATE);
            history.push((loss, grads.global_norm()));
        }
        println!("{name}: {:?} for {STEPS} steps", start.elapsed());
        for (step, (loss, norm)) in history.iter().enumerate().step_by(5) {
            println!("  step {step:>3}  loss {loss:.5}  |grad| {norm:.4}");
        }
        let (first, last) = (history[0].0, history[STEPS - 1].0);
        println!("  step {:>3}  loss {last:.5}  (final)\n", STEPS - 1);
        losses.push((first, last));
    }
    let ((first, a), (_, b)) = (losses[0], losses[1]);
    println!("final losses: reference {a:.6} vs fused {b:.6} (identical math)");
    println!(
        "loss reduced {:.1}× from the start — backprop through attention works.",
        first / a
    );
    Ok(())
}
