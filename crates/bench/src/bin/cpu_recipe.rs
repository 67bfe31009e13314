//! The recipe on *real measurements*: swap the V100 model for the
//! [`xform_core::cpusource::CpuSource`], which times actual CPU kernels —
//! each forward kernel compiled alone onto an arena, the executor every
//! plan runs on — and run the identical fuse → sweep → select pipeline
//! (the hardware-agnosticity claim of Sec. VIII). Uses small dimensions —
//! real measurement is a million times slower than the analytical model.
//! (`examples/layout_tuning.rs` runs the forward half at the benchmark's
//! `bert_fwd` dimensions and duels the selected plan against the natural
//! one.)

use xform_core::cpusource::CpuSource;
use xform_core::recipe::{optimize_encoder_with, RecipeOptions};
use xform_core::sweep::SweepOptions;
use xform_dataflow::EncoderDims;
use xform_gpusim::DeviceSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dims = EncoderDims {
        b: 2,
        j: 24,
        k: 24,
        h: 2,
        p: 8,
        i: 16,
        u: 32,
    };
    let source = CpuSource::new(3);
    println!(
        "running the recipe against real CPU measurements (dims: i={}, j={}, b={})",
        dims.i, dims.j, dims.b
    );
    let plan = optimize_encoder_with(
        &source,
        &DeviceSpec::v100(), // device spec only prices transpose bookkeeping
        &dims,
        &RecipeOptions {
            sweep: SweepOptions {
                max_configs: Some(96),
                ..SweepOptions::default()
            },
            per_op_overhead_us: 0.0,
        },
    )?;
    println!("\nselected configuration (measured µs per kernel):");
    for r in &plan.rows {
        if r.forward {
            let (in_spec, _, out_spec) = r.config.specs(&plan.graph, r.op)?;
            println!(
                "  {:<10} {:>9.1} µs   in {:<6} out {:<6} vec {:?}",
                r.name, r.time_us, in_spec, out_spec, r.config.vector_axis
            );
        }
    }
    println!(
        "\nforward {:.2} ms, backward {:.2} ms (measured on this machine)",
        plan.forward_us / 1000.0,
        plan.backward_us / 1000.0
    );
    println!(
        "selection {:.1}% above the per-op measured optimum — the same global\n\
         selection machinery, driven by real numbers instead of a model.",
        100.0 * (plan.selection.total_us / plan.selection.per_op_best_us - 1.0)
    );
    Ok(())
}
