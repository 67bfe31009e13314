//! Fig. 6 / Sec. VI-A reproduction: the configuration-selection graph and
//! its shortest path, plus the "within 4% of per-op best" check.

use xform_core::recipe::{optimize_encoder, RecipeOptions};
use xform_dataflow::EncoderDims;
use xform_gpusim::DeviceSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = DeviceSpec::v100();
    let ours = optimize_encoder(
        &device,
        &EncoderDims::bert_large(),
        &RecipeOptions::default(),
    )?;
    let sel = &ours.selection;

    println!("Configuration selection (Sec. VI-A): shortest path through the layout graph\n");
    println!(
        "{:<10} {:>12} {:>12} {:>10}",
        "operator", "in layout", "out layout", "µs"
    );
    let layouts = sel.layout_specs(&ours.graph);
    for ((op, in_l, out_l), (_, timing)) in layouts.iter().zip(&sel.per_op) {
        let name = ours
            .graph
            .op(*op)
            .map(|o| o.name.clone())
            .unwrap_or_default();
        println!("{name:<10} {in_l:>12} {out_l:>12} {:>10.0}", timing.time_us);
    }
    println!(
        "\nselected forward path: {:.0} µs with {} explicit transposes",
        sel.total_us, sel.transposes
    );
    println!(
        "sum of unconstrained per-op bests: {:.0} µs → selection is {:.1}% above it\n\
         (paper: within 4% of the per-op lower bound)",
        sel.per_op_best_us,
        100.0 * (sel.total_us / sel.per_op_best_us - 1.0)
    );
    println!(
        "\nExample selection sub-graph (Fig. 6's QKV-fused → AIB slice):\n\
         each data container expands into one node per layout; operator edges\n\
         carry the best sweep time for that (in, out) pair; transpose edges\n\
         allow layout changes mid-graph.\n\n\
           source ─0─> [qkv_raw @ shbj] ──QKV──> [qq @ phbj] ──AIB──> ...\n\
                  ─0─> [qkv_raw @ sbhj] ──QKV──> [qq @ pbhj] ──AIB──> ...\n\
                  ─0─> [qkv_raw @ hjsb] ──QKV──> [qq @ hjpb] ──AIB──> ...\n\
                            │ transpose edges between layout rows │"
    );
    Ok(())
}
