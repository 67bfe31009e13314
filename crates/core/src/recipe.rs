//! The end-to-end optimization recipe (Sec. III):
//!
//! 1. build the dataflow graph and classify operators (`xform-dataflow`);
//! 2. fuse for data reuse ([`crate::fusion`]);
//! 3. sweep data layouts per operator ([`crate::sweep`]);
//! 4. select a global configuration ([`crate::selection`]) and assemble
//!    the optimized implementation.
//!
//! [`optimize_encoder`] runs all four steps for a BERT encoder layer and
//! returns per-operator timings, MUE, and totals — the "Ours" columns of
//! Tables III, IV and V.

use std::collections::HashMap;

use xform_dataflow::{build, EncoderDims, Graph, NodeId, OpClass};
use xform_gpusim::mue::{mue, Mue};
use xform_gpusim::opmodel::OpConfig;
use xform_gpusim::DeviceSpec;
use xform_tensor::Result;

use crate::fusion::{apply_plan, encoder_fusion_plan};
use crate::selection::{select_forward, Selection};
use crate::sweep::{sweep_all, PerfSource, SimulatorSource, SweepOptions, SweepResult};

/// The backward side of a training graph in topological order: every
/// operator reachable from the output gradient `dy`, and every
/// *rematerialization* — an operator each of whose outputs is read, and read
/// only by the backward side (what [`crate::fusion::apply_regions`] leaves of
/// an attention core's `QKT → SM`: it recomputes what the forward pass no
/// longer keeps). A graph without a region has none.
pub fn backward_ops(graph: &Graph, dy: NodeId) -> Vec<NodeId> {
    let topo = graph.topo_ops();
    let mut backward = graph.reachable_from(dy);
    for &op in topo.iter().rev() {
        let feeds_backward_only = |d: NodeId| {
            let readers = graph.consumers_of(d);
            !readers.is_empty() && readers.iter().all(|r| backward.contains(r))
        };
        let outs = graph.outputs_of(op);
        if !backward.contains(&op) && !outs.is_empty() && outs.into_iter().all(feeds_backward_only)
        {
            backward.push(op);
        }
    }
    topo.into_iter()
        .filter(|op| backward.contains(op))
        .collect()
}

/// Operators on the forward half of a training graph, topologically
/// ordered: everything [`backward_ops`] leaves — what `y` needs.
pub fn forward_ops(graph: &Graph, dy: NodeId) -> Vec<NodeId> {
    let backward = backward_ops(graph, dy);
    graph
        .topo_ops()
        .into_iter()
        .filter(|op| !backward.contains(op))
        .collect()
}

/// One operator of the optimized implementation.
#[derive(Debug, Clone)]
pub struct PlannedOp {
    /// Operator id in the fused graph.
    pub op: NodeId,
    /// Kernel name (fused name where fusion applied).
    pub name: String,
    /// Operator class.
    pub class: OpClass,
    /// Whether the op belongs to the forward pass.
    pub forward: bool,
    /// Selected configuration.
    pub config: OpConfig,
    /// Kernel time under the selected configuration (µs).
    pub time_us: f64,
    /// Flop performed.
    pub flop: u64,
    /// MUE analysis under the selected configuration.
    pub mue: Mue,
}

/// The assembled, optimized encoder implementation.
#[derive(Debug, Clone)]
pub struct OptimizedEncoder {
    /// The fused dataflow graph.
    pub graph: Graph,
    /// Per-operator plan, topologically ordered (forward then backward).
    pub rows: Vec<PlannedOp>,
    /// Forward kernel time plus dispatch overheads (µs).
    pub forward_us: f64,
    /// Backward kernel time plus dispatch overheads (µs).
    pub backward_us: f64,
    /// Forward selection details (Fig. 6's shortest path).
    pub selection: Selection,
    /// Data-movement reduction vs the unfused graph (%; the paper's
    /// ~22.91%).
    pub movement_reduction_pct: f64,
}

impl OptimizedEncoder {
    /// Total time (µs) for forward + backward.
    pub fn total_us(&self) -> f64 {
        self.forward_us + self.backward_us
    }

    /// Kernel time of a named operator, if present.
    pub fn op_time_us(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.time_us)
    }
}

/// Options for the recipe run.
#[derive(Debug, Clone, Copy)]
pub struct RecipeOptions {
    /// Sweep sampling cap (None = exhaustive, as the paper sweeps: on one
    /// thread here ≈ 22 ms for the 221 184 configurations of a rank-4
    /// contraction, ≈ 0.16 s for the 1.44 M of a BERT-large encoder).
    pub sweep: SweepOptions,
    /// Per-op dispatch overhead of the assembled implementation (µs);
    /// the PyTorch-integration overhead in the paper's numbers.
    pub per_op_overhead_us: f64,
}

impl Default for RecipeOptions {
    fn default() -> Self {
        RecipeOptions {
            sweep: SweepOptions {
                max_configs: Some(30_000),
                ..SweepOptions::default()
            },
            per_op_overhead_us: 1.0,
        }
    }
}

/// Runs the full recipe for a BERT encoder layer on the given device.
///
/// # Errors
///
/// Returns an error if any step fails (the encoder graph is well-formed,
/// so failures indicate inconsistent sweeps/configurations).
pub fn optimize_encoder(
    device: &DeviceSpec,
    dims: &EncoderDims,
    opts: &RecipeOptions,
) -> Result<OptimizedEncoder> {
    let source = SimulatorSource {
        device: device.clone(),
    };
    optimize_encoder_with(&source, device, dims, opts)
}

/// Like [`optimize_encoder`] but with a caller-supplied performance source
/// (e.g. real CPU measurements), demonstrating the recipe's hardware
/// independence.
///
/// # Errors
///
/// Returns an error if any step fails.
pub fn optimize_encoder_with(
    source: &dyn PerfSource,
    device: &DeviceSpec,
    dims: &EncoderDims,
    opts: &RecipeOptions,
) -> Result<OptimizedEncoder> {
    optimize_step(
        source,
        device,
        build::encoder(dims),
        &encoder_fusion_plan(),
        opts,
    )
}

/// Runs the recipe for a GPT-2-style decoder block (pre-layer-norm,
/// causally masked self-attention) — Sec. VIII's claim that the recipe
/// transfers to other transformer blocks unchanged, demonstrated.
///
/// # Errors
///
/// Returns an error if any step fails.
pub fn optimize_decoder(
    device: &DeviceSpec,
    dims: &EncoderDims,
    opts: &RecipeOptions,
) -> Result<OptimizedEncoder> {
    let source = SimulatorSource {
        device: device.clone(),
    };
    optimize_step(
        &source,
        device,
        build::decoder(dims),
        &crate::fusion::decoder_fusion_plan(),
        opts,
    )
}

/// The generic recipe driver: fuse an arbitrary training-step graph with
/// the given plan, sweep, select, and assemble the plan rows.
///
/// # Errors
///
/// Returns an error if any step fails.
pub fn optimize_step(
    source: &dyn PerfSource,
    device: &DeviceSpec,
    bundle: build::EncoderGraph,
    plan: &[crate::fusion::FusionGroup],
    opts: &RecipeOptions,
) -> Result<OptimizedEncoder> {
    // Step 1: dataflow graph.
    let baseline = bundle.graph.clone();
    let mut graph = bundle.graph;
    // Step 2: fusion (after validating the plan against the graph).
    let problems = crate::fusion::validate_plan(&graph, plan);
    if !problems.is_empty() {
        return Err(xform_tensor::TensorError::Unsupported(format!(
            "fusion plan rejected: {}",
            problems.join("; ")
        )));
    }
    apply_plan(&mut graph, plan)?;
    let movement_reduction_pct =
        xform_dataflow::analysis::movement_reduction_pct(&baseline, &graph);
    // Step 3: layout sweeps.
    let sweeps = sweep_all(source, &graph, opts.sweep)?;
    optimize_swept(source, device, graph, &sweeps, movement_reduction_pct, opts)
}

/// The recipe's last two steps over a fused graph whose sweeps are already
/// taken: global selection of the forward pass, the per-op best for the
/// backward, and the plan rows. [`optimize_step`] is this after fusing and
/// sweeping; a caller that keeps the sweeps for other uses calls it
/// directly. `movement_reduction_pct` is reported as given.
///
/// # Errors
///
/// Returns an error if any step fails.
pub fn optimize_swept(
    source: &dyn PerfSource,
    device: &DeviceSpec,
    graph: Graph,
    sweeps: &HashMap<NodeId, SweepResult>,
    movement_reduction_pct: f64,
    opts: &RecipeOptions,
) -> Result<OptimizedEncoder> {
    // Step 4: global selection (forward), per-op best (backward).
    let dy = graph.data_by_name("dy").expect("encoder graph has dy");
    let fwd = forward_ops(&graph, dy);
    let bwd = backward_ops(&graph, dy);
    let selection = select_forward(&graph, device, &fwd, sweeps)?;

    let fwd_configs: HashMap<NodeId, &crate::sweep::ConfigTiming> =
        selection.per_op.iter().map(|(op, t)| (*op, t)).collect();

    let mut rows = Vec::new();
    let mut forward_us = 0.0;
    let mut backward_us = 0.0;
    for (ops, is_fwd) in [(&fwd, true), (&bwd, false)] {
        for &op in ops.iter() {
            let node = graph.op(op).expect("live op");
            let timing = match fwd_configs.get(&op) {
                Some(&t) => *t,
                None => sweeps[&op].best,
            };
            let cost = source.measure(&graph, op, &timing.cfg)?;
            let m = mue(&graph, op, &cost);
            let flop = xform_dataflow::flops::op_flop(&graph, op).unwrap_or(0);
            if is_fwd {
                forward_us += timing.time_us + opts.per_op_overhead_us;
            } else {
                backward_us += timing.time_us + opts.per_op_overhead_us;
            }
            rows.push(PlannedOp {
                op,
                name: node.name.clone(),
                class: node.kind.class(),
                forward: is_fwd,
                config: timing.cfg,
                time_us: timing.time_us,
                flop,
                mue: m,
            });
        }
    }
    Ok(OptimizedEncoder {
        graph,
        rows,
        forward_us,
        backward_us,
        selection,
        movement_reduction_pct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> RecipeOptions {
        RecipeOptions {
            sweep: SweepOptions {
                max_configs: Some(4_000),
                ..SweepOptions::default()
            },
            per_op_overhead_us: 1.0,
        }
    }

    #[test]
    fn forward_backward_split_is_clean() {
        let e = build::encoder(&EncoderDims::tiny());
        let dy = e.graph.data_by_name("dy").unwrap();
        let fwd = forward_ops(&e.graph, dy);
        let bwd = backward_ops(&e.graph, dy);
        assert_eq!(fwd.len(), 22);
        assert_eq!(bwd.len(), 28);
        for op in &fwd {
            assert!(!bwd.contains(op));
        }
    }

    #[test]
    fn optimized_encoder_beats_pytorch_model() {
        let device = DeviceSpec::v100();
        let dims = EncoderDims::bert_large();
        let ours = optimize_encoder(&device, &dims, &quick_opts()).unwrap();
        let pt_graph = build::encoder(&dims).graph;
        let pt = xform_gpusim::framework::execute(
            &pt_graph,
            &device,
            &xform_gpusim::framework::FrameworkPolicy::pytorch(),
        )
        .unwrap();
        let speedup = pt.total_us / ours.total_us();
        // Table V: 1.30× over PyTorch. Accept a generous band.
        assert!(speedup > 1.1, "speedup over PyTorch only {speedup:.2}×");
        assert!(speedup < 2.5, "speedup implausibly large: {speedup:.2}×");
    }

    #[test]
    fn optimized_totals_near_table5() {
        let device = DeviceSpec::v100();
        let ours = optimize_encoder(&device, &EncoderDims::bert_large(), &quick_opts()).unwrap();
        let fwd_ms = ours.forward_us / 1000.0;
        let bwd_ms = ours.backward_us / 1000.0;
        // Table V "Ours": 2.63 / 4.38 ms.
        assert!(fwd_ms > 1.5 && fwd_ms < 4.5, "forward {fwd_ms} ms");
        assert!(bwd_ms > 2.5 && bwd_ms < 7.0, "backward {bwd_ms} ms");
        assert!(bwd_ms > fwd_ms);
    }

    #[test]
    fn movement_reduction_matches_paper_band() {
        let device = DeviceSpec::v100();
        let ours = optimize_encoder(&device, &EncoderDims::bert_large(), &quick_opts()).unwrap();
        assert!(
            ours.movement_reduction_pct > 15.0 && ours.movement_reduction_pct < 30.0,
            "reduction {}%",
            ours.movement_reduction_pct
        );
    }

    #[test]
    fn decoder_recipe_runs_and_beats_pytorch_model() {
        let device = DeviceSpec::v100();
        let dims = EncoderDims::bert_large();
        let ours = optimize_decoder(&device, &dims, &quick_opts()).unwrap();
        let pt_graph = build::decoder(&dims).graph;
        let pt = xform_gpusim::framework::execute(
            &pt_graph,
            &device,
            &xform_gpusim::framework::FrameworkPolicy::pytorch(),
        )
        .unwrap();
        let speedup = pt.total_us / ours.total_us();
        assert!(speedup > 1.1, "decoder speedup {speedup:.2}×");
        assert!(ours.op_time_us("SM").is_some());
        assert!(ours.op_time_us("BDR").is_some());
        // decoder totals are in the encoder's ballpark (same contractions)
        let enc = optimize_encoder(&device, &dims, &quick_opts()).unwrap();
        let ratio = ours.total_us() / enc.total_us();
        assert!(
            ratio > 0.7 && ratio < 1.3,
            "decoder/encoder ratio {ratio:.2}"
        );
    }

    #[test]
    fn rows_cover_all_fused_ops() {
        let device = DeviceSpec::v100();
        let ours = optimize_encoder(&device, &EncoderDims::bert_large(), &quick_opts()).unwrap();
        assert_eq!(ours.rows.len(), ours.graph.ops().len());
        assert!(ours.op_time_us("SM").is_some());
        assert!(ours.op_time_us("BDRB").is_some());
        assert!(ours.op_time_us("Q,K,V").is_some());
        for r in &ours.rows {
            assert!(r.time_us > 0.0);
            assert!((0.0..=100.0).contains(&r.mue.value));
        }
    }
}
