//! Execution models of the baseline frameworks the paper compares against
//! (Sec. III-D, Tables IV & V): PyTorch, TensorFlow+XLA, DeepSpeed, and
//! cuDNN's experimental multi-head-attention path.
//!
//! Each framework is modelled as a *policy* for executing a dataflow graph:
//! how aggressively kernels are tuned, how much per-kernel dispatch
//! overhead the framework adds, and which graph (fused or unfused) it runs.
//! The caller supplies the graph — e.g. the unfused encoder graph for
//! PyTorch, an element-wise-fused graph for XLA — mirroring what each
//! framework's compiler achieves, while the policy captures layout/tuning
//! quality. Calibration targets are the paper's measured tables; constants
//! are documented next to their targets.

use xform_dataflow::{EncoderDims, Graph, NodeId, OpClass};
use xform_tensor::Result;

use crate::contraction::{heuristic_algorithm, GemmShape, KernelCost};
use crate::device::DeviceSpec;
use crate::mue::{mue, Mue};
use crate::opmodel::{config_space, op_cost, OpConfig, OpModel};

/// How thoroughly a framework tunes its kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuningLevel {
    /// Exhaustive sweep over the configuration space (the paper's recipe).
    Exhaustive,
    /// Library heuristics: natural layouts, heuristic algorithm choice.
    Heuristic,
    /// Fixed default configuration, no tuning.
    Fixed,
}

/// An execution policy modelling one framework.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameworkPolicy {
    /// Framework name for reports.
    pub name: String,
    /// Per-operator dispatch overhead in µs (framework bookkeeping on top
    /// of the kernel launch, which the device model already charges).
    pub per_op_overhead_us: f64,
    /// How contractions are tuned.
    pub contraction_tuning: TuningLevel,
    /// How normalization/element-wise kernels are tuned.
    pub kernel_tuning: TuningLevel,
    /// Throughput multiplier (≤ 1) for statistical-normalization kernels
    /// (softmax/layer-norm family). PyTorch's generic reductions run far
    /// below streaming bandwidth (Table III: softmax at 1.3% peak).
    pub normalization_quality: f64,
    /// Throughput multiplier (≤ 1) for element-wise kernels, which even
    /// eager frameworks execute near streaming bandwidth.
    pub elementwise_quality: f64,
    /// Throughput multiplier (≤ 1) for contraction kernels, capturing
    /// suboptimal layout choices feeding cuBLAS.
    pub contraction_quality: f64,
}

impl FrameworkPolicy {
    /// PyTorch 1.5 (Table V: 3.45 / 5.69 ms). Eager per-op dispatch, good
    /// cuBLAS layouts (PyTorch's layouts "enable faster tensor
    /// contractions", Sec. VI-C) but generic unfused element-wise kernels.
    pub fn pytorch() -> Self {
        FrameworkPolicy {
            name: "PyTorch".into(),
            per_op_overhead_us: 5.0,
            contraction_tuning: TuningLevel::Heuristic,
            kernel_tuning: TuningLevel::Fixed,
            normalization_quality: 0.50,
            elementwise_quality: 0.92,
            contraction_quality: 1.0,
        }
    }

    /// TensorFlow 2.1 + XLA (Table V: 3.2 / 5.2 ms). Fuses element-wise
    /// chains (run it on a fused graph) but "uses subpar data layouts for
    /// tensor contractions" and misses the algebraic QKV fusion.
    pub fn tf_xla() -> Self {
        FrameworkPolicy {
            name: "TF+XLA".into(),
            per_op_overhead_us: 3.0,
            contraction_tuning: TuningLevel::Heuristic,
            kernel_tuning: TuningLevel::Fixed,
            normalization_quality: 0.80,
            elementwise_quality: 0.90,
            contraction_quality: 0.90,
        }
    }

    /// DeepSpeed (Table V: 2.8 / 4.8 ms): manually fused and tuned kernels
    /// for BERT; run it on a fused graph.
    pub fn deepspeed() -> Self {
        FrameworkPolicy {
            name: "DeepSpeed".into(),
            per_op_overhead_us: 2.0,
            contraction_tuning: TuningLevel::Heuristic,
            kernel_tuning: TuningLevel::Heuristic,
            normalization_quality: 0.92,
            elementwise_quality: 0.97,
            contraction_quality: 0.99,
        }
    }

    /// The paper's implementation (run on the fused graph with the
    /// recipe-selected configurations; `xform-core` normally drives this
    /// with per-op tuned configs instead of this generic policy).
    pub fn ours() -> Self {
        FrameworkPolicy {
            name: "Ours".into(),
            per_op_overhead_us: 1.0,
            contraction_tuning: TuningLevel::Exhaustive,
            kernel_tuning: TuningLevel::Exhaustive,
            normalization_quality: 1.0,
            elementwise_quality: 1.0,
            contraction_quality: 1.0,
        }
    }
}

/// Timing of one operator under a policy.
#[derive(Debug, Clone)]
pub struct OpProfile {
    /// Operator id.
    pub op: NodeId,
    /// Operator name.
    pub name: String,
    /// Operator class.
    pub class: OpClass,
    /// Modelled kernel cost.
    pub cost: KernelCost,
    /// MUE analysis.
    pub mue: Mue,
    /// Dispatch overhead charged on top of the kernel.
    pub overhead_us: f64,
}

/// A full execution profile of a graph under a policy.
#[derive(Debug, Clone)]
pub struct ExecutionProfile {
    /// Framework name.
    pub framework: String,
    /// Per-operator rows in execution order.
    pub rows: Vec<OpProfile>,
    /// Total time in µs (kernels + overheads).
    pub total_us: f64,
}

impl ExecutionProfile {
    /// Total µs spent in operators of one class.
    pub fn class_time_us(&self, class: OpClass) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.cost.time_us + r.overhead_us)
            .sum()
    }

    /// Time of one named operator (kernel only), if present.
    pub fn op_time_us(&self, name: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.cost.time_us)
    }
}

/// Chooses a configuration for one op under a tuning level.
fn choose_config(
    graph: &Graph,
    device: &DeviceSpec,
    op: NodeId,
    tuning: TuningLevel,
) -> Result<(OpConfig, KernelCost)> {
    let natural = OpConfig::natural(graph, op)?;
    match tuning {
        TuningLevel::Fixed => {
            let cost = op_cost(device, graph, op, &natural)?;
            Ok((natural, cost))
        }
        TuningLevel::Heuristic => {
            // Natural layouts; for contractions, the library's heuristic
            // algorithm instead of the default id.
            let mut cfg = natural;
            if let Some(node) = graph.op(op) {
                if let xform_dataflow::OpKind::Einsum(spec) = &node.kind {
                    let inputs = graph.inputs_of(op);
                    if inputs.len() >= 2 {
                        let a = &graph.data(inputs[0]).expect("data").shape;
                        let b = &graph.data(inputs[1]).expect("data").shape;
                        if let Ok(s) = spec.gemm_sizes(a, b) {
                            cfg.algo = heuristic_algorithm(GemmShape {
                                batch: s.batch,
                                m: s.m,
                                n: s.n,
                                k: s.k,
                            })
                            .id;
                        }
                    }
                }
            }
            let cost = op_cost(device, graph, op, &cfg)?;
            Ok((cfg, cost))
        }
        TuningLevel::Exhaustive => {
            let space = config_space(graph, op)?;
            let model = OpModel::new(graph, op)?;
            let mut best: Option<(OpConfig, KernelCost)> = None;
            for (cfg, cost) in space.clone().zip(model.costs(device, space)) {
                if let Ok(cost) = cost {
                    if best
                        .as_ref()
                        .map(|(_, b)| cost.time_us < b.time_us)
                        .unwrap_or(true)
                    {
                        best = Some((cfg, cost));
                    }
                }
            }
            best.ok_or_else(|| {
                xform_tensor::TensorError::Unsupported("empty configuration space".into())
            })
        }
    }
}

/// Executes a graph under a framework policy, producing per-op timings.
///
/// # Errors
///
/// Returns an error if any operator cannot be priced.
///
/// # Examples
///
/// ```
/// use xform_dataflow::{build, EncoderDims};
/// use xform_gpusim::framework::{execute, FrameworkPolicy};
/// use xform_gpusim::DeviceSpec;
/// let g = build::encoder(&EncoderDims::bert_large()).graph;
/// let profile = execute(&g, &DeviceSpec::v100(), &FrameworkPolicy::pytorch()).unwrap();
/// // Table V ballpark: ~10 ms for one layer, fwd+bwd
/// assert!(profile.total_us > 5_000.0 && profile.total_us < 20_000.0);
/// ```
pub fn execute(
    graph: &Graph,
    device: &DeviceSpec,
    policy: &FrameworkPolicy,
) -> Result<ExecutionProfile> {
    let mut rows = Vec::new();
    let mut total = 0.0f64;
    for op in graph.ops() {
        let node = graph.op(op).expect("live op");
        let class = node.kind.class();
        let tuning = match class {
            OpClass::TensorContraction => policy.contraction_tuning,
            _ => policy.kernel_tuning,
        };
        let (_, mut cost) = choose_config(graph, device, op, tuning)?;
        let quality = match class {
            OpClass::TensorContraction => policy.contraction_quality,
            OpClass::StatisticalNormalization => policy.normalization_quality,
            OpClass::Elementwise => policy.elementwise_quality,
        };
        // Quality scales the kernel body, not the launch overhead.
        let body = (cost.time_us - device.kernel_launch_us).max(0.0);
        cost.time_us = device.kernel_launch_us + body / quality;
        cost.bandwidth_frac *= quality;
        let m = mue(graph, op, &cost);
        total += cost.time_us + policy.per_op_overhead_us;
        rows.push(OpProfile {
            op,
            name: node.name.clone(),
            class,
            cost,
            mue: m,
            overhead_us: policy.per_op_overhead_us,
        });
    }
    Ok(ExecutionProfile {
        framework: policy.name.clone(),
        rows,
        total_us: total,
    })
}

/// Models cuDNN's experimental `cudnnMultiHeadAttnForward` path (Table IV:
/// 131 ms forward, 652 ms backward — orders of magnitude slower). Profiling
/// in the paper shows the implementation "launches very large numbers of
/// softmax kernels, which dominate the runtime"; the model charges one
/// kernel launch per (head, sequence-block) softmax slice plus the
/// underlying GEMM work.
pub fn cudnn_mha_time_ms(device: &DeviceSpec, dims: &EncoderDims) -> (f64, f64) {
    // One softmax kernel per head, per sample, per 8-row block of the
    // attention matrix, plus assorted setup kernels.
    let softmax_launches = (dims.h * dims.b * dims.j.div_ceil(8)) as f64;
    // Each tiny kernel costs launch overhead plus a poorly-utilized sweep
    // of its 8×K slice (uncoalesced: ~5% of peak bandwidth).
    let slice_bytes = (8 * dims.k * device.word_bytes) as f64;
    let per_kernel_us = device.kernel_launch_us + device.stream_time_us(slice_bytes, 0.05);
    let gemm_us = 1200.0; // projections + score/output GEMMs, decently tuned
    let fwd_ms = (softmax_launches * per_kernel_us + gemm_us) / 1000.0;
    // Backward re-runs the storm for softmax dX and the dropout mask, and
    // adds recomputation: measured ratio is ≈5× forward.
    let bwd_ms = fwd_ms * 5.0;
    (fwd_ms, bwd_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xform_dataflow::build;

    #[test]
    fn pytorch_encoder_total_near_table5() {
        // Table V: PyTorch forward+backward = 9.14 ms (3.45 + 5.69).
        let e = build::encoder(&EncoderDims::bert_large());
        let p = execute(&e.graph, &DeviceSpec::v100(), &FrameworkPolicy::pytorch()).unwrap();
        let ms = p.total_us / 1000.0;
        assert!(ms > 6.0 && ms < 13.0, "PyTorch encoder fwd+bwd {ms} ms");
    }

    #[test]
    fn class_runtime_shares_match_table1_shape() {
        // Table I: contractions 61% of runtime, normalization 25.5%,
        // element-wise 13.5% — despite the >99.8% flop share.
        let e = build::encoder(&EncoderDims::bert_large());
        let p = execute(&e.graph, &DeviceSpec::v100(), &FrameworkPolicy::pytorch()).unwrap();
        let tc = p.class_time_us(OpClass::TensorContraction);
        let sn = p.class_time_us(OpClass::StatisticalNormalization);
        let ew = p.class_time_us(OpClass::Elementwise);
        let total = tc + sn + ew;
        let tc_pct = 100.0 * tc / total;
        let nc_pct = 100.0 * (sn + ew) / total;
        assert!(
            tc_pct > 45.0 && tc_pct < 75.0,
            "contraction runtime {tc_pct}%"
        );
        assert!(nc_pct > 25.0, "non-contraction runtime {nc_pct}%");
    }

    #[test]
    fn deepspeed_policy_beats_pytorch() {
        let e = build::encoder(&EncoderDims::bert_large());
        let d = DeviceSpec::v100();
        let pt = execute(&e.graph, &d, &FrameworkPolicy::pytorch()).unwrap();
        let ds = execute(&e.graph, &d, &FrameworkPolicy::deepspeed()).unwrap();
        assert!(ds.total_us < pt.total_us);
    }

    #[test]
    fn cudnn_mha_is_orders_of_magnitude_slower() {
        let (fwd, bwd) = cudnn_mha_time_ms(&DeviceSpec::v100(), &EncoderDims::bert_large());
        // Table IV: 131 / 652 ms vs ~1-3 ms for everyone else.
        assert!(fwd > 30.0, "cuDNN fwd {fwd} ms");
        assert!(bwd > 4.0 * fwd);
        assert!(fwd < 500.0);
    }

    #[test]
    fn op_profile_lookup() {
        let e = build::encoder(&EncoderDims::bert_large());
        let p = execute(&e.graph, &DeviceSpec::v100(), &FrameworkPolicy::pytorch()).unwrap();
        assert!(p.op_time_us("Linear 1").unwrap() > 100.0);
        assert!(p.op_time_us("nonexistent").is_none());
        assert_eq!(p.rows.len(), e.graph.ops().len());
    }
}
