//! Table-III-style reporting: per-operator flop, I/O, time, %peak, MUE and
//! speedup for the baseline (PyTorch model, unfused) vs the optimized
//! implementation (fused + globally selected layouts).

use xform_dataflow::{OpClass, OpKind};
use xform_gpusim::framework::ExecutionProfile;
use xform_gpusim::DeviceSpec;
use xform_tensor::Result;

use crate::recipe::OptimizedEncoder;

/// Flop expressed in the paper's units (Gi = 2³⁰ flop).
pub const GI: f64 = 1_073_741_824.0;

/// One row of the Table III reproduction: either a lone operator or a
/// group of baseline operators covered by one fused kernel.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Baseline operator names in the group (Table III's left column).
    pub members: Vec<String>,
    /// Fused kernel name, if the group is fused in our implementation.
    pub kernel: String,
    /// Operator class of the kernel.
    pub class: OpClass,
    /// Whether the row is part of forward propagation.
    pub forward: bool,
    /// Flop in Gi (2³⁰).
    pub gflop: f64,
    /// Input words (millions).
    pub input_mw: f64,
    /// Output words (millions).
    pub output_mw: f64,
    /// Baseline (PyTorch-model) time, summed over members (µs).
    pub pytorch_us: f64,
    /// Our kernel time (µs).
    pub ours_us: f64,
    /// Our achieved percentage of the relevant compute peak.
    pub ours_pct_peak: f64,
    /// Our MUE.
    pub mue: f64,
    /// Baseline-over-ours kernel speedup.
    pub speedup: f64,
}

/// The assembled Table III reproduction.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Rows in execution order (forward then backward).
    pub rows: Vec<Table3Row>,
    /// Totals per class: (class, pytorch µs, ours µs).
    pub class_totals: Vec<(OpClass, f64, f64)>,
    /// Grand totals (pytorch µs, ours µs).
    pub totals: (f64, f64),
    /// Data-movement reduction (%) of the fused graph vs unfused.
    pub movement_reduction_pct: f64,
}

/// Builds the Table III reproduction from the PyTorch model's profile of
/// the unfused graph (`pt`) and the recipe's optimized plan (`ours`) on
/// `device`.
pub fn table3(device: &DeviceSpec, pt: &ExecutionProfile, ours: &OptimizedEncoder) -> Table3 {
    let mut rows = Vec::new();
    let mut class_totals: Vec<(OpClass, f64, f64)> = vec![
        (OpClass::TensorContraction, 0.0, 0.0),
        (OpClass::StatisticalNormalization, 0.0, 0.0),
        (OpClass::Elementwise, 0.0, 0.0),
    ];
    for planned in &ours.rows {
        let node = ours.graph.op(planned.op).expect("live op");
        let members: Vec<String> = match &node.kind {
            OpKind::Fused { parts, .. } => parts.clone(),
            _ => vec![node.name.clone()],
        };
        let pytorch_us: f64 = members
            .iter()
            .map(|m| pt.op_time_us(m).unwrap_or(0.0))
            .sum();
        let peak = match planned.class {
            OpClass::TensorContraction => device.tensor_core_tflops,
            _ => device.fp16_tflops,
        };
        let pct = 100.0 * planned.flop as f64 / (planned.time_us * 1e-6) / (peak * 1e12);
        let row = Table3Row {
            members,
            kernel: node.name.clone(),
            class: planned.class,
            forward: planned.forward,
            gflop: planned.flop as f64 / GI,
            input_mw: ours.graph.input_words(planned.op) as f64 / 1e6,
            output_mw: ours.graph.output_words(planned.op) as f64 / 1e6,
            pytorch_us,
            ours_us: planned.time_us,
            ours_pct_peak: pct,
            mue: planned.mue.value,
            speedup: if planned.time_us > 0.0 {
                pytorch_us / planned.time_us
            } else {
                0.0
            },
        };
        for (class, p, o) in class_totals.iter_mut() {
            if *class == planned.class {
                *p += row.pytorch_us;
                *o += row.ours_us;
            }
        }
        rows.push(row);
    }
    let totals = (
        class_totals.iter().map(|(_, p, _)| p).sum(),
        class_totals.iter().map(|(_, _, o)| o).sum(),
    );
    Table3 {
        rows,
        class_totals,
        totals,
        movement_reduction_pct: ours.movement_reduction_pct,
    }
}

/// One entry of the bottleneck ranking (Sec. VI-C: "we use flop and MUE
/// rates as proxies for which operators require the most attention and
/// their corresponding bottlenecks").
#[derive(Debug, Clone)]
pub struct Bottleneck {
    /// Kernel name.
    pub name: String,
    /// Operator class.
    pub class: OpClass,
    /// Kernel time (µs).
    pub time_us: f64,
    /// Memory usage efficiency.
    pub mue: f64,
    /// Achieved percentage of the relevant compute peak.
    pub pct_peak: f64,
    /// The paper's classification: memory-bound iff `MUE > % peak`.
    pub memory_bound: bool,
    /// Share of total kernel time.
    pub share_pct: f64,
}

/// Ranks an optimized plan's kernels by time, with the paper's
/// memory-/compute-bound classification attached — the guided-optimization
/// view ("ensures a guided optimization rather than tuning all operators
/// aggressively").
pub fn bottlenecks(device: &DeviceSpec, plan: &OptimizedEncoder) -> Vec<Bottleneck> {
    let total: f64 = plan.rows.iter().map(|r| r.time_us).sum();
    let mut out: Vec<Bottleneck> = plan
        .rows
        .iter()
        .map(|r| {
            let peak = match r.class {
                OpClass::TensorContraction => device.tensor_core_tflops,
                _ => device.fp16_tflops,
            };
            let pct = 100.0 * r.flop as f64 / (r.time_us * 1e-6) / (peak * 1e12);
            Bottleneck {
                name: r.name.clone(),
                class: r.class,
                time_us: r.time_us,
                mue: r.mue.value,
                pct_peak: pct,
                memory_bound: xform_gpusim::mue::is_memory_bound(r.mue.value, pct),
                share_pct: 100.0 * r.time_us / total.max(1e-9),
            }
        })
        .collect();
    out.sort_by(|a, b| b.time_us.total_cmp(&a.time_us));
    out
}

/// Counterfactual totals for an optimized plan: what the same selected
/// configurations would cost on hypothetical hardware. Quantifies the
/// paper's closing point — even after optimization, the remaining time is
/// substantially data movement, so bandwidth (not flop/s) is where future
/// hardware must spend.
#[derive(Debug, Clone, Copy)]
pub struct WhatIf {
    /// The plan's actual total (µs).
    pub current_us: f64,
    /// Total with 10× DRAM bandwidth, same compute (µs).
    pub bandwidth_10x_us: f64,
    /// Total with 10× compute peaks, same bandwidth (µs).
    pub compute_10x_us: f64,
    /// Total with kernel-launch overhead removed (µs).
    pub zero_launch_us: f64,
}

/// Re-prices a plan's selected configurations on modified devices.
///
/// # Errors
///
/// Returns an error if a configuration fails to re-price (should not
/// happen for a plan produced by the recipe).
pub fn whatif(device: &DeviceSpec, plan: &OptimizedEncoder) -> Result<WhatIf> {
    let total = |d: &DeviceSpec| -> Result<f64> {
        let mut t = 0.0;
        for r in &plan.rows {
            t += xform_gpusim::opmodel::op_cost(d, &plan.graph, r.op, &r.config)?.time_us;
        }
        Ok(t)
    };
    let mut bw = device.clone();
    bw.dram_bandwidth_gbs *= 10.0;
    let mut compute = device.clone();
    compute.tensor_core_tflops *= 10.0;
    compute.fp16_tflops *= 10.0;
    compute.fp32_tflops *= 10.0;
    let mut nolaunch = device.clone();
    nolaunch.kernel_launch_us = 0.0;
    Ok(WhatIf {
        current_us: total(device)?,
        bandwidth_10x_us: total(&bw)?,
        compute_10x_us: total(&compute)?,
        zero_launch_us: total(&nolaunch)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipe::{optimize_encoder, RecipeOptions};
    use crate::sweep::SweepOptions;
    use xform_dataflow::{build, EncoderDims};
    use xform_gpusim::framework::{execute, FrameworkPolicy};

    fn quick() -> RecipeOptions {
        RecipeOptions {
            sweep: SweepOptions {
                max_configs: Some(4_000),
                ..SweepOptions::default()
            },
            per_op_overhead_us: 1.0,
        }
    }

    fn quick_table3() -> Table3 {
        let (device, dims) = (DeviceSpec::v100(), EncoderDims::bert_large());
        let pt = execute(
            &build::encoder(&dims).graph,
            &device,
            &FrameworkPolicy::pytorch(),
        );
        let ours = optimize_encoder(&device, &dims, &quick()).unwrap();
        table3(&device, &pt.unwrap(), &ours)
    }

    #[test]
    fn table3_overall_speedup_in_band() {
        let t = quick_table3();
        let speedup = t.totals.0 / t.totals.1;
        // Table III bottom line: 1.20× kernel-level speedup over PyTorch.
        assert!(speedup > 1.05, "kernel speedup {speedup:.2}×");
        assert!(speedup < 2.0, "kernel speedup {speedup:.2}× too large");
    }

    #[test]
    fn contractions_dominate_flop_but_not_runtime_share() {
        let t = quick_table3();
        let flop_tc: f64 = t
            .rows
            .iter()
            .filter(|r| r.class == OpClass::TensorContraction)
            .map(|r| r.gflop)
            .sum();
        let flop_all: f64 = t.rows.iter().map(|r| r.gflop).sum();
        assert!(flop_tc / flop_all > 0.995);
        let (_, pt_tc, _) = t.class_totals[0];
        assert!(
            pt_tc / t.totals.0 < 0.9,
            "contraction runtime share too high"
        );
    }

    #[test]
    fn fused_rows_group_members() {
        let t = quick_table3();
        let sm = t.rows.iter().find(|r| r.kernel == "SM").unwrap();
        assert_eq!(sm.members, vec!["Scaled softmax", "Dropout att"]);
        assert!(sm.forward);
        let bdrb = t.rows.iter().find(|r| r.kernel == "BDRB").unwrap();
        assert_eq!(bdrb.members.len(), 4);
        assert!(!bdrb.forward);
    }

    #[test]
    fn bottleneck_ranking_is_consistent() {
        let device = DeviceSpec::v100();
        let plan = optimize_encoder(&device, &EncoderDims::bert_large(), &quick()).unwrap();
        let ranked = bottlenecks(&device, &plan);
        assert_eq!(ranked.len(), plan.rows.len());
        // sorted descending, shares sum to 100
        for w in ranked.windows(2) {
            assert!(w[0].time_us >= w[1].time_us);
        }
        let share: f64 = ranked.iter().map(|b| b.share_pct).sum();
        assert!((share - 100.0).abs() < 1e-6);
        // the paper's classification: fused normalization kernels are
        // memory-bound, big linears are compute-bound
        let sm = ranked.iter().find(|b| b.name == "SM").unwrap();
        assert!(sm.memory_bound, "SM should be memory-bound");
        let lin = ranked.iter().find(|b| b.name == "Linear 1").unwrap();
        assert!(!lin.memory_bound, "Linear 1 should be compute-bound");
    }

    #[test]
    fn whatif_shows_bandwidth_matters_more_than_compute() {
        let device = DeviceSpec::v100();
        let plan = optimize_encoder(&device, &EncoderDims::bert_large(), &quick()).unwrap();
        let w = whatif(&device, &plan).unwrap();
        assert!(w.bandwidth_10x_us < w.current_us);
        assert!(w.compute_10x_us < w.current_us);
        assert!(w.zero_launch_us <= w.current_us);
        // the paper's conclusion: after optimization, compute-scaling alone
        // leaves most of the time on the table compared to its own ideal —
        // the residual is data movement
        let compute_gain = w.current_us / w.compute_10x_us;
        assert!(
            compute_gain < 6.0,
            "10× compute gave {compute_gain:.1}× — model is not memory-limited enough"
        );
        let bw_gain = w.current_us / w.bandwidth_10x_us;
        assert!(bw_gain > 1.1, "bandwidth gain {bw_gain:.2}×");
    }

    #[test]
    fn most_fused_kernels_beat_pytorch() {
        // Table III: in forward propagation every fused operator
        // outperforms PyTorch's; backward has a couple of exceptions
        // (EBSB, BAOB) due to globally-driven layout choices.
        let t = quick_table3();
        let fused_rows: Vec<_> = t.rows.iter().filter(|r| r.members.len() > 1).collect();
        assert!(!fused_rows.is_empty());
        let wins = fused_rows.iter().filter(|r| r.speedup > 1.0).count();
        assert!(
            wins * 10 >= fused_rows.len() * 7,
            "only {wins}/{} fused kernels beat the baseline",
            fused_rows.len()
        );
    }
}
