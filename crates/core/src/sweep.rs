//! Exhaustive per-operator configuration sweeps (Sec. V).
//!
//! For each operator, every feasible configuration (layout permutations,
//! vectorization/warp axes, GEMM algorithm, math mode) is priced through a
//! [`PerfSource`] — the V100 model by default, but the trait also admits
//! real CPU measurements, demonstrating that the recipe is
//! hardware-agnostic. The sweep records the full runtime distribution
//! (Figs. 4 & 5) and, for the configuration-selection step, the best
//! configuration for every (input-layout, output-layout) pair.

use std::collections::{BTreeMap, HashMap};

use xform_dataflow::{DataRole, Graph, NodeId};
use xform_gpusim::opmodel::{config_space, op_cost, primary_tensors, OpConfig, OpModel};
use xform_gpusim::{DeviceSpec, KernelCost};
use xform_tensor::{Layout, Result, TensorError};

/// A provider of per-configuration operator timings.
///
/// Sources must be [`Sync`]: [`sweep_all`] prices different operators from
/// multiple threads against one shared source.
pub trait PerfSource: Sync {
    /// Human-readable source name (for reports).
    fn name(&self) -> &str;

    /// Prices one operator configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid for the operator.
    fn measure(&self, graph: &Graph, op: NodeId, cfg: &OpConfig) -> Result<KernelCost>;

    /// Prices many configurations of one operator. Sources should override
    /// this when per-operator setup (shape gathering, buffer allocation)
    /// can be amortized across the sweep.
    fn measure_many(
        &self,
        graph: &Graph,
        op: NodeId,
        cfgs: &[OpConfig],
    ) -> Vec<Result<KernelCost>> {
        cfgs.iter().map(|c| self.measure(graph, op, c)).collect()
    }
}

/// The analytical V100 model as a performance source.
#[derive(Debug, Clone, Default)]
pub struct SimulatorSource {
    /// The modelled device.
    pub device: DeviceSpec,
}

impl PerfSource for SimulatorSource {
    fn name(&self) -> &str {
        &self.device.name
    }

    fn measure(&self, graph: &Graph, op: NodeId, cfg: &OpConfig) -> Result<KernelCost> {
        op_cost(&self.device, graph, op, cfg)
    }

    /// One [`OpModel`] prices the whole batch, each GEMM class once
    /// ([`OpModel::costs`]).
    fn measure_many(
        &self,
        graph: &Graph,
        op: NodeId,
        cfgs: &[OpConfig],
    ) -> Vec<Result<KernelCost>> {
        match OpModel::new(graph, op) {
            Ok(model) => model.costs(&self.device, cfgs.iter().copied()).collect(),
            Err(e) => cfgs.iter().map(|_| Err(e.clone())).collect(),
        }
    }
}

/// One timed configuration.
#[derive(Debug, Clone, Copy)]
pub struct ConfigTiming {
    /// The configuration.
    pub cfg: OpConfig,
    /// Its modelled/measured kernel time in µs.
    pub time_us: f64,
}

/// Sweep output for one operator.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The operator id.
    pub op: NodeId,
    /// The operator name.
    pub name: String,
    /// Fastest configuration found.
    pub best: ConfigTiming,
    /// Slowest sampled time (the far end of the violin).
    pub worst_us: f64,
    /// Every sampled time, unsorted (the distribution of Figs. 4/5).
    pub times_us: Vec<f64>,
    /// Best configuration per (flowing-input layout, primary-output
    /// layout) pair — the edge weights of the selection graph (Sec. VI-A),
    /// in layout order, so whoever walks it meets equal-cost pairs in the
    /// same order every run.
    pub per_io: BTreeMap<(Layout, Layout), ConfigTiming>,
    /// Index of the flowing input among the op's inputs.
    pub flowing_input: usize,
}

/// Options controlling a sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// If set, sample at most this many configurations (stride sampling).
    /// Best/worst remain correct with respect to the sample only.
    pub max_configs: Option<usize>,
    /// Worker threads [`sweep_all`] spreads operators across. Defaults to
    /// the host's available parallelism; `1` (or `0`) sweeps serially.
    /// Results are identical regardless of the thread count — each
    /// operator's sweep is an independent pure computation.
    pub threads: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            max_configs: None,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// The index of an operator's *flowing* input: the non-weight input with
/// the largest memlet volume (ties broken by position). This is the tensor
/// whose layout the configuration-selection chain threads through the
/// graph.
pub fn flowing_input_index(graph: &Graph, op: NodeId) -> usize {
    let topo = graph.topo_ops();
    let rank = |id: NodeId| topo.iter().position(|&o| o == id).unwrap_or(0);
    let inputs = graph.inputs_of(op);
    let mut best = 0usize;
    let mut best_key = (0u64, 0usize);
    for (i, &d) in inputs.iter().enumerate() {
        let Some(node) = graph.data(d) else { continue };
        if node.role == DataRole::Weight {
            continue;
        }
        let vol = node.shape.num_elements() as u64;
        // Ties (equal volumes) go to the tensor whose producer executes
        // latest: the one deeper in the chain is the true flowing
        // continuation (e.g. Gamma's `alpha` from softmax, not its `vv`
        // from the input projections).
        let producer_rank = graph
            .producers_of(d)
            .into_iter()
            .map(rank)
            .max()
            .unwrap_or(0);
        let key = (vol, producer_rank);
        if key > best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// Per output of `op`, whether a configuration's output layout is that
/// output's layout. A configuration is priced over one output
/// ([`primary_tensors`]); the outputs with that output's axes share its
/// layout, provided the first output has its rank. A fused kernel whose
/// outputs name their axes differently — `AIB` writes `qq` over `p,h,b,j`
/// and `vv` over `w,h,b,k`, and is priced over `vv` — lays out only the
/// ones shaped like the priced one: the lowering leaves the others natural
/// and the selection cannot chain a layout through them.
pub fn outputs_laid_out(graph: &Graph, op: NodeId) -> Vec<bool> {
    let outputs = graph.outputs_of(op);
    let shape = |id: NodeId| graph.data(id).map(|d| &d.shape);
    let Some(priced) = primary_tensors(graph, op).ok().and_then(|t| shape(t.1)) else {
        return vec![false; outputs.len()];
    };
    let first = outputs.first().and_then(|&id| shape(id));
    let first_fits = first.is_some_and(|s| s.rank() == priced.rank());
    let laid_out =
        |&id: &NodeId| first_fits && shape(id).is_some_and(|s| s.axes() == priced.axes());
    outputs.iter().map(laid_out).collect()
}

/// Sweeps one operator's configuration space through a performance source.
///
/// # Errors
///
/// Returns an error if the op is invalid, the space is empty, or
/// `opts.max_configs` is `Some(0)`.
///
/// # Examples
///
/// ```
/// use xform_core::sweep::{sweep_op, SimulatorSource, SweepOptions};
/// use xform_dataflow::{build, EncoderDims};
/// let e = build::encoder(&EncoderDims::bert_large());
/// let op = e.graph.op_by_name("Scaled softmax").unwrap();
/// let r = sweep_op(&SimulatorSource::default(), &e.graph, op,
///                  SweepOptions { max_configs: Some(200), ..SweepOptions::default() }).unwrap();
/// assert!(r.worst_us >= r.best.time_us); // layouts matter
/// ```
pub fn sweep_op(
    source: &dyn PerfSource,
    graph: &Graph,
    op: NodeId,
    opts: SweepOptions,
) -> Result<SweepResult> {
    let name = graph
        .op(op)
        .ok_or_else(|| TensorError::Unsupported(format!("{op} is not an operator")))?
        .name
        .clone();
    let space = config_space(graph, op)?;
    let stride = match opts.max_configs {
        Some(0) => return Err(nothing_sampled()),
        Some(m) if space.len() > m => space.len().div_ceil(m),
        _ => 1,
    };
    let flowing = flowing_input_index(graph, op);
    let sampled: Vec<OpConfig> = space.step_by(stride).collect();
    let costs = source.measure_many(graph, op, &sampled);
    // the layouts `per_io` is keyed by: the flowing input's and the output's
    let io = |cfg: &OpConfig| match cfg.in2_layout {
        Some(in2) if flowing == 1 => (in2, cfg.out_layout),
        _ => (cfg.in_layout, cfg.out_layout),
    };
    // `per_io` as a dense table over the pair's permutation ranks, walked in
    // index order — layout order — at the end; never larger than the space
    let layouts = |l: Layout| (1..=l.rank()).product::<usize>();
    let (ins, outs) = sampled
        .first()
        .map(io)
        .map_or((0, 0), |(i, o)| (layouts(i), layouts(o)));
    let mut per_io: Vec<Option<ConfigTiming>> = vec![None; ins * outs];
    let mut best: Option<ConfigTiming> = None;
    let mut worst = 0.0f64;
    let mut times = Vec::with_capacity(sampled.len());
    for (cfg, cost) in sampled.into_iter().zip(costs) {
        let Ok(cost) = cost else { continue };
        let t = cost.time_us;
        times.push(t);
        worst = worst.max(t);
        let timing = ConfigTiming { cfg, time_us: t };
        if best.as_ref().map(|b| t < b.time_us).unwrap_or(true) {
            best = Some(timing);
        }
        let (i, o) = io(&cfg);
        match &mut per_io[i.index() * outs + o.index()] {
            Some(prev) if prev.time_us <= t => {}
            slot => *slot = Some(timing),
        }
    }
    let best = best
        .ok_or_else(|| TensorError::Unsupported(format!("no valid configuration for `{name}`")))?;
    let per_io = per_io
        .into_iter()
        .flatten()
        .map(|t| (io(&t.cfg), t))
        .collect();
    Ok(SweepResult {
        op,
        name,
        best,
        worst_us: worst,
        times_us: times,
        per_io,
        flowing_input: flowing,
    })
}

/// A cap of zero configurations.
fn nothing_sampled() -> TensorError {
    TensorError::Unsupported("a sweep capped at 0 configurations samples nothing".into())
}

/// Sweeps every operator of a graph, with per-op results keyed by id.
///
/// Operators are striped across `opts.threads` scoped worker threads
/// ([`crossbeam::scope`]); each operator's sweep is an independent pure
/// computation, so the result map is identical for any thread count.
///
/// # Errors
///
/// Propagates the first per-op failure (in operator order).
pub fn sweep_all(
    source: &dyn PerfSource,
    graph: &Graph,
    opts: SweepOptions,
) -> Result<HashMap<NodeId, SweepResult>> {
    let ops = graph.ops();
    let threads = opts.threads.max(1).min(ops.len().max(1));
    if threads <= 1 {
        let mut out = HashMap::new();
        for op in ops {
            out.insert(op, sweep_op(source, graph, op, opts)?);
        }
        return Ok(out);
    }
    let results: Vec<Vec<(usize, Result<SweepResult>)>> = crossbeam::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let ops = &ops;
                s.spawn(move |_| {
                    ops.iter()
                        .enumerate()
                        .skip(t)
                        .step_by(threads)
                        .map(|(i, &op)| (i, sweep_op(source, graph, op, opts)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    })
    .expect("sweep scope panicked");
    // merge, surfacing the earliest failure in operator order
    let mut merged: Vec<Option<Result<SweepResult>>> = (0..ops.len()).map(|_| None).collect();
    for (i, r) in results.into_iter().flatten() {
        merged[i] = Some(r);
    }
    let mut out = HashMap::new();
    for (slot, &op) in merged.into_iter().zip(&ops) {
        let r = slot.expect("every operator swept")?;
        out.insert(op, r);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xform_dataflow::{build, EncoderDims};

    fn sim() -> SimulatorSource {
        SimulatorSource::default()
    }

    #[test]
    fn sweep_finds_spread_on_softmax() {
        let e = build::encoder(&EncoderDims::bert_large());
        let op = e.graph.op_by_name("Scaled softmax").unwrap();
        let r = sweep_op(&sim(), &e.graph, op, SweepOptions::default()).unwrap();
        assert!(r.worst_us / r.best.time_us > 5.0);
        assert!(!r.per_io.is_empty());
        assert_eq!(r.times_us.len(), 24 * 24 * 4 * 4);
    }

    #[test]
    fn per_io_entries_dominate_best() {
        let e = build::encoder(&EncoderDims::bert_large());
        let op = e.graph.op_by_name("Dropout 1").unwrap();
        let r = sweep_op(&sim(), &e.graph, op, SweepOptions::default()).unwrap();
        for ct in r.per_io.values() {
            assert!(ct.time_us >= r.best.time_us - 1e-9);
        }
        // the best config's own (in, out) pair must hold the best time
        let key = (r.best.cfg.in_layout, r.best.cfg.out_layout);
        assert!((r.per_io[&key].time_us - r.best.time_us).abs() < 1e-9);
    }

    #[test]
    fn sampling_caps_the_space() {
        let e = build::encoder(&EncoderDims::bert_large());
        let op = e.graph.op_by_name("QKT").unwrap();
        let r = sweep_op(
            &sim(),
            &e.graph,
            op,
            SweepOptions {
                max_configs: Some(500),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert!(r.times_us.len() <= 500);
        assert!(r.best.time_us > 0.0);
    }

    #[test]
    fn flowing_input_skips_weights() {
        let e = build::encoder(&EncoderDims::bert_large());
        let g = &e.graph;
        // Linear 1 inputs are [w1, ln1_out]: flowing is index 1
        let lin = g.op_by_name("Linear 1").unwrap();
        assert_eq!(flowing_input_index(g, lin), 1);
        // Gamma inputs are [vv, alpha]: alpha is 8× larger
        let gamma = g.op_by_name("Gamma").unwrap();
        assert_eq!(flowing_input_index(g, gamma), 1);
        // QKT inputs are [kk, qq]: tie broken to first
        let qkt = g.op_by_name("QKT").unwrap();
        assert_eq!(flowing_input_index(g, qkt), 0);
    }

    #[test]
    fn sweep_all_is_deterministic_across_thread_counts() {
        let e = build::encoder(&EncoderDims::tiny());
        let serial = sweep_all(
            &sim(),
            &e.graph,
            SweepOptions {
                max_configs: Some(300),
                threads: 1,
            },
        )
        .unwrap();
        let parallel = sweep_all(
            &sim(),
            &e.graph,
            SweepOptions {
                max_configs: Some(300),
                threads: 4,
            },
        )
        .unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (op, s) in &serial {
            let p = &parallel[op];
            assert_eq!(s.name, p.name);
            assert_eq!(s.best.cfg, p.best.cfg, "best config differs for {}", s.name);
            assert!((s.best.time_us - p.best.time_us).abs() < 1e-12);
            assert_eq!(s.times_us, p.times_us);
            assert_eq!(s.per_io.len(), p.per_io.len());
        }
    }

    #[test]
    fn a_cap_of_zero_configurations_is_refused() {
        let e = build::encoder(&EncoderDims::tiny());
        let op = e.graph.op_by_name("QKT").unwrap();
        let zero = SweepOptions {
            max_configs: Some(0),
            threads: 2,
        };
        let refused = sweep_op(&sim(), &e.graph, op, zero).unwrap_err();
        assert_eq!(refused, nothing_sampled());
        assert_eq!(sweep_all(&sim(), &e.graph, zero).unwrap_err(), refused);
    }

    #[test]
    fn epilogue_kernels_sweep_as_contractions() {
        let mut g = build::encoder(&EncoderDims::tiny()).graph;
        crate::fusion::apply_plan(&mut g, &crate::fusion::encoder_fusion_plan()).unwrap();
        let fused = crate::fusion::apply_epilogues(&mut g).unwrap();
        assert!(!fused.is_empty());
        let opts = SweepOptions {
            max_configs: Some(500),
            threads: 1,
        };
        let sweeps = sweep_all(&sim(), &g, opts).unwrap();
        for op in fused {
            let s = &sweeps[&op];
            assert!(
                s.best.cfg.in2_layout.is_some(),
                "`{}` priced as a kernel",
                s.name
            );
            // every sampled configuration priced
            let space = config_space(&g, op).unwrap().len();
            assert_eq!(s.times_us.len(), space.div_ceil(space.div_ceil(500)));
        }
    }

    #[test]
    fn sweep_all_covers_small_graph() {
        let e = build::encoder(&EncoderDims::tiny());
        let r = sweep_all(
            &sim(),
            &e.graph,
            SweepOptions {
                max_configs: Some(200),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.len(), e.graph.ops().len());
    }
}
