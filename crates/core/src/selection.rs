//! Global configuration selection (Sec. VI-A, Fig. 6).
//!
//! A configuration graph is built over the forward pass: for every data
//! container along the flowing-tensor chain there is one node per layout
//! permutation, and each operator contributes edges from its flowing-input
//! layouts to its output layouts, weighted by the best sweep time of any
//! configuration with that layout pair. Explicit transpose edges between
//! layouts of the same container let the optimizer trade a layout change
//! against downstream gains ("one cannot simply pick a single data layout a
//! priori"). A shortest-path pass over this DAG — linear time, since
//! operators are processed in execution order — yields the global
//! configuration.
//!
//! Per the paper's simplifications, residual side inputs are omitted and
//! selection runs on the forward graph only; backward operators take their
//! per-op best configurations.

use std::collections::{BTreeMap, HashMap};

use xform_dataflow::{Graph, NodeId};
use xform_gpusim::opmodel::primary_tensors;
use xform_gpusim::DeviceSpec;
use xform_tensor::{Layout, Result, TensorError};

use crate::cachemodel::{op_dram_words, CacheGeometry};
use crate::plan::layout_spec;
use crate::sweep::{flowing_input_index, outputs_laid_out, ConfigTiming, SweepResult};

/// How SSSP edges are priced.
#[derive(Debug, Clone, Default)]
pub enum CostModel {
    /// Sweep time only — every transferred word is equally expensive (the
    /// paper's flat accounting).
    #[default]
    Flat,
    /// Sweep time plus a static cache penalty: a layout pair whose swept
    /// operands stride against the line granularity pays the predicted
    /// extra DRAM words (see [`op_dram_words`]) at streaming bandwidth.
    /// Lets [`crate::profile::reselect_cost`] prefer cache-resident layouts
    /// before ever profiling them.
    CacheAware(CacheGeometry),
}

impl CostModel {
    /// Extra edge cost (µs) of running `op` with this layout pair, beyond
    /// its sweep time. Zero for [`CostModel::Flat`].
    fn edge_penalty_us(
        &self,
        graph: &Graph,
        device: &DeviceSpec,
        op: NodeId,
        flowing_input: usize,
        in_layout: Layout,
        out_layout: Layout,
    ) -> f64 {
        match self {
            CostModel::Flat => 0.0,
            CostModel::CacheAware(geom) => {
                let wb = device.word_bytes as u64;
                match op_dram_words(graph, op, flowing_input, in_layout, out_layout, geom, wb) {
                    Some((useful, dram)) if dram > useful => device
                        .stream_time_us(((dram - useful) * wb) as f64, device.stream_efficiency),
                    _ => 0.0,
                }
            }
        }
    }
}

/// The outcome of configuration selection.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Chosen configuration per forward operator, in execution order.
    pub per_op: Vec<(NodeId, ConfigTiming)>,
    /// Total forward kernel time of the selected path (µs), including any
    /// transpose insertions.
    pub total_us: f64,
    /// Sum of each op's unconstrained best (the paper compares its
    /// selection against this and lands within 4%).
    pub per_op_best_us: f64,
    /// Number of explicit transposes the path inserts.
    pub transposes: usize,
    /// Chosen (flowing-input layout, output layout) per forward operator,
    /// aligned with `per_op` (for Fig. 6-style path dumps).
    pub layouts: Vec<(NodeId, Layout, Layout)>,
}

impl Selection {
    /// [`Selection::layouts`] in axis letters — each operator's flowing
    /// input and the output its configurations are priced over — for Fig.
    /// 6-style path dumps.
    pub fn layout_specs(&self, graph: &Graph) -> Vec<(NodeId, String, String)> {
        let spelled = |&(op, in_l, out_l): &(NodeId, Layout, Layout)| {
            let flowing = graph
                .inputs_of(op)
                .get(flowing_input_index(graph, op))
                .copied();
            let priced = primary_tensors(graph, op).ok();
            let spec = |data: Option<NodeId>, l: Layout| {
                data.map_or_else(|| l.to_string(), |d| layout_spec(graph, d, l))
            };
            (op, spec(flowing, in_l), spec(priced.map(|t| t.1), out_l))
        };
        self.layouts.iter().map(spelled).collect()
    }
}

/// Fraction of peak bandwidth an explicit permutation (relayout) kernel
/// achieves. Shared by path selection's transpose pricing and the static
/// plan audit so both charge relayouts identically.
pub const RELAYOUT_BANDWIDTH_FRAC: f64 = 0.55;

/// Cost (µs) of an explicit relayout of `words` words: a read and a write
/// at the penalized bandwidth a permutation kernel achieves.
pub fn transpose_cost_us(device: &DeviceSpec, words: u64) -> f64 {
    let bytes = 2.0 * words as f64 * device.word_bytes as f64;
    device.kernel_launch_us + device.stream_time_us(bytes, RELAYOUT_BANDWIDTH_FRAC)
}

/// One relaxed label on a data container: cumulative cost, predecessor
/// operator index and that operator's chosen output layout, and whether a
/// transpose was inserted to reach this layout.
#[derive(Debug, Clone, Copy)]
struct Label {
    cost: f64,
    pred: Option<(usize, Layout)>,
    transposed: bool,
}

/// The labels on one data container, by the layout it would sit in — in
/// layout order, so that of several equal-cost labels every run keeps the
/// same one — and whether a consumer can take them up by layout: the
/// outputs a configuration does not lay out ([`outputs_laid_out`]) carry
/// the producer's costs, but whoever reads one re-lays it first.
#[derive(Debug, Clone)]
struct Labels {
    by_layout: BTreeMap<Layout, Label>,
    chainable: bool,
}

/// Per-operator transition table: chosen output layout → best cumulative
/// cost with the (input layout, timing) that achieves it.
#[derive(Debug, Clone, Copy)]
struct Transition {
    cost: f64,
    in_layout: Layout,
    transposed: bool,
    pred: Option<(usize, Layout)>,
    timing: ConfigTiming,
}

/// Runs shortest-path configuration selection over the forward operators
/// (in execution order) using their sweep results.
///
/// This is a dynamic program over (data container, layout) states — the
/// linear-time SSSP of Sec. VI-A, since the forward flow is a DAG
/// processed in topological order. Operators whose flowing input is not
/// produced by an earlier selected operator start a fresh chain (cost 0
/// over all layouts), which covers the encoder input.
///
/// # Errors
///
/// Returns an error if a sweep result is missing for an op or an op has no
/// feasible layout pair.
pub fn select_forward(
    graph: &Graph,
    device: &DeviceSpec,
    fwd_ops: &[NodeId],
    sweeps: &HashMap<NodeId, SweepResult>,
) -> Result<Selection> {
    select_forward_cost(graph, device, fwd_ops, sweeps, None, &CostModel::Flat)
}

/// [`select_forward`] with an optional *entry layout* and under an explicit
/// [`CostModel`]. When a chain starts fresh (the graph input), the entry
/// layout is available at zero cost and every other layout at one
/// transpose: this is how stacked layers chain, layer N+1's entry being
/// layer N's selected output layout. With [`CostModel::CacheAware`],
/// predicted extra DRAM words of each layout pair are priced into the SSSP
/// edge weights, steering the path toward cache-resident layouts before any
/// measurement exists.
///
/// # Errors
///
/// Same conditions as [`select_forward`], and
/// [`TensorError::LayoutRankMismatch`] when the entry layout's rank is not
/// that of the flowing input a chain starts from.
pub fn select_forward_cost(
    graph: &Graph,
    device: &DeviceSpec,
    fwd_ops: &[NodeId],
    sweeps: &HashMap<NodeId, SweepResult>,
    entry_layout: Option<Layout>,
    cost_model: &CostModel,
) -> Result<Selection> {
    let mut states: HashMap<NodeId, Labels> = HashMap::new();
    let mut transitions: Vec<BTreeMap<Layout, Transition>> = Vec::with_capacity(fwd_ops.len());
    let mut per_op_best = 0.0f64;

    for (op_idx, &op) in fwd_ops.iter().enumerate() {
        let sweep = sweeps
            .get(&op)
            .ok_or_else(|| TensorError::Unsupported(format!("missing sweep for {op}")))?;
        per_op_best += sweep.best.time_us;
        let inputs = graph.inputs_of(op);
        let flowing = inputs.get(sweep.flowing_input).copied();

        // Build the relaxed incoming frontier: existing labels plus
        // transpose edges to every input layout this op can consume.
        let upstream = flowing.and_then(|d| states.get(&d));
        let in_frontier: BTreeMap<Layout, Label> = match upstream {
            Some(st) if !st.by_layout.is_empty() => {
                let words = flowing
                    .and_then(|d| graph.data(d))
                    .map(|d| d.shape.num_elements() as u64)
                    .unwrap_or(0);
                let tcost = transpose_cost_us(device, words);
                let cheapest = st
                    .by_layout
                    .values()
                    .min_by(|a, b| a.cost.total_cmp(&b.cost))
                    .expect("non-empty frontier");
                let candidate = Label {
                    cost: cheapest.cost + tcost,
                    pred: cheapest.pred,
                    transposed: true,
                };
                let mut relaxed = if st.chainable {
                    st.by_layout.clone()
                } else {
                    BTreeMap::new()
                };
                for &(in_l, _) in sweep.per_io.keys() {
                    match relaxed.get(&in_l) {
                        Some(l) if l.cost <= candidate.cost => {}
                        _ => {
                            relaxed.insert(in_l, candidate);
                        }
                    }
                }
                relaxed
            }
            _ => BTreeMap::new(),
        };

        // Relax through this op's (in, out) layout pairs.
        let entry_tcost = flowing
            .and_then(|d| graph.data(d))
            .map(|d| transpose_cost_us(device, d.shape.num_elements() as u64))
            .unwrap_or(0.0);
        let mut table: BTreeMap<Layout, Transition> = BTreeMap::new();
        for (&(in_l, out_l), timing) in &sweep.per_io {
            let (in_cost, pred, transposed) = if in_frontier.is_empty() {
                match entry_layout {
                    // a fresh chain with a pinned entry layout: that layout
                    // is free, any other costs one transpose
                    Some(e) if e.rank() != in_l.rank() => {
                        return Err(TensorError::LayoutRankMismatch {
                            expected: in_l.rank(),
                            found: e.rank(),
                        })
                    }
                    Some(e) if e != in_l => (entry_tcost, None, true),
                    _ => (0.0, None, false),
                }
            } else {
                match in_frontier.get(&in_l) {
                    Some(l) => (l.cost, l.pred, l.transposed),
                    None => continue,
                }
            };
            let total = in_cost
                + timing.time_us
                + cost_model.edge_penalty_us(graph, device, op, sweep.flowing_input, in_l, out_l);
            match table.get(&out_l) {
                Some(t) if t.cost <= total => {}
                _ => {
                    table.insert(
                        out_l,
                        Transition {
                            cost: total,
                            in_layout: in_l,
                            transposed,
                            pred,
                            timing: *timing,
                        },
                    );
                }
            }
        }
        if table.is_empty() {
            return Err(TensorError::Unsupported(format!(
                "no feasible layout pair for `{}`",
                sweep.name
            )));
        }

        // Propagate labels to every output container: the outputs the
        // configuration lays out are in the selected layout itself.
        let by_layout: BTreeMap<Layout, Label> = (table.iter())
            .map(|(&out_l, t)| {
                let label = Label {
                    cost: t.cost,
                    pred: Some((op_idx, out_l)),
                    transposed: false,
                };
                (out_l, label)
            })
            .collect();
        let laid_out = outputs_laid_out(graph, op);
        for (o, chainable) in graph.outputs_of(op).into_iter().zip(laid_out) {
            let by_layout = by_layout.clone();
            states.insert(
                o,
                Labels {
                    by_layout,
                    chainable,
                },
            );
        }
        transitions.push(table);
    }

    // Backtrack from the cheapest final label.
    let mut per_op: Vec<Option<ConfigTiming>> = vec![None; fwd_ops.len()];
    let mut chosen_layouts: Vec<Option<(Layout, Layout)>> = vec![None; fwd_ops.len()];
    let mut transposes = 0usize;
    let mut total_us = 0.0f64;
    if let Some(last) = transitions.last() {
        let (mut out_l, mut t) = last
            .iter()
            .min_by(|a, b| a.1.cost.total_cmp(&b.1.cost))
            .map(|(&k, &v)| (k, v))
            .expect("non-empty transition table");
        total_us = t.cost;
        let mut idx = fwd_ops.len() - 1;
        loop {
            per_op[idx] = Some(t.timing);
            chosen_layouts[idx] = Some((t.in_layout, out_l));
            if t.transposed {
                transposes += 1;
            }
            match t.pred {
                Some((p_idx, p_out)) => {
                    idx = p_idx;
                    out_l = p_out;
                    t = transitions[idx][&out_l];
                }
                None => break,
            }
        }
    }
    // Ops off the backtracked path (side branches whose output joins the
    // main chain as a secondary operand) take their per-op best, and their
    // kernel time is added to the total since they still execute.
    let per_op: Vec<(NodeId, ConfigTiming)> = fwd_ops
        .iter()
        .zip(per_op)
        .map(|(&op, chosen)| {
            let timing = chosen.unwrap_or_else(|| {
                let best = sweeps[&op].best;
                total_us += best.time_us;
                best
            });
            (op, timing)
        })
        .collect();
    let layouts: Vec<(NodeId, Layout, Layout)> = fwd_ops
        .iter()
        .zip(chosen_layouts)
        .map(|(&op, l)| {
            let (i, o) = l.unwrap_or_else(|| {
                let b = &sweeps[&op].best.cfg;
                (b.in_layout, b.out_layout)
            });
            (op, i, o)
        })
        .collect();
    Ok(Selection {
        per_op,
        total_us,
        per_op_best_us: per_op_best,
        transposes,
        layouts,
    })
}

/// Selection for a stack of identical layers: layer N+1's entry layout is
/// pinned to layer N's selected output layout (the layers share shapes, so
/// the single-layer sweep tables are reused). Interior layers converge to
/// a steady-state configuration after the first boundary.
#[derive(Debug, Clone)]
pub struct StackedSelection {
    /// Per-layer selected forward cost (µs), boundary transposes included.
    pub per_layer_us: Vec<f64>,
    /// Total across the stack.
    pub total_us: f64,
    /// The layer index from which configurations repeat verbatim.
    pub steady_state_from: usize,
    /// The per-layer selections.
    pub layers: Vec<Selection>,
}

/// Runs chained selection over `n` identical layers.
///
/// # Errors
///
/// Propagates [`select_forward_cost`] failures; `n` must be ≥ 1.
///
/// # Examples
///
/// ```
/// use xform_core::fusion::{apply_plan, encoder_fusion_plan};
/// use xform_core::recipe::forward_ops;
/// use xform_core::selection::select_stacked;
/// use xform_core::sweep::{sweep_all, SimulatorSource, SweepOptions};
/// use xform_dataflow::{build, EncoderDims};
/// use xform_gpusim::DeviceSpec;
///
/// let mut g = build::encoder(&EncoderDims::tiny()).graph;
/// apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
/// let device = DeviceSpec::v100();
/// let sweeps = sweep_all(&SimulatorSource { device: device.clone() }, &g,
///                        SweepOptions { max_configs: Some(300), ..SweepOptions::default() }).unwrap();
/// let fwd = forward_ops(&g, g.data_by_name("dy").unwrap());
/// let stack = select_stacked(&g, &device, &fwd, &sweeps, 3).unwrap();
/// assert_eq!(stack.per_layer_us.len(), 3);
/// ```
pub fn select_stacked(
    graph: &Graph,
    device: &DeviceSpec,
    fwd_ops: &[NodeId],
    sweeps: &HashMap<NodeId, SweepResult>,
    n: usize,
) -> Result<StackedSelection> {
    if n == 0 {
        return Err(TensorError::Unsupported(
            "stack needs at least one layer".into(),
        ));
    }
    let mut layers = Vec::with_capacity(n);
    let mut per_layer = Vec::with_capacity(n);
    let mut entry: Option<Layout> = None;
    let mut steady_state_from = 0usize;
    for i in 0..n {
        let sel = select_forward_cost(graph, device, fwd_ops, sweeps, entry, &CostModel::Flat)?;
        per_layer.push(sel.total_us);
        entry = sel.layouts.last().map(|&(_, _, out)| out);
        if i > 0 {
            let same = layers
                .last()
                .map(|prev: &Selection| prev.layouts == sel.layouts)
                .unwrap_or(false);
            if same && steady_state_from == 0 {
                steady_state_from = i;
            }
        }
        layers.push(sel);
    }
    Ok(StackedSelection {
        total_us: per_layer.iter().sum(),
        per_layer_us: per_layer,
        steady_state_from,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::{apply_plan, encoder_fusion_plan};
    use crate::recipe::forward_ops;
    use crate::sweep::{sweep_all, SimulatorSource, SweepOptions};
    use xform_dataflow::{build, EncoderDims};

    #[test]
    fn transpose_cost_scales_with_volume() {
        let d = DeviceSpec::v100();
        let small = transpose_cost_us(&d, 1 << 10);
        let big = transpose_cost_us(&d, 1 << 24);
        assert!(big > 10.0 * small);
    }

    #[test]
    fn cache_aware_selection_is_well_formed_and_never_cheaper() {
        let e = build::encoder(&EncoderDims::tiny());
        let mut g = e.graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        let device = DeviceSpec::v100();
        let src = SimulatorSource {
            device: device.clone(),
        };
        let sweeps = sweep_all(
            &src,
            &g,
            SweepOptions {
                max_configs: Some(500),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        let fwd = forward_ops(&g, g.data_by_name("dy").unwrap());
        let flat = select_forward(&g, &device, &fwd, &sweeps).unwrap();
        let aware = select_forward_cost(
            &g,
            &device,
            &fwd,
            &sweeps,
            None,
            &CostModel::CacheAware(crate::cachemodel::CacheGeometry::for_device(&device)),
        )
        .unwrap();
        assert_eq!(aware.per_op.len(), flat.per_op.len());
        // penalties are non-negative, so the cache-aware optimum can never
        // undercut the flat one
        assert!(aware.total_us + 1e-9 >= flat.total_us);
    }

    /// An entry layout that cannot be a layout of the flowing input a chain
    /// starts from used to price every layout as free; it is a typed error,
    /// from a caller's pin and from a stack whose layer ends on a container
    /// of another rank than the one it starts from.
    #[test]
    fn an_entry_layout_of_another_rank_is_refused() {
        let mut g = build::encoder(&EncoderDims::tiny()).graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        let device = DeviceSpec::v100();
        let opts = SweepOptions {
            max_configs: Some(300),
            ..SweepOptions::default()
        };
        let sweeps = sweep_all(&SimulatorSource::default(), &g, opts).unwrap();
        let fwd = forward_ops(&g, g.data_by_name("dy").unwrap());
        let wrong_rank = TensorError::LayoutRankMismatch {
            expected: 3,
            found: 4,
        };
        let entry = Some(Layout::row_major(4));
        let pinned = select_forward_cost(&g, &device, &fwd, &sweeps, entry, &CostModel::Flat);
        assert_eq!(pinned.unwrap_err(), wrong_rank);
        // `x` is `[i,b,j]`; a layer cut after QKT ends on `beta`, `[h,b,j,k]`
        let qkt = g.op_by_name("QKT").unwrap();
        let cut = &fwd[..=fwd.iter().position(|&op| op == qkt).unwrap()];
        assert!(select_stacked(&g, &device, cut, &sweeps, 1).is_ok());
        assert_eq!(
            select_stacked(&g, &device, cut, &sweeps, 2).unwrap_err(),
            wrong_rank
        );
    }

    fn selected_encoder() -> (Selection, f64) {
        let e = build::encoder(&EncoderDims::bert_large());
        let mut g = e.graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        let device = DeviceSpec::v100();
        let src = SimulatorSource {
            device: device.clone(),
        };
        let sweeps = sweep_all(
            &src,
            &g,
            SweepOptions {
                max_configs: Some(20_000),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        let fwd = forward_ops(&g, g.data_by_name("dy").unwrap());
        let sel = select_forward(&g, &device, &fwd, &sweeps).unwrap();
        let n_fwd = fwd.len() as f64;
        (sel, n_fwd)
    }

    #[test]
    fn selection_total_close_to_per_op_best() {
        let (sel, n_fwd) = selected_encoder();
        assert_eq!(sel.per_op.len() as f64, n_fwd);
        // Sec. VI-A: the selected configuration is within 4% of the sum of
        // unconstrained per-op bests. Allow slack for sampled sweeps.
        let gap = sel.total_us / sel.per_op_best_us - 1.0;
        assert!(gap >= -1e-9, "selection beat the per-op lower bound: {gap}");
        assert!(gap < 0.15, "selection {}% above per-op best", gap * 100.0);
    }

    #[test]
    fn stacked_selection_converges_and_chains() {
        let e = build::encoder(&EncoderDims::bert_large());
        let mut g = e.graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        let device = DeviceSpec::v100();
        let src = SimulatorSource {
            device: device.clone(),
        };
        let sweeps = sweep_all(
            &src,
            &g,
            SweepOptions {
                max_configs: Some(8_000),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        let fwd = forward_ops(&g, g.data_by_name("dy").unwrap());
        let stack = select_stacked(&g, &device, &fwd, &sweeps, 4).unwrap();
        assert_eq!(stack.per_layer_us.len(), 4);
        // interior layers settle into a steady state
        assert!(stack.steady_state_from >= 1);
        assert_eq!(stack.layers[2].layouts, stack.layers[3].layouts);
        // chaining never beats n independent (unconstrained-entry) layers
        let single = select_forward(&g, &device, &fwd, &sweeps).unwrap();
        assert!(stack.total_us + 1e-6 >= 4.0 * single.total_us * 0.999);
        // and it should be within a transpose or two of them
        assert!(
            stack.total_us < 4.0 * single.total_us * 1.1,
            "stack {} vs 4×single {}",
            stack.total_us,
            4.0 * single.total_us
        );
    }

    #[test]
    fn selection_covers_all_forward_ops_in_order() {
        let (sel, _) = selected_encoder();
        // total is the accumulated path cost at the last op: at least the
        // kernel times along the way
        let sum_kernels: f64 = sel.per_op.iter().map(|(_, t)| t.time_us).sum();
        assert!(sel.total_us >= sum_kernels * 0.99);
    }
}
