//! Bridges dataflow-graph operators to the performance model.
//!
//! An [`OpConfig`] fixes every tunable of one operator — tensor layouts,
//! vectorization axis, warp-reduction axis, GEMM algorithm and math mode —
//! and [`op_cost`] prices it on a device. Enumerating [`config_space`] and
//! pricing every element is exactly the exhaustive benchmarking step of the
//! paper's recipe (Sec. V); the distributions it produces are Figs. 4 & 5.

use xform_dataflow::{Graph, NodeId, OpKind};
use xform_tensor::einsum::EinsumSpec;
use xform_tensor::{Axis, Result, Shape, TensorError};

use crate::contraction::{
    algorithms, gemm_cost, GemmAlgo, GemmLayout, GemmShape, InnerRole, KernelCost, MathMode,
};
use crate::device::{noise_key, DeviceSpec};
use crate::kernel::{kernel_cost, KernelDesc, TensorAccess};

/// One fully specified configuration of an operator.
///
/// Layout strings name the tensor's axes in memory order, outermost first
/// (see [`xform_tensor::Layout::from_axis_order`]). Secondary tensors of
/// the same shape as the primary input/output follow its layout, mirroring
/// the paper's practice of tying masks and saved values to their producer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OpConfig {
    /// Memory-order spec of the primary (first) input.
    pub in_spec: String,
    /// Memory-order spec of the second einsum operand, if the op is a
    /// contraction.
    pub in2_spec: Option<String>,
    /// Memory-order spec of the primary output.
    pub out_spec: String,
    /// Axis vectorized / assigned to consecutive threads (non-contractions).
    pub vector_axis: Option<char>,
    /// Axis mapped to the warp reduction (non-contractions with reductions).
    pub warp_axis: Option<char>,
    /// GEMM algorithm id (contractions; ignored otherwise).
    pub algo: usize,
    /// Math mode (contractions; ignored otherwise).
    pub math: MathMode,
}

impl OpConfig {
    /// The configuration a framework uses without tuning: layouts keep the
    /// logical axis order except that a reduced axis is stored contiguously
    /// (as real frameworks store the embedding axis innermost), threads
    /// vectorize along the contiguous axis, warp reduction runs on the
    /// operator's own reduction axis, algorithm 3 (128×128 tiles), tensor
    /// cores.
    ///
    /// # Errors
    ///
    /// Returns an error if `op` is not a live operator with data inputs and
    /// outputs.
    pub fn natural(graph: &Graph, op: NodeId) -> Result<OpConfig> {
        let info = OpInfo::gather(graph, op)?;
        let reorder = |axes: &[char]| -> String {
            let mut s: String = axes
                .iter()
                .filter(|&&c| Some(c) != info.reduce_axis)
                .collect();
            if let Some(r) = info.reduce_axis {
                if axes.contains(&r) {
                    s.push(r);
                }
            }
            s
        };
        let in_spec = reorder(&info.in_axes);
        let vector_axis = in_spec.chars().last();
        Ok(OpConfig {
            in_spec,
            in2_spec: info.in2_axes.as_ref().map(|a| a.iter().collect()),
            out_spec: reorder(&info.out_axes),
            vector_axis,
            warp_axis: info.reduce_axis,
            algo: 3,
            math: MathMode::TensorCore,
        })
    }
}

/// Logical description of one operator extracted from the graph.
#[derive(Debug, Clone)]
struct OpInfo {
    name: String,
    kind: OpKind,
    in_shape: Shape,
    in2_shape: Option<Shape>,
    /// The third input of an attention region (the values).
    in3_shape: Option<Shape>,
    out_shape: Shape,
    in_axes: Vec<char>,
    in2_axes: Option<Vec<char>>,
    out_axes: Vec<char>,
    reduce_axis: Option<char>,
    input_words: u64,
    output_words: u64,
    flop: u64,
}

fn axes(s: &Shape) -> Vec<char> {
    s.axes().iter().map(|a| a.name()).collect()
}

impl OpInfo {
    /// This operator as a contraction of `a` and `b` into `out`.
    fn contracting(&self, a: &Shape, b: &Shape, out: &Shape) -> OpInfo {
        OpInfo {
            in_axes: axes(a),
            in2_axes: Some(axes(b)),
            out_axes: axes(out),
            in_shape: a.clone(),
            in2_shape: Some(b.clone()),
            out_shape: out.clone(),
            ..self.clone()
        }
    }

    fn gather(graph: &Graph, op: NodeId) -> Result<OpInfo> {
        let node = graph
            .op(op)
            .ok_or_else(|| TensorError::Unsupported(format!("{op} is not an operator")))?;
        let inputs = graph.inputs_of(op);
        let outputs = graph.outputs_of(op);
        let shape_of = |id: NodeId| -> Result<Shape> {
            graph
                .data(id)
                .map(|d| d.shape.clone())
                .ok_or_else(|| TensorError::Unsupported("edge endpoint is not data".into()))
        };
        // Primary tensors: einsums keep their positional operands; other
        // kernels key their access pattern off the largest input/output
        // (fused kernels may list small side tensors like bias gradients
        // first).
        let largest = |ids: &[NodeId]| -> Option<NodeId> {
            ids.iter()
                .copied()
                .max_by_key(|&d| graph.data(d).map(|n| n.shape.num_elements()).unwrap_or(0))
        };
        let is_einsum = matches!(
            node.kind,
            OpKind::Einsum(_) | OpKind::ContractionEpilogue { .. } | OpKind::AttentionRegion { .. }
        );
        let in_id = if is_einsum {
            inputs.first().copied()
        } else {
            largest(&inputs)
        }
        .ok_or_else(|| TensorError::Unsupported(format!("`{}` has no inputs", node.name)))?;
        let out_id = if is_einsum {
            outputs.first().copied()
        } else {
            largest(&outputs)
        }
        .ok_or_else(|| TensorError::Unsupported(format!("`{}` has no outputs", node.name)))?;
        let in_shape = shape_of(in_id)?;
        let out_shape = shape_of(out_id)?;
        let in2_shape = if is_einsum && inputs.len() >= 2 {
            Some(shape_of(inputs[1])?)
        } else {
            None
        };
        let in3_shape = match (&node.kind, inputs.get(2)) {
            (OpKind::AttentionRegion { .. }, Some(&v)) => Some(shape_of(v)?),
            _ => None,
        };
        Ok(OpInfo {
            name: node.name.clone(),
            kind: node.kind.clone(),
            in_axes: axes(&in_shape),
            in2_axes: in2_shape.as_ref().map(axes),
            out_axes: axes(&out_shape),
            reduce_axis: node.kind.reduce_axis().map(|a| a.name()),
            in_shape,
            in2_shape,
            in3_shape,
            out_shape,
            input_words: graph.input_words(op),
            output_words: graph.output_words(op),
            flop: xform_dataflow::flops::op_flop(graph, op).unwrap_or(0),
        })
    }
}

/// A reusable pricing model for one operator: gathers the operator's
/// shapes and roles once, then prices configurations cheaply. Use this for
/// sweeps; [`op_cost`] is the one-shot convenience wrapper.
#[derive(Debug, Clone)]
pub struct OpModel {
    info: OpInfo,
}

impl OpModel {
    /// Builds the model for one operator.
    ///
    /// # Errors
    ///
    /// Returns an error if `op` is not a live operator with data inputs
    /// and outputs.
    pub fn new(graph: &Graph, op: NodeId) -> Result<OpModel> {
        Ok(OpModel {
            info: OpInfo::gather(graph, op)?,
        })
    }

    /// Prices one configuration on a device.
    ///
    /// # Errors
    ///
    /// Returns an error if a layout spec is not a permutation of the
    /// tensor's axes, or a contraction does not map onto a GEMM.
    pub fn cost(&self, device: &DeviceSpec, cfg: &OpConfig) -> Result<KernelCost> {
        match &self.info.kind.clone() {
            // a GEMM-epilogue mega-kernel is contraction-bound: the fused
            // element-wise tail rides the GEMM's output tiles for free
            OpKind::Einsum(spec) | OpKind::ContractionEpilogue { spec, .. } => {
                contraction_cost(device, &self.info, spec, cfg)
            }
            OpKind::AttentionRegion { qkt, gamma, .. } => {
                region_cost(device, &self.info, qkt, gamma, cfg)
            }
            _ => normalization_cost(device, &self.info, cfg),
        }
    }
}

/// Prices one operator configuration on a device.
///
/// # Errors
///
/// Returns an error if the op id is invalid, a layout spec is not a
/// permutation of the tensor's axes, or a contraction does not map onto a
/// GEMM.
pub fn op_cost(
    device: &DeviceSpec,
    graph: &Graph,
    op: NodeId,
    cfg: &OpConfig,
) -> Result<KernelCost> {
    OpModel::new(graph, op)?.cost(device, cfg)
}

/// Returns `cost` with `hit_words` of its modelled traffic served from
/// on-chip caches instead of the DRAM interface: `moved_words` drops by
/// the hit volume but never below `floor_words` (the step's algorithmic
/// demand — keeping the discounted cost a valid MUE denominator with
/// `D ≥ Q`). `time_us` and `bandwidth_frac` are left untouched: a hit
/// removes DRAM-interface traffic, not work from the kernel's critical
/// path in this model.
pub fn cache_discounted(cost: &KernelCost, hit_words: f64, floor_words: f64) -> KernelCost {
    let moved = (cost.moved_words - hit_words.max(0.0)).max(floor_words.max(0.0));
    KernelCost {
        moved_words: moved,
        ..*cost
    }
}

fn contraction_cost(
    device: &DeviceSpec,
    info: &OpInfo,
    spec: &EinsumSpec,
    cfg: &OpConfig,
) -> Result<KernelCost> {
    let in2_shape = info.in2_shape.as_ref().ok_or_else(|| {
        TensorError::Unsupported(format!("contraction `{}` has one input", info.name))
    })?;
    let class = spec.classify()?;
    let sizes = spec.gemm_sizes(&info.in_shape, in2_shape)?;
    let shape = GemmShape {
        batch: sizes.batch,
        m: sizes.m,
        n: sizes.n,
        k: sizes.k,
    };
    let in2_spec = cfg.in2_spec.as_deref().ok_or_else(|| {
        TensorError::Unsupported(format!(
            "contraction `{}` config lacks in2 layout",
            info.name
        ))
    })?;
    let role_of = |axis: char, operand: Operand| -> InnerRole {
        let ax = Axis(axis);
        if class.batch.contains(&ax) {
            InnerRole::Batch
        } else if class.k.contains(&ax) {
            InnerRole::K
        } else {
            match operand {
                Operand::A => InnerRole::M,
                Operand::B => InnerRole::N,
                Operand::C => {
                    if class.m.contains(&ax) {
                        InnerRole::M
                    } else {
                        InnerRole::N
                    }
                }
            }
        }
    };
    let validate = |spec_str: &str, axes: &[char]| -> Result<()> {
        if spec_str.len() != axes.len() || !spec_str.chars().all(|c| axes.contains(&c)) {
            return Err(TensorError::InvalidPermutation);
        }
        Ok(())
    };
    validate(&cfg.in_spec, &info.in_axes)?;
    validate(in2_spec, info.in2_axes.as_ref().expect("einsum has in2"))?;
    validate(&cfg.out_spec, &info.out_axes)?;
    let inner = |s: &str| s.chars().last().expect("non-empty layout spec");
    let blocked = [&cfg.in_spec, in2_spec, &cfg.out_spec]
        .iter()
        .zip([Operand::A, Operand::B, Operand::C])
        .all(|(s, operand)| {
            let roles: Vec<InnerRole> = s.chars().map(|c| role_of(c, operand)).collect();
            // role groups must form contiguous segments, innermost not batch
            let mut segments = 1;
            for w in roles.windows(2) {
                if w[0] != w[1] {
                    segments += 1;
                }
            }
            let distinct = {
                let mut d: Vec<InnerRole> = Vec::new();
                for r in &roles {
                    if !d.contains(r) {
                        d.push(*r);
                    }
                }
                d.len()
            };
            segments == distinct && *roles.last().expect("non-empty") != InnerRole::Batch
        });
    let layout = GemmLayout {
        a_inner: role_of(inner(&cfg.in_spec), Operand::A),
        b_inner: role_of(inner(in2_spec), Operand::B),
        c_inner: role_of(inner(&cfg.out_spec), Operand::C),
        blocked,
    };
    let algos = algorithms();
    let algo: GemmAlgo = algos
        .get(cfg.algo)
        .copied()
        .ok_or_else(|| TensorError::Unsupported(format!("unknown GEMM algorithm {}", cfg.algo)))?;
    Ok(gemm_cost(device, shape, layout, algo, cfg.math))
}

/// An attention region as its two contractions back to back, the softmax
/// between them riding the scores' tiles like an epilogue: the times add,
/// and the scores the first would have written and the second read back —
/// which the region keeps on chip — come off the words moved. The
/// configuration lays out the scores contraction's operands and the context;
/// the values and the virtual scores keep their natural order.
fn region_cost(
    device: &DeviceSpec,
    info: &OpInfo,
    qkt: &EinsumSpec,
    gamma: &EinsumSpec,
    cfg: &OpConfig,
) -> Result<KernelCost> {
    let (Some(b), Some(v)) = (&info.in2_shape, &info.in3_shape) else {
        let what = format!("attention region `{}` lacks an operand", info.name);
        return Err(TensorError::Unsupported(what));
    };
    let a = &info.in_shape;
    let extent = |&ax: &Axis| Ok((ax.name(), a.size(ax).or_else(|_| b.size(ax))?));
    let extents: Result<Vec<_>> = qkt.output().iter().map(extent).collect();
    let scores = Shape::new(extents?)?;
    let (mut first, mut second) = (cfg.clone(), cfg.clone());
    first.out_spec = scores.spec();
    (second.in_spec, second.in2_spec) = (v.spec(), Some(scores.spec()));
    let c1 = contraction_cost(device, &info.contracting(a, b, &scores), qkt, &first)?;
    let context = info.contracting(v, &scores, &info.out_shape);
    let c2 = contraction_cost(device, &context, gamma, &second)?;
    let io = (info.input_words + info.output_words) as f64;
    let on_chip = 2.0 * scores.num_elements() as f64;
    Ok(KernelCost {
        time_us: c1.time_us + c2.time_us,
        moved_words: (c1.moved_words + c2.moved_words - on_chip).max(io),
        bandwidth_frac: c1.bandwidth_frac.min(c2.bandwidth_frac),
        flop: c1.flop + c2.flop,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    A,
    B,
    C,
}

fn normalization_cost(device: &DeviceSpec, info: &OpInfo, cfg: &OpConfig) -> Result<KernelCost> {
    let vector_axis = cfg.vector_axis;
    let mut accesses = Vec::new();
    let vec_ok = |layout_spec: &str, shape: &Shape| -> (bool, bool) {
        let inner = layout_spec.chars().last().expect("non-empty layout");
        match vector_axis {
            Some(v) if v == inner => {
                let divisible = shape.size(Axis(inner)).map(|n| n % 8 == 0).unwrap_or(false);
                (divisible, true)
            }
            _ => (false, false),
        }
    };
    // primary input (slice readers of stacked containers move only their
    // memlet volume, never the whole container)
    {
        if cfg.in_spec.len() != info.in_axes.len()
            || !cfg.in_spec.chars().all(|c| info.in_axes.contains(&c))
        {
            return Err(TensorError::InvalidPermutation);
        }
        let (v, c) = vec_ok(&cfg.in_spec, &info.in_shape);
        accesses.push(TensorAccess {
            words: (info.in_shape.num_elements() as u64).min(info.input_words),
            is_input: true,
            vectorized: v,
            coalesced: c,
        });
    }
    // remaining input volume (masks, residuals, saved tensors): assume they
    // share the primary input layout; weights/biases are tiny and ignored
    // for access-pattern purposes but their words still move.
    let secondary_in = info.input_words.saturating_sub(accesses[0].words);
    if secondary_in > 0 {
        let (v, c) = vec_ok(&cfg.in_spec, &info.in_shape);
        accesses.push(TensorAccess {
            words: secondary_in,
            is_input: true,
            vectorized: v,
            coalesced: c,
        });
    }
    // primary output. When the output names its axes differently from the
    // input (the K/V streams use `k`/`w` where the input uses `j`/`p`),
    // the vectorization axis translates positionally.
    {
        if cfg.out_spec.len() != info.out_axes.len()
            || !cfg.out_spec.chars().all(|c| info.out_axes.contains(&c))
        {
            return Err(TensorError::InvalidPermutation);
        }
        let out_vector_axis = match vector_axis {
            Some(v) if info.out_axes.contains(&v) => Some(v),
            Some(v) => info
                .in_axes
                .iter()
                .position(|&c| c == v)
                .and_then(|p| info.out_axes.get(p).copied()),
            None => None,
        };
        let out_vec_ok = |layout_spec: &str, shape: &Shape| -> (bool, bool) {
            let inner = layout_spec.chars().last().expect("non-empty layout");
            match out_vector_axis {
                Some(v) if v == inner => {
                    let divisible = shape.size(Axis(inner)).map(|n| n % 8 == 0).unwrap_or(false);
                    (divisible, true)
                }
                _ => (false, false),
            }
        };
        let (v, c) = out_vec_ok(&cfg.out_spec, &info.out_shape);
        let primary_out = (info.out_shape.num_elements() as u64).min(info.output_words);
        accesses.push(TensorAccess {
            words: primary_out,
            is_input: false,
            vectorized: v,
            coalesced: c,
        });
        let secondary_out = info.output_words.saturating_sub(primary_out);
        if secondary_out > 0 {
            accesses.push(TensorAccess {
                words: secondary_out,
                is_input: false,
                vectorized: v,
                coalesced: c,
            });
        }
    }
    let has_reduction = info.kind.has_reduction();
    let warp_matches_reduce = match (info.reduce_axis, cfg.warp_axis) {
        (Some(r), Some(w)) => r == w,
        (None, _) => true,
        (Some(_), None) => false,
    };
    let reduce_contiguous = match info.reduce_axis {
        Some(r) => cfg.in_spec.ends_with(r) || cfg.vector_axis == Some(r),
        None => true,
    };
    // Reduce-then-map kernels (softmax, layernorm forward, fused kernels
    // that start with a reduction) take two passes over their input.
    let two_pass = matches!(
        info.kind,
        OpKind::Softmax { .. } | OpKind::LayerNorm { .. } | OpKind::SoftmaxGrad { .. }
    ) || matches!(
        &info.kind,
        OpKind::Fused {
            reduce_axis: Some(_),
            ..
        }
    );
    let desc = KernelDesc {
        flop: info.flop,
        accesses,
        has_reduction,
        warp_matches_reduce,
        reduce_contiguous,
        two_pass,
        config_key: noise_key(
            &[&info.name, &cfg.in_spec, &cfg.out_spec],
            &[
                cfg.vector_axis.map(|c| c as u64).unwrap_or(0),
                cfg.warp_axis.map(|c| c as u64).unwrap_or(0),
            ],
        ),
    };
    Ok(kernel_cost(device, &desc))
}

fn permutations(axes: &[char]) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut used = vec![false; axes.len()];
    fn rec(axes: &[char], cur: &mut String, used: &mut [bool], out: &mut Vec<String>) {
        if cur.len() == axes.len() {
            out.push(cur.clone());
            return;
        }
        for i in 0..axes.len() {
            if !used[i] {
                used[i] = true;
                cur.push(axes[i]);
                rec(axes, cur, used, out);
                cur.pop();
                used[i] = false;
            }
        }
    }
    rec(axes, &mut cur, &mut used, &mut out);
    out
}

/// Enumerates the full configuration space of one operator: every layout
/// permutation of its primary tensors, plus vectorization / warp axes for
/// normalization kernels, or algorithms × math modes for contractions.
///
/// # Errors
///
/// Returns an error if the op id is invalid.
pub fn config_space(graph: &Graph, op: NodeId) -> Result<Vec<OpConfig>> {
    let info = OpInfo::gather(graph, op)?;
    let mut out = Vec::new();
    match &info.kind {
        OpKind::Einsum(_) | OpKind::AttentionRegion { .. } => {
            let a_perms = permutations(&info.in_axes);
            let b_perms = permutations(info.in2_axes.as_ref().ok_or_else(|| {
                TensorError::Unsupported(format!("contraction `{}` has one input", info.name))
            })?);
            let c_perms = permutations(&info.out_axes);
            let n_algos = algorithms().len();
            for a in &a_perms {
                for b in &b_perms {
                    for c in &c_perms {
                        for algo in 0..n_algos {
                            for math in [MathMode::TensorCore, MathMode::Fp16] {
                                out.push(OpConfig {
                                    in_spec: a.clone(),
                                    in2_spec: Some(b.clone()),
                                    out_spec: c.clone(),
                                    vector_axis: None,
                                    warp_axis: None,
                                    algo,
                                    math,
                                });
                            }
                        }
                    }
                }
            }
        }
        _ => {
            let in_perms = permutations(&info.in_axes);
            let out_perms = permutations(&info.out_axes);
            let vec_axes: Vec<char> = info.out_axes.clone();
            let warp_axes: Vec<Option<char>> = if info.reduce_axis.is_some() {
                info.in_axes.iter().map(|&c| Some(c)).collect()
            } else {
                vec![None]
            };
            for i in &in_perms {
                for o in &out_perms {
                    for &v in &vec_axes {
                        for w in &warp_axes {
                            out.push(OpConfig {
                                in_spec: i.clone(),
                                in2_spec: None,
                                out_spec: o.clone(),
                                vector_axis: Some(v),
                                warp_axis: *w,
                                algo: 0,
                                math: MathMode::TensorCore,
                            });
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xform_dataflow::{build, EncoderDims};

    fn bert() -> (xform_dataflow::Graph, Vec<(String, NodeId)>) {
        let e = build::encoder(&EncoderDims::bert_large());
        let ids = e
            .graph
            .ops()
            .into_iter()
            .map(|id| (e.graph.op(id).unwrap().name.clone(), id))
            .collect();
        (e.graph, ids)
    }

    fn find(ids: &[(String, NodeId)], name: &str) -> NodeId {
        ids.iter().find(|(n, _)| n == name).unwrap().1
    }

    #[test]
    fn natural_config_prices_every_encoder_op() {
        let (g, ids) = bert();
        for (name, id) in &ids {
            let cfg = OpConfig::natural(&g, *id).unwrap();
            let cost = op_cost(&DeviceSpec::v100(), &g, *id, &cfg)
                .unwrap_or_else(|e| panic!("pricing `{name}` failed: {e}"));
            assert!(cost.time_us.is_finite() && cost.time_us > 0.0);
        }
    }

    #[test]
    fn linear_layer_near_table3_time() {
        let (g, ids) = bert();
        let lin = find(&ids, "Linear 1");
        let mut best = f64::INFINITY;
        for cfg in config_space(&g, lin).unwrap() {
            if let Ok(c) = op_cost(&DeviceSpec::v100(), &g, lin, &cfg) {
                best = best.min(c.time_us);
            }
        }
        // Table III: 402-451 µs for this GEMM.
        assert!(best > 250.0 && best < 550.0, "Linear 1 best {best} µs");
    }

    #[test]
    fn softmax_sweep_shows_layout_sensitivity() {
        let (g, ids) = bert();
        let sm = find(&ids, "Scaled softmax");
        let mut best = f64::INFINITY;
        let mut worst: f64 = 0.0;
        for cfg in config_space(&g, sm).unwrap() {
            if let Ok(c) = op_cost(&DeviceSpec::v100(), &g, sm, &cfg) {
                best = best.min(c.time_us);
                worst = worst.max(c.time_us);
            }
        }
        assert!(worst / best > 8.0, "spread only {}", worst / best);
        assert!(best > 50.0 && best < 600.0, "softmax best {best}");
    }

    #[test]
    fn config_space_sizes_are_sane() {
        let (g, ids) = bert();
        // rank-4 contraction: 24·24·24·8·2 configs
        let qkt = find(&ids, "QKT");
        assert_eq!(config_space(&g, qkt).unwrap().len(), 24 * 24 * 24 * 8 * 2);
        // dropout (no reduction): 24 in × 24 out... input rank 4 (hbjk)
        let d = find(&ids, "Dropout att");
        let n = config_space(&g, d).unwrap().len();
        assert_eq!(n, 24 * 24 * 4);
    }

    #[test]
    fn invalid_layout_rejected() {
        let (g, ids) = bert();
        let sm = find(&ids, "Scaled softmax");
        let mut cfg = OpConfig::natural(&g, sm).unwrap();
        cfg.in_spec = "zzzz".into();
        assert!(op_cost(&DeviceSpec::v100(), &g, sm, &cfg).is_err());
    }
}
