//! Bridges dataflow-graph operators to the performance model.
//!
//! An [`OpConfig`] fixes every tunable of one operator — tensor layouts,
//! vectorization axis, warp-reduction axis, GEMM algorithm and math mode —
//! and [`op_cost`] prices it on a device. Enumerating [`config_space`] and
//! pricing every element is exactly the exhaustive benchmarking step of the
//! paper's recipe (Sec. V); the distributions it produces are Figs. 4 & 5.

use xform_dataflow::{Graph, NodeId, OpKind};
use xform_tensor::einsum::EinsumSpec;
use xform_tensor::{Axis, Layout, Result, Shape, TensorError, MAX_RANK};

use crate::contraction::{
    algorithms, gemm_cost, GemmAlgo, GemmLayout, GemmShape, InnerRole, KernelCost, MathMode,
};
use crate::device::{noise_key, DeviceSpec};
use crate::kernel::{kernel_cost, KernelDesc, TensorAccess};

/// One fully specified configuration of an operator.
///
/// Each layout is a permutation of the axis positions of the tensor
/// [`primary_tensors`] names for it. Secondary tensors of the same shape as
/// the primary input/output follow its layout, mirroring the paper's
/// practice of tying masks and saved values to their producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpConfig {
    /// Layout of the primary (first) input.
    pub in_layout: Layout,
    /// Layout of the second einsum operand, if the op is a contraction.
    pub in2_layout: Option<Layout>,
    /// Layout of the primary output.
    pub out_layout: Layout,
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
        // the reduced axis, where the tensor has it, goes innermost
        let reorder = |axes: &[char]| {
            let (kept, reduced): (Vec<usize>, Vec<usize>) =
                (0..axes.len()).partition(|&p| Some(axes[p]) != info.reduce_axis);
            Layout::from_order(&[kept, reduced].concat())
        };
        let in_layout = reorder(&info.in_axes)?;
        let vector_axis = in_layout.order().next_back().map(|p| info.in_axes[p]);
        Ok(OpConfig {
            in_layout,
            in2_layout: info.in2_axes.as_ref().map(|a| Layout::row_major(a.len())),
            out_layout: reorder(&info.out_axes)?,
            vector_axis,
            warp_axis: info.reduce_axis,
            algo: 3,
            math: MathMode::TensorCore,
        })
    }

    /// The three layouts in the axis letters of the tensors they lay out,
    /// memory order — `(in, in2, out)`, for reports.
    ///
    /// # Errors
    ///
    /// Returns an error if `op` is not a live operator with data inputs and
    /// outputs, or a layout's rank is not its tensor's.
    pub fn specs(&self, graph: &Graph, op: NodeId) -> Result<(String, Option<String>, String)> {
        let info = OpInfo::gather(graph, op)?;
        let spelled = |layout: Layout, shape: &Shape| -> Result<String> {
            fits(layout, shape.axes())?;
            Ok(layout.spec(shape))
        };
        let in2 = self.in2_layout.zip(info.in2_shape.as_ref());
        Ok((
            spelled(self.in_layout, &info.in_shape)?,
            in2.map(|(l, shape)| spelled(l, shape)).transpose()?,
            spelled(self.out_layout, &info.out_shape)?,
        ))
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
        let (in_id, out_id) = primary_tensors(graph, op)?;
        let node = graph.op(op).expect("primary_tensors checked the operator");
        let inputs = graph.inputs_of(op);
        let shape_of = |id: NodeId| -> Result<Shape> {
            graph
                .data(id)
                .map(|d| d.shape.clone())
                .ok_or_else(|| TensorError::Unsupported("edge endpoint is not data".into()))
        };
        let is_einsum = positional(&node.kind);
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

/// Einsum-like kinds keep their positional operands as primaries.
fn positional(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::Einsum(_) | OpKind::ContractionEpilogue { .. } | OpKind::AttentionRegion { .. }
    )
}

/// The input and the output container an [`OpConfig`]'s `in_layout` and
/// `out_layout` are layouts of (`in2_layout` is the second input's):
/// einsums keep their positional operands; other kernels key their access
/// pattern off the largest input/output, the last of equals (fused kernels
/// may list small side tensors like bias gradients first).
///
/// # Errors
///
/// Returns an error if `op` is not a live operator with data inputs and
/// outputs.
pub fn primary_tensors(graph: &Graph, op: NodeId) -> Result<(NodeId, NodeId)> {
    let node = graph
        .op(op)
        .ok_or_else(|| TensorError::Unsupported(format!("{op} is not an operator")))?;
    let primary = |ids: Vec<NodeId>, what: &str| {
        let elements = |&d: &NodeId| graph.data(d).map_or(0, |n| n.shape.num_elements());
        if positional(&node.kind) {
            ids.first().copied()
        } else {
            ids.iter().copied().max_by_key(elements)
        }
        .ok_or_else(|| TensorError::Unsupported(format!("`{}` has no {what}", node.name)))
    };
    Ok((
        primary(graph.inputs_of(op), "inputs")?,
        primary(graph.outputs_of(op), "outputs")?,
    ))
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
    /// Returns an error if a layout's rank is not its tensor's, or a
    /// contraction does not map onto a GEMM.
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
/// Returns an error if the op id is invalid, a layout's rank is not its
/// tensor's, or a contraction does not map onto a GEMM.
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
    let in2_layout = cfg.in2_layout.ok_or_else(|| {
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
    let in2_axes = info.in2_axes.as_ref().expect("einsum has in2");
    let operands = [
        (cfg.in_layout, &info.in_axes, Operand::A),
        (in2_layout, in2_axes, Operand::B),
        (cfg.out_layout, &info.out_axes, Operand::C),
    ];
    let mut inner = [InnerRole::Batch; 3];
    let mut blocked = true;
    for (slot, (layout, axes, operand)) in inner.iter_mut().zip(operands) {
        fits(layout, axes)?;
        let roles: Vec<InnerRole> = layout.order().map(|p| role_of(axes[p], operand)).collect();
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
        *slot = *roles.last().expect("non-empty layout");
        blocked &= segments == distinct && *slot != InnerRole::Batch;
    }
    let layout = GemmLayout {
        a_inner: inner[0],
        b_inner: inner[1],
        c_inner: inner[2],
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
    let (mut first, mut second) = (*cfg, *cfg);
    first.out_layout = Layout::row_major(scores.rank());
    second.in_layout = Layout::row_major(v.rank());
    second.in2_layout = Some(first.out_layout);
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

/// A layout must have the rank of the tensor it lays out.
fn fits<A>(layout: Layout, axes: &[A]) -> Result<()> {
    if layout.rank() == axes.len() {
        Ok(())
    } else {
        Err(TensorError::LayoutRankMismatch {
            expected: axes.len(),
            found: layout.rank(),
        })
    }
}

fn normalization_cost(device: &DeviceSpec, info: &OpInfo, cfg: &OpConfig) -> Result<KernelCost> {
    fits(cfg.in_layout, &info.in_axes)?;
    fits(cfg.out_layout, &info.out_axes)?;
    let in_inner = info.in_axes[cfg.in_layout.innermost()];
    let out_inner = info.out_axes[cfg.out_layout.innermost()];
    let mut accesses = Vec::new();
    // (vectorized, coalesced) of a tensor whose contiguous axis is `inner`
    // when threads vectorize along `vector_axis`
    let vec_ok = |vector_axis: Option<char>, inner: char, shape: &Shape| -> (bool, bool) {
        if vector_axis == Some(inner) {
            let divisible = shape.size(Axis(inner)).map(|n| n % 8 == 0).unwrap_or(false);
            (divisible, true)
        } else {
            (false, false)
        }
    };
    // primary input (slice readers of stacked containers move only their
    // memlet volume, never the whole container)
    let (v, c) = vec_ok(cfg.vector_axis, in_inner, &info.in_shape);
    accesses.push(TensorAccess {
        words: (info.in_shape.num_elements() as u64).min(info.input_words),
        is_input: true,
        vectorized: v,
        coalesced: c,
    });
    // remaining input volume (masks, residuals, saved tensors): assume they
    // share the primary input layout; weights/biases are tiny and ignored
    // for access-pattern purposes but their words still move.
    let secondary_in = info.input_words.saturating_sub(accesses[0].words);
    if secondary_in > 0 {
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
        let out_vector_axis = match cfg.vector_axis {
            Some(v) if info.out_axes.contains(&v) => Some(v),
            Some(v) => info
                .in_axes
                .iter()
                .position(|&c| c == v)
                .and_then(|p| info.out_axes.get(p).copied()),
            None => None,
        };
        let (v, c) = vec_ok(out_vector_axis, out_inner, &info.out_shape);
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
        Some(r) => in_inner == r || cfg.vector_axis == Some(r),
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
        // keyed by the layouts' letters: every simulated time is pinned to
        // these bytes (`tests/selection_golden.rs`)
        config_key: noise_key(
            &[
                &info.name,
                spell(cfg.in_layout, &info.in_axes, &mut [0; SPELL_BYTES]),
                spell(cfg.out_layout, &info.out_axes, &mut [0; SPELL_BYTES]),
            ],
            &[
                cfg.vector_axis.map(|c| c as u64).unwrap_or(0),
                cfg.warp_axis.map(|c| c as u64).unwrap_or(0),
            ],
        ),
    };
    Ok(kernel_cost(device, &desc))
}

/// Room for [`MAX_RANK`] axis letters in UTF-8.
const SPELL_BYTES: usize = 4 * MAX_RANK;

/// A layout's axis letters in memory order, written into `buf`.
fn spell<'b>(layout: Layout, axes: &[char], buf: &'b mut [u8; SPELL_BYTES]) -> &'b str {
    let mut len = 0;
    for p in layout.order() {
        len += axes[p].encode_utf8(&mut buf[len..]).len();
    }
    std::str::from_utf8(&buf[..len]).expect("whole characters")
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
    let in_perms = Layout::all(info.in_axes.len());
    let out_perms = Layout::all(info.out_axes.len());
    match &info.kind {
        OpKind::Einsum(_) | OpKind::AttentionRegion { .. } => {
            let in2_axes = info.in2_axes.as_ref().ok_or_else(|| {
                TensorError::Unsupported(format!("contraction `{}` has one input", info.name))
            })?;
            let in2_perms = Layout::all(in2_axes.len());
            let n_algos = algorithms().len();
            for &a in &in_perms {
                for &b in &in2_perms {
                    for &c in &out_perms {
                        for algo in 0..n_algos {
                            for math in [MathMode::TensorCore, MathMode::Fp16] {
                                out.push(OpConfig {
                                    in_layout: a,
                                    in2_layout: Some(b),
                                    out_layout: c,
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
            let warp_axes: Vec<Option<char>> = if info.reduce_axis.is_some() {
                info.in_axes.iter().map(|&c| Some(c)).collect()
            } else {
                vec![None]
            };
            for &i in &in_perms {
                for &o in &out_perms {
                    for &v in &info.out_axes {
                        for &w in &warp_axes {
                            out.push(OpConfig {
                                in_layout: i,
                                in2_layout: None,
                                out_layout: o,
                                vector_axis: Some(v),
                                warp_axis: w,
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
        cfg.in_layout = Layout::row_major(3);
        let refused = op_cost(&DeviceSpec::v100(), &g, sm, &cfg);
        let wrong_rank = TensorError::LayoutRankMismatch {
            expected: 4,
            found: 3,
        };
        assert_eq!(refused.unwrap_err(), wrong_rank);
    }
}
