//! Bridges dataflow-graph operators to the performance model.
//!
//! An [`OpConfig`] fixes every tunable of one operator — tensor layouts,
//! vectorization axis, warp-reduction axis, GEMM algorithm and math mode —
//! and [`op_cost`] prices it on a device. Enumerating [`config_space`] and
//! pricing every element ([`OpModel::costs`]: each GEMM class once) is
//! exactly the exhaustive benchmarking step of the paper's recipe (Sec. V);
//! the distributions it produces are Figs. 4 & 5.

use xform_dataflow::{Graph, NodeId, OpKind};
use xform_tensor::einsum::EinsumSpec;
use xform_tensor::{Axis, Layout, Result, Shape, TensorError, MAX_RANK};

use crate::contraction::{
    algorithms, gemm_cost, layout_key, GemmAlgo, GemmLayout, GemmShape, InnerRole, KernelCost,
    MathMode, LAYOUT_KEYS,
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
    /// The last input of a two-contraction tile program: the second
    /// contraction's first operand (the attention region's values).
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
        let in3_shape = match (&node.kind, inputs.last()) {
            (
                OpKind::TileProgram {
                    second: Some(_), ..
                },
                Some(&v),
            ) => Some(shape_of(v)?),
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
    matches!(kind, OpKind::Einsum(_) | OpKind::TileProgram { .. })
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

/// A reusable pricing model for one operator: what prices its
/// configurations, gathered once — its shapes and roles, and for each GEMM
/// it runs as (an einsum's, each of a tile program's one or two) the
/// classification, the [`GemmShape`], the
/// [`InnerRole`] of every axis position of A, B and C and the algorithm
/// table — so a configuration is priced with no classification and no
/// allocation. [`op_cost`] is the one-shot wrapper; [`OpModel::costs`]
/// prices a sweep.
#[derive(Debug, Clone)]
pub struct OpModel {
    info: OpInfo,
    pricing: Pricing,
    /// The algorithm table a configuration's `algo` indexes.
    algos: Vec<GemmAlgo>,
}

/// How an operator's configurations are priced.
#[derive(Debug, Clone)]
enum Pricing {
    /// Normalizations and element-wise kernels: the access-pattern model.
    Kernel,
    /// One GEMM. A one-contraction tile program is contraction-bound: the
    /// fused element-wise tail rides the GEMM's output tiles for free.
    Gemm(Gemm),
    /// A two-contraction tile program — the attention region — as its two
    /// contractions back to back, the softmax between them riding the
    /// scores' tiles like an epilogue: the times add, and the scores the
    /// first would have written and the second read back — which the
    /// region keeps on chip — come off the words moved. The configuration lays out the scores contraction's
    /// operands and the context; the values and the virtual scores keep
    /// their natural order.
    Region {
        scores: Gemm,
        context: Gemm,
        /// Words of the scores written and read back, kept on chip.
        on_chip_words: f64,
        /// The region's own input and output words, a floor on `moved`.
        io_words: f64,
    },
}

/// One contraction's constants.
#[derive(Debug, Clone)]
struct Gemm {
    shape: GemmShape,
    /// Per operand — A, B, C — the GEMM role of each axis position.
    roles: [Vec<InnerRole>; 3],
}

impl Gemm {
    fn new(spec: &EinsumSpec, a: &Shape, b: &Shape, c: &Shape) -> Result<Gemm> {
        let class = spec.classify()?;
        let sizes = spec.gemm_sizes(a, b)?;
        // operand 0 is A (M × K), 1 is B (K × N), 2 is C (M × N)
        let role_of = |ax: &Axis, operand: usize| -> InnerRole {
            if class.batch.contains(ax) {
                InnerRole::Batch
            } else if class.k.contains(ax) {
                InnerRole::K
            } else if operand == 0 || (operand == 2 && class.m.contains(ax)) {
                InnerRole::M
            } else {
                InnerRole::N
            }
        };
        let roles = |shape: &Shape, operand| -> Vec<InnerRole> {
            shape.axes().iter().map(|ax| role_of(ax, operand)).collect()
        };
        Ok(Gemm {
            shape: GemmShape {
                batch: sizes.batch,
                m: sizes.m,
                n: sizes.n,
                k: sizes.k,
            },
            roles: [roles(a, 0), roles(b, 1), roles(c, 2)],
        })
    }

    /// The GEMM class of the operands laid out as `layouts` (A, B, C): the
    /// role that owns each one's contiguous axis, and whether every
    /// operand's role groups form contiguous segments, innermost not batch.
    fn class(&self, layouts: [Layout; 3]) -> Result<GemmLayout> {
        let mut inner = [InnerRole::Batch; 3];
        let mut blocked = true;
        for ((slot, layout), roles) in inner.iter_mut().zip(layouts).zip(&self.roles) {
            fits(layout, roles)?;
            // a role met again after another one is a second segment of it
            let (mut seen, mut last) = (0u8, None);
            for p in layout.order() {
                let role = roles[p];
                if last != Some(role) {
                    blocked &= seen & 1 << role as u8 == 0;
                    seen |= 1 << role as u8;
                    last = Some(role);
                }
            }
            *slot = last.expect("non-empty layout");
            blocked &= *slot != InnerRole::Batch;
        }
        Ok(GemmLayout {
            a_inner: inner[0],
            b_inner: inner[1],
            c_inner: inner[2],
            blocked,
        })
    }
}

impl OpModel {
    /// Builds the model for one operator.
    ///
    /// # Errors
    ///
    /// Returns an error if `op` is not a live operator with data inputs
    /// and outputs, or a contraction does not map onto a GEMM.
    pub fn new(graph: &Graph, op: NodeId) -> Result<OpModel> {
        let info = OpInfo::gather(graph, op)?;
        let pricing = match &info.kind {
            OpKind::Einsum(spec)
            | OpKind::TileProgram {
                first: spec,
                second: None,
                ..
            } => {
                let b = info.in2_shape.as_ref().ok_or_else(|| {
                    TensorError::Unsupported(format!("contraction `{}` has one input", info.name))
                })?;
                Pricing::Gemm(Gemm::new(spec, &info.in_shape, b, &info.out_shape)?)
            }
            OpKind::TileProgram {
                first: qkt,
                second: Some(gamma),
                ..
            } => {
                let (Some(b), Some(v)) = (&info.in2_shape, &info.in3_shape) else {
                    let what = format!("tile program `{}` lacks an operand", info.name);
                    return Err(TensorError::Unsupported(what));
                };
                let a = &info.in_shape;
                let extent = |&ax: &Axis| Ok((ax.name(), a.size(ax).or_else(|_| b.size(ax))?));
                let scores = Shape::new(
                    qkt.output()
                        .iter()
                        .map(extent)
                        .collect::<Result<Vec<_>>>()?,
                )?;
                Pricing::Region {
                    scores: Gemm::new(qkt, a, b, &scores)?,
                    context: Gemm::new(gamma, v, &scores, &info.out_shape)?,
                    on_chip_words: 2.0 * scores.num_elements() as f64,
                    io_words: (info.input_words + info.output_words) as f64,
                }
            }
            _ => Pricing::Kernel,
        };
        Ok(OpModel {
            info,
            pricing,
            algos: algorithms(),
        })
    }

    /// Prices one configuration on a device.
    ///
    /// # Errors
    ///
    /// Returns an error if a layout's rank is not its tensor's, a
    /// contraction's configuration lacks its second layout, or names an
    /// algorithm that does not exist.
    pub fn cost(&self, device: &DeviceSpec, cfg: &OpConfig) -> Result<KernelCost> {
        self.priced(device, cfg, None)
    }

    /// Prices configurations one after another, each as [`OpModel::cost`]
    /// would. For one shape, `gemm_cost` is a pure function of the GEMM
    /// class, the algorithm and the math mode — the sweep of a rank-4
    /// contraction meets a few dozen of those among hundreds of thousands
    /// of configurations — so each is computed once and remembered: the
    /// same bits by construction. The memo lives in the returned iterator,
    /// one operator's sweep, and never longer.
    pub fn costs<'a>(
        &'a self,
        device: &'a DeviceSpec,
        cfgs: impl IntoIterator<Item = OpConfig> + 'a,
    ) -> impl Iterator<Item = Result<KernelCost>> + 'a {
        let gemms = match &self.pricing {
            Pricing::Kernel => 0,
            Pricing::Gemm(_) => 1,
            Pricing::Region { .. } => 2,
        };
        let mut memo = vec![None; gemms * LAYOUT_KEYS * self.algos.len() * MATH_MODES.len()];
        cfgs.into_iter()
            .map(move |cfg| self.priced(device, &cfg, Some(&mut memo)))
    }

    /// The one pricing function, with `gemm_cost` remembered in `memo`
    /// (indexed by GEMM, class, algorithm, math mode) when one is given.
    fn priced(
        &self,
        device: &DeviceSpec,
        cfg: &OpConfig,
        mut memo: Option<&mut [Option<KernelCost>]>,
    ) -> Result<KernelCost> {
        let mut gemm = |at: usize, g: &Gemm, class: GemmLayout| -> Result<KernelCost> {
            let algo = *self.algos.get(cfg.algo).ok_or_else(|| {
                TensorError::Unsupported(format!("unknown GEMM algorithm {}", cfg.algo))
            })?;
            let cost = || gemm_cost(device, g.shape, class, algo, cfg.math);
            Ok(match memo.as_deref_mut() {
                Some(memo) => {
                    let key = at * LAYOUT_KEYS + layout_key(class) as usize;
                    let slot = (key * self.algos.len() + cfg.algo) * MATH_MODES.len();
                    *memo[slot + cfg.math as usize].get_or_insert_with(cost)
                }
                None => cost(),
            })
        };
        let in2 = || {
            cfg.in2_layout.ok_or_else(|| {
                let name = &self.info.name;
                TensorError::Unsupported(format!("contraction `{name}` config lacks in2 layout"))
            })
        };
        match &self.pricing {
            Pricing::Kernel => normalization_cost(device, &self.info, cfg),
            Pricing::Gemm(g) => gemm(0, g, g.class([cfg.in_layout, in2()?, cfg.out_layout])?),
            Pricing::Region {
                scores,
                context,
                on_chip_words,
                io_words,
            } => {
                let natural = |roles: &[InnerRole]| Layout::row_major(roles.len());
                let s = natural(&scores.roles[2]);
                let c1 = gemm(0, scores, scores.class([cfg.in_layout, in2()?, s])?)?;
                let v = natural(&context.roles[0]);
                let c2 = gemm(1, context, context.class([v, s, cfg.out_layout])?)?;
                Ok(KernelCost {
                    time_us: c1.time_us + c2.time_us,
                    moved_words: (c1.moved_words + c2.moved_words - on_chip_words).max(*io_words),
                    bandwidth_frac: c1.bandwidth_frac.min(c2.bandwidth_frac),
                    flop: c1.flop + c2.flop,
                })
            }
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

/// The math modes a contraction is priced in, in enumeration order.
const MATH_MODES: [MathMode; 2] = [MathMode::TensorCore, MathMode::Fp16];

/// One operator's configuration space: every combination of its in, in2
/// and out layouts, vector and warp axes, algorithms and math modes, the
/// last varying fastest — a contraction has one vector and one warp axis
/// (none), a kernel one second input (none), one algorithm and one math
/// mode. An [`ExactSizeIterator`] whose `nth` decodes an index (mixed
/// radix) instead of walking to it, so sampling it by stride never builds
/// it.
#[derive(Debug, Clone)]
pub struct ConfigSpace {
    ins: Vec<Layout>,
    in2s: Vec<Option<Layout>>,
    outs: Vec<Layout>,
    vectors: Vec<Option<char>>,
    warps: Vec<Option<char>>,
    algos: usize,
    maths: &'static [MathMode],
    /// The index of the next configuration, and the space's size.
    next: usize,
    len: usize,
}

impl ConfigSpace {
    /// The configuration at `index` (below the space's size).
    fn at(&self, index: usize) -> OpConfig {
        let mut rest = index;
        let mut digit = |radix: usize| {
            let d = rest % radix;
            rest /= radix;
            d
        };
        let math = self.maths[digit(self.maths.len())];
        let algo = digit(self.algos);
        let warp_axis = self.warps[digit(self.warps.len())];
        let vector_axis = self.vectors[digit(self.vectors.len())];
        let out_layout = self.outs[digit(self.outs.len())];
        let in2_layout = self.in2s[digit(self.in2s.len())];
        OpConfig {
            in_layout: self.ins[rest],
            in2_layout,
            out_layout,
            vector_axis,
            warp_axis,
            algo,
            math,
        }
    }
}

impl Iterator for ConfigSpace {
    type Item = OpConfig;

    fn next(&mut self) -> Option<OpConfig> {
        let index = self.next;
        (index < self.len).then(|| {
            self.next += 1;
            self.at(index)
        })
    }

    fn nth(&mut self, n: usize) -> Option<OpConfig> {
        self.next = self.next.saturating_add(n).min(self.len);
        self.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.len - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ConfigSpace {}

/// Enumerates the full configuration space of one operator: every layout
/// permutation of its primary tensors, plus vectorization / warp axes for
/// normalization kernels, or algorithms × math modes for contractions
/// (einsums and tile programs).
///
/// # Errors
///
/// Returns an error if the op id is invalid, or a contraction has one
/// input.
pub fn config_space(graph: &Graph, op: NodeId) -> Result<ConfigSpace> {
    let info = OpInfo::gather(graph, op)?;
    let some = |axes: &[char]| axes.iter().copied().map(Some).collect();
    let mut space = ConfigSpace {
        ins: Layout::all(info.in_axes.len()),
        in2s: vec![None],
        outs: Layout::all(info.out_axes.len()),
        vectors: vec![None],
        warps: vec![None],
        algos: 1,
        maths: &MATH_MODES[..1],
        next: 0,
        len: 0,
    };
    if positional(&info.kind) {
        let in2_axes = info.in2_axes.as_ref().ok_or_else(|| {
            TensorError::Unsupported(format!("contraction `{}` has one input", info.name))
        })?;
        space.in2s = Layout::all(in2_axes.len()).into_iter().map(Some).collect();
        space.algos = algorithms().len();
        space.maths = &MATH_MODES;
    } else {
        space.vectors = some(&info.out_axes);
        if info.reduce_axis.is_some() {
            space.warps = some(&info.in_axes);
        }
    }
    let layouts = space.ins.len() * space.in2s.len() * space.outs.len();
    let axes = space.vectors.len() * space.warps.len();
    space.len = layouts * axes * space.algos * space.maths.len();
    Ok(space)
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
    fn space_sizes_are_sane() {
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
