//! Step lowering: what a scheduled step's kernel does with each operand.
//!
//! [`lower_step`] is the one place (outside the hand-written reference
//! interpreter, [`crate::plan::execute_step`]) that decides which kernel
//! class a step is and what *logical* [`Role`] each operand slot plays in
//! it. It reads the graph's edges and shapes, the step's operator kind and
//! its kernel name — never the step's declared operand list, so its three
//! consumers can hold declarations against it:
//!
//! * the arena precompiler ([`crate::arena`]) turns roles into slab views
//!   and keeps the baked [`Kernel`] geometry;
//! * the access certifier ([`crate::access::step_accesses`]) turns the same
//!   roles into index-affine paths under the declared layouts;
//! * the footprint oracle ([`crate::sanitize::step_footprint`]) turns them
//!   into element spans.
//!
//! `None` means the lowering does not model the step (a backward kernel, an
//! operand count or a geometry no forward kernel has): a compile error
//! naming the step on the arena, conservative whole-buffer accesses in both
//! certifiers. A new kernel class is one row here, one arm in the arena's
//! `run_step`, and one arm in the reference interpreter.

use xform_dataflow::{Graph, NodeId, OpKind};
use xform_tensor::into_ops::{BiasMap, CausalMap, ContractPlan, LaneGeom};
use xform_tensor::{Axis, Layout, Shape};

use crate::plan::{
    causal_map_of, classify_fused, epilogue_geometry, labelled_shapes, stacked_carve_start,
    FusedClass, PlanStep,
};

/// One operand slot of a step, by position in the graph's edge order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// The `k`-th input edge.
    In(usize),
    /// The `k`-th output edge.
    Out(usize),
}

/// What a kernel does with one operand, independent of where the operand
/// lives (a tensor, a slab range) and of its physical layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Role {
    /// Every word once, element by element in container order.
    Whole,
    /// Every word once, lane by lane along logical axis `axis` of the
    /// container (the softmax and normalization sweeps).
    Lanes {
        /// Position of the lane axis in the container's shape.
        axis: usize,
    },
    /// Words `[base, base + words)` of the container: the rows of one
    /// projection of a stacked Q/K/V tensor (the stacking axis is the
    /// outermost, so a row range is a word range).
    Carve {
        /// First word.
        base: usize,
        /// Word count.
        words: usize,
    },
    /// Gathered through a broadcast map while another operand is swept (a
    /// bias onto the step's output geometry).
    Broadcast(BiasMap),
    /// Dense per-lane weights indexed by lane position (γ, β).
    LaneWeights,
    /// A GEMM operand (or a tile epilogue's full-size stream): every word,
    /// through the contraction's own strides — no inner-loop claim.
    Gemm,
}

/// The per-tile tail of a GEMM-epilogue mega-kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tail {
    /// Scaled (optionally causal) softmax + dropout.
    Sm,
    /// Bias + activation + dropout.
    BrdAct,
    /// Bias + dropout + residual.
    Bdr,
}

/// The kernel class of a step with its baked geometry. Operands follow in
/// [`StepLowering::operands`], in the order each variant documents.
#[derive(Debug, Clone)]
pub(crate) enum Kernel {
    /// Two-operand einsum `[a, b, out]`.
    Contract {
        /// The contraction over dense row-major operands.
        plan: Box<ContractPlan>,
    },
    /// Broadcast bias add, one `[x, bias, out]` triple per projection: one
    /// for a plain (or carved `Input bias Q/K/V`) step, three for fused AIB.
    Bias,
    /// `[x, out]`, times the run's scaler.
    Scale,
    /// `[x, out]`, the run's activation.
    Activate,
    /// `[x, out, mask]`.
    Dropout,
    /// `[a, b, out]`.
    Residual,
    /// Unfused scale-folded softmax `[x, out]`, causal for the masked one.
    Softmax {
        /// Lane decomposition of `x`.
        lane: LaneGeom,
        /// Query recovery of a masked softmax.
        causal: Option<CausalMap>,
    },
    /// Fused SM `[x, softmax, alpha, mask]`.
    Sm {
        /// Lane decomposition of `x`.
        lane: LaneGeom,
        /// Query recovery of a masked softmax.
        causal: Option<CausalMap>,
    },
    /// Layer norm `[x, gamma, beta, out]`.
    LayerNorm {
        /// Lane decomposition of `x`.
        lane: LaneGeom,
    },
    /// Fused BDRLN `[x, bias, residual, gamma, beta, mask, ln_input, out]`.
    Bdrln {
        /// Lane decomposition of `x`.
        lane: LaneGeom,
    },
    /// Fused BRD `[x, bias, pre_activation, out, mask]`.
    BrdAct,
    /// Fused BDR `[x, bias, residual, mask, out]`.
    Bdr,
    /// GEMM-epilogue mega-kernel: `[a, b]`, then the tail's operands in the
    /// order of its unfused class (`x` being the tile, which has no slot).
    ContractEpilogue {
        /// The contraction writing the output container in order.
        plan: Box<ContractPlan>,
        /// Output rows per tile.
        tile_rows: usize,
        /// Query recovery of a masked softmax tail.
        causal: Option<CausalMap>,
        /// The per-tile chain.
        tail: Tail,
    },
}

impl Kernel {
    /// Scratch words the kernel needs beside its operands: gather packs,
    /// and for the epilogue class the packed B panels and the output tile.
    pub(crate) fn scratch_words(&self) -> usize {
        match self {
            Kernel::Contract { plan } => plan.scratch_words(),
            Kernel::ContractEpilogue {
                plan, tile_rows, ..
            } => plan.epilogue_scratch_words(*tile_rows),
            _ => 0,
        }
    }
}

/// One step, lowered: its kernel class and the role of every operand.
#[derive(Debug, Clone)]
pub(crate) struct StepLowering {
    /// The kernel class with its baked geometry.
    pub kernel: Kernel,
    /// One entry per kernel operand, in the kernel's argument order. Every
    /// edge of the step appears at least once; the stacked input of fused
    /// AIB appears once per projection.
    pub operands: Vec<(Slot, Role)>,
    /// For the normalizing classes: the output slot whose container name
    /// keys the per-lane statistics, and the lane count.
    pub stats: Option<(usize, usize)>,
}

/// Row-major strides of a shape.
fn rm_strides(shape: &Shape) -> Vec<usize> {
    Layout::row_major(shape.rank()).strides(shape)
}

/// Broadcast map from `out`'s row-major geometry onto `bias`'s; `None` when
/// a bias axis is absent from the output or the extents disagree.
fn bias_map(out: &Shape, bias: &Shape) -> Option<BiasMap> {
    let (out_strides, bias_strides) = (rm_strides(out), rm_strides(bias));
    let mut dims = Vec::with_capacity(bias.rank());
    for (bi, &ax) in bias.axes().iter().enumerate() {
        let p = out.index_of(ax).ok()?;
        if out.sizes()[p] != bias.sizes()[bi] {
            return None;
        }
        dims.push((out_strides[p], out.sizes()[p], bias_strides[bi]));
    }
    Some(BiasMap { dims })
}

/// The carve of `rows` leading rows of `stacked` starting at row `start`,
/// shaped like one projection `part`.
fn carve(stacked: &Shape, part: &Shape, start: usize) -> Option<Role> {
    let rows = *part.sizes().first()?;
    if stacked.rank() == 0
        || stacked.sizes()[1..] != part.sizes()[1..]
        || start + rows > stacked.sizes()[0]
    {
        return None;
    }
    let rest: usize = stacked.sizes()[1..].iter().product();
    Some(Role::Carve {
        base: start * rest,
        words: rows * rest,
    })
}

/// Lowers one scheduled step from the graph's edges, the step's operator
/// kind and its kernel name; see the module docs.
pub(crate) fn lower_step(graph: &Graph, step: &PlanStep) -> Option<StepLowering> {
    use Role::{Broadcast, Gemm, LaneWeights, Lanes, Whole};
    graph.op(step.op)?;
    let shapes = |ids: Vec<NodeId>| -> Option<Vec<&Shape>> {
        ids.into_iter()
            .map(|id| graph.data(id).map(|d| &d.shape))
            .collect()
    };
    let ins = shapes(graph.inputs_of(step.op))?;
    let outs = shapes(graph.outputs_of(step.op))?;
    // positional input roles, then `n_out` outputs all in `out` role
    let roles = |inputs: Vec<Role>, n_out: usize, out: Role| -> Option<Vec<(Slot, Role)>> {
        (inputs.len() == ins.len() && n_out == outs.len()).then(|| {
            let inputs = inputs
                .into_iter()
                .enumerate()
                .map(|(k, r)| (Slot::In(k), r));
            let outputs = (0..n_out).map(|k| (Slot::Out(k), out.clone()));
            inputs.chain(outputs).collect()
        })
    };
    // element-wise: every operand the same size, each swept whole
    let elementwise = |n_in: usize, n_out: usize| {
        let words = ins.first()?.num_elements();
        let same = ins.iter().chain(&outs).all(|s| s.num_elements() == words);
        roles(vec![Whole; n_in], n_out, Whole).filter(|_| same)
    };
    let lane_of = |axis: Axis| -> Option<(usize, LaneGeom)> {
        let x = ins.first()?;
        let ai = x.index_of(axis).ok()?;
        Some((ai, LaneGeom::new(x.sizes(), ai)))
    };
    let causal_of = |masked: bool, axis: Axis| -> Option<Option<CausalMap>> {
        if masked {
            causal_map_of(ins.first()?, axis).map(Some)
        } else {
            Some(None)
        }
    };
    // γ/β at input slots `g`, `g + 1` hold one weight per lane position
    let weights_fit = |lane: LaneGeom, g: usize| {
        ins.get(g..g + 2)
            .is_some_and(|w| w.iter().all(|s| s.num_elements() == lane.len))
    };
    let norm = |axis: Axis| {
        let (axis, lane) = lane_of(axis)?;
        let operands = roles(
            vec![Lanes { axis }, LaneWeights, LaneWeights],
            1,
            Lanes { axis },
        )?;
        weights_fit(lane, 1).then_some((
            Kernel::LayerNorm { lane },
            operands,
            Some((0, lane.lanes())),
        ))
    };

    let (kernel, operands, stats) = match &step.kind {
        OpKind::Einsum(spec) => {
            let operands = roles(vec![Gemm, Gemm], 1, Gemm)?;
            // the labelled output must positionally match the container's
            // declared shape, or the GEMM would misplace
            let (a_s, b_s, lbl) = labelled_shapes(spec, ins[0], ins[1])?;
            if lbl.sizes() != outs[0].sizes() {
                return None;
            }
            let plan = ContractPlan::compile(
                spec,
                &a_s,
                &rm_strides(&a_s),
                &b_s,
                &rm_strides(&b_s),
                &rm_strides(&lbl),
            )
            .ok()?;
            let plan = Box::new(plan);
            (Kernel::Contract { plan }, operands, None)
        }
        OpKind::Bias { .. } => {
            let (&x, &out) = (ins.first()?, outs.first()?);
            let x_role = if x.sizes() == out.sizes() && x.spec() == out.spec() {
                Whole
            } else {
                // `Input bias Q/K/V`: one projection's rows of the stacked tensor
                let (total, rows) = (*x.sizes().first()?, *out.sizes().first()?);
                carve(x, out, stacked_carve_start(&step.name, total, rows)?)?
            };
            let bias = Broadcast(bias_map(out, ins.get(1)?)?);
            (Kernel::Bias, roles(vec![x_role, bias], 1, Whole)?, None)
        }
        OpKind::Scale => (Kernel::Scale, elementwise(1, 1)?, None),
        OpKind::Relu => (Kernel::Activate, elementwise(1, 1)?, None),
        OpKind::Dropout => (Kernel::Dropout, elementwise(1, 2)?, None),
        OpKind::Residual => (Kernel::Residual, elementwise(2, 1)?, None),
        OpKind::Softmax { axis } => {
            let (ai, lane) = lane_of(*axis)?;
            let causal = causal_of(step.name.contains("Masked"), *axis)?;
            let operands = roles(vec![Lanes { axis: ai }], 1, Lanes { axis: ai })?;
            (Kernel::Softmax { lane, causal }, operands, None)
        }
        OpKind::LayerNorm { axis } => norm(*axis)?,
        OpKind::Fused {
            parts, reduce_axis, ..
        } => match classify_fused(parts)? {
            FusedClass::InputBias => {
                // inputs [stacked, bq, bk, bv] → outputs [qq, kk, vv]
                if outs.is_empty() || ins.len() != outs.len() + 1 {
                    return None;
                }
                let mut operands = Vec::with_capacity(3 * outs.len());
                let mut start = 0usize;
                for (k, out) in outs.iter().enumerate() {
                    operands.push((Slot::In(0), carve(ins[0], out, start)?));
                    operands.push((Slot::In(k + 1), Broadcast(bias_map(out, ins[k + 1])?)));
                    operands.push((Slot::Out(k), Whole));
                    start += out.sizes()[0];
                }
                (Kernel::Bias, operands, None)
            }
            FusedClass::Softmax { causal } => {
                let (axis, lane) = lane_of((*reduce_axis)?)?;
                let causal = causal_of(causal, (*reduce_axis)?)?;
                let operands = roles(vec![Lanes { axis }], 3, Lanes { axis })?;
                (Kernel::Sm { lane, causal }, operands, None)
            }
            FusedClass::BiasDropResidualNorm => {
                let (axis, lane) = lane_of((*reduce_axis)?)?;
                let bias = Broadcast(bias_map(ins[0], ins.get(1)?)?);
                let sweep = Lanes { axis };
                let inputs = vec![sweep.clone(), bias, sweep.clone(), LaneWeights, LaneWeights];
                let operands = roles(inputs, 3, sweep)?;
                if !weights_fit(lane, 3) {
                    return None;
                }
                (Kernel::Bdrln { lane }, operands, Some((2, lane.lanes())))
            }
            FusedClass::BiasActDrop => {
                let bias = Broadcast(bias_map(ins[0], ins.get(1)?)?);
                (Kernel::BrdAct, roles(vec![Whole, bias], 3, Whole)?, None)
            }
            FusedClass::BiasDropResidual => {
                let bias = Broadcast(bias_map(ins[0], ins.get(1)?)?);
                (
                    Kernel::Bdr,
                    roles(vec![Whole, bias, Whole], 2, Whole)?,
                    None,
                )
            }
            FusedClass::Norm => norm((*reduce_axis)?)?,
        },
        OpKind::ContractionEpilogue {
            spec,
            parts,
            reduce_axis,
            ..
        } => {
            let (&a, &b, &out) = (ins.first()?, ins.get(1)?, outs.first()?);
            let (bias, residual) = (ins.get(2).copied(), ins.get(3).copied());
            let geom = epilogue_geometry(spec, parts, *reduce_axis, a, b, out, bias, residual)?;
            // each output row sees one bias word: the tile map `[(n, m, 1)]`
            let tile_bias = || {
                Broadcast(BiasMap {
                    dims: vec![(geom.plan.n, geom.plan.m, 1)],
                })
            };
            let (tail, operands) = match geom.class {
                FusedClass::Softmax { .. } => (Tail::Sm, roles(vec![Gemm, Gemm], 3, Gemm)?),
                FusedClass::BiasActDrop => {
                    (Tail::BrdAct, roles(vec![Gemm, Gemm, tile_bias()], 3, Gemm)?)
                }
                FusedClass::BiasDropResidual => (
                    Tail::Bdr,
                    roles(vec![Gemm, Gemm, tile_bias(), Gemm], 2, Gemm)?,
                ),
                _ => return None,
            };
            let kernel = Kernel::ContractEpilogue {
                plan: Box::new(geom.plan),
                tile_rows: geom.tile_rows,
                causal: geom.causal,
                tail,
            };
            (kernel, operands, None)
        }
        _ => return None,
    };
    Some(StepLowering {
        kernel,
        operands,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::{apply_epilogues, apply_plan, decoder_fusion_plan, encoder_fusion_plan};
    use crate::plan::ExecutionPlan;
    use crate::recipe::forward_ops;
    use xform_dataflow::{build, DataRole, EncoderDims};

    /// The footprint oracle reads a lowering as the step's whole access
    /// set, so a row that forgot an edge would under-report it.
    #[test]
    fn every_row_names_every_edge_of_its_step() {
        let dims = EncoderDims::tiny();
        for (decoder, fuse, epilogue) in [
            (false, false, false),
            (false, true, false),
            (false, true, true),
            (true, true, false),
            (true, true, true),
        ] {
            let eg = if decoder {
                build::decoder(&dims)
            } else {
                build::encoder(&dims)
            };
            let mut g = eg.graph;
            if fuse {
                let groups = if decoder {
                    decoder_fusion_plan()
                } else {
                    encoder_fusion_plan()
                };
                apply_plan(&mut g, &groups).unwrap();
            }
            if epilogue {
                assert!(!apply_epilogues(&mut g).unwrap().is_empty());
            }
            let plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
            for step in &plan.steps {
                let low = lower_step(&g, step)
                    .unwrap_or_else(|| panic!("`{}` is a forward kernel", step.name));
                for k in 0..step.inputs.len() {
                    assert!(
                        low.operands.iter().any(|(s, _)| *s == Slot::In(k)),
                        "`{}` input {k}",
                        step.name
                    );
                }
                for k in 0..step.outputs.len() {
                    assert!(
                        low.operands.iter().any(|(s, _)| *s == Slot::Out(k)),
                        "`{}` output {k}",
                        step.name
                    );
                }
            }
        }
    }

    #[test]
    fn the_stacked_carves_tile_the_projection() {
        let eg = build::encoder(&EncoderDims::tiny());
        let plan = ExecutionPlan::natural(&eg.graph, &forward_ops(&eg.graph, eg.dy)).unwrap();
        let mut carves = Vec::new();
        let mut stacked = None;
        for name in ["Input bias Q", "Input bias K", "Input bias V"] {
            let step = plan.steps.iter().find(|s| s.name == name).unwrap();
            let low = lower_step(&eg.graph, step).unwrap();
            assert!(matches!(low.kernel, Kernel::Bias));
            stacked = Some(step.inputs[0].data);
            match low.operands[0] {
                (Slot::In(0), Role::Carve { base, words }) => carves.push((base, words)),
                ref other => panic!("{name}: {other:?}"),
            }
        }
        let total = eg.graph.data(stacked.unwrap()).unwrap();
        let third = total.shape.num_elements() / 3;
        assert_eq!(carves, [(0, third), (third, third), (2 * third, third)]);
    }

    #[test]
    fn backward_kernels_and_miscounted_operands_have_no_lowering() {
        let mut g = Graph::new();
        let shape = || Shape::new([('b', 2), ('i', 3)]).unwrap();
        let x = g.add_data("x", shape(), DataRole::Input);
        let dy = g.add_data("dy", shape(), DataRole::Input);
        let dx = g.add_data("dx", shape(), DataRole::Output);
        let y = g.add_data("y", shape(), DataRole::Output);
        let back = g.add_op("ReLU dX", OpKind::ReluGrad, &[x, dy], &[dx]);
        let lone = g.add_op("lonely residual", OpKind::Residual, &[x], &[y]);
        let plan = ExecutionPlan::natural(&g, &[back, lone]).unwrap();
        assert!(lower_step(&g, &plan.steps[0]).is_none());
        assert!(lower_step(&g, &plan.steps[1]).is_none());
    }
}
