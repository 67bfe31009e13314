//! The fusion pass (Sec. IV): detecting fusable operator groups and
//! rewriting the dataflow graph.
//!
//! Detection walks producer→consumer chains of non-contraction operators,
//! extending a chain while iteration spaces stay compatible
//! ([`crate::itspace::fusion_compatible`]) and at most one axis-type
//! normalization (softmax/layer-norm) is absorbed; trailing bias-dW style
//! side reductions are attached per pattern 1/4 of Fig. 3. On the BERT
//! encoder graph this discovers the paper's chains; [`encoder_fusion_plan`]
//! additionally pins down the exact Table III grouping (including the
//! launch-count-driven merge of `Bias 2 dW` into `BDRB`, which the paper
//! chose manually "to perform fewer kernel launches").
//!
//! [`fuse`] is the pipeline's fusion step, the recipe's and every canned
//! plan's (`xform_transformer::interp::cached_plan`): a table validated,
//! then applied, then the tile passes the caller asks for.
//!
//! Those passes go where the paper stops — at the contractions — and are
//! asked for only by the *canned* plans, not by the fusion tables, so every
//! recipe-swept and paper-table graph stays as the paper has it.
//! [`detect_tiles`] finds every chain that runs as a *tile program*: a
//! contraction whose output rows only a fused kernel reads, a tile of them
//! at a time, and — behind a softmax — the contraction that reads the
//! kernel's weights. The canned plans collapse them ([`Graph::fuse_tile`])
//! in two selections:
//!
//! * [`apply_regions`] collapses the attention core `QKT → SM → Gamma`
//!   into one [`OpKind::TileProgram`] of two contractions that works a
//!   panel of query rows at a time: the `[h,b,j,k]` tensors between the two
//!   are never materialized (in a training graph `QKT → SM` stays behind as
//!   the backward side's rematerialization);
//! * [`apply_epilogues`], after it, collapses each remaining contraction →
//!   bias-class-kernel pair into a one-contraction program — the model
//!   head's `Head → BSV` ([`head_fusion_plan`]) among them, whose logits then
//!   never exist beyond a tile of rows.
//!
//! Both are bit for bit the chains they replace. A plan that keeps a chain
//! audits its intermediate as avoidable movement ([`detect_tiles`]).

use xform_dataflow::{Graph, NodeId, OpClass, OpKind};
use xform_tensor::{Layout, Result, TensorError};

use crate::itspace::{fusion_compatible, op_iter_space};
use crate::lower::tile_kernel;
use crate::plan::{classify_fused, FusedClass};

/// One planned fused kernel: a name and the member operator names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionGroup {
    /// Kernel name (e.g. `"SM"`).
    pub name: String,
    /// Names of the member operators, in execution order.
    pub members: Vec<String>,
}

impl FusionGroup {
    fn new(name: &str, members: &[&str]) -> Self {
        FusionGroup {
            name: name.to_string(),
            members: members.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// The paper's exact fusion plan for the BERT encoder layer (Sec. IV-A's
/// kernel list / Table III's braces). The two `BLNRD` instances are
/// suffixed by which layer-norm they serve.
///
/// # Examples
///
/// ```
/// use xform_core::fusion::{apply_plan, encoder_fusion_plan};
/// use xform_dataflow::{build, EncoderDims};
/// let mut graph = build::encoder(&EncoderDims::tiny()).graph;
/// let before = graph.total_io_words();
/// apply_plan(&mut graph, &encoder_fusion_plan()).unwrap();
/// assert!(graph.total_io_words() < before); // fusion saved data movement
/// ```
pub fn encoder_fusion_plan() -> Vec<FusionGroup> {
    vec![
        FusionGroup::new("AIB", &["Input bias Q", "Input bias K", "Input bias V"]),
        FusionGroup::new("SM", &["Scaled softmax", "Dropout att"]),
        FusionGroup::new(
            "DRLN",
            &["Output bias", "Dropout 1", "Residual 1", "LayerNorm 1"],
        ),
        FusionGroup::new("BRD", &["Bias 1", "ReLU", "Dropout 2"]),
        FusionGroup::new(
            "BDRLN",
            &["Bias 2", "Dropout 3", "Residual 2", "LayerNorm 2"],
        ),
        FusionGroup::new("BSB", &["LayerNorm 2 dW"]),
        FusionGroup::new("BLNRD2", &["LayerNorm 2 dX", "Dropout 3 dX"]),
        FusionGroup::new(
            "BDRB",
            &["Bias 2 dW", "Dropout 2 dX", "ReLU dX", "Bias 1 dW"],
        ),
        FusionGroup::new("EBSB", &["Residual 2 dX", "LayerNorm 1 dW"]),
        FusionGroup::new("BLNRD1", &["LayerNorm 1 dX", "Dropout 1 dX"]),
        FusionGroup::new("BAOB", &["Output bias dW"]),
        FusionGroup::new("BS", &["Dropout att dX", "Scaled softmax dX"]),
        FusionGroup::new("BAIB", &["Input bias dW"]),
        FusionGroup::new("BEI", &["Residual 1 dX"]),
    ]
}

/// The fusion plan for a GPT-2-style (pre-layer-norm, causally masked)
/// decoder block, derived with the same rules. Pre-LN hoists the layer
/// norms out of the residual chains, so they fuse with fewer neighbours
/// than in the encoder; everything else maps one-to-one.
///
/// This is the only decoder table. A prefill pass runs the forward steps of
/// the training graph fused by it, and the forward-only decode-step graphs
/// ([`xform_dataflow::build::decoder_step_project`],
/// [`xform_dataflow::build::decoder_step_attend`]) are fused by this plan
/// *filtered* to the groups they have members of (`[AIB, LN1]` and
/// `[SM, BDR, BRD, BDR2, LN2]`; the filter lives with their constructors in
/// `xform_transformer::interp`) — [`apply_plan`] errors on a missing
/// operator, so the filter is what lets one table serve graphs without a
/// backward half, and the step kernels cannot drift from the training
/// decoder's because they are not written down a second time.
pub fn decoder_fusion_plan() -> Vec<FusionGroup> {
    vec![
        FusionGroup::new("AIB", &["Input bias Q", "Input bias K", "Input bias V"]),
        FusionGroup::new("SM", &["Masked softmax", "Dropout att"]),
        FusionGroup::new("BDR", &["Output bias", "Dropout 1", "Residual 1"]),
        FusionGroup::new("BRD", &["Bias 1", "GELU", "Dropout 2"]),
        FusionGroup::new("BDR2", &["Bias 2", "Dropout 3", "Residual 2"]),
        FusionGroup::new("LN1", &["LayerNorm 1"]),
        FusionGroup::new("LN2", &["LayerNorm 2"]),
        FusionGroup::new("BDB", &["Dropout 3 dX", "Bias 2 dW"]),
        FusionGroup::new("BDRB", &["Dropout 2 dX", "GELU dX", "Bias 1 dW"]),
        FusionGroup::new("BSB2", &["LayerNorm 2 dW"]),
        FusionGroup::new("BLNR2", &["LayerNorm 2 dX", "Residual 2 dX"]),
        FusionGroup::new("BDAOB", &["Dropout 1 dX", "Output bias dW"]),
        FusionGroup::new("BS", &["Dropout att dX", "Masked softmax dX"]),
        FusionGroup::new("BAIB", &["Input bias dW"]),
        FusionGroup::new("BSB1", &["LayerNorm 1 dW"]),
        FusionGroup::new("BLNR1", &["LayerNorm 1 dX", "Residual 1 dX"]),
    ]
}

/// The fusion plan of the model head ([`xform_dataflow::build::head`]): its
/// bias and its softmax over the vocabulary as one kernel, `BSV`, which
/// [`apply_epilogues`] then collapses into the head contraction.
pub fn head_fusion_plan() -> Vec<FusionGroup> {
    vec![FusionGroup::new("BSV", &["Head bias", "Head softmax"])]
}

/// Applies a fusion plan to a graph, returning the fused op ids in plan
/// order. Groups with a single member are renamed (they still become one
/// specialized kernel) rather than rewired.
///
/// # Errors
///
/// Returns an error if a named operator is missing or a group is invalid
/// (e.g. contains a contraction).
pub fn apply_plan(graph: &mut Graph, plan: &[FusionGroup]) -> Result<Vec<NodeId>> {
    let mut out = Vec::new();
    for group in plan {
        let ids: Vec<NodeId> = group
            .members
            .iter()
            .map(|m| {
                graph
                    .op_by_name(m)
                    .ok_or_else(|| TensorError::Unsupported(format!("operator `{m}` not found")))
            })
            .collect::<Result<Vec<_>>>()?;
        out.push(graph.fuse(&ids, &group.name)?);
    }
    Ok(out)
}

/// The fusion step: `table` checked against `graph` ([`validate_plan`])
/// and applied ([`apply_plan`]), then the tile passes asked for — the
/// attention core into regions standing for `regions` schedule positions
/// ([`apply_regions`]), then every GEMM-epilogue chain
/// ([`apply_epilogues`]).
///
/// # Errors
///
/// Returns [`TensorError::Unsupported`] ("fusion plan rejected: …", every
/// problem named) for a table that does not fit `graph`, which is then left
/// as it was, and propagates a pass's error.
pub fn fuse(
    graph: &mut Graph,
    table: &[FusionGroup],
    regions: Option<usize>,
    epilogues: bool,
) -> Result<()> {
    let problems = validate_plan(graph, table);
    if !problems.is_empty() {
        let what = format!("fusion plan rejected: {}", problems.join("; "));
        return Err(TensorError::Unsupported(what));
    }
    apply_plan(graph, table)?;
    if let Some(span) = regions {
        apply_regions(graph, span)?;
    }
    if epilogues {
        apply_epilogues(graph)?;
    }
    Ok(())
}

/// Validates a fusion plan against a graph *without* mutating it: every
/// member must exist, be a non-contraction operator, appear in exactly one
/// group, and multi-op groups must be iteration-space coherent (every
/// member compatible with at least one other member). Returns
/// human-readable problems; an empty list means the plan is applicable.
pub fn validate_plan(graph: &Graph, plan: &[FusionGroup]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for group in plan {
        for m in &group.members {
            if seen.contains(&m.as_str()) {
                problems.push(format!("`{m}` appears in more than one group"));
            }
            seen.push(m);
            let Some(id) = graph.op_by_name(m) else {
                problems.push(format!("group `{}`: operator `{m}` not found", group.name));
                continue;
            };
            let node = graph.op(id).expect("live op");
            if node.kind.class() == OpClass::TensorContraction {
                problems.push(format!(
                    "group `{}`: `{m}` is a tensor contraction and cannot fuse",
                    group.name
                ));
            }
        }
        if group.members.len() > 1 {
            let ids: Vec<NodeId> = group
                .members
                .iter()
                .filter_map(|m| graph.op_by_name(m))
                .collect();
            for (i, &a) in ids.iter().enumerate() {
                // full reductions (bias dW / layer-norm dW) may be merged
                // into any kernel purely to save a launch (Sec. IV's first
                // benefit case) — the paper's BDRB does exactly this with
                // `Bias 2 dW`, whose iteration space matches no other member
                if matches!(
                    graph.op(a).map(|o| &o.kind),
                    Some(OpKind::BiasGrad { .. } | OpKind::LayerNormGradW { .. })
                ) {
                    continue;
                }
                let Ok(sa) = op_iter_space(graph, a) else {
                    continue;
                };
                let coherent = ids.iter().enumerate().any(|(j, &b)| {
                    if i == j {
                        return false;
                    }
                    op_iter_space(graph, b)
                        .map(|sb| {
                            fusion_compatible(&sa, &sb).is_some()
                                || fusion_compatible(&sb, &sa).is_some()
                                || sizes_match(&sa, &sb)
                        })
                        .unwrap_or(false)
                });
                if !coherent {
                    problems.push(format!(
                        "group `{}`: `{}` shares no compatible iteration space with any member",
                        group.name, group.members[i]
                    ));
                }
            }
        }
    }
    problems
}

/// Whether two iteration spaces match by dimension *sizes* (the sibling
/// criterion: Q/K/V streams use different letters for equal dims).
fn sizes_match(a: &crate::itspace::IterSpace, b: &crate::itspace::IterSpace) -> bool {
    let sz = |sp: &crate::itspace::IterSpace| {
        let mut v: Vec<usize> = sp.independent.iter().map(|&(_, n)| n).collect();
        v.sort_unstable();
        v
    };
    sz(a) == sz(b)
}

/// Detects fusable groups automatically from iteration spaces.
///
/// The walk considers non-contraction operators in execution order:
///
/// 1. start a chain at an unclaimed operator;
/// 2. extend through its unique data consumer while the consumer is an
///    unclaimed non-contraction with a compatible iteration space, fusing
///    until "either a reduction dimension or iteration space changes":
///    after absorbing an axis-type normalization, only same-space maps and
///    side reductions may follow;
/// 3. sibling operators that read distinct slices of one producer with
///    identical iteration spaces are grouped (the AIB pattern — fewer
///    kernel launches).
pub fn detect_groups(graph: &Graph) -> Vec<Vec<NodeId>> {
    let ops = graph.ops();
    let mut claimed: Vec<NodeId> = Vec::new();
    let mut groups: Vec<Vec<NodeId>> = Vec::new();

    let fusable = |id: NodeId| -> bool {
        graph
            .op(id)
            .map(|o| o.kind.class() != OpClass::TensorContraction)
            .unwrap_or(false)
    };

    for &start in &ops {
        if claimed.contains(&start) || !fusable(start) {
            continue;
        }
        let mut chain = vec![start];
        let mut reductions_seen = usize::from(is_norm_reduction(graph, start));
        let mut cur = start;
        while let Some(next) = unique_consumer(graph, cur) {
            if claimed.contains(&next) || chain.contains(&next) || !fusable(next) {
                break;
            }
            let (Ok(a), Ok(b)) = (op_iter_space(graph, cur), op_iter_space(graph, next)) else {
                break;
            };
            if fusion_compatible(&a, &b).is_none() {
                break;
            }
            if is_norm_reduction(graph, next) {
                reductions_seen += 1;
                if reductions_seen > 1 {
                    break;
                }
            }
            chain.push(next);
            cur = next;
            // a trailing full reduction (bias dW) ends the chain
            if matches!(
                graph.op(next).map(|o| &o.kind),
                Some(OpKind::BiasGrad { .. } | OpKind::LayerNormGradW { .. })
            ) {
                break;
            }
        }
        // sibling grouping: single-op chains join same-space siblings of a
        // common producer (the AIB pattern)
        if chain.len() == 1 {
            if let Some(sibs) = sibling_group(graph, start, &claimed) {
                claimed.extend(&sibs);
                groups.push(sibs);
                continue;
            }
        }
        claimed.extend(&chain);
        groups.push(chain);
    }
    groups
}

/// Whether the op performs an axis-type normalization reduction (softmax /
/// layer-norm family), as opposed to a bias-style full reduction.
fn is_norm_reduction(graph: &Graph, id: NodeId) -> bool {
    graph
        .op(id)
        .map(|o| o.kind.reduce_axis().is_some())
        .unwrap_or(false)
}

/// The next operator to try chaining into: the earliest (in execution
/// order) consumer of this op's primary output. Saved tensors are also
/// read by backward operators much later in the program; those later
/// readers do not block fusing the immediate consumer — the fused kernel
/// still materializes the saved value.
fn unique_consumer(graph: &Graph, op: NodeId) -> Option<NodeId> {
    let outputs = graph.outputs_of(op);
    let primary = *outputs.first()?;
    graph.consumers_of(primary).into_iter().min()
}

/// Finds same-space sibling ops sharing this op's producer (AIB pattern).
fn sibling_group(graph: &Graph, op: NodeId, claimed: &[NodeId]) -> Option<Vec<NodeId>> {
    let inputs = graph.inputs_of(op);
    let src = *inputs.first()?;
    // producer's other consumers with identical op kind shape
    let space = op_iter_space(graph, op).ok()?;
    // Sibling iteration spaces match by *sizes*: the Q/K/V streams use
    // different axis letters (j vs k, p vs w) for identically-sized dims.
    let sizes = |sp: &crate::itspace::IterSpace| -> Vec<usize> {
        let mut v: Vec<usize> = sp.independent.iter().map(|&(_, n)| n).collect();
        v.sort_unstable();
        v
    };
    let want = sizes(&space);
    let sibs: Vec<NodeId> = graph
        .consumers_of(src)
        .into_iter()
        .filter(|&c| {
            !claimed.contains(&c)
                && graph
                    .op(c)
                    .map(|o| o.kind.class() == OpClass::Elementwise)
                    .unwrap_or(false)
                && op_iter_space(graph, c)
                    .map(|s| sizes(&s) == want)
                    .unwrap_or(false)
        })
        .collect();
    if sibs.len() > 1 {
        Some(sibs)
    } else {
        None
    }
}

/// One detected tile program: a contraction, the fused kernel that alone
/// reads its output, and — for an attention core — the contraction that
/// reads the kernel's weights.
#[derive(Debug, Clone)]
pub struct TileChain {
    /// The first contraction.
    pub head: NodeId,
    /// The fused kernel behind it.
    pub tail: NodeId,
    /// The container between the two, which collapsing eliminates: an
    /// interim activation written once and read back once for nothing.
    pub interim: NodeId,
    /// Words of that intermediate (its write and read-back both disappear,
    /// so the movement saved is twice this).
    pub interim_words: u64,
    /// The second contraction (`Gamma`), if any.
    pub second: Option<NodeId>,
    /// The program's name: its operators' names joined by `+`
    /// (`Linear 1+BRD`, `QKT+SM+Gamma`).
    pub name: String,
}

/// Detects every chain the tile driver runs (`crate::lower::tile_kernel`
/// says which): a two-operand contraction whose single output is an interim
/// activation read only, first, by a forward fused kernel — behind a
/// softmax with the contraction that reads the kernel's weights second, the
/// attention core as [`xform_dataflow::build`]'s attention emitter writes
/// it for `encoder`, `decoder`, `mha_forward` and `decoder_step_attend`,
/// position-major caches included. A chain is keyed by its first
/// contraction, so each contraction is claimed once; attention cores come
/// first, then epilogues, each in operator order. The chain behind a
/// contraction must already be one fused node — run this after
/// [`apply_plan`] — so an unfused graph (the reference executor's, the
/// oracle) has none.
///
/// What a plan over `graph` moves through each chain's intermediate (for
/// an attention core, `QKT → SM`'s scores) is pure movement, not
/// algorithmic demand: the audits ([`crate::analyze::audit`],
/// [`crate::cachemodel::cache_audit`], the profiler) count it into `D` and
/// out of `Q`, so collapsing a chain lowers `D` at constant `Q`.
pub fn detect_tiles(graph: &Graph) -> Vec<TileChain> {
    let candidate = |op| tile_candidate(graph, op);
    let mut chains: Vec<TileChain> = graph.ops().into_iter().filter_map(candidate).collect();
    chains.sort_by_key(|c| c.second.is_none());
    chains
}

fn tile_candidate(graph: &Graph, head: NodeId) -> Option<TileChain> {
    // ahead of the edge scans: most operators are no contraction
    if !matches!(graph.op(head)?.kind, OpKind::Einsum(_)) {
        return None;
    }
    let [interim] = graph.outputs_of(head)[..] else {
        return None;
    };
    let [tail] = graph.consumers_of(interim)[..] else {
        return None;
    };
    let OpKind::Fused { parts, .. } = &graph.op(tail)?.kind else {
        return None;
    };
    // behind a softmax, the contraction that reads its weights second
    let second = match classify_fused(parts)? {
        FusedClass::Softmax { .. } => {
            let weights = *graph.outputs_of(tail).get(1)?;
            let reads = |&op: &NodeId| {
                matches!(graph.op(op).map(|o| &o.kind), Some(OpKind::Einsum(_)))
                    && graph.inputs_of(op).get(1) == Some(&weights)
            };
            Some(graph.consumers_of(weights).into_iter().find(reads)?)
        }
        _ => None,
    };
    // what the lowering will compile, over natural layouts
    let (kind, ins, outs) = graph.tile_program(head, tail, second, 1).ok()?;
    let OpKind::TileProgram {
        first,
        second: then,
        parts,
        reduce_axis,
        ..
    } = &kind
    else {
        return None;
    };
    let natural = |&id: &NodeId| {
        let shape = &graph.data(id)?.shape;
        Some((shape, Layout::row_major(shape.rank()).strides(shape)))
    };
    let edges = |ids: &[NodeId]| ids.iter().map(natural).collect::<Option<Vec<_>>>();
    tile_kernel(
        first,
        then.as_ref(),
        parts,
        *reduce_axis,
        &edges(&ins)?,
        &edges(&outs)?,
    )?;
    let name = |op: NodeId| graph.op(op).map_or("", |o| &o.name);
    let names: Vec<&str> = [Some(head), Some(tail), second]
        .into_iter()
        .flatten()
        .map(name)
        .collect();
    Some(TileChain {
        head,
        tail,
        interim,
        interim_words: graph.data(interim)?.shape.num_elements() as u64,
        second,
        name: names.join("+"),
    })
}

/// Collapses every detected attention core — a chain of two contractions —
/// into an [`OpKind::TileProgram`] ([`Graph::fuse_tile`]): the `[h,b,j,k]`
/// tensors between the two leave the forward side of the graph — gone from
/// a forward-only graph, kept in a training graph only as the
/// rematerialization `QKT → SM` that feeds the backward operators
/// ([`crate::recipe::forward_ops`] leaves it out of the forward schedule).
/// `span` is the number of schedule positions the region stands for
/// ([`crate::plan::ExecutionPlan::stream_of`]): the chain's three, or two
/// for a plan family that ran `QKT+SM` as one step. Returns the new op ids
/// in detection order.
///
/// # Errors
///
/// Propagates [`Graph::fuse_tile`] errors.
pub fn apply_regions(graph: &mut Graph, span: usize) -> Result<Vec<NodeId>> {
    fuse_tiles(graph, true, span)
}

/// Collapses every detected chain of one contraction into an
/// [`OpKind::TileProgram`] ([`Graph::fuse_tile`]) standing for one schedule
/// position, dropping the eliminated intermediates from the graph. Returns
/// the new op ids in detection order.
///
/// # Errors
///
/// Propagates [`Graph::fuse_tile`] errors.
pub fn apply_epilogues(graph: &mut Graph) -> Result<Vec<NodeId>> {
    fuse_tiles(graph, false, 1)
}

/// Collapses the detected chains with (`two`) or without a second
/// contraction.
fn fuse_tiles(graph: &mut Graph, two: bool, span: usize) -> Result<Vec<NodeId>> {
    let chains = detect_tiles(graph)
        .into_iter()
        .filter(|c| c.second.is_some() == two);
    let fuse = |c: TileChain| graph.fuse_tile(c.head, c.tail, c.second, &c.name, span);
    chains.map(fuse).collect()
}

/// Total words of data movement the detected chains would eliminate: each
/// interim is written once by the contraction and read once by the chain,
/// so fusing removes `2 × interim_words` per chain.
pub fn epilogue_interim_words(chains: &[TileChain]) -> u64 {
    chains.iter().map(|c| 2 * c.interim_words).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xform_dataflow::{analysis, build, EncoderDims};

    #[test]
    fn plan_applies_and_reduces_movement_near_paper() {
        let e = build::encoder(&EncoderDims::bert_large());
        let baseline = e.graph.clone();
        let mut g = e.graph;
        let fused = apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        assert_eq!(fused.len(), 14);
        let red = analysis::movement_reduction_pct(&baseline, &g);
        // Paper: ~22.91% total data-movement reduction.
        assert!(
            red > 15.0 && red < 30.0,
            "movement reduction {red}% (paper: 22.91%)"
        );
    }

    #[test]
    fn fused_graph_keeps_saved_tensors() {
        let e = build::encoder(&EncoderDims::tiny());
        let mut g = e.graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        for name in [
            "att",
            "alpha",
            "att_mask",
            "drop1_mask",
            "ln1_in",
            "ln2_in",
            "ff1_b",
        ] {
            assert!(g.data_by_name(name).is_some(), "{name} was eliminated");
        }
        // beta survives: it is the QKT contraction's output and thus the
        // fused SM kernel's external input. Interim activations are gone:
        assert!(g.data_by_name("beta").is_some());
        for name in ["bo_out", "drop1_out", "ff1_relu", "ff2_b", "ff2_drop"] {
            assert!(
                g.data_by_name(name).is_none(),
                "{name} should be fused away"
            );
        }
    }

    #[test]
    fn plan_is_idempotent_failure() {
        let e = build::encoder(&EncoderDims::tiny());
        let mut g = e.graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        // applying again fails: original ops are gone
        assert!(apply_plan(&mut g, &encoder_fusion_plan()).is_err());
    }

    #[test]
    fn both_shipped_plans_validate_cleanly() {
        let enc = build::encoder(&EncoderDims::bert_large());
        let problems = validate_plan(&enc.graph, &encoder_fusion_plan());
        assert!(problems.is_empty(), "encoder plan: {problems:?}");
        let dec = xform_dataflow::build::decoder(&EncoderDims::bert_large());
        let problems = validate_plan(&dec.graph, &decoder_fusion_plan());
        assert!(problems.is_empty(), "decoder plan: {problems:?}");
    }

    #[test]
    fn validate_plan_catches_mistakes() {
        let enc = build::encoder(&EncoderDims::tiny());
        // missing op
        let bad = vec![FusionGroup::new("X", &["No Such Op"])];
        assert!(!validate_plan(&enc.graph, &bad).is_empty());
        // contraction in a group
        let bad = vec![FusionGroup::new("X", &["QKT"])];
        assert!(!validate_plan(&enc.graph, &bad).is_empty());
        // duplicated member across groups
        let bad = vec![
            FusionGroup::new("A", &["Dropout 1"]),
            FusionGroup::new("B", &["Dropout 1"]),
        ];
        assert!(!validate_plan(&enc.graph, &bad).is_empty());
        // incoherent iteration spaces (attention-space + embedding-space)
        let bad = vec![FusionGroup::new("X", &["Dropout att", "Dropout 1"])];
        assert!(!validate_plan(&enc.graph, &bad).is_empty());
    }

    /// The check every canned plan shares with the recipe: a table naming a
    /// contraction, or a member twice, is refused by name before the graph
    /// is touched.
    #[test]
    fn fuse_refuses_a_table_that_does_not_fit_and_leaves_the_graph() {
        let enc = build::encoder(&EncoderDims::tiny()).graph;
        let contraction = vec![FusionGroup::new("X", &["QKT"])];
        let twice = vec![
            FusionGroup::new("A", &["Dropout 1"]),
            FusionGroup::new("B", &["Dropout 1"]),
        ];
        for (table, problem) in [
            (contraction, "`QKT` is a tensor contraction"),
            (twice, "`Dropout 1` appears in more than one group"),
        ] {
            let mut g = enc.clone();
            let err = fuse(&mut g, &table, Some(3), true).unwrap_err().to_string();
            assert!(err.contains("fusion plan rejected: "), "{err}");
            assert!(err.contains(problem), "{err}");
            assert_eq!(format!("{g:?}"), format!("{enc:?}"));
        }
    }

    #[test]
    fn decoder_plan_applies_and_reduces_movement() {
        let e = xform_dataflow::build::decoder(&EncoderDims::bert_large());
        let baseline = e.graph.clone();
        let mut g = e.graph;
        let fused = apply_plan(&mut g, &decoder_fusion_plan()).unwrap();
        assert_eq!(fused.len(), 16);
        let red = analysis::movement_reduction_pct(&baseline, &g);
        assert!(red > 8.0 && red < 30.0, "decoder movement reduction {red}%");
        // causal-attention saved tensors survive
        for name in ["att", "alpha", "att_mask", "res1", "ln2_out"] {
            assert!(g.data_by_name(name).is_some(), "{name} eliminated");
        }
    }

    #[test]
    fn detection_finds_paper_chains() {
        let e = build::encoder(&EncoderDims::bert_large());
        let g = &e.graph;
        let groups = detect_groups(g);
        let names: Vec<Vec<String>> = groups
            .iter()
            .map(|grp| {
                grp.iter()
                    .map(|&id| g.op(id).unwrap().name.clone())
                    .collect()
            })
            .collect();
        let has = |members: &[&str]| {
            names
                .iter()
                .any(|g| g.iter().map(String::as_str).collect::<Vec<_>>() == members)
        };
        assert!(has(&["Scaled softmax", "Dropout att"]), "SM: {names:?}");
        assert!(
            has(&["Output bias", "Dropout 1", "Residual 1", "LayerNorm 1"]),
            "DRLN: {names:?}"
        );
        assert!(has(&["Bias 1", "ReLU", "Dropout 2"]), "BRD: {names:?}");
        assert!(
            has(&["Bias 2", "Dropout 3", "Residual 2", "LayerNorm 2"]),
            "BDRLN: {names:?}"
        );
        assert!(
            has(&["Dropout att dX", "Scaled softmax dX"]),
            "BS: {names:?}"
        );
        assert!(
            has(&["Dropout 2 dX", "ReLU dX", "Bias 1 dW"]),
            "BDRB core chain: {names:?}"
        );
        assert!(
            has(&["Input bias Q", "Input bias K", "Input bias V"]),
            "AIB siblings: {names:?}"
        );
    }

    #[test]
    fn detection_never_claims_contractions_or_duplicates() {
        let e = build::encoder(&EncoderDims::bert_large());
        let g = &e.graph;
        let groups = detect_groups(g);
        let mut seen = Vec::new();
        for grp in &groups {
            for &id in grp {
                assert!(!seen.contains(&id), "op claimed twice");
                seen.push(id);
                assert_ne!(g.op(id).unwrap().kind.class(), OpClass::TensorContraction);
            }
        }
    }

    #[test]
    fn detected_groups_fuse_and_save_movement() {
        let mut g = build::encoder(&EncoderDims::tiny()).graph;
        let before = g.total_io_words();
        let groups = detect_groups(&g)
            .into_iter()
            .filter(|group| group.len() > 1);
        let groups: Vec<Vec<NodeId>> = groups.collect();
        assert!(groups.len() >= 6);
        for (k, group) in groups.iter().enumerate() {
            g.fuse(group, &format!("fused-{k}")).unwrap();
        }
        assert!(g.total_io_words() < before);
    }

    /// The chains the tile driver runs, attention cores first.
    fn tile_names(g: &Graph) -> Vec<String> {
        let chains = detect_tiles(g);
        let (regions, epilogues) =
            chains.split_at(chains.iter().filter(|c| c.second.is_some()).count());
        assert!(epilogues.iter().all(|c| c.second.is_none()) && regions.len() <= 1);
        for c in &chains {
            assert!(c.interim_words > 0);
        }
        chains.into_iter().map(|c| c.name).collect()
    }

    #[test]
    fn tile_detection_finds_encoder_chains() {
        let e = build::encoder(&EncoderDims::tiny());
        let mut g = e.graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        assert_eq!(tile_names(&g), ["QKT+SM+Gamma", "Linear 1+BRD"]);
    }

    #[test]
    fn tile_detection_finds_decoder_chains() {
        let e = xform_dataflow::build::decoder(&EncoderDims::tiny());
        let mut g = e.graph;
        apply_plan(&mut g, &decoder_fusion_plan()).unwrap();
        assert_eq!(
            tile_names(&g),
            ["QKT+SM+Gamma", "Out+BDR", "Linear 1+BRD", "Linear 2+BDR2"]
        );
    }

    #[test]
    fn tile_detection_requires_elementwise_fusion_first() {
        // On the unfused graph no contraction feeds a `Fused` kernel, so
        // there is nothing to collapse yet.
        let e = build::encoder(&EncoderDims::tiny());
        assert!(detect_tiles(&e.graph).is_empty());
    }

    #[test]
    fn apply_epilogues_eliminates_contraction_outputs() {
        let e = build::encoder(&EncoderDims::tiny());
        let mut g = e.graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        let before = g.total_io_words();
        let chains = detect_tiles(&g).into_iter().filter(|c| c.second.is_none());
        let expect = epilogue_interim_words(&chains.collect::<Vec<_>>());
        let mega = apply_epilogues(&mut g).unwrap();
        assert_eq!(mega.len(), 1);
        for &id in &mega {
            assert!(matches!(
                g.op(id).unwrap().kind,
                OpKind::TileProgram { second: None, .. }
            ));
        }
        // the contraction output is gone, and the memlet words with it are
        // the detector's avoidable-words total exactly: its write and its
        // read-back
        assert!(g.data_by_name("ff1").is_none(), "ff1 should be gone");
        assert_eq!(before - g.total_io_words(), expect);
        // nothing left to collapse but the attention core
        assert_eq!(tile_names(&g), ["QKT+SM+Gamma"]);
    }

    /// Everything the attention emitter writes a core for: one region each,
    /// found only behind a *fused* softmax.
    #[test]
    fn region_detection_finds_the_core_of_every_fused_builder() {
        let dims = EncoderDims::tiny();
        let step = EncoderDims { j: 1, ..dims };
        let sm = |masked: bool| {
            let softmax = if masked {
                "Masked softmax"
            } else {
                "Scaled softmax"
            };
            [FusionGroup::new("SM", &[softmax, "Dropout att"])]
        };
        let graphs = [
            (build::encoder(&dims).graph, false),
            (build::decoder(&dims).graph, true),
            (build::mha_forward(&dims), false),
            (build::decoder_step_attend(&step).graph, true),
        ];
        for (mut g, masked) in graphs {
            assert!(detect_tiles(&g).is_empty(), "unfused: the oracle's graph");
            apply_plan(&mut g, &sm(masked)).unwrap();
            assert_eq!(tile_names(&g), ["QKT+SM+Gamma"], "one attention core");
        }
    }

    #[test]
    fn a_forward_only_region_deletes_the_core_and_its_tensors() {
        let step = EncoderDims {
            j: 1,
            ..EncoderDims::tiny()
        };
        let mut g = build::decoder_step_attend(&step).graph;
        apply_plan(
            &mut g,
            &[FusionGroup::new("SM", &["Masked softmax", "Dropout att"])],
        )
        .unwrap();
        let before = g.total_io_words();
        let [region] = apply_regions(&mut g, 3).unwrap()[..] else {
            panic!("one region");
        };
        assert!(g.validate().is_empty(), "{:?}", g.validate());
        for name in ["beta", "att", "alpha", "att_mask"] {
            assert!(g.data_by_name(name).is_none(), "{name} should be gone");
        }
        for name in ["QKT", "SM", "Gamma"] {
            assert!(g.op_by_name(name).is_none(), "{name} should be gone");
        }
        // reads the cache-major keys, the query column, the values; writes
        // the context
        let names = |ids: Vec<NodeId>| -> Vec<String> {
            ids.iter()
                .map(|&d| g.data(d).unwrap().name.clone())
                .collect()
        };
        assert_eq!(names(g.inputs_of(region)), ["k_cache", "qq", "v_cache"]);
        assert_eq!(names(g.outputs_of(region)), ["gamma"]);
        let OpKind::TileProgram {
            second: Some(_),
            parts,
            span,
            ..
        } = &g.op(region).unwrap().kind
        else {
            panic!("a region");
        };
        assert_eq!(parts, &["QKT", "Masked softmax", "Dropout att", "Gamma"]);
        assert_eq!(*span, 3);
        // four writes and two read-backs of `[h,b,j,k]` left the graph
        let hbjk = (step.h * step.b * step.j * step.k) as u64;
        assert_eq!(before - g.total_io_words(), 6 * hbjk);
        assert!(detect_tiles(&g).is_empty(), "idempotent");
    }

    /// In a training graph the saved softmax bundle has backward readers:
    /// QKT and SM stay as their rematerialization, off the forward schedule.
    #[test]
    fn a_training_region_leaves_the_core_as_backward_rematerialization() {
        use crate::recipe::{backward_ops, forward_ops};
        let eg = build::decoder(&EncoderDims::tiny());
        let mut g = eg.graph;
        apply_plan(&mut g, &decoder_fusion_plan()).unwrap();
        let (fwd, bwd) = (forward_ops(&g, eg.dy), backward_ops(&g, eg.dy));
        let [region] = apply_regions(&mut g, 3).unwrap()[..] else {
            panic!("one region");
        };
        assert!(g.validate().is_empty(), "{:?}", g.validate());
        let (qkt, sm) = (g.op_by_name("QKT").unwrap(), g.op_by_name("SM").unwrap());
        assert!(g.op_by_name("Gamma").is_none());
        // the forward schedule: the region where the three steps were
        let after = forward_ops(&g, eg.dy);
        assert_eq!(after.len() + 2, fwd.len());
        assert!(after.contains(&region) && !after.contains(&qkt) && !after.contains(&sm));
        // the backward side: what it was, behind the rematerialization
        let after = backward_ops(&g, eg.dy);
        assert_eq!(after.len(), bwd.len() + 2);
        let at = |op| after.iter().position(|&o| o == op).unwrap();
        let reader = g.op_by_name("BS").unwrap();
        assert!(at(qkt) < at(sm) && at(sm) < at(reader));
        // nothing the forward plan touches has a query and a key axis
        let plan = crate::plan::ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
        for o in plan
            .steps
            .iter()
            .flat_map(|s| s.inputs.iter().chain(&s.outputs))
        {
            let shape = &g.data(o.data).unwrap().shape;
            let has = |c| shape.contains(xform_tensor::Axis(c));
            assert!(!(has('j') && has('k')), "{}", o.name);
        }
    }
}
