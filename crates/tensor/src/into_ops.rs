//! Zero-allocation kernel variants that execute into caller-provided
//! buffers.
//!
//! Every forward kernel the schedule interpreter dispatches has a `*_into`
//! driver here that reads and writes caller-provided slices, allocating
//! nothing. They are the execution layer of the arena interpreter
//! (`core::arena`): the planner colors each logical container into an
//! offset of one preallocated slab, and these kernels run directly on the
//! slab slots, each operand through a [`View`] — the index map its
//! declared layout is. The backward kernels have theirs too
//! (`softmax_backward_into` … `bdrb_act_into`), which backward plans
//! dispatch and the allocating backward ops wrap.
//!
//! The lane-wise, element-wise and fused kernels are *logical-order
//! drivers* over the bodies of [`crate::lanes`]: a [`Sweep`] enumerates the
//! lanes of the step's iteration space in the container's logical order and
//! hands them — one at a time, or where [`Sweep::walk`] says so in panels of
//! adjacent lanes — as one `(base, stride)` per operand to the one body
//! that holds the arithmetic. The tensor-returning kernels of
//! [`crate::fused`] and [`crate::ops`] compile a `Sweep` over their tensors'
//! own strides and call the same drivers: one lane enumerator. Values and
//! per-lane statistics are therefore functions of the logical indices
//! alone, and so is every dropout mask: the mask of an element is computed
//! from the step's key and the element's index — its row-major logical
//! index in an element-wise sweep, [`Sweep`]'s `start(l) + v` in a lane
//! sweep — never drawn in an order. A plan computes the same bits in any
//! layout, in any walk and on any thread.
//!
//! Three addressing vocabularies, each compiled once by the caller:
//!
//! * [`View`] / [`Sweep`] — an operand as `base + Σ index · stride` over
//!   the logical axes of the step's iteration space (a broadcast is a zero
//!   stride, a carve a base offset), and the step's views merged into the
//!   fewest loops that keep logical order;
//! * [`ContractPlan`] — the one contraction compiler: GEMM sizes, operand
//!   roles and, per operand, the strides the GEMM reads it through (or the
//!   gather descriptor of an operand strides cannot express);
//! * [`TilePlan`] — a tile program: one `ContractPlan` per contraction,
//!   the first's rows pinned to GEMM A and its output a dense tile that the
//!   second, if any, reads as its A.
//!
//! # Kernels larger than one operator
//!
//! One driver keeps what sits between operators out of memory:
//! [`tile_into`] runs a contraction a tile of rows at a time, a lane chain
//! ([`RowTail`]: `BRD`, `BDR`, the model head's bias and softmax over a
//! vocabulary row, or attention's scale/mask/softmax/dropout) on each row
//! while the tile is hot, and optionally a second contraction over the
//! chain's rows — the attention region, `QKᵀ → softmax → ·V` a panel of
//! [`ATTENTION_TILE_ROWS`] query rows at a time. It is bit for bit the chain
//! it stands for, dropout masks included, because it runs the chain's own
//! bodies over the chain's own lanes, each mask at the index the chain
//! gives its element, and the GEMM's result does not depend on its tiling.
//! Whole rows fit a tile, so a softmax is the two-pass
//! `lanes::softmax_lane` unchanged — no online rescaling, nothing
//! reassociated — which stores only the weights the second product reads
//! (`alpha`), and that product runs to each tile's exact causal depth.

use crate::axes::{Axis, Shape};
use crate::einsum::EinsumSpec;
use crate::error::{Result, TensorError};
use crate::isa;
use crate::lanes::{self, on_run, Dropout, LaneAt, Panel, Run, Walk, PANELS, W};
use crate::layout::{Layout, MAX_RANK};
use crate::matmul::{
    gemm, pack_panels, panel_words, BatchRef, BatchStrides, Lhs, MatMut, MatRef, PanelRef, Rhs,
    Start, NR,
};
use crate::ops::elementwise::ActivationKind;
use crate::tensor::Tensor;

/// One operand as a kernel is handed it: the word of logical index
/// `(i₀, i₁, …)` is `base + Σ i_d · stride_d` within the operand's buffer.
/// The axes are those of the step's iteration space, outermost first, so a
/// layout is a choice of strides, an axis the operand lacks (a broadcast
/// bias) a zero stride, and a sub-container (one projection of a stacked
/// Q/K/V tensor) a nonzero base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// Word offset of logical index zero.
    pub base: usize,
    /// `(extent, stride)` per logical axis, outermost first.
    pub dims: Vec<(usize, usize)>,
}

impl View {
    /// The whole of a container with the given axis sizes and strides.
    pub fn whole(sizes: &[usize], strides: &[usize]) -> View {
        View {
            base: 0,
            dims: sizes.iter().copied().zip(strides.iter().copied()).collect(),
        }
    }

    /// A container with the given shape and strides broadcast onto `onto`'s
    /// axes by name: stride 0 where it has none. `None` when it has an axis
    /// `onto` lacks or an extent disagrees.
    pub fn broadcast(shape: &Shape, strides: &[usize], onto: &Shape) -> Option<View> {
        let fits = (shape.axes().iter().zip(shape.sizes()))
            .all(|(&ax, &n)| onto.index_of(ax).is_ok_and(|p| onto.sizes()[p] == n));
        let stride = |ax: Axis| shape.index_of(ax).map_or(0, |i| strides[i]);
        let dims = onto.axes().iter().zip(onto.sizes());
        fits.then(|| View {
            base: 0,
            dims: dims.map(|(&ax, &n)| (n, stride(ax))).collect(),
        })
    }

    /// Dense per-lane weights (γ, β) over an iteration space of the given
    /// extents: one word per position of axis `lane`, the same for every
    /// lane.
    pub fn lane_weights(sizes: &[usize], lane: usize) -> View {
        let dims = sizes.iter().enumerate();
        View {
            base: 0,
            dims: dims.map(|(d, &n)| (n, usize::from(d == lane))).collect(),
        }
    }
}

/// Loops a [`Sweep`] runs outside the lane; more would not fit its
/// stack-held odometer.
const MAX_OUTER: usize = 8;

/// One operand of a compiled [`Sweep`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct SweepOperand {
    base: usize,
    /// Stride per outer loop.
    outer: Vec<usize>,
    /// Stride along the lane.
    lane: usize,
}

impl SweepOperand {
    /// Whether some loop of the sweep revisits the operand's words (a zero
    /// stride): a broadcast, which kernels gather rather than sweep.
    fn broadcast(&self) -> bool {
        self.lane == 0 || self.outer.contains(&0)
    }
}

/// A step's iteration space with every operand's [`View`] of it, compiled
/// for the drivers: the lanes along one logical axis, enumerated in the
/// logical (row-major) order of the remaining axes. Axes of extent one are
/// dropped and neighbouring axes that every operand steps through evenly
/// are fused into one loop, so operands in natural layout collapse to a
/// single contiguous lane while any other layout keeps exactly the loops
/// it needs — in the same order, which is what keeps per-lane statistics
/// and the masks' indices layout-independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sweep {
    /// Extents of the outer loops, outermost first.
    outer: Vec<usize>,
    /// The outer loop that is the causal query axis, when one was named.
    query: Option<usize>,
    /// Lane length.
    len: usize,
    operands: Vec<SweepOperand>,
    walk: Walk,
}

impl Sweep {
    /// Compiles the sweep of `views` (one per operand, all over the same
    /// extents). `lane` names the logical axis the kernel reduces along;
    /// `None` (element-wise kernels) takes the innermost loop left after
    /// fusing. `query` names a logical axis whose index the drivers need
    /// per lane (the causal softmax); it is kept as a loop of its own.
    ///
    /// Returns `None` if the views disagree on the extents, an axis index
    /// is out of range, or more than eight outer loops remain.
    pub fn compile(views: &[&View], lane: Option<usize>, query: Option<usize>) -> Option<Sweep> {
        let first = views.first()?;
        let rank = first.dims.len();
        let same_extents = |v: &&View| {
            v.dims
                .iter()
                .map(|d| d.0)
                .eq(first.dims.iter().map(|d| d.0))
        };
        if !views.iter().all(same_extents)
            || lane.is_some_and(|l| l >= rank)
            || query.is_some_and(|q| q >= rank || Some(q) == lane)
        {
            return None;
        }
        // (extent, stride per operand, is the query axis), logical order
        type Loop = (usize, Vec<usize>, bool);
        let axis = |d: usize| -> Loop {
            let strides = views.iter().map(|v| v.dims[d].1).collect();
            (first.dims[d].0, strides, Some(d) == query)
        };
        let mut loops: Vec<Loop> = Vec::with_capacity(rank);
        for d in (0..rank).filter(|&d| Some(d) != lane) {
            let (n, strides, is_query) = axis(d);
            if n == 1 && !is_query {
                continue;
            }
            match loops.last_mut() {
                // `d` continues the previous loop in every operand
                Some((pn, ps, false))
                    if !is_query && ps.iter().zip(&strides).all(|(&p, &s)| p == n * s) =>
                {
                    *pn *= n;
                    *ps = strides;
                }
                _ => loops.push((n, strides, is_query)),
            }
        }
        let (len, lane_strides) = match lane {
            Some(l) => (first.dims[l].0, axis(l).1),
            None => match loops.pop() {
                Some((n, strides, _)) => (n, strides),
                None => (1, vec![1; views.len()]),
            },
        };
        if loops.len() > MAX_OUTER {
            return None;
        }
        let operands: Vec<SweepOperand> = views
            .iter()
            .enumerate()
            .map(|(k, v)| SweepOperand {
                base: v.base,
                outer: loops.iter().map(|l| l.1[k]).collect(),
                // a one-word lane is contiguous whatever its stride
                lane: if len == 1 { 1 } else { lane_strides[k] },
            })
            .collect();
        let query = loops.iter().position(|l| l.2);
        let outer: Vec<usize> = loops.into_iter().map(|l| l.0).collect();
        // the one predicate (see `lanes`): broadcast operands are gathered
        // and take no part; an element-wise sweep (no lane named) has no
        // reduction to run abreast; lanes of a panel share their `visible`,
        // so the causal query axis cannot be the one a panel runs along
        let swept = || operands.iter().filter(|o| !o.broadcast());
        let walk = match outer.len().checked_sub(1) {
            _ if swept().all(|o| o.lane == 1) => Walk::Lane,
            Some(d) if lane.is_some() && query != Some(d) && swept().all(|o| o.outer[d] == 1) => {
                Walk::Panel
            }
            _ => Walk::Strided,
        };
        Some(Sweep {
            query,
            outer,
            len,
            operands,
            walk,
        })
    }

    /// The same sweep over a buffer that starts `by` words into the one
    /// operand `k` was compiled against: the operand's word zero moves
    /// down by `by`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not an operand or its base is below `by`.
    pub fn rebase(&mut self, k: usize, by: usize) {
        self.operands[k].base -= by;
    }

    /// Number of operands the sweep was compiled over.
    pub fn arity(&self) -> usize {
        self.operands.len()
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.outer.iter().product()
    }

    /// Which walk the drivers run this sweep in — the one place that is
    /// decided, from the strides alone (see [`crate::lanes`]). The access
    /// certifier and the cache model read it, so what they call the
    /// kernel's inner loop is the loop the kernel runs.
    pub fn walk(&self) -> Walk {
        self.walk
    }

    /// Calls `f(run, first lane ordinal, query index, run per operand)` for
    /// every run of lanes, in logical order: single lanes, or under
    /// [`Walk::Panel`] each row of the innermost outer loop cut into runs
    /// of up to [`PANELS`] side-by-side panels of [`W`] lanes, then a panel
    /// of each halving the rest holds, then at most one last lane alone.
    /// The query index is that of the axis named at [`Sweep::compile`]
    /// (`0` when none was).
    ///
    /// # Panics
    ///
    /// Panics if the sweep was not compiled over exactly `N` views.
    fn for_each_run<const N: usize>(&self, mut f: impl FnMut(Run, usize, usize, [LaneAt; N])) {
        assert_eq!(self.operands.len(), N, "sweep compiled for another kernel");
        if self.len == 0 || self.outer.contains(&0) {
            return;
        }
        let ops = &self.operands;
        let inner = self.outer.len().wrapping_sub(1);
        let mut at: [LaneAt; N] = std::array::from_fn(|k| LaneAt {
            base: ops[k].base,
            stride: ops[k].lane,
            step: ops[k].outer.last().copied().unwrap_or(0),
            len: self.len,
        });
        let mut idx = [0usize; MAX_OUTER];
        let mut lane = 0usize;
        loop {
            let run = match self.walk {
                Walk::Lane => Run::Lane,
                Walk::Strided => Run::Strided,
                // the row's `W`-lane panels, then the widest halving of
                // `W` the rest of it holds
                Walk::Panel => match self.outer[inner] - idx[inner] {
                    1 => Run::Strided,
                    left if left >= W => Run::Panel {
                        lanes: W,
                        panels: (left / W).min(PANELS),
                    },
                    left => Run::Panel {
                        lanes: 1 << left.ilog2(),
                        panels: 1,
                    },
                },
            };
            f(run, lane, self.query.map_or(0, |q| idx[q]), at);
            lane += run.lanes();
            // odometer over the outer loops, innermost fastest and by runs
            let (mut d, mut by) = (self.outer.len(), run.lanes());
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                idx[d] += by;
                for (a, o) in at.iter_mut().zip(ops) {
                    a.base += by * o.outer[d];
                }
                if idx[d] < self.outer[d] {
                    break;
                }
                for (a, o) in at.iter_mut().zip(ops) {
                    a.base -= self.outer[d] * o.outer[d];
                }
                (idx[d], by) = (0, 1);
            }
        }
    }

    /// [`Sweep::for_each_run`] for the element-wise drivers, whose sweeps
    /// name no lane axis and so never panel: `f(lane is contiguous, row-major
    /// logical index of the lane's position 0, lane per operand)`.
    fn for_each_lane<const N: usize>(&self, mut f: impl FnMut(bool, usize, [LaneAt; N])) {
        assert_ne!(
            self.walk,
            Walk::Panel,
            "an element-wise sweep names no lane"
        );
        self.for_each_run(|run, l, _, at| f(run == Run::Lane, l * self.len, at));
    }

    /// The mask index of position 0 of lane `l`, whose query index is `q`:
    /// the positions the lanes before it in logical order see between them
    /// (`l · len` but under a causal mask). The lanes run row-major over
    /// `(a, q, b)` — the loops outside the query axis, the query axis,
    /// the loops inside it — which gives the closed form.
    fn start(&self, l: usize, q: usize, causal: Option<usize>) -> usize {
        let (nq, nb) = match self.query {
            Some(d) => (self.outer[d], self.outer[d + 1..].iter().product()),
            None => (1, self.lanes()),
        };
        let before = |q: usize| visible_before(causal, q, self.len);
        let b = l % nb;
        l / (nq * nb) * nb * before(nq) + nb * before(q) + b * visible_of(causal, q, self.len)
    }

    /// The mask indices the sweep's lanes use up between them.
    pub(crate) fn span(&self, causal: Option<usize>) -> usize {
        match self.lanes() {
            0 => 0,
            lanes => self.start(lanes, 0, causal),
        }
    }
}

/// An operand as the contraction compilers take it: its shape, labelled
/// with its spec's letters, and its strides.
pub type Labelled<'a> = (&'a Shape, &'a [usize]);

/// How one operand of a compiled contraction reaches the GEMM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operand {
    /// The operand's axes in GEMM order — batch group, then row group,
    /// then column group, each outermost first — as
    /// `(len, src_stride, dst_stride)`: the descriptor of the
    /// whole-operand strided copy between the operand and a dense
    /// `[batch, rows, cols]` pack, in the direction the data moves (an
    /// input is the source, the output the destination).
    pub dims: Vec<(usize, usize, usize)>,
    /// `Some` when each of the three groups collapses to a single stride:
    /// the GEMM then reads (writes) the operand where it lies and `dims`
    /// is never walked. `None` is the gather fallback.
    pub view: Option<BatchStrides>,
}

/// The stride of the fused index of an axis group given as `(len, stride)`
/// outermost first, if the group's words are evenly spaced in that order:
/// every axis longer than 1 must step by the extent of those inside it.
fn collapse(group: &[(usize, usize)]) -> Option<usize> {
    let mut inner = group.iter().rev().filter(|&&(len, _)| len > 1);
    let Some(&(len, stride)) = inner.next() else {
        return Some(0); // extent 1: the index is always 0
    };
    let mut extent = len * stride;
    for &(len, s) in inner {
        if s != extent {
            return None;
        }
        extent *= len;
    }
    Some(stride)
}

impl Operand {
    /// Compiles one operand from its three axis groups, each a list of
    /// `(len, operand_stride)` outermost first; `output` says the operand
    /// is the destination of its pack copy.
    fn new(groups: [&[(usize, usize)]; 3], output: bool) -> Operand {
        let mut pack_stride: usize = groups.iter().flat_map(|g| g.iter()).map(|d| d.0).product();
        let dims = groups
            .iter()
            .flat_map(|g| g.iter())
            .map(|&(len, stride)| {
                pack_stride /= len.max(1);
                if output {
                    (len, pack_stride, stride)
                } else {
                    (len, stride, pack_stride)
                }
            })
            .collect();
        let view = match groups.map(collapse) {
            [Some(bs), Some(rs), Some(cs)] => Some(BatchStrides { bs, rs, cs }),
            _ => None,
        };
        Operand { dims, view }
    }

    /// How well a GEMM can write through this operand as its C: in place
    /// with whole-vector tile rows, in place, or only through a scatter.
    fn store_rank(&self, cols: usize) -> u8 {
        match self.view {
            Some(v) if cols == 1 || v.cs == 1 => 2,
            Some(_) => 1,
            None => 0,
        }
    }
}

/// Precompiled two-operand einsum: the collapsed GEMM sizes, which einsum
/// operand plays which GEMM role, and for each of A, B and C either the
/// strides the GEMM reads it through or the descriptor of its gather.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractPlan {
    /// GEMM A (`m×k` per batch slice).
    pub a: Operand,
    /// GEMM B (`k×n` per batch slice).
    pub b: Operand,
    /// GEMM C (`m×n` per batch slice): the einsum's output.
    pub c: Operand,
    /// Whether the GEMM roles are exchanged against the einsum's operand
    /// order: when `true` the einsum's *second* operand is GEMM A.
    pub swapped: bool,
    /// Collapsed batch extent.
    pub batch: usize,
    /// Collapsed GEMM M.
    pub m: usize,
    /// Collapsed GEMM N.
    pub n: usize,
    /// Collapsed GEMM K.
    pub k: usize,
    /// A is read out of a panel pack ([`PanelRef`]) instead of through its
    /// view: the operand is a projection weight, stored once in that order
    /// ([`ContractPlan::with_panel_a`]) — `Some(false)` the pack of A's
    /// `m×k` matrix, `Some(true)` the pack of its transpose, read
    /// transposed (a weight's input gradient reads its forward GEMM's pack).
    pub panels: Option<bool>,
    /// The depth cut into this many equal parts, each product computed
    /// from zero and added into C in order ([`ContractPlan::in_parts`]);
    /// `1` for one product over the whole depth.
    pub k_parts: usize,
}

impl ContractPlan {
    /// This plan with A read out of a panel pack ([`crate::matmul::WeightPack`])
    /// — how a projection weight is stored — rather than through its view:
    /// the pack of A's `m×k` matrix, or with `transposed` the pack of its
    /// `k×m` transpose. `None` unless A is one matrix the GEMM reads where
    /// it lies (one batch slice, a view). The words the kernel sees, and so
    /// the bits, do not change.
    pub fn with_panel_a(&self, transposed: bool) -> Option<ContractPlan> {
        (self.batch == 1 && self.a.view.is_some()).then(|| ContractPlan {
            panels: Some(transposed),
            ..self.clone()
        })
    }

    /// This plan summing `parts` products over equal parts of the depth,
    /// each from zero, into C in order — the bits of `parts` separate
    /// contractions added one after the other, which is what a contraction
    /// over a stacked axis of that many blocks means; `None` unless `parts`
    /// divides the depth of one matrix (one batch slice).
    pub fn in_parts(&self, parts: usize) -> Option<ContractPlan> {
        let one = self.batch == 1 && parts > 0;
        (one && self.k.is_multiple_of(parts)).then(|| ContractPlan {
            k_parts: parts,
            ..self.clone()
        })
    }

    /// Compiles `spec` for operands with the given shapes (labelled with
    /// the spec's letters) and strides, and an output whose axes, in the
    /// spec's output order, have strides `out_strides`.
    ///
    /// Each operand's batch, row and column axis groups are taken in the
    /// order [`EinsumSpec::classify`] lists them; an operand whose three
    /// groups each collapse to one stride is handed to the GEMM as a view,
    /// any other is gathered whole into a dense pack first (the output:
    /// scattered out of one afterwards). Both assignments of the operands
    /// to GEMM roles are compiled and the one that writes C best is kept —
    /// unit column stride over in place over scattered, the spec's own
    /// order on a tie. Exchanging roles transposes the GEMM; IEEE multiply
    /// commutes and the `k` order is the spec's either way, so the choice
    /// never moves a bit.
    ///
    /// # Errors
    ///
    /// Returns an error if the spec is not a two-operand GEMM-shaped
    /// contraction, a shape disagrees with it, or `out_strides` has the
    /// wrong rank.
    pub fn compile(
        spec: &EinsumSpec,
        a_shape: &Shape,
        a_strides: &[usize],
        b_shape: &Shape,
        b_strides: &[usize],
        out_strides: &[usize],
    ) -> Result<ContractPlan> {
        let (a, b) = ((a_shape, a_strides), (b_shape, b_strides));
        ContractPlan::compile_as(spec, a, b, out_strides, None)
    }

    /// [`ContractPlan::compile`] with the roles pinned when `swapped` is
    /// given (as the field of that name reads), chosen as documented there
    /// when it is not. Operands are `(shape, strides)`.
    ///
    /// # Errors
    ///
    /// As [`ContractPlan::compile`].
    pub fn compile_as(
        spec: &EinsumSpec,
        (a_shape, a_strides): Labelled<'_>,
        (b_shape, b_strides): Labelled<'_>,
        out_strides: &[usize],
        swapped: Option<bool>,
    ) -> Result<ContractPlan> {
        let class = spec.classify()?;
        let gs = spec.gemm_sizes(a_shape, b_shape)?;
        if out_strides.len() != spec.output().len() {
            return Err(TensorError::LayoutRankMismatch {
                expected: spec.output().len(),
                found: out_strides.len(),
            });
        }
        // `(len, stride)` of a group's axes in one operand
        let in_operand = |axes: &[Axis], shape: &Shape, strides: &[usize]| -> Vec<(usize, usize)> {
            axes.iter()
                .map(|&ax| {
                    let i = shape.index_of(ax).expect("gemm_sizes checked the operand");
                    (shape.sizes()[i], strides[i])
                })
                .collect()
        };
        let in_a = |axes: &[Axis]| in_operand(axes, a_shape, a_strides);
        let in_b = |axes: &[Axis]| in_operand(axes, b_shape, b_strides);
        let in_out = |axes: &[Axis], lens: &[(usize, usize)]| -> Vec<(usize, usize)> {
            axes.iter()
                .zip(lens)
                .map(|(ax, &(len, _))| {
                    let i = spec.output().iter().position(|o| o == ax);
                    (len, out_strides[i.expect("classified into the output")])
                })
                .collect()
        };
        let (batch_a, batch_b) = (in_a(&class.batch), in_b(&class.batch));
        let (k_a, k_b) = (in_a(&class.k), in_b(&class.k));
        let (m_a, n_b) = (in_a(&class.m), in_b(&class.n));
        let batch_c = in_out(&class.batch, &batch_a);
        let (m_c, n_c) = (in_out(&class.m, &m_a), in_out(&class.n, &n_b));

        let natural = Operand::new([&batch_c, &m_c, &n_c], true);
        let exchanged = Operand::new([&batch_c, &n_c, &m_c], true);
        let swapped =
            swapped.unwrap_or_else(|| exchanged.store_rank(gs.m) > natural.store_rank(gs.n));
        Ok(if swapped {
            ContractPlan {
                a: Operand::new([&batch_b, &n_b, &k_b], false),
                b: Operand::new([&batch_a, &k_a, &m_a], false),
                c: exchanged,
                swapped,
                batch: gs.batch,
                m: gs.n,
                n: gs.m,
                k: gs.k,
                panels: None,
                k_parts: 1,
            }
        } else {
            ContractPlan {
                a: Operand::new([&batch_a, &m_a, &k_a], false),
                b: Operand::new([&batch_b, &k_b, &n_b], false),
                c: natural,
                swapped,
                batch: gs.batch,
                m: gs.m,
                n: gs.n,
                k: gs.k,
                panels: None,
                k_parts: 1,
            }
        })
    }

    /// Words of each gathered operand's dense pack (0 for a view), A, B, C.
    fn pack_words(&self) -> [usize; 3] {
        let words = |op: &Operand, rows: usize, cols: usize| match op.view {
            Some(_) => 0,
            None => self.batch * rows * cols,
        };
        [
            words(&self.a, self.m, self.k),
            words(&self.b, self.k, self.n),
            words(&self.c, self.m, self.n),
        ]
    }

    /// GEMM A as the product reads it: `view` (A where it lies, or its
    /// gathered pack) — or, under [`ContractPlan::panels`], A read out of
    /// its panel pack `words`: the pack of A's `m×k` matrix, or of its
    /// transpose read transposed.
    fn lhs<'a>(&self, words: &'a [f32], view: MatRef<'a>) -> Lhs<'a> {
        match self.panels {
            None => Lhs::Mat(view),
            Some(false) => Lhs::Panels(PanelRef::new(words, self.m, self.k)),
            Some(true) => Lhs::Panels(PanelRef::new(words, self.k, self.m).t()),
        }
    }

    /// Scratch words [`contract_into`] needs: the packs of the operands
    /// that fall back to a gather — none when all three are views — and,
    /// for a product in parts, the one part held before it is added.
    pub fn scratch_words(&self) -> usize {
        let part = if self.k_parts > 1 { self.m * self.n } else { 0 };
        self.pack_words().iter().sum::<usize>() + part
    }
}

/// Presents an input operand to the GEMM: where it lies if it is a view,
/// otherwise gathered into `pack` (cut to the operand's words).
fn stage<'a>(
    op: &Operand,
    src: &'a [f32],
    pack: &'a mut [f32],
    rows: usize,
    cols: usize,
) -> BatchRef<'a> {
    match op.view {
        Some(at) => BatchRef { data: src, at },
        None => {
            copy_strided(&op.dims, src, 0, pack, 0);
            BatchRef {
                data: pack,
                at: BatchStrides::dense(rows, cols),
            }
        }
    }
}

/// Executes a precompiled contraction `out = a ∘ b` (operands in the
/// einsum's order): one GEMM per batch slice through the plan's views,
/// with a whole-operand gather before (scatter after) only for an operand
/// the plan could not express as one. Every slice runs in order on the
/// calling thread: the arena's wave pool is where steps run side by side.
///
/// # Panics
///
/// Panics if `scratch` is shorter than [`ContractPlan::scratch_words`] or
/// an operand slice is shorter than the plan's strides reach.
pub fn contract_into(
    plan: &ContractPlan,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    scratch: &mut [f32],
) {
    let [aw, bw, cw] = plan.pack_words();
    let (a_pack, rest) = scratch.split_at_mut(aw);
    let (b_pack, rest) = rest.split_at_mut(bw);
    let (c_pack, rest) = rest.split_at_mut(cw);
    let (x_a, x_b) = if plan.swapped { (b, a) } else { (a, b) };
    let (batch, m, n, k) = (plan.batch, plan.m, plan.n, plan.k);
    let ga = stage(&plan.a, x_a, a_pack, m, k);
    let gb = stage(&plan.b, x_b, b_pack, k, n);
    let (c, at) = match plan.c.view {
        Some(at) => (&mut *out, at),
        None => (&mut *c_pack, BatchStrides::dense(m, n)),
    };
    if plan.k_parts > 1 {
        contract_parts(plan, plan.lhs(x_a, ga.slice(0)), gb.slice(0), (c, at), rest);
    } else {
        // the slices in order: interleaved ones overlap as word ranges
        for g in 0..batch {
            let (a, b) = (plan.lhs(x_a, ga.slice(g)), gb.slice(g));
            let c = MatMut::new(&mut c[g * at.bs..], at.rs, at.cs);
            gemm(m, n, k, a, b, c, Start::FromZero);
        }
    }
    if plan.c.view.is_none() {
        copy_strided(&plan.c.dims, c_pack, 0, out, 0);
    }
}

/// [`ContractPlan::in_parts`]: part `p` is A's columns and B's rows
/// `p·d..(p+1)·d` of the depth, its product computed from zero into C (the
/// first) or into `part` and then added to C.
fn contract_parts(
    plan: &ContractPlan,
    a: Lhs<'_>,
    b: MatRef<'_>,
    (c, at): (&mut [f32], BatchStrides),
    part: &mut [f32],
) {
    let (m, n, depth) = (plan.m, plan.n, plan.k / plan.k_parts);
    for p in 0..plan.k_parts {
        let (b, dst) = match p {
            0 => (b, MatMut::new(&mut *c, at.rs, at.cs)),
            _ => (b.from_row(p * depth), MatMut::row_major(&mut *part, n)),
        };
        gemm(m, n, depth, a.from_col(p * depth), b, dst, Start::FromZero);
        let added = part.chunks_exact(n).take(m * usize::from(p > 0));
        for (r, row) in added.enumerate() {
            for (j, &v) in row.iter().enumerate() {
                c[r * at.rs + j * at.cs] += v;
            }
        }
    }
}

/// Recursive strided copy over `(len, src_stride, dst_stride)` dims: the
/// gather (for the output: scatter) fallback of an operand whose axis
/// groups do not collapse.
fn copy_strided(
    dims: &[(usize, usize, usize)],
    src: &[f32],
    src_off: usize,
    dst: &mut [f32],
    dst_off: usize,
) {
    match dims {
        [] => dst[dst_off] = src[src_off],
        [(len, ss, ds)] => {
            for i in 0..*len {
                dst[dst_off + i * ds] = src[src_off + i * ss];
            }
        }
        [(len, ss, ds), rest @ ..] => {
            for i in 0..*len {
                copy_strided(rest, src, src_off + i * ss, dst, dst_off + i * ds);
            }
        }
    }
}

/// Row-major strides of a shape's own axis order.
fn row_major_strides(shape: &Shape) -> Vec<usize> {
    let sizes = shape.sizes();
    let mut strides = vec![1usize; sizes.len()];
    for i in (0..sizes.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * sizes[i + 1];
    }
    strides
}

/// Output rows the model head's tile program holds in its tile at a time,
/// each a whole vocabulary row. Measured once on the benchmark host
/// (EXPERIMENTS.md, "The head as one step"): at a 2 048-word vocabulary the
/// step runs flat from 16 to 128 rows and slows below 8, where every tile
/// streams the whole packed head for a few rows. Its GEMM runs the 32 rows
/// as four 6-row slabs and two 4-row ones ([`crate::matmul::MR`]). A
/// constant like [`ATTENTION_TILE_ROWS`], not an option.
pub const HEAD_TILE_ROWS: usize = 32;

/// Query rows an attention region holds in its tile at a time. Measured
/// once on the benchmark host (EXPERIMENTS.md, "Attention region"): the
/// core at `j = k = 512` runs flat from 8 to 128 rows and a fifth slower at
/// 512, where the panel is the whole slice and leaves the L2. Both of its
/// GEMMs run the 32 rows as four 6-row slabs and two 4-row ones, one
/// B panel at a time (a 2-row slab would be as slow as a 4-row one). A
/// constant like [`crate::matmul::NR`] and [`lanes::W`], not an option.
pub const ATTENTION_TILE_ROWS: usize = 32;

/// Whether `view` addresses `batch` dense row-major `rows × cols` matrices
/// back to back: the identity over the words it covers.
fn dense(view: Option<BatchStrides>, batch: usize, rows: usize, cols: usize) -> bool {
    view.is_some_and(|v| {
        (batch == 1 || v.bs == rows * cols)
            && (rows == 1 || v.rs == cols)
            && (cols == 1 || v.cs == 1)
    })
}

/// A compiled tile program: a contraction whose output rows live in a tile
/// of at most `tile_rows` rows while a lane chain ([`RowTail`]) runs on
/// each, then optionally a second contraction that reads the chain's rows.
/// The first contraction's output — the tile's container — exists only as
/// that tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TilePlan {
    /// The first contraction. Its C is the tile: the dense `[batch, m, n]`
    /// order of the contraction's output in natural layout, with the
    /// operand holding the output's first non-batch axis as GEMM A — the
    /// chain's rows are the GEMM's rows, whichever roles would have written
    /// C as well (one query row of a decode step: either).
    pub first: ContractPlan,
    /// The second contraction, if any: its A the tile's container under its
    /// second operand's letters, read as the chain's rows (`m × n` of the
    /// first's per slice); its B its first operand; its C its output,
    /// through that container's strides.
    pub second: Option<ContractPlan>,
    /// Rows the tile holds, `1..=first.m`.
    pub tile_rows: usize,
}

impl TilePlan {
    /// Compiles a tile program: the contraction `first` over operands given
    /// as `(shape labelled with its letters, strides)`; optionally `second`
    /// over `(spec, its first operand as such, the strides of its output)`,
    /// its second operand the tile; tiles of `tile_rows` rows (clamped to
    /// the first's GEMM rows). An operand whose axis groups collapse is read
    /// where it lies, any other gathered, as [`ContractPlan::compile`] says.
    ///
    /// `None` when a shape disagrees with its spec, or the tile is not both
    /// contractions' view of the same words: the first's C is not the dense
    /// order of its natural output, or the second does not read that
    /// container as its A, row for row and column for column — which is
    /// what makes a tile row one whole lane of the chain and one row of the
    /// second product.
    pub fn compile(
        first: &EinsumSpec,
        a: Labelled<'_>,
        b: Labelled<'_>,
        second: Option<(&EinsumSpec, Labelled<'_>, &[usize])>,
        tile_rows: usize,
    ) -> Option<TilePlan> {
        let extent = |&ax: &Axis| Some((ax, a.0.size(ax).or_else(|_| b.0.size(ax)).ok()?));
        let sizes: Option<Vec<_>> = first.output().iter().map(extent).collect();
        let tile = Shape::new(sizes?).ok()?;
        let class = first.classify().ok()?;
        let row = first.output().iter().find(|ax| !class.batch.contains(ax))?;
        let swapped = !first.operands()[0].contains(row);
        let f = ContractPlan::compile_as(first, a, b, &row_major_strides(&tile), Some(swapped));
        let f = f.ok().filter(|f| dense(f.c.view, f.batch, f.m, f.n))?;
        let second = match second {
            None => None,
            Some((spec, v, out)) => {
                let labels = spec.operands().get(1).filter(|l| l.len() == tile.rank())?;
                let t =
                    Shape::new(labels.iter().copied().zip(tile.sizes().iter().copied())).ok()?;
                let s = ContractPlan::compile_as(
                    spec,
                    v,
                    (&t, &row_major_strides(&t)),
                    out,
                    Some(true),
                );
                let reads = |s: &ContractPlan| {
                    (s.batch, s.m, s.k) == (f.batch, f.m, f.n) && dense(s.a.view, s.batch, s.m, s.k)
                };
                Some(s.ok().filter(reads)?)
            }
        };
        let tile_rows = tile_rows.clamp(1, f.m.max(1));
        Some(TilePlan {
            first: f,
            second,
            tile_rows,
        })
    }

    /// Words the tile loop keeps hot: one slice's packed B panels of each
    /// contraction and the tile — with a second contraction, the tile of
    /// the chain's rows it reads.
    pub fn hot_words(&self) -> usize {
        let (f, rows) = (&self.first, self.tile_rows);
        let tile = panel_words(f.n, f.k) + rows * f.n;
        tile + (self.second.as_ref()).map_or(0, |s| panel_words(s.n, s.k) + rows * f.n)
    }

    /// Scratch words [`tile_into`] needs: [`TilePlan::hot_words`] and the
    /// packs of the operands that fall back to a gather — none when every
    /// operand is a view.
    pub fn scratch_words(&self) -> usize {
        let packs = |p: &ContractPlan| p.scratch_words();
        self.hot_words() + packs(&self.first) + self.second.as_ref().map_or(0, packs)
    }
}

/// The lane chain a [`tile_into`] call runs on each row of its tile while
/// the row is hot: the fused-kernel classes whose lanes are whole rows of a
/// contraction's output. Streams are full containers, dense in natural
/// order, a row's words at its place among all `batch · m` rows.
#[derive(Debug)]
pub enum RowTail<'a> {
    /// Bias + activation + dropout ([`brd_act_into`]), one bias word per
    /// row.
    BiasActDrop {
        /// Bias vector, one entry per row.
        bias: &'a [f32],
        /// The activation between bias and dropout.
        kind: ActivationKind,
        /// Saved pre-activation.
        pre_activation: &'a mut [f32],
        /// Kernel output.
        out: &'a mut [f32],
        /// Saved dropout mask.
        mask: &'a mut [f32],
    },
    /// Bias + dropout + residual add ([`bdr_into`]), one bias word per row.
    BiasDropResidual {
        /// Bias vector, one entry per row.
        bias: &'a [f32],
        /// Residual input.
        residual: &'a [f32],
        /// Saved dropout mask.
        mask: &'a mut [f32],
        /// Kernel output.
        out: &'a mut [f32],
    },
    /// Bias, one word per column, + softmax along the row
    /// ([`bias_softmax_into`]): the model head.
    BiasSoftmax {
        /// Bias vector, one entry per column.
        bias: &'a [f32],
        /// Kernel output.
        out: &'a mut [f32],
    },
    /// Scale + causal mask + softmax + dropout along the row ([`sm_into`]):
    /// attention weights, written to the tile the second contraction reads
    /// and to no stream — so it runs ahead of one.
    Softmax {
        /// Scale folded into the softmax.
        scaler: f32,
        /// As in [`softmax_into`].
        causal: Option<usize>,
    },
}

impl RowTail<'_> {
    /// The stream holding the chain's output rows, which a second
    /// contraction reads; `None` for the softmax, whose rows stay a tile.
    fn out(&self) -> Option<&[f32]> {
        match self {
            RowTail::BiasActDrop { out, .. }
            | RowTail::BiasDropResidual { out, .. }
            | RowTail::BiasSoftmax { out, .. } => Some(out),
            RowTail::Softmax { .. } => None,
        }
    }
}

/// The second contraction of a [`tile_into`] call.
struct Then<'a> {
    plan: &'a ContractPlan,
    /// Its B, packed one slice at a time into `panels`.
    b: BatchRef<'a>,
    panels: &'a mut [f32],
    /// Its C where it lies, or a pack scattered into `scatter` at the end.
    c: &'a mut [f32],
    /// Where each slice's elements lie in `c`.
    at: BatchStrides,
    scatter: Option<&'a mut [f32]>,
    /// The rows it reads when the chain writes no stream (a softmax's
    /// weights).
    weights: &'a mut [f32],
}

/// The tile-program driver: per batch slice, packs each contraction's B
/// panels once, then for each tile of at most `plan.tile_rows` rows
///
/// 1. runs the first GEMM into the tile — under a causal softmax only over
///    the columns some row of it sees, in whole vectors;
/// 2. runs `tail` on each row while the tile is hot;
/// 3. with a second contraction, runs its GEMM over the chain's rows (the
///    stream the chain wrote, or the softmax's tile) — to the last column
///    some row sees, its exact causal depth — into its output through its
///    strides.
///
/// The first contraction's output exists only as the tile; a softmax's
/// weights only as theirs, and its saved softmax and mask nowhere. `a` and
/// `b` are the first contraction's operands in its einsum's order, `second`
/// the second's first operand and output.
///
/// Bit for bit the chain it stands for — [`contract_into`], the tail's
/// whole-container kernel, [`contract_into`]:
///
/// * each row is whole in its tile, so every lane is the chain's lane body
///   over the chain's words, every mask the chain's at the index the chain
///   gives it (a row's place among all `batch · m` rows);
/// * each product keeps the GEMM's contract — one accumulator per element,
///   `k` ascending, block after block — which does not depend on the tiling
///   or on which operand plays A;
/// * a causal row's weights past its last visible column are `+0` up to
///   the tile's depth — the last column its last row sees — and the second
///   product stops there, inside a `KC` block or not: every accumulator
///   starts at `+0.0`, so for finite values the skipped products would each
///   have added `±0` to a sum that is never `−0` — nothing. (Nor are
///   columns past the last visible one packed, or computed: no lane reads
///   them.)
///
/// # Panics
///
/// Panics if `second` is given without the plan's second contraction or the
/// reverse, a softmax tail runs without one, `scratch` is shorter than
/// [`TilePlan::scratch_words`], or an operand slice is shorter than its
/// strides reach.
pub fn tile_into(
    plan: &TilePlan,
    a: &[f32],
    b: &[f32],
    tail: &mut RowTail<'_>,
    second: Option<(&[f32], &mut [f32])>,
    drop: &Dropout,
    scratch: &mut [f32],
) {
    let (f, tile_rows) = (&plan.first, plan.tile_rows);
    let (m, n, k) = (f.m, f.n, f.k);
    let causal = match *tail {
        RowTail::Softmax { causal, .. } => causal,
        _ => None,
    };
    // the columns rows `r0..r0 + rows` see between them: the depth of
    // their second product
    let seen = |r0: usize, rows: usize| causal.map_or(n, |pos| (pos + r0 + rows).min(n));
    let n_all = seen(0, m);
    let [aw, bw, _] = f.pack_words();
    let (a_pack, rest) = scratch.split_at_mut(aw);
    let (b_pack, rest) = rest.split_at_mut(bw);
    // exactly the packs: `Rhs::Packed` reads their depth off them
    let (panels, rest) = rest.split_at_mut(panel_words(n_all, k));
    let (tile, rest) = rest.split_at_mut(tile_rows * n);
    let (x_a, x_b) = if f.swapped { (b, a) } else { (a, b) };
    let (ga, gb) = (
        stage(&f.a, x_a, a_pack, m, k),
        stage(&f.b, x_b, b_pack, k, n),
    );
    let mut then = match (&plan.second, second) {
        (None, None) => None,
        (Some(s), Some((v, out))) => {
            let [_, bw, cw] = s.pack_words();
            let (b_pack, rest) = rest.split_at_mut(bw);
            let (c_pack, rest) = rest.split_at_mut(cw);
            let (panels, rest) = rest.split_at_mut(panel_words(s.n, n_all));
            let weights = &mut rest[..tile_rows * n];
            let (c, at, scatter) = match s.c.view {
                Some(at) => (out, at, None),
                None => (c_pack, BatchStrides::dense(s.m, s.n), Some(out)),
            };
            Some(Then {
                plan: s,
                b: stage(&s.b, v, b_pack, s.k, s.n),
                panels,
                c,
                at,
                scatter,
                weights,
            })
        }
        _ => panic!("a second contraction's operands go with its plan"),
    };
    for g in 0..f.batch {
        pack_panels(n_all, k, gb.slice(g), panels);
        if let Some(t) = &mut then {
            pack_panels(t.plan.n, n_all, t.b.slice(g), t.panels);
        }
        for r0 in (0..m).step_by(tile_rows) {
            let (rows, row0) = (tile_rows.min(m - r0), g * m + r0);
            // the columns some row sees, in whole vectors
            let cols = seen(r0, rows).next_multiple_of(NR).min(n_all);
            let (a, c) = (f.lhs(x_a, ga.slice(g)), MatMut::row_major(tile, n));
            let b = Rhs::Packed { panels, pn: n_all };
            gemm(rows, cols, k, a.from_row(r0), b, c, Start::FromZero);
            let depth = seen(r0, rows);
            // the row tails, in one out-of-line instantiation at the
            // widest ISA the host has
            isa::widest!(for r in 0..rows {
                let (x, at) = (&mut tile[r * n..][..n], (row0 + r) * n);
                // row `row0 + r`'s one bias word, read at every column
                let bias_at = LaneAt {
                    base: row0 + r,
                    stride: 0,
                    step: 0,
                    len: n,
                };
                match tail {
                    RowTail::BiasActDrop {
                        bias,
                        kind,
                        pre_activation,
                        out,
                        mask,
                    } => lanes::brd_lane(
                        &*x,
                        &bias_at.strided(bias),
                        *kind,
                        (drop, at),
                        &mut pre_activation[at..][..n],
                        &mut out[at..][..n],
                        &mut mask[at..][..n],
                    ),
                    RowTail::BiasDropResidual {
                        bias,
                        residual,
                        mask,
                        out,
                    } => lanes::bdr_lane(
                        &*x,
                        &bias_at.strided(bias),
                        &residual[at..][..n],
                        (drop, at),
                        &mut mask[at..][..n],
                        &mut out[at..][..n],
                    ),
                    RowTail::BiasSoftmax { bias, out } => {
                        // the bias lands in the tile, where the softmax reads it
                        lanes::acc_lane(&bias[..n], x);
                        let out = &mut out[at..][..n];
                        lanes::softmax_lane::<1, _, _, _>(&*x, 1.0, n, out, &mut ());
                    }
                    RowTail::Softmax { scaler, .. } => {
                        // a lane ends at its last visible column; the weights
                        // past it, up to where the second product stops
                        // reading, are `+0`
                        let t = then
                            .as_mut()
                            .expect("a softmax tail runs ahead of a contraction");
                        let visible = seen(r0 + r, 1);
                        let (row, hidden) = t.weights[r * n..][..depth].split_at_mut(visible);
                        // slice `g`'s rows come after `g` whole slices
                        let before = |q| visible_before(causal, q, n);
                        let mut tail = lanes::DroppedInPlace {
                            drop,
                            at: g * before(m) + before(r0 + r),
                            step: visible,
                        };
                        let x = &x[..visible];
                        lanes::softmax_lane::<1, _, _, _>(x, *scaler, visible, row, &mut tail);
                        hidden.fill(0.0);
                    }
                }
            });
            if let Some(t) = &mut then {
                let chain = tail.out().map_or(&*t.weights, |out| &out[row0 * n..]);
                let (at, panels, pn) = (t.at, &*t.panels, t.plan.n);
                let c = MatMut::new(&mut t.c[g * at.bs + r0 * at.rs..], at.rs, at.cs);
                let (a, b) = (MatRef::row_major(chain, n), Rhs::Packed { panels, pn });
                gemm(rows, pn, depth, a, b, c, Start::FromZero);
            }
        }
    }
    if let Some(Then {
        plan,
        c,
        scatter: Some(out),
        ..
    }) = then
    {
        copy_strided(&plan.c.dims, c, 0, out, 0);
    }
}

/// Copies a tensor's logical contents into a dense row-major destination.
///
/// # Panics
///
/// As [`copy_layout_into`].
pub fn copy_tensor_into(t: &Tensor, dst: &mut [f32]) {
    copy_layout_into(t.shape(), t.layout(), t.data(), dst);
}

/// Copies a container stored in `layout` into a dense row-major
/// destination, allocating nothing. Sources that are physically row-major
/// (permutations that only move singleton axes included) are a single
/// `memcpy`; other layouts are walked in logical order.
///
/// # Panics
///
/// Panics if `src` or `dst` is shorter than the container or the layout's
/// rank disagrees with the shape's.
pub fn copy_layout_into(shape: &Shape, layout: &Layout, src: &[f32], dst: &mut [f32]) {
    let n = shape.num_elements();
    let dst = &mut dst[..n];
    if layout.is_row_major_for(shape) {
        dst.copy_from_slice(&src[..n]);
        return;
    }
    let (rank, sizes) = (shape.rank(), shape.sizes());
    assert_eq!(layout.rank(), rank, "shape rank must match layout rank");
    let mut dims = [(0usize, 0usize, 0usize); MAX_RANK];
    let (mut src_stride, mut dst_stride) = (1usize, 1usize);
    for axis in layout.order().rev() {
        dims[axis] = (sizes[axis], src_stride, 0);
        src_stride *= sizes[axis];
    }
    for axis in (0..rank).rev() {
        dims[axis].2 = dst_stride;
        dst_stride *= sizes[axis];
    }
    copy_strided(&dims[..rank], src, 0, dst, 0);
}

/// Re-materializes a container in place from one layout into another: a
/// gather into `scratch` in the new physical order, then one `memcpy`
/// back. `dims` is `(extent, old stride, new stride)` per axis, outermost
/// of the new layout first.
///
/// # Panics
///
/// Panics if `buf` or `scratch` is shorter than the container.
pub fn relayout_into(dims: &[(usize, usize, usize)], buf: &mut [f32], scratch: &mut [f32]) {
    let words: usize = dims.iter().map(|d| d.0).product();
    relayout_from(dims, buf, scratch);
    buf[..words].copy_from_slice(&scratch[..words]);
}

/// [`relayout_into`] out of place: one gather of `src`, read through the
/// old strides, into `dst` in the new physical order.
///
/// # Panics
///
/// Panics if `src` or `dst` is shorter than the container.
pub fn relayout_from(dims: &[(usize, usize, usize)], src: &[f32], dst: &mut [f32]) {
    copy_strided(dims, src, 0, dst, 0);
}

/// `out = alpha · x`.
pub fn scale_into(s: &Sweep, x: &[f32], alpha: f32, out: &mut [f32]) {
    map_into(s, x, out, |v| alpha * v);
}

/// `out = activation(x)`.
pub fn activate_into(s: &Sweep, x: &[f32], kind: ActivationKind, out: &mut [f32]) {
    map_into(s, x, out, |v| kind.apply(v));
}

fn map_into(s: &Sweep, x: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32) {
    s.for_each_lane(|unit, _, [xa, oa]| {
        if unit {
            lanes::map_lane(xa.unit(x), oa.unit_mut(out), &f);
        } else {
            lanes::map_lane(&xa.strided(x), &mut oa.strided_mut(out), &f);
        }
    });
}

/// `out = a + b` (the residual connection).
pub fn add_into(s: &Sweep, a: &[f32], b: &[f32], out: &mut [f32]) {
    zip_into(s, a, b, out, |x, y| x + y);
}

/// `out = f(a, b)` element-wise, `f` called in logical order: the residual
/// add, and [`crate::ops::elementwise::zip_map`] across two layouts.
pub(crate) fn zip_into(
    s: &Sweep,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    mut f: impl FnMut(f32, f32) -> f32,
) {
    s.for_each_lane(|unit, _, [aa, ba, oa]| {
        if unit {
            lanes::zip_lane(aa.unit(a), ba.unit(b), oa.unit_mut(out), &mut f);
        } else {
            let out = &mut oa.strided_mut(out);
            lanes::zip_lane(&aa.strided(a), &ba.strided(b), out, &mut f);
        }
    });
}

/// `out = x + bias`, the bias (operand 1 of the sweep) broadcast by its
/// view's zero strides: always read through a strided lane, beside slices
/// where everything else is contiguous.
pub fn bias_add_into(s: &Sweep, x: &[f32], bias: &[f32], out: &mut [f32]) {
    let add = |v, b| v + b;
    s.for_each_lane(|unit, _, [xa, ba, oa]| {
        let bias = &ba.strided(bias);
        if unit {
            lanes::zip_lane(xa.unit(x), bias, oa.unit_mut(out), add);
        } else {
            lanes::zip_lane(&xa.strided(x), bias, &mut oa.strided_mut(out), add);
        }
    });
}

/// `grad += dy` summed over the axes the bias lacks: `grad` (operand 1 of
/// the sweep) is the bias gradient broadcast by its view's zero strides, so
/// each of its words accumulates its addends in `dy`'s logical order.
pub fn bias_grad_into(s: &Sweep, dy: &[f32], grad: &mut [f32]) {
    s.for_each_lane(|unit, _, [ya, ga]| {
        let grad = &mut ga.strided_mut(grad);
        if unit {
            lanes::acc_lane(ya.unit(dy), grad);
        } else {
            lanes::acc_lane(&ya.strided(dy), grad);
        }
    });
}

/// Unfused dropout: each element's [`Dropout::mask`] at its row-major
/// logical index, survivors scaled by `1/(1-p)` — at `p == 0` a copy
/// under masks of `1`.
pub fn dropout_into(s: &Sweep, x: &[f32], drop: &Dropout, out: &mut [f32], mask: &mut [f32]) {
    s.for_each_lane(|unit, at, [xa, oa, ma]| {
        if unit {
            lanes::dropout_lane(xa.unit(x), drop, at, oa.unit_mut(out), ma.unit_mut(mask));
        } else {
            let (out, mask) = (&mut oa.strided_mut(out), &mut ma.strided_mut(mask));
            lanes::dropout_lane(&xa.strided(x), drop, at, out, mask);
        }
    });
}

/// Dropout backward: `dx = dy ⊙ mask` under the saved mask. Operands in the
/// sweep's order: `dy, mask, dx`.
pub fn dropout_backward_into(s: &Sweep, dy: &[f32], mask: &[f32], dx: &mut [f32]) {
    zip_into(s, dy, mask, dx, |g, m| g * m);
}

/// Key positions the lane of query index `q` attends over: all `len` of
/// them, or under a causal mask whose query row 0 sits at absolute
/// position `pos`, the first `pos + q + 1`.
fn visible_of(causal: Option<usize>, q: usize, len: usize) -> usize {
    causal.map_or(len, |pos| (pos + q + 1).min(len))
}

/// [`visible_of`] summed over the query indices `0..q`, in closed form:
/// the first `ramp` of them see `pos + 1 + q′` positions, the rest all.
fn visible_before(causal: Option<usize>, q: usize, len: usize) -> usize {
    let Some(pos) = causal else {
        return q * len;
    };
    let ramp = q.min(len.saturating_sub(pos));
    ramp * (pos + 1) + ramp * ramp.saturating_sub(1) / 2 + (q - ramp) * len
}

/// `out = softmax(scaler · x)` along the sweep's lane axis — the unfused
/// scale-then-softmax pair in one sweep, numerically identical to scaling
/// into a temporary first (a single f32 multiply either way). `causal`
/// (the absolute position of query index 0; the sweep was compiled with
/// the query axis named) masks key positions beyond each lane's query
/// index to exact zeros (the unfused masked softmax).
pub fn softmax_into(s: &Sweep, x: &[f32], scaler: f32, causal: Option<usize>, out: &mut [f32]) {
    s.for_each_run(|run, _, q, [xa, oa]| {
        let visible = visible_of(causal, q, xa.len);
        on_run!(wide run, N, P, [x @ xa], [out @ oa] =>
            lanes::softmax_lane::<N, _, _, _>(x, scaler, visible, out, &mut ()));
    });
}

/// Fused SM: `alpha = dropout(softmax(scaler · x))` along the sweep's lane
/// axis, with the pre-dropout softmax and the mask saved. `causal` is as
/// in [`softmax_into`]; masked positions get zero softmax/alpha/mask
/// entries, exactly like the allocating kernel.
#[allow(clippy::too_many_arguments)]
pub fn sm_into(
    s: &Sweep,
    x: &[f32],
    scaler: f32,
    causal: Option<usize>,
    drop: &Dropout,
    softmax: &mut [f32],
    alpha: &mut [f32],
    mask: &mut [f32],
) {
    s.for_each_run(|run, l, q, [xa, sa, aa, ma]| {
        let visible = visible_of(causal, q, xa.len);
        let at = s.start(l, q, causal);
        on_run!(wide run, N, P, [x @ xa], [softmax @ sa, alpha @ aa, mask @ ma] => {
            let mut tail = lanes::Dropped { alpha, mask, drop, at, step: visible };
            lanes::softmax_lane::<N, _, _, _>(x, scaler, visible, softmax, &mut tail)
        });
    });
}

/// The head's fused bias + softmax, `out = softmax(x + bias)` along the
/// sweep's lane axis, the bias (operand 1) gathered by lane position —
/// the tail [`RowTail::BiasSoftmax`] runs per tile row, over a whole
/// container. Operands in the sweep's order: `x, bias, out`.
pub fn bias_softmax_into(s: &Sweep, x: &[f32], bias: &[f32], out: &mut [f32]) {
    s.for_each_run(|run, _, _, [xa, ba, oa]| {
        on_run!(run, N, P, [x @ xa], [out @ oa] => {
            let x = lanes::Biased { x, bias: |p, v| ba.gather::<N>(bias, p, v) };
            lanes::softmax_lane::<N, _, _, _>(&x, 1.0, xa.len, out, &mut ())
        });
    });
}

/// Softmax backward along the sweep's lane axis, times the scale the
/// forward folded in: `dx = scaler · y ⊙ (dy − ⟨dy, y⟩)`, `y` the forward
/// output — at `scaler = 1` the plain softmax backward, at any other bit for
/// bit that one scaled after it. Operands in the sweep's order: `dy, y, dx`.
pub fn softmax_backward_into(s: &Sweep, dy: &[f32], y: &[f32], scaler: f32, dx: &mut [f32]) {
    s.for_each_run(|run, _, _, [ga, ya, xa]| {
        on_run!(run, N, P, [dy @ ga, y @ ya], [dx @ xa] =>
            lanes::softmax_dx_lane::<N, P, _, _>(dy, None, y, scaler, dx));
    });
}

/// Fused BS — backward dropout + softmax + scaling in one sweep:
/// `dbeta = scaler · softmax_bwd(dalpha ⊙ mask, y)`. Operands in the sweep's
/// order: `dalpha, mask, y, dbeta`.
pub fn bs_into(s: &Sweep, dalpha: &[f32], mask: &[f32], y: &[f32], scaler: f32, dbeta: &mut [f32]) {
    s.for_each_run(|run, _, _, [ga, ma, ya, xa]| {
        on_run!(run, N, P, [dalpha @ ga, mask @ ma, y @ ya], [dbeta @ xa] =>
            lanes::softmax_dx_lane::<N, P, _, _>(dalpha, Some(mask), y, scaler, dbeta));
    });
}

/// Layer normalization along the sweep's lane axis with learned
/// `gamma`/`beta` (dense 1-D, indexed by the lane position). Per-lane
/// `mean`/`inv_std` are written in lane order, matching the allocating
/// kernel's stats vectors.
pub fn layernorm_into(
    s: &Sweep,
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    out: &mut [f32],
    mean_out: &mut [f32],
    inv_std_out: &mut [f32],
) {
    s.for_each_run(|run, l, _, [xa, ga, ba, oa]| {
        let (gamma, beta) = (ga.unit(gamma), ba.unit(beta));
        let stats = (&mut mean_out[l..], &mut inv_std_out[l..]);
        on_run!(run, N, P, [x @ xa], [out @ oa] =>
            lanes::norm_lane::<N, P, _, _>(x, gamma, beta, out, stats));
    });
}

/// Fused BDRLN: `out = layernorm(dropout(x + bias) + residual)` along the
/// sweep's lane axis, saving the mask, the layer-norm input, and per-lane
/// stats. Operands in the sweep's order: `x, bias, residual, gamma, beta,
/// mask, ln_input, out`.
#[allow(clippy::too_many_arguments)]
pub fn bdrln_into(
    s: &Sweep,
    x: &[f32],
    bias: &[f32],
    residual: &[f32],
    gamma: &[f32],
    beta: &[f32],
    drop: &Dropout,
    mask: &mut [f32],
    ln_input: &mut [f32],
    out: &mut [f32],
    mean_out: &mut [f32],
    inv_std_out: &mut [f32],
) {
    s.for_each_run(|run, l, _, [xa, ba, ra, ga, ea, ma, la, oa]| {
        let (gamma, beta) = (ga.unit(gamma), ea.unit(beta));
        let stats = (&mut mean_out[l..], &mut inv_std_out[l..]);
        on_run!(run, N, P, [x @ xa, residual @ ra], [mask @ ma, ln_input @ la, out @ oa] => {
            let src = lanes::BiasDropResidual {
                x,
                bias: |p, v| ba.gather::<N>(bias, p, v),
                residual,
                mask,
                ln_input,
                drop,
                at: l * xa.len,
            };
            lanes::norm_lane::<N, P, _, _>(src, gamma, beta, out, stats)
        });
    });
}

/// Layer-norm backward w.r.t. the input along the sweep's lane axis, each
/// lane under the `(mean, inv_std)` the forward saved at its ordinal.
/// Operands in the sweep's order: `dy, x, gamma, dx`.
///
/// # Panics
///
/// Panics if `mean` or `inv_std` holds fewer than [`Sweep::lanes`] entries
/// (as do the three drivers below).
pub fn layernorm_backward_input_into(
    s: &Sweep,
    dy: &[f32],
    x: &[f32],
    gamma: &[f32],
    mean: &[f32],
    inv_std: &[f32],
    dx: &mut [f32],
) {
    s.for_each_run(|run, l, _, [ga, xa, wa, da]| {
        let gamma = wa.unit(gamma);
        on_run!(run, N, P, [dy @ ga, x @ xa], [dx @ da] => {
            let stats = (&mean[l..], &inv_std[l..]);
            lanes::norm_dx_lane::<N, P, _, _>(dy, x, gamma, stats, dx, |_, _, row| row)
        });
    });
}

/// Fused BLNRD — layer-norm dX and the dropout dX behind it in one sweep:
/// `dx_ln` as [`layernorm_backward_input_into`], `dx = dx_ln ⊙ mask`.
/// Operands in the sweep's order: `dy, x, gamma, mask, dx_ln, dx`.
#[allow(clippy::too_many_arguments)]
pub fn blnrd_into(
    s: &Sweep,
    dy: &[f32],
    x: &[f32],
    gamma: &[f32],
    mask: &[f32],
    mean: &[f32],
    inv_std: &[f32],
    dx_ln: &mut [f32],
    dx: &mut [f32],
) {
    s.for_each_run(|run, l, _, [ga, xa, wa, ma, la, da]| {
        let gamma = wa.unit(gamma);
        on_run!(run, N, P, [dy @ ga, x @ xa, mask @ ma], [dx_ln @ la, dx @ da] => {
            let stats = (&mean[l..], &inv_std[l..]);
            lanes::norm_dx_lane::<N, P, _, _>(dy, x, gamma, stats, dx_ln, lanes::drop_dx(mask, dx))
        });
    });
}

/// Fused BLNR — layer-norm dX and the residual join behind it in one
/// sweep: `dx = layernorm_dx + residual`, the layer norm's own dX never
/// stored. Operands in the sweep's order: `dy, x, gamma, residual, dx`.
#[allow(clippy::too_many_arguments)]
pub fn blnr_into(
    s: &Sweep,
    dy: &[f32],
    x: &[f32],
    gamma: &[f32],
    residual: &[f32],
    mean: &[f32],
    inv_std: &[f32],
    dx: &mut [f32],
) {
    s.for_each_run(|run, l, _, [ga, xa, wa, ra, da]| {
        let gamma = wa.unit(gamma);
        on_run!(run, N, P, [dy @ ga, x @ xa, residual @ ra], [dx @ da] => {
            let stats = (&mean[l..], &inv_std[l..]);
            // the row plus the residual is stored, the layer norm's dX never is
            let join = |p, v, row: [f32; N]| {
                let r: [f32; N] = residual.row(p, v);
                std::array::from_fn(|w| row[w] + r[w])
            };
            lanes::norm_dx_lane::<N, P, _, _>(dy, x, gamma, stats, dx, join)
        });
    });
}

/// Layer-norm backward w.r.t. the weights: `dgamma += Σ dy · x̂` and
/// `dbeta += Σ dy` over the lanes, each word in logical lane order.
/// Operands in the sweep's order: `dy, x, dgamma, dbeta` (the gradients
/// dense 1-D over the lane axis, as γ and β are).
pub fn layernorm_backward_weights_into(
    s: &Sweep,
    dy: &[f32],
    x: &[f32],
    mean: &[f32],
    inv_std: &[f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    s.for_each_run(|run, l, _, [ga, xa, wa, ba]| {
        let (dgamma, dbeta) = (wa.unit_mut(dgamma), ba.unit_mut(dbeta));
        on_run!(run, N, P, [dy @ ga, x @ xa], [] => {
            let stats = (&mean[l..], &inv_std[l..]);
            lanes::norm_dw_lane::<N, P, _>(dy, |_, _, g| g, x, stats, dgamma, dbeta)
        });
    });
}

/// Fused EBSB — the residual join and the layer-norm dW behind it in one
/// sweep: `dsum = dy + dy_residual`, the weight gradients accumulated from
/// `dsum` as [`layernorm_backward_weights_into`] does. Operands in the
/// sweep's order: `dy, dy_residual, x, dsum, dgamma, dbeta`.
#[allow(clippy::too_many_arguments)]
pub fn ebsb_into(
    s: &Sweep,
    dy: &[f32],
    dy_residual: &[f32],
    x: &[f32],
    mean: &[f32],
    inv_std: &[f32],
    dsum: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    s.for_each_run(|run, l, _, [ga, ra, xa, sa, wa, ba]| {
        let (dgamma, dbeta) = (wa.unit_mut(dgamma), ba.unit_mut(dbeta));
        on_run!(run, N, P, [dy @ ga, dy_residual @ ra, x @ xa], [dsum @ sa] => {
            let stats = (&mean[l..], &inv_std[l..]);
            let head = lanes::add_residual(dy_residual, dsum);
            lanes::norm_dw_lane::<N, P, _>(dy, head, x, stats, dgamma, dbeta)
        });
    });
}

/// Activation backward: `dx = dy · act′(pre)`, `pre` the saved
/// pre-activation. Operands in the sweep's order: `dy, pre, dx`.
pub fn activate_backward_into(
    s: &Sweep,
    dy: &[f32],
    pre: &[f32],
    kind: ActivationKind,
    dx: &mut [f32],
) {
    zip_into(s, dy, pre, dx, |g, v| g * kind.grad(v));
}

/// Fused BDRB — backward dropout + activation + bias dW in one sweep:
/// `dx = dy ⊙ mask · act′(pre)` and `dbias += dx` summed over the axes the
/// bias lacks (`dbias` broadcast by its view's zero strides, as in
/// [`bias_grad_into`]). Operands in the sweep's order: `dy, mask, pre, dx,
/// dbias`.
pub fn bdrb_act_into(
    s: &Sweep,
    dy: &[f32],
    mask: &[f32],
    pre: &[f32],
    kind: ActivationKind,
    dx: &mut [f32],
    dbias: &mut [f32],
) {
    s.for_each_lane(|unit, _, [ga, ma, pa, xa, ba]| {
        let acc = &mut ba.strided_mut(dbias);
        if unit {
            let (dy, mask, pre, dx) = (ga.unit(dy), ma.unit(mask), pa.unit(pre), xa.unit_mut(dx));
            isa::widest!(lanes::bdrb_lane(dy, mask, Some((pre, kind)), dx, acc));
        } else {
            let (dy, mask, pre) = (&ga.strided(dy), &ma.strided(mask), &pa.strided(pre));
            lanes::bdrb_lane(dy, mask, Some((pre, kind)), &mut xa.strided_mut(dx), acc);
        }
    });
}

/// Fused BDB — backward dropout + bias dW in one sweep: `dx = dy ⊙ mask`
/// and `dbias += dx` summed over the axes the bias lacks, as
/// [`bdrb_act_into`] without an activation. Operands in the sweep's order:
/// `dy, mask, dx, dbias`.
pub fn bdb_into(s: &Sweep, dy: &[f32], mask: &[f32], dx: &mut [f32], dbias: &mut [f32]) {
    s.for_each_lane(|unit, _, [ga, ma, xa, ba]| {
        let acc = &mut ba.strided_mut(dbias);
        if unit {
            lanes::bdrb_lane(ga.unit(dy), ma.unit(mask), None, xa.unit_mut(dx), acc);
        } else {
            let (dy, mask) = (&ga.strided(dy), &ma.strided(mask));
            lanes::bdrb_lane(dy, mask, None, &mut xa.strided_mut(dx), acc);
        }
    });
}

/// Fused BRD: `out = dropout(activation(x + bias))`, saving the
/// pre-activation and the mask. Operands in the sweep's order: `x, bias,
/// pre_activation, out, mask`.
#[allow(clippy::too_many_arguments)]
pub fn brd_act_into(
    s: &Sweep,
    x: &[f32],
    bias: &[f32],
    kind: ActivationKind,
    drop: &Dropout,
    pre_activation: &mut [f32],
    out: &mut [f32],
    mask: &mut [f32],
) {
    s.for_each_lane(|unit, at, [xa, ba, pa, oa, ma]| {
        let bias = &ba.strided(bias);
        if unit {
            let (x, pre) = (xa.unit(x), pa.unit_mut(pre_activation));
            let (out, mask) = (oa.unit_mut(out), ma.unit_mut(mask));
            isa::widest!(lanes::brd_lane(x, bias, kind, (drop, at), pre, out, mask));
        } else {
            let (x, pre) = (&xa.strided(x), &mut pa.strided_mut(pre_activation));
            let (out, mask) = (&mut oa.strided_mut(out), &mut ma.strided_mut(mask));
            lanes::brd_lane(x, bias, kind, (drop, at), pre, out, mask);
        }
    });
}

/// Fused BDR (no norm): `out = dropout(x + bias) + residual`, saving the
/// mask. Operands in the sweep's order: `x, bias, residual, mask, out`.
pub fn bdr_into(
    s: &Sweep,
    x: &[f32],
    bias: &[f32],
    residual: &[f32],
    drop: &Dropout,
    mask: &mut [f32],
    out: &mut [f32],
) {
    s.for_each_lane(|unit, at, [xa, ba, ra, ma, oa]| {
        let bias = &ba.strided(bias);
        if unit {
            let (mask, out) = (ma.unit_mut(mask), oa.unit_mut(out));
            lanes::bdr_lane(xa.unit(x), bias, ra.unit(residual), (drop, at), mask, out);
        } else {
            let (mask, out) = (&mut ma.strided_mut(mask), &mut oa.strided_mut(out));
            let residual = &ra.strided(residual);
            lanes::bdr_lane(&xa.strided(x), bias, residual, (drop, at), mask, out);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axes::{Axis, Shape};
    use crate::contract::naive_einsum;
    use crate::einsum::EinsumSpec;
    use crate::fused;
    use crate::layout::Layout;
    use crate::ops::elementwise::{bias_add, scale};
    use crate::ops::layernorm::layernorm;
    use crate::ops::softmax::softmax;
    use rand::distributions::Uniform;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The vendored `StdRng` has no `PartialEq`; equal next draws prove
    /// equal state for its counter-based stream.
    fn assert_same_rng_state(a: &mut StdRng, b: &mut StdRng, what: &str) {
        assert_eq!(a.next_u64(), b.next_u64(), "RNG streams diverged: {what}");
    }

    fn rand_t(spec: &str, sizes: &[(char, usize)], seed: u64) -> Tensor {
        let shape = Shape::from_spec(spec, sizes).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::random(shape, &Uniform::new(-1.0, 1.0), &mut rng)
    }

    const SIZES: [(char, usize); 5] = [('b', 2), ('j', 3), ('k', 4), ('i', 5), ('u', 6)];

    /// `t` whole, through its own strides.
    fn whole(t: &Tensor) -> View {
        View::whole(t.shape().sizes(), t.strides())
    }

    /// `bias` broadcast onto `onto`'s axes (by name): stride 0 where it
    /// has none.
    fn onto(onto: &Tensor, bias: &Tensor) -> View {
        View::broadcast(bias.shape(), bias.strides(), onto.shape()).unwrap()
    }

    /// The sweep of `views` along `lane` (by name in `of`).
    fn sweep(of: &Tensor, views: &[&View], lane: Option<char>, query: Option<char>) -> Sweep {
        let at = |c: char| of.shape().index_of(Axis(c)).unwrap();
        Sweep::compile(views, lane.map(at), query.map(at)).unwrap()
    }

    /// Every permutation of `t`'s layout.
    fn layouts(t: &Tensor) -> Vec<Tensor> {
        Layout::all(t.shape().rank())
            .iter()
            .map(|l| t.relayout(l))
            .collect()
    }

    #[test]
    fn a_sweep_visits_its_views_words_in_logical_order() {
        // every layout pair of a rank-3 and a broadcast rank-1 operand,
        // element-wise and along each lane axis: the lanes a compiled
        // sweep hands out, flattened, are the views' words in row-major
        // order of the logical indices
        let sizes = [('a', 2), ('b', 1), ('c', 3), ('d', 4)];
        let x = rand_t("abcd", &sizes, 1);
        let bias = rand_t("c", &sizes, 2);
        for xl in layouts(&x) {
            let (vx, vb) = (whole(&xl), onto(&xl, &bias));
            for lane in [None, Some(0), Some(2), Some(3)] {
                let s = Sweep::compile(&[&vx, &vb], lane, None).unwrap();
                let mut seen: Vec<[usize; 2]> = Vec::new();
                // a panel's lanes are adjacent: `step` apart, in order
                s.for_each_run(|run, _, _, at: [LaneAt; 2]| {
                    for (w, v) in (0..run.lanes()).flat_map(|w| (0..at[0].len).map(move |v| (w, v)))
                    {
                        seen.push([0, 1].map(|k| at[k].base + w * at[k].step + v * at[k].stride));
                    }
                });
                // the reference walk: outer axes row-major, lane innermost
                let rank = vx.dims.len();
                let l = lane.unwrap_or(rank - 1);
                let order: Vec<usize> = (0..rank).filter(|&d| d != l).chain([l]).collect();
                let mut want = Vec::new();
                let mut idx = vec![0usize; rank];
                'walk: loop {
                    let off =
                        |v: &View| v.base + (0..rank).map(|d| idx[d] * v.dims[d].1).sum::<usize>();
                    want.push([off(&vx), off(&vb)]);
                    for &d in order.iter().rev() {
                        idx[d] += 1;
                        if idx[d] < vx.dims[d].0 {
                            continue 'walk;
                        }
                        idx[d] = 0;
                    }
                    break;
                }
                assert_eq!(seen, want, "layout {:?} lane {lane:?}", xl.layout());
            }
        }
        // natural layout, no broadcast: one contiguous lane
        let vx = whole(&x);
        let s = Sweep::compile(&[&vx, &vx], None, None).unwrap();
        assert_eq!((s.lanes(), s.len), (1, x.len()));
        assert_eq!(s.walk(), Walk::Lane);
    }

    #[test]
    fn softmax_into_is_bitwise_equal() {
        let x = rand_t("bjk", &SIZES, 1);
        let expect = softmax(&scale(&x, 0.25), Axis('k')).unwrap();
        let mut out = vec![0.0f32; x.len()];
        let v = whole(&x);
        let s = sweep(&x, &[&v, &v], Some('k'), None);
        softmax_into(&s, x.data(), 0.25, None, &mut out);
        assert_eq!(out.as_slice(), expect.data());
    }

    /// The view drivers against the tensor drivers, plain and causal, with
    /// and without dropout, the input in every layout and the outputs in
    /// natural layout: same lanes at the same indices, so the same values
    /// and masks, and the tensor driver moves its generator past the
    /// sweep's span.
    #[test]
    fn sm_and_softmax_into_match_fused_sm() {
        let sizes = [('b', 2), ('j', 4), ('k', 4)];
        let natural = rand_t("bjk", &sizes, 3);
        for x in layouts(&natural) {
            for (causal, p) in [(false, 0.0f32), (false, 0.3), (true, 0.0), (true, 0.3)] {
                let (mut rng, mut rng2) = (StdRng::seed_from_u64(10), StdRng::seed_from_u64(10));
                let want = if causal {
                    fused::sm_causal(&natural, 0.7, Axis('j'), Axis('k'), p, &mut rng)
                } else {
                    fused::sm(&natural, 0.7, Axis('k'), p, &mut rng)
                }
                .unwrap();
                let n = x.len();
                let (mut s, mut a, mut m) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
                let drop = Dropout::new(p, &rng2).unwrap();
                let (vx, vo) = (whole(&x), whole(&natural));
                let query = causal.then_some('j');
                let sw = sweep(&x, &[&vx, &vo, &vo, &vo], Some('k'), query);
                let pos = causal.then_some(0);
                sm_into(&sw, x.data(), 0.7, pos, &drop, &mut s, &mut a, &mut m);
                assert_eq!(s.as_slice(), want.softmax.data());
                assert_eq!(a.as_slice(), want.alpha.data());
                assert_eq!(m.as_slice(), want.mask.data());
                drop.skip_past(&mut rng2, sw.span(pos));
                assert_same_rng_state(&mut rng, &mut rng2, "sm");
                // the unfused softmax is the same lanes without the dropout tail
                let sw = sweep(&x, &[&vx, &vo], Some('k'), query);
                softmax_into(&sw, x.data(), 0.7, pos, &mut a);
                assert_eq!(a.as_slice(), want.softmax.data());
            }
        }
    }

    #[test]
    fn layernorm_into_matches_with_stats() {
        let x = rand_t("bji", &SIZES, 5);
        let gamma = rand_t("i", &SIZES, 6);
        let beta = rand_t("i", &SIZES, 7);
        let (want, stats) = layernorm(&x, Axis('i'), &gamma, &beta).unwrap();
        let lanes = x.len() / 5;
        let mut out = vec![0.0f32; x.len()];
        let mut mean = vec![0.0f32; lanes];
        let mut inv = vec![0.0f32; lanes];
        let (v, vg) = (whole(&x), onto(&x, &gamma));
        let s = sweep(&x, &[&v, &vg, &vg, &v], Some('i'), None);
        assert_eq!(s.lanes(), lanes);
        layernorm_into(
            &s,
            x.data(),
            gamma.data(),
            beta.data(),
            &mut out,
            &mut mean,
            &mut inv,
        );
        assert_eq!(out.as_slice(), want.data());
        assert_eq!(mean.as_slice(), stats.mean.as_slice());
        assert_eq!(inv.as_slice(), stats.inv_std.as_slice());
    }

    /// BDRLN with `x` and the residual each in every layout, the outputs
    /// natural: the fused kernel's bits, masks and statistics.
    #[test]
    fn bdrln_into_matches_fused() {
        let x = rand_t("bji", &SIZES, 8);
        let bias = rand_t("i", &SIZES, 9);
        let res = rand_t("bji", &SIZES, 10);
        let gamma = rand_t("i", &SIZES, 11);
        let beta = rand_t("i", &SIZES, 12);
        let mut rng = StdRng::seed_from_u64(13);
        let want = fused::bdrln(&x, &bias, &res, &gamma, &beta, Axis('i'), 0.4, &mut rng).unwrap();
        let (n, lanes) = (x.len(), x.len() / 5);
        for (xl, rl) in layouts(&x).into_iter().zip(layouts(&res).into_iter().rev()) {
            let (mut m, mut li, mut out) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            let mut mean = vec![0.0f32; lanes];
            let mut inv = vec![0.0f32; lanes];
            let rng2 = StdRng::seed_from_u64(13);
            let (vx, vr, vo) = (whole(&xl), whole(&rl), whole(&x));
            let (vb, vg) = (onto(&x, &bias), onto(&x, &gamma));
            let s = sweep(
                &x,
                &[&vx, &vb, &vr, &vg, &vg, &vo, &vo, &vo],
                Some('i'),
                None,
            );
            bdrln_into(
                &s,
                xl.data(),
                bias.data(),
                rl.data(),
                gamma.data(),
                beta.data(),
                &Dropout::new(0.4, &rng2).unwrap(),
                &mut m,
                &mut li,
                &mut out,
                &mut mean,
                &mut inv,
            );
            assert_eq!(m.as_slice(), want.mask.data());
            assert_eq!(li.as_slice(), want.ln_input.data());
            assert_eq!(out.as_slice(), want.out.data());
            assert_eq!(mean.as_slice(), want.stats.mean.as_slice());
            assert_eq!(inv.as_slice(), want.stats.inv_std.as_slice());
        }
    }

    /// BRD with the bias on the innermost axis (a contiguous bias lane),
    /// on the outermost (a splat per lane) and with a permuted input (the
    /// strided body): one result.
    #[test]
    fn brd_act_into_matches_fused() {
        for (spec, bias_spec) in [("bju", "u"), ("ubj", "u")] {
            let x = rand_t(spec, &SIZES, 14);
            let bias = rand_t(bias_spec, &SIZES, 15);
            let mut rng = StdRng::seed_from_u64(16);
            let want = fused::brd_act(&x, &bias, ActivationKind::Gelu, 0.2, &mut rng).unwrap();
            let n = x.len();
            for xl in layouts(&x) {
                let (mut pre, mut out, mut m) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
                let rng2 = StdRng::seed_from_u64(16);
                let (vx, vb, vo) = (whole(&xl), onto(&x, &bias), whole(&x));
                let s = sweep(&x, &[&vx, &vb, &vo, &vo, &vo], None, None);
                brd_act_into(
                    &s,
                    xl.data(),
                    bias.data(),
                    ActivationKind::Gelu,
                    &Dropout::new(0.2, &rng2).unwrap(),
                    &mut pre,
                    &mut out,
                    &mut m,
                );
                assert_eq!(pre.as_slice(), want.pre_activation.data());
                assert_eq!(out.as_slice(), want.out.data());
                assert_eq!(m.as_slice(), want.mask.data());
            }
        }
    }

    #[test]
    fn bias_add_into_matches_broadcast() {
        let x = rand_t("bjk", &SIZES, 17);
        let mut out = vec![0.0f32; x.len()];
        // innermost-axis, multi-axis and outermost-axis biases
        for bias_spec in ["k", "jk", "b"] {
            let bias = rand_t(bias_spec, &SIZES, 18);
            let want = bias_add(&x, &bias).unwrap();
            let (v, vb) = (whole(&x), onto(&x, &bias));
            let s = sweep(&x, &[&v, &vb, &v], None, None);
            bias_add_into(&s, x.data(), bias.data(), &mut out);
            assert_eq!(out.as_slice(), want.data(), "bias `{bias_spec}`");
        }
    }

    /// A carve is a base offset: the middle rows of a stacked tensor plus
    /// a bias, written into a transposed output.
    #[test]
    fn a_carved_input_and_a_permuted_output_address_through_their_views() {
        let sizes = [('s', 6), ('p', 2), ('h', 3)];
        let stacked = rand_t("sh", &sizes, 23);
        let bias = rand_t("ph", &sizes, 24);
        let part = stacked
            .slice_range(Axis('s'), 2, 2)
            .unwrap()
            .relabel("ph")
            .unwrap();
        let want = bias_add(&part, &bias).unwrap();
        let out_t = want.relayout(&Layout::from_axis_order(want.shape(), "hp").unwrap());
        let carve = View {
            base: 2 * stacked.strides()[0],
            dims: vec![(2, stacked.strides()[0]), (3, stacked.strides()[1])],
        };
        let s = Sweep::compile(&[&carve, &whole(&bias), &whole(&out_t)], None, None).unwrap();
        let mut out = vec![0.0f32; want.len()];
        bias_add_into(&s, stacked.data(), bias.data(), &mut out);
        assert_eq!(out.as_slice(), out_t.data());
    }

    #[test]
    fn relayout_into_permutes_in_place() {
        let t = rand_t("bjk", &SIZES, 25);
        let to = Layout::from_axis_order(t.shape(), "kbj").unwrap();
        let want = t.relayout(&to);
        let dims: Vec<_> = to
            .order()
            .map(|d| (t.shape().sizes()[d], t.strides()[d], want.strides()[d]))
            .collect();
        let mut buf = t.data().to_vec();
        relayout_into(&dims, &mut buf, &mut vec![f32::NAN; t.len()]);
        assert_eq!(buf.as_slice(), want.data());
    }

    /// Compiles `spec` over the tensors' own strides with a row-major
    /// output, as `contract::contract` does.
    fn compile_for(spec: &EinsumSpec, a: &Tensor, b: &Tensor, out: &Shape) -> ContractPlan {
        ContractPlan::compile(
            spec,
            a.shape(),
            a.strides(),
            b.shape(),
            b.strides(),
            &row_major_strides(out),
        )
        .unwrap()
    }

    fn drive(plan: &ContractPlan, a: &Tensor, b: &Tensor, words: usize) -> Vec<f32> {
        let mut out = vec![f32::NAN; words];
        let mut scratch = vec![f32::NAN; plan.scratch_words()];
        contract_into(plan, a.data(), b.data(), &mut out, &mut scratch);
        out
    }

    /// The same plan with every operand forced through the gather
    /// fallback.
    fn gathered(plan: &ContractPlan) -> ContractPlan {
        let mut g = plan.clone();
        (g.a.view, g.b.view, g.c.view) = (None, None, None);
        g
    }

    #[test]
    fn contract_into_matches_contract_through_views_and_through_gathers() {
        let sizes = [('p', 3), ('h', 2), ('b', 2), ('j', 4), ('k', 5)];
        let a = rand_t("phbk", &sizes, 20);
        let b = rand_t("phbj", &sizes, 21);
        let spec: EinsumSpec = "phbk,phbj->hbjk".parse().unwrap();
        let want = crate::contract::contract(&spec, &a, &b, &Layout::row_major(4)).unwrap();
        let plan = compile_for(&spec, &a, &b, want.shape());
        // row-major operands: every group collapses, nothing is packed
        assert!(plan.a.view.is_some() && plan.b.view.is_some() && plan.c.view.is_some());
        assert_eq!(plan.scratch_words(), 0);
        assert_bits("views", &drive(&plan, &a, &b, want.len()), want.data());
        let packed = gathered(&plan);
        assert_eq!(packed.scratch_words(), 4 * (4 * 3 + 3 * 5 + 4 * 5));
        assert_bits("gathers", &drive(&packed, &a, &b, want.len()), want.data());
    }

    /// The compiler keeps the operand order whose C has unit column
    /// stride: QKT as written would write `hbjk` transposed.
    #[test]
    fn compile_exchanges_roles_to_write_c_with_unit_column_stride() {
        let sizes = [('p', 3), ('h', 2), ('b', 2), ('j', 4), ('k', 5)];
        let kk = rand_t("phbk", &sizes, 30);
        let qq = rand_t("phbj", &sizes, 31);
        let out = Shape::from_spec("hbjk", &sizes).unwrap();
        let spec: EinsumSpec = "phbk,phbj->hbjk".parse().unwrap();
        let plan = compile_for(&spec, &kk, &qq, &out);
        assert!(plan.swapped);
        // j — the query axis — is M, k — the softmax axis — is N
        assert_eq!((plan.batch, plan.m, plan.n, plan.k), (4, 4, 5, 3));
        assert_eq!(
            plan.c.view,
            Some(BatchStrides {
                bs: 20,
                rs: 5,
                cs: 1
            })
        );
        // the query operand is read k-major, the key operand row-major
        assert_eq!(
            plan.a.view,
            Some(BatchStrides {
                bs: 4,
                rs: 1,
                cs: 16
            })
        );
        assert_eq!(
            plan.b.view,
            Some(BatchStrides {
                bs: 5,
                rs: 20,
                cs: 1
            })
        );
        // an output stored `hbkj` is written in place by the written order
        let out_t = Shape::from_spec("hbkj", &sizes).unwrap();
        let strides = Layout::from_axis_order(&out, "hbkj").unwrap().strides(&out);
        let plan_t = ContractPlan::compile(
            &spec,
            kk.shape(),
            kk.strides(),
            qq.shape(),
            qq.strides(),
            &strides,
        )
        .unwrap();
        assert!(!plan_t.swapped);
        assert_eq!(plan_t.c.view.map(|v| v.cs), Some(1));
        let _ = out_t;
    }

    /// `hpbk`: the batch axes `h, b` are split by `p`, so the group has no
    /// single stride and the operand — and only it — is gathered.
    #[test]
    fn an_operand_whose_batch_group_does_not_collapse_falls_back_to_the_gather() {
        let sizes = [('p', 3), ('h', 2), ('b', 2), ('j', 4), ('k', 5)];
        let kk = rand_t("hpbk", &sizes, 34);
        let qq = rand_t("phbj", &sizes, 35);
        let spec: EinsumSpec = "hpbk,phbj->hbjk".parse().unwrap();
        let out = Shape::from_spec("hbjk", &sizes).unwrap();
        let plan = compile_for(&spec, &kk, &qq, &out);
        assert!(plan.swapped);
        assert!(plan.b.view.is_none(), "hpbk must be gathered");
        assert!(plan.a.view.is_some() && plan.c.view.is_some());
        assert_eq!(plan.scratch_words(), kk.len());
        let want = naive_einsum(&spec, &[&kk, &qq]).unwrap();
        let got = drive(&plan, &kk, &qq, want.len());
        for (g, w) in got.iter().zip(want.data()) {
            assert!((g - w).abs() < 1e-4);
        }
        assert_bits(
            "gathers",
            &drive(&gathered(&plan), &kk, &qq, want.len()),
            &got,
        );
        // size-1 axes never block a collapse
        let ones = [('p', 3), ('h', 1), ('b', 2), ('j', 4), ('k', 5)];
        let k1 = rand_t("hpbk", &ones, 36);
        let q1 = rand_t("phbj", &ones, 37);
        let out1 = Shape::from_spec("hbjk", &ones).unwrap();
        assert_eq!(compile_for(&spec, &k1, &q1, &out1).scratch_words(), 0);
    }

    /// The first contraction's rows are GEMM A's whichever roles would
    /// write C best: QKT's queries — at one query row too, where both write
    /// C in place — and BRD's `u`. A pair the tile cannot hold is refused: a
    /// batch axis between the scores' rows and columns, a context that sums
    /// over the queries.
    #[test]
    fn a_tile_plan_pins_the_rows_to_gemm_a_and_refuses_what_no_tile_holds() {
        let of = |t: &'_ Tensor| (t.shape().clone(), t.strides().to_vec());
        let plan = |qkt: &str, gamma: &str, j: usize| {
            let sizes = [('p', 3), ('w', 2), ('h', 2), ('b', 2), ('j', j), ('k', 5)];
            let (qkt, gamma): (EinsumSpec, EinsumSpec) =
                (qkt.parse().unwrap(), gamma.parse().unwrap());
            let labels = |ax: &[Axis]| ax.iter().map(|a| a.name()).collect::<String>();
            let t = |ax: &[Axis]| of(&rand_t(&labels(ax), &sizes, 1));
            let (a, b) = (t(&qkt.operands()[0]), t(&qkt.operands()[1]));
            let (v, out) = (t(&gamma.operands()[0]), t(gamma.output()));
            let second = Some((&gamma, (&v.0, &v.1[..]), &out.1[..]));
            TilePlan::compile(&qkt, (&a.0, &a.1), (&b.0, &b.1), second, 32)
        };
        let (qkt, gamma) = ("phbk,phbj->hbjk", "whbk,hbjk->whbj");
        for j in [4, 1] {
            let p = plan(qkt, gamma, j).expect("the attention core is a tile program");
            assert!(p.first.swapped, "the query operand is A");
            assert_eq!(
                (p.first.batch, p.first.m, p.first.n, p.first.k),
                (4, j, 5, 3)
            );
            let second = p.second.unwrap();
            assert_eq!((second.m, second.n, second.k), (j, 2, 5));
            assert_eq!(p.tile_rows, j);
        }
        assert!(plan("phbk,phbj->hjbk", "whbk,hjbk->whbj", 4).is_none());
        assert!(plan(qkt, "whbj,hbjk->whbk", 4).is_none());
        let sizes = [('u', 6), ('i', 4), ('b', 2), ('j', 5)];
        let (w, x) = (of(&rand_t("ui", &sizes, 2)), of(&rand_t("ibj", &sizes, 3)));
        let spec: EinsumSpec = "ui,ibj->ubj".parse().unwrap();
        let p = TilePlan::compile(&spec, (&w.0, &w.1), (&x.0, &x.1), None, 4).unwrap();
        assert!(!p.first.swapped);
        assert_eq!((p.first.m, p.first.n, p.tile_rows), (6, 10, 4));
    }

    #[test]
    fn copy_tensor_into_handles_permuted_layouts() {
        let t = rand_t("bjk", &SIZES, 22);
        let tp = t.relayout(&Layout::from_axis_order(t.shape(), "kbj").unwrap());
        let mut dst = vec![0.0f32; t.len()];
        copy_tensor_into(&tp, &mut dst);
        assert_eq!(dst.as_slice(), t.data());
        copy_tensor_into(&t, &mut dst);
        assert_eq!(dst.as_slice(), t.data());
    }

    fn assert_bits(name: &str, a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len(), "{name}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{name}: word {i}: {x} vs {y}");
        }
    }

    /// One step's masks computed lane by lane in a shuffled order, from two
    /// threads, and (element-wise) as the rows of a tile program are the
    /// sweep's, bit for bit: a mask is a function of its index, and an index
    /// of its lane's place, never of which lane ran before it.
    mod walk_order {
        use super::*;
        use proptest::prelude::*;
        use rand::Rng;

        type Lanes<const N: usize> = Vec<(usize, usize, [LaneAt; N])>;

        /// Every lane of `s` on its own: `(ordinal, query index, lane per
        /// operand)`, panels taken apart.
        fn lanes_of<const N: usize>(s: &Sweep) -> Lanes<N> {
            let mut all = Vec::new();
            s.for_each_run(|run, l, q, at: [LaneAt; N]| {
                for w in 0..run.lanes() {
                    let lane = at.map(|a| LaneAt {
                        base: a.base + w * a.step,
                        ..a
                    });
                    all.push((l + w, q, lane));
                }
            });
            all
        }

        /// `lanes` in a seeded random order, dealt to two threads; each
        /// computes its lanes' masks over NaN with `one`, and each word is
        /// taken from the thread that wrote it.
        fn shuffled_on_two_threads<const N: usize>(
            mut lanes: Lanes<N>,
            seed: u64,
            one: impl Fn(&Lanes<N>) -> Vec<f32> + Sync,
        ) -> Vec<f32> {
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..lanes.len()).rev() {
                lanes.swap(i, rng.gen_range(0..i + 1));
            }
            let (even, odd): (Lanes<N>, Lanes<N>) = (
                lanes.iter().step_by(2).copied().collect(),
                lanes.iter().skip(1).step_by(2).copied().collect(),
            );
            let (a, b) = std::thread::scope(|sc| {
                let a = sc.spawn(|| one(&even));
                let b = sc.spawn(|| one(&odd));
                (a.join().unwrap(), b.join().unwrap())
            });
            a.iter()
                .zip(&b)
                .map(|(&a, &b)| if a.is_nan() { b } else { a })
                .collect()
        }

        /// The SM masks of `lanes`, each lane a strided lane of its own.
        fn sm_masks(
            s: &Sweep,
            x: &[f32],
            causal: Option<usize>,
            drop: &Dropout,
            lanes: &Lanes<4>,
        ) -> Vec<f32> {
            let [mut y, mut a, mut m] = [(); 3].map(|_| vec![f32::NAN; x.len()]);
            for &(l, q, [xa, ya, aa, ma]) in lanes {
                let visible = visible_of(causal, q, xa.len);
                let mut tail = lanes::Dropped {
                    alpha: &mut aa.strided_mut(&mut a),
                    mask: &mut ma.strided_mut(&mut m),
                    drop,
                    at: s.start(l, q, causal),
                    step: visible,
                };
                let (x, y) = (&xa.strided(x), &mut ya.strided_mut(&mut y));
                lanes::softmax_lane::<1, _, _, _>(x, 0.5, visible, y, &mut tail);
            }
            m
        }

        /// The BRD masks of `lanes`, each a strided lane of its own.
        fn brd_masks(x: &[f32], bias: &[f32], drop: &Dropout, lanes: &Lanes<5>) -> Vec<f32> {
            let [mut pre, mut out, mut m] = [(); 3].map(|_| vec![f32::NAN; x.len()]);
            for &(l, _, [xa, ba, pa, oa, ma]) in lanes {
                lanes::brd_lane(
                    &xa.strided(x),
                    &ba.strided(bias),
                    ActivationKind::Relu,
                    (drop, l * xa.len),
                    &mut pa.strided_mut(&mut pre),
                    &mut oa.strided_mut(&mut out),
                    &mut ma.strided_mut(&mut m),
                );
            }
            m
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn masks_do_not_depend_on_walk_order(
                (b, j, k) in (1usize..4, 1usize..40, 1usize..40),
                (layout, causal, pos) in (0usize..6, any::<bool>(), 0usize..40),
                (u, i, rows) in (1usize..9, 1usize..5, 1usize..10),
                p in 0usize..2,
                seed in 0u64..1000,
            ) {
                let drop = Dropout::new([0.1, 0.5][p], &StdRng::seed_from_u64(seed)).unwrap();
                let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

                // SM: the lanes of a causal or plain softmax in any layout
                let natural = rand_t("bjk", &[('b', b), ('j', j), ('k', k)], seed);
                let x = natural.relayout(&Layout::all(3)[layout]);
                let (vx, vo) = (whole(&x), whole(&natural));
                let s = sweep(&x, &[&vx, &vo, &vo, &vo], Some('k'), causal.then_some('j'));
                let causal = causal.then_some(pos % k);
                let n = x.len();
                let (mut y, mut a, mut m) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
                sm_into(&s, x.data(), 0.5, causal, &drop, &mut y, &mut a, &mut m);
                let one = |lanes: &Lanes<4>| sm_masks(&s, x.data(), causal, &drop, lanes);
                let got = shuffled_on_two_threads(lanes_of::<4>(&s), seed, one);
                prop_assert!(bits(&got) == bits(&m), "SM, layout {}", layout);

                // BRD: element-wise, in any layout, and as tile rows
                let sizes = [('u', u), ('i', i), ('b', b), ('j', j)];
                let (w, h) = (rand_t("ui", &sizes, seed + 1), rand_t("ibj", &sizes, seed + 2));
                let bias = rand_t("u", &sizes, seed + 3);
                let natural = rand_t("ubj", &sizes, seed + 4);
                let x = natural.relayout(&Layout::all(3)[layout]);
                let (vx, vb, vo) = (whole(&x), onto(&x, &bias), whole(&natural));
                let s = sweep(&x, &[&vx, &vb, &vo, &vo, &vo], None, None);
                let n = x.len();
                let (mut pre, mut out, mut m) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
                let kind = ActivationKind::Relu;
                brd_act_into(&s, x.data(), bias.data(), kind, &drop, &mut pre, &mut out, &mut m);
                let one = |lanes: &Lanes<5>| brd_masks(x.data(), bias.data(), &drop, lanes);
                let got = shuffled_on_two_threads(lanes_of::<5>(&s), seed, one);
                prop_assert!(bits(&got) == bits(&m), "BRD, layout {}", layout);
                let spec: EinsumSpec = "ui,ibj->ubj".parse().unwrap();
                let (a, b) = ((w.shape(), w.strides()), (h.shape(), h.strides()));
                let plan = TilePlan::compile(&spec, a, b, None, rows).unwrap();
                let [mut tp, mut to, mut tm] = [(); 3].map(|_| vec![f32::NAN; n]);
                let mut tail = RowTail::BiasActDrop {
                    bias: bias.data(),
                    kind,
                    pre_activation: &mut tp,
                    out: &mut to,
                    mask: &mut tm,
                };
                let scratch = &mut vec![f32::NAN; plan.scratch_words()];
                tile_into(&plan, w.data(), h.data(), &mut tail, None, &drop, scratch);
                prop_assert!(bits(&tm) == bits(&m), "BRD as tiles of {} rows", rows);
            }
        }
    }
}
