//! Zero-allocation kernel variants that execute into caller-provided
//! buffers.
//!
//! Every forward kernel the schedule interpreter dispatches has a `*_into`
//! driver here that reads dense **row-major** slices and writes dense
//! row-major slices, allocating nothing. They are the execution layer of
//! the arena interpreter (`core::arena`): the planner colors each logical
//! container into an offset of one preallocated slab, and these kernels
//! run directly on the slab views.
//!
//! The lane-wise and fused kernels are *physical-order drivers* over the
//! bodies of [`crate::lanes`]: they enumerate lanes (or flat offsets) and
//! hand each to the one body that holds the arithmetic — the same body the
//! tensor-returning kernels of [`crate::fused`] and [`crate::ops`] drive
//! in logical order, so the two paths are **bitwise identical** by
//! construction (the arena equivalence tests pin the drivers: geometry,
//! statistics order, RNG draw order).
//!
//! All geometry (lane decompositions, bias broadcast maps, einsum pack
//! descriptors) is precomputed by the caller; the kernels only walk flat
//! offsets. Helpers:
//!
//! * [`LaneGeom`] — decomposition of a row-major tensor into lanes along
//!   one axis (the sweep order of `for_each_outer`),
//! * [`BiasMap`] — broadcast map from a flat output offset to a bias
//!   offset,
//! * [`CausalMap`] — recovery of the query index from a lane number for
//!   masked softmax,
//! * [`ContractPlan`] — the one contraction compiler: GEMM sizes, operand
//!   roles and, per operand, the strides the GEMM reads it through (or the
//!   gather descriptor of an operand strides cannot express).

use rand::Rng;

use crate::axes::{Axis, Shape};
use crate::einsum::EinsumSpec;
use crate::error::{Result, TensorError};
use crate::lanes::{self, Dropout, LaneAt};
use crate::matmul::{
    gemm, gemm_batched, gemm_packed, pack_panels, panel_words, BatchMut, BatchRef, BatchStrides,
    MatMut, Start,
};
use crate::ops::elementwise::ActivationKind;
use crate::tensor::Tensor;

/// Lane decomposition of a dense row-major buffer along the axis at
/// logical position `ai` of a shape with sizes `s`: `pre = Π s[..ai]`,
/// `len = s[ai]`, `post = Π s[ai+1..]`.
///
/// Lanes are visited `pre`-major / `post`-minor — exactly the order
/// `for_each_outer` visits them on a row-major tensor — so per-lane
/// statistics land in the same order as the allocating kernels push them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneGeom {
    /// Product of the axis sizes before the swept axis.
    pub pre: usize,
    /// Extent of the swept axis.
    pub len: usize,
    /// Product of the axis sizes after the swept axis (also the element
    /// stride of the swept axis in a row-major buffer).
    pub post: usize,
}

impl LaneGeom {
    /// Builds the decomposition for logical axis position `ai` of a shape
    /// with the given sizes.
    pub fn new(sizes: &[usize], ai: usize) -> LaneGeom {
        LaneGeom {
            pre: sizes[..ai].iter().product(),
            len: sizes[ai],
            post: sizes[ai + 1..].iter().product(),
        }
    }

    /// Number of lanes.
    pub fn lanes(self) -> usize {
        self.pre * self.post
    }

    /// Every lane's `(pre index, position)` in visiting order.
    fn lanes_at(self) -> impl Iterator<Item = (usize, LaneAt)> {
        let (len, stride) = (self.len, self.post);
        (0..self.pre).flat_map(move |pre| {
            (0..stride).map(move |post| {
                let base = pre * len * stride + post;
                (pre, LaneAt { base, stride, len })
            })
        })
    }
}

/// Broadcast map from a flat row-major offset in the output to a flat
/// offset in a (smaller) bias buffer. One entry per bias axis:
/// `(x_stride, x_size, bias_stride)`, where `x_stride`/`x_size` describe
/// the axis in the output's row-major geometry and `bias_stride` is the
/// axis's row-major stride within the bias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BiasMap {
    /// `(x_stride, x_size, bias_stride)` triples, one per bias axis.
    pub dims: Vec<(usize, usize, usize)>,
}

impl BiasMap {
    /// Bias offset for the element at flat output offset `f`.
    #[inline]
    pub fn offset(&self, f: usize) -> usize {
        let mut off = 0usize;
        for &(xs, xn, bs) in &self.dims {
            off += ((f / xs) % xn) * bs;
        }
        off
    }
}

/// Recovers the causal query index from the `pre` part of a lane number:
/// `q = (pre / div) % len`. The query axis always precedes the softmax
/// axis logically, so it is always a `pre` axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalMap {
    /// Product of the pre-axis sizes strictly between the query axis and
    /// the softmax axis.
    pub div: usize,
    /// Extent of the query axis.
    pub len: usize,
    /// Absolute position of local query index 0. Zero for full-sequence
    /// plans; a decode step sets it to the current sequence position so a
    /// single-column query attends over `base + 1` cache slots.
    pub base: usize,
}

impl CausalMap {
    /// Query index for the lane with pre-part `pre`.
    #[inline]
    pub fn query(self, pre: usize) -> usize {
        self.base + (pre / self.div) % self.len
    }

    /// This map shifted to absolute position `base` (decode-step use).
    #[inline]
    pub fn at(self, base: usize) -> Self {
        CausalMap { base, ..self }
    }
}

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
}

impl ContractPlan {
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
        let swapped = exchanged.store_rank(gs.m) > natural.store_rank(gs.n);
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

    /// Scratch words [`contract_into`] needs: the packs of the operands
    /// that fall back to a gather — none when all three are views.
    pub fn scratch_words(&self) -> usize {
        self.pack_words().iter().sum()
    }

    /// Scratch words [`contract_epilogue_tiled`] needs at `tile_rows`: the
    /// gather packs of A and B, one batch slice's packed B panels, and the
    /// output tile.
    pub fn epilogue_scratch_words(&self, tile_rows: usize) -> usize {
        let [a, b, _] = self.pack_words();
        a + b + panel_words(self.n, self.k) + tile_rows * self.n
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
/// the plan could not express as one. The batch loop is serial — arena
/// steps are already parallelized across waves, and per-slice GEMMs are
/// bitwise identical whichever thread runs them.
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
    contract_with_threads(plan, a, b, out, scratch, 1);
}

/// [`contract_into`] with the batch slices spread over up to `threads`
/// threads (see [`gemm_batched`]); the allocating
/// [`contract`](crate::contract::contract) runs it on the host's cores.
pub(crate) fn contract_with_threads(
    plan: &ContractPlan,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    scratch: &mut [f32],
    threads: usize,
) {
    let [aw, bw, cw] = plan.pack_words();
    let (a_pack, rest) = scratch.split_at_mut(aw);
    let (b_pack, rest) = rest.split_at_mut(bw);
    let c_pack = &mut rest[..cw];
    let (x_a, x_b) = if plan.swapped { (b, a) } else { (a, b) };
    let (batch, m, n, k) = (plan.batch, plan.m, plan.n, plan.k);
    let ga = stage(&plan.a, x_a, a_pack, m, k);
    let gb = stage(&plan.b, x_b, b_pack, k, n);
    let gc = match plan.c.view {
        Some(at) => BatchMut { data: out, at },
        None => BatchMut {
            data: c_pack,
            at: BatchStrides::dense(m, n),
        },
    };
    gemm_batched(batch, m, n, k, ga, gb, gc, Start::FromZero, threads);
    if plan.c.view.is_none() {
        copy_strided(&plan.c.dims, c_pack, 0, out, 0);
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

/// Compiles a contraction for the tiled epilogue driver
/// ([`contract_epilogue_tiled`]): [`ContractPlan::compile`] against the
/// row-major output container `out_shape`, kept only when C comes out as
/// the *identity* view over it — dense `[batch, m, n]` in container order —
/// so GEMM row blocks stream straight into the epilogue. The attention
/// `QKT` einsum `phbk,phbj->hbjk` transposes under its written order and
/// is the identity once the compiler has given the query operand the M
/// role. Returns `None` when neither order writes in container order.
pub fn epilogue_contract_plan(
    spec: &EinsumSpec,
    a_shape: &Shape,
    a_strides: &[usize],
    b_shape: &Shape,
    b_strides: &[usize],
    out_shape: &Shape,
) -> Option<ContractPlan> {
    if spec.output() != out_shape.axes() {
        return None;
    }
    let out_strides = row_major_strides(out_shape);
    let plan =
        ContractPlan::compile(spec, a_shape, a_strides, b_shape, b_strides, &out_strides).ok()?;
    let v = plan.c.view?;
    let identity = (plan.batch == 1 || v.bs == plan.m * plan.n)
        && (plan.m == 1 || v.rs == plan.n)
        && (plan.n == 1 || v.cs == 1);
    identity.then_some(plan)
}

/// The per-tile epilogue a [`contract_epilogue_tiled`] call applies to
/// each GEMM row block, with the full-size output slices it streams into.
/// Mirrors the fused-kernel classes whose sole input is a contraction
/// output: `SM` ([`sm_into`]), `BRD` ([`brd_act_into`]), and `BDR`
/// ([`bdr_into`]).
#[derive(Debug)]
pub enum TileEpilogue<'a> {
    /// Scaled (optionally causal) softmax + dropout over each GEMM output
    /// row (the row *is* the softmax lane: the epilogue plan puts the
    /// normalized axis in N). Requires whole-batch-slice tiles
    /// (`tile_rows == m`) so the causal query index is the local row.
    Softmax {
        /// The `1/√P` attention scaling.
        scaler: f32,
        /// Causal mask over the local row index, when masked.
        causal: Option<CausalMap>,
        /// Saved pre-dropout softmax (full container).
        softmax: &'a mut [f32],
        /// Dropped-out attention weights (full container).
        alpha: &'a mut [f32],
        /// Saved dropout mask (full container).
        mask: &'a mut [f32],
    },
    /// Bias + activation + dropout, bias indexed by the GEMM row
    /// (the epilogue plan proves the bias axes are exactly M).
    BiasActDrop {
        /// Bias vector, one entry per GEMM row (M words).
        bias: &'a [f32],
        /// Tile-local bias map, `[(n, m, 1)]` with `m` at least the
        /// tallest tile — built once by the caller so the hot loop never
        /// allocates. The tile driver asserts this exact shape.
        bmap: &'a BiasMap,
        /// The activation between bias and dropout.
        kind: ActivationKind,
        /// Saved pre-activation (full container).
        pre_activation: &'a mut [f32],
        /// Kernel output (full container).
        out: &'a mut [f32],
        /// Saved dropout mask (full container).
        mask: &'a mut [f32],
    },
    /// Bias + dropout + residual add, bias indexed by the GEMM row.
    BiasDropResidual {
        /// Bias vector, one entry per GEMM row (M words).
        bias: &'a [f32],
        /// Tile-local bias map, as in [`TileEpilogue::BiasActDrop`].
        bmap: &'a BiasMap,
        /// Residual input (full container).
        residual: &'a [f32],
        /// Saved dropout mask (full container).
        mask: &'a mut [f32],
        /// Kernel output (full container).
        out: &'a mut [f32],
    },
}

impl TileEpilogue<'_> {
    /// Whether this epilogue requires whole-batch-slice tiles
    /// (`tile_rows == m`): the causal softmax recovers the query index
    /// from the tile-local row, which is only the query when the tile
    /// starts a batch slice.
    pub fn needs_full_slice(&self) -> bool {
        matches!(self, TileEpilogue::Softmax { .. })
    }
}

/// Applies the epilogue to one GEMM row block. `row0` is the global row
/// index (over `batch · m`), `rows` the block height, `n` the row width;
/// `tile` holds the block's contraction output. Every full-container
/// slice is cut to the block's exact extent here, so the kernels below see
/// unit-stride lanes of exactly `n` words.
fn epilogue_tile<R: Rng + ?Sized>(
    epi: &mut TileEpilogue<'_>,
    row0: usize,
    rows: usize,
    n: usize,
    tile: &[f32],
    drop: &mut Dropout<'_, R>,
) {
    let span = row0 * n..row0 * n + rows * n;
    match epi {
        TileEpilogue::Softmax {
            scaler,
            causal,
            softmax,
            alpha,
            mask,
        } => {
            let lane = LaneGeom {
                pre: rows,
                len: n,
                post: 1,
            };
            let (sm, al, mk) = (
                &mut softmax[span.clone()],
                &mut alpha[span.clone()],
                &mut mask[span],
            );
            sm_into(tile, *scaler, lane, *causal, drop, sm, al, mk);
        }
        TileEpilogue::BiasActDrop {
            bias,
            bmap,
            kind,
            pre_activation,
            out,
            mask,
        } => {
            check_tile_bmap(bmap, n, rows);
            let bias = &bias[row0..row0 + rows];
            let (pre, o, mk) = (
                &mut pre_activation[span.clone()],
                &mut out[span.clone()],
                &mut mask[span],
            );
            brd_act_into(tile, bias, bmap, *kind, drop, pre, o, mk);
        }
        TileEpilogue::BiasDropResidual {
            bias,
            bmap,
            residual,
            mask,
            out,
        } => {
            check_tile_bmap(bmap, n, rows);
            let bias = &bias[row0..row0 + rows];
            let res = &residual[span.clone()];
            let (mk, o) = (&mut mask[span.clone()], &mut out[span]);
            bdr_into(tile, bias, bmap, res, drop, mk, o);
        }
    }
}

/// Asserts the caller-built epilogue bias map has the `[(n, m, 1)]` shape
/// with `m >= rows`, which makes the modulo a no-op on tile-local offsets:
/// `offset(f) = (f/n) % m = f/n < rows` for all `f < rows·n` — a shorter
/// map would wrap onto the wrong bias rows without tripping a bounds
/// check.
fn check_tile_bmap(bmap: &BiasMap, n: usize, rows: usize) {
    assert!(
        bmap.dims.len() == 1
            && bmap.dims[0].0 == n
            && bmap.dims[0].1 >= rows
            && bmap.dims[0].2 == 1,
        "epilogue bias map must be [(n, >=tile rows, 1)], got {:?}",
        bmap.dims
    );
}

/// The GEMM-epilogue mega-kernel: per batch slice, packs B's panels once,
/// then streams the GEMM over row blocks of at most `tile_rows` rows —
/// each block's A rows read through the plan's view, its output started
/// from zero in the scratch tile — applying `epi` to each block while it
/// is hot. The contraction output exists only as that `tile_rows · n` tile
/// and is never materialized. Tiles are visited in container order (batch
/// ascending, rows ascending), so the dropout RNG draw order — and hence
/// every saved mask and output — is bitwise identical to running the
/// unfused contraction followed by the whole-container fused kernel.
/// Operands `a` and `b` are in the einsum's order.
///
/// # Panics
///
/// Panics if `scratch` is shorter than
/// [`ContractPlan::epilogue_scratch_words`], an epilogue slice is smaller
/// than the output container, or a [`TileEpilogue::needs_full_slice`]
/// epilogue is driven with `tile_rows < m`.
pub fn contract_epilogue_tiled<R: Rng + ?Sized>(
    plan: &ContractPlan,
    tile_rows: usize,
    a: &[f32],
    b: &[f32],
    scratch: &mut [f32],
    drop: &mut Dropout<'_, R>,
    epi: &mut TileEpilogue<'_>,
) {
    let (m, n, k) = (plan.m, plan.n, plan.k);
    let tile_rows = tile_rows.clamp(1, m.max(1));
    assert!(
        !epi.needs_full_slice() || tile_rows == m,
        "softmax epilogues need whole-batch-slice tiles (tile_rows == m)"
    );
    let [aw, bw, _] = plan.pack_words();
    let (a_pack, rest) = scratch.split_at_mut(aw);
    let (b_pack, rest) = rest.split_at_mut(bw);
    let (panels, c_tile) = rest.split_at_mut(panel_words(n, k));
    let (x_a, x_b) = if plan.swapped { (b, a) } else { (a, b) };
    let ga = stage(&plan.a, x_a, a_pack, m, k);
    let gb = stage(&plan.b, x_b, b_pack, k, n);
    // a one-column B is no panel: `gemm` turns the problem on its side
    let packed = n > 1;
    for g in 0..plan.batch {
        if packed {
            pack_panels(n, k, gb.slice(g), panels);
        }
        let mut r0 = 0;
        while r0 < m {
            let rows = tile_rows.min(m - r0);
            let a_rows = ga.slice(g).from_row(r0);
            let c = MatMut::row_major(&mut c_tile[..rows * n], n);
            if packed {
                gemm_packed(rows, n, k, a_rows, panels, c, Start::FromZero);
            } else {
                gemm(rows, n, k, a_rows, gb.slice(g), c, Start::FromZero);
            }
            epilogue_tile(epi, g * m + r0, rows, n, &c_tile[..rows * n], drop);
            r0 += rows;
        }
    }
}

/// Copies a tensor's logical contents into a dense row-major destination.
/// Row-major sources are a single `memcpy`; other layouts are walked in
/// logical order.
///
/// # Panics
///
/// Panics if `dst` is shorter than the tensor or the tensor's rank
/// exceeds 16.
pub fn copy_tensor_into(t: &Tensor, dst: &mut [f32]) {
    let n = t.len();
    let dst = &mut dst[..n];
    // physically row-major covers permutations that only move singleton
    // axes — `is_row_major` alone would reject them and fall into the
    // rank-limited walk
    if t.layout().is_row_major_for(t.shape()) {
        dst.copy_from_slice(t.data());
        return;
    }
    let rank = t.shape().rank();
    assert!(rank <= 16, "copy_tensor_into supports rank <= 16");
    let mut idx = [0usize; 16];
    let idx = &mut idx[..rank];
    for d in dst.iter_mut() {
        *d = t.data()[t.offset(idx)];
        t.advance(idx);
    }
}

/// `out = alpha · x`.
pub fn scale_into(x: &[f32], alpha: f32, out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = alpha * v;
    }
}

/// `out = a + b` (the residual connection).
pub fn add_into(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// `out = activation(x)`.
pub fn activate_into(x: &[f32], kind: ActivationKind, out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = kind.apply(v);
    }
}

/// `out = x + bias` with the bias broadcast through `map`.
pub fn bias_add_into(x: &[f32], bias: &[f32], map: &BiasMap, out: &mut [f32]) {
    for (f, (o, &v)) in out.iter_mut().zip(x).enumerate() {
        *o = v + bias[map.offset(f)];
    }
}

/// Unfused dropout: one [`Dropout::mask_select`] per element in flat
/// order — a draw even at `p == 0`, unlike the fused kernels — survivors
/// scaled by `1/(1-p)`.
pub fn dropout_into<R: Rng + ?Sized>(
    x: &[f32],
    drop: &mut Dropout<'_, R>,
    out: &mut [f32],
    mask: &mut [f32],
) {
    for ((o, m), &v) in out.iter_mut().zip(mask.iter_mut()).zip(x) {
        let mv = drop.mask_select();
        *m = mv;
        *o = v * mv;
    }
}

/// Identity dropout (`p == 0`): copies the input and fills the mask with
/// ones, drawing nothing.
pub fn dropout_disabled_into(x: &[f32], out: &mut [f32], mask: &mut [f32]) {
    out[..x.len()].copy_from_slice(x);
    for m in mask[..x.len()].iter_mut() {
        *m = 1.0;
    }
}

/// `out = softmax(scaler · x)` along the lane axis — the unfused
/// scale-then-softmax pair in one sweep, numerically identical to scaling
/// into a temporary first (a single f32 multiply either way). `causal`
/// masks key positions beyond the lane's query index to exact zeros (the
/// unfused masked softmax).
pub fn softmax_into(
    x: &[f32],
    scaler: f32,
    lane: LaneGeom,
    causal: Option<CausalMap>,
    out: &mut [f32],
) {
    for (pre, at) in lane.lanes_at() {
        lanes::softmax_at(x, at, scaler, visible_of(causal, pre, lane.len), out);
    }
}

/// Fused SM: `alpha = dropout(softmax(scaler · x))` along the lane axis,
/// with the pre-dropout softmax and the mask saved. `causal` masks key
/// positions beyond the lane's query index (the decoder variant); masked
/// positions get zero softmax/alpha/mask entries, exactly like the
/// allocating kernel.
#[allow(clippy::too_many_arguments)]
pub fn sm_into<R: Rng + ?Sized>(
    x: &[f32],
    scaler: f32,
    lane: LaneGeom,
    causal: Option<CausalMap>,
    drop: &mut Dropout<'_, R>,
    softmax: &mut [f32],
    alpha: &mut [f32],
    mask: &mut [f32],
) {
    for (pre, at) in lane.lanes_at() {
        let visible = visible_of(causal, pre, lane.len);
        lanes::sm_at(x, at, scaler, visible, drop, softmax, alpha, mask);
    }
}

/// Number of key positions the lane with pre-part `pre` attends over.
fn visible_of(causal: Option<CausalMap>, pre: usize, len: usize) -> usize {
    causal.map_or(len, |c| (c.query(pre) + 1).min(len))
}

/// Layer normalization along the lane axis with learned `gamma`/`beta`
/// (dense 1-D, indexed by the lane position). Per-lane `mean`/`inv_std`
/// are written in lane order, matching the allocating kernel's stats
/// vectors.
pub fn layernorm_into(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    lane: LaneGeom,
    out: &mut [f32],
    mean_out: &mut [f32],
    inv_std_out: &mut [f32],
) {
    for (l, (_, at)) in lane.lanes_at().enumerate() {
        (mean_out[l], inv_std_out[l]) = lanes::layernorm_at(x, at, gamma, beta, out);
    }
}

/// Fused BDRLN: `out = layernorm(dropout(x + bias) + residual)` along the
/// lane axis, saving the mask, the layer-norm input, and per-lane stats.
#[allow(clippy::too_many_arguments)]
pub fn bdrln_into<R: Rng + ?Sized>(
    x: &[f32],
    bias: &[f32],
    bmap: &BiasMap,
    residual: &[f32],
    gamma: &[f32],
    beta: &[f32],
    lane: LaneGeom,
    drop: &mut Dropout<'_, R>,
    mask: &mut [f32],
    ln_input: &mut [f32],
    out: &mut [f32],
    mean_out: &mut [f32],
    inv_std_out: &mut [f32],
) {
    for (l, (_, at)) in lane.lanes_at().enumerate() {
        let bias_at = |v: usize| bias[bmap.offset(at.base + v * at.stride)];
        (mean_out[l], inv_std_out[l]) = lanes::bdrln_at(
            x, at, bias_at, residual, at, gamma, beta, drop, mask, ln_input, out,
        );
    }
}

/// Fused BRD: `out = dropout(activation(x + bias))`, saving the
/// pre-activation and the mask.
#[allow(clippy::too_many_arguments)]
pub fn brd_act_into<R: Rng + ?Sized>(
    x: &[f32],
    bias: &[f32],
    bmap: &BiasMap,
    kind: ActivationKind,
    drop: &mut Dropout<'_, R>,
    pre_activation: &mut [f32],
    out: &mut [f32],
    mask: &mut [f32],
) {
    // cut to the input's extent once, so the loop indexes check-free
    let n = x.len();
    let (z, m, o) = (&mut pre_activation[..n], &mut mask[..n], &mut out[..n]);
    for (f, &v) in x.iter().enumerate() {
        (z[f], m[f], o[f]) = lanes::brd(v, bias[bmap.offset(f)], kind, drop);
    }
}

/// Fused BDR (no norm): `out = dropout(x + bias) + residual`, saving the
/// mask.
pub fn bdr_into<R: Rng + ?Sized>(
    x: &[f32],
    bias: &[f32],
    bmap: &BiasMap,
    residual: &[f32],
    drop: &mut Dropout<'_, R>,
    mask: &mut [f32],
    out: &mut [f32],
) {
    let n = x.len();
    let (r, m, o) = (&residual[..n], &mut mask[..n], &mut out[..n]);
    for (f, &v) in x.iter().enumerate() {
        (m[f], o[f]) = lanes::bdr(v, bias[bmap.offset(f)], r[f], drop);
    }
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

    fn lane_of(t: &Tensor, axis: char) -> LaneGeom {
        LaneGeom::new(t.shape().sizes(), t.shape().index_of(Axis(axis)).unwrap())
    }

    fn bmap_of(out: &Tensor, bias: &Tensor) -> BiasMap {
        let sizes = out.shape().sizes();
        let rm = Layout::row_major(sizes.len()).strides(out.shape());
        let brm = Layout::row_major(bias.shape().rank()).strides(bias.shape());
        let dims = bias
            .shape()
            .axes()
            .iter()
            .enumerate()
            .map(|(bi, &ax)| {
                let p = out.shape().index_of(ax).unwrap();
                (rm[p], sizes[p], brm[bi])
            })
            .collect();
        BiasMap { dims }
    }

    #[test]
    fn softmax_into_is_bitwise_equal() {
        let x = rand_t("bjk", &SIZES, 1);
        let expect = softmax(&scale(&x, 0.25), Axis('k')).unwrap();
        let mut out = vec![0.0f32; x.len()];
        softmax_into(x.data(), 0.25, lane_of(&x, 'k'), None, &mut out);
        assert_eq!(out.as_slice(), expect.data());
    }

    /// The slice drivers against the tensor drivers, plain and causal, with
    /// and without dropout: same lanes in the same order, so the same
    /// values, masks and RNG end state.
    #[test]
    fn sm_and_softmax_into_match_fused_sm() {
        let sizes = [('b', 2), ('j', 4), ('k', 4)];
        let x = rand_t("bjk", &sizes, 3);
        // query axis j sits immediately before k: div = 1, len = 4
        let causal = CausalMap {
            div: 1,
            len: 4,
            base: 0,
        };
        for (causal, p) in [
            (None, 0.0f32),
            (None, 0.3),
            (Some(causal), 0.0),
            (Some(causal), 0.3),
        ] {
            let (mut rng, mut rng2) = (StdRng::seed_from_u64(10), StdRng::seed_from_u64(10));
            let want = match causal {
                None => fused::sm(&x, 0.7, Axis('k'), p, &mut rng),
                Some(_) => fused::sm_causal(&x, 0.7, Axis('j'), Axis('k'), p, &mut rng),
            }
            .unwrap();
            let n = x.len();
            let (mut s, mut a, mut m) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            let mut drop = Dropout::new(p, &mut rng2).unwrap();
            let lane = lane_of(&x, 'k');
            sm_into(
                x.data(),
                0.7,
                lane,
                causal,
                &mut drop,
                &mut s,
                &mut a,
                &mut m,
            );
            assert_eq!(s.as_slice(), want.softmax.data());
            assert_eq!(a.as_slice(), want.alpha.data());
            assert_eq!(m.as_slice(), want.mask.data());
            assert_same_rng_state(&mut rng, &mut rng2, "sm");
            // the unfused softmax is the same lanes without the dropout tail
            softmax_into(x.data(), 0.7, lane, causal, &mut a);
            assert_eq!(a.as_slice(), want.softmax.data());
        }
    }

    #[test]
    fn layernorm_into_matches_with_stats() {
        let x = rand_t("bji", &SIZES, 5);
        let gamma = rand_t("i", &SIZES, 6);
        let beta = rand_t("i", &SIZES, 7);
        let (want, stats) = layernorm(&x, Axis('i'), &gamma, &beta).unwrap();
        let lane = lane_of(&x, 'i');
        let mut out = vec![0.0f32; x.len()];
        let mut mean = vec![0.0f32; lane.lanes()];
        let mut inv = vec![0.0f32; lane.lanes()];
        layernorm_into(
            x.data(),
            gamma.data(),
            beta.data(),
            lane,
            &mut out,
            &mut mean,
            &mut inv,
        );
        assert_eq!(out.as_slice(), want.data());
        assert_eq!(mean.as_slice(), stats.mean.as_slice());
        assert_eq!(inv.as_slice(), stats.inv_std.as_slice());
    }

    #[test]
    fn bdrln_into_matches_fused() {
        let x = rand_t("bji", &SIZES, 8);
        let bias = rand_t("i", &SIZES, 9);
        let res = rand_t("bji", &SIZES, 10);
        let gamma = rand_t("i", &SIZES, 11);
        let beta = rand_t("i", &SIZES, 12);
        let mut rng = StdRng::seed_from_u64(13);
        let want = fused::bdrln(&x, &bias, &res, &gamma, &beta, Axis('i'), 0.4, &mut rng).unwrap();
        let lane = lane_of(&x, 'i');
        let n = x.len();
        let (mut m, mut li, mut out) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let mut mean = vec![0.0f32; lane.lanes()];
        let mut inv = vec![0.0f32; lane.lanes()];
        let mut rng2 = StdRng::seed_from_u64(13);
        bdrln_into(
            x.data(),
            bias.data(),
            &bmap_of(&x, &bias),
            res.data(),
            gamma.data(),
            beta.data(),
            lane,
            &mut Dropout::new(0.4, &mut rng2).unwrap(),
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

    #[test]
    fn brd_act_into_matches_fused() {
        let x = rand_t("bju", &SIZES, 14);
        let bias = rand_t("u", &SIZES, 15);
        let mut rng = StdRng::seed_from_u64(16);
        let want = fused::brd_act(&x, &bias, ActivationKind::Gelu, 0.2, &mut rng).unwrap();
        let n = x.len();
        let (mut pre, mut out, mut m) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let mut rng2 = StdRng::seed_from_u64(16);
        brd_act_into(
            x.data(),
            bias.data(),
            &bmap_of(&x, &bias),
            ActivationKind::Gelu,
            &mut Dropout::new(0.2, &mut rng2).unwrap(),
            &mut pre,
            &mut out,
            &mut m,
        );
        assert_eq!(pre.as_slice(), want.pre_activation.data());
        assert_eq!(out.as_slice(), want.out.data());
        assert_eq!(m.as_slice(), want.mask.data());
    }

    #[test]
    fn bias_add_into_matches_broadcast() {
        let x = rand_t("bjk", &SIZES, 17);
        let bias = rand_t("k", &SIZES, 18);
        let want = bias_add(&x, &bias).unwrap();
        let mut out = vec![0.0f32; x.len()];
        bias_add_into(x.data(), bias.data(), &bmap_of(&x, &bias), &mut out);
        assert_eq!(out.as_slice(), want.data());
        // multi-axis bias
        let bias2 = rand_t("jk", &SIZES, 19);
        let want2 = bias_add(&x, &bias2).unwrap();
        bias_add_into(x.data(), bias2.data(), &bmap_of(&x, &bias2), &mut out);
        assert_eq!(out.as_slice(), want2.data());
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

    #[test]
    fn epilogue_plan_is_the_compiled_plan_when_c_is_the_identity() {
        let sizes = [('p', 3), ('h', 2), ('b', 2), ('j', 4), ('k', 5)];
        let kk = rand_t("phbk", &sizes, 30);
        let qq = rand_t("phbj", &sizes, 31);
        let out = Shape::from_spec("hbjk", &sizes).unwrap();
        let spec: EinsumSpec = "phbk,phbj->hbjk".parse().unwrap();
        let ep = epilogue_contract_plan(
            &spec,
            kk.shape(),
            kk.strides(),
            qq.shape(),
            qq.strides(),
            &out,
        )
        .expect("QKT must compile via the swapped order");
        assert_eq!(ep, compile_for(&spec, &kk, &qq, &out));
        // a genuinely scattered output order compiles under neither order
        let bad = Shape::from_spec("kjbh", &sizes).unwrap();
        assert!(epilogue_contract_plan(
            &spec,
            kk.shape(),
            kk.strides(),
            qq.shape(),
            qq.strides(),
            &bad,
        )
        .is_none());
    }

    /// The tiled mega-kernel against the unfused contract-then-fused-
    /// kernel sequence, bitwise, including the dropout RNG stream.
    #[test]
    fn contract_epilogue_tiled_matches_unfused_bitwise() {
        let sizes = [('p', 3), ('h', 2), ('b', 2), ('j', 4), ('k', 5)];
        let kk = rand_t("phbk", &sizes, 32);
        let qq = rand_t("phbj", &sizes, 33);
        let spec: EinsumSpec = "phbk,phbj->hbjk".parse().unwrap();
        let out_shape = Shape::from_spec("hbjk", &sizes).unwrap();
        let ep = epilogue_contract_plan(
            &spec,
            kk.shape(),
            kk.strides(),
            qq.shape(),
            qq.strides(),
            &out_shape,
        )
        .unwrap();
        let total = out_shape.num_elements();
        let (p, scaler) = (0.3f32, 0.5f32);
        let causal = Some(CausalMap {
            div: 1,
            len: 4,
            base: 0,
        });

        // unfused: full contraction, then the SM kernel over the container
        let beta = crate::contract::contract(&spec, &kk, &qq, &Layout::row_major(4)).unwrap();
        let lane = LaneGeom {
            pre: total / 5,
            len: 5,
            post: 1,
        };
        let mut rng_a = StdRng::seed_from_u64(9);
        let (mut sm_a, mut al_a, mut mk_a) = (vec![0.0; total], vec![0.0; total], vec![0.0; total]);
        sm_into(
            beta.data(),
            scaler,
            lane,
            causal,
            &mut Dropout::new(p, &mut rng_a).unwrap(),
            &mut sm_a,
            &mut al_a,
            &mut mk_a,
        );

        let mut rng_b = StdRng::seed_from_u64(9);
        let (mut sm_b, mut al_b, mut mk_b) = (vec![0.0; total], vec![0.0; total], vec![0.0; total]);
        let mut scratch = vec![f32::NAN; ep.epilogue_scratch_words(ep.m)];
        let mut epi = TileEpilogue::Softmax {
            scaler,
            causal,
            softmax: &mut sm_b,
            alpha: &mut al_b,
            mask: &mut mk_b,
        };
        // operands in the einsum's order: the plan knows the query is A
        contract_epilogue_tiled(
            &ep,
            ep.m,
            kk.data(),
            qq.data(),
            &mut scratch,
            &mut Dropout::new(p, &mut rng_b).unwrap(),
            &mut epi,
        );
        assert_bits("softmax", &sm_a, &sm_b);
        assert_bits("alpha", &al_a, &al_b);
        assert_bits("mask", &mk_a, &mk_b);
        assert_same_rng_state(&mut rng_a, &mut rng_b, "sm");
    }

    /// Row-tiled bias epilogues (BRD / BDR shape: batch-free, bias on M)
    /// against the unfused sequence, bitwise, at several tile heights.
    #[test]
    fn row_tiled_bias_epilogues_match_unfused_bitwise() {
        let sizes = [('u', 6), ('i', 4), ('b', 2), ('j', 5)];
        let w = rand_t("ui", &sizes, 40);
        let x = rand_t("ibj", &sizes, 41);
        let bias = rand_t("u", &sizes, 42);
        let spec: EinsumSpec = "ui,ibj->ubj".parse().unwrap();
        let out_shape = Shape::from_spec("ubj", &sizes).unwrap();
        let ep = epilogue_contract_plan(
            &spec,
            w.shape(),
            w.strides(),
            x.shape(),
            x.strides(),
            &out_shape,
        )
        .unwrap();
        assert!(!ep.swapped);
        assert_eq!((ep.batch, ep.m), (1, 6));
        let total = out_shape.num_elements();
        let n = ep.n;
        let p = 0.25f32;
        let residual = rand_t("ubj", &sizes, 43);

        // unfused reference: full contraction, then the fused kernel
        let mm = crate::contract::contract(&spec, &w, &x, &Layout::row_major(3)).unwrap();
        let bmap = BiasMap {
            dims: vec![(n, 6, 1)],
        };
        let mut rng_a = StdRng::seed_from_u64(11);
        let (mut pre_a, mut out_a, mut mk_a) =
            (vec![0.0; total], vec![0.0; total], vec![0.0; total]);
        brd_act_into(
            mm.data(),
            bias.data(),
            &bmap,
            ActivationKind::Gelu,
            &mut Dropout::new(p, &mut rng_a).unwrap(),
            &mut pre_a,
            &mut out_a,
            &mut mk_a,
        );
        let mut rng_ar = StdRng::seed_from_u64(13);
        let (mut mkr_a, mut outr_a) = (vec![0.0; total], vec![0.0; total]);
        bdr_into(
            mm.data(),
            bias.data(),
            &bmap,
            residual.data(),
            &mut Dropout::new(p, &mut rng_ar).unwrap(),
            &mut mkr_a,
            &mut outr_a,
        );

        for tile_rows in [1usize, 2, 4, 6] {
            let mut scratch = vec![f32::NAN; ep.epilogue_scratch_words(tile_rows)];
            let mut rng_b = StdRng::seed_from_u64(11);
            let (mut pre_b, mut out_b, mut mk_b) =
                (vec![0.0; total], vec![0.0; total], vec![0.0; total]);
            let mut epi = TileEpilogue::BiasActDrop {
                bias: bias.data(),
                bmap: &bmap,
                kind: ActivationKind::Gelu,
                pre_activation: &mut pre_b,
                out: &mut out_b,
                mask: &mut mk_b,
            };
            contract_epilogue_tiled(
                &ep,
                tile_rows,
                w.data(),
                x.data(),
                &mut scratch,
                &mut Dropout::new(p, &mut rng_b).unwrap(),
                &mut epi,
            );
            assert_bits("pre_activation", &pre_a, &pre_b);
            assert_bits("brd out", &out_a, &out_b);
            assert_bits("brd mask", &mk_a, &mk_b);
            assert_same_rng_state(&mut rng_a.clone(), &mut rng_b, "brd");

            let mut rng_br = StdRng::seed_from_u64(13);
            let (mut mkr_b, mut outr_b) = (vec![0.0; total], vec![0.0; total]);
            let mut epi = TileEpilogue::BiasDropResidual {
                bias: bias.data(),
                bmap: &bmap,
                residual: residual.data(),
                mask: &mut mkr_b,
                out: &mut outr_b,
            };
            contract_epilogue_tiled(
                &ep,
                tile_rows,
                w.data(),
                x.data(),
                &mut scratch,
                &mut Dropout::new(p, &mut rng_br).unwrap(),
                &mut epi,
            );
            assert_bits("bdr mask", &mkr_a, &mkr_b);
            assert_bits("bdr out", &outr_a, &outr_b);
            assert_same_rng_state(&mut rng_ar.clone(), &mut rng_br, "bdr");
        }
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
}
