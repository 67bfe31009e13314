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
//! * [`ContractPlan`] — precompiled gather/GEMM/scatter descriptor for a
//!   two-operand einsum.

use rand::Rng;

use crate::axes::{Axis, Shape};
use crate::contract::copy_strided;
use crate::einsum::EinsumSpec;
use crate::lanes::{self, Dropout, LaneAt};
use crate::matmul::sgemm;
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

/// Precompiled two-operand einsum: strided gather descriptors for both
/// operands, collapsed GEMM sizes, and the scatter descriptor for the
/// output. Dims are `(len, src_stride, dst_stride)` triples outermost
/// first, as consumed by the recursive strided copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractPlan {
    /// Gather dims for operand A: `(len, a_stride, pack_stride)`.
    pub a_dims: Vec<(usize, usize, usize)>,
    /// Gather dims for operand B: `(len, b_stride, pack_stride)`.
    pub b_dims: Vec<(usize, usize, usize)>,
    /// Scatter dims for the output: `(len, pack_stride, out_stride)`.
    pub c_dims: Vec<(usize, usize, usize)>,
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
    /// Pack-buffer words needed for operand A.
    pub fn a_words(&self) -> usize {
        self.batch * self.m * self.k
    }

    /// Pack-buffer words needed for operand B.
    pub fn b_words(&self) -> usize {
        self.batch * self.k * self.n
    }

    /// Pack-buffer words needed for the output.
    pub fn c_words(&self) -> usize {
        self.batch * self.m * self.n
    }
}

/// Executes a precompiled contraction: gathers `a`/`b` into the pack
/// scratch, runs one serial GEMM per batch slice, and scatters the result
/// into `out`. The batch loop is intentionally serial — arena steps are
/// already parallelized across waves, and per-slice GEMMs are bitwise
/// identical to the threaded `batched_sgemm` either way.
///
/// # Panics
///
/// Panics if a scratch slice is smaller than the plan requires.
pub fn contract_into(
    plan: &ContractPlan,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    a_pack: &mut [f32],
    b_pack: &mut [f32],
    c_pack: &mut [f32],
) {
    let (aw, bw, cw) = (plan.a_words(), plan.b_words(), plan.c_words());
    let a_pack = &mut a_pack[..aw];
    let b_pack = &mut b_pack[..bw];
    let c_pack = &mut c_pack[..cw];
    copy_strided(&plan.a_dims, a, 0, a_pack, 0);
    copy_strided(&plan.b_dims, b, 0, b_pack, 0);
    for v in c_pack.iter_mut() {
        *v = 0.0;
    }
    let (m, n, k) = (plan.m, plan.n, plan.k);
    for g in 0..plan.batch {
        sgemm(
            m,
            n,
            k,
            &a_pack[g * m * k..(g + 1) * m * k],
            &b_pack[g * k * n..(g + 1) * k * n],
            &mut c_pack[g * m * n..(g + 1) * m * n],
        );
    }
    copy_strided(&plan.c_dims, c_pack, 0, out, 0);
}

/// A [`ContractPlan`] proven to write its output in container order — the
/// scatter is the identity, so a GEMM row block can be handed straight to
/// an epilogue callback and written at its flat container offset without
/// ever materializing the full contraction output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpiloguePlan {
    /// The gather/GEMM descriptor. `c_dims` is the (identity) scatter,
    /// kept for diagnostics; the tiled driver never runs it.
    pub plan: ContractPlan,
    /// Whether the GEMM roles were swapped relative to the einsum's
    /// operand order: when `true`, the einsum's *second* operand supplies
    /// the GEMM's A pack (M rows) and the first supplies B.
    pub swapped: bool,
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

/// Compiles one operand order into a [`ContractPlan`], returning it only
/// when the output scatter is the identity over `out_shape`'s row-major
/// container order.
fn identity_scatter_plan(
    spec: &EinsumSpec,
    a_shape: &Shape,
    a_strides: &[usize],
    b_shape: &Shape,
    b_strides: &[usize],
    out_shape: &Shape,
) -> Option<ContractPlan> {
    let class = spec.classify().ok()?;
    let gs = spec.gemm_sizes(a_shape, b_shape).ok()?;
    let size_of = |ax: Axis| -> usize {
        a_shape
            .size(ax)
            .or_else(|_| b_shape.size(ax))
            .expect("classified axis has a size")
    };
    let gather =
        |groups: &[Axis], shape: &Shape, strides: &[usize]| -> Vec<(usize, usize, usize)> {
            let total: usize = groups.iter().map(|&ax| size_of(ax)).product();
            let mut dims = Vec::new();
            let mut ps = total;
            for &ax in groups {
                let len = size_of(ax);
                ps /= len;
                dims.push((len, strides[shape.index_of(ax).expect("operand axis")], ps));
            }
            dims
        };
    let a_groups: Vec<Axis> = class
        .batch
        .iter()
        .chain(&class.m)
        .chain(&class.k)
        .copied()
        .collect();
    let b_groups: Vec<Axis> = class
        .batch
        .iter()
        .chain(&class.k)
        .chain(&class.n)
        .copied()
        .collect();
    let c_groups: Vec<Axis> = class
        .batch
        .iter()
        .chain(&class.m)
        .chain(&class.n)
        .copied()
        .collect();
    if c_groups.len() != out_shape.rank() {
        return None;
    }
    let out_strides = row_major_strides(out_shape);
    let c_total: usize = c_groups.iter().map(|&ax| size_of(ax)).product();
    if c_total != out_shape.num_elements() {
        return None;
    }
    let mut c_dims = Vec::new();
    let mut ps = c_total;
    for &ax in &c_groups {
        let len = size_of(ax);
        ps /= len;
        let os = out_strides[out_shape.index_of(ax).ok()?];
        if len > 1 && os != ps {
            return None; // a real scatter — this order cannot stream tiles
        }
        c_dims.push((len, ps, os));
    }
    Some(ContractPlan {
        a_dims: gather(&a_groups, a_shape, a_strides),
        b_dims: gather(&b_groups, b_shape, b_strides),
        c_dims,
        batch: gs.batch,
        m: gs.m,
        n: gs.n,
        k: gs.k,
    })
}

/// Compiles a contraction for the tiled epilogue driver
/// ([`contract_epilogue_tiled`]): the gather descriptors and collapsed
/// GEMM sizes of [`contract_into`]'s plan, with the output scatter
/// required to be the *identity* so GEMM row blocks stream straight into
/// the epilogue. The operand order as written is tried first, then the
/// swapped order (GEMM roles M and N exchange operands — IEEE multiply
/// commutes and the per-element reduction order over K is unchanged, so
/// the result is bitwise identical): the attention `QKT` einsum
/// `phbk,phbj->hbjk` scatters under its natural order but is identity
/// once the query operand supplies M. Returns `None` when neither order
/// writes in container order.
pub fn epilogue_contract_plan(
    spec: &EinsumSpec,
    a_shape: &Shape,
    a_strides: &[usize],
    b_shape: &Shape,
    b_strides: &[usize],
    out_shape: &Shape,
) -> Option<EpiloguePlan> {
    if let Some(plan) =
        identity_scatter_plan(spec, a_shape, a_strides, b_shape, b_strides, out_shape)
    {
        return Some(EpiloguePlan {
            plan,
            swapped: false,
        });
    }
    let ops = spec.operands();
    if ops.len() != 2 {
        return None;
    }
    let label = |axes: &[Axis]| axes.iter().map(|a| a.0).collect::<String>();
    let swapped: EinsumSpec = format!(
        "{},{}->{}",
        label(&ops[1]),
        label(&ops[0]),
        label(spec.output())
    )
    .parse()
    .ok()?;
    identity_scatter_plan(&swapped, b_shape, b_strides, a_shape, a_strides, out_shape).map(|plan| {
        EpiloguePlan {
            plan,
            swapped: true,
        }
    })
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

/// The GEMM-epilogue mega-kernel: gathers both operand packs like
/// [`contract_into`], then streams the GEMM over row blocks of at most
/// `tile_rows` rows, applying `epi` to each block while it is hot — the
/// contraction output exists only as the `tile_rows · n` scratch tile and
/// is never materialized. Tiles are visited in container order (batch
/// ascending, rows ascending), so the dropout RNG draw order — and hence
/// every saved mask and output — is bitwise identical to running the
/// unfused contraction followed by the whole-container fused kernel.
///
/// # Panics
///
/// Panics if a scratch slice is smaller than the plan requires, an
/// epilogue slice is smaller than the output container, or a
/// [`TileEpilogue::needs_full_slice`] epilogue is driven with
/// `tile_rows < m`.
#[allow(clippy::too_many_arguments)]
pub fn contract_epilogue_tiled<R: Rng + ?Sized>(
    plan: &ContractPlan,
    tile_rows: usize,
    a: &[f32],
    b: &[f32],
    a_pack: &mut [f32],
    b_pack: &mut [f32],
    c_tile: &mut [f32],
    drop: &mut Dropout<'_, R>,
    epi: &mut TileEpilogue<'_>,
) {
    let (m, n, k) = (plan.m, plan.n, plan.k);
    let tile_rows = tile_rows.clamp(1, m.max(1));
    assert!(
        !epi.needs_full_slice() || tile_rows == m,
        "softmax epilogues need whole-batch-slice tiles (tile_rows == m)"
    );
    let (aw, bw) = (plan.a_words(), plan.b_words());
    let a_pack = &mut a_pack[..aw];
    let b_pack = &mut b_pack[..bw];
    copy_strided(&plan.a_dims, a, 0, a_pack, 0);
    copy_strided(&plan.b_dims, b, 0, b_pack, 0);
    for g in 0..plan.batch {
        let mut r0 = 0;
        while r0 < m {
            let rows = tile_rows.min(m - r0);
            let c_tile = &mut c_tile[..rows * n];
            for v in c_tile.iter_mut() {
                *v = 0.0;
            }
            sgemm(
                rows,
                n,
                k,
                &a_pack[(g * m + r0) * k..(g * m + r0 + rows) * k],
                &b_pack[g * k * n..(g + 1) * k * n],
                c_tile,
            );
            epilogue_tile(epi, g * m + r0, rows, n, c_tile, drop);
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

    #[test]
    fn contract_into_matches_contract() {
        let sizes = [('p', 3), ('h', 2), ('b', 2), ('j', 4), ('k', 5)];
        let a = rand_t("phbk", &sizes, 20);
        let b = rand_t("phbj", &sizes, 21);
        let spec: EinsumSpec = "phbk,phbj->hbjk".parse().unwrap();
        let want = crate::contract::contract(&spec, &a, &b, &Layout::row_major(4)).unwrap();
        // compile the plan by hand the way core::arena does
        let class = spec.classify().unwrap();
        let gs = spec.gemm_sizes(a.shape(), b.shape()).unwrap();
        let size_of =
            |ax: Axis| -> usize { a.shape().size(ax).or_else(|_| b.shape().size(ax)).unwrap() };
        let gather_dims = |groups: &[Axis], t: &Tensor| {
            let total: usize = groups.iter().map(|&ax| size_of(ax)).product();
            let mut dims = Vec::new();
            let mut ps = total;
            for &ax in groups {
                let len = size_of(ax);
                ps /= len;
                dims.push((len, t.strides()[t.shape().index_of(ax).unwrap()], ps));
            }
            dims
        };
        let a_groups: Vec<Axis> = class
            .batch
            .iter()
            .chain(&class.m)
            .chain(&class.k)
            .copied()
            .collect();
        let b_groups: Vec<Axis> = class
            .batch
            .iter()
            .chain(&class.k)
            .chain(&class.n)
            .copied()
            .collect();
        let c_groups: Vec<Axis> = class
            .batch
            .iter()
            .chain(&class.m)
            .chain(&class.n)
            .copied()
            .collect();
        let c_total: usize = c_groups.iter().map(|&ax| size_of(ax)).product();
        let mut c_dims = Vec::new();
        let mut ps = c_total;
        for &ax in &c_groups {
            let len = size_of(ax);
            ps /= len;
            let os = want.strides()[want.shape().index_of(ax).unwrap()];
            c_dims.push((len, ps, os));
        }
        let plan = ContractPlan {
            a_dims: gather_dims(&a_groups, &a),
            b_dims: gather_dims(&b_groups, &b),
            c_dims,
            batch: gs.batch,
            m: gs.m,
            n: gs.n,
            k: gs.k,
        };
        let mut out = vec![0.0f32; want.len()];
        let mut ap = vec![0.0f32; plan.a_words()];
        let mut bp = vec![0.0f32; plan.b_words()];
        let mut cp = vec![0.0f32; plan.c_words()];
        contract_into(
            &plan,
            a.data(),
            b.data(),
            &mut out,
            &mut ap,
            &mut bp,
            &mut cp,
        );
        assert_eq!(out.as_slice(), want.data());
    }

    #[test]
    fn epilogue_plan_swaps_the_attention_contraction_into_identity() {
        let sizes = [('p', 3), ('h', 2), ('b', 2), ('j', 4), ('k', 5)];
        let kk = rand_t("phbk", &sizes, 30);
        let qq = rand_t("phbj", &sizes, 31);
        let out = Shape::from_spec("hbjk", &sizes).unwrap();
        let spec: EinsumSpec = "phbk,phbj->hbjk".parse().unwrap();
        // natural order scatters (j and k transpose); the swap is identity
        let ep = epilogue_contract_plan(
            &spec,
            kk.shape(),
            kk.strides(),
            qq.shape(),
            qq.strides(),
            &out,
        )
        .expect("QKT must compile via the swapped order");
        assert!(ep.swapped);
        assert_eq!(ep.plan.m, 4); // j — the query axis becomes M
        assert_eq!(ep.plan.n, 5); // k — the softmax axis becomes N
        assert_eq!(ep.plan.batch, 4); // h·b
        assert_eq!(ep.plan.k, 3);
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
        let mut ap = vec![0.0; ep.plan.a_words()];
        let mut bp = vec![0.0; ep.plan.b_words()];
        let mut ct = vec![0.0; ep.plan.m * ep.plan.n];
        let mut epi = TileEpilogue::Softmax {
            scaler,
            causal,
            softmax: &mut sm_b,
            alpha: &mut al_b,
            mask: &mut mk_b,
        };
        // swapped: the query operand feeds the A pack
        contract_epilogue_tiled(
            &ep.plan,
            ep.plan.m,
            qq.data(),
            kk.data(),
            &mut ap,
            &mut bp,
            &mut ct,
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
        assert_eq!((ep.plan.batch, ep.plan.m), (1, 6));
        let total = out_shape.num_elements();
        let n = ep.plan.n;
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
            let mut ap = vec![0.0; ep.plan.a_words()];
            let mut bp = vec![0.0; ep.plan.b_words()];
            let mut ct = vec![0.0; tile_rows * n];
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
                &ep.plan,
                tile_rows,
                w.data(),
                x.data(),
                &mut ap,
                &mut bp,
                &mut ct,
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
                &ep.plan,
                tile_rows,
                w.data(),
                x.data(),
                &mut ap,
                &mut bp,
                &mut ct,
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
