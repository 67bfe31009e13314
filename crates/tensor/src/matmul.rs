//! The one single-precision GEMM: a register-blocked micro-kernel over a
//! packed A block and packed B panels, behind one entry, [`gemm`].
//!
//! These are the CPU stand-ins for cuBLAS: every einsum of the encoder
//! layer is lowered onto [`gemm`] (by the contraction driver of
//! [`crate::into_ops`], one call per batch slice); [`sgemm`] and
//! [`batched_sgemm`] are its row-major wrappers. As the one cuBLAS call
//! varies only in its operands' strides and leading dimensions, [`gemm`]
//! varies only in its operands' form: A is a strided view or a panel pack
//! ([`Lhs`]), B a strided view or the leading corner of a [`pack_panels`]
//! pack ([`Rhs`]). One private twin, `gemm_on`, takes the tile choice (the
//! tests drive it on both tiles) and makes once each choice the form
//! implies: the matrix–vector turn, the `KC`-block loop over a packed B,
//! and the call into the block loop.
//!
//! ```text
//!   for jb in cols  step NC         B block  KC×NC, packed once per (jb, pc)
//!     for pc in depth step KC                and read by every row block (L2)
//!       for ic in rows step MC      A block  MC×KC, packed into slabs of MR,
//!                                            4, 2, 1 rows interleaved along k
//!         for jc in block step      B panel  KC×NR of the block (L1), or two
//!             NR or 2·NR                     adjacent ones where both are whole
//!           for slab in A block     C tile   R×NR (or R×2NR) accumulators
//!             kernel::<R>           fma(slab[kk][r], panel[kk][j]), kk ascending
//!             (kernel_wide::<R>)
//! ```
//!
//! * **Operands are views.** A [`MatRef`]/[`MatMut`] is a slice plus a row
//!   and a column stride, so a transposed or otherwise strided operand costs
//!   no copy of the whole: both packs read their source where it lies (a
//!   contiguous copy when the packed width is unit-stride in the source, a
//!   4-column transposing pack otherwise — one routine, [`NR`] wide for B
//!   and a slab's height wide over `aᵀ` for A), and C tiles are loaded from
//!   and stored to the destination — or started at `+0.0` under
//!   [`Start::FromZero`], which is what lets callers skip a zero fill.
//! * **The B block** (Goto and van de Geijn's loop order). A strided B that
//!   more than one row block reads is packed a `KC×NC` block at a time and
//!   every row block multiplies against that one pack, so a B is packed
//!   once per call, not once per row block. A B already in panels
//!   ([`Rhs::Packed`], a weight's [`PanelRef`] streamed) is read where it
//!   lies, and a call with one row block packs each panel as it reaches
//!   it: both take all of their columns as one block. A packed B is
//!   multiplied one `KC` block of its pack at a time, each block after the
//!   first started from C — the store and reload the block loop makes
//!   between its own blocks — so the bits are those of one loop over the
//!   corner.
//! * **The A pack.** Each `MC×KC` block of A is packed once per `(jb, pc,
//!   ic)` and multiplied against every panel of the B block: a slab of
//!   `R` rows starting at block row `r` holds them as `kc` groups of `R`
//!   words at `r·kc`. `MR` rows go while they last; the rest are slabs of
//!   4, 2 and 1 (and 8 or 9 left run as 4 + 4 (+ 1), not 6 + 2 (+ 1)) — so
//!   no padded row is ever multiplied or stored; a dense single row, the
//!   whole of A in the matrix–vector path, packs as one copy. The block and
//!   the panels a call packs live in a thread-local, so packing costs the
//!   words packed and nothing else: no heap, no per-call zeroing; a call
//!   reads only the words it wrote. The B block is a thread-local `Vec`,
//!   grown to at most `KC·NC` words by the first call that needs it.
//! * **Tile sizes.** The build is x86-64-v3 (`.cargo/config.toml`): sixteen
//!   `ymm` of eight lanes and two fused multiply-add ports of four cycles'
//!   latency. `MR×NR = 6×16` is twelve accumulators — half again the
//!   latency × ports chains that keep both ports busy, the slack a 4×16
//!   tile lacked — two for the B row and one for the broadcast A word:
//!   fifteen of the sixteen (EXPERIMENTS.md, "The one GEMM in GotoBLAS
//!   order"). A 2-row slab's four chains are latency-bound, as slow as a
//!   4-row slab's eight, hence the 4 + 4 edge.
//!   `KC = 256` makes a panel 16 KiB of L1 next to the 6 KiB slab streaming
//!   past it, an A block 66 KiB and a B block 512 KiB of L2; `MC = 66`
//!   keeps the rows of C a block touches within a few dozen pages, so the
//!   walk down a 16-column panel stays in the TLB.
//! * **The 512-bit tile.** On a host with AVX-512F — detected at run time,
//!   once per call, and carried as a token only the detection makes
//!   (`crate::isa`) — the block loop takes `kernel_wide` wherever two
//!   whole panels remain: the same slab against two adjacent panels, an
//!   `R×2NR` tile whose rows are two `zmm` each, twelve accumulators, two panel loads and six
//!   broadcasts a step at `MR = 6` — twice the work of a `ymm` step in the
//!   same registers (EXPERIMENTS.md, "The one GEMM on 512-bit lanes"). It is
//!   inlined, with the load and store of its C tile, into an instantiation
//!   of the crate's one function compiled for AVX-512F, whatever the build
//!   targets; the last odd or partial panel, and every panel on a host
//!   without the feature, runs `kernel`. The packs, the slab heights
//!   and `MC`/`KC`/`NC` are the same for both; the two panels reach the
//!   kernel as one run, so no operand of it is read off the stack.
//! * **The kernel is a function of its own.** `kernel` takes two packed
//!   slices and the accumulators and zips `chunks_exact` over them: no
//!   index, no bounds check, no panic edge. Inlined into the block loop —
//!   or written over a closure that reads A through its strides — LLVM
//!   spills or scalarizes the tile around the panic edges of its
//!   surroundings (5 Gflop/s, not 50); `tools/kernel_asm.sh` reads the
//!   emitted assembly for exactly that.
//! * **One accumulator, `k` ascending.** Every element of C has exactly one
//!   accumulator, seeded from C (or `+0.0`) and summed over `k` in
//!   ascending order, one `f32::mul_add` per product — the product enters
//!   the sum unrounded, one rounding per step — block after block. That is
//!   the order of the scalar triple loop [`naive_sgemm`], so results are
//!   bitwise independent of the tiling, of the vector width the build and
//!   the host have (either tile, any mix of them), and of which operand
//!   plays A — and of the strides by construction:
//!   the kernel only ever sees packed words. `mul_add` is exact by
//!   definition, so a build without the instruction computes the same bits
//!   through a software `fmaf`, only slower. Padded lanes of an edge panel
//!   multiply zeros and are never stored.
//! * **Matrix–vector shapes** (`n == 1`) run as the transposed problem
//!   `cᵀ = bᵀ·aᵀ` through the same kernels: the rows of A become the
//!   sixteen (or thirty-two) lanes, and the exact product inside `mul_add`
//!   commutes, so the bits do not move. The choice is made from `m` and `n`
//!   alone. Over a strided A
//!   the transposing pack of A into those panels is the extra work — more
//!   than the kernel's; over a projection weight there is none, because the
//!   weight is stored in exactly that panel order.
//! * **Weights are stored as panels.** A projection weight's one storage is
//!   the panel order of the matrix it plays as A ([`WeightPack`],
//!   [`PanelRef`]), and [`gemm`] reads it as [`Lhs::Panels`] in three
//!   roles: streamed as the transposed problem's B panels (`n == 1`),
//!   copied out into A slabs from any row (`n > 1`, a tile's rows, one
//!   block of a stacked Q/K/V), and gathered transposed into A slabs (the
//!   backward). The packs only move words; the kernel sees the words a
//!   strided A would have packed, in the same order.

use std::cell::RefCell;

use crate::isa::Avx512;

/// Rows of the register tile: the height of a whole packed A slab.
pub const MR: usize = 6;
/// Columns of the register tile: the width of a packed B panel.
pub const NR: usize = 16;
/// Columns of the 512-bit tile: two adjacent panels.
const NW: usize = 2 * NR;
/// Depth of a packed B panel.
pub const KC: usize = 256;
/// Rows of a cache block: a whole number of `MR`-row slabs.
pub const MC: usize = 66;
/// Columns of a packed B block, packed once for every row block.
pub const NC: usize = 512;

const _: () = assert!(MC.is_multiple_of(MR) && NC.is_multiple_of(NR));

/// A read-only matrix view: element `(r, c)` is `data[r·rs + c·cs]`.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    /// The words, starting at element `(0, 0)`.
    pub data: &'a [f32],
    /// Row stride in words.
    pub rs: usize,
    /// Column stride in words.
    pub cs: usize,
}

impl<'a> MatRef<'a> {
    /// A view with explicit strides.
    pub fn new(data: &'a [f32], rs: usize, cs: usize) -> Self {
        MatRef { data, rs, cs }
    }

    /// A dense row-major view with `cols` columns.
    pub fn row_major(data: &'a [f32], cols: usize) -> Self {
        MatRef::new(data, cols, 1)
    }

    /// The transposed view.
    pub fn t(self) -> Self {
        MatRef::new(self.data, self.cs, self.rs)
    }

    /// The view starting at row `r`.
    pub fn from_row(self, r: usize) -> Self {
        let at = (r * self.rs).min(self.data.len());
        MatRef::new(&self.data[at..], self.rs, self.cs)
    }
}

/// A mutable matrix view: element `(r, c)` is `data[r·rs + c·cs]`.
#[derive(Debug)]
pub struct MatMut<'a> {
    /// The words, starting at element `(0, 0)`.
    pub data: &'a mut [f32],
    /// Row stride in words.
    pub rs: usize,
    /// Column stride in words.
    pub cs: usize,
}

impl<'a> MatMut<'a> {
    /// A view with explicit strides.
    pub fn new(data: &'a mut [f32], rs: usize, cs: usize) -> Self {
        MatMut { data, rs, cs }
    }

    /// A dense row-major view with `cols` columns.
    pub fn row_major(data: &'a mut [f32], cols: usize) -> Self {
        MatMut::new(data, cols, 1)
    }

    /// The transposed view.
    pub fn t(self) -> Self {
        MatMut::new(self.data, self.cs, self.rs)
    }
}

/// What the accumulators of C start from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Start {
    /// `c += a·b`: accumulators are loaded from C.
    FromC,
    /// `c = a·b`: accumulators start at `+0.0` and C is never read.
    FromZero,
}

/// Words a `rows × cols` view with the given strides reaches into its
/// slice.
fn span(rows: usize, cols: usize, rs: usize, cs: usize) -> usize {
    if rows == 0 || cols == 0 {
        0
    } else {
        (rows - 1) * rs + (cols - 1) * cs + 1
    }
}

/// Computes `c (+)= a × b` for `a` (`m×k`), `b` (`k×n`) and `c` (`m×n`):
/// the one GEMM entry. A is a strided view or a panel pack ([`Lhs`]), B a
/// strided view or the leading `k×n` corner of a [`pack_panels`] pack
/// ([`Rhs`]); every pair runs the same block loop and micro-kernel, so the
/// bits are those of [`naive_sgemm`] over the same matrices whatever the
/// operands' form.
///
/// # Panics
///
/// Panics if a view's slice is too short for its dimensions and strides, a
/// panel view reaches fewer than `m×k` elements, or a pack is not whole or
/// is shallower than `k` or narrower than `n` ([`Rhs::Packed`]).
///
/// # Examples
///
/// ```
/// use xform_tensor::matmul::{gemm, MatMut, MatRef, Start};
/// let a = [1.0, 2.0, 3.0, 4.0]; // 2x2
/// let bt = [5.0, 7.0, 6.0, 8.0]; // b stored transposed
/// let mut c = [f32::NAN; 4];
/// gemm(
///     2,
///     2,
///     2,
///     MatRef::row_major(&a, 2),
///     MatRef::row_major(&bt, 2).t(),
///     MatMut::row_major(&mut c, 2),
///     Start::FromZero,
/// );
/// assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
/// ```
pub fn gemm<'a, 'b>(
    m: usize,
    n: usize,
    k: usize,
    a: impl Into<Lhs<'a>>,
    b: impl Into<Rhs<'b>>,
    c: MatMut<'_>,
    start: Start,
) {
    gemm_on(m, n, k, a.into(), b.into(), c, start, Avx512::detect())
}

/// [`gemm`] on the tiles `wide` licenses: the one place the operands' form
/// picks a path through [`blocks`].
#[allow(clippy::too_many_arguments)]
fn gemm_on(
    m: usize,
    n: usize,
    k: usize,
    a: Lhs<'_>,
    b: Rhs<'_>,
    c: MatMut<'_>,
    start: Start,
    wide: Option<Avx512>,
) {
    a.check(m, k);
    assert!(c.data.len() >= span(m, n, c.rs, c.cs), "c is too short");
    match b {
        Rhs::Mat(b) => {
            assert!(b.data.len() >= span(k, n, b.rs, b.cs), "b is too short");
            match a.lanes().filter(|_| n == 1 && m > 1) {
                // matrix–vector: cᵀ = bᵀ·aᵀ puts the rows of A in the lanes
                Some(at) => blocks(1, m, k, b.t().into(), at, c.t(), start, wide),
                None => blocks(m, n, k, a, Panels::Strided(b), c, start, wide),
            }
        }
        Rhs::Packed { panels, pn } => {
            // (a pack of no columns holds no words, and any depth)
            let npad = pn.div_ceil(NR) * NR;
            let pk = panels.len().checked_div(npad).unwrap_or(k);
            assert_eq!(
                panels.len(),
                panel_words(pn, pk),
                "panels is not a whole pack {pn} columns wide"
            );
            assert!(k <= pk && n <= pn, "a {k}×{n} corner past a {pk}×{pn} pack");
            // one product per `KC` block of the pack, each after the first
            // from C — the store and reload `blocks` makes between its own
            // blocks; a depth of 0 still defines C under `FromZero`
            for pc in (0..k.max(1)).step_by(KC) {
                let start = if pc == 0 { start } else { Start::FromC };
                let (kc, c) = (KC.min(k - pc), MatMut::new(c.data, c.rs, c.cs));
                let b = Panels::Packed(&panels[pc * npad..], pk - pc);
                blocks(m, n, kc, a.from_col(pc), b, c, start, wide);
            }
        }
    }
}

/// Words [`pack_panels`] writes for a `k×n` operand: every column panel
/// padded to [`NR`] lanes.
pub fn panel_words(n: usize, k: usize) -> usize {
    k * n.div_ceil(NR) * NR
}

/// Packs all of `b` (`k×n`) into `dst` as [`Rhs::Packed`] reads it: `KC`
/// blocks in ascending `k`, within each its `KC×NR` column panels left to
/// right. Callers that multiply many row blocks against one B pack it once
/// here instead of once per block.
///
/// # Panics
///
/// Panics if `dst` is shorter than [`panel_words`] or `b` too short.
pub fn pack_panels(n: usize, k: usize, b: MatRef<'_>, dst: &mut [f32]) {
    assert!(b.data.len() >= span(k, n, b.rs, b.cs), "b is too short");
    let mut dst = &mut dst[..panel_words(n, k)];
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        for jc in (0..n).step_by(NR) {
            let (panel, rest) = dst.split_at_mut(kc * NR);
            pack_panel::<NR>(panel, b, pc, jc, NR.min(n - jc));
            dst = rest;
        }
    }
}

/// The right operand of [`gemm`]: a strided view, or B already in panels.
#[derive(Debug, Clone, Copy)]
pub enum Rhs<'a> {
    /// Read through its strides.
    Mat(MatRef<'a>),
    /// The leading `k×n` corner of a `pk×pn` matrix that [`pack_panels`]
    /// packed `pn` columns wide into `panels` — the whole pack and no more,
    /// which is where `pk` is read from (a scratch slice longer than the
    /// pack would read as a deeper one). `k` may end inside a `KC` block:
    /// its panels are cut at the block's own depth in the pack, and the
    /// product reads their leading rows.
    Packed {
        /// The pack.
        panels: &'a [f32],
        /// The pack's width in columns.
        pn: usize,
    },
}

impl<'a> From<MatRef<'a>> for Rhs<'a> {
    fn from(b: MatRef<'a>) -> Self {
        Rhs::Mat(b)
    }
}

/// Word `(r, c)` of an `m×k` matrix stored in panel order ([`PanelRef`]).
fn panel_at(m: usize, k: usize, r: usize, c: usize) -> usize {
    let (pc, jr) = (c - c % KC, r - r % NR);
    pc * m + jr * KC.min(k - pc) + (c - pc) * NR.min(m - jr) + (r - jr)
}

/// Where a projection weight's GEMM-A matrix (`m×k`) lies in the weight's
/// logical row-major words — element `(r, c)` at `r·rs + c·cs` — which is
/// what its panel pack ([`PanelRef`]) is made from and unpacked to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WeightPack {
    /// Rows of A.
    pub m: usize,
    /// Columns (the depth) of A.
    pub k: usize,
    /// Row stride in the logical words.
    pub rs: usize,
    /// Column stride in the logical words.
    pub cs: usize,
}

impl WeightPack {
    /// Calls `f(w, l)` once for every pack word `w` with the logical index
    /// `l` it holds — `pack[w]` is `logical[l]` — along the unit stride:
    /// in ascending `l` for a dense A, row- or column-major.
    pub fn for_each_word(&self, mut f: impl FnMut(usize, usize)) {
        let (m, k) = (self.m, self.k);
        let mut at = |r: usize, c: usize| f(panel_at(m, k, r, c), r * self.rs + c * self.cs);
        if self.cs == 1 {
            (0..m).for_each(|r| (0..k).for_each(|c| at(r, c)));
        } else {
            (0..k).for_each(|c| (0..m).for_each(|r| at(r, c)));
        }
    }

    /// Packs the logical words `logical` into `dst`: the one storage of a
    /// projection weight, written once per weight.
    ///
    /// # Panics
    ///
    /// Panics unless `dst` holds exactly `m·k` words, or if `logical` is
    /// too short.
    pub fn pack(&self, logical: &[f32], dst: &mut [f32]) {
        assert_eq!(dst.len(), self.m * self.k, "a pack holds m·k words");
        let reach = span(self.m, self.k, self.rs, self.cs);
        assert!(logical.len() >= reach, "logical is too short");
        self.zip_logical(logical, dst, |d, v| *d = v);
    }

    /// Calls `f(word, value)` for every word of the pack `words` with the
    /// logical value it holds, panel by panel so that both sides stream: a
    /// column of a column-major A is a run of a panel's lane, and a
    /// row-major A goes through `NR×NR` tiles transposed on the stack.
    pub fn zip_logical(
        &self,
        logical: &[f32],
        words: &mut [f32],
        mut f: impl FnMut(&mut f32, f32),
    ) {
        let (m, k, mut base) = (self.m, self.k, 0);
        let column_major = (self.rs, self.cs) == (1, m);
        if !self.row_major() && !column_major {
            return self.for_each_word(|w, l| f(&mut words[w], logical[l]));
        }
        let mut tile = [[0.0f32; NR]; NR];
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            for jr in (0..m).step_by(NR) {
                let w = NR.min(m - jr);
                let panel = &mut words[base..][..kc * w];
                base += kc * w;
                let mut c0 = 0;
                if column_major {
                    for (c, lane) in panel.chunks_exact_mut(w).enumerate() {
                        let run = &logical[(pc + c) * m + jr..][..w];
                        lane.iter_mut().zip(run).for_each(|(x, &v)| f(x, v));
                    }
                    continue;
                }
                while w == NR && c0 + NR <= kc {
                    let rows = logical[jr * k + pc + c0..].chunks(k).take(NR);
                    for (r, row) in rows.enumerate() {
                        (tile.iter_mut().zip(row)).for_each(|(t, &v)| t[r] = v);
                    }
                    let lanes = panel[c0 * NR..][..NR * NR].chunks_exact_mut(NR);
                    for (lane, t) in lanes.zip(&tile) {
                        lane.iter_mut().zip(t).for_each(|(x, &v)| f(x, v));
                    }
                    c0 += NR;
                }
                for c in c0..kc {
                    for r in 0..w {
                        f(&mut panel[c * w + r], logical[(jr + r) * k + pc + c]);
                    }
                }
            }
        }
    }

    /// Whether A's rows are the logical words' rows (`rs = k`, `cs = 1`).
    pub fn row_major(&self) -> bool {
        (self.rs, self.cs) == (self.k, 1)
    }

    /// The words of row `r` of A in the pack `dst`, column by column: its
    /// lane of each panel it crosses, one `KC` block after another.
    pub fn row_lane<'d>(&self, r: usize, dst: &'d mut [f32]) -> impl Iterator<Item = &'d mut f32> {
        let (m, jr) = (self.m, r - r % NR);
        let w = NR.min(m - jr);
        let blocks = dst[..self.m * self.k].chunks_mut(KC * m);
        blocks.flat_map(move |block| {
            let kc = block.len() / m;
            block[jr * kc + r - jr..].iter_mut().step_by(w).take(kc)
        })
    }

    /// Writes the pack `panels` back into logical order: its inverse.
    ///
    /// # Panics
    ///
    /// As [`WeightPack::pack`].
    pub fn unpack(&self, panels: &[f32], logical: &mut [f32]) {
        assert_eq!(panels.len(), self.m * self.k, "a pack holds m·k words");
        self.for_each_word(|w, l| logical[l] = panels[w]);
    }
}

/// A matrix `A` (`m×k`) read out of its panel order, or its transpose —
/// the operand a projection weight is for every GEMM that reads it.
///
/// The order is [`pack_panels`]' order of `aᵀ`, without the padding: `KC`
/// blocks of depth in ascending order, within each the rows of A in
/// [`NR`]-row panels from the top, each panel `k` inner — word
/// `[kk][r]` — and the last panel of a block as wide as the rows left, so a
/// pack holds exactly `m·k` words ([`WeightPack::pack`]). One pack serves three
/// readers, each through the one micro-kernel alone, so the bits are those of
/// [`gemm`] over the same matrix by construction:
///
/// * a matrix–vector product streams the panels as they lie: they are the
///   transposed problem's B panels (a last, narrower panel is widened
///   into the call's panel buffer);
/// * a GEMM with more columns copies its A slabs out of them, from
///   any row offset ([`PanelRef::from_row`]);
/// * the transpose ([`PanelRef::t`]) is gathered into its slabs, one
///   transposing pack — the backward's read.
#[derive(Debug, Clone, Copy)]
pub struct PanelRef<'a> {
    data: &'a [f32],
    m: usize,
    k: usize,
    row0: usize,
    col0: usize,
    transposed: bool,
}

impl<'a> PanelRef<'a> {
    /// The whole `m×k` pack in `data`.
    ///
    /// # Panics
    ///
    /// Panics unless `data` holds exactly `m·k` words: a slice cut to
    /// another length is another matrix's pack, or none.
    pub fn new(data: &'a [f32], m: usize, k: usize) -> Self {
        assert_eq!(data.len(), m * k, "a {m}×{k} pack holds {} words", m * k);
        PanelRef {
            data,
            m,
            k,
            row0: 0,
            col0: 0,
            transposed: false,
        }
    }

    /// The transposed view: rows and columns exchanged.
    pub fn t(self) -> Self {
        PanelRef {
            transposed: !self.transposed,
            ..self
        }
    }

    /// The view starting at row `r` (of the view).
    pub fn from_row(mut self, r: usize) -> Self {
        *[&mut self.row0, &mut self.col0][usize::from(self.transposed)] += r;
        self
    }

    /// The view starting at column `c` (of the view).
    pub fn from_col(self, c: usize) -> Self {
        self.t().from_row(c).t()
    }

    /// Rows and columns the view reaches.
    fn extent(&self) -> (usize, usize) {
        let e = [
            self.m.saturating_sub(self.row0),
            self.k.saturating_sub(self.col0),
        ];
        (
            e[usize::from(self.transposed)],
            e[usize::from(!self.transposed)],
        )
    }

    /// The `p` adjacent B panels of the transposed problem at depth `pc`
    /// (`kc` deep) and lane `jc` ([`Panels::run`]): rows `jc..` of an
    /// untransposed view that starts on a panel and at depth 0 — in place
    /// when the panels are whole, the narrower last one widened into `buf`
    /// with zero lanes.
    fn b_panels(self, pc: usize, jc: usize, kc: usize, p: usize, buf: &'a mut [f32]) -> &'a [f32] {
        let jr = self.row0 + jc;
        let (kb, w) = (KC.min(self.k - pc), NR.min(self.m - jr));
        let run = &self.data[pc * self.m + jr * kb..];
        if w == NR {
            return &run[..p * kb * NR];
        }
        let buf = &mut buf[..kc * NR];
        for (dst, src) in buf.chunks_exact_mut(NR).zip(run[..kc * w].chunks_exact(w)) {
            dst[..w].copy_from_slice(src);
            dst[w..].fill(0.0);
        }
        buf
    }

    /// Packs rows `row..row + R`, columns `pc..pc + slab.len()/R` of the
    /// view into `slab` as [`blocks`] lays out an A slab: `R` words per
    /// column, interleaved along `k`.
    fn pack_slab<const R: usize>(&self, slab: &mut [f32], pc: usize, row: usize) {
        let (m, k, kc) = (self.m, self.k, slab.len() / R);
        if !self.transposed {
            // rows of A: a column's `R` words are adjacent in their panel —
            // one run, or two where the slab crosses into the next panel —
            // and evenly spaced within a `KC` block of the pack, so a slab
            // from a column off a block edge is cut at the next one
            let (r, mut c) = (self.row0 + row, self.col0 + pc);
            let q = R.min(NR - r % NR);
            let (head, tail) = slab.split_at_mut((R * (KC - c % KC)).min(slab.len()));
            for part in std::iter::once(head).chain(tail.chunks_mut(R * KC)) {
                let run = |r: usize| (panel_at(m, k, r, c), NR.min(m - (r - r % NR)));
                let ((p0, w0), (p1, w1)) = (run(r), run(r + q));
                c += part.len() / R;
                let part = part.chunks_exact_mut(R).enumerate();
                if q == R {
                    part.for_each(|(kk, dst)| dst.copy_from_slice(&self.data[p0 + kk * w0..][..R]));
                } else {
                    for (kk, dst) in part {
                        dst[..q].copy_from_slice(&self.data[p0 + kk * w0..][..q]);
                        dst[q..].copy_from_slice(&self.data[p1 + kk * w1..][..R - q]);
                    }
                }
            }
        } else {
            // columns of A: each of the `R` walks A's rows down one column,
            // contiguous within a panel
            for q in 0..R {
                let c = self.col0 + row + q;
                let mut kk = 0;
                while kk < kc {
                    let r = self.row0 + pc + kk;
                    let jr = r - r % NR;
                    let run = (jr + NR.min(m - jr) - r).min(kc - kk);
                    let src = &self.data[panel_at(m, k, r, c)..][..run];
                    for (t, &v) in src.iter().enumerate() {
                        slab[(kk + t) * R + q] = v;
                    }
                    kk += run;
                }
            }
        }
    }
}

/// The left operand of the block loop: a strided view or a panel pack.
#[derive(Debug, Clone, Copy)]
pub enum Lhs<'a> {
    /// Read through its strides.
    Mat(MatRef<'a>),
    /// Read out of its panel order.
    Panels(PanelRef<'a>),
}

impl<'a> From<MatRef<'a>> for Lhs<'a> {
    fn from(a: MatRef<'a>) -> Self {
        Lhs::Mat(a)
    }
}

impl<'a> From<PanelRef<'a>> for Lhs<'a> {
    fn from(a: PanelRef<'a>) -> Self {
        Lhs::Panels(a)
    }
}

impl<'a> Lhs<'a> {
    /// The view starting at row `r`.
    pub fn from_row(self, r: usize) -> Self {
        match self {
            Lhs::Mat(a) => Lhs::Mat(a.from_row(r)),
            Lhs::Panels(a) => Lhs::Panels(a.from_row(r)),
        }
    }

    /// The view starting at column `c`.
    pub fn from_col(self, c: usize) -> Self {
        match self {
            Lhs::Mat(a) => Lhs::Mat(a.t().from_row(c).t()),
            Lhs::Panels(a) => Lhs::Panels(a.from_col(c)),
        }
    }

    /// Packs rows `row..row + R`, columns `pc..pc + slab.len()/R` into an
    /// A slab ([`blocks`]).
    fn pack_slab<const R: usize>(&self, slab: &mut [f32], pc: usize, row: usize) {
        match self {
            Lhs::Mat(a) => pack_panel::<R>(slab, a.t(), pc, row, R),
            Lhs::Panels(a) => a.pack_slab::<R>(slab, pc, row),
        }
    }

    /// Panics unless the operand reaches `m×k` elements.
    fn check(&self, m: usize, k: usize) {
        match self {
            Lhs::Mat(a) => assert!(a.data.len() >= span(m, k, a.rs, a.cs), "a is too short"),
            Lhs::Panels(a) => {
                let (rows, cols) = a.extent();
                let reach = m <= rows && k <= cols;
                assert!(reach, "a reaches {rows}×{cols}, not {m}×{k}");
            }
        }
    }

    /// A's rows as the lanes of the transposed problem `cᵀ = bᵀ·aᵀ` — its
    /// B panels: packed from a strided A, streamed as they lie from a pack
    /// read untransposed from a row on a panel edge and from depth 0 (the
    /// matrix–vector product packs nothing but its vector); `None` for any
    /// other pack, whose slabs are copied out as for a wider C.
    fn lanes(self) -> Option<Panels<'a>> {
        match self {
            Lhs::Mat(a) => Some(Panels::Strided(a.t())),
            Lhs::Panels(a) => {
                let streams = !a.transposed && a.row0.is_multiple_of(NR) && a.col0 == 0;
                streams.then_some(Panels::Rows(a))
            }
        }
    }
}

/// Where the block loop gets its B panels.
#[derive(Clone, Copy)]
enum Panels<'a> {
    /// Packed from the strided source: a block at a time when more than one
    /// row block reads it, else a panel at a time.
    Strided(MatRef<'a>),
    /// Cut from a [`pack_panels`] buffer this many rows deep, each block's
    /// panels as deep as the block.
    Packed(&'a [f32], usize),
    /// The rows of a panel pack, as they lie: the transposed problem's B.
    Rows(PanelRef<'a>),
}

impl<'a> Panels<'a> {
    /// The `w` columns from `jc` at depth `pc`, `kc` deep — one panel or two
    /// whole adjacent ones — as one run that [`kernel`] or [`kernel_wide`]
    /// reads: where they lie (a pack `npad` columns wide), else packed (or
    /// widened) into `buf`. A second panel starts at the run's middle, and
    /// each panel's leading `kc` rows are the ones multiplied.
    fn run(
        self,
        pc: usize,
        jc: usize,
        kc: usize,
        w: usize,
        npad: usize,
        buf: &'a mut [f32],
    ) -> &'a [f32] {
        let p = w.div_ceil(NR);
        match self {
            Panels::Strided(b) => {
                for (i, panel) in buf[..p * kc * NR].chunks_exact_mut(kc * NR).enumerate() {
                    pack_panel::<NR>(panel, b, pc, jc + i * NR, NR.min(w - i * NR));
                }
                &buf[..p * kc * NR]
            }
            Panels::Packed(panels, d) => {
                let kb = KC.min(d - pc);
                &panels[pc * npad + jc * kb..][..p * kb * NR]
            }
            Panels::Rows(rows) => rows.b_panels(pc, jc, kc, p, buf),
        }
    }
}

thread_local! {
    /// The packed A block of [`blocks`] and the two B panels it packs at a
    /// time: one pair per thread, never zeroed again — a call packs exactly
    /// the words it then reads.
    static PACKS: RefCell<([f32; MC * KC], [f32; KC * NW])> =
        const { RefCell::new(([0.0; MC * KC], [0.0; KC * NW])) };
    /// The packed B block of [`blocks`], grown (never past `KC·NC` words)
    /// by the first call on the thread that packs a strided B for more than
    /// one row block; a call reads only the panels it packed.
    static B_BLOCK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The slabs a block of `mc` rows is cut into, as `(first row, height)`:
/// `MR` rows while they last, then 4, 2 and 1 — except that the last
/// `MR + 2` or `MR + 3` rows run as 4 + 4 (+ 1): a 2-row slab's four
/// accumulator chains are latency-bound, as slow as a 4-row slab's eight.
fn slabs(mc: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut row = 0;
    std::iter::from_fn(move || {
        let left = mc - row;
        let h = if left >= MR && !matches!(left - MR, 2 | 3) {
            MR
        } else {
            [4, 2, 1].into_iter().find(|&h| h <= left)?
        };
        row += h;
        Some((row - h, h))
    })
}

/// The block loop nest around the two tiles: [`kernel_wide`]'s wherever
/// two whole panels remain and `wide` licenses it, [`kernel`]'s elsewhere.
#[allow(clippy::too_many_arguments)]
fn blocks(
    m: usize,
    n: usize,
    k: usize,
    a: Lhs<'_>,
    b: Panels<'_>,
    mut c: MatMut<'_>,
    start: Start,
    wide: Option<Avx512>,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if start == Start::FromZero {
            for r in 0..m {
                for j in 0..n {
                    c.data[r * c.rs + j * c.cs] = 0.0;
                }
            }
        }
        return;
    }
    let npad = n.div_ceil(NR) * NR;
    // a strided B that more than one row block reads is packed a block at
    // a time; any other B is read a panel at a time, all of its columns
    // one block
    let shared = matches!(b, Panels::Strided(_)) && m > MC;
    let nc = if shared { NC } else { n };
    // held for the call, so the loops read a local; returned at the end
    let mut b_block = if shared { B_BLOCK.take() } else { Vec::new() };
    PACKS.with_borrow_mut(|(block, buf)| {
        for jb in (0..n).step_by(nc) {
            let nb = nc.min(n - jb);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                if let (Panels::Strided(b), true) = (b, shared) {
                    let words = kc * nb.div_ceil(NR) * NR;
                    if b_block.len() < words {
                        b_block = vec![0.0; words];
                    }
                    let panels = b_block.chunks_exact_mut(kc * NR);
                    for (jc, panel) in (jb..jb + nb).step_by(NR).zip(panels) {
                        pack_panel::<NR>(panel, b, pc, jc, NR.min(n - jc));
                    }
                }
                // the packed B block is a pack one block deep from `jb` on
                let (b, pb, jb0) = match shared {
                    true => (Panels::Packed(&b_block, kc), 0, jb),
                    false => (b, pc, 0),
                };
                let zero = start == Start::FromZero && pc == 0;
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    for (r, h) in slabs(mc) {
                        let slab = &mut block[r * kc..(r + h) * kc];
                        match h {
                            MR => a.pack_slab::<MR>(slab, pc, ic + r),
                            4 => a.pack_slab::<4>(slab, pc, ic + r),
                            2 => a.pack_slab::<2>(slab, pc, ic + r),
                            _ => a.pack_slab::<1>(slab, pc, ic + r),
                        }
                    }
                    let mut jc = jb;
                    while jc < jb + nb {
                        let pair = wide.filter(|_| jb + nb - jc >= NW);
                        let w = pair.map_or(NR.min(jb + nb - jc), |_| NW);
                        let panels = b.run(pb, jc - jb0, kc, w, npad, buf);
                        for (r, h) in slabs(mc) {
                            let (slab, at) = (&block[r * kc..(r + h) * kc], (ic + r, jc, w));
                            match h {
                                MR => accumulate::<MR>(pair, slab, panels, &mut c, at, zero),
                                4 => accumulate::<4>(pair, slab, panels, &mut c, at, zero),
                                2 => accumulate::<2>(pair, slab, panels, &mut c, at, zero),
                                _ => accumulate::<1>(pair, slab, panels, &mut c, at, zero),
                            }
                        }
                        jc += w;
                    }
                }
            }
        }
    });
    if shared {
        B_BLOCK.set(b_block);
    }
}

/// Packs rows `pc..pc + panel.len()/W`, columns `jc..jc + nr` of `b` into
/// `panel`, `W` words per row; lanes from `nr` up are zero. With `W = NR`
/// that is a B panel; over `a.t()` with `W = nr` a slab height it is a
/// slab of A, its rows interleaved along `k`.
fn pack_panel<const W: usize>(panel: &mut [f32], b: MatRef<'_>, pc: usize, jc: usize, nr: usize) {
    if nr < W {
        panel.fill(0.0);
    }
    let src = &b.data[pc * b.rs + jc * b.cs..];
    if W == 1 && b.rs == 1 {
        // a dense row of A: already its slab, one copy
        panel.copy_from_slice(&src[..panel.len()]);
    } else if b.cs == 1 {
        for (kk, row) in panel.chunks_exact_mut(W).enumerate() {
            if nr == W {
                row.copy_from_slice(&src[kk * b.rs..][..W]);
            } else {
                row[..nr].copy_from_slice(&src[kk * b.rs..][..nr]);
            }
        }
    } else if b.rs == 1 {
        pack_columns::<W, _>(panel, nr, |j| src[j * b.cs..].iter());
    } else {
        let kc = panel.len() / W;
        pack_columns::<W, _>(panel, nr, |j| {
            (0..kc).map(move |kk| &src[j * b.cs + kk * b.rs])
        });
    }
}

/// The transposing pack: `col(j)` walks column `j` of the source down `k`.
/// Four columns go at a time, so a panel row is written by whole vectors.
fn pack_columns<'a, const W: usize, I: Iterator<Item = &'a f32>>(
    panel: &mut [f32],
    nr: usize,
    col: impl Fn(usize) -> I,
) {
    let mut j = 0;
    while j + 4 <= nr {
        let cols = col(j).zip(col(j + 1)).zip(col(j + 2)).zip(col(j + 3));
        for (row, (((&v0, &v1), &v2), &v3)) in panel.chunks_exact_mut(W).zip(cols) {
            row[j..j + 4].copy_from_slice(&[v0, v1, v2, v3]);
        }
        j += 4;
    }
    while j < nr {
        for (row, &v) in panel.chunks_exact_mut(W).zip(col(j)) {
            row[j] = v;
        }
        j += 1;
    }
}

/// One tile of C at `at` against one slab: an `R×2NR` one over the two
/// panels of `panels` through [`kernel_wide`] under a licence, compiled
/// for 512-bit lanes ([`Avx512::run`]), else an `R×NR` one through
/// [`kernel`] over its one panel ([`in_c`]).
#[inline(always)]
fn accumulate<const R: usize>(
    wide: Option<Avx512>,
    slab: &[f32],
    panels: &[f32],
    c: &mut MatMut<'_>,
    at: (usize, usize, usize),
    from_zero: bool,
) {
    match wide {
        // the tile's load and store at 512 bits too, around the kernel's
        // own instantiation: a C row stored as two `ymm` and reloaded as
        // one `zmm` would miss store forwarding
        Some(isa) => isa.run(
            #[inline(always)]
            move || {
                in_c::<R, NW>(
                    c,
                    at,
                    from_zero,
                    #[inline(always)]
                    |acc| kernel_wide::<R>(slab, panels, acc),
                )
            },
        ),
        None => in_c::<R, NR>(c, at, from_zero, |acc| kernel::<R>(slab, panels, acc)),
    }
}

/// Runs `kernel` over an `R×W` tile of C at `(ir, jc)`: the accumulators
/// are loaded from C (or `+0.0`), run through it and stored, `nr` lanes of
/// each row.
#[inline(always)]
fn in_c<const R: usize, const W: usize>(
    c: &mut MatMut<'_>,
    (ir, jc, nr): (usize, usize, usize),
    from_zero: bool,
    kernel: impl FnOnce(&mut [[f32; W]; R]),
) {
    let c_at = ir * c.rs + jc * c.cs;
    let mut acc = [[0.0f32; W]; R];
    let dense = c.cs == 1 && nr == W;
    if !from_zero {
        for (r, row) in acc.iter_mut().enumerate() {
            if dense {
                row.copy_from_slice(&c.data[c_at + r * c.rs..][..W]);
            } else {
                strided_row(row, c, c_at + r * c.rs, nr, false);
            }
        }
    }
    kernel(&mut acc);
    for (r, row) in acc.iter_mut().enumerate() {
        if dense {
            c.data[c_at + r * c.rs..][..W].copy_from_slice(row);
        } else {
            strided_row(row, c, c_at + r * c.rs, nr, true);
        }
    }
}

/// The first `nr` lanes of a tile row loaded from C at word `at` onward
/// (column stride `c.cs`), or stored there: out of line, so the dense
/// rows' loop around the kernel stays small.
#[inline(never)]
fn strided_row(row: &mut [f32], c: &mut MatMut<'_>, at: usize, nr: usize, store: bool) {
    for (j, v) in row.iter_mut().take(nr).enumerate() {
        let w = &mut c.data[at + j * c.cs];
        if store {
            *w = *v;
        } else {
            *v = *w;
        }
    }
}

/// The micro-kernel — with [`kernel_wide`], its 512-bit instantiation, the
/// only statement of GEMM arithmetic in the crate:
/// `acc[r][j] = slab[kk][r] · panel[kk][j] + acc[r][j]`, rounded once
/// (`mul_add`), down the depth the two share.
/// A function of its own over two `chunks_exact` walks: no index, no bounds
/// check, so no panic edge for the accumulators to be spilled around —
/// inlined into [`blocks`] it loses its registers (`tools/kernel_asm.sh`).
#[inline(never)]
fn kernel<const R: usize>(slab: &[f32], panel: &[f32], acc: &mut [[f32; NR]; R]) {
    for (a_k, b_k) in slab.chunks_exact(R).zip(panel.chunks_exact(NR)) {
        for (row, &a_rk) in acc.iter_mut().zip(a_k) {
            for (v, &b_kj) in row.iter_mut().zip(b_k) {
                *v = a_rk.mul_add(b_kj, *v);
            }
        }
    }
}

/// [`kernel`] on 512-bit lanes, its arithmetic element for element: row `r`
/// of the `R×2NR` tile is two `zmm` accumulators, lanes `..NR` against the
/// first panel of `panels` and lanes `NR..` against the second, which
/// starts at the run's middle. Inlined into its instantiation of
/// `isa::wide`, whose operands arrive through the closure that carries
/// them: the tile is copied into a local first, which nothing else can
/// alias, so its rows stay in registers down the depth.
#[inline(always)]
fn kernel_wide<const R: usize>(slab: &[f32], panels: &[f32], acc: &mut [[f32; NW]; R]) {
    let (b0, b1) = panels.split_at(panels.len() / 2);
    let b = b0.chunks_exact(NR).zip(b1.chunks_exact(NR));
    let mut tile = *acc;
    for (a_k, (b0_k, b1_k)) in slab.chunks_exact(R).zip(b) {
        for (row, &a_rk) in tile.iter_mut().zip(a_k) {
            for (half, b_k) in row.chunks_exact_mut(NR).zip([b0_k, b1_k]) {
                for (v, &b_kj) in half.iter_mut().zip(b_k) {
                    *v = a_rk.mul_add(b_kj, *v);
                }
            }
        }
    }
    *acc = tile;
}

/// The strides of a batch of matrices inside one slice: slice `g`, row
/// `r`, column `c` is word `g·bs + r·rs + c·cs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStrides {
    /// Batch stride in words.
    pub bs: usize,
    /// Row stride in words.
    pub rs: usize,
    /// Column stride in words.
    pub cs: usize,
}

impl BatchStrides {
    /// `batch` dense row-major `rows×cols` matrices back to back.
    pub fn dense(rows: usize, cols: usize) -> Self {
        BatchStrides {
            bs: rows * cols,
            rs: cols,
            cs: 1,
        }
    }
}

/// A batch of matrices inside one slice, read where they lie: what the
/// contraction driver hands [`gemm`] one slice at a time.
#[derive(Debug, Clone, Copy)]
pub struct BatchRef<'a> {
    /// The words, starting at element `(0, 0)` of slice 0.
    pub data: &'a [f32],
    /// Where each slice's elements lie.
    pub at: BatchStrides,
}

impl<'a> BatchRef<'a> {
    /// Slice `g` as a matrix view.
    pub fn slice(&self, g: usize) -> MatRef<'a> {
        let start = (g * self.at.bs).min(self.data.len());
        MatRef::new(&self.data[start..], self.at.rs, self.at.cs)
    }
}

/// Computes `c += a × b` for row-major `a` (`m×k`), `b` (`k×n`), `c` (`m×n`).
///
/// Accumulation happens at `f32` precision (the paper accumulates FP16
/// GEMMs at FP32; our storage is already `f32`).
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
///
/// # Examples
///
/// ```
/// use xform_tensor::matmul::sgemm;
/// let a = [1.0, 2.0, 3.0, 4.0]; // 2x2
/// let b = [5.0, 6.0, 7.0, 8.0]; // 2x2
/// let mut c = [0.0; 4];
/// sgemm(2, 2, 2, &a, &b, &mut c);
/// assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
/// ```
pub fn sgemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "a has wrong length");
    assert_eq!(b.len(), k * n, "b has wrong length");
    assert_eq!(c.len(), m * n, "c has wrong length");
    let (a, b) = (MatRef::row_major(a, k), MatRef::row_major(b, n));
    gemm(m, n, k, a, b, MatMut::row_major(c, n), Start::FromC);
}

/// Computes `c[g] += a[g] × b[g]` for `batch` independent GEMMs stored
/// contiguously (`a`: `batch×m×k`, `b`: `batch×k×n`, `c`: `batch×m×n`).
///
/// The slices run in order on the calling thread.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn batched_sgemm(
    batch: usize,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    assert_eq!(a.len(), batch * m * k, "a has wrong length");
    assert_eq!(b.len(), batch * k * n, "b has wrong length");
    assert_eq!(c.len(), batch * m * n, "c has wrong length");
    for g in 0..batch {
        let (a, b) = (&a[g * m * k..][..m * k], &b[g * k * n..][..k * n]);
        sgemm(m, n, k, a, b, &mut c[g * m * n..][..m * n]);
    }
}

/// Reference (unblocked, triple-loop) GEMM used as a correctness oracle in
/// tests: `c += a × b`, each element's sum seeded from C and run over `k`
/// ascending, one `mul_add` per product — the micro-kernel's arithmetic.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn naive_sgemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    for i in 0..m {
        for j in 0..n {
            let acc = &mut c[i * n + j];
            for kk in 0..k {
                *acc = a[i * k + kk].mul_add(b[kk * n + j], *acc);
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_mat(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn tiled_matches_naive_on_odd_sizes() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (64, 64, 64),
            (65, 33, 129),
            (100, 1, 17),
            (1, 100, 17),
            (5, 40, 2 * KC + 3),
        ] {
            let a = random_mat(&mut rng, m * k);
            let b = random_mat(&mut rng, k * n);
            let mut c1 = vec![0.0; m * n];
            let mut c2 = vec![0.0; m * n];
            sgemm(m, n, k, &a, &b, &mut c1);
            naive_sgemm(m, n, k, &a, &b, &mut c2);
            // one accumulator per element, k ascending, fused: the same sum
            assert_eq!(c1, c2, "mismatch at ({m},{n},{k})");
        }
    }

    #[test]
    fn sgemm_accumulates_into_c() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [2.0, 0.0, 0.0, 2.0];
        let mut c = [1.0, 1.0, 1.0, 1.0];
        sgemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [3.0, 1.0, 1.0, 3.0]);
    }

    #[test]
    fn from_zero_never_reads_c_and_keeps_the_sign_of_zero() {
        // -0.0 products summed from +0.0 give +0.0, as a zero-filled C did
        let a = [-1.0, 1.0];
        let b = [0.0, 0.0];
        let mut c = [f32::NAN];
        let (ar, br) = (MatRef::row_major(&a, 2), MatRef::row_major(&b, 1));
        gemm(
            1,
            1,
            2,
            ar,
            br,
            MatMut::row_major(&mut c, 1),
            Start::FromZero,
        );
        assert_eq!(c[0].to_bits(), 0.0f32.to_bits());
        // k == 0 still defines the output
        let mut c = [f32::NAN; 2];
        gemm(
            2,
            1,
            0,
            ar,
            br,
            MatMut::row_major(&mut c, 1),
            Start::FromZero,
        );
        assert_eq!(c, [0.0, 0.0]);
    }

    #[test]
    fn unit_extents_may_carry_zero_strides() {
        // a collapsed axis group of extent 1 has stride 0
        let a = [1.0, 2.0, 3.0];
        let b = [4.0];
        let mut c = [0.0; 3];
        gemm(
            3,
            1,
            1,
            MatRef::new(&a, 1, 0),
            MatRef::new(&b, 0, 0),
            MatMut::new(&mut c, 1, 0),
            Start::FromZero,
        );
        assert_eq!(c, [4.0, 8.0, 12.0]);
    }

    #[test]
    fn a_leading_corner_of_a_pack_is_the_gemm_over_that_corner() {
        // a pack two blocks and a bit deep, five panels and a bit wide;
        // corners that end on a block and at the pack's last row, through
        // a strided A and into a strided C
        let mut rng = StdRng::seed_from_u64(17);
        let (m, pn, pk) = (5, 5 * NR + 3, 2 * KC + 7);
        let a = random_mat(&mut rng, m * pk);
        let b = random_mat(&mut rng, pk * pn);
        let mut pack = vec![f32::NAN; panel_words(pn, pk)];
        pack_panels(pn, pk, MatRef::row_major(&b, pn), &mut pack);
        let (at, panels) = (MatRef::new(&a, 1, m), &pack[..]); // A stored k-major
        for (n, depth) in [(pn, pk), (NR + 2, KC), (3 * NR, 2 * KC), (1, pk)] {
            let mut want = vec![f32::NAN; m * n];
            let (bw, c) = (MatRef::row_major(&b, pn), MatMut::row_major(&mut want, n));
            gemm(m, n, depth, at, bw, c, Start::FromZero);
            let mut got = vec![f32::NAN; m * n];
            let (b, c) = (Rhs::Packed { panels, pn }, MatMut::new(&mut got, 1, m));
            gemm(m, n, depth, at, b, c, Start::FromZero);
            for (r, row) in want.chunks(n).enumerate() {
                for (j, w) in row.iter().enumerate() {
                    assert_eq!(
                        got[r + j * m].to_bits(),
                        w.to_bits(),
                        "({n},{depth}) at ({r},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn a_leading_depth_that_ends_inside_a_block_is_the_gemm_over_that_corner() {
        // a pack two blocks and a bit deep, one panel wide and two and a
        // half: depths that end inside its first, second and last block,
        // whose panels are cut at each block's own depth
        let mut rng = StdRng::seed_from_u64(19);
        let (m, pk) = (3, 2 * KC + 5);
        for pn in [NR, 40] {
            let a = random_mat(&mut rng, m * pk);
            let b = random_mat(&mut rng, pk * pn);
            let mut pack = vec![f32::NAN; panel_words(pn, pk)];
            pack_panels(pn, pk, MatRef::row_major(&b, pn), &mut pack);
            let (av, bv) = (MatRef::row_major(&a, pk), MatRef::row_major(&b, pn));
            let packed = Rhs::Packed { panels: &pack, pn };
            for (n, depth) in [(pn, 7), (pn, KC + 7), (pn - 3, 2 * KC + 2), (1, KC - 1)] {
                let mut want = vec![f32::NAN; m * n];
                let c = MatMut::row_major(&mut want, n);
                gemm(m, n, depth, av, bv, c, Start::FromZero);
                let mut got = vec![f32::NAN; m * n];
                let c = MatMut::row_major(&mut got, n);
                gemm(m, n, depth, av, packed, c, Start::FromZero);
                let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "pn {pn}, n {n}, depth {depth}");
            }
            for (n, depth) in [(pn, pk + 1), (pn + 1, pk)] {
                let past = std::panic::catch_unwind(|| {
                    let mut c = vec![0.0; m * n];
                    let c = MatMut::row_major(&mut c, n);
                    gemm(m, n, depth, av, packed, c, Start::FromZero);
                });
                assert!(past.is_err(), "a {depth}×{n} corner past the pack");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a whole pack")]
    fn a_slice_longer_than_its_pack_is_refused() {
        let (pack, pn) = (vec![0.0; panel_words(NR + 1, 3) + 1], NR + 1);
        let (a, b) = (
            MatRef::row_major(&[0.0; 3], 3),
            Rhs::Packed { panels: &pack, pn },
        );
        gemm(
            1,
            1,
            3,
            a,
            b,
            MatMut::row_major(&mut [0.0], 1),
            Start::FromZero,
        );
    }

    #[test]
    fn a_pack_of_no_columns_has_nothing_to_multiply() {
        let (mut c, b) = ([f32::NAN], Rhs::Packed { panels: &[], pn: 0 });
        let a = MatRef::row_major(&[], 0);
        gemm(1, 0, 0, a, b, MatMut::row_major(&mut c, 1), Start::FromZero);
        assert!(c[0].is_nan());
    }

    #[test]
    fn batched_sgemm_is_the_naive_oracle_slice_by_slice() {
        let mut rng = StdRng::seed_from_u64(11);
        let (bsz, m, n, k) = (8, 32, 32, 32);
        let a = random_mat(&mut rng, bsz * m * k);
        let b = random_mat(&mut rng, bsz * k * n);
        let mut c = vec![0.0; bsz * m * n];
        batched_sgemm(bsz, m, n, k, &a, &b, &mut c);
        for g in 0..bsz {
            let mut expect = vec![0.0; m * n];
            let (a, b) = (&a[g * m * k..][..m * k], &b[g * k * n..][..k * n]);
            naive_sgemm(m, n, k, a, b, &mut expect);
            assert_eq!(&c[g * m * n..][..m * n], expect.as_slice());
        }
    }

    /// The tiles a test can drive: the 256-bit one always, the 512-bit one
    /// where the host has AVX-512F — and said aloud where it has not.
    fn tiles() -> Vec<Option<Avx512>> {
        let wide = Avx512::detect();
        if wide.is_none() {
            println!("the 512-bit tile's legs are skipped: the CPU has no AVX-512F");
        }
        std::iter::once(None).chain(wide.map(Some)).collect()
    }

    /// Widths each side of a panel's, a pair's and the B block's edges.
    const WIDTHS: [usize; 12] = [
        1,
        NR - 1,
        NR,
        NR + 1,
        2 * NR - 1,
        2 * NR,
        2 * NR + 1,
        3 * NR,
        NC - 1,
        NC,
        NC + 1,
        2 * NC + NR - 1,
    ];

    fn transposed(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| x[(i % rows) * cols + i / rows])
            .collect()
    }

    /// A problem and its oracle: row-major A (`m×k`) and B (`k×n`), a C to
    /// start from, a NaN row of A and a NaN column of B, and a negative
    /// row of A against a zero column of B — products of `−0.0`, which
    /// [`Start::FromZero`] sums from `+0.0`.
    struct Case {
        m: usize,
        n: usize,
        k: usize,
        a: Vec<f32>,
        b: Vec<f32>,
        c0: Vec<f32>,
    }

    impl Case {
        fn new(rng: &mut StdRng, m: usize, n: usize, k: usize) -> Case {
            let (mut a, mut b) = (random_mat(rng, m * k), random_mat(rng, k * n));
            a[..k].iter_mut().for_each(|v| *v = -v.abs());
            if m > 2 {
                a[m / 2 * k..][..k].fill(f32::NAN);
            }
            for row in b.chunks_mut(n).filter(|_| n > 2) {
                (row[(NR + 3) % n], row[n / 2]) = (0.0, f32::NAN);
            }
            let c0 = random_mat(rng, m * n);
            Case { m, n, k, a, b, c0 }
        }

        /// [`naive_sgemm`] seeded from `c0` (or `+0.0`).
        fn want(&self, start: Start) -> Vec<f32> {
            let (m, n, k) = (self.m, self.n, self.k);
            let mut want = match start {
                Start::FromC => self.c0.clone(),
                Start::FromZero => vec![0.0; m * n],
            };
            naive_sgemm(m, n, k, &self.a, &self.b, &mut want);
            want
        }

        /// Runs `f` into a C laid out with strides `(rs, cs)`, holding `c0`
        /// (or NaN under `FromZero`), and holds it bitwise to `want`.
        fn check(
            &self,
            what: &str,
            (start, want): (Start, &[f32]),
            (rs, cs): (usize, usize),
            f: impl FnOnce(MatMut<'_>),
        ) {
            let (m, n, k) = (self.m, self.n, self.k);
            let mut c = vec![f32::NAN; span(m, n, rs, cs)];
            for (i, &v) in self.c0.iter().enumerate().filter(|_| start == Start::FromC) {
                c[i / n * rs + i % n * cs] = v;
            }
            f(MatMut::new(&mut c, rs, cs));
            for (i, w) in want.iter().enumerate() {
                let (r, j) = (i / n, i % n);
                let got = c[r * rs + j * cs];
                let at = || format!("{what} ({m},{n},{k}) {start:?} ({rs},{cs}) at ({r},{j})");
                assert_eq!(got.to_bits(), w.to_bits(), "{}: {got} != {w}", at());
            }
        }

        /// A as a weight: rows `r0..` and columns `c0..` (`c0 ≤ 2`) of the
        /// pack of a matrix `r0` rows taller and two columns deeper.
        fn weight(&self, r0: usize, c0: usize) -> Vec<f32> {
            let (m, k, kw) = (self.m + r0, self.k, self.k + 2);
            let mut rows = random_mat(&mut StdRng::seed_from_u64(3), m * kw);
            for (dst, src) in rows[r0 * kw..].chunks_mut(kw).zip(self.a.chunks(k)) {
                dst[c0..c0 + k].copy_from_slice(src);
            }
            let (mut w, rs, cs) = (vec![0.0; rows.len()], kw, 1);
            WeightPack { m, k: kw, rs, cs }.pack(&rows, &mut w);
            w
        }

        /// The one twin over every pair of operand forms on `wide`'s tiles,
        /// from C and from zero, into row- and column-major C: A strided
        /// (stored row- or column-major) or a pack (plain, transposed, from a
        /// row off and on a panel edge, from a column); B strided (either
        /// storage), packed, or the leading corner of a pack three columns
        /// wider and a block less one row deeper — its depth ends inside a
        /// `KC` block.
        fn check_entries(&self, wide: Option<Avx512>, tag: &str) {
            let (m, n, k, kw) = (self.m, self.n, self.k, self.k + 2);
            let (a, bv) = (MatRef::row_major(&self.a, k), MatRef::row_major(&self.b, n));
            let (at, bt) = (transposed(&self.a, m, k), transposed(&self.b, k, n));
            let (at, bt) = (MatRef::row_major(&at, m).t(), MatRef::row_major(&bt, k).t());
            let mut whole = vec![f32::NAN; panel_words(n, k)];
            pack_panels(n, k, bv, &mut whole);
            let (pn, pk) = (n + 3, k + KC - 1);
            let mut deep = random_mat(&mut StdRng::seed_from_u64(5), pk * pn);
            for (dst, src) in deep.chunks_mut(pn).zip(self.b.chunks(n)) {
                dst[..n].copy_from_slice(src);
            }
            let mut corner = vec![f32::NAN; panel_words(pn, pk)];
            pack_panels(pn, pk, MatRef::row_major(&deep, pn), &mut corner);
            let (mut w, mut wt) = (vec![0.0; m * k], vec![0.0; m * k]);
            let (rs, cs) = (k, 1);
            WeightPack { m, k, rs, cs }.pack(&self.a, &mut w);
            let (rs, cs) = (1, k);
            WeightPack { m: k, k: m, rs, cs }.pack(&self.a, &mut wt);
            let (w3, wr, wc) = (self.weight(3, 0), self.weight(NR, 0), self.weight(0, 2));
            let p3 = PanelRef::new(&w3, m + 3, kw).from_row(3);
            let pr = PanelRef::new(&wr, m + NR, kw).from_row(NR);
            let pc = PanelRef::new(&wc, m, kw).from_col(2);
            let lhs: [(&str, Lhs<'_>); 7] = [
                ("a", a.into()),
                ("aᵀ-stored", at.into()),
                ("pack", PanelRef::new(&w, m, k).into()),
                ("pack ᵀ", PanelRef::new(&wt, k, m).t().into()),
                ("pack row 3", p3.into()),
                ("pack row NR", pr.into()),
                ("pack column 2", pc.into()),
            ];
            let (panels, corner) = (&whole[..], &corner[..]);
            let rhs: [(&str, Rhs<'_>); 4] = [
                ("b", bv.into()),
                ("bᵀ-stored", bt.into()),
                ("packed", Rhs::Packed { panels, pn: n }),
                ("corner", Rhs::Packed { panels: corner, pn }),
            ];
            for start in [Start::FromC, Start::FromZero] {
                let want = self.want(start);
                for layout in [(n, 1), (1, m + 1)] {
                    let pairs = lhs.iter().flat_map(|l| rhs.iter().map(move |r| (l, r)));
                    for ((an, a), (bn, b)) in pairs {
                        let (what, want) = (format!("{tag} {an} × {bn}"), (start, &want[..]));
                        self.check(&what, want, layout, |c| {
                            gemm_on(m, n, k, *a, *b, c, start, wide)
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn both_tiles_are_the_naive_oracle_at_every_width() {
        let mut rng = StdRng::seed_from_u64(23);
        for wide in tiles() {
            let tag = if wide.is_some() { "512-bit" } else { "256-bit" };
            for (i, &n) in WIDTHS.iter().enumerate() {
                // past a B block, over more than one row block: the shared B
                let m = if n >= NC - 1 { MC + 1 } else { 7 };
                let k = if n <= 2 * NR + 1 && i % 2 == 0 {
                    KC + 1
                } else {
                    3
                };
                Case::new(&mut rng, m, n, k).check_entries(wide, tag);
                // the matrix–vector product: the rows of A are the lanes
                Case::new(&mut rng, n, 1, k).check_entries(wide, tag);
            }
        }
    }

    #[test]
    fn both_tiles_are_the_naive_oracle_at_every_slab_height() {
        // every cut of a row block into slabs of MR, 4, 2 and 1, and row
        // counts either side of one and two row blocks
        let mut rng = StdRng::seed_from_u64(29);
        for wide in tiles() {
            let tag = if wide.is_some() { "512-bit" } else { "256-bit" };
            for m in (1..=2 * MR + 1).chain([MC - 1, MC, MC + 1, 2 * MC + 3]) {
                Case::new(&mut rng, m, 2 * NR + 1, 9).check_entries(wide, tag);
            }
        }
    }

    #[test]
    fn both_tiles_run_interleaved_batch_slices_as_the_naive_oracle() {
        // batch innermost in C: each slice's C is strided (cs = batch), and
        // the slices overlap as word ranges — the contraction driver's loop
        let mut rng = StdRng::seed_from_u64(31);
        let shapes = [
            (3, 7, 1, 9),
            (3, 7, 2 * NR + 1, 9),
            (3, 7, 3 * NR, 9),
            (8, 32, 32, 32),
        ];
        for wide in tiles() {
            for (bsz, m, n, k) in shapes {
                let cases: Vec<Case> = (0..bsz).map(|_| Case::new(&mut rng, m, n, k)).collect();
                let mut c = vec![f32::NAN; bsz * m * n];
                for (g, case) in cases.iter().enumerate() {
                    let (a, b) = (MatRef::row_major(&case.a, k), MatRef::row_major(&case.b, n));
                    let c = MatMut::new(&mut c[g..], n * bsz, bsz);
                    gemm_on(m, n, k, a.into(), b.into(), c, Start::FromZero, wide);
                }
                for (g, case) in cases.iter().enumerate() {
                    let want = (Start::FromZero, &case.want(Start::FromZero)[..]);
                    case.check("batched", want, (n * bsz, bsz), |dst| {
                        for (i, v) in c.iter().enumerate().filter(|(i, _)| i % bsz == g) {
                            dst.data[i - g] = *v;
                        }
                    });
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "a has wrong length")]
    fn sgemm_panics_on_bad_len() {
        let mut c = [0.0; 4];
        sgemm(2, 2, 2, &[0.0; 3], &[0.0; 4], &mut c);
    }

    #[test]
    #[should_panic(expected = "b is too short")]
    fn gemm_panics_on_a_view_that_overruns_its_slice() {
        let mut c = [0.0; 4];
        let short = [0.0; 3];
        gemm(
            2,
            2,
            2,
            MatRef::row_major(&[0.0; 4], 2),
            MatRef::row_major(&short, 2),
            MatMut::row_major(&mut c, 2),
            Start::FromC,
        );
    }
}
