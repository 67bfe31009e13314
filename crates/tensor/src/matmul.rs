//! The one single-precision GEMM: a register-blocked micro-kernel over a
//! packed A block and packed B panels, reading A, B and C through their
//! strides.
//!
//! These are the CPU stand-ins for cuBLAS: every einsum of the encoder
//! layer is lowered onto [`gemm`] (through [`gemm_batched`] and the
//! contraction driver of [`crate::into_ops`]); [`sgemm`] and
//! [`batched_sgemm`] are its row-major wrappers.
//!
//! ```text
//!   for ic in rows   step MC
//!     for pc in depth step KC      A block  MC×KC, packed once into MR-row
//!                                  slabs interleaved along k (L2)
//!       for jc in cols step NR     B panel  KC×NR, packed to the stack (L1)
//!         for slab in block        C tile   MR×NR accumulators (registers)
//!           kernel                 fma(slab[kk][r], panel[kk][j]), kk ascending
//! ```
//!
//! * **Operands are views.** A [`MatRef`]/[`MatMut`] is a slice plus a row
//!   and a column stride, so a transposed or otherwise strided operand costs
//!   no copy of the whole: both packs read their source where it lies (a
//!   contiguous copy when the packed width is unit-stride in the source, a
//!   4-column transposing pack otherwise — one routine, [`NR`] wide for B
//!   and [`MR`] wide over `aᵀ` for A), and C tiles are loaded from and
//!   stored to the destination — or started at `+0.0` under
//!   [`Start::FromZero`], which is what lets callers skip a zero fill.
//! * **The A pack.** Each `MC×KC` block of A is packed once per `(ic, pc)`
//!   and multiplied against every panel of the row: slab `s` holds rows
//!   `s·MR..` as `kc` groups of `MR` words. Rows left over by `MR` are slabs
//!   of one — so no padded row is ever multiplied or stored; a dense single
//!   row, the whole of A in the matrix–vector path, packs as one copy. The
//!   block lives in a thread-local, so packing costs the words packed and
//!   nothing else: no heap, no per-call zeroing; a call reads only the slab
//!   words it wrote.
//! * **Tile sizes.** The build is x86-64-v3 (`.cargo/config.toml`): sixteen
//!   `ymm` of eight lanes and two fused multiply-add ports of four cycles'
//!   latency. `MR×NR = 4×16` is eight accumulators — latency × ports, the
//!   chains that keep both ports busy — two for the B row and one for the
//!   broadcast A word: eleven of the sixteen. `6×16`, whose fifteen leave
//!   nothing spare, measured no better (EXPERIMENTS.md, "FMA in the one
//!   GEMM").
//!   `KC = 256` makes a panel 16 KiB, half of a 32 KiB L1d next to the 4 KiB
//!   slab streaming past it, and a block 64 KiB of L2; `MC = 64` keeps the
//!   rows of C a block touches within a few dozen pages, so the walk down a
//!   16-column panel stays in the TLB.
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
//!   bitwise independent of the tiling, of the vector width the build has,
//!   and of which operand plays A — and of the strides by construction:
//!   the kernel only ever sees packed words. `mul_add` is exact by
//!   definition, so a build without the instruction computes the same bits
//!   through a software `fmaf`, only slower. Padded lanes of an edge panel
//!   multiply zeros and are never stored.
//! * **Matrix–vector shapes** (`n == 1`) run as the transposed problem
//!   `cᵀ = bᵀ·aᵀ` through the same kernel: the rows of A become the sixteen
//!   lanes, the transposing pack is the only extra work, and the exact
//!   product inside `mul_add` commutes, so the bits do not move. The choice
//!   is made from `m` and `n` alone.

use std::cell::RefCell;

/// Rows of the register tile: the height of a packed A slab.
pub const MR: usize = 4;
/// Columns of the register tile: the width of a packed B panel.
pub const NR: usize = 16;
/// Depth of a packed B panel.
pub const KC: usize = 256;
/// Rows of a cache block.
pub const MC: usize = 64;

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
        MatRef::new(
            &self.data[(r * self.rs).min(self.data.len())..],
            self.rs,
            self.cs,
        )
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

/// Computes `c (+)= a × b` for `a` (`m×k`), `b` (`k×n`) and `c` (`m×n`)
/// given as strided views.
///
/// # Panics
///
/// Panics if a view's slice is too short for its dimensions and strides.
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
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: MatMut<'_>,
    start: Start,
) {
    assert!(a.data.len() >= span(m, k, a.rs, a.cs), "a is too short");
    assert!(b.data.len() >= span(k, n, b.rs, b.cs), "b is too short");
    assert!(c.data.len() >= span(m, n, c.rs, c.cs), "c is too short");
    if n == 1 && m > 1 {
        // matrix–vector: cᵀ = bᵀ·aᵀ puts the rows of A in the lanes
        blocks(1, m, k, b.t(), Panels::Strided(a.t()), c.t(), start);
    } else {
        blocks(m, n, k, a, Panels::Strided(b), c, start);
    }
}

/// Words [`pack_panels`] writes for a `k×n` operand: every column panel
/// padded to [`NR`] lanes.
pub fn panel_words(n: usize, k: usize) -> usize {
    k * n.div_ceil(NR) * NR
}

/// Packs all of `b` (`k×n`) into `dst` as [`gemm_packed`] reads it: `KC`
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

/// [`gemm`] against a B already packed by [`pack_panels`].
///
/// # Panics
///
/// Panics if `panels` is shorter than [`panel_words`] or a view's slice is
/// too short.
pub fn gemm_packed(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef<'_>,
    panels: &[f32],
    c: MatMut<'_>,
    start: Start,
) {
    assert!(a.data.len() >= span(m, k, a.rs, a.cs), "a is too short");
    assert!(c.data.len() >= span(m, n, c.rs, c.cs), "c is too short");
    let panels = &panels[..panel_words(n, k)];
    blocks(m, n, k, a, Panels::Packed(panels), c, start);
}

/// `c = a × b` over the leading `n` columns and the leading `depth` rows of
/// a `b` that [`pack_panels`] packed `pn` columns wide into `panels` — the
/// whole pack and no more, which is where its depth is read from: one
/// [`gemm_packed`] per `KC` block of the pack, each after the first started
/// from C — the store and reload [`gemm`] itself makes between its blocks,
/// so the bits are those of one GEMM over the corner. `c` is element
/// `(0, 0)` onward with `(row, column)` strides `at`.
///
/// # Panics
///
/// As [`gemm_packed`]; if `panels` is not a whole number of `pn`-column
/// rows (a scratch slice longer than the pack reads as a deeper pack); and
/// if `depth` ends inside a block of the pack — neither a multiple of [`KC`]
/// nor the pack's last row — where a shallower block's panels would be cut
/// at the wrong words.
#[allow(clippy::too_many_arguments)] // a GEMM's dimensions and operands
pub fn gemm_packed_leading(
    m: usize,
    n: usize,
    depth: usize,
    a: MatRef<'_>,
    panels: &[f32],
    pn: usize,
    c: &mut [f32],
    at: (usize, usize),
) {
    let npad = pn.div_ceil(NR) * NR;
    let pk = panels.len().checked_div(npad).unwrap_or(0);
    assert_eq!(
        panels.len(),
        panel_words(pn, pk),
        "panels is not a whole pack {pn} columns wide"
    );
    assert!(
        depth == pk || (depth < pk && depth.is_multiple_of(KC)),
        "a leading depth of {depth} ends inside a block of a pack {pk} deep"
    );
    for pc in (0..depth).step_by(KC) {
        let a_blk = MatRef::new(&a.data[(pc * a.cs).min(a.data.len())..], a.rs, a.cs);
        let start = if pc == 0 {
            Start::FromZero
        } else {
            Start::FromC
        };
        let (kc, c) = (KC.min(depth - pc), MatMut::new(c, at.0, at.1));
        gemm_packed(m, n, kc, a_blk, &panels[pc * npad..], c, start);
    }
}

/// Where the block loop gets its B panels.
#[derive(Clone, Copy)]
enum Panels<'a> {
    /// Packed on the fly from the strided source, once per row block.
    Strided(MatRef<'a>),
    /// Cut from a [`pack_panels`] buffer.
    Packed(&'a [f32]),
}

thread_local! {
    /// The packed A block of [`blocks`]: one per thread, never zeroed again
    /// — a call packs exactly the words it then reads.
    static A_BLOCK: RefCell<[f32; MC * KC]> = const { RefCell::new([0.0; MC * KC]) };
}

/// The block loop nest around [`kernel`].
fn blocks(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef<'_>,
    b: Panels<'_>,
    mut c: MatMut<'_>,
    start: Start,
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
    let mut stack = [0.0f32; KC * NR];
    A_BLOCK.with_borrow_mut(|block| {
        for ic in (0..m).step_by(MC) {
            let mc = MC.min(m - ic);
            // rows of the block in whole slabs; the rest are slabs of one
            let tiled = mc - mc % MR;
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                for (s, slab) in block[..tiled * kc].chunks_exact_mut(MR * kc).enumerate() {
                    pack_panel::<MR>(slab, a.t(), pc, ic + s * MR, MR);
                }
                for r in tiled..mc {
                    pack_panel::<1>(&mut block[r * kc..][..kc], a.t(), pc, ic + r, 1);
                }
                let from_zero = start == Start::FromZero && pc == 0;
                for jc in (0..n).step_by(NR) {
                    let nr = NR.min(n - jc);
                    let panel = match b {
                        Panels::Strided(b) => {
                            pack_panel::<NR>(&mut stack[..kc * NR], b, pc, jc, nr);
                            &stack[..kc * NR]
                        }
                        Panels::Packed(p) => &p[pc * npad + jc * kc..][..kc * NR],
                    };
                    for (s, slab) in block[..tiled * kc].chunks_exact(MR * kc).enumerate() {
                        accumulate::<MR>(slab, panel, &mut c, (ic + s * MR, jc), nr, from_zero);
                    }
                    for (r, row) in block[tiled * kc..mc * kc].chunks_exact(kc).enumerate() {
                        accumulate::<1>(row, panel, &mut c, (ic + tiled + r, jc), nr, from_zero);
                    }
                }
            }
        }
    });
}

/// Packs rows `pc..pc + panel.len()/W`, columns `jc..jc + nr` of `b` into
/// `panel`, `W` words per row; lanes from `nr` up are zero. With `W = NR`
/// that is a B panel; over `a.t()` with `W = nr = MR` (or 1) it is a slab
/// of A, its `MR` rows interleaved along `k`.
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

/// One `R×NR` tile of C at `(ir, jc)` against one slab and one panel: the
/// accumulators are loaded from C (or `+0.0`), run through [`kernel`] and
/// stored, `nr` lanes of each.
#[inline(always)]
fn accumulate<const R: usize>(
    slab: &[f32],
    panel: &[f32],
    c: &mut MatMut<'_>,
    (ir, jc): (usize, usize),
    nr: usize,
    from_zero: bool,
) {
    let c_at = ir * c.rs + jc * c.cs;
    let mut acc = [[0.0f32; NR]; R];
    let dense = c.cs == 1 && nr == NR;
    if !from_zero {
        for (r, row) in acc.iter_mut().enumerate() {
            if dense {
                row.copy_from_slice(&c.data[c_at + r * c.rs..][..NR]);
            } else {
                for (j, v) in row.iter_mut().take(nr).enumerate() {
                    *v = c.data[c_at + r * c.rs + j * c.cs];
                }
            }
        }
    }
    kernel::<R>(slab, panel, &mut acc);
    for (r, row) in acc.iter().enumerate() {
        if dense {
            c.data[c_at + r * c.rs..][..NR].copy_from_slice(row);
        } else {
            for (j, &v) in row.iter().take(nr).enumerate() {
                c.data[c_at + r * c.rs + j * c.cs] = v;
            }
        }
    }
}

/// The micro-kernel — the only statement of GEMM arithmetic in the crate:
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

/// One read-only operand of [`gemm_batched`].
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

/// The output operand of [`gemm_batched`].
#[derive(Debug)]
pub struct BatchMut<'a> {
    /// The words, starting at element `(0, 0)` of slice 0.
    pub data: &'a mut [f32],
    /// Where each slice's elements lie.
    pub at: BatchStrides,
}

/// Runs `batch` independent GEMMs `c[g] (+)= a[g] × b[g]` over strided
/// slices, on up to `threads` scoped threads.
///
/// Slices are spread over threads only when those of `c` are disjoint
/// word ranges (`c.bs` at least one slice's reach — each thread then owns
/// a `split_at_mut` range) and the problem is large enough to pay for the
/// spawns; otherwise, and with `threads <= 1`, they run in order on the
/// calling thread. Results are bitwise the same either way.
///
/// # Panics
///
/// Panics if an operand's slice is too short for `batch` slices.
#[allow(clippy::too_many_arguments)] // a GEMM's dimensions and operands
pub fn gemm_batched(
    batch: usize,
    m: usize,
    n: usize,
    k: usize,
    a: BatchRef<'_>,
    b: BatchRef<'_>,
    c: BatchMut<'_>,
    start: Start,
    threads: usize,
) {
    if batch == 0 {
        return;
    }
    let BatchStrides { bs, rs, cs } = c.at;
    let reach = span(m, n, rs, cs);
    assert!(c.data.len() >= (batch - 1) * bs + reach, "c is too short");
    // `c` starts at slice `lo`
    let run = |c: &mut [f32], lo: usize, hi: usize| {
        for g in lo..hi {
            let c_g = MatMut::new(&mut c[(g - lo) * bs..], rs, cs);
            gemm(m, n, k, a.slice(g), b.slice(g), c_g, start);
        }
    };
    let threads = threads.min(batch);
    // below ~64k FMAs the spawn overhead dominates
    if threads <= 1 || bs < reach || batch * m * n * k < (1 << 16) {
        run(c.data, 0, batch);
        return;
    }
    std::thread::scope(|s| {
        let mut rest = c.data;
        let mut lo = 0usize;
        for t in 0..threads {
            let hi = (t + 1) * batch / threads;
            let cut = if hi == batch {
                rest.len()
            } else {
                (hi - lo) * bs
            };
            let (mine, tail) = rest.split_at_mut(cut);
            rest = tail;
            let run = &run;
            s.spawn(move || run(mine, lo, hi));
            lo = hi;
        }
    });
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
    gemm(
        m,
        n,
        k,
        MatRef::row_major(a, k),
        MatRef::row_major(b, n),
        MatMut::row_major(c, n),
        Start::FromC,
    );
}

/// Computes `c[g] += a[g] × b[g]` for `batch` independent GEMMs stored
/// contiguously (`a`: `batch×m×k`, `b`: `batch×k×n`, `c`: `batch×m×n`).
///
/// Batch slices are independent, so they are spread across the host's
/// cores (see [`gemm_batched`]); small problems stay on the calling thread.
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
    gemm_batched(
        batch,
        m,
        n,
        k,
        BatchRef {
            data: a,
            at: BatchStrides::dense(m, k),
        },
        BatchRef {
            data: b,
            at: BatchStrides::dense(k, n),
        },
        BatchMut {
            data: c,
            at: BatchStrides::dense(m, n),
        },
        Start::FromC,
        host_threads(),
    );
}

/// The thread count the allocating entry points hand [`gemm_batched`].
pub(crate) fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |t| t.get())
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
        let mut panels = vec![f32::NAN; panel_words(pn, pk)];
        pack_panels(pn, pk, MatRef::row_major(&b, pn), &mut panels);
        let at = MatRef::new(&a, 1, m); // A stored k-major
        for (n, depth) in [(pn, pk), (NR + 2, KC), (3 * NR, 2 * KC), (1, pk)] {
            let mut want = vec![f32::NAN; m * n];
            let (bw, c) = (MatRef::row_major(&b, pn), MatMut::row_major(&mut want, n));
            gemm(m, n, depth, at, bw, c, Start::FromZero);
            let mut got = vec![f32::NAN; m * n];
            gemm_packed_leading(m, n, depth, at, &panels, pn, &mut got, (1, m));
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
    fn a_leading_depth_that_ends_inside_a_block_is_refused_not_miscomputed() {
        // the per-block calls the function makes, unchecked as they were:
        // the block that ends early cuts its panels `jc·kc` words in where
        // the pack laid them `jc·KC` in, so every column past the first
        // `NR` is wrong — silently
        let mut rng = StdRng::seed_from_u64(19);
        let (m, n, pk, depth) = (3, 2 * NR, 2 * KC, KC + 7);
        let a = random_mat(&mut rng, m * pk);
        let b = random_mat(&mut rng, pk * n);
        let mut panels = vec![f32::NAN; panel_words(n, pk)];
        pack_panels(n, pk, MatRef::row_major(&b, n), &mut panels);
        let (av, bv) = (MatRef::row_major(&a, pk), MatRef::row_major(&b, n));
        let mut want = vec![f32::NAN; m * n];
        gemm(
            m,
            n,
            depth,
            av,
            bv,
            MatMut::row_major(&mut want, n),
            Start::FromZero,
        );
        let mut got = vec![f32::NAN; m * n];
        let c = MatMut::row_major(&mut got, n);
        gemm_packed(m, n, KC, av, &panels, c, Start::FromZero);
        let (tail, c) = (
            MatRef::row_major(&a[KC..], pk),
            MatMut::row_major(&mut got, n),
        );
        gemm_packed(m, n, depth - KC, tail, &panels[KC * n..], c, Start::FromC);
        for (g, w) in got.chunks(n).zip(want.chunks(n)) {
            assert_eq!(g[..NR], w[..NR]);
            assert!(g[NR..].iter().zip(&w[NR..]).all(|(g, w)| g != w));
        }
        let refused = std::panic::catch_unwind(|| {
            let mut c = vec![0.0; m * n];
            gemm_packed_leading(m, n, depth, av, &panels, n, &mut c, (n, 1));
        });
        let message = *refused.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("ends inside a block"), "{message}");
    }

    #[test]
    #[should_panic(expected = "not a whole pack")]
    fn a_slice_longer_than_its_pack_is_refused() {
        let panels = vec![0.0; panel_words(NR + 1, 3) + 1];
        let a = MatRef::row_major(&[0.0; 3], 3);
        gemm_packed_leading(1, 1, 3, a, &panels, NR + 1, &mut [0.0], (1, 1));
    }

    #[test]
    fn a_pack_of_no_columns_has_nothing_to_multiply() {
        let mut c = [f32::NAN];
        gemm_packed_leading(1, 0, 0, MatRef::row_major(&[], 0), &[], 0, &mut c, (1, 1));
        assert!(c[0].is_nan());
    }

    fn batch_of<'a>(data: &'a [f32], rows: usize, cols: usize) -> BatchRef<'a> {
        BatchRef {
            data,
            at: BatchStrides::dense(rows, cols),
        }
    }

    #[test]
    fn batched_threads_match_the_serial_loop_bitwise() {
        // large enough that batch slices are spread across threads
        let mut rng = StdRng::seed_from_u64(11);
        let (bsz, m, n, k) = (8, 32, 32, 32);
        assert!(bsz * m * n * k >= 1 << 16);
        let a = random_mat(&mut rng, bsz * m * k);
        let b = random_mat(&mut rng, bsz * k * n);
        let run = |threads: usize| {
            let mut c = vec![f32::NAN; bsz * m * n];
            let c_view = BatchMut {
                data: &mut c,
                at: BatchStrides::dense(m, n),
            };
            let (a, b) = (batch_of(&a, m, k), batch_of(&b, k, n));
            gemm_batched(bsz, m, n, k, a, b, c_view, Start::FromZero, threads);
            c
        };
        let serial = run(1);
        assert_eq!(run(4), serial);
        for g in 0..bsz {
            let mut expect = vec![0.0; m * n];
            naive_sgemm(
                m,
                n,
                k,
                &a[g * m * k..(g + 1) * m * k],
                &b[g * k * n..(g + 1) * k * n],
                &mut expect,
            );
            assert_eq!(&serial[g * m * n..(g + 1) * m * n], expect.as_slice());
        }
        let mut c = vec![0.0; bsz * m * n];
        batched_sgemm(bsz, m, n, k, &a, &b, &mut c);
        assert_eq!(c, serial);
    }

    #[test]
    fn interleaved_batch_slices_of_c_run_in_order() {
        // batch innermost in C: slices overlap as word ranges, so the
        // threaded split must not be taken
        let mut rng = StdRng::seed_from_u64(13);
        let (bsz, m, n, k) = (8, 32, 32, 32);
        let a = random_mat(&mut rng, bsz * m * k);
        let b = random_mat(&mut rng, bsz * k * n);
        let mut c = vec![f32::NAN; bsz * m * n];
        let c_view = BatchMut {
            data: &mut c,
            at: BatchStrides {
                bs: 1,
                rs: n * bsz,
                cs: bsz,
            },
        };
        let (av, bv) = (batch_of(&a, m, k), batch_of(&b, k, n));
        gemm_batched(bsz, m, n, k, av, bv, c_view, Start::FromZero, 4);
        let mut dense = vec![0.0; bsz * m * n];
        batched_sgemm(bsz, m, n, k, &a, &b, &mut dense);
        for g in 0..bsz {
            for i in 0..m * n {
                assert_eq!(c[i * bsz + g], dense[g * m * n + i]);
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
