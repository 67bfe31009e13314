//! The kernel layer, forward and backward: one safe body per kernel,
//! written against a *lane* — the words one reduction sweeps — and generic
//! over how the lane is addressed.
//!
//! ```text
//!   primitive          exp — the one transcendental: softmax, GELU both ways
//!        │             (on the sigmoid identity) and the sampler stand on it
//!   lane bodies        softmax_lane · norm_lane        (a run's panels of W lanes,
//!        │             softmax_dx_lane · norm_dx_lane · norm_dw_lane   W = 1 a lane)
//!        │             map_lane · zip_lane · acc_lane · dropout_lane · brd_lane
//!        │             bdr_lane · bdrb_lane · Dropout::mask
//!   lane dispatch      on_run! — binds every swept operand of a run to its view
//!        │             run of 1, contiguous → exact `[f32]` chunks        (Walk::Lane)
//!        │             ≤ PANELS panels of n = 16 (8, 4, 2 at a row's end)
//!        │               → `Rows`, side by side, n words a panel row      (Walk::Panel)
//!        │             run of 1, strided → bounds-checked `Strided`       (Walk::Strided)
//!   lane enumerator    into_ops::Sweep (logical order, one view per operand;
//!        │             decides the walk, cuts each row of lanes into runs)
//!        ├── view drivers    into_ops::*_into, the epilogue tile driver, the
//!        │                   attention region (softmax_lane per query row of its panel)
//!        └── tensor drivers  ops::{softmax, layernorm, bias_add, zip_map, dropout} and
//!                            their `*_backward*`, bias_grad, fused::{sm*, brd*, bdrln,
//!                            bs, blnrd, ebsb, bdrb_act}
//!                            (a `Sweep` over their tensors' own strides)
//! ```
//!
//! The backward bodies each serve an unfused operator and the fused kernel
//! the paper builds on it: softmax dX with an optional mask and scale
//! (`softmax_backward`, BS), layer-norm dX with an optional dropout tail
//! (`layernorm_backward_input`, BLNRD), layer-norm dγ/dβ with an optional
//! residual-join head (`layernorm_backward_weights`, EBSB); BDRB is the
//! element-wise `bdrb_lane`, beside `zip_lane` (dropout dX, activation dX,
//! the residual join) and `acc_lane` (bias dW) for its operators — so a
//! fused kernel is its operator chain bit for bit. Saved
//! statistics are read at the run's lane ordinal, the order the forward
//! wrote them in, and every dW word sums its addends in logical lane order.
//!
//! # Three walks
//!
//! A statistical normalization reduces along one logical axis and must
//! visit its lanes in logical order (statistics are emitted in that
//! order), but the axis it *vectorizes* along is free — the
//! paper tunes the two separately per kernel (Sec. V, Fig. 5). Which walk a
//! sweep runs is [`Sweep::walk`](crate::into_ops::Sweep::walk), a function
//! of the strides the compiled sweep holds and nothing else — never an
//! option, a certificate or the kernel's name:
//!
//! * [`Walk::Lane`] — the lane is contiguous in every swept operand: each
//!   lane is an exact `[f32]` chunk, whose bounds checks the compiler hoists
//!   out of the loops (the attention softmax over `[h,b,j,k]` along `k` —
//!   as the `SM` step of a recipe-lowered plan, or row by row of the
//!   attention region's scratch panel, where no such tensor exists — and
//!   BS, its backward, over the same tensors);
//! * [`Walk::Panel`] — the lane is strided, but the innermost loop *outside*
//!   it steps by one word in every swept operand, so adjacent lanes are
//!   adjacent words: a row of lanes (that loop) is handed to a body as runs
//!   of up to [`PANELS`] side-by-side panels of [`W`] lanes, and each pass
//!   takes lane position `v` of every panel of the run before `v + 1` —
//!   storage order: a run's row at `v` is up to `PANELS · W` adjacent words
//!   of each operand — reduction index outer, panels then lanes inner, each
//!   panel's accumulators side by side in a stack array (every layer norm
//!   over `[i,b,j]` along `i`, forward and — dX, dW, BLNRD, BLNR, EBSB —
//!   backward; softmax dX and BS). The forward softmax (the vocabulary
//!   softmax over `[v,b,j]` along `v`) takes a run's panels one after the
//!   other (see `softmax_lane`);
//! * [`Walk::Strided`] — neither: one lane at a time through a
//!   bounds-checked strided view, every word its own cache line.
//!
//! A broadcast operand (a zero stride: the bias and its gradient, γ, β,
//! dγ, dβ) is gathered, never swept, and takes no part in the choice. An
//! element-wise sweep (BRD, BDRB and the unfused operators they fuse) names
//! no lane axis — its lane is whatever loop is innermost — and never panels.
//! Nor does a causal sweep whose panel axis would be the query axis: the
//! lanes of a panel share one `visible` (no canned plan has one — `SM`'s
//! lane is contiguous in all of them).
//!
//! # Why a panel keeps every bit
//!
//! The bodies are written once over a `W`-wide row (`[f32; W]`) and `W = 1`
//! is the lane-at-a-time instantiation. Lane `w` of a panel performs
//! exactly the operations lane `w` alone would, in the same order — its own
//! maximum, its own sum, its own `(mean, inv_std)` — and nothing is
//! reassociated across lanes; lane-wise vector arithmetic is the scalar
//! arithmetic.
//!
//! The softmax's two reductions have one shape, defined on the lane and not
//! on the walk: [`BLOCK`] = 16 partials, partial `k` taking the positions
//! `v ≡ k (mod 16)` in ascending order, joined by one fixed halving tree
//! (`k` takes `k + 8`, then `k + 4`, `k + 2`, `k + 1`). Sixteen independent
//! chains are what lets a *contiguous* lane run sixteen positions abreast —
//! a serial `maxss`/`addss` chain is four cycles a word, whatever `exp`
//! costs — and because the shape belongs to the lane, each walk is free to
//! realize it its own way: a contiguous lane loads a block as one piece and
//! keeps `[f32; 16]` of partials in vector registers — its three passes
//! (the maximum, the exponentials and their sum, the normalization with
//! its dropout tail) each take whole blocks, the last one padded, and
//! `tools/kernel_asm.sh` fails the build's assembly if a scalar
//! `maxss`/`addss`/`mulss`/`subss` is back inside their loops — a panel
//! keeps `[[f32; W]; 16]` and adds row `v` to partial `v mod 16`, a strided
//! lane gathers its sixteen words first. The interleaved partials of one lane
//! are again lane-wise vector arithmetic — partial `k` never meets partial
//! `k′` before the tree — so the three agree to the bit, and a lane's
//! result depends on its values and its length only: never on the walk,
//! the attention region's tile or a decode bucket. The element-wise bodies
//! (BRD, BDRB) take the same sixteen positions a block, for the arithmetic
//! between a block's loads and stores to vectorize; they reduce nothing,
//! so there the block is invisible in the bits.
//!
//! Nor does the order a run's panels are taken in: lanes never meet, so
//! taking position `v` of every panel before `v + 1` (storage order) is the
//! same arithmetic on each lane as taking all of one panel's positions
//! first.
//!
//! Where lanes do meet — a word of dγ or dβ sums over all of them — a row's
//! lanes are added one after the other, panels ascending and in each
//! ascending `w`, which is the lane order. Data-dependent rules are per
//! lane too: a lane whose visible inputs are all `−inf` is zeroed while its
//! neighbours normalize, a NaN poisons its own lane only.
//!
//! # Masks
//!
//! A dropout mask is computed where it is written, never drawn: the mask
//! of index `n` is a pure function of the step's key and `n`
//! ([`Dropout::mask`]), and an element's index is a function of its
//! position alone — its row-major logical index in an element-wise kernel,
//! `start(l) + v` in a lane kernel, where `start(l)` counts the visible
//! positions of the lanes before lane `l` in logical order. A walk, a
//! panel, a tile or a thread therefore computes any element's mask in any
//! order, and a panel computes its lanes' masks row by row as it sweeps.
//! A dead lane writes zero masks and still uses up its indices, so no lane
//! after it shifts. Nothing is computed at `p = 0`, where every mask is
//! `1`.
//!
//! # `W` and `PANELS`
//!
//! [`W`] = 16 lanes is one 64-byte cache line a row and eight SSE2 (four
//! AVX2, two AVX-512) accumulator registers for the two moments; the
//! panel bodies keep the build's 256-bit lanes (see "Widths"). Measured once, on the
//! SSE2 build, at 8, 16 and 32 (EXPERIMENTS.md, "Panel sweeps"): 8,
//! which fetches every line in two panels, is 15–25 % slower on the
//! vocabulary softmax; 32 ties 16 within the run-to-run spread and doubles
//! the accumulator state. A row of lanes that is not a multiple of `W` long
//! ends in halved panels (8, 4, 2) and at most one last lane alone, so no
//! lane is padded and no work is wasted. It is a constant like
//! [`crate::matmul::NR`], not an option.
//!
//! [`PANELS`] = 32 panels — 512 lanes, a 2 KB row of each operand — is the
//! most a run holds side by side; it is a measured constant too. Taken
//! panel by panel, a row walked each operand at the row's pitch (2 KB at
//! `bert_fwd`'s `[i,b,j]`) through all its positions, twice: BDRLN's five
//! streams aliased in the caches and ran at ≈ 2 GB/s. In storage order
//! every position is a stretch of adjacent lines. On the norm steps at the
//! five workloads' dims (EXPERIMENTS.md, "Norm panels in storage order")
//! 8 panels left BDRLN at 1.1 ms, 16 at 0.85 and 32 — the whole 512-lane
//! row — at 0.6; 64 tied 32 where a row is longer. The state is `P` rows
//! of accumulators a moment on the stack, where `P` is the most panels a
//! run of the body's width holds: `PANELS` for `W`, one for a halving or a
//! lane (`on_run!` binds it), so a lane's state is what it was.
//!
//! # Widths
//!
//! The bodies are compiled for the build's 256-bit lanes, and where the
//! host has AVX-512F the ones whose time is [`exp`]'s element rate run on
//! 512-bit lanes too: the contiguous softmax ([`Walk::Lane`]'s plain and
//! fused softmax, the attention region's and the head's row tails), BRD's
//! GELU and BDRB's GELU′ over a contiguous lane. A driver hands its loop
//! — a tile's rows, or one run of a sweep (`on_run!`'s `wide` form) — to
//! `crate::isa::widest!`, and the bodies it calls are `#[inline(always)]`,
//! so each is inlined whole into one out-of-line instantiation a width; `tools/kernel_asm.sh` reads both for their
//! vectors and for calls left inside their loops. The norm bodies and the
//! panel softmax are never handed there: a whole-crate AVX-512F build ran
//! them slower (EXPERIMENTS.md, "Softmax and GELU on 512-bit lanes"). The
//! bits are the same at either width — no body has a `mul_add` and every
//! reduction is lane-wise — which
//! `tests::both_widths_give_every_dispatched_body_the_same_bits` holds for
//! every dispatched body.
//!
//! Drivers only enumerate lanes; every statement of arithmetic, the one
//! dropout mask and the one transcendental are here.

use std::ops::{Deref, DerefMut};

use crate::error::{Result, TensorError};
use crate::ops::elementwise::ActivationKind;
use crate::ops::layernorm::EPS;

/// Read access to the words of one lane.
pub(crate) trait Lane {
    /// Number of lane positions.
    fn lane_len(&self) -> usize;
    /// The word at lane position `v`.
    fn get(&self, v: usize) -> f32;
    /// The `n ≤ BLOCK` words from position `v0`; what pads the rest of the
    /// block is unspecified and never stored.
    fn load(&self, v0: usize, n: usize) -> [f32; BLOCK];
}

/// Write access to the words of one lane.
pub(crate) trait LaneMut: Lane {
    /// Stores `val` at lane position `v`.
    fn set(&mut self, v: usize, val: f32);
    /// Whether every position of the lane is one word (a zero stride).
    fn one_word(&self) -> bool {
        false
    }
    /// Stores the first `n ≤ BLOCK` words of `block` from position `v0`.
    fn store(&mut self, v0: usize, n: usize, block: [f32; BLOCK]);
}

impl Lane for [f32] {
    #[inline]
    fn lane_len(&self) -> usize {
        self.len()
    }
    #[inline]
    fn get(&self, v: usize) -> f32 {
        self[v]
    }
    #[inline]
    fn load(&self, v0: usize, n: usize) -> [f32; BLOCK] {
        // a whole block is one copy of known size
        let words = &self[v0..v0 + n];
        words.try_into().unwrap_or_else(|_| {
            let mut block = [0.0; BLOCK];
            block[..n].copy_from_slice(words);
            block
        })
    }
}

impl LaneMut for [f32] {
    #[inline]
    fn set(&mut self, v: usize, val: f32) {
        self[v] = val;
    }
    #[inline]
    fn store(&mut self, v0: usize, n: usize, block: [f32; BLOCK]) {
        let words = &mut self[v0..v0 + n];
        match <&mut [f32; BLOCK]>::try_from(&mut *words) {
            Ok(whole) => *whole = block,
            Err(_) => words.copy_from_slice(&block[..n]),
        }
    }
}

/// A bounds-checked strided view of one lane (`D` is `&[f32]` or
/// `&mut [f32]`, starting at lane position 0).
#[derive(Debug)]
pub(crate) struct Strided<D> {
    data: D,
    stride: usize,
    len: usize,
}

impl<D: Deref<Target = [f32]>> Lane for Strided<D> {
    #[inline]
    fn lane_len(&self) -> usize {
        self.len
    }
    #[inline]
    fn get(&self, v: usize) -> f32 {
        self.data[v * self.stride]
    }
    #[inline(always)]
    fn load(&self, v0: usize, n: usize) -> [f32; BLOCK] {
        // a bias is one word a lane or one word a position, and neither is
        // a gather: sixteen scalar stores read back as vectors would stall
        // every block on store forwarding
        match self.stride {
            0 => [self.data[0]; BLOCK],
            1 => self.data.load(v0, n),
            // a loop, not `array::from_fn`: its closure stayed out of line
            // in the 512-bit instantiations, a call a block
            _ => {
                let mut block = [0.0; BLOCK];
                for (k, word) in block[..n].iter_mut().enumerate() {
                    *word = self.get(v0 + k);
                }
                block
            }
        }
    }
}

impl<D: DerefMut<Target = [f32]>> LaneMut for Strided<D> {
    #[inline]
    fn set(&mut self, v: usize, val: f32) {
        self.data[v * self.stride] = val;
    }
    #[inline]
    fn one_word(&self) -> bool {
        self.stride == 0
    }
    #[inline]
    fn store(&mut self, v0: usize, n: usize, block: [f32; BLOCK]) {
        for (k, &word) in block[..n].iter().enumerate() {
            self.set(v0 + k, word);
        }
    }
}

/// Read access to `W` adjacent lanes at once, in side-by-side panels: the
/// row at lane position `v` of panel `p` holds that position of the panel's
/// lanes, and panel `p + 1`'s lanes follow panel `p`'s. Every [`Lane`] is
/// one panel of one.
pub(crate) trait Panel<const W: usize> {
    /// Number of lane positions (rows).
    fn rows(&self) -> usize;
    /// Number of panels side by side.
    #[inline(always)]
    fn panels(&self) -> usize {
        1
    }
    /// The `W` words at lane position `v` of panel `p`.
    fn row(&self, p: usize, v: usize) -> [f32; W];
    /// The `n ≤ BLOCK` rows of panel `p` from position `v0`; what pads the
    /// rest of the block is unspecified and never stored.
    #[inline]
    fn block(&self, p: usize, v0: usize, n: usize) -> Block<W> {
        std::array::from_fn(|k| if k < n { self.row(p, v0 + k) } else { [0.0; W] })
    }
}

/// Write access to `W` adjacent lanes, in side-by-side panels.
pub(crate) trait PanelMut<const W: usize>: Panel<W> {
    /// Stores the `W` words at lane position `v` of panel `p`.
    fn set_row(&mut self, p: usize, v: usize, val: [f32; W]);
    /// Stores the first `n ≤ BLOCK` rows of `block` in panel `p` from
    /// position `v0`.
    #[inline]
    fn set_block(&mut self, p: usize, v0: usize, n: usize, block: Block<W>) {
        (0..n).for_each(|k| self.set_row(p, v0 + k, block[k]));
    }
}

impl<L: Lane + ?Sized> Panel<1> for L {
    #[inline]
    fn rows(&self) -> usize {
        self.lane_len()
    }
    #[inline]
    fn row(&self, _: usize, v: usize) -> [f32; 1] {
        [self.get(v)]
    }
    /// The words in one piece: sixteen positions abreast.
    #[inline]
    fn block(&self, _: usize, v0: usize, n: usize) -> Block<1> {
        let mut block = [[0.0]; BLOCK];
        for (row, word) in block.iter_mut().zip(self.load(v0, n)) {
            *row = [word];
        }
        block
    }
}

impl<L: LaneMut + ?Sized> PanelMut<1> for L {
    #[inline]
    fn set_row(&mut self, _: usize, v: usize, val: [f32; 1]) {
        self.set(v, val[0]);
    }
    #[inline]
    fn set_block(&mut self, _: usize, v0: usize, n: usize, block: Block<1>) {
        self.store(v0, n, block.map(|[word]| word));
    }
}

/// A bounds-checked view of adjacent strided lanes whose rows are
/// contiguous (`D` is `&[f32]` or `&mut [f32]`, starting at position 0 of
/// the first lane): side-by-side panels of any width the buffer holds.
#[derive(Debug)]
pub(crate) struct Rows<D> {
    data: D,
    stride: usize,
    len: usize,
    panels: usize,
}

impl<const W: usize, D: Deref<Target = [f32]>> Panel<W> for Rows<D> {
    #[inline]
    fn rows(&self) -> usize {
        self.len
    }
    #[inline(always)]
    fn panels(&self) -> usize {
        self.panels
    }
    #[inline]
    fn row(&self, p: usize, v: usize) -> [f32; W] {
        let at = v * self.stride + p * W;
        let row: &[f32; W] = self.data[at..at + W]
            .try_into()
            .expect("a W-word slice is a W-word row");
        *row
    }
}

impl<const W: usize, D: DerefMut<Target = [f32]>> PanelMut<W> for Rows<D> {
    #[inline]
    fn set_row(&mut self, p: usize, v: usize, val: [f32; W]) {
        let at = v * self.stride + p * W;
        self.data[at..at + W].copy_from_slice(&val);
    }
}

/// Lanes the widest panel runs abreast; see the module docs. Narrower
/// panels are its halvings down to two.
pub const W: usize = 16;

/// Panels of [`W`] lanes a run holds side by side at most: the chunk of a
/// row of lanes a panel body takes in storage order; see the module docs.
pub const PANELS: usize = 32;

/// Consecutive lane positions a body takes abreast — one cache line — and
/// the number of partial maxima and sums a softmax lane keeps; see the
/// module docs.
pub const BLOCK: usize = 16;

/// [`BLOCK`] rows of `W` lanes: what a body takes at a time.
pub(crate) type Block<const W: usize> = [[f32; W]; BLOCK];

/// `eˣ`: the one transcendental of the kernel layer, under the softmax,
/// both directions of GELU and the sampler.
///
/// Within 1.5 ulp of the exact value (0.99 measured over every `f32`) where
/// that is a normal number. A result below the normal range is **flushed**:
/// `x < −87.336…` gives `+0`, never a denormal. `x > 88.722…` gives `+inf`,
/// `exp(±0)` is exactly `1`, a NaN stays a NaN.
///
/// Branch-free — the selects compile to masks — and spelled with `*`, `+`
/// and `−` only, never `mul_add` (only the GEMM's kernel fuses): sixteen
/// calls side by side vectorize, and rustc contracts no `a*b + c`, so the
/// `x86-64-v3` build yields wider vectors than SSE2's and the same bits.
#[inline]
pub fn exp(x: f32) -> f32 {
    /// `ln` of the smallest normal `f32`, rounded up; of the largest
    /// finite one, rounded down.
    const LO: f32 = -87.336_54;
    const HI: f32 = 88.722_83;
    /// `1.5 · 2²³`: adding it rounds to an integer, kept in the low bits.
    const ROUND: f32 = 12_582_912.0;
    /// `ln 2` in two pieces, the first short enough that `n · LN2_HI` is
    /// exact for every `|n| ≤ 128` (Cody–Waite).
    const LN2_HI: f32 = 0.693_359_4; // 0x3f31_8000, 0.693359375 exactly
    const LN2_LO: f32 = -2.121_944_4e-4;
    // clamped so that `n ∈ [−126, 128]`; the comparisons let a NaN through
    let c = if x < LO { LO } else { x };
    let c = if c > HI { HI } else { c };
    // x = n·ln2 + r with |r| ≤ ln2/2
    let t = c * std::f32::consts::LOG2_E + ROUND;
    let n = t - ROUND;
    let r = c - n * LN2_HI - n * LN2_LO;
    // eʳ = 1 + r + r²·p(r), the Cephes minimax quintic
    let mut p = 1.987_569_1e-4;
    p = p * r + 1.398_2e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_5e-1;
    p = p * r + 0.5;
    let y = p * (r * r) + r + 1.0;
    // · 2ⁿ: `t`'s low bits hold `n`, and `y ∈ [0.7, 1.42]` leaves its
    // exponent field room for every `n` the clamp lets by
    let y = f32::from_bits(y.to_bits().wrapping_add(t.to_bits() << 23));
    // `+inf` past the range — and the way a NaN gets out — and `+0` below it
    let y = if x <= HI { y } else { x + f32::INFINITY };
    f32::from_bits(if x < LO { 0 } else { y.to_bits() })
}

/// Which walk a sweep runs; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// One contiguous lane at a time.
    Lane,
    /// Up to [`W`] adjacent strided lanes abreast, rows contiguous.
    Panel,
    /// One strided lane at a time.
    Strided,
}

/// Where a run of adjacent lanes sits in a flat buffer: lane `w` of the run
/// holds `len` words starting at `base + w · step`, `stride` words apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneAt {
    /// Offset of lane position 0 of the run's first lane.
    pub(crate) base: usize,
    /// Distance between consecutive lane positions.
    pub(crate) stride: usize,
    /// Distance between adjacent lanes of a run (`1` in every swept
    /// operand of a panel; anything, `0` included, in a broadcast one).
    pub(crate) step: usize,
    /// Number of lane positions.
    pub(crate) len: usize,
}

impl LaneAt {
    /// The lane as an exact contiguous chunk (`stride == 1`).
    pub(crate) fn unit(self, buf: &[f32]) -> &[f32] {
        &buf[self.base..self.base + self.len]
    }

    /// Mutable [`LaneAt::unit`].
    pub(crate) fn unit_mut(self, buf: &mut [f32]) -> &mut [f32] {
        &mut buf[self.base..self.base + self.len]
    }

    /// The lane as a strided view (any stride).
    pub(crate) fn strided(self, buf: &[f32]) -> Strided<&[f32]> {
        Strided {
            data: &buf[self.base..],
            stride: self.stride,
            len: self.len,
        }
    }

    /// Mutable [`LaneAt::strided`].
    pub(crate) fn strided_mut(self, buf: &mut [f32]) -> Strided<&mut [f32]> {
        Strided {
            data: &mut buf[self.base..],
            stride: self.stride,
            len: self.len,
        }
    }

    /// The run as `panels` side-by-side panels of contiguous rows.
    ///
    /// # Panics
    ///
    /// Panics unless adjacent lanes are adjacent words — what
    /// [`Walk::Panel`] promises of every swept operand.
    pub(crate) fn rows(self, buf: &[f32], panels: usize) -> Rows<&[f32]> {
        assert_eq!(self.step, 1, "a panel's rows are contiguous");
        Rows {
            data: &buf[self.base..],
            stride: self.stride,
            len: self.len,
            panels,
        }
    }

    /// Mutable [`LaneAt::rows`].
    pub(crate) fn rows_mut(self, buf: &mut [f32], panels: usize) -> Rows<&mut [f32]> {
        assert_eq!(self.step, 1, "a panel's rows are contiguous");
        Rows {
            data: &mut buf[self.base..],
            stride: self.stride,
            len: self.len,
            panels,
        }
    }

    /// The `W` words a gathered operand (a broadcast bias) holds at lane
    /// position `v` of the run's panel `p`. Always inlined, and a loop rather than
    /// `array::from_fn`: beside the mask mix in BDRLN's panel body the
    /// `from_fn` stayed out of line, returned its row through memory and
    /// cost the kernel a quarter of its time at `p = 0`.
    #[inline(always)]
    pub(crate) fn gather<const W: usize>(self, buf: &[f32], p: usize, v: usize) -> [f32; W] {
        let at = self.base + v * self.stride + p * W * self.step;
        let mut row = [0.0; W];
        for (w, r) in row.iter_mut().enumerate() {
            *r = buf[at + w * self.step];
        }
        row
    }
}

/// A validated dropout probability with its survivor scale and key: what
/// every kernel that drops shares. Holding one proves `p ∈ [0, 1)`, so
/// `1/(1-p)` is finite and positive. The key is a position of the
/// workspace's SplitMix64 generator; the mask of index `n` is computed from
/// it and `n` alone (see the module docs), so a `Dropout` is read, never
/// advanced.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    scale: f32,
    key: rand::rngs::StdRng,
}

impl Dropout {
    /// Validates `p` and keys the masks by `key`'s position.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDropout`] unless `0 <= p < 1`.
    pub fn new(p: f32, key: &rand::rngs::StdRng) -> Result<Self> {
        check_dropout_p(p)?;
        Ok(Dropout {
            p,
            scale: 1.0 / (1.0 - p),
            key: key.clone(),
        })
    }

    /// The same probability under another key.
    pub fn keyed(&self, key: rand::rngs::StdRng) -> Dropout {
        Dropout { key, ..*self }
    }

    /// The mask of index `n`: `0` with probability `p`, else `1/(1-p)` —
    /// the select of the uniform `f32` the key's word `n` makes (its top 24
    /// bits · 2⁻²⁴), so index `n` of a key holds the mask its `(n + 1)`-th
    /// `f32` draw would. At `p == 0` the constant `1`, computing nothing.
    /// The select is a multiply, not a branch on random data (which
    /// mispredicts `p` of the time); it is exact because the scale is
    /// finite and positive: `1 · s = s`, `0 · s = +0`.
    #[inline]
    pub fn mask(&self, n: usize) -> f32 {
        if self.p == 0.0 {
            return self.scale;
        }
        let u = (self.key.word(n as u64) >> 40) as f32 * (1.0 / (1u32 << 24) as f32);
        ((u >= self.p) as u32 as f32) * self.scale
    }

    /// The masks of indices `first + k + w · step`: `N` consecutive
    /// positions of `W` lanes whose indices lie `step` apart (one lane's
    /// block is `W = 1`, `N = BLOCK`, or `W = BLOCK`, `N = 1` at `step` 1);
    /// a splat at `p == 0`.
    #[inline(always)]
    fn masks<const W: usize, const N: usize>(&self, first: usize, step: usize) -> [[f32; W]; N] {
        let mut m = [[self.scale; W]; N];
        if self.p > 0.0 {
            for (k, row) in m.iter_mut().enumerate() {
                for (w, m) in row.iter_mut().enumerate() {
                    *m = self.mask(first + k + w * step);
                }
            }
        }
        m
    }

    /// Moves an eager kernel's generator past the `span` indices its masks
    /// read: `span` words at `p > 0`, none at `p == 0`, where no mask reads
    /// one.
    pub(crate) fn skip_past(&self, rng: &mut rand::rngs::StdRng, span: usize) {
        if self.p > 0.0 {
            rng.skip(span as u64);
        }
    }
}

/// The one range check on a dropout probability.
///
/// # Errors
///
/// Returns [`TensorError::InvalidDropout`] unless `0 <= p < 1` (NaN is
/// rejected).
pub fn check_dropout_p(p: f32) -> Result<()> {
    if (0.0..1.0).contains(&p) {
        Ok(())
    } else {
        Err(TensorError::InvalidDropout(p.to_string()))
    }
}

/// BDR element under mask value `m`: `dropout(x + bias) + residual`. At
/// `p == 0` the mask is exactly `1`, so the multiply is a bitwise identity.
#[inline]
pub(crate) fn bdr(x: f32, bias: f32, residual: f32, m: f32) -> f32 {
    (x + bias) * m + residual
}

/// The `(v0, n)` of a lane's blocks: [`BLOCK`] positions each, the last one
/// whatever is left. An element-wise body computes whole blocks — what a
/// short one is padded with is never stored.
fn blocks(len: usize) -> impl Iterator<Item = (usize, usize)> {
    let starts = (0..len).step_by(BLOCK);
    starts.map(move |v0| (v0, BLOCK.min(len - v0)))
}

/// `out[v] = f(x[v])` along one lane: scaling and the activations. With the
/// draw and the libm call gone from `f`, the loop over a contiguous lane
/// vectorizes as it stands (the compiler hoists an activation's `match`).
#[inline]
pub(crate) fn map_lane<X: Lane + ?Sized, O: LaneMut + ?Sized>(
    x: &X,
    out: &mut O,
    f: impl Fn(f32) -> f32,
) {
    let len = out.lane_len();
    assert!(x.lane_len() >= len, "lane input shorter than its output");
    for v in 0..len {
        out.set(v, f(x.get(v)));
    }
}

/// `out[v] = f(a[v], b[v])` along one lane: the residual add and the bias
/// add.
#[inline]
pub(crate) fn zip_lane<A: Lane + ?Sized, B: Lane + ?Sized, O: LaneMut + ?Sized>(
    a: &A,
    b: &B,
    out: &mut O,
    mut f: impl FnMut(f32, f32) -> f32,
) {
    let len = out.lane_len();
    assert!(a.lane_len() >= len && b.lane_len() >= len);
    for v in 0..len {
        out.set(v, f(a.get(v), b.get(v)));
    }
}

/// `acc[v] += x[v]` along one lane, ascending: the bias gradient, whose
/// accumulator lane may revisit one word (a zero stride) — summed in a
/// register then, the same additions in the same order without a store
/// and a reload of the word per position.
#[inline]
pub(crate) fn acc_lane<X: Lane + ?Sized, O: LaneMut + ?Sized>(x: &X, acc: &mut O) {
    let len = acc.lane_len();
    assert!(
        x.lane_len() >= len,
        "lane input shorter than its accumulator"
    );
    if acc.one_word() && len > 0 {
        let sum = (0..len).fold(acc.get(0), |sum, v| sum + x.get(v));
        return acc.set(0, sum);
    }
    // whole blocks, the last one padded: no scalar remainder loop
    for (v0, n) in blocks(len) {
        let (a, x) = (acc.load(v0, n), x.load(v0, n));
        acc.store(v0, n, std::array::from_fn(|k| a[k] + x[k]));
    }
}

/// Unfused dropout along one lane whose position 0 has index `at`:
/// survivors scaled by `1/(1-p)`.
#[inline]
pub(crate) fn dropout_lane<X: Lane + ?Sized, O: LaneMut + ?Sized>(
    x: &X,
    drop: &Dropout,
    at: usize,
    out: &mut O,
    mask: &mut O,
) {
    let len = out.lane_len();
    assert!(x.lane_len() >= len && mask.lane_len() >= len);
    for v in 0..len {
        let m = drop.mask(at + v);
        mask.set(v, m);
        out.set(v, x.get(v) * m);
    }
}

/// BRD along one lane whose position 0 has index `at`: `z = x + bias`,
/// `out = dropout(activation(z))`, saving `z` and the mask, a block of
/// positions at a time with the kind matched once a block.
#[inline(always)]
pub(crate) fn brd_lane<X, B, O>(
    x: &X,
    bias: &B,
    kind: ActivationKind,
    (drop, at): (&Dropout, usize),
    pre_activation: &mut O,
    out: &mut O,
    mask: &mut O,
) where
    X: Lane + ?Sized,
    B: Lane + ?Sized,
    O: LaneMut + ?Sized,
{
    let len = out.lane_len();
    assert!(x.lane_len() >= len && bias.lane_len() >= len);
    assert!(pre_activation.lane_len() >= len && mask.lane_len() >= len);
    for (v0, n) in blocks(len) {
        let (x, b) = (x.load(v0, n), bias.load(v0, n));
        let z: [f32; BLOCK] = std::array::from_fn(|k| x[k] + b[k]);
        let [m]: [[f32; BLOCK]; 1] = drop.masks(at + v0, 1);
        let a = kind.apply_block(z);
        pre_activation.store(v0, n, z);
        mask.store(v0, n, m);
        out.store(v0, n, std::array::from_fn(|k| a[k] * m[k]));
    }
}

/// [`bdr`] along one lane whose position 0 has index `at`, saving the
/// mask, a block of positions at a time.
#[inline(always)]
pub(crate) fn bdr_lane<X, B, O>(
    x: &X,
    bias: &B,
    residual: &X,
    (drop, at): (&Dropout, usize),
    mask: &mut O,
    out: &mut O,
) where
    X: Lane + ?Sized,
    B: Lane + ?Sized,
    O: LaneMut + ?Sized,
{
    let len = out.lane_len();
    assert!(x.lane_len() >= len && bias.lane_len() >= len);
    assert!(residual.lane_len() >= len && mask.lane_len() >= len);
    for (v0, n) in blocks(len) {
        let (x, b, r) = (x.load(v0, n), bias.load(v0, n), residual.load(v0, n));
        let [m]: [[f32; BLOCK]; 1] = drop.masks(at + v0, 1);
        mask.store(v0, n, m);
        out.store(v0, n, std::array::from_fn(|k| bdr(x[k], b[k], r[k], m[k])));
    }
}

/// What [`softmax_lane`] does with each block of normalized rows: nothing
/// (`()`, the plain and causal softmax), the fused SM's dropout beside the
/// saved softmax ([`Dropped`]) or in its place ([`DroppedInPlace`]).
pub(crate) trait SoftmaxTail<const W: usize> {
    /// Positions `v0..v0 + n` of panel `p` hold the softmax rows `y` (zero
    /// in a dead lane, and past the visible ones, where every lane is dead;
    /// rows from `n` up pad the block): the rows `out` stores.
    fn keep(&mut self, p: usize, v0: usize, n: usize, y: Block<W>, dead: &[bool; W]) -> Block<W>;
}

impl<const W: usize> SoftmaxTail<W> for () {
    #[inline(always)]
    fn keep(&mut self, _: usize, _: usize, _: usize, y: Block<W>, _: &[bool; W]) -> Block<W> {
        y
    }
}

/// The fused SM's dropout stored where the softmax would be: `out` holds
/// `alpha = y · mask` and nothing else is kept — the attention region's
/// weights, whose softmax and mask no kernel reads. Lane `w` of the run's
/// lanes has its mask at position `v` the one of index `at + w · step + v`.
#[derive(Debug)]
pub(crate) struct DroppedInPlace<'a> {
    /// The masks' key.
    pub(crate) drop: &'a Dropout,
    /// Index of position 0 of the run's first lane.
    pub(crate) at: usize,
    /// Indices between adjacent lanes: the visible positions of each.
    pub(crate) step: usize,
}

impl DroppedInPlace<'_> {
    /// `(y · mask, mask)` of panel `p`'s block from `v0`, the masks of a
    /// dead lane zero.
    #[inline(always)]
    fn apply<const W: usize>(
        &self,
        p: usize,
        v0: usize,
        mut y: Block<W>,
        dead: &[bool; W],
    ) -> [Block<W>; 2] {
        let mut m: Block<W> = self.drop.masks(self.at + p * W * self.step + v0, self.step);
        for (y, m) in y.iter_mut().zip(&mut m) {
            for w in 0..W {
                m[w] = if dead[w] { 0.0 } else { m[w] };
                y[w] *= m[w];
            }
        }
        [y, m]
    }
}

impl<const W: usize> SoftmaxTail<W> for DroppedInPlace<'_> {
    #[inline(always)]
    fn keep(&mut self, p: usize, v0: usize, _: usize, y: Block<W>, dead: &[bool; W]) -> Block<W> {
        self.apply(p, v0, y, dead)[0]
    }
}

/// The fused SM's outputs beside the saved softmax: `alpha = y · mask`,
/// lane `w` of the run's lanes has its mask at position `v` the one of
/// index `at + w · step + v`.
#[derive(Debug)]
pub(crate) struct Dropped<'a, O: ?Sized> {
    /// Dropped-out attention weights.
    pub(crate) alpha: &'a mut O,
    /// Saved dropout mask.
    pub(crate) mask: &'a mut O,
    /// The masks' key.
    pub(crate) drop: &'a Dropout,
    /// Index of position 0 of the run's first lane.
    pub(crate) at: usize,
    /// Indices between adjacent lanes: the visible positions of each.
    pub(crate) step: usize,
}

impl<const W: usize, O: PanelMut<W> + ?Sized> SoftmaxTail<W> for Dropped<'_, O> {
    #[inline(always)]
    fn keep(&mut self, p: usize, v0: usize, n: usize, y: Block<W>, dead: &[bool; W]) -> Block<W> {
        let (drop, at, step) = (self.drop, self.at, self.step);
        let [alpha, mask] = DroppedInPlace { drop, at, step }.apply(p, v0, y, dead);
        self.mask.set_block(p, v0, n, mask);
        self.alpha.set_block(p, v0, n, alpha);
        y
    }
}

/// Joins a lane's [`BLOCK`] partials — of each of `W` lanes — by the one
/// fixed halving tree: partial `k` takes `k + 8`, then `k + 4`, `k + 2`,
/// `k + 1`. The shape every walk's maximum and sum have.
#[inline(always)]
fn fold<const W: usize>(mut part: Block<W>, f: impl Fn(f32, f32) -> f32) -> [f32; W] {
    for half in [8, 4, 2, 1] {
        for k in 0..half {
            part[k] = std::array::from_fn(|w| f(part[k][w], part[k + half][w]));
        }
    }
    part[0]
}

/// One block of a softmax's first pass: `mx = max(mx, scaler · x)` in the
/// partials of its first `n` rows.
#[inline(always)]
fn max_block<const W: usize>(mx: &mut Block<W>, scaler: f32, x: Block<W>, n: usize) {
    for (k, (mx, xv)) in mx.iter_mut().zip(x).enumerate() {
        for w in 0..W {
            let y = mx[w].max(scaler * xv[w]);
            mx[w] = if k < n { y } else { mx[w] };
        }
    }
}

/// One block of its second pass: `e = exp(scaler · x − mx)` in its first
/// `n` rows, `+0` past them, added to the partial sums.
#[inline(always)]
fn exp_block<const W: usize>(
    sum: &mut Block<W>,
    scaler: f32,
    mx: &[f32; W],
    mut e: Block<W>,
    n: usize,
) -> Block<W> {
    for (k, (sum, e)) in sum.iter_mut().zip(&mut e).enumerate() {
        for w in 0..W {
            let y = exp(scaler * e[w] - mx[w]);
            e[w] = if k < n { y } else { 0.0 };
            sum[w] += e[w];
        }
    }
    e
}

/// One block of its third pass: each row times its lane's `inv`, or the
/// lane's `fill` throughout where the lane is `flat`.
#[inline(always)]
fn norm_block<const W: usize>(
    mut y: Block<W>,
    inv: &[f32; W],
    flat: &[bool; W],
    fill: &[f32; W],
) -> Block<W> {
    for y in &mut y {
        for w in 0..W {
            y[w] = if flat[w] { fill[w] } else { y[w] * inv[w] };
        }
    }
    y
}

/// Which lanes of panel `p` are dead: every visible input `−inf` — a
/// `−inf` maximum that is not a NaN `max` skipped. Out of line: a second
/// look at a lane that only a masked row needs.
#[cold]
#[inline(never)]
fn dead_lanes<const W: usize, X: Panel<W> + ?Sized>(
    x: &X,
    p: usize,
    s: f32,
    visible: usize,
) -> [bool; W] {
    let mut dead = [true; W];
    for v in 0..visible {
        let xv = x.row(p, v);
        for w in 0..W {
            dead[w] &= s * xv[w] == f32::NEG_INFINITY;
        }
    }
    dead
}

/// Scale → numerically stable softmax over the first `visible` positions
/// → (tail-defined) dropout → zero tail, on a run's panels, one after the
/// other. Covers the plain softmax (`visible == len`), the causal softmax
/// and the fused SM. Not in storage order: with each panel's partials side
/// by side on the stack, the contiguous instantiation — the attention
/// region's row tail, one lane — ran 20–30 % slower, and no canned plan
/// runs a panel softmax (EXPERIMENTS.md, "Norm panels in storage order").
///
/// All three passes — the maximum, the exponentials and their sum, the
/// normalization and the tail — take a block of [`BLOCK`] positions at a
/// time through the views' block access, a lane's last block padded: a
/// padded row joins no reduction and is never stored. The maximum and the
/// sum are each reduced one way, whatever the walk: partial `k` takes the
/// positions `v ≡ k (mod BLOCK)` in ascending order and [`fold`] joins the
/// partials. A lane's result therefore depends on its values and its
/// length only. Always inlined: each driver makes its out-of-line
/// instantiations through `crate::isa` — a contiguous lane's at 512-bit
/// lanes where the host has them — and `tools/kernel_asm.sh` reads their
/// block loops.
///
/// A lane whose visible inputs are all `−inf` (a fully masked row) has no
/// defined distribution: every output of the lane is zero, its masks
/// included. A NaN anywhere in the visible prefix poisons the whole
/// visible lane (`max` skips it, the sum does not) — the arena sanitizer's
/// NaN poison relies on that. A `+inf` input likewise yields NaN, not a
/// panic. A poisoned lane is written as `f32::NAN` itself and not as what
/// its arithmetic leaves: the lane's NaNs differ (an input's, `−inf − −inf`'s
/// negative one), an x86 addition of two keeps its first operand's, Rust
/// does not say which that is, and LLVM commutes the `W = 16` and `W = 1`
/// bodies differently under AVX. Each rule holds lane by lane within a
/// panel.
#[inline(always)]
pub(crate) fn softmax_lane<const W: usize, X, O, T>(
    x: &X,
    scaler: f32,
    visible: usize,
    out: &mut O,
    tail: &mut T,
) where
    X: Panel<W> + ?Sized,
    O: PanelMut<W> + ?Sized,
    T: SoftmaxTail<W>,
{
    let (len, panels) = (out.rows(), out.panels());
    assert!(x.rows() >= len, "softmax input shorter than its output");
    let visible = visible.min(len);
    for p in 0..panels {
        let mut mx = [[f32::NEG_INFINITY; W]; BLOCK];
        let whole = visible - visible % BLOCK;
        for v0 in (0..whole).step_by(BLOCK) {
            max_block(&mut mx, scaler, x.block(p, v0, BLOCK), BLOCK);
        }
        // the last block, loaded once: its exponentials, and their
        // softmax, stay in registers until they are stored
        let last = x.block(p, whole, visible - whole);
        max_block(&mut mx, scaler, last, visible - whole);
        let mx = fold(mx, f32::max);
        let mut dead = [false; W];
        if mx.contains(&f32::NEG_INFINITY) {
            dead = dead_lanes(x, p, scaler, visible);
        }
        let live = if dead == [true; W] { 0 } else { visible };
        let (whole, n) = (live - live % BLOCK, live % BLOCK);
        let mut sum = [[0.0f32; W]; BLOCK];
        for v0 in (0..whole).step_by(BLOCK) {
            let e = exp_block(&mut sum, scaler, &mx, x.block(p, v0, BLOCK), BLOCK);
            out.set_block(p, v0, BLOCK, e);
        }
        let last = exp_block(&mut sum, scaler, &mx, last, n);
        let sum = fold(sum, |a, b| a + b);
        let inv = sum.map(|s| 1.0 / s);
        // a lane without a distribution is one word throughout: zero if
        // dead, `f32::NAN` if poisoned — the same select, no more work a row
        let flat: [bool; W] = std::array::from_fn(|w| dead[w] || sum[w].is_nan());
        let fill = dead.map(|d| if d { 0.0 } else { f32::NAN });
        for v0 in (0..whole).step_by(BLOCK) {
            let y = norm_block(out.block(p, v0, BLOCK), &inv, &flat, &fill);
            out.set_block(p, v0, BLOCK, tail.keep(p, v0, BLOCK, y, &dead));
        }
        let y = norm_block(last, &inv, &flat, &fill);
        out.set_block(p, whole, n, tail.keep(p, whole, n, y, &dead));
        for v0 in (live..len).step_by(BLOCK) {
            let n = BLOCK.min(len - v0);
            let y = tail.keep(p, v0, n, [[0.0; W]; BLOCK], &[true; W]);
            out.set_block(p, v0, n, y);
        }
    }
}

/// A [`softmax_lane`] input with a bias added on the way in, `x + bias`
/// row by row — the model head's bias and vocabulary softmax over a whole
/// container, the bias row at position `v` of panel `p` gathered by
/// `bias`. The sum is the one an unfused bias add stores, so the lane is
/// its softmax's.
pub(crate) struct Biased<'a, X: ?Sized, B> {
    /// The lanes.
    pub(crate) x: &'a X,
    /// Bias row at lane position `v` of panel `p`.
    pub(crate) bias: B,
}

impl<const W: usize, X, B> Panel<W> for Biased<'_, X, B>
where
    X: Panel<W> + ?Sized,
    B: Fn(usize, usize) -> [f32; W],
{
    fn rows(&self) -> usize {
        self.x.rows()
    }
    #[inline(always)]
    fn panels(&self) -> usize {
        self.x.panels()
    }
    #[inline]
    fn row(&self, p: usize, v: usize) -> [f32; W] {
        let (mut x, b) = (self.x.row(p, v), (self.bias)(p, v));
        for w in 0..W {
            x[w] += b[w];
        }
        x
    }
}

/// What [`norm_lane`] normalizes: lanes as they are (`&X`), or the fused
/// bias + dropout + residual prologue computed on the way in.
pub(crate) trait NormSource<const W: usize> {
    /// Produces the layer-norm input row at position `v` of panel `p`
    /// (first pass, `v` ascending).
    fn load(&mut self, p: usize, v: usize) -> [f32; W];
    /// Re-reads the layer-norm input row at position `v` of panel `p`
    /// (second pass).
    fn normed(&self, p: usize, v: usize) -> [f32; W];
}

impl<const W: usize, X: Panel<W> + ?Sized> NormSource<W> for &X {
    #[inline(always)]
    fn load(&mut self, p: usize, v: usize) -> [f32; W] {
        self.row(p, v)
    }
    #[inline(always)]
    fn normed(&self, p: usize, v: usize) -> [f32; W] {
        self.row(p, v)
    }
}

/// The BDRLN prologue: `ln_input = dropout(x + bias) + residual`, saving
/// the mask and `ln_input`; lane `w` of the run's lanes has its mask at
/// position `v` the one of index `at + w · len + v`.
#[derive(Debug)]
pub(crate) struct BiasDropResidual<'a, X: ?Sized, O: ?Sized, B> {
    /// The lanes being normalized.
    pub(crate) x: &'a X,
    /// Bias row at lane position `v` of panel `p`.
    pub(crate) bias: B,
    /// Residual lanes (their own addressing).
    pub(crate) residual: &'a X,
    /// Saved dropout mask.
    pub(crate) mask: &'a mut O,
    /// Saved layer-norm input.
    pub(crate) ln_input: &'a mut O,
    /// The masks' key.
    pub(crate) drop: &'a Dropout,
    /// Index of position 0 of the run's first lane.
    pub(crate) at: usize,
}

impl<const W: usize, X, O, B> NormSource<W> for BiasDropResidual<'_, X, O, B>
where
    X: Panel<W> + ?Sized,
    O: PanelMut<W> + ?Sized,
    B: FnMut(usize, usize) -> [f32; W],
{
    #[inline(always)]
    fn load(&mut self, p: usize, v: usize) -> [f32; W] {
        let (x, b, r) = (self.x.row(p, v), (self.bias)(p, v), self.residual.row(p, v));
        let len = self.ln_input.rows();
        let [m] = self.drop.masks::<W, 1>(self.at + p * W * len + v, len);
        let li = std::array::from_fn(|w| bdr(x[w], b[w], r[w], m[w]));
        self.mask.set_row(p, v, m);
        self.ln_input.set_row(p, v, li);
        li
    }
    #[inline(always)]
    fn normed(&self, p: usize, v: usize) -> [f32; W] {
        self.ln_input.row(p, v)
    }
}

/// A run's saved per-lane statistic (`stats[p · W + w]` for lane `w` of
/// panel `p`), side by side.
#[inline(always)]
fn side_of<const W: usize, const P: usize>(stats: &[f32], panels: usize) -> [[f32; W]; P] {
    let mut side = [[0.0; W]; P];
    for (side, stats) in side[..panels].iter_mut().zip(stats.chunks_exact(W)) {
        *side = stats.try_into().expect("a W-word chunk is a W-word row");
    }
    side
}

/// (Optional prologue →) moments → affine: `out = (src − mean) · inv_std ·
/// gamma + beta` on a run's panels, each lane with its own moments, stored
/// to `stats` (means, inverse deviations) at the run's lanes. Covers
/// `layernorm` and BDRLN. Both passes take position `v` of every panel
/// before `v + 1` (storage order), each panel's moments side by side.
#[inline(never)]
pub(crate) fn norm_lane<const W: usize, const P: usize, S, O>(
    mut src: S,
    gamma: &[f32],
    beta: &[f32],
    out: &mut O,
    (mean_out, inv_std_out): (&mut [f32], &mut [f32]),
) where
    S: NormSource<W>,
    O: PanelMut<W> + ?Sized,
{
    let (len, panels) = (out.rows(), out.panels());
    let (gamma, beta) = (&gamma[..len], &beta[..len]);
    let (mut sum, mut sq): ([[f32; W]; P], [[f32; W]; P]) = ([[0.0; W]; P], [[0.0; W]; P]);
    let (sum, sq) = (&mut sum[..panels], &mut sq[..panels]);
    for v in 0..len {
        for (p, (sum, sq)) in sum.iter_mut().zip(sq.iter_mut()).enumerate() {
            let val = src.load(p, v);
            for w in 0..W {
                sum[w] += val[w];
                sq[w] += val[w] * val[w];
            }
        }
    }
    let (mut mean, mut inv_std): ([[f32; W]; P], [[f32; W]; P]) = ([[0.0; W]; P], [[0.0; W]; P]);
    for p in 0..panels {
        mean[p] = sum[p].map(|s| s / len as f32);
        inv_std[p] = std::array::from_fn(|w| {
            let var = (sq[p][w] / len as f32 - mean[p][w] * mean[p][w]).max(0.0);
            1.0 / (var + EPS).sqrt()
        });
    }
    for (v, (&gamma, &beta)) in gamma.iter().zip(beta).enumerate() {
        for p in 0..panels {
            let val = src.normed(p, v);
            let row = std::array::from_fn(|w| {
                let xhat = (val[w] - mean[p][w]) * inv_std[p][w];
                xhat * gamma + beta
            });
            out.set_row(p, v, row);
        }
    }
    let lanes = panels * W;
    mean_out[..lanes].copy_from_slice(mean[..panels].as_flattened());
    inv_std_out[..lanes].copy_from_slice(inv_std[..panels].as_flattened());
}

/// Softmax dX on a run's panels: `dx = scaler · y ⊙ (g − ⟨g, y⟩)`, each
/// lane's dot product summed in ascending `v`. `g = dy ⊙ mask` under BS's
/// saved dropout mask, `g = dy` without one (`softmax_backward`, whose unit
/// `scaler` is a bitwise identity under IEEE 754 multiplication). Both
/// passes take position `v` of every panel before `v + 1`.
#[inline]
pub(crate) fn softmax_dx_lane<const W: usize, const P: usize, X, O>(
    dy: &X,
    mask: Option<&X>,
    y: &X,
    scaler: f32,
    dx: &mut O,
) where
    X: Panel<W> + ?Sized,
    O: PanelMut<W> + ?Sized,
{
    let (len, panels) = (dx.rows(), dx.panels());
    assert!(dy.rows() >= len && y.rows() >= len);
    assert!(mask.is_none_or(|m| m.rows() >= len));
    // no mask is a mask of ones: `dy · 1` is `dy`, bit for bit
    let mask_row = |p: usize, v: usize| mask.map_or([1.0; W], |m| m.row(p, v));
    let mut dot: [[f32; W]; P] = [[0.0; W]; P];
    let dot = &mut dot[..panels];
    for v in 0..len {
        for (p, dot) in dot.iter_mut().enumerate() {
            let (g, m, yv) = (dy.row(p, v), mask_row(p, v), y.row(p, v));
            for w in 0..W {
                dot[w] += g[w] * m[w] * yv[w];
            }
        }
    }
    for v in 0..len {
        for (p, dot) in dot.iter().enumerate() {
            let (g, m, yv) = (dy.row(p, v), mask_row(p, v), y.row(p, v));
            let row = std::array::from_fn(|w| scaler * (yv[w] * (g[w] * m[w] - dot[w])));
            dx.set_row(p, v, row);
        }
    }
}

/// Layer-norm dX on a run's panels, each lane under its saved `(mean,
/// inv_std)` (at the run's lanes): `dx = inv_std · (g − mean(g) − x̂ ·
/// mean(g · x̂))` with `g = dy · γ` and `x̂ = (x − mean) · inv_std`. `tail`
/// is handed every row `(p, v, row)` and returns what `dx` stores: the row
/// itself (`|_, _, row| row`), BLNRD's [`drop_dx`] (which stores the
/// masked row elsewhere), or BLNR's residual join (`into_ops::blnr_into`).
/// Both passes take position `v` of every panel before `v + 1`.
#[inline]
pub(crate) fn norm_dx_lane<const W: usize, const P: usize, X, O>(
    dy: &X,
    x: &X,
    gamma: &[f32],
    (mean, inv_std): (&[f32], &[f32]),
    dx: &mut O,
    mut tail: impl FnMut(usize, usize, [f32; W]) -> [f32; W],
) where
    X: Panel<W> + ?Sized,
    O: PanelMut<W> + ?Sized,
{
    let (len, panels) = (dx.rows(), dx.panels());
    assert!(dy.rows() >= len && x.rows() >= len);
    let gamma = &gamma[..len];
    let (mean, inv_std) = (
        side_of::<W, P>(mean, panels),
        side_of::<W, P>(inv_std, panels),
    );
    // `(g, x̂)` of lane `w` of panel `p` at a position whose words are
    // `dy`, `x`, `gamma`
    let terms = |dy: f32, x: f32, gamma: f32, p: usize, w: usize| -> (f32, f32) {
        (dy * gamma, (x - mean[p][w]) * inv_std[p][w])
    };
    let (mut s1, mut s2): ([[f32; W]; P], [[f32; W]; P]) = ([[0.0; W]; P], [[0.0; W]; P]);
    let (s1, s2) = (&mut s1[..panels], &mut s2[..panels]);
    for (v, &gamma) in gamma.iter().enumerate() {
        for (p, (s1, s2)) in s1.iter_mut().zip(s2.iter_mut()).enumerate() {
            let (d, xv) = (dy.row(p, v), x.row(p, v));
            for w in 0..W {
                let (g, xhat) = terms(d[w], xv[w], gamma, p, w);
                s1[w] += g;
                s2[w] += g * xhat;
            }
        }
    }
    for (s1, s2) in s1.iter_mut().zip(s2.iter_mut()) {
        (*s1, *s2) = (s1.map(|s| s / len as f32), s2.map(|s| s / len as f32));
    }
    for (v, &gamma) in gamma.iter().enumerate() {
        for (p, (s1, s2)) in s1.iter().zip(s2.iter()).enumerate() {
            let (d, xv) = (dy.row(p, v), x.row(p, v));
            let row: [f32; W] = std::array::from_fn(|w| {
                let (g, xhat) = terms(d[w], xv[w], gamma, p, w);
                inv_std[p][w] * (g - s1[w] - xhat * s2[w])
            });
            dx.set_row(p, v, tail(p, v, row));
        }
    }
}

/// BLNRD's tail of [`norm_dx_lane`], the dropout dX behind the layer norm:
/// `out = dx ⊙ mask` under the saved dropout mask; `dx` itself is stored.
pub(crate) fn drop_dx<'a, const W: usize, X, O>(
    mask: &'a X,
    out: &'a mut O,
) -> impl FnMut(usize, usize, [f32; W]) -> [f32; W] + 'a
where
    X: Panel<W> + ?Sized,
    O: PanelMut<W> + ?Sized,
{
    move |p, v, dx| {
        let m = mask.row(p, v);
        out.set_row(p, v, std::array::from_fn(|w| dx[w] * m[w]));
        dx
    }
}

/// Layer-norm dγ/dβ over a run's panels: `dgamma[v] += g · x̂` and
/// `dbeta[v] += g`, the lanes of a row added one after the other, panels
/// ascending and in each ascending `w` — the order a lane-at-a-time walk
/// adds them in, so every word sums its addends in logical lane order
/// whatever the walk. `head` turns each row `(p, v, dy)` into the gradient
/// row `g`: the row itself (`|_, _, g| g`), or EBSB's [`add_residual`].
/// The pass takes a block of [`BLOCK`] positions of every panel before the
/// next block: the words of a block are sixteen chains the core overlaps,
/// where one word at a time would be one chain through every lane.
#[inline]
pub(crate) fn norm_dw_lane<const W: usize, const P: usize, X: Panel<W> + ?Sized>(
    dy: &X,
    mut head: impl FnMut(usize, usize, [f32; W]) -> [f32; W],
    x: &X,
    (mean, inv_std): (&[f32], &[f32]),
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let (len, panels) = (dgamma.len(), x.panels());
    assert!(dy.rows() >= len && x.rows() >= len);
    let dbeta = &mut dbeta[..len];
    let (mean, inv_std) = (
        side_of::<W, P>(mean, panels),
        side_of::<W, P>(inv_std, panels),
    );
    for (v0, n) in blocks(len) {
        let (dgamma, dbeta) = (&mut dgamma[v0..v0 + n], &mut dbeta[v0..v0 + n]);
        for p in 0..panels {
            // the block's rows of `g` and `g · x̂` a row at a time, then
            // their words one after the other
            let (mut g, mut gx) = ([[0.0; W]; BLOCK], [[0.0; W]; BLOCK]);
            for (k, (g, gx)) in g[..n].iter_mut().zip(&mut gx[..n]).enumerate() {
                let (v, mean, inv_std) = (v0 + k, &mean[p], &inv_std[p]);
                let xv = x.row(p, v);
                *g = head(p, v, dy.row(p, v));
                *gx = std::array::from_fn(|w| g[w] * ((xv[w] - mean[w]) * inv_std[w]));
            }
            for (k, (dgamma, dbeta)) in dgamma.iter_mut().zip(dbeta.iter_mut()).enumerate() {
                for w in 0..W {
                    *dgamma += gx[k][w];
                    *dbeta += g[k][w];
                }
            }
        }
    }
}

/// EBSB's head of [`norm_dw_lane`], the residual join ahead of the layer
/// norm: `g = dy + residual`, saved to `dsum`.
pub(crate) fn add_residual<'a, const W: usize, X, O>(
    residual: &'a X,
    dsum: &'a mut O,
) -> impl FnMut(usize, usize, [f32; W]) -> [f32; W] + 'a
where
    X: Panel<W> + ?Sized,
    O: PanelMut<W> + ?Sized,
{
    move |p, v, dy| {
        let r = residual.row(p, v);
        let g = std::array::from_fn(|w| dy[w] + r[w]);
        dsum.set_row(p, v, g);
        g
    }
}

/// BDRB along one lane: `dx = dy ⊙ mask · act′(pre)` under the saved
/// dropout mask — BDB's `dy ⊙ mask` without an activation — each `dx` added
/// to its word of the bias gradient `dbias`, ascending: a lane that may
/// revisit one word (a zero stride).
#[inline(always)]
pub(crate) fn bdrb_lane<X: Lane + ?Sized, O: LaneMut + ?Sized>(
    dy: &X,
    mask: &X,
    act: Option<(&X, ActivationKind)>,
    dx: &mut O,
    dbias: &mut Strided<&mut [f32]>,
) {
    let len = dx.lane_len();
    assert!(dy.lane_len() >= len && mask.lane_len() >= len);
    assert!(act.is_none_or(|(pre, _)| pre.lane_len() >= len));
    // a lane of one bias word sums in a register, as `acc_lane` does
    let mut sum = (dbias.one_word() && len > 0).then(|| dbias.get(0));
    for (v0, n) in blocks(len) {
        let (g, m) = (dy.load(v0, n), mask.load(v0, n));
        // no activation is a derivative of ones: `g · m · 1` is `g · m`
        let d = match act {
            Some((pre, kind)) => kind.grad_block(pre.load(v0, n)),
            None => [1.0; BLOCK],
        };
        let g: [f32; BLOCK] = std::array::from_fn(|k| g[k] * m[k] * d[k]);
        dx.store(v0, n, g);
        for (k, g) in g[..n].iter().enumerate() {
            match &mut sum {
                Some(sum) => *sum += g,
                None => dbias.set(v0 + k, dbias.get(v0 + k) + g),
            }
        }
    }
    if let Some(sum) = sum {
        dbias.set(0, sum);
    }
}

/// Expands `$call` once per panel width, `$w` bound to the width as a
/// constant and `$p` to the most panels of it a run holds ([`PANELS`] of
/// [`W`], one of a halving), and runs the expansion for panels of `$n`
/// lanes.
macro_rules! panel_of {
    ($n:expr, $w:ident, $p:ident => $call:expr) => {
        match $n {
            2 => {
                const $w: usize = 2;
                #[allow(dead_code)] // the softmax takes none
                const $p: usize = 1;
                $call
            }
            4 => {
                const $w: usize = 4;
                #[allow(dead_code)] // the softmax takes none
                const $p: usize = 1;
                $call
            }
            8 => {
                const $w: usize = 8;
                #[allow(dead_code)] // the softmax takes none
                const $p: usize = 1;
                $call
            }
            $crate::lanes::W => {
                const $w: usize = $crate::lanes::W;
                #[allow(dead_code)] // the softmax takes none
                const $p: usize = $crate::lanes::PANELS;
                $call
            }
            n => unreachable!("a sweep cuts no panel of {n} lanes"),
        }
    };
}
const _: () = assert!(
    W == 16 && BLOCK == 16,
    "`panel_of!` and `fold` list their halvings"
);

/// A run of adjacent lanes as [`crate::into_ops::Sweep`] cut them: which
/// instantiation of a body the run takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Run {
    /// One contiguous lane ([`Walk::Lane`]).
    Lane,
    /// One strided lane ([`Walk::Strided`], or the last lane of a row of
    /// panels).
    Strided,
    /// `panels` side-by-side panels of `lanes` lanes each: up to
    /// [`PANELS`] of [`W`], or one of a halving down to 2.
    Panel {
        /// Lanes of each panel.
        lanes: usize,
        /// Panels in the run.
        panels: usize,
    },
}

impl Run {
    /// Lanes in the run.
    pub(crate) fn lanes(self) -> usize {
        match self {
            Run::Panel { lanes, panels } => lanes * panels,
            Run::Lane | Run::Strided => 1,
        }
    }
}

/// The lane dispatch, forward and backward: evaluates `$call` with every
/// swept operand `buf @ at` — a flat buffer and its run's [`LaneAt`], the
/// read ones in the first list, the written ones in the second — rebound
/// to the view `$run` calls for (an exact `[f32]` chunk, a [`Strided`]
/// lane, the [`Rows`] of the run's panels), `$w` to its panels' width and
/// `$p` to the most panels a run of that width holds: the `W` and the `P`
/// the body is instantiated at (a body's per-panel state is `P` rows on
/// the stack, so a lane's is one). Gathered operands (a broadcast bias, γ,
/// β, the statistics) are the caller's to pass through.
///
/// Led by `wide`, each evaluation is an out-of-line instantiation of its
/// own: a contiguous lane's at the widest ISA the host has
/// (`isa::widest!`), every other walk's at the build's (`isa::narrow`) —
/// for an `#[inline(always)]` body, the softmax's.
macro_rules! on_run {
    ($run:expr, $w:ident, $p:ident, $reads:tt, $writes:tt => $call:expr) => {
        $crate::lanes::on_run!(@ $run, $w, $p, $reads, $writes => ($call), ($call))
    };
    (wide $run:expr, $w:ident, $p:ident, $reads:tt, $writes:tt => $call:expr) => {
        $crate::lanes::on_run!(@ $run, $w, $p, $reads, $writes =>
            ($crate::isa::widest!($call)), ($crate::isa::narrow(#[inline(always)] || $call)))
    };
    (@ $run:expr, $w:ident, $p:ident, [$($r:ident @ $ra:expr),*], [$($m:ident @ $ma:expr),*]
        => $lane:expr, $other:expr) => {
        match $run {
            $crate::lanes::Run::Lane => {
                const $w: usize = 1;
                #[allow(dead_code)] // the softmax takes none
                const $p: usize = 1;
                $(let $r = $ra.unit($r);)*
                $(let $m = $ma.unit_mut($m);)*
                $lane
            }
            $crate::lanes::Run::Strided => {
                const $w: usize = 1;
                #[allow(dead_code)] // the softmax takes none
                const $p: usize = 1;
                $(let $r = &$ra.strided($r);)*
                $(let $m = &mut $ma.strided_mut($m);)*
                $other
            }
            $crate::lanes::Run::Panel { lanes, panels } => {
                $(let $r = &$ra.rows($r, panels);)*
                $(let $m = &mut $ma.rows_mut($m, panels);)*
                $crate::lanes::panel_of!(lanes, $w, $p => $other)
            }
        }
    };
}
pub(crate) use {on_run, panel_of};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{self, Avx512};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const NEG: f32 = f32::NEG_INFINITY;

    /// The fused SM body over two 3-word lanes — one contiguous lane at a
    /// time, or (`panel`) the same two lanes abreast as a panel of two, the
    /// buffers transposed so that its rows are contiguous; returns
    /// `(softmax, alpha, mask)` lane-major either way. (The strided
    /// instantiation is the same source; `tests/proptests.rs` holds the
    /// three bitwise-equal and `ops::softmax`'s tests repeat the
    /// masked-lane case on every layout.)
    fn sm(x: [f32; 6], visible: usize, p: f32, panel: bool) -> [Vec<f32>; 3] {
        let drop = Dropout::new(p, &StdRng::seed_from_u64(5)).unwrap();
        let [mut s, mut a, mut m] = [vec![7.0f32; 6], vec![7.0f32; 6], vec![7.0f32; 6]];
        // word `v` of lane `w`: `3w + v` lane-major, `2v + w` in a panel
        let transposed = |t: &[f32]| -> Vec<f32> { (0..6).map(|i| t[i % 2 * 3 + i / 2]).collect() };
        let lane_major = |t: &[f32]| -> Vec<f32> { (0..6).map(|i| t[i % 3 * 2 + i / 3]).collect() };
        // lane `w`'s masks start at index `w · visible`
        let mut sm_on = |run: Run, x: &[f32], at: LaneAt| {
            let first = at.base / 3 * visible;
            let (s, a, m) = (&mut s[..], &mut a[..], &mut m[..]);
            on_run!(run, N, P, [x @ at], [s @ at, a @ at, m @ at] => {
                let mut tail = Dropped { alpha: a, mask: m, drop: &drop, at: first, step: visible };
                softmax_lane::<N, _, _, _>(x, 0.5, visible, s, &mut tail)
            });
        };
        if panel {
            let at = LaneAt {
                base: 0,
                stride: 2,
                step: 1,
                len: 3,
            };
            sm_on(
                Run::Panel {
                    lanes: 2,
                    panels: 1,
                },
                &transposed(&x),
                at,
            );
            [s, a, m] = [lane_major(&s), lane_major(&a), lane_major(&m)];
        } else {
            for base in [0, 3] {
                let at = LaneAt {
                    base,
                    stride: 1,
                    step: 0,
                    len: 3,
                };
                sm_on(Run::Lane, &x, at);
            }
        }
        [s, a, m]
    }

    #[test]
    fn fully_masked_lane_is_zero_in_every_output_and_draws_nothing() {
        for panel in [false, true] {
            // lane 0 is all −inf over its visible prefix; lane 1 is ordinary
            let [s, a, m] = sm([NEG, NEG, 3.0, 0.0, 1.0, 2.0], 2, 0.5, panel);
            assert_eq!(&s[..3], &[0.0; 3]);
            assert_eq!(&a[..3], &[0.0; 3]);
            assert_eq!(&m[..3], &[0.0; 3]);
            assert!((s[3] + s[4] - 1.0).abs() < 1e-6 && s[5] == 0.0);
            // the dead lane draws no mask of its own but keeps its two
            // indices: lane 1's masks are those of indices 2 and 3
            let drop = Dropout::new(0.5, &StdRng::seed_from_u64(5)).unwrap();
            assert_eq!(&m[3..5], &[drop.mask(2), drop.mask(3)], "panel {panel}");
        }
    }

    #[test]
    fn a_lane_that_sees_nothing_is_zero_in_every_output() {
        for panel in [false, true] {
            let [s, a, m] = sm([1.0, 2.0, 3.0, 0.0, f32::NAN, 2.0], 0, 0.5, panel);
            for t in [s, a, m] {
                assert!(t.iter().all(|v| v.to_bits() == 0), "panel {panel}: {t:?}");
            }
        }
    }

    #[test]
    fn a_dead_lane_shifts_no_later_lanes_masks() {
        for panel in [false, true] {
            let [_, _, dead] = sm([NEG, NEG, 3.0, 0.0, 1.0, 2.0], 2, 0.5, panel);
            let [_, _, alive] = sm([1.0, 2.0, 3.0, 0.0, 1.0, 2.0], 2, 0.5, panel);
            assert_eq!(&dead[3..], &alive[3..], "panel {panel}");
        }
    }

    #[test]
    fn nan_poisons_the_whole_visible_lane_but_not_the_masked_tail() {
        // a NaN next to −inf must not be mistaken for a fully masked lane
        for panel in [false, true] {
            for lane0 in [[f32::NAN, 1.0, 9.0], [NEG, f32::NAN, 9.0]] {
                let [x0, x1, x2] = lane0;
                let [s, a, _] = sm([x0, x1, x2, 0.0, 1.0, 2.0], 2, 0.0, panel);
                assert!(s[0].is_nan() && s[1].is_nan(), "visible prefix: {s:?}");
                assert!(a[0].is_nan() && a[1].is_nan());
                assert_eq!(s[2], 0.0, "masked tail stays an exact zero");
                assert!(s[3..].iter().all(|v| v.is_finite()), "the other lane");
            }
        }
    }

    #[test]
    fn positive_infinity_does_not_panic() {
        for panel in [false, true] {
            let [s, ..] = sm([f32::INFINITY, 1.0, 2.0, 0.0, 0.0, 0.0], 3, 0.0, panel);
            assert!(
                s[..3].iter().all(|v| v.is_nan()),
                "inf − inf poisons: {s:?}"
            );
            assert!(s[3..].iter().all(|v| v.is_finite()), "its own lane only");
        }
    }

    /// Deterministic lane inputs in `[-8, 8)`.
    fn lane_inputs(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen::<f32>() * 16.0 - 8.0).collect()
    }

    /// `|got − want|` in units of the last place of `scale` (an f32).
    fn ulps(got: f32, want: f64, scale: f32) -> f64 {
        let ulp = f64::from(f32::from_bits(scale.abs().to_bits() + 1)) - f64::from(scale.abs());
        (f64::from(got) - want).abs() / ulp
    }

    /// `W` lanes of `lanes` (each `len` long, lane-major) as panel rows.
    fn as_rows<const W: usize>(lanes: &[f32], len: usize) -> Vec<f32> {
        as_rows_of(lanes, W, len)
    }

    /// [`as_rows`] of `n` lanes.
    fn as_rows_of(lanes: &[f32], n: usize, len: usize) -> Vec<f32> {
        (0..len * n).map(|i| lanes[i % n * len + i / n]).collect()
    }

    /// Worst error of [`exp`] against `f64::exp` over `inputs`, in units of
    /// the exact result's last place.
    fn exp_error(inputs: impl Iterator<Item = f32>) -> (f64, f32) {
        inputs.fold((0.0, 0.0), |worst, x| {
            let want = f64::exp(f64::from(x));
            let err = ulps(exp(x), want, want as f32);
            if err > worst.0 {
                (err, x)
            } else {
                worst
            }
        })
    }

    #[test]
    fn exp_is_within_its_bound_over_the_normal_range() {
        // 2²² + 1 evenly spaced inputs, and beside each its neighbouring f32
        let n = 1 << 22;
        let grid = (0..=n).map(|i| -87.3 + (88.7 + 87.3) * (i as f32 / n as f32));
        let beside = |x: f32| f32::from_bits(x.to_bits() ^ 1);
        let (err, at) = exp_error(grid.flat_map(|x| [x, beside(x)]));
        assert!(err <= 1.5, "{err:.3} ulp at {at}");
    }

    /// Every `f32` whose exact `eˣ` is a normal number; the rest by class;
    /// and every `f32` through the 512-bit instantiation, bit for bit the
    /// scalar call's. `cargo test --release -p xform-tensor --lib --
    /// --ignored` (four minutes; the worst it finds is 0.990 ulp, at
    /// 70.4031, at either width).
    #[test]
    #[ignore = "sweeps all 2³² bit patterns"]
    fn exp_is_within_its_bound_on_every_f32() {
        let (lo, hi) = (-87.336_54f32, 88.722_83f32);
        let every = || (0..=u32::MAX).map(f32::from_bits);
        let (err, at) = exp_error(every().filter(|x| (lo..=hi).contains(x)));
        assert!(err <= 1.5, "{err:.3} ulp at {at}");
        println!("worst error {err:.3} ulp, at {at}");
        for x in every() {
            let y = exp(x);
            let class_ok = match x {
                x if x.is_nan() => y.is_nan(),
                x if x < lo => y.to_bits() == 0,
                x if x > hi => y == f32::INFINITY,
                _ => y.is_normal(),
            };
            assert!(class_ok, "exp({x}) = {y}");
        }
        let Some(isa) = Avx512::detect() else {
            return println!("the 512-bit leg is skipped: the CPU has no AVX-512F");
        };
        let mut wide = vec![0.0f32; 1 << 16];
        for high in 0..=u32::from(u16::MAX) {
            let xs: Vec<f32> = (0..1 << 16)
                .map(|low| f32::from_bits(high << 16 | low))
                .collect();
            isa.run(
                #[inline(always)]
                || {
                    for (y, &x) in wide.iter_mut().zip(&xs) {
                        *y = exp(x);
                    }
                },
            );
            for (&x, y) in xs.iter().zip(&wide) {
                assert_eq!(y.to_bits(), exp(x).to_bits(), "exp({x}) at 512 bits");
            }
        }
        println!("the 512-bit instantiation: every f32 the same bits");
    }

    /// What each body the ISA dispatch runs on 512-bit lanes makes of lane
    /// `x` — `visible` positions seen, masks keyed by `drop` — under the
    /// instantiation `isa` picks (`isa::dispatch`), as bits: the softmax with
    /// each tail (plain; the region's dropout in place; SM's beside the
    /// saved softmax; the head's bias on the way in), BRD under GELU and
    /// ReLU, BDR, and BDRB under GELU′ into a bias lane and into one word.
    fn dispatched(isa: Option<Avx512>, x: &[f32], visible: usize, drop: &Dropout) -> Vec<Vec<u32>> {
        let len = x.len();
        let [bias, residual, dy] = [71u64, 72, 73].map(|k| lane_inputs(len, k));
        let mut outs: [Vec<f32>; 15] = std::array::from_fn(|_| vec![7.0f32; len]);
        let mut sums = [vec![0.0f32; len], vec![0.0f32; 1]];
        let lane = |stride| LaneAt {
            base: 0,
            stride,
            step: 0,
            len,
        };
        isa::dispatch(
            isa,
            #[inline(always)]
            || {
                let [y, region, s, a, m, head, z0, g0, m0, z1, r1, m1, bm, bo, dx] =
                    outs.each_mut().map(|o| &mut o[..]);
                softmax_lane::<1, _, _, _>(x, 0.5, visible, y, &mut ());
                let mut tail = DroppedInPlace {
                    drop,
                    at: 3,
                    step: visible,
                };
                softmax_lane::<1, _, _, _>(x, 0.5, visible, region, &mut tail);
                let mut tail = Dropped {
                    alpha: a,
                    mask: m,
                    drop,
                    at: 5,
                    step: visible,
                };
                softmax_lane::<1, _, _, _>(x, 0.5, visible, s, &mut tail);
                let biased = Biased {
                    x,
                    bias: |_, v| [bias[v]],
                };
                softmax_lane::<1, _, _, _>(&biased, 1.0, len, head, &mut ());
                let bias = &bias[..];
                brd_lane(x, bias, ActivationKind::Gelu, (drop, 9), z0, g0, m0);
                brd_lane(x, bias, ActivationKind::Relu, (drop, 9), z1, r1, m1);
                bdr_lane(x, bias, &residual[..], (drop, 11), bm, bo);
                let [lanes, word] = sums.each_mut();
                let (m0, z0) = (&*m0, &*z0);
                let act = Some((z0, ActivationKind::Gelu));
                bdrb_lane(&dy[..], m0, act, dx, &mut lane(1).strided_mut(lanes));
                bdrb_lane(&dy[..], m0, act, dx, &mut lane(0).strided_mut(word));
            },
        );
        let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect();
        outs.iter().chain(&sums).map(|t| bits(t)).collect()
    }

    /// Every body the ISA dispatch covers gives the same bits at both
    /// widths — `exp` has no `mul_add` and every reduction is lane-wise —
    /// over lanes of 1 to 2 048 positions either side of a block, causal
    /// prefixes of each, an all-`−inf` lane, NaN and `±inf` inputs, with
    /// dropout off and on.
    #[test]
    fn both_widths_give_every_dispatched_body_the_same_bits() {
        let Some(isa) = Avx512::detect() else {
            return println!("the 512-bit legs are skipped: the CPU has no AVX-512F");
        };
        for len in [1usize, 15, 16, 17, 33, 160, 1023, 2048] {
            let plain = lane_inputs(len, len as u64);
            let mut specials = plain.clone();
            for (at, word) in [(len / 3, f32::NAN), (len / 2, f32::INFINITY)] {
                specials[at] = word;
            }
            specials[len - 1] = f32::NEG_INFINITY;
            let lanes = [
                plain,
                specials,
                vec![f32::NEG_INFINITY; len],
                vec![f32::INFINITY; len],
            ];
            for p in [0.0, 0.3] {
                let drop = Dropout::new(p, &StdRng::seed_from_u64(len as u64)).unwrap();
                for (k, x) in lanes.iter().enumerate() {
                    for visible in [len, len.div_ceil(2), 1, 0] {
                        assert_eq!(
                            dispatched(None, x, visible, &drop),
                            dispatched(Some(isa), x, visible, &drop),
                            "lane {k} of {len}, {visible} visible, p = {p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exp_edges_are_pinned_by_value() {
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0);
        assert!(exp(f32::NAN).is_nan() && exp(-f32::NAN).is_nan());
        assert!(exp(f32::from_bits(0x7fc0_0001)).is_nan(), "any payload");
        for x in [88.73f32, 89.0, 1e30, f32::MAX, f32::INFINITY] {
            assert_eq!(exp(x), f32::INFINITY, "exp({x})");
        }
        // a result below the normal range is flushed, not rounded
        for x in [-87.34f32, -88.0, -100.0, -104.0, -1e30, f32::MIN] {
            assert_eq!(exp(x).to_bits(), 0, "exp({x})");
        }
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        // the last inputs inside the range are not clipped with it
        let (least, most) = (exp(-87.336_54), exp(88.722_83));
        assert!((f32::MIN_POSITIVE..1.176e-38).contains(&least), "{least}");
        assert!(most > 3.402e38 && most.is_finite(), "{most}");
    }

    /// The reduction is defined once: lanes of every length 1..=70 — every
    /// `len mod 16`, below and across whole blocks — give the same bits
    /// alone and contiguous, alone and strided, and abreast in panels of 16,
    /// 8, 4 and 2, under the fused tail at `p = 0.5` with a causal prefix,
    /// a dead lane, a NaN lane and a `+inf` lane among them.
    #[test]
    fn every_walk_reduces_a_lane_the_same_way() {
        let drop = Dropout::new(0.5, &StdRng::seed_from_u64(9)).unwrap();
        let abreast = |x: &[f32], n: usize, len: usize, visible: usize| -> [Vec<f32>; 3] {
            panel_of!(n, N, P => {
                let at = LaneAt {
                    base: 0,
                    stride: N,
                    step: 1,
                    len,
                };
                let rows = as_rows::<N>(x, len);
                let [mut s, mut a, mut m] = [(); 3].map(|_| vec![7.0f32; len * N]);
                let mut tail = Dropped {
                    alpha: &mut at.rows_mut(&mut a, 1),
                    mask: &mut at.rows_mut(&mut m, 1),
                    drop: &drop,
                    at: 0,
                    step: visible,
                };
                let out = &mut at.rows_mut(&mut s, 1);
                softmax_lane::<N, _, _, _>(&at.rows(&rows, 1), 0.5, visible, out, &mut tail);
                [s, a, m]
            })
        };
        for len in 1..=70usize {
            let visible = if len % 3 == 0 { len - len / 4 } else { len };
            let mut x = lane_inputs(len * W, len as u64);
            for (lane, word) in [(3, NEG), (5, f32::NAN), (6, f32::INFINITY)] {
                x[lane * len..(lane + 1) * len].fill(word);
            }
            x[5 * len + len / 2] = f32::NAN;
            // lane at a time: contiguous, and through a stride of 3
            let [mut s, mut a, mut m] = [(); 3].map(|_| vec![7.0f32; len * W]);
            for w in 0..W {
                let lane = w * len..(w + 1) * len;
                let mut tail = Dropped {
                    alpha: &mut a[lane.clone()],
                    mask: &mut m[lane.clone()],
                    drop: &drop,
                    at: w * visible,
                    step: visible,
                };
                let (x, out) = (&x[lane.clone()], &mut s[lane]);
                softmax_lane::<1, _, _, _>(x, 0.5, visible, out, &mut tail);
            }
            let apart: Vec<f32> = x.iter().flat_map(|&v| [v, 0.0, 0.0]).collect();
            let mut ss = vec![7.0f32; len * W];
            for w in 0..W {
                let at = |stride| LaneAt {
                    base: w * len * stride,
                    stride,
                    step: 0,
                    len,
                };
                let out = &mut at(1).strided_mut(&mut ss);
                softmax_lane::<1, _, _, _>(&at(3).strided(&apart), 0.5, visible, out, &mut ());
            }
            let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&s), bits(&ss), "strided, len {len}");
            // the same lanes abreast, in panels of 16, 8, 4 and 2: every
            // output, masks included
            for n in [W, 8, 4, 2] {
                let lanes = |t: &[f32]| bits(&as_rows_of(&t[..n * len], n, len));
                let want = [&s, &a, &m].map(|t| lanes(t));
                let got = abreast(&x[..n * len], n, len, visible).map(|t| bits(&t));
                assert_eq!(want, got, "panel of {n}, len {len}");
            }
        }
    }

    /// `t`, row-major over `x`'s extents, moved to `x`'s strides — or
    /// (`back`) a buffer at `x`'s strides moved to row-major order.
    fn lay(x: &crate::into_ops::View, t: &[f32], back: bool) -> Vec<f32> {
        let mut out = vec![0.0; t.len()];
        for k in 0..t.len() {
            let (mut rest, mut at) = (k, 0);
            for &(n, stride) in x.dims.iter().rev() {
                at += rest % n * stride;
                rest /= n;
            }
            match back {
                true => out[k] = t[at],
                false => out[at] = t[k],
            }
        }
        out
    }

    /// Every panel body run over rows of `r` lanes — whole runs of
    /// [`PANELS`] panels and fewer, panels of a halving and a last lane
    /// alone at a row's end, two rows (`o`) — in storage order gives the
    /// bits of the same lanes alone and contiguous (`W = 1`): every output,
    /// the statistics, the masks and dγ/dβ, whose words add the lanes of
    /// both rows in logical order. The bodies: LN, BDRLN at `p = 0` and
    /// `p > 0`, LN dX, BLNRD, BLNR, LN dW, EBSB, the fused softmax (causal
    /// along `o`, dropout) and its backward with and without BS's mask.
    #[test]
    fn every_panel_body_in_storage_order_keeps_the_bits_of_a_lane_alone() {
        use crate::into_ops::{self as io, Sweep, View};
        for r in [1usize, 15, 17, 33, 257, 531] {
            for len in [1usize, 2, 513] {
                let (sizes, n, lanes) = ([2, len, r], 2 * len * r, 2 * r);
                let seed = (r * 1000 + len) as u64;
                let inputs = [0u64, 1, 2, 3, 4, 5].map(|k| lane_inputs(n, seed + k));
                let [gamma, beta, bias] = [6u64, 7, 8].map(|k| lane_inputs(len, seed + k));
                let mean = lane_inputs(lanes, seed + 9);
                let inv: Vec<f32> = lane_inputs(lanes, seed + 10)
                    .iter()
                    .map(|v| 1.0 + v.abs() / 4.0)
                    .collect();
                let drop = |p| Dropout::new(p, &StdRng::seed_from_u64(seed)).unwrap();
                let (z, zl, zw) = (
                    || vec![7.0f32; n],
                    || vec![7.0f32; lanes],
                    || vec![0.5f32; len],
                );
                let weights = View::lane_weights(&sizes, 1);
                // (o, i, r) row-major, and the same lanes contiguous: (o, r, i);
                // every body's outputs in row-major order
                let [panel, alone] = [[len * r, r, 1], [len * r, 1, len]].map(|strides| {
                    let side = View::whole(&sizes, &strides);
                    let sweep = |ws: &[bool], query: Option<usize>| {
                        let views: Vec<&View> = ws
                            .iter()
                            .map(|&w| if w { &weights } else { &side })
                            .collect();
                        Sweep::compile(&views, Some(1), query).unwrap()
                    };
                    let [x, res, dy, dy2, y, mask] =
                        inputs.each_ref().map(|t| lay(&side, t, false));
                    let back = |t: &[f32]| lay(&side, t, true);
                    let mut got: Vec<(&str, Vec<Vec<f32>>)> = Vec::new();
                    let (mut out, mut m, mut s) = (z(), zl(), zl());
                    let sw = sweep(&[false, true, true, false], None);
                    io::layernorm_into(&sw, &x, &gamma, &beta, &mut out, &mut m, &mut s);
                    got.push(("LN", vec![back(&out), m, s]));
                    for p in [0.0, 0.3] {
                        let (mut mk, mut li, mut out, mut m, mut s) = (z(), z(), z(), zl(), zl());
                        let sw =
                            sweep(&[false, true, false, true, true, false, false, false], None);
                        io::bdrln_into(
                            &sw,
                            &x,
                            &bias,
                            &res,
                            &gamma,
                            &beta,
                            &drop(p),
                            &mut mk,
                            &mut li,
                            &mut out,
                            &mut m,
                            &mut s,
                        );
                        got.push(("BDRLN", vec![back(&mk), back(&li), back(&out), m, s]));
                    }
                    let (mut dx, mut dl, mut dr) = (z(), z(), z());
                    let sw = sweep(&[false, false, true, false], None);
                    io::layernorm_backward_input_into(&sw, &dy, &x, &gamma, &mean, &inv, &mut dx);
                    let sw = sweep(&[false, false, true, false, false, false], None);
                    io::blnrd_into(&sw, &dy, &x, &gamma, &mask, &mean, &inv, &mut dl, &mut dr);
                    got.push(("LN dX, BLNRD", vec![back(&dx), back(&dl), back(&dr)]));
                    let sw = sweep(&[false, false, true, false, false], None);
                    io::blnr_into(&sw, &dy, &x, &gamma, &res, &mean, &inv, &mut dx);
                    got.push(("BLNR", vec![back(&dx)]));
                    let (mut dg, mut db, mut ds) = (zw(), zw(), z());
                    let sw = sweep(&[false, false, true, true], None);
                    io::layernorm_backward_weights_into(
                        &sw, &dy, &x, &mean, &inv, &mut dg, &mut db,
                    );
                    got.push(("LN dW", vec![dg.clone(), db.clone()]));
                    // EBSB adds onto LN dW's sums
                    let sw = sweep(&[false, false, false, false, true, true], None);
                    io::ebsb_into(&sw, &dy, &dy2, &x, &mean, &inv, &mut ds, &mut dg, &mut db);
                    got.push(("EBSB", vec![back(&ds), dg, db]));
                    let (mut s, mut a, mut mk) = (z(), z(), z());
                    let sw = sweep(&[false; 4], Some(0));
                    io::sm_into(
                        &sw,
                        &x,
                        0.5,
                        Some(len / 3),
                        &drop(0.3),
                        &mut s,
                        &mut a,
                        &mut mk,
                    );
                    got.push(("SM", vec![back(&s), back(&a), back(&mk)]));
                    let (mut dx, mut dbeta) = (z(), z());
                    io::softmax_backward_into(&sweep(&[false; 3], None), &dy, &y, 0.5, &mut dx);
                    io::bs_into(&sweep(&[false; 4], None), &dy, &mask, &y, 0.5, &mut dbeta);
                    got.push(("softmax dX, BS", vec![back(&dx), back(&dbeta)]));
                    (sweep(&[false; 2], None).walk(), got)
                });
                // the panel side ran panels wherever a lane has two positions
                let want = if r > 1 && len > 1 {
                    Walk::Panel
                } else {
                    Walk::Lane
                };
                assert_eq!((panel.0, alone.0), (want, Walk::Lane));
                for ((name, panel), (_, alone)) in panel.1.iter().zip(&alone.1) {
                    let bits = |ts: &[Vec<f32>]| -> Vec<Vec<u32>> {
                        ts.iter()
                            .map(|t| t.iter().map(|v| v.to_bits()).collect())
                            .collect()
                    };
                    assert!(
                        bits(panel) == bits(alone),
                        "{name}: rows of {r} lanes, {len} positions"
                    );
                }
            }
        }
    }

    /// The yardstick of the numerics tier: the worst error of each
    /// transcendental-bearing body against an f64 oracle — the same for the
    /// lane and the panel instantiation, bit for bit. A softmax output is
    /// measured in its own last place; a layer-norm output and a GELU (and
    /// its derivative) in the last place of the largest magnitude of their
    /// lane (their formulas cancel, so an output near zero has no relative
    /// accuracy to lose). With scalar libm `exp`/`tanh` and serial sums
    /// this read softmax 23.58, GELU 0.89, GELU′ 4.60; no libm is left under
    /// it, so the numbers are the arithmetic's own on every host and are
    /// held to the digit.
    #[test]
    fn max_error_against_an_f64_oracle_is_the_recorded_yardstick() {
        const RECORDED: [(&str, f64); 4] = [
            ("softmax", 4.01),
            ("layernorm", 6.78),
            ("gelu", 1.06),
            ("gelu grad", 1.55),
        ];
        let (mut softmax_err, mut norm_err) = (0.0f64, 0.0f64);
        for (len, seed) in [(17usize, 1u64), (64, 2), (512, 3), (2048, 4)] {
            let x = lane_inputs(len * W, seed);
            let (gamma, beta) = (lane_inputs(len, seed + 10), lane_inputs(len, seed + 20));
            // lane at a time, contiguous
            let (mut sm, mut ln) = (vec![0.0f32; len * W], vec![0.0f32; len * W]);
            let (mut means, mut inv_stds) = ([0.0f32; W], [0.0f32; W]);
            for w in 0..W {
                let lane = w * len..(w + 1) * len;
                softmax_lane::<1, _, _, _>(
                    &x[lane.clone()],
                    0.5,
                    len,
                    &mut sm[lane.clone()],
                    &mut (),
                );
                let stats = (&mut means[w..], &mut inv_stds[w..]);
                norm_lane::<1, 1, _, _>(&x[lane.clone()], &gamma, &beta, &mut ln[lane], stats);
            }
            // the same lanes abreast: every bit, statistics included
            let at = LaneAt {
                base: 0,
                stride: W,
                step: 1,
                len,
            };
            let rows = as_rows::<W>(&x, len);
            let (mut psm, mut pln) = (vec![0.0f32; len * W], vec![0.0f32; len * W]);
            softmax_lane::<W, _, _, _>(
                &at.rows(&rows, 1),
                0.5,
                len,
                &mut at.rows_mut(&mut psm, 1),
                &mut (),
            );
            let mut pstats = ([0.0f32; W], [0.0f32; W]);
            let out = &mut at.rows_mut(&mut pln, 1);
            norm_lane::<W, 1, _, _>(
                &at.rows(&rows, 1),
                &gamma,
                &beta,
                out,
                (&mut pstats.0, &mut pstats.1),
            );
            let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&as_rows::<W>(&sm, len)),
                bits(&psm),
                "softmax, len {len}"
            );
            assert_eq!(
                bits(&as_rows::<W>(&ln, len)),
                bits(&pln),
                "layernorm, len {len}"
            );
            assert_eq!(
                (bits(&means), bits(&inv_stds)),
                (bits(&pstats.0), bits(&pstats.1))
            );
            // the oracle, lane by lane in f64
            for w in 0..W {
                let xs: Vec<f64> = x[w * len..(w + 1) * len]
                    .iter()
                    .map(|&v| f64::from(v))
                    .collect();
                let mx = xs.iter().fold(f64::MIN, |m, &v| m.max(0.5 * v));
                let sum: f64 = xs.iter().map(|&v| f64::exp(0.5 * v - mx)).sum();
                let mean = xs.iter().sum::<f64>() / len as f64;
                let var = xs.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / len as f64;
                let norm = |v: usize| {
                    (xs[v] - mean) / (var + f64::from(EPS)).sqrt() * f64::from(gamma[v])
                        + f64::from(beta[v])
                };
                let scale = (0..len).fold(0.0f64, |m, v| m.max(norm(v).abs())) as f32;
                for v in 0..len {
                    let want = f64::exp(0.5 * xs[v] - mx) / sum;
                    softmax_err = softmax_err.max(ulps(sm[w * len + v], want, want as f32));
                    norm_err = norm_err.max(ulps(ln[w * len + v], norm(v), scale));
                }
            }
        }
        // GELU and its derivative over [−6, 6], whose largest magnitudes
        // there are 6 and 1.129
        let (mut gelu_err, mut grad_err) = (0.0f64, 0.0f64);
        for x in (-6000..=6000).map(|n| n as f32 * 1e-3) {
            let xd = f64::from(x);
            let c = 0.797_884_560_802_865_4;
            let t = f64::tanh(c * (xd + 0.044_715 * xd * xd * xd));
            let du = c * (1.0 + 3.0 * 0.044_715 * xd * xd);
            let (want, want_grad) = (
                0.5 * xd * (1.0 + t),
                0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du,
            );
            gelu_err = gelu_err.max(ulps(ActivationKind::Gelu.apply(x), want, 6.0));
            grad_err = grad_err.max(ulps(ActivationKind::Gelu.grad(x), want_grad, 1.129));
        }
        let measured = [softmax_err, norm_err, gelu_err, grad_err];
        for ((name, recorded), measured) in RECORDED.iter().zip(measured) {
            assert!(
                (measured - recorded).abs() < 0.01,
                "{name}: {measured:.2} ulp against the recorded {recorded:.2}"
            );
        }
    }

    #[test]
    fn dropout_probability_is_range_checked() {
        let key = StdRng::seed_from_u64(1);
        for p in [1.0f32, 1.5, -0.5, f32::NAN, f32::INFINITY] {
            let err = Dropout::new(p, &key).unwrap_err();
            assert!(matches!(err, TensorError::InvalidDropout(_)), "p = {p}");
        }
        assert!(Dropout::new(0.0, &key).is_ok());
        assert!(Dropout::new(0.999, &key).is_ok());
    }

    /// The mask of index `n` is the select of the `(n + 1)`-th `f32` drawn
    /// from the key: what drawing one mask an element used to give.
    #[test]
    fn mask_n_is_the_select_of_the_keys_draw_n() {
        let key = StdRng::seed_from_u64(2);
        for p in [0.0f32, 0.1, 0.5, 0.9] {
            let drop = Dropout::new(p, &key).unwrap();
            let mut rng = key.clone();
            for n in 0..256 {
                let want = if rng.gen::<f32>() >= p {
                    1.0 / (1.0 - p)
                } else {
                    0.0
                };
                assert_eq!(drop.mask(n).to_bits(), want.to_bits(), "p {p} index {n}");
            }
        }
    }
}
