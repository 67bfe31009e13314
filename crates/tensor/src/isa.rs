//! The crate's one instruction-set choice: whether the host runs
//! AVX-512F, asked by [`Avx512::detect`], and the one way into code
//! compiled for it, [`Avx512::run`].
//!
//! The build targets x86-64-v3 (`.cargo/config.toml`): 256-bit lanes. Two
//! kinds of kernel run faster on 512-bit ones where the host has them —
//! the GEMM's `R×2NR` tile (`matmul::accumulate`) and the lane bodies whose
//! time is [`crate::lanes::exp`]'s element rate: the contiguous softmax
//! lane (the attention region's and the head's row tails, `Kernel::Sm`'s
//! `Walk::Lane`), BRD's GELU and BDRB's GELU′ (`into_ops`). Each reaches
//! 512-bit code the same way: its driver hands its loop to [`widest!`],
//! which wraps it in an `#[inline(always)]` closure (the GEMM, which has a
//! tile of its own for 256-bit lanes, hands one to [`Avx512::run`]
//! itself), and the closure — with every body it calls, each
//! `#[inline(always)]` too — is inlined into one out-of-line instantiation
//! of [`wide`], the only function compiled under `#[target_feature(enable
//! = "avx512f")]`, or of [`narrow`], compiled for the build's ISA.
//!
//! What is inlined matters: a body left out of line keeps the build's ISA,
//! and one out of line *under* the feature — the attribute on a leaf body
//! such as `lanes::brd_lane` — compiled its `exp` and GELU calls out of
//! line, a call a position (EXPERIMENTS.md, "Softmax and GELU on 512-bit
//! lanes"). So an instantiation wraps a driver's loop — a tile's rows, or
//! a run of a sweep — around bodies inlined whole, and
//! `tools/kernel_asm.sh` reads each one for zmm arithmetic and for calls
//! inside its loops. The walks that read slower under 512-bit code (the
//! norm bodies, the panel softmax) are never handed here.
//!
//! The bits do not depend on the width: [`crate::lanes::exp`] and the lane
//! bodies have no `mul_add`, every reduction is lane-wise (a lane's
//! partials never meet before their fixed tree), and the GEMM's one
//! `mul_add` per product is exact by definition — so every body computes
//! the same bits in either instantiation
//! (`lanes::tests::both_widths_give_every_dispatched_body_the_same_bits`,
//! `matmul::tests::both_tiles_are_the_naive_oracle_at_every_width`).

/// Proof that the host runs AVX-512F: made by [`Avx512::detect`] alone,
/// so [`Avx512::run`]'s one call into code compiled for it is sound by
/// construction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx512(());

impl Avx512 {
    /// The host's licence, or `None` without AVX-512F (or off x86-64). The
    /// answer is cached by the standard library: a load and a test a call.
    pub(crate) fn detect() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Some(Avx512(()));
        }
        None
    }

    /// `body`, inlined into an instantiation of [`wide`]: compiled for
    /// AVX-512F.
    #[allow(unsafe_code)]
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_unsafe))]
    #[inline(always)]
    pub(crate) fn run<R>(self, body: impl FnOnce() -> R) -> R {
        // SAFETY: `wide` needs AVX-512F, and an `Avx512` is made only by
        // `Avx512::detect`, after the standard library's run-time
        // detection found it on the CPU this process runs on.
        unsafe { wide(body) }
    }
}

/// `body` out of line at the widest ISA `isa` allows: compiled for
/// AVX-512F under a licence, for the build's ISA without one. Hand it an
/// `#[inline(always)]` closure over `#[inline(always)]` bodies — anything
/// left out of line runs at the build's ISA — as [`widest!`] does.
#[inline(always)]
pub(crate) fn dispatch<R>(isa: Option<Avx512>, body: impl FnOnce() -> R) -> R {
    match isa {
        Some(isa) => isa.run(body),
        None => narrow(body),
    }
}

/// `$body`, an expression over `#[inline(always)]` bodies, run out of line
/// at the widest ISA the host has: wrapped in the `#[inline(always)]`
/// closure [`dispatch`] needs, under the licence [`Avx512::detect`] finds.
macro_rules! widest {
    ($body:expr) => {
        $crate::isa::dispatch(
            $crate::isa::Avx512::detect(),
            #[inline(always)]
            || $body,
        )
    };
}
pub(crate) use widest;

/// The out-of-line instantiation of a body at the build's ISA.
#[inline(never)]
pub(crate) fn narrow<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// The out-of-line instantiation of a body at 512-bit lanes; called
/// through [`Avx512::run`] alone.
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx512f"))]
#[inline(never)]
fn wide<R>(body: impl FnOnce() -> R) -> R {
    body()
}
