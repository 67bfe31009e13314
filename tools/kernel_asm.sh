#!/usr/bin/env bash
# The "Wide kernel" guard: what `tensor::matmul::kernel` compiled to, which
# no test can see. Emits xform-tensor's release assembly under the repo's
# own `.cargo/config.toml` and fails if
#   (a) a `kernel` symbol holds no ymm `vmulps`/`vaddps`, or holds a
#       `vmulss` — the silent scalarization a panic edge, a closure or an
#       inlined call site buys (EXPERIMENTS.md, "Wide ISA");
#   (b) a fused multiply-add appears anywhere in the crate: every bitwise
#       contract stands on separate multiplies and adds, and one `mul_add`
#       (or a flag that lets LLVM contract) breaks them all;
#   (c) `tile_at` or the closure-taking `tile` is back in matmul.rs beside
#       `kernel`.
# On another architecture there is nothing to read: (a) and (b) are skipped.
#
#   tools/kernel_asm.sh            # check
#   tools/kernel_asm.sh --print    # and print the kernel symbols' bodies
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

src=crates/tensor/src/matmul.rs
if grep -nE 'fn tile_at|fn tile<' "$src"; then
  echo "$src: a second micro-kernel is back beside \`kernel\` (see above)"; exit 1
fi

if [ "$(uname -m)" != x86_64 ]; then
  echo "kernel_asm: not x86-64, assembly checks skipped"; exit 0
fi

# a target directory of its own, emptied first: the asm is a side output
# the ordinary build never makes, and cargo re-emits none for a crate it
# finds fresh — a stale or a missing file must not be what is read
out="${CARGO_TARGET_DIR:-target}/kernel-asm"
rm -rf "$out"
cargo rustc -q -p xform-tensor --release --lib --target-dir "$out" -- --emit asm
asm="$(ls "$out"/release/deps/xform_tensor-*.s)"

if grep -nE 'vfn?m(add|sub)' "$asm"; then
  echo "xform-tensor holds a fused multiply-add (see above): the same-bits contract is separate multiplies and adds"; exit 1
fi

# each `kernel::<R>` instantiation, label to `.size`, judged on its own;
# `6matmul6kernel` is the path under either symbol mangling (`_ZN…`, `_R…`)
awk -v print_them="${1:-}" '
  /^[0-9a-zA-Z_$.]*6matmul6kernel[0-9a-zA-Z_$.]*:/ { on = 1; name = $0; n++; mul = add = 0 }
  on && print_them == "--print" { print }
  on && /vmulps.*%ymm/ { mul = 1 }
  on && /vaddps.*%ymm/ { add = 1 }
  on && /v(mul|add)ss/ { print name " " $0; scalar = 1 }
  on && /^\t\.size\t/ {
    on = 0
    if (!mul || !add) { print name " multiplies or adds no ymm vector"; narrow = 1 }
  }
  END {
    if (n < 2) { print "expected the slab and the single-row instantiation of matmul::kernel, found " n + 0 ": is it still #[inline(never)]?"; exit 1 }
    if (narrow) { print "matmul::kernel lost its width (see above)"; exit 1 }
    if (scalar) { print "matmul::kernel holds scalar arithmetic (see above): an accumulator fell out of its registers"; exit 1 }
    print "kernel_asm: " n " kernel symbols, ymm mul+add in each, no scalar arithmetic, no FMA in xform-tensor"
  }' "$asm"
