#!/usr/bin/env bash
# The "Wide kernel" guard: what `tensor::matmul::kernel` compiled to, which
# no test can see. Emits xform-tensor's release assembly under the repo's
# own `.cargo/config.toml` and fails if
#   (a) a `kernel` symbol holds no ymm `vfmadd…ps`, or holds a ymm
#       `vmulps`/`vaddps` (the product rounded before the add: `+= a * b`
#       is back) or any scalar `v(mul|add|fmadd…)ss` — the silent
#       scalarization a panic edge, a closure or an inlined call site buys
#       (EXPERIMENTS.md, "Wide ISA");
#   (b) a fused multiply-add appears anywhere else in the crate but in
#       `naive_sgemm`, the oracle that states the kernel's arithmetic: the
#       GEMM alone rounds once per product, and `lanes::exp`'s polynomial
#       and every lane body keep separate multiplies and adds;
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

# each `kernel::<R>` instantiation, label to `.size`, judged on its own;
# `6matmul6kernel` is the path under either symbol mangling (`_ZN…`, `_R…`),
# and a line that starts with neither `.` nor whitespace opens a symbol
awk -v print_them="${1:-}" '
  /^[^.[:space:]][^[:space:]]*:/ { sym = $0 }
  /vfn?m(add|sub)/ && sym !~ /6matmul(6kernel|11naive_sgemm)/ { print sym " " $0; fused = 1 }
  /^[0-9a-zA-Z_$.]*6matmul6kernel[0-9a-zA-Z_$.]*:/ { on = 1; name = $0; n++; fma = 0 }
  on && print_them == "--print" { print }
  on && /vfmadd[0-9]*ps.*%ymm/ { fma = 1 }
  on && /v(mul|add)ps.*%ymm/ { print name " " $0; split_ops = 1 }
  on && /v(mul|add|fn?m(add|sub)[0-9]*)ss/ { print name " " $0; scalar = 1 }
  on && /^\t\.size\t/ {
    on = 0
    if (!fma) { print name " holds no ymm fused multiply-add"; narrow = 1 }
  }
  END {
    if (fused) { print "a fused multiply-add outside matmul::kernel (see above): only the GEMM rounds once per product"; exit 1 }
    if (n < 2) { print "expected the slab and the single-row instantiation of matmul::kernel, found " n + 0 ": is it still #[inline(never)]?"; exit 1 }
    if (narrow) { print "matmul::kernel lost its width or its mul_add (see above)"; exit 1 }
    if (split_ops) { print "matmul::kernel multiplies and adds separately (see above): the product must not be rounded before the add"; exit 1 }
    if (scalar) { print "matmul::kernel holds scalar arithmetic (see above): an accumulator fell out of its registers"; exit 1 }
    print "kernel_asm: " n " kernel symbols, ymm fused multiply-add in each, no separate or scalar arithmetic, no FMA elsewhere in xform-tensor"
  }' "$asm"
