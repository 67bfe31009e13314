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
#       `kernel`;
#   (d) an instantiation of `lanes::softmax_lane` over a contiguous lane
#       (`W = 1`, `[f32]` in and out — the attention region's row tail, the
#       head's and `Walk::Lane`'s) holds no ymm `vmaxps`, `vaddps` or
#       `vmulps`, holds a scalar `v(max|add|mul|sub)ss` inside a loop, or
#       calls a method of a tail or a view: its three passes run sixteen
#       positions abreast, a scalar op inside them is a pass that fell
#       back to a word at a time, and a call a tail's `keep` or a view's
#       block access left out of line, a call per sixteen positions (the
#       joins of the partials, the `−inf` rescan and the last, padded
#       block run outside the loops);
#   (e) a `kernel` symbol holds a memory operand on `%rsp` or `%rbp` — an
#       accumulator spilled to the stack: at `MR×NR = 6×16` fifteen of the
#       sixteen `ymm` are live, and a spill keeps every digest green at a
#       fraction of the speed — or the instantiations are not exactly the
#       slab heights `R ∈ {MR, 4, 2, 1}` the block loop cuts.
# On another architecture there is nothing to read: (a), (b), (d) and (e)
# are skipped.
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
# (v0 mangling names an instantiation's generic arguments: `Kj1_Sf` is
# `W = 1` over `[f32]`; the code is the ordinary build's)
cargo rustc -q -p xform-tensor --release --lib --target-dir "$out" -- \
  --emit asm -C symbol-mangling-version=v0
asm="$(ls "$out"/release/deps/xform_tensor-*.s)"
# the slab heights, as v0 mangling spells a `usize` const argument (hex)
mr="$(sed -n 's/^pub const MR: usize = \([0-9]*\);.*/\1/p' "$src")"
heights="$(printf '%x 4 2 1' "$mr")"

# each `kernel::<R>` instantiation, label to `.size`, judged on its own;
# `6matmul6kernel` is the path under either symbol mangling (`_ZN…`, `_R…`),
# and a line that starts with neither `.` nor whitespace opens a symbol
awk -v print_them="${1:-}" -v heights="$heights" '
  /^[^.[:space:]][^[:space:]]*:/ { sym = $0 }
  /vfn?m(add|sub)/ && sym !~ /6matmul(6kernel|11naive_sgemm)/ { print sym " " $0; fused = 1 }
  /^[0-9a-zA-Z_$.]*6matmul6kernel[0-9a-zA-Z_$.]*:/ {
    on = 1; name = $0; n++; fma = 0
    if (match($0, /6kernelKj[0-9a-f]+_/)) found[substr($0, RSTART + 9, RLENGTH - 10)] = 1
  }
  on && print_them == "--print" { print }
  on && /vfmadd[0-9]*ps.*%ymm/ { fma = 1 }
  on && /v(mul|add)ps.*%ymm/ { print name " " $0; split_ops = 1 }
  on && /v(mul|add|fn?m(add|sub)[0-9]*)ss/ { print name " " $0; scalar = 1 }
  on && /\(%r[sb]p[,)]/ { print name " " $0; spill = 1 }
  on && /^\t\.size\t/ {
    on = 0
    if (!fma) { print name " holds no ymm fused multiply-add"; narrow = 1 }
  }
  # a contiguous softmax lane: a jump back to a label of the symbol closes
  # a loop, whose lines are read for scalar arithmetic
  /^_R[0-9a-zA-Z_$.]*12softmax_laneKj1_Sf[0-9a-zA-Z_$.]*:/ {
    lane = 1; lname = $0; lanes++; nl = 0; split("", label); split("", seen)
  }
  lane && print_them == "--print" { print }
  lane { line[++nl] = $0; for (op in seen) if ($0 ~ "v" op "ps.*%ymm") seen[op] = 1 }
  lane && nl == 1 { seen["max"] = 0; seen["add"] = 0; seen["mul"] = 0 }
  lane && /^\.LBB[0-9_]+:/ { label[substr($1, 1, length($1) - 1)] = nl }
  lane && /^\tj[a-z]+\t\.LBB[0-9_]+$/ && $1 != "jmp" && ($2 in label) {
    for (i = label[$2]; i <= nl; i++)
      if (line[i] ~ /v(max|add|mul|sub)ss/) { print lname " " line[i]; lane_scalar = 1 }
  }
  lane && /^\tcall.*(11SoftmaxTail|5Panel|8PanelMut|4Lane|7LaneMut)/ { print lname " " $0; lane_call = 1 }
  lane && /^\t\.size\t/ {
    lane = 0
    for (op in seen) if (!seen[op]) { print lname " holds no ymm v" op "ps"; lane_narrow = 1 }
  }
  END {
    if (fused) { print "a fused multiply-add outside matmul::kernel (see above): only the GEMM rounds once per product"; exit 1 }
    want = split(heights, h, " ")
    for (i = 1; i <= want; i++) if (!(h[i] in found)) { print "no matmul::kernel instantiation at R = 0x" h[i] ": is it still #[inline(never)], and does the block loop cut its slabs as {MR, 4, 2, 1}?"; exit 1 }
    if (n != want) { print "expected " want " instantiations of matmul::kernel (R = " heights ", hex), found " n + 0; exit 1 }
    if (narrow) { print "matmul::kernel lost its width or its mul_add (see above)"; exit 1 }
    if (split_ops) { print "matmul::kernel multiplies and adds separately (see above): the product must not be rounded before the add"; exit 1 }
    if (scalar) { print "matmul::kernel holds scalar arithmetic (see above): an accumulator fell out of its registers"; exit 1 }
    if (spill) { print "matmul::kernel reads or writes the stack (see above): the tile spilled out of its sixteen ymm"; exit 1 }
    if (lanes < 1) { print "found no contiguous instantiation of lanes::softmax_lane: is it still #[inline(never)]?"; exit 1 }
    if (lane_narrow) { print "a contiguous softmax lane lost its width (see above)"; exit 1 }
    if (lane_scalar) { print "a contiguous softmax lane runs a pass a word at a time (see above)"; exit 1 }
    if (lane_call) { print "a contiguous softmax lane calls a tail or a view out of line (see above)"; exit 1 }
    print "kernel_asm: " n " kernel symbols (R = " heights ", hex), ymm fused multiply-add in each, no separate or scalar arithmetic, no stack operand, no FMA elsewhere in xform-tensor; " lanes " contiguous softmax lanes, ymm max/add/mul in each, no scalar arithmetic in their loops, no tail or view out of line"
  }' "$asm"
