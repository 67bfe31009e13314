#!/usr/bin/env bash
# The "Wide kernel" guard: what the crate's hot bodies compiled to, which no
# test can see. `tensor::matmul`'s two tiles — `kernel` (`R×NR` on 256-bit
# lanes, the build's ISA) and `kernel_wide` (`R×2NR` over two panels on
# 512-bit lanes, inlined into its instantiation of `isa::wide`, the one
# function compiled under `#[target_feature(enable = "avx512f")]`, taken
# when the host has it) — and the lane bodies `tensor::isa` runs at both
# widths. Emits xform-tensor's release assembly under the repo's own
# `.cargo/config.toml` and fails if
#   (a) a `kernel` symbol holds no ymm `vfmadd…ps` or a wide GEMM tile
#       (`isa::wide` over `matmul::accumulate`'s closure) no zmm one, or
#       either holds a ymm or zmm `vmulps`/`vaddps` (the product rounded
#       before the add: `+= a * b` is back) or any scalar
#       `v(mul|add|fmadd…)ss` — the silent scalarization a panic edge, a
#       closure or an inlined call site buys (EXPERIMENTS.md, "Wide ISA");
#   (b) a fused multiply-add appears anywhere else in the crate but in the
#       two tiles and `naive_sgemm`, the oracle that states their
#       arithmetic: the GEMM alone rounds once per product, and
#       `lanes::exp`'s polynomial and every lane body keep separate
#       multiplies and adds;
#   (c) `tile_at` or the closure-taking `tile` is back in matmul.rs beside
#       `kernel`;
#   (d) a lane driver's instantiation at the build's ISA (`isa::narrow`
#       over a closure of `into_ops::{tile_into, softmax_into, sm_into,
#       brd_act_into, bdrb_act_into}` that `isa::widest!` also
#       instantiates wide: the attention region's and the head's row
#       tails, `Walk::Lane`'s softmax, BRD's GELU, BDRB's GELU′) holds no
#       ymm `vmaxps`, `vaddps` or `vmulps`, or its twin on 512-bit lanes
#       (`isa::wide` over the same closure) no zmm ones, or either holds a
#       scalar `v(max|add|mul|sub)ss` inside a loop, or a call inside a
#       loop to anything but a panic, the cold `dead_lanes` rescan or a
#       libc copy through a register: the bodies run sixteen positions
#       abreast, a scalar op inside a loop is a pass that fell back to a
#       word at a time, and a call there is a tail, a view, `exp` or GELU
#       left out of line — in the wide instantiation compiled for the
#       build's ISA, a call a position (EXPERIMENTS.md, "Softmax and GELU on
#       512-bit lanes"); and every one of those five drivers has both;
#   (e) a GEMM tile symbol holds a memory operand on `%rsp` or `%rbp` — an
#       accumulator spilled to the stack: at `MR×NR = 6×16` fifteen of the
#       sixteen `ymm` are live, at `MR×2NR` thirteen `zmm`, and a spill
#       keeps every digest green at a fraction of the speed — or the
#       instantiations of either tile are not exactly the slab heights
#       `R ∈ {MR, 4, 2, 1}` the block loop cuts.
#   (f) an instantiation of the storage-order norm body at `W = 16`
#       (`lanes::norm_lane` over a run of panels: LN and the BDRLN prologue,
#       `…9norm_laneKj10_…`) holds no ymm `vaddps`, `vmulps` or `vsubps`,
#       holds a scalar `v(add|mul|sub)ss` inside a loop, or calls a Rust
#       function inside a loop (anything but a panic): each pass takes
#       every panel of a run at a position before the next, a row of `W`
#       words at a time, and a scalar op or a call there is a row that fell
#       apart or a view or the prologue left out of line, once per lane
#       position. (The backward norm bodies inline into their drivers: out
#       of line, their lane-at-a-time instantiation ran 2.3× slower. The
#       norm bodies and the panel softmax stay at the build's ISA: under
#       512-bit code they read slower.)
# On another architecture there is nothing to read: (a), (b), (d), (e) and
# (f) are skipped.
#
#   tools/kernel_asm.sh            # check
#   tools/kernel_asm.sh --print    # and print the checked symbols' bodies
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
# `W = 1` over `[f32]`, `Kj10_Kj20_` is `W = 16`, `P = 32`, and an
# instantiation of `isa::wide` / `isa::narrow` (`3isa4wide`, `3isa6narrow`)
# the closure it runs, by the path of the function that wrote it; the code
# is the ordinary build's)
if ! cargo rustc -q -p xform-tensor --release --lib --target-dir "$out" -- \
  --emit asm -C symbol-mangling-version=v0; then
  echo "kernel_asm: xform-tensor did not build (see above)"; exit 1
fi
asm="$(ls "$out"/release/deps/xform_tensor-*.s)"
# the slab heights, as v0 mangling spells a `usize` const argument (hex)
mr="$(sed -n 's/^pub const MR: usize = \([0-9]*\);.*/\1/p' "$src")"
heights="$(printf '%x 4 2 1' "$mr")"
# the lane drivers `isa::widest!` instantiates at both widths, as v0 spells
# their names
drivers="9tile_into 12softmax_into 7sm_into 12brd_act_into 13bdrb_act_into"

# each GEMM tile — `kernel::<R>`, and `isa::wide` over
# `accumulate::<R>`'s closure — label to `.size`, judged on its own, and
# each lane driver's instantiation at either width, its loops read for
# scalar arithmetic and calls; a line that starts with neither `.` nor
# whitespace opens a symbol
awk -v print_them="${1:-}" -v heights="$heights" -v drivers="$drivers" '
  /^[^.[:space:]][^[:space:]]*:/ { sym = $0 }
  /vfn?m(add|sub)/ && sym !~ /6matmul(6kernel|11naive_sgemm)|3isa4wide.*6matmul10accumulate/ { print sym " " $0; fused = 1 }
  /^_R[0-9a-zA-Z_$.]*(6matmul6kernel|3isa4wide[0-9a-zA-Z_$.]*6matmul10accumulate)[0-9a-zA-Z_$.]*:/ {
    on = 1; name = $0; fma = 0
    kind = ($0 ~ /3isa4wide/) ? "kernel_wide" : "kernel"; reg = (kind == "kernel") ? "ymm" : "zmm"
    count[kind]++
    if (match($0, /(kernel|accumulate)Kj[0-9a-f]+_/)) { ht = substr($0, RSTART, RLENGTH - 1); sub(/.*Kj/, "", ht); found[kind, ht] = 1 }
  }
  on && print_them == "--print" { print }
  on && $0 ~ ("vfmadd[0-9]*ps.*%" reg) { fma = 1 }
  on && /v(mul|add)ps.*%[yz]mm/ { print name " " $0; split_ops = 1 }
  on && /v(mul|add|fn?m(add|sub)[0-9]*)ss/ { print name " " $0; scalar = 1 }
  on { gline[++gn] = $0 }
  on && /^\.LBB[0-9_]+:/ { glabel[substr($1, 1, length($1) - 1)] = gn }
  on && /^\tj[a-z]+\t\.LBB[0-9_]+$/ && $1 != "jmp" && ($2 in glabel) {
    for (i = glabel[$2]; i <= gn; i++) if (gline[i] ~ /vfmadd/) { gfrom = glabel[$2]; gto = gn }
  }
  on && /^\t\.size\t/ {
    on = 0
    if (!fma) { print name " holds no " reg " fused multiply-add"; narrow = 1 }
    # `kernel` is the loop alone; a wide tile carries its load and store of
    # C around the loop over the depth, whose accumulators must stay in
    # registers
    for (i = (kind == "kernel") ? 1 : gfrom; i <= ((kind == "kernel") ? gn : gto); i++)
      if (gline[i] ~ /\(%r[sb]p[,)]/) { print name " " gline[i]; spill = 1 }
    gn = 0; gfrom = 0; gto = -1; split("", glabel)
  }
  # a lane driver'"'"'s instantiation: a jump back to a label of the symbol
  # closes a loop, whose lines are read for scalar arithmetic and calls
  /^_R[0-9a-zA-Z_$.]*3isa(4wide|6narrow)[0-9a-zA-Z_$.]*8into_ops[0-9a-zA-Z_$.]*:/ {
    lane = 1; lname = substr($0, 1, length($0) - 1); nl = 0; split("", label)
    lw = ($0 ~ /3isa4wide/) ? "zmm" : "ymm"
    width[lname] = lw; for (op in ops) seen[lname, op] = 0
  }
  lane && print_them == "--print" { print }
  lane { line[++nl] = $0; for (op in ops) if ($0 ~ ("v" ops[op] "ps.*%" lw)) seen[lname, op] = 1 }
  lane && /^\.LBB[0-9_]+:/ { label[substr($1, 1, length($1) - 1)] = nl }
  lane && /^\tj[a-z]+\t\.LBB[0-9_]+$/ && $1 != "jmp" && ($2 in label) { loops++; from[loops] = label[$2]; to[loops] = nl }
  # the innermost loops are the passes over a lane'"'"'s blocks; a driver'"'"'s
  # loop around them (a tile'"'"'s rows) holds each lane'"'"'s joins and setup
  lane && /^\t\.size\t/ {
    lane = 0
    for (l = 1; l <= loops; l++) {
      inner = 1
      for (m = 1; m <= loops; m++) if (m != l && from[m] >= from[l] && to[m] <= to[l] && (from[m] > from[l] || to[m] < to[l])) inner = 0
      if (!inner) continue
      for (i = from[l]; i <= to[l]; i++) {
        # (the bias gradient of BDRB into one word is an ascending serial sum by
        # definition, a scalar add a position at either width)
        if (line[i] ~ /v(max|add|mul|sub)ss/ && !(lname ~ /13bdrb_act_into/ && line[i] ~ /vaddss/)) { bad[lname] = bad[lname] "\n  " line[i] " (scalar arithmetic in a loop)" }
        if (line[i] ~ /^\tcall.*_R/ && line[i] !~ /panic|_fail/) { bad[lname] = bad[lname] "\n  " line[i] " (a call in a loop)" }
      }
    }
    loops = 0
  }
  # the storage-order norm body at `W = 16` (`Kj10_`), read the same way
  /^_R[0-9a-zA-Z_$.]*9norm_laneKj10_[0-9a-zA-Z_$.]*:/ {
    norm = 1; nname = $0; norms++; nn = 0; split("", nlabel)
    nseen["add"] = 0; nseen["mul"] = 0; nseen["sub"] = 0
  }
  norm && print_them == "--print" { print }
  norm { nline[++nn] = $0; for (op in nseen) if ($0 ~ "v" op "ps.*%ymm") nseen[op] = 1 }
  norm && /^\.LBB[0-9_]+:/ { nlabel[substr($1, 1, length($1) - 1)] = nn }
  norm && /^\tj[a-z]+\t\.LBB[0-9_]+$/ && $1 != "jmp" && ($2 in nlabel) {
    for (i = nlabel[$2]; i <= nn; i++) {
      if (nline[i] ~ /v(add|mul|sub)ss/) { print nname " " nline[i]; norm_scalar = 1 }
      if (nline[i] ~ /^\tcall.*_R/ && nline[i] !~ /panic|_fail/) { print nname " " nline[i]; norm_call = 1 }
    }
  }
  norm && /^\t\.size\t/ {
    norm = 0
    for (op in nseen) if (!nseen[op]) { print nname " holds no ymm v" op "ps"; norm_narrow = 1 }
  }
  # the clamps of `exp` are a `vmaxps` or a `vminps` (GELU′ takes it of `−|2u|`)
  BEGIN { ops["max"] = "m(ax|in)"; ops["add"] = "add"; ops["mul"] = "mul" }
  END {
    if (fused) { print "a fused multiply-add outside the GEMM tiles (see above): only the GEMM rounds once per product"; exit 1 }
    want = split(heights, h, " ")
    for (k = 1; k <= 2; k++) {
      kind = (k == 1) ? "kernel" : "kernel_wide"
      for (i = 1; i <= want; i++) if (!((kind, h[i]) in found)) { print "no matmul::" kind " instantiation at R = 0x" h[i] ": does the block loop cut its slabs as {MR, 4, 2, 1}, and is `kernel` still #[inline(never)]?"; exit 1 }
      if (count[kind] != want) { print "expected " want " instantiations of matmul::" kind " (R = " heights ", hex), found " count[kind] + 0; exit 1 }
    }
    if (narrow) { print "a matmul kernel lost its width or its mul_add (see above)"; exit 1 }
    if (split_ops) { print "a matmul kernel multiplies and adds separately (see above): the product must not be rounded before the add"; exit 1 }
    if (scalar) { print "a matmul kernel holds scalar arithmetic (see above): an accumulator fell out of its registers"; exit 1 }
    if (spill) { print "a matmul kernel reads or writes the stack (see above): the tile spilled out of its registers"; exit 1 }
    # every driver'"'"'s twins: a wide instantiation and a narrow one of the
    # same closure
    nd = split(drivers, d, " "); pairs = 0
    for (s in width) if (width[s] == "zmm") {
      twin = s; sub(/3isa4wide/, "3isa6narrow", twin)
      if (!(twin in width)) { print s " has no instantiation at the build'"'"'s ISA"; lane_bad = 1; continue }
      pairs++
      for (i = 1; i <= nd; i++) if (s ~ ("8into_ops" d[i] "[s0]")) of[d[i]] = 1
      for (t = 0; t < 2; t++) {
        x = t ? twin : s
        for (op in ops) if (!seen[x, op]) { print x " holds no " width[x] " v" op "ps"; lane_bad = 1 }
        if (x in bad) { print x ":" bad[x]; lane_bad = 1 }
      }
    }
    for (i = 1; i <= nd; i++) if (!(d[i] in of)) { print "no wide instantiation of into_ops::" substr(d[i], match(d[i], /[a-z]/)) " beside its narrow one: does it still hand its lanes to isa::widest!?"; lane_bad = 1 }
    if (lane_bad) { print "a lane driver'"'"'s instantiation lost its width, runs a pass a word at a time or calls out of line inside a loop (see above)"; exit 1 }
    if (norms < 2) { print "found " norms + 0 " instantiations of lanes::norm_lane at W = 16, not 2 (LN, BDRLN): is it still #[inline(never)]?"; exit 1 }
    if (norm_narrow) { print "a storage-order norm body lost its width (see above)"; exit 1 }
    if (norm_scalar) { print "a storage-order norm body runs a pass a word at a time (see above)"; exit 1 }
    if (norm_call) { print "a storage-order norm body calls out of line inside a pass (see above)"; exit 1 }
    print "kernel_asm: " count["kernel"] " kernel and " count["kernel_wide"] " kernel_wide tiles (R = " heights ", hex), ymm / zmm fused multiply-add in each, no separate or scalar arithmetic, no stack operand, no FMA elsewhere in xform-tensor; " pairs " lane instantiations at both widths (" drivers "), ymm / zmm max/add/mul in each, no scalar arithmetic or call in their loops; " norms " storage-order norm bodies, ymm add/mul/sub in each, no scalar arithmetic or call in their loops"
  }' "$asm"
