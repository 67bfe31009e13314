#!/usr/bin/env bash
# The repo's benchmark: builds the benchmark package (release) and runs it.
#
#   benchmark/run.sh                      every workload, untraced then traced
#   benchmark/run.sh --selfcheck          the whole set twice, compared
#   benchmark/run.sh --workload bert_fwd --seed 7 --seconds 10 --trace 0
#
# See benchmark/README.md. Exits non-zero if the build fails, an op fails,
# or an output check does.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$(dirname "$here")"

# the library's own environment knobs must not leak in from the caller
unset XFORM_SANITIZE XFORM_CACHE_GEOM XFORM_DECODE_BUCKET XFORM_DECODE_MAX_SEQ

# share the repo's target directory unless the caller names another
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# stdout belongs to the report; whatever the build says goes to stderr
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export SUBSTATION_BENCH_COMMIT="${SUBSTATION_BENCH_COMMIT:-$commit}"

exec "$CARGO_TARGET_DIR/release/substation-bench" "$@"
