#!/usr/bin/env bash
# Line counts of the library sources, the way CHANGES.md quotes them: per
# crate under crates/*/src and in total, three numbers —
#   code      lines ahead of a file's first `#[cfg(test)]` that are neither
#             blank nor `//` comments (rustdoc included in "comments")
#   comments  the `//` lines ahead of it
#   tests     every line from the first `#[cfg(test)]` on (in-src tests)
#
#   tools/loc.sh                 # crates/*/src
#   tools/loc.sh FILE...         # the same three counts for the named files
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

count() { # label file...
  local label="$1"; shift
  awk -v label="$label" '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { tests++; next }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { comments++; next }
    { code++ }
    END { printf "%-28s code %6d  comments %6d  tests %6d\n", label, code, comments, tests }
  ' "$@"
}

if [ "$#" -gt 0 ]; then
  for f in "$@"; do count "$f" "$f"; done
  exit 0
fi

all=()
for crate in crates/*/; do
  mapfile -t files < <(find "${crate}src" -name '*.rs' | sort)
  count "${crate}src" "${files[@]}"
  all+=("${files[@]}")
done
count "crates/*/src" "${all[@]}"
