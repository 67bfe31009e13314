#!/usr/bin/env bash
# Every backticked Rust path in the design docs (`a::b`, `A::b(..)`) must
# name something that exists: its last segment has to appear as a word on a
# code line (not a `//` comment) of a .rs file under crates/, tests/,
# examples/ or benchmark/src/. Prints each stale path with its file and line
# and exits 1 if there is one.
#
#   tools/doc_paths.sh            # DESIGN.md and README.md
#   tools/doc_paths.sh FILE...    # the named Markdown files
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
docs=("$@")
[ "${#docs[@]}" -gt 0 ] || docs=(DESIGN.md README.md)

# every word on a code line of the sources, once
declare -A named
while read -r w; do named[$w]=1; done < <(
  find crates tests examples benchmark/src -name '*.rs' -print0 |
    xargs -0 grep -hvE '^[[:space:]]*//' | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u
)

stale=0
while IFS=: read -r file line path; do
  last=${path##*::}
  if [ -z "${named[$last]:-}" ]; then
    echo "$file:$line: \`$path\` names nothing under crates/, tests/, examples/ or benchmark/src/"
    stale=1
  fi
done < <(grep -HnoE '`[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+' "${docs[@]}" | tr -d '`')
exit "$stale"
