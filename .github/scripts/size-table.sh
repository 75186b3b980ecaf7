#!/usr/bin/env bash
# size-table: source lines and `pub` items per crate, the before/after table
# ROADMAP asks every PR to report. Same recipe as the acceptance criteria:
# lines are `cat | wc -l` over `crates/<crate>/src/**/*.rs`, items are lines
# matching `pub (fn|struct|enum|trait|const|type|static|mod) `.
#
# With `--against <rev>` it prints, per crate, the counts at <rev> (its
# `crates/` tree unpacked with `git archive` into a temp dir), the counts of
# the working tree, and the delta; a crate missing on one side counts 0.
#
# usage: size-table.sh [--against <rev>] [repo-root]
set -euo pipefail
against=
if [ "${1:-}" = --against ]; then
    against=${2:?--against needs a revision}
    shift 2
fi
cd "${1:-$(dirname "$0")/../..}"

# One "crate lines pub" line per crate under the tree rooted at $1.
counts() {
    for dir in "$1"/crates/*/src; do
        lines=$(find "$dir" -name '*.rs' -print0 | xargs -0 cat | wc -l)
        items=$(grep -rhE '^\s*pub (fn|struct|enum|trait|const|type|static|mod) ' "$dir" | wc -l || true)
        printf '%s %d %d\n' "$(basename "$(dirname "$dir")")" "$lines" "$items"
    done
}

if [ -z "$against" ]; then
    counts . | awk '
        BEGIN { printf "%-12s %7s %5s\n", "crate", "lines", "pub" }
        { printf "%-12s %7d %5d\n", $1, $2, $3; l += $2; p += $3 }
        END { printf "%-12s %7d %5d\n", "total", l, p }'
    exit 0
fi

base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT
git archive "$against" crates | tar -x -C "$base"
awk '
    BEGIN {
        printf "%-12s %7s %7s %6s %5s %5s %5s\n", "crate", "lines0", "lines", "delta", "pub0", "pub", "delta"
    }
    FNR == NR { l0[$1] = $2; p0[$1] = $3; seen[$1] = 1; next }
    { l1[$1] = $2; p1[$1] = $3; seen[$1] = 1 }
    END {
        n = 0
        for (c in seen) names[++n] = c
        # insertion sort: awk has no portable sort
        for (i = 2; i <= n; i++) {
            v = names[i]
            for (j = i - 1; j > 0 && names[j] > v; j--) names[j + 1] = names[j]
            names[j + 1] = v
        }
        for (i = 1; i <= n; i++) {
            c = names[i]
            printf "%-12s %7d %7d %+6d %5d %5d %+5d\n", c, l0[c], l1[c], l1[c] - l0[c], p0[c], p1[c], p1[c] - p0[c]
            tl0 += l0[c]; tl1 += l1[c]; tp0 += p0[c]; tp1 += p1[c]
        }
        printf "%-12s %7d %7d %+6d %5d %5d %+5d\n", "total", tl0, tl1, tl1 - tl0, tp0, tp1, tp1 - tp0
    }' <(counts "$base") <(counts .)
