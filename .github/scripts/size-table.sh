#!/usr/bin/env bash
# size-table: source lines and `pub` items per crate, the before/after table
# ROADMAP asks every PR to report. Same recipe as the acceptance criteria:
# lines are `cat | wc -l` over `crates/<crate>/src/**/*.rs`, items are lines
# matching `pub (fn|struct|enum|trait|const|type|static|mod) `.
#
# usage: size-table.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/../..}"

printf '%-12s %7s %5s\n' crate lines pub
total_lines=0
total_pub=0
for dir in crates/*/src; do
    lines=$(find "$dir" -name '*.rs' -print0 | xargs -0 cat | wc -l)
    items=$(grep -rhE '^\s*pub (fn|struct|enum|trait|const|type|static|mod) ' "$dir" | wc -l || true)
    printf '%-12s %7d %5d\n' "$(basename "$(dirname "$dir")")" "$lines" "$items"
    total_lines=$((total_lines + lines))
    total_pub=$((total_pub + items))
done
printf '%-12s %7d %5d\n' total "$total_lines" "$total_pub"
