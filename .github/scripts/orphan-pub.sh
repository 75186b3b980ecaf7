#!/usr/bin/env bash
# orphan-pub guard: a `pub fn`, `pub const` or `pub static` under
# crates/*/src that no *other* `.rs` file of crates/, tests/, examples/ or
# benchmark/src names is public surface nobody uses — narrow it (private /
# `pub(crate)`), or delete it when only its own `#[cfg(test)]` calls it. A
# constant never has to be `pub` to appear in a signature, so it is held to
# the same rule as a function. By name (`grep -w`), so a method or an
# associated constant counts as used when any other file spells its name.
# There are no exceptions.
#
# usage: orphan-pub.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/../..}"

orphans=0
while read -r file kind name; do
    if ! grep -rlw --include='*.rs' -- "$name" crates tests examples benchmark/src |
        grep -vxF "$file" | grep -q .; then
        echo "orphan-pub: $file: pub $kind $name is named by no other .rs file"
        orphans=$((orphans + 1))
    fi
done < <(grep -rnoE '^\s*pub (fn|const|static) [A-Za-z_][A-Za-z0-9_]*' crates/*/src --include='*.rs' |
    sed -E 's/^([^:]+):[0-9]+:\s*pub (fn|const|static) /\1 \2 /' | sort -u)

echo "orphan-pub: $orphans orphan pub item(s)"
[ "$orphans" -eq 0 ]
