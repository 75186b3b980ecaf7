#!/usr/bin/env bash
# zone-mutation: the constant-slab summary (DESIGN §19) is guarded by the
# summary property test (`proptests::summary_survives_any_mutator_sequence`).
# This script makes two mutants, each on a scratch copy of the workspace,
# and requires that test to fail on each, so the suite provably guards:
#
# 1. the zone-ending statement. The region writer in
#    crates/blockgrid/src/ghost.rs, the only code of the crate that writes
#    ghost cells, raises the zone's start above a written (component, z)
#    plane that differs from the zone's constant. The mutant deletes the
#    line matched by
#
#        ^[[:space:]]*\*from = dz0 \+ z \+ 1;$                  (grep -E)
#
# 2. the value condition of `SoaField::clone_from`'s fast path in
#    crates/blockgrid/src/field.rs, which copies only the slabs below the
#    source's zone when the destination's zone holds the same constant. The
#    mutant replaces the condition on the line matched by
#
#        ^[[:space:]]*&& same_bits\(self\.const_val, source\.const_val\);$
#
#    with `true`, so a zone of another value counts as holding the source's.
#
# A mutant must still build: one that fails to compile proves nothing. The
# script fails unless each pattern matches exactly one line.
#
# usage: zone-mutation.sh [repo-root]
set -euo pipefail
root=$(cd "${1:-$(dirname "$0")/../..}" && pwd)
test_name=summary_survives_any_mutator_sequence

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# mutant <name> <file> <pattern> <sed expression applied to the matched line>
mutant() {
    local name=$1 file=$2 pattern=$3 edit=$4
    local matches
    matches=$(grep -cE "$pattern" "$root/$file" || true)
    if [ "$matches" -ne 1 ]; then
        echo "zone-mutation: the pattern of $name matches $matches line(s) of $file, expected exactly 1"
        exit 1
    fi
    rm -rf "$work/src"
    mkdir "$work/src"
    cp -r "$root/Cargo.toml" "$root/Cargo.lock" "$root/crates" "$root/tests" \
        "$root/examples" "$root/third_party" "$work/src"
    sed -i -E "/$pattern/$edit" "$work/src/$file"
    if cmp -s "$root/$file" "$work/src/$file"; then
        echo "zone-mutation: $name left $file unchanged"
        exit 1
    fi

    run() {
        CARGO_TARGET_DIR="$work/target" cargo test --offline \
            --manifest-path "$work/src/Cargo.toml" -p eutectica-blockgrid --test proptests "$@"
    }
    if ! run --no-run; then
        echo "zone-mutation: the mutant without $name does not build"
        exit 1
    fi
    if run "$test_name"; then
        echo "zone-mutation: $test_name passed without $name"
        exit 1
    fi
    echo "zone-mutation: $test_name fails without $name: ok"
}

mutant "the zone-ending statement" crates/blockgrid/src/ghost.rs \
    '^[[:space:]]*\*from = dz0 \+ z \+ 1;$' 'd'
mutant "clone_from's same-value condition" crates/blockgrid/src/field.rs \
    '^[[:space:]]*&& same_bits\(self\.const_val, source\.const_val\);$' \
    's/same_bits\(self\.const_val, source\.const_val\)/true/'
