#!/usr/bin/env bash
# zone-mutation: the constant-slab summary (DESIGN §19) is ended, after a
# ghost write, by one statement: the region writer in
# crates/blockgrid/src/ghost.rs, the only code of the crate that writes
# ghost cells, raises the zone's start above a written (component, z)
# plane that differs from the zone's constant. The statement is matched by
#
#     ^[[:space:]]*\*from = dz0 \+ z \+ 1;$      (grep -E)
#
# On a scratch copy of the workspace this script deletes that line and
# requires the summary property test
# (`proptests::summary_survives_any_mutator_sequence`) to fail, so the
# suite provably guards the rule. The mutant must still build: a mutant
# that fails to compile proves nothing. The script fails unless the
# pattern matches exactly one line.
#
# usage: zone-mutation.sh [repo-root]
set -euo pipefail
root=$(cd "${1:-$(dirname "$0")/../..}" && pwd)
file=crates/blockgrid/src/ghost.rs
pattern='^[[:space:]]*\*from = dz0 \+ z \+ 1;$'
test_name=summary_survives_any_mutator_sequence

matches=$(grep -cE "$pattern" "$root/$file" || true)
if [ "$matches" -ne 1 ]; then
    echo "zone-mutation: the pattern matches $matches line(s) of $file, expected exactly 1"
    exit 1
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cp -r "$root/Cargo.toml" "$root/Cargo.lock" "$root/crates" "$root/tests" \
    "$root/examples" "$root/third_party" "$work"
sed -i -E "/$pattern/d" "$work/$file"
if grep -qE "$pattern" "$work/$file"; then
    echo "zone-mutation: the statement survived the deletion"
    exit 1
fi

run() {
    CARGO_TARGET_DIR="$work/target" cargo test --offline --manifest-path "$work/Cargo.toml" \
        -p eutectica-blockgrid --test proptests "$@"
}
if ! run --no-run; then
    echo "zone-mutation: the mutant does not build"
    exit 1
fi
if run "$test_name"; then
    echo "zone-mutation: $test_name passed with the zone-ending statement deleted"
    exit 1
fi
echo "zone-mutation: $test_name fails without the zone-ending statement: ok"
