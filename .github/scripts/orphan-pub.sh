#!/usr/bin/env bash
# orphan-pub guard: every `pub fn|struct|enum|trait|const|type|static|mod`
# under crates/<crate>/src must be named outside that crate — by a `.rs`
# file of another crate, of crates/*/tests or crates/*/benches, of tests/,
# examples/ or benchmark/src, or of crates/bench/src/bin (the figure
# binaries are crates of their own). A type (struct, enum, trait, type
# alias) also passes when another `pub` item of its own crate names it in a
# signature: a `pub fn` signature up to its `{`, a `pub` field, a variant
# of a `pub enum`, or the associated type of a trait impl. A `pub use` line
# never counts. Anything else is public surface nobody uses — narrow it
# (`pub(crate)` / private), or delete it when nothing calls it. By name
# (`grep -w`), so a method or an associated constant counts as used when any
# outside file spells its name. There are no exceptions.
#
# usage: orphan-pub.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/../..}"

# Text of the pub signatures in the given files: `pub fn` headers, `pub`
# field lines, the bodies of `pub enum`s and the associated types of trait
# impls (`type Mask = Mask4;`, public wherever the trait and `Self` are).
signatures() {
    awk '
        /^[[:space:]]*pub fn / { sig = 1 }
        sig {
            line = $0
            cut = index(line, "{")
            print (cut ? substr(line, 1, cut - 1) : line)
            if (cut) sig = 0
            next
        }
        /^[[:space:]]*pub [a-z_][a-z0-9_]*[[:space:]]*:/ { print; next }
        /^[[:space:]]+type [A-Za-z_][A-Za-z0-9_]*[[:space:]]*=/ { print; next }
        /^[[:space:]]*pub enum / { body = 1; depth = 0 }
        body {
            if (depth > 0) print
            depth += gsub(/{/, "{") - gsub(/}/, "}")
            if (depth == 0 && index($0, "}")) body = 0
        }
    ' "$@"
}

orphans=0
for src in crates/*/src; do
    crate_files=$(find "$src" -name '*.rs' -not -path 'crates/bench/src/bin/*' | sort)
    outside=$(find crates tests examples benchmark/src -name '*.rs' | sort |
        grep -vxF -f <(printf '%s\n' "$crate_files"))
    # shellcheck disable=SC2086 # file lists are whitespace-free paths
    sigs=$(signatures $crate_files)
    while read -r file kind name; do
        # shellcheck disable=SC2086
        if grep -qw -- "$name" $outside; then
            continue
        fi
        case $kind in
        struct | enum | trait | type)
            if grep -qw -- "$name" <<<"$sigs"; then
                continue
            fi
            ;;
        esac
        echo "orphan-pub: $file: pub $kind $name is named nowhere outside its crate"
        orphans=$((orphans + 1))
    done < <(
        # shellcheck disable=SC2086
        grep -noE '^\s*pub (fn|struct|enum|trait|const|type|static|mod) [A-Za-z_][A-Za-z0-9_]*' \
            $crate_files /dev/null |
            sed -E 's/^([^:]+):[0-9]+:\s*pub ([a-z]+) /\1 \2 /' | sort -u
    )
done

echo "orphan-pub: $orphans orphan pub item(s)"
[ "$orphans" -eq 0 ]
