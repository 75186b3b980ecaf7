#!/usr/bin/env bash
# orphan-pub guard: a `pub fn` under crates/*/src that no *other* `.rs` file
# of crates/, tests/, examples/ or benchmark/src names is public surface
# nobody uses — narrow it (private / `pub(crate)`), or delete it when only
# its own `#[cfg(test)]` calls it. By name (`grep -w`), so a method counts
# as used when any other file spells its name.
#
# The allowlist is for surface that is public *so that* callers outside the
# workspace can handle an error or query a fault plan; every entry states
# its reason.
#
# usage: orphan-pub.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/../..}"

allow() {
    case "$1" in
    # comm: the Result-returning twins of barrier / wait / allreduce_u64s.
    # The panicking forms call them; a caller that wants to survive a dead
    # peer (run_resilient-style drivers outside this workspace) needs them.
    barrier_checked | wait_checked | allreduce_u64s_checked) return 0 ;;
    # comm::FaultPlan queries: read-only view of an injection plan, for a
    # harness that wants to know what it is about to inject.
    kills_at | kills_in_phase | has_phase_kills | has_message_faults) return 0 ;;
    esac
    return 1
}

orphans=0
while read -r file name; do
    allow "$name" && continue
    if ! grep -rlw --include='*.rs' -- "$name" crates tests examples benchmark/src |
        grep -vxF "$file" | grep -q .; then
        echo "orphan-pub: $file: pub fn $name is named by no other .rs file"
        orphans=$((orphans + 1))
    fi
done < <(grep -rnoE '^\s*pub fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src --include='*.rs' |
    sed -E 's/^([^:]+):[0-9]+:\s*pub fn /\1 /' | sort -u)

echo "orphan-pub: $orphans orphan pub fn(s) outside the allowlist"
[ "$orphans" -eq 0 ]
