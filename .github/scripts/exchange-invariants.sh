#!/usr/bin/env bash
# exchange-invariants guard: the ghost exchange may change how faces are
# copied, never what goes on the wire. A short traced run of the
# benchmark's exchange_smallblocks workload (2 ranks, 32 blocks of
# 16x16x8, hide_mu) must report exactly the message count, wire bytes and
# ghost bytes per step that the tag/region contract implies, and no failed
# check or comm operation. Reads benchmark/ only.
#
# usage: exchange-invariants.sh
set -euo pipefail

result=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    --bin perf_ledger -- one --workload exchange_smallblocks --seed 1 --seconds 2 --trace 1 |
    tail -n 1)

python3 - "$result" <<'PY'
import json, sys

result = json.loads(sys.argv[1])
metrics = result["metrics"]
want = {
    "comm.msgs_per_step": 16,
    "comm.bytes_per_step": 115712,
    "blockgrid.ghost.bytes_per_step": 1629184,
    "comm.failed": 0,
}
bad = [f"failed = {result['failed']} (want 0)"] if result["failed"] != 0 else []
for name, value in want.items():
    got = metrics[name]["value"]
    if got != value:
        bad.append(f"{name} = {got} (want {value})")
for line in bad:
    print(f"exchange-invariants: {line}")
print(f"exchange-invariants: {len(want) + 1 - len(bad)} of {len(want) + 1} counts as pinned")
sys.exit(1 if bad else 0)
PY
