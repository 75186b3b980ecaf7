#!/usr/bin/env bash
# ledger-smoke: a one-second traced run of each benchmark workload whose
# correctness checks no other guard runs must pass all of them. The checks
# are the benchmark's own: restore-and-continue, fleet job vs the same job
# alone, the traced Algorithm-1 replay against Simulation::step_n, and the
# probes that sweep the final blocks' dst fields. exchange_smallblocks is
# run by exchange-invariants.sh. Reads benchmark/ only.
#
# A run passes when its result line (the last line perf_ledger prints) has
# "correct": true and "failed": 0, and its "final-state digest" line prints
# the pinned digest below. The pins are what the program printed before the
# four-x-cell φ-kernel replaced the lanes-per-phase one (same command, same
# seed and budget), which that change had to reproduce bit for bit. A change
# that moves a bit fails here; re-pin only for a change meant to move bits,
# and say why in CHANGES.md.
#
# usage: ledger-smoke.sh
set -euo pipefail

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin perf_ledger

declare -A pinned=(
    [solidify_1block]=3795e2e8c109cb64
    [ops_bigblocks]=cc8b13891561a11d
    [campaign_32pt]=67d416df7659d6bf
)

status=0
for workload in solidify_1block ops_bigblocks campaign_32pt; do
    output=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml \
        --bin perf_ledger -- one --workload "$workload" --seed 1 --seconds 1 --trace 1)
    python3 - "$workload" "${pinned[$workload]}" "$output" <<'PY' || status=1
import json, re, sys

workload, pin, output = sys.argv[1], sys.argv[2], sys.argv[3]
result = json.loads(output.splitlines()[-1])
digest = re.search(r"final-state digest ([0-9a-f]{16})", output)
digest = digest.group(1) if digest else "missing"
ok = result["correct"] is True and result["failed"] == 0 and digest == pin
verdict = "ok" if ok else "FAILED"
print(f"ledger-smoke: {workload}: correct = {str(result['correct']).lower()}, "
      f"failed = {result['failed']} of {result['attempted']}, "
      f"digest {digest} (pinned {pin}): {verdict}")
sys.exit(0 if ok else 1)
PY
done
exit "$status"
