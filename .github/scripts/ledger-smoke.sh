#!/usr/bin/env bash
# ledger-smoke: a one-second traced run of each benchmark workload whose
# correctness checks no other guard runs must pass all of them. The checks
# are the benchmark's own: restore-and-continue, fleet job vs the same job
# alone, the traced Algorithm-1 replay against Simulation::step_n, and the
# probes that sweep the final blocks' dst fields. exchange_smallblocks is
# run by exchange-invariants.sh. Reads benchmark/ only.
#
# A run passes when its result line (the last line perf_ledger prints) has
# "correct": true and "failed": 0.
#
# usage: ledger-smoke.sh
set -euo pipefail

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin perf_ledger

status=0
for workload in solidify_1block ops_bigblocks campaign_32pt; do
    result=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml \
        --bin perf_ledger -- one --workload "$workload" --seed 1 --seconds 1 --trace 1 |
        tail -n 1)
    python3 - "$workload" "$result" <<'PY' || status=1
import json, sys

workload, result = sys.argv[1], json.loads(sys.argv[2])
ok = result["correct"] is True and result["failed"] == 0
verdict = "ok" if ok else "FAILED"
print(f"ledger-smoke: {workload}: correct = {str(result['correct']).lower()}, "
      f"failed = {result['failed']} of {result['attempted']}: {verdict}")
sys.exit(0 if ok else 1)
PY
done
exit "$status"
