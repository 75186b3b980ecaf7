#!/usr/bin/env bash
# replay-smoke guard: the constant-slab summary of `SoaField` must be kept by
# the public calls themselves, not by `Simulation::step`. The traced leg of
# the benchmark's solidify_1block workload replays Algorithm 1 through
# `kernels::phi_sweep`, `bc_*.apply`, `kernels::mu_sweep`, `swap`,
# `shift_window_up` and `apply_bc_src` directly and must land on the bits of
# `Simulation::step_n`; a 2-s run has to report that check as passed and no
# failed check or operation. Reads benchmark/ only.
#
# usage: replay-smoke.sh
set -euo pipefail

out=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    --bin perf_ledger -- one --workload solidify_1block --seed 1 --seconds 2 --trace 1)

replay=$(printf '%s\n' "$out" | grep -c "^ *ok *traced leg lands on the untraced leg's bits" || true)
python3 - "$(printf '%s\n' "$out" | tail -n 1)" "$replay" <<'PY'
import json, sys

result, replay = json.loads(sys.argv[1]), int(sys.argv[2])
bad = []
if result["failed"] != 0 or not result["correct"]:
    bad.append(f"failed = {result['failed']}, correct = {result['correct']} (want 0, true)")
if replay != 1:
    bad.append("the replay of Algorithm 1 did not land on step_n's bits")
for line in bad:
    print(f"replay-smoke: {line}")
print(f"replay-smoke: {'FAILED' if bad else 'replay bit-identical, nothing failed'}")
sys.exit(1 if bad else 0)
PY
