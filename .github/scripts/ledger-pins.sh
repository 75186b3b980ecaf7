#!/usr/bin/env bash
# ledger-pins: a short traced run of each benchmark workload must pass the
# benchmark's own correctness checks, print its pinned final-state digest
# and, on exchange_smallblocks, report exactly the message count, wire
# bytes and ghost bytes per step that placement and frame contract imply.
# Reads benchmark/ only.
#
# Every run: `perf_ledger one --workload <w> --seed 1 --trace 1`, for 2 s on
# exchange_smallblocks and 1 s on the others. A run passes when its result
# line (the last line perf_ledger prints) has "failed": 0, its
# "final-state digest" line prints the pinned digest below, and
#   - on solidify_1block, ops_bigblocks and campaign_32pt: "correct": true.
#     The checks are restore-and-continue, fleet job vs the same job alone,
#     the traced Algorithm-1 replay against Simulation::step_n, and the
#     probes that sweep the final blocks' dst fields;
#   - on exchange_smallblocks: the four metrics below.
#
# The exchange_smallblocks workload: 32x32x64 cells as 2x2x8 blocks of
# 16x16x8, 2 ranks, hide_mu, so a step exchanges phi_dst in the sequenced
# x, y, z phases and mu_src in the plain phase. Placement takes whole
# z-columns, so rank r owns the two columns at y = r: x and z faces are
# same-rank copies, and both y faces of each of its 16 blocks go to the
# other rank. One frame per (peer, phase, field) with remote faces:
#   comm.msgs_per_step  = 2 ranks x (phi y phase + mu plain phase) = 4
#   comm.bytes_per_step: the dense size of those faces, every plane sent, is
#                         2 ranks x 16 blocks x 2 y faces
#                         x (18x8 cells x 4 phases + 16x8 cells x 2 comps) x 8 B
#                       = 425984
#                       but each face's wire form is a header (8 B plane
#                       count + 8 B per component) and only the planes below
#                       its sender's constant zone, so the melt above the
#                       front is not sent: over the traced leg's fixed 210
#                       steps (1 s x 210 steps/s) the frames total 46653952 B,
#                       46653952 / 210 = 222161.68 per step (52 % of dense).
#                       Not a closed form: it follows the front, so it is
#                       pinned as measured, and moves with any change to
#                       where the zones start.
#   blockgrid.ghost.bytes_per_step = every face of every block, local or
#                       remote, dense (placement-independent) = 1629184
#   comm.failed         = 0
#
# The digest pins are what the program printed for these commands before
# the four-x-cell φ-kernel replaced the lanes-per-phase one, which that
# change had to reproduce bit for bit. A change that moves a bit fails
# here; re-pin only for a change meant to move bits, and say why in
# CHANGES.md.
#
# usage: ledger-pins.sh
set -euo pipefail

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin perf_ledger

status=0
for workload in exchange_smallblocks solidify_1block ops_bigblocks campaign_32pt; do
    seconds=1
    [ "$workload" = exchange_smallblocks ] && seconds=2
    output=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml \
        --bin perf_ledger -- one --workload "$workload" --seed 1 --seconds "$seconds" --trace 1)
    python3 - "$workload" "$output" <<'PY' || status=1
import json, re, sys

workload, output = sys.argv[1], sys.argv[2]
digests = {
    "exchange_smallblocks": "72f99f653f39fc8c",
    "solidify_1block": "3795e2e8c109cb64",
    "ops_bigblocks": "cc8b13891561a11d",
    "campaign_32pt": "67d416df7659d6bf",
}
metrics = {
    "exchange_smallblocks": {
        "comm.msgs_per_step": 4,
        "comm.bytes_per_step": 46653952 / 210,
        "blockgrid.ghost.bytes_per_step": 1629184,
        "comm.failed": 0,
    },
}
result = json.loads(output.splitlines()[-1])
digest = re.search(r"final-state digest ([0-9a-f]{16})", output)
digest = digest.group(1) if digest else "missing"
checks = [
    ("failed", result["failed"], 0),
    ("final-state digest", digest, digests[workload]),
]
if workload not in metrics:
    checks.append(("correct", result["correct"], True))
for name, value in metrics.get(workload, {}).items():
    checks.append((name, result["metrics"][name]["value"], value))
bad = [f"{name} = {got} (want {want})" for name, got, want in checks if got != want]
for line in bad:
    print(f"ledger-pins: {workload}: {line}")
verdict = "ok" if not bad else "FAILED"
print(f"ledger-pins: {workload}: {len(checks) - len(bad)} of {len(checks)} pins hold "
      f"(failed = {result['failed']} of {result['attempted']}, digest {digest}): {verdict}")
sys.exit(1 if bad else 0)
PY
done
exit "$status"
