#!/usr/bin/env bash
# exchange-invariants guard: a short traced run of the benchmark's
# exchange_smallblocks workload must report exactly the message count,
# wire bytes and ghost bytes per step that placement and frame contract
# imply, and no failed check or comm operation. Reads benchmark/ only.
#
# The workload: 32x32x64 cells as 2x2x8 blocks of 16x16x8, 2 ranks,
# hide_mu, so a step exchanges phi_dst in the sequenced x, y, z phases and
# mu_src in the plain phase. Placement takes whole z-columns, so rank r owns
# the two columns at y = r: x and z faces are same-rank copies, and both y
# faces of each of its 16 blocks go to the other rank. One frame per
# (peer, phase, field) with remote faces:
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
# and its "final-state digest" line must print 72f99f653f39fc8c: what the
# program printed for this command before the four-x-cell φ-kernel replaced
# the lanes-per-phase one, which that change had to reproduce bit for bit.
# A change that moves a bit of the exchanged state fails here; re-pin only
# for a change meant to move bits, and say why in CHANGES.md.
#
# usage: exchange-invariants.sh
set -euo pipefail

output=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    --bin perf_ledger -- one --workload exchange_smallblocks --seed 1 --seconds 2 --trace 1)

python3 - "$output" <<'PY'
import json, re, sys

output = sys.argv[1]
result = json.loads(output.splitlines()[-1])
metrics = result["metrics"]
want = {
    "comm.msgs_per_step": 4,
    "comm.bytes_per_step": 46653952 / 210,
    "blockgrid.ghost.bytes_per_step": 1629184,
    "comm.failed": 0,
}
bad = [f"failed = {result['failed']} (want 0)"] if result["failed"] != 0 else []
digest = re.search(r"final-state digest ([0-9a-f]{16})", output)
digest = digest.group(1) if digest else "missing"
if digest != "72f99f653f39fc8c":
    bad.append(f"final-state digest = {digest} (want 72f99f653f39fc8c)")
for name, value in want.items():
    got = metrics[name]["value"]
    if got != value:
        bad.append(f"{name} = {got} (want {value})")
for line in bad:
    print(f"exchange-invariants: {line}")
print(f"exchange-invariants: {len(want) + 2 - len(bad)} of {len(want) + 2} counts as pinned")
sys.exit(1 if bad else 0)
PY
