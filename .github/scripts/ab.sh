#!/usr/bin/env bash
# ab: paired end-to-end comparison of two revisions on the benchmark's
# workloads, with the verdict the benchmark's gate applies to a claimed gain.
#
# Each revision is unpacked with `git archive` into its own tree (as
# `size-table.sh --against` does) and its `benchmark/` built there, so the
# working tree is never touched. Then, per workload, AB_PAIRS pairs of
# `perf_ledger one --workload <w> --seed AB_SEED --seconds <run_seconds>
# --trace 0` runs (BENCHMARK.json's run length), the side that runs first
# alternating from pair to pair.
#
# Per workload and end-to-end metric (BENCHMARK.json's `end_to_end`, with
# its `better` direction) it prints both sides' median and quartiles, the
# pairs <rev-b> won, and a verdict: `better` when <rev-b> won at least 9 of
# 10 pairs (the same share of other counts) and its median beats <rev-a>'s
# by more than <rev-a>'s interquartile range, `worse` for the mirror image,
# `same` otherwise; a tied pair counts for neither side. Every run's
# `final-state digest` is compared too: the two sides must print one and
# the same digest per workload, and a run that prints none fails the test. The table is
# also written as JSON to AB_OUT.
#
# usage: ab.sh <rev-a> <rev-b> [workload ...]   (default: all workloads)
# env:   AB_PAIRS (10), AB_SEED (1), AB_OUT (ab.json),
#        AB_DIR (build trees; kept and reused when set, else a temp dir)
set -euo pipefail
[ $# -ge 2 ] || { sed -n '2,/^set /p' "$0" | sed '$d'; exit 2; }
root=$(cd "$(dirname "$0")/../.." && pwd)
rev_a=$1 rev_b=$2
shift 2

if [ -n "${AB_DIR:-}" ]; then
    work=$AB_DIR
    mkdir -p "$work"
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi

# Unpack and build one revision; prints its tree.
build() {
    local sha tree
    sha=$(git -C "$root" rev-parse "$1^{commit}")
    tree=$work/$sha
    if [ ! -x "$tree/benchmark/target/release/perf_ledger" ]; then
        rm -rf "$tree"
        mkdir -p "$tree"
        git -C "$root" archive "$sha" | tar -x -C "$tree"
        cargo build --release --offline --quiet \
            --manifest-path "$tree/benchmark/Cargo.toml" --bin perf_ledger >&2
    fi
    echo "$tree"
}
tree_a=$(build "$rev_a")
tree_b=$(build "$rev_b")

python3 - "$root/BENCHMARK.json" "$rev_a" "$tree_a" "$rev_b" "$tree_b" "$@" <<'PY'
import json, os, re, subprocess, sys

bench_path, rev_a, tree_a, rev_b, tree_b, *workloads = sys.argv[1:]
bench = json.load(open(bench_path))
workloads = workloads or [w["name"] for w in bench["workloads"]]
metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
pairs = int(os.environ.get("AB_PAIRS", "10"))
seconds = int(bench["run_seconds"])
seed = int(os.environ.get("AB_SEED", "1"))
out_path = os.environ.get("AB_OUT", "ab.json")
sides = {"a": (rev_a, tree_a), "b": (rev_b, tree_b)}


def run(side, workload):
    tree = sides[side][1]
    cmd = [f"{tree}/benchmark/target/release/perf_ledger", "one", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    digest = re.search(r"final-state digest ([0-9a-f]{16})", out)
    return {
        "metrics": {m: result["metrics"][m]["value"] for m in metrics},
        "digest": digest.group(1) if digest else None,
        "failed": result["failed"],
    }


def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


table = {"a": rev_a, "b": rev_b, "seed": seed, "seconds": seconds, "pairs": pairs,
         "workloads": {}}
for w in workloads:
    runs = {"a": [], "b": []}
    for i in range(pairs):
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        for side in order:
            runs[side].append(run(side, w))
        print(f"ab: {w} pair {i + 1}/{pairs} done", file=sys.stderr)
    digests = {s: sorted({r["digest"] for r in runs[s]}) for s in runs}
    entry = {
        "digests": digests,
        "digests_equal": len(digests["a"]) == 1 and None not in digests["a"]
        and digests["a"] == digests["b"],
        "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
        "metrics": {},
    }
    for m, better in metrics.items():
        vals = {s: [r["metrics"][m] for r in runs[s]] for s in runs}
        sign = 1 if better == "higher" else -1
        b_wins = sum(sign * (b - a) > 0 for a, b in zip(vals["a"], vals["b"]))
        a_wins = sum(sign * (b - a) < 0 for a, b in zip(vals["a"], vals["b"]))
        stats = {s: {"q1": quantile(v, 0.25), "median": quantile(v, 0.5),
                     "q3": quantile(v, 0.75), "runs": v} for s, v in vals.items()}
        gap = sign * (stats["b"]["median"] - stats["a"]["median"])
        iqr_a = stats["a"]["q3"] - stats["a"]["q1"]
        if b_wins * 10 >= 9 * pairs and gap > iqr_a:
            verdict = "better"
        elif a_wins * 10 >= 9 * pairs and -gap > iqr_a:
            verdict = "worse"
        else:
            verdict = "same"
        entry["metrics"][m] = {"better": better, **stats, "b_wins": b_wins, "a_wins": a_wins,
                               "gap": gap, "iqr_a": iqr_a, "verdict": verdict}
    table["workloads"][w] = entry

print(f"ab: {rev_a} (a) vs {rev_b} (b), seed {seed}, {seconds} s, {pairs} alternating pairs")
print(f"{'workload':<22} {'metric':<15} {'a q1/median/q3':>30} {'b q1/median/q3':>30} "
      f"{'b wins':>7} {'verdict':>8}")
for w, entry in table["workloads"].items():
    for m, e in entry["metrics"].items():
        fmt = lambda s: f"{e[s]['q1']:.4g}/{e[s]['median']:.4g}/{e[s]['q3']:.4g}"
        print(f"{w:<22} {m:<15} {fmt('a'):>30} {fmt('b'):>30} "
              f"{e['b_wins']:>3}/{pairs:<3} {e['verdict']:>8}")
    same = "equal" if entry["digests_equal"] else "DIFFER"
    print(f"{w:<22} digests {same}: a {entry['digests']['a']}, b {entry['digests']['b']}; "
          f"failed a {entry['failed']['a']}, b {entry['failed']['b']}")
with open(out_path, "w") as f:
    json.dump(table, f, indent=1)
    f.write("\n")
print(f"ab: table written to {out_path}")
PY
