#!/usr/bin/env bash
# Paired A/B of one perfbench workload between two source trees:
#
#   bash scripts/ab_pairs.sh <parent-tree> <change-tree> <workload> [pairs=10] [seed=1]
#
# Each tree's perfbench is built through that tree's own perfbench/run.sh
# into its own target dir (<tree>/.bench_build). The script then runs the
# two in pairs at BENCHMARK.json's run_seconds with --trace 0, each run
# through run.sh from the tree's root, as the benchmark itself is run.
# Odd pairs run the parent first, even pairs the change. Use clean
# checkouts, e.g. `git archive <sha> | tar -x -C <dir>`: a build may
# rewrite the tree's perfbench/Cargo.lock.
#
# For every end-to-end metric of BENCHMARK.json it prints each side's
# median and quartiles, the change/parent ratio of the medians, in how many
# pairs the change did better, and whether the medians moved past the
# metric's bound in the worse direction. A metric whose parent runs spread
# (interquartile range over median) wider than its bound is marked
# unresolved. Then it prints every run's digest line. Raw stdout of every
# run is kept in ab_<workload>/ in the directory the script is run from.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    sed -n '2,4p' "$0" >&2
    exit 2
fi
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="${4:-10}"
seed="${5:-1}"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$repo/BENCHMARK.json")"
out="$PWD/ab_$workload"
mkdir -p "$out"

# run <tree> <side> <pair> <seconds>: one perfbench run into $out.
run() {
    (cd "$1" && CARGO_TARGET_DIR="$1/.bench_build" bash perfbench/run.sh \
        --workload "$workload" --seed "$seed" --seconds "$4" --trace 0) \
        > "$out/$2_$3.txt" 2> "$out/$2_$3.err"
}

for side in parent change; do
    tree="${!side}"
    echo "[ab] building $side perfbench in $tree" >&2
    run "$tree" "$side" build 1
done
for i in $(seq 1 "$pairs"); do
    order="parent change"
    [ $((i % 2)) -eq 0 ] && order="change parent"
    for side in $order; do
        echo "[ab] pair $i/$pairs: $side $workload ${seconds}s seed $seed" >&2
        run "${!side}" "$side" "$i" "$seconds"
    done
done

python3 - "$repo/BENCHMARK.json" "$out" "$workload" "$pairs" <<'EOF'
import json, statistics, sys

bench_path, out, workload, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
bench = json.load(open(bench_path))

def result(side, i):
    lines = open(f"{out}/{side}_{i}.txt").read().splitlines()
    digest = next((l for l in lines if l.startswith(f"# {workload}:")), "(no digest line)")
    return json.loads(lines[-1])["metrics"], digest

runs = {s: [result(s, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}

def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{workload}: {pairs} alternating pairs")
print(f"{'metric':<18} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'ratio':>7} {'wins':>6}  verdict")
for m in bench["end_to_end"]:
    name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
    if name not in runs["parent"][0][0]:
        continue
    p = [r[name]["value"] for r, _ in runs["parent"]]
    c = [r[name]["value"] for r, _ in runs["change"]]
    pq, cq = quartiles(p), quartiles(c)
    ratio = cq[1] / pq[1] if pq[1] else float("nan")
    wins = sum((cv > pv) if higher else (cv < pv) for pv, cv in zip(p, c))
    worse = (ratio < 1 - bound) if higher else (ratio > 1 + bound)
    spread = (pq[2] - pq[0]) / pq[1] if pq[1] else 0.0
    verdict = "worse than bound" if worse else "within bound"
    if spread > bound:
        verdict += f"; unresolved (parent spread {spread:.2f} > {bound})"
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    print(f"{name:<18} {fmt(pq):>32} {fmt(cq):>32} {ratio:>7.3f} {wins:>3}/{pairs}  {verdict}")
print("digests:")
for i in range(pairs):
    for side in ("parent", "change"):
        print(f"  {i + 1:>2} {side:<6} {runs[side][i][1]}")
EOF
