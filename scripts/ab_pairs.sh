#!/usr/bin/env bash
# The perfbench runner: K untraced runs and one traced run of every
# BENCHMARK.json workload per source tree, written as the run sets that
# `mmwave perf-check` compares (docs/observability.md, section 8).
#
#   bash scripts/ab_pairs.sh <parent-tree> <change-tree>
#   bash scripts/ab_pairs.sh <tree>
#
# Two trees: K alternating pairs (parent first in odd pairs) of every
# workload into parent/ and change/ of the current directory, then
# `mmwave perf-check change --baseline parent`. One tree: the run sets go
# to the current directory. Runs use seed 1 and BENCHMARK.json's
# run_seconds, through the tree's own perfbench/run.sh, building into
# <tree>/.bench_build; a build may rewrite the tree's perfbench/Cargo.lock,
# so use clean checkouts (`git archive <sha> | tar -x -C <dir>`). A failed
# run stops its workload; the other workloads' sets are still written.
set -euo pipefail

K=10
SEED=1
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
case $# in
    1) trees=("$(cd "$1" && pwd)") outs=(.) ;;
    2) trees=("$(cd "$1" && pwd)" "$(cd "$2" && pwd)") outs=(parent change) ;;
    *) sed -n '6,7p' "$0" >&2; exit 2 ;;
esac
seconds="$(sed -n 's/^ *"run_seconds": *\([0-9]*\).*/\1/p' "$repo/BENCHMARK.json")"
workloads="$(sed -n '/"workloads"/,/]/s/.*"name": *"\([^"]*\)".*/\1/p' "$repo/BENCHMARK.json")"
for out in "${outs[@]}"; do mkdir -p "$out/runs"; done
failed=" "

# run <side> <workload> <run> <trace>: one perfbench run of tree <side>
# into <out>/runs/<workload>_<run>.txt, unless <workload> already failed.
run() {
    local tree="${trees[$1]}" out="${outs[$1]}"
    [[ $failed == *" $2 "* ]] && return
    echo "[runner] $tree: $2 run $3 (trace $4, ${seconds}s, seed $SEED)" >&2
    (cd "$tree" && CARGO_TARGET_DIR="$tree/.bench_build" bash perfbench/run.sh \
        --workload "$2" --seed "$SEED" --seconds "$seconds" --trace "$4") \
        > "$out/runs/$2_$3.txt" 2>> "$out/runs/stderr.txt" \
        || { echo "[runner] $tree: $2 run $3 FAILED, see $out/runs/stderr.txt" >&2; failed+="$2 "; }
}

for i in $(seq 1 "$K"); do
    sides="${!trees[*]}"
    [ $((i % 2)) -eq 0 ] && sides="$(rev <<< "$sides")"
    for w in $workloads; do
        for side in $sides; do run "$side" "$w" "$i" 0; done
    done
done
for w in $workloads; do
    for side in "${!trees[@]}"; do run "$side" "$w" traced 1; done
done

# field <name> <file>: a field of the `# env` line perfbench prints first.
field() { sed -n "s/^# env.* $1=\([^ ]*\).*/\1/p" "$2"; }

# The one writer of BENCH_<workload>.json: the provenance of perfbench's
# `# env` line, each untraced result line with the digest of its
# `# <workload>:` line spliced in, and the traced result line.
for out in "${outs[@]}"; do
    for w in $workloads; do
        [[ $failed == *" $w "* ]] && continue
        first="$out/runs/${w}_1.txt"
        untraced=""
        for i in $(seq 1 "$K"); do
            f="$out/runs/${w}_$i.txt"
            digest="$(sed -n "s/^# $w: .* digest \([0-9a-f]*\).*/\1/p" "$f")"
            untraced+="${untraced:+,}{\"digest\":\"$digest\",$(tail -n1 "$f" | cut -c2-)"
        done
        printf '{"workload":"%s","seed":%s,"seconds":%s,"git_sha":"%s","nproc":%s,"workers":%s,"untraced":[%s],"traced":%s}\n' \
            "$w" "$SEED" "$seconds" "$(field git_sha "$first")" "$(field nproc "$first")" \
            "$(field workers "$first")" \
            "$untraced" "$(tail -n1 "$out/runs/${w}_traced.txt")" > "$out/BENCH_$w.json"
    done
done

[ "$failed" = " " ] || { echo "[runner] no run set written for:$failed" >&2; exit 1; }
if [ $# -eq 2 ]; then
    cargo run --release --quiet --manifest-path "$repo/Cargo.toml" --bin mmwave -- \
        perf-check change --baseline parent
fi
