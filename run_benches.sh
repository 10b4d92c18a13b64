#!/bin/bash
# The performance baselines, then the paper-reproduction benches, appending
# to bench_output.txt.
#
# Perf baselines: each workload of BENCHMARK.json runs through perfbench
# twice, untraced (end-to-end metrics) and traced (per-layer metrics), at
# seed 1 for BENCHMARK.json's run_seconds. Both result lines and the
# provenance from perfbench's `# env` line land in
# bench_metrics/BENCH_<workload>.json; compare two such directories with
# `mmwave perf-check` (see docs/observability.md, "Perf baselines & the
# regression gate").
#
# Fault-tolerant: a failing run no longer aborts the sweep — every target
# runs, and a pass/fail summary table is printed (and appended to
# bench_output.txt) at the end. Exits nonzero if any run failed.
#
# Telemetry: each paper bench streams its run events to
# bench_metrics/<bench>.jsonl via MMWAVE_METRICS_OUT (see
# docs/observability.md).
#
# Parallelism: every paper bench runs under an explicit MMWAVE_WORKERS (the
# inherited value, else all cores via nproc) so results are attributable to
# a worker count; the count is recorded in bench_metrics/<bench>.meta.json
# next to the event stream. Results are byte-identical across worker counts
# — the pool only trades wall time (see docs/parallelism.md). perfbench
# fixes its own worker count and records it in its baseline.
set -uo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")" || exit 1
mkdir -p bench_metrics

workers="${MMWAVE_WORKERS:-$(nproc 2>/dev/null || echo 1)}"
git_sha="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export MMWAVE_GIT_SHA="$git_sha"

workloads="serve_open serve_firehose attack_campaign"
perf_seed=1
perf_seconds=30

benches="fig08_similar_rate fig09_similar_frames fig07_confusion_matrix \
         fig03_shap_histogram fig05_heatmap_stealth \
         fig10_dissimilar_rate fig11_dissimilar_frames \
         fig12_trigger_size_rate fig13_trigger_size_frames \
         fig14_angle_robustness fig15_distance_robustness defense_eval \
         table1_ablation ablation_clutter \
         robustness_faults parallel_speedup"

declare -A status
failures=0

# One perfbench run of workload $1 at --trace $2: its output goes to
# stdout and bench_output.txt, and the exit status is perfbench's.
perf_run() {
  bash perfbench/run.sh --workload "$1" --seed "$perf_seed" --seconds "$perf_seconds" \
    --trace "$2" 2>> bench_output.txt | tee -a bench_output.txt
}

# A field of the `# env` line perfbench prints first: git_sha, nproc, workers.
env_field() {
  sed -n "s/^# env.* $1=\([^ ]*\).*/\1/p" <<< "$2"
}

for w in $workloads; do
  echo "================ perfbench $w (seed $perf_seed, ${perf_seconds}s) ================" >> bench_output.txt
  if untraced="$(perf_run "$w" 0)" && traced="$(perf_run "$w" 1)"; then
    out="bench_metrics/BENCH_$w.json"
    printf '{"workload":"%s","seed":%s,"seconds":%s,"git_sha":"%s","nproc":%s,"workers":%s,"untraced":%s,"traced":%s}\n' \
      "$w" "$perf_seed" "$perf_seconds" "$(env_field git_sha "$untraced")" \
      "$(env_field nproc "$untraced")" "$(env_field workers "$untraced")" \
      "$(tail -n1 <<< "$untraced")" "$(tail -n1 <<< "$traced")" \
      > "$out.tmp" && mv "$out.tmp" "$out"
    status[$w]=PASS
  else
    status[$w]=FAIL
    failures=$((failures + 1))
  fi
  echo "[runner] perfbench $w ${status[$w]} at $(date +%H:%M:%S)" >> bench_output.txt
done

for b in $benches; do
  echo "================ $b (MMWAVE_WORKERS=$workers) ================" >> bench_output.txt
  started_ms="$(date +%s%3N)"
  if MMWAVE_METRICS_OUT="bench_metrics/$b.jsonl" \
     MMWAVE_WORKERS="$workers" \
     cargo bench -q -p mmwave-bench --bench "$b" >> bench_output.txt 2>&1; then
    rc=0
    status[$b]=PASS
  else
    rc=$?
    status[$b]=FAIL
    failures=$((failures + 1))
  fi
  printf '{"bench":"%s","workers":%s,"git_sha":"%s","started_ms":%s,"finished_ms":%s,"exit_status":%s}\n' \
    "$b" "$workers" "$git_sha" "$started_ms" "$(date +%s%3N)" "$rc" \
    > "bench_metrics/$b.meta.json"
  echo "[runner] $b ${status[$b]} at $(date +%H:%M:%S)" >> bench_output.txt
done

# Machine-readable sweep summary next to the baselines, so CI can see at a
# glance what ran and what failed.
{
  echo '{'
  printf '  "git_sha": "%s",\n' "$git_sha"
  printf '  "workers": %s,\n' "$workers"
  printf '  "timestamp_ms": %s,\n' "$(date +%s%3N)"
  printf '  "failures": %s,\n' "$failures"
  echo '  "benches": {'
  sep=''
  for b in $workloads $benches; do
    printf '%s    "%s": "%s"' "$sep" "$b" "${status[$b]}"
    sep=$',\n'
  done
  printf '\n  }\n}\n'
} > bench_metrics/summary.json

{
  echo "[runner] ALL BENCHES DONE ($failures failed, MMWAVE_WORKERS=$workers, git=$git_sha)"
  printf '%-28s %s\n' "bench" "status"
  for b in $workloads $benches; do
    printf '%-28s %s\n' "$b" "${status[$b]}"
  done
} | tee -a bench_output.txt

exit "$((failures > 0))"
