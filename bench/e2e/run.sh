#!/usr/bin/env bash
# Runs the end-to-end mediator benchmark on every workload.
#
#   bench/e2e/run.sh [--reps N] [--trace] [--smoke] [--self-test]
#                    [--first-seed S] [--results DIR]
#
# Builds build-e2e in Release (through bench.py), then runs the workloads
# of BENCHMARK.json N times each, repetition r with seed S+r, reversing the
# workload order on every other repetition. Prints each metric as
# `workload metric value unit n=...` and writes one result JSON per run to
# DIR (default bench/e2e/results/<commit>). --trace runs the traced mode
# instead (per-layer metrics plus spans); --smoke runs 1/20 of the
# configured run length; --self-test corrupts one answer row and exits
# non-zero when the correctness gate rejects the run.
set -euo pipefail

cd "$(dirname "$0")/../.."

reps=1
trace=0
smoke=0
first_seed=1
results=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --reps) reps="$2"; shift 2 ;;
    --trace) trace=1; shift ;;
    --smoke) smoke=1; shift ;;
    --first-seed) first_seed="$2"; shift 2 ;;
    --results) results="$2"; shift 2 ;;
    --self-test) exec python3 bench/e2e/bench.py --self-test ;;
    *) echo "usage: $0 [--reps N] [--trace] [--smoke] [--self-test] [--first-seed S] [--results DIR]" >&2
       exit 2 ;;
  esac
done

commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
results="${results:-bench/e2e/results/${commit:0:12}}"
# bench.py runs BENCHMARK.json's run_seconds unless told otherwise.
length=()
if [[ "$smoke" == 1 ]]; then
  length=(--seconds "$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"] / 20)')")
fi
mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')

status=0
for ((r = 0; r < reps; r++)); do
  order=("${workloads[@]}")
  if ((r % 2 == 1)); then
    order=()
    for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do order+=("${workloads[i]}"); done
  fi
  for w in "${order[@]}"; do
    # bench.py's last line is the summary JSON; the metric lines precede it.
    if ! python3 bench/e2e/bench.py --workload "$w" --seed $((first_seed + r)) \
        "${length[@]}" --trace "$trace" --commit "$commit" \
        --results "$results" | sed '$d'; then
      echo "run failed: workload $w, seed $((first_seed + r))" >&2
      status=1
    fi
  done
done
echo "results in $results" >&2
exit "$status"
