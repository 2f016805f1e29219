#!/usr/bin/env bash
# Checks that two builds produce byte-identical deterministic artifacts —
# the proof a simplification or refactoring changed no behaviour.
#
#   tools/compare_artifacts.sh PARENT_BUILD CHANGE_BUILD
#
# PARENT_BUILD and CHANGE_BUILD are CMake build directories with the bench/
# binaries built. For each build it runs
#   * the full chaos grid (all schemes, shapes and plans, seeds 1-3),
#     writing stdout, the --trace JSONL and the --metrics JSON;
#   * the 48-node hierarchical slice CI runs (all shapes and plans, seeds
#     1-3), with the same three outputs. At 12 nodes few scenarios run
#     multi-rack digest rounds; at 48 most do;
#   * the slo_churn slate with --jobs=8 --json;
# then cmp's every output pair, plus each chaos_soak run's exit status, and
# names the first scenario that differs. The CHANGE_BUILD slo_churn JSON is
# also compared with the committed BENCH_slo.json.
#
# chaos_soak exits 1 when a scenario fails the oracle; that is a graded
# outcome and is compared like any other output. A signal or an exit
# status of 2 or more means a run crashed or was misused and its outputs
# are truncated, so the script fails whatever the comparison says.
#
# Environment: JOBS (chaos grid workers, default nproc) and OUT (output
# directory, default a fresh temporary one; it is kept for inspection).
# Exit status: 0 all identical, 1 something differs or a run crashed,
# 2 usage error.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent=$1
change=$2
for build in "$parent" "$change"; do
  for bin in chaos_soak slo_churn; do
    if [[ ! -x "$build/bench/$bin" ]]; then
      echo "$0: $build/bench/$bin not found; build it first" >&2
      exit 2
    fi
  done
done
repo=$(cd "$(dirname "$0")/.." && pwd)
jobs=${JOBS:-$(nproc)}
out=${OUT:-$(mktemp -d)}
mkdir -p "$out/parent" "$out/change"

crashed=0
# soak BUILD STATUS_FILE FLAGS...: runs BUILD's chaos_soak with FLAGS and
# writes its exit status to STATUS_FILE; a status of 2 or more (a signal
# reads as 128 + its number) marks a crash.
soak() {
  local build=$1 status_file=$2 status=0
  shift 2
  "$build/bench/chaos_soak" "$@" || status=$?
  echo "$status" > "$status_file"
  if (( status >= 2 )); then
    echo "CRASHED $build/bench/chaos_soak $* (exit $status)" >&2
    crashed=1
  fi
}

run_build() {
  local build=$1 dest=$2
  soak "$build" "$dest/status.txt" --scheme=all --shape=all --plan=all \
    --seed=1 --runs=3 --jobs="$jobs" --trace="$dest/trace.jsonl" \
    --metrics="$dest/metrics.json" > "$dest/stdout.txt"
  soak "$build" "$dest/status48.txt" --scheme=hierarchical --shape=all \
    --plan=all --seed=1 --runs=3 --nodes=48 --jobs="$jobs" \
    --trace="$dest/trace48.jsonl" --metrics="$dest/metrics48.json" \
    > "$dest/stdout48.txt"
  "$build/bench/slo_churn" --jobs=8 --json="$dest/slo.json" \
    > "$dest/slo-stdout.txt"
}

# The scenario a 1-based line of an output file belongs to: stdout lines name
# it in their second column, trace and metrics files in the nearest
# {"scenario":...} header at or above the line.
scenario_at() {
  local file=$1 line=$2
  case $file in
    *.txt) sed -n "${line}p" "$file" | awk '{print $2}' ;;
    *) head -n "$line" "$file" | { grep '^{"scenario":' || true; } |
         tail -n 1 | sed 's/^{"scenario":"\(.*\)"}$/\1/' ;;
  esac
}

differ=0
compare() {
  local a=$1 b=$2 label=${3:-$(basename "$2")} line where
  if cmp -s "$a" "$b"; then
    echo "same    $label"
    return
  fi
  differ=1
  line=$({ cmp "$a" "$b" 2>&1 || true; } |
    sed -n 's/.* line \([0-9]*\).*/\1/p')
  if [[ -n $line ]]; then
    where=$(scenario_at "$b" "$line")
    echo "DIFFERS $label at line $line${where:+, scenario: $where}"
  else
    echo "DIFFERS $label (one file is a prefix of the other)"
  fi
}

echo "running $parent ..."
run_build "$parent" "$out/parent"
echo "running $change ..."
run_build "$change" "$out/change"

for file in stdout.txt trace.jsonl metrics.json status.txt \
            stdout48.txt trace48.jsonl metrics48.json status48.txt \
            slo.json slo-stdout.txt; do
  compare "$out/parent/$file" "$out/change/$file"
done
if [[ -f "$repo/BENCH_slo.json" ]]; then
  compare "$repo/BENCH_slo.json" "$out/change/slo.json" \
    "slo.json vs committed BENCH_slo.json"
fi
echo "outputs kept in $out"
if (( crashed )); then
  echo "a chaos_soak run crashed; its outputs are truncated" >&2
  exit 1
fi
exit "$differ"
