#!/usr/bin/env bash
# Byte-identity check for refactors. Runs a fixed set of helios_sim runs
# with the binary in BUILD_DIR, writes each run's stdout, metrics, trace
# and sweep JSON into OUT_DIR, and lists their hashes in
# OUT_DIR/SHA256SUMS. Run it with the builds of two commits and diff the
# two SHA256SUMS files: equal files mean no output of the set changed.
#
# Usage: tools/identity_check.sh BUILD_DIR OUT_DIR
#
# Every run writes its files under relative names inside OUT_DIR, so the
# stdout lines that name them read the same on both commits. A run that
# exits nonzero records "exit <code>" at the end of its .out file.

set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
sim="$(cd "$1" && pwd)/tools/helios_sim"
if [ ! -x "$sim" ]; then
  echo "$0: no helios_sim under $1/tools" >&2
  exit 2
fi
mkdir -p "$2"
cd "$2"

# run NAME ARGS...: stdout goes to NAME.out.
run() {
  local name=$1
  shift
  local code=0
  "$sim" "$@" > "$name.out" 2> /dev/null || code=$?
  if [ "$code" -ne 0 ]; then echo "exit $code" >> "$name.out"; fi
}

for s in 1 2; do
  # The Table 2 headline run. --json_out is written only by the sweep
  # path and --metrics_out/--trace_out only by the single-run path, so
  # the two take separate runs.
  table2=(--protocol=helios0 --clients=50 --measure_s=8 --shards="$s")
  run "table2-s$s" "${table2[@]}" \
    --metrics_out="table2-s$s.metrics.json" --trace_out="table2-s$s.trace.json"
  run "table2-s$s-sweep" "${table2[@]}" --json_out="table2-s$s.sweep.json"

  # A gray stall with the health detector on: the only runs in the set
  # that export health.* counters and gauges.
  health=(--protocol=helios1 --topology=example3 --stall=2:1500:3000 --health
          --client_timeout_us=2000000 --client_retries=10 --warmup_s=1
          --measure_s=2 --shards="$s")
  run "health-s$s" "${health[@]}" \
    --metrics_out="health-s$s.metrics.json" --trace_out="health-s$s.trace.json"
done

# The sim-xshard-faults configuration (docs/PERFORMANCE.md): two shards,
# loss, a crash and read-only snapshots. The second run adds its metrics,
# the only ones in the set with recovery.* keys.
xshard=(--protocol=helios1 --clients=50 --warmup_s=2 --measure_s=20
        --shards=2 --loss=0.02 --crash=4:6000:12000
        --client_timeout_us=2000000 --read_only=0.3 --seed=1)
run xshard-faults "${xshard[@]}"
run xshard-faults-metrics "${xshard[@]}" \
  --metrics_out=xshard-faults.metrics.json

# The lock-based baselines over a lossy, duplicating network.
run baselines --protocols=rc,2pc --loss=0.1 --dup=0.05 \
  --check_serializability --json_out=baselines.json

sha256sum -- *.out *.json > SHA256SUMS
