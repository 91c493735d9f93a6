#!/usr/bin/env bash
# Bench trajectory: runs bench_throughput (serialized/concurrent
# sync rows plus the staged async and in-flight-per-core rows in one
# binary),
# bench_im_generation, bench_trace_overhead, bench_resilience
# (retry/breaker goodput against a chaotic resource), bench_overload
# (goodput/shed-rate/p99 as offered load sweeps 1x-10x of pipeline
# capacity), bench_ingress (in-process vs over-the-wire goodput/p99
# through the networked ingress front-end at 1x/10x), and bench_cluster
# (goodput/p99 at 1/2/4/8 consistent-hash shards behind the cluster
# front-end, the mid-run shard-kill failover row, the diff-based
# replication byte savings, the PR-9 rebalance row — a 5th shard
# joins and a shard leaves mid-feed; gated on exactly-once callbacks,
# moved keyspace <= ~1/5, and post-resize goodput >= 0.9x the pre-join
# plateau, plus 4-shard goodput >= 3x 1-shard, relaxed to 2.5x in smoke
# mode — and the PR-10 session-resume row: checkpointed sessions whose
# owner dies mid-feed must close on the survivor with exactly one
# re-executed step each and post-failover goodput >= 0.9x the pre-kill
# plateau), then composes their JSON outputs into a consolidated
# BENCH_<N>.json at the repo root for the change numbered N — or, with
# --smoke, into the git-ignored BENCH_smoke.json, so a smoke run never
# overwrites a committed trajectory file. Every bench gates through its
# exit code: the first one that fails is named on stderr with its
# output, the run stops with its status, and no JSON is written. The JSON also records where the run came from:
# the commit (plus whether the tree had uncommitted changes), the build
# type from the build tree's CMake cache, nproc and the CPU model.
#
# Usage: bench/run_benches.sh [build-dir] (--pr N | --smoke)
#   build-dir  defaults to <repo>/build
#   --pr N     trajectory entry: writes BENCH_<N>.json with "pr": N
#              (required for a full run)
#   --smoke    small rep counts (CI bit-rot check, numbers not meaningful)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build"
SMOKE=0
PR=""
while [ "$#" -gt 0 ]; do
  case "$1" in
    --smoke) SMOKE=1 ;;
    --pr)
      PR="${2:-}"
      [ "$#" -ge 2 ] && shift
      ;;
    *) BUILD="$1" ;;
  esac
  shift
done
if [ -n "$PR" ] && ! [[ "$PR" =~ ^[0-9]+$ ]]; then
  echo "--pr takes a number, got '$PR'" >&2
  exit 2
fi
if [ "$SMOKE" = 0 ] && [ -z "$PR" ]; then
  echo "a full run needs --pr N (it writes BENCH_<N>.json); use --smoke" \
       "for a bit-rot check" >&2
  exit 2
fi
BENCH_DIR="$BUILD/bench"

for binary in bench_throughput bench_im_generation bench_trace_overhead \
              bench_resilience bench_overload bench_ingress \
              bench_cluster; do
  if [ ! -x "$BENCH_DIR/$binary" ]; then
    echo "missing $BENCH_DIR/$binary — build the repo first" >&2
    exit 1
  fi
done

# Run one bench and print its JSON; a failed gate names the bench and
# its output on stderr, and the run stops with the bench's status.
run() {
  local out status=0
  out="$("$BENCH_DIR/$1" "${@:2}")" || status=$?
  if [ "$status" != 0 ]; then
    printf '%s failed (exit %s):\n%s\n' "$1" "$status" "$out" >&2
    exit "$status"
  fi
  printf '%s' "$out"
}

if [ "$SMOKE" = 1 ]; then
  throughput_json="$(run bench_throughput --smoke --json)"
  im_json="$(run bench_im_generation --json --cycles 2000)"
  resilience_json="$(run bench_resilience --smoke)"
  overload_json="$(run bench_overload --smoke --json)"
  ingress_json="$(run bench_ingress --smoke --json)"
  cluster_json="$(run bench_cluster --smoke --json --min-scaling 2.5)"
else
  throughput_json="$(run bench_throughput --json)"
  im_json="$(run bench_im_generation --json)"
  resilience_json="$(run bench_resilience)"
  overload_json="$(run bench_overload --json)"
  ingress_json="$(run bench_ingress --json)"
  cluster_json="$(run bench_cluster --json)"
fi
trace_json="$(run bench_trace_overhead)"

commit="$(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)"
dirty=null
if [ "$commit" != unknown ]; then
  if [ -n "$(git -C "$ROOT" status --porcelain)" ]; then
    dirty=true
  else
    dirty=false
  fi
fi
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$BUILD/CMakeCache.txt" \
               2>/dev/null || true)"
# First "model name" line only, with JSON's quote and backslash escaped.
cpu_model="$(sed -n 's/^model name[[:space:]]*: //;T;s/[\\"]/\\&/g;p;q' \
               /proc/cpuinfo)"

if [ "$SMOKE" = 1 ]; then
  OUT="$ROOT/BENCH_smoke.json"
else
  OUT="$ROOT/BENCH_$PR.json"
fi
{
  printf '{\n'
  printf '  "pr": %s,\n' "${PR:-null}"
  printf '  "smoke": %s,\n' "$([ "$SMOKE" = 1 ] && echo true || echo false)"
  printf '  "source": {"commit": "%s", "dirty": %s, "build_type": "%s"},\n' \
    "$commit" "$dirty" "$build_type"
  printf '  "machine": {"nproc": %s, "cpu_model": "%s"},\n' \
    "$(nproc)" "$cpu_model"
  printf '  "throughput": %s,\n' "$throughput_json"
  printf '  "im_generation": %s,\n' "$im_json"
  printf '  "trace_overhead": %s,\n' "$trace_json"
  printf '  "resilience": %s,\n' "$resilience_json"
  printf '  "overload": %s,\n' "$overload_json"
  printf '  "ingress": %s,\n' "$ingress_json"
  printf '  "cluster": %s\n' "$cluster_json"
  printf '}\n'
} > "$OUT"
echo "wrote $OUT"
