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
# exit code: the first one that fails stops the run with its status and
# no JSON is written.
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

if [ "$SMOKE" = 1 ]; then
  throughput_json="$("$BENCH_DIR/bench_throughput" --smoke --json)"
  im_json="$("$BENCH_DIR/bench_im_generation" --json --cycles 2000)"
  resilience_json="$("$BENCH_DIR/bench_resilience" --smoke)"
  overload_json="$("$BENCH_DIR/bench_overload" --smoke --json)"
  ingress_json="$("$BENCH_DIR/bench_ingress" --smoke --json)"
  cluster_json="$("$BENCH_DIR/bench_cluster" --smoke --json --min-scaling 2.5)"
else
  throughput_json="$("$BENCH_DIR/bench_throughput" --json)"
  im_json="$("$BENCH_DIR/bench_im_generation" --json)"
  resilience_json="$("$BENCH_DIR/bench_resilience")"
  overload_json="$("$BENCH_DIR/bench_overload" --json)"
  ingress_json="$("$BENCH_DIR/bench_ingress" --json)"
  cluster_json="$("$BENCH_DIR/bench_cluster" --json)"
fi
trace_json="$("$BENCH_DIR/bench_trace_overhead")"

if [ "$SMOKE" = 1 ]; then
  OUT="$ROOT/BENCH_smoke.json"
else
  OUT="$ROOT/BENCH_$PR.json"
fi
{
  printf '{\n'
  printf '  "pr": %s,\n' "${PR:-null}"
  printf '  "smoke": %s,\n' "$([ "$SMOKE" = 1 ] && echo true || echo false)"
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
