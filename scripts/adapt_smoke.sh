#!/usr/bin/env bash
# End-to-end smoke test of the adaptive sweep subsystem:
#
#   1. amdmb_adapt figure: run three representative figures (ALU:Fetch
#      crossover, fetch-latency slope, register-usage ladder) densely
#      and adaptively at quick scale and diff every crossover — the
#      tool exits 4 on any disagreement beyond the tolerance,
#   2. amdmb_adapt budget: the Fig. 7-9 family at the full 32-ratio
#      grid must spend at most a fifth of the dense point count while
#      agreeing on every crossover (exit 5 on a budget violation),
#   3. amdmb_adapt frontier: the 2D bottleneck frontier map builds, is
#      byte-deterministic across AMDMB_THREADS, emits the pm3d heatmap
#      artifacts through the gnuplot sink, and writes the BENCH json
#      plus CSV every bench binary writes.
#
# Usage: scripts/adapt_smoke.sh <build-dir>
set -euo pipefail

BUILD_DIR=${1:?usage: adapt_smoke.sh <build-dir>}
BUILD_DIR=$(cd "$BUILD_DIR" && pwd)
WORK_DIR=$(mktemp -d)
ADAPT="$BUILD_DIR/tools/amdmb_adapt"

cleanup() { rm -rf "$WORK_DIR"; }
trap cleanup EXIT

echo "== adaptive vs dense crossover agreement (three figure families)"
for fig in fig_7 fig_11 fig_16; do
  "$ADAPT" figure "$fig" --quick
done

echo "== Fig. 7-9 family point budget (adaptive <= 20% of dense)"
for fig in fig_7 fig_8 fig_9; do
  "$ADAPT" budget "$fig" --max-ratio 0.2
done

echo "== frontier map: determinism across thread counts + heatmap sink"
AMDMB_THREADS=1 "$ADAPT" frontier --quick --json > "$WORK_DIR/frontier_t1.json"
AMDMB_THREADS=8 "$ADAPT" frontier --quick --json > "$WORK_DIR/frontier_t8.json"
cmp "$WORK_DIR/frontier_t1.json" "$WORK_DIR/frontier_t8.json"
AMDMB_DUMP_DIR="$WORK_DIR/plots" "$ADAPT" frontier --quick > /dev/null
ls "$WORK_DIR"/plots/*_frontier.dat "$WORK_DIR"/plots/*_frontier.gp > /dev/null
grep -q "with image" "$WORK_DIR"/plots/*_frontier.gp
AMDMB_JSON_DIR="$WORK_DIR/json" "$ADAPT" frontier --quick > /dev/null
ls "$WORK_DIR"/json/BENCH_*frontier*.json "$WORK_DIR"/json/*frontier*.csv > /dev/null

echo "== adapt smoke passed"
