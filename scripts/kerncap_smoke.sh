#!/usr/bin/env bash
# End-to-end smoke test of the kerncap characterize pipeline:
#
#   1. start amdmb_serve on a private socket and characterize a corpus
#      kernel through amdmb_client,
#   2. diff the served figure document against the standalone
#      amdmb_kerncap CLI's output at AMDMB_THREADS=1 and AMDMB_THREADS=8
#      (byte-identical at every width is the determinism contract),
#   3. replay the malformed-kernel corpus over the same socket — every
#      file must come back as a typed rejected verdict with the daemon
#      still serving afterwards,
#   4. SIGTERM the daemon and assert a clean drain (exit 0).
#
# Usage: scripts/kerncap_smoke.sh <build-dir>
set -euo pipefail

BUILD_DIR=${1:?usage: kerncap_smoke.sh <build-dir>}
BUILD_DIR=$(cd "$BUILD_DIR" && pwd)
REPO_DIR=$(cd "$(dirname "$0")/.." && pwd)
CORPUS="$REPO_DIR/tests/corpus/il"
WORK_DIR=$(mktemp -d)
SOCKET="$WORK_DIR/serve.sock"
SERVE="$BUILD_DIR/tools/amdmb_serve"
CLIENT="$BUILD_DIR/tools/amdmb_client"
KERNCAP="$BUILD_DIR/tools/amdmb_kerncap"
KERNEL="$CORPUS/valid_compute.il"

SERVE_PID=
cleanup() {
  if [[ -n "$SERVE_PID" ]] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill -KILL "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

start_serve() {
  "$SERVE" --socket "$SOCKET" "$@" > "$WORK_DIR/serve.log" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 100); do
    [[ -S "$SOCKET" ]] && break
    sleep 0.1
  done
  [[ -S "$SOCKET" ]] || { cat "$WORK_DIR/serve.log"; exit 1; }
}

stop_serve() {
  kill -TERM "$SERVE_PID"
  local drain_exit=0
  wait "$SERVE_PID" || drain_exit=$?
  SERVE_PID=
  [[ "$drain_exit" -eq 0 ]] || {
    echo "daemon exited $drain_exit, expected clean drain (0)"
    cat "$WORK_DIR/serve.log"
    exit 1
  }
}

echo "== standalone amdmb_kerncap at two executor widths"
AMDMB_THREADS=1 "$KERNCAP" --quick "$KERNEL" \
  > "$WORK_DIR/cli_t1.json" 2> "$WORK_DIR/cli_t1.log"
AMDMB_THREADS=8 "$KERNCAP" --quick "$KERNEL" \
  > "$WORK_DIR/cli_t8.json" 2> "$WORK_DIR/cli_t8.log"
diff "$WORK_DIR/cli_t1.json" "$WORK_DIR/cli_t8.json"
echo "   byte-identical across AMDMB_THREADS=1 and 8"

echo "== starting amdmb_serve on $SOCKET"
start_serve --queue 4 --inflight 1

echo "== served characterize request"
"$CLIENT" characterize "$KERNEL" --quick --socket "$SOCKET" \
  > "$WORK_DIR/served.json" 2> "$WORK_DIR/served.log"
diff "$WORK_DIR/cli_t1.json" "$WORK_DIR/served.json"
echo "   served document is byte-identical to the CLI's"

echo "== malformed corpus over the socket"
REJECTED=0
for il in "$CORPUS"/*.il; do
  name=$(basename "$il")
  case "$name" in valid_*) continue ;; esac
  set +e
  "$CLIENT" characterize "$il" --quick --quiet --socket "$SOCKET" \
    > /dev/null 2> "$WORK_DIR/reject.log"
  status=$?
  set -e
  [[ "$status" -eq 3 ]] || {
    echo "$name: expected typed rejection (exit 3), got $status"
    cat "$WORK_DIR/reject.log"
    exit 1
  }
  grep -q "rejected: invalid_kernel" "$WORK_DIR/reject.log" || {
    echo "$name: missing typed verdict"; cat "$WORK_DIR/reject.log"; exit 1;
  }
  REJECTED=$((REJECTED + 1))
done
echo "   $REJECTED malformed kernels rejected with typed verdicts"

echo "== daemon still serves after the corpus barrage"
"$CLIENT" characterize "$KERNEL" --quick --quiet --socket "$SOCKET" \
  > "$WORK_DIR/served2.json" 2>/dev/null
diff "$WORK_DIR/served.json" "$WORK_DIR/served2.json"
"$CLIENT" stats --socket "$SOCKET" > "$WORK_DIR/stats.log"

echo "== SIGTERM drain"
stop_serve
[[ ! -S "$SOCKET" ]] || { echo "socket not unlinked on drain"; exit 1; }
echo "== kerncap smoke passed"
