#!/usr/bin/env bash
# Bounded differential soak over the epoll TCP frontend (shared
# cross-connection rewriting-plan cache, containment decided directly;
# the mirror memoizes containment in its own oracle), in two acts:
#
#   1. a clean soak — a multi-tenant isolation phase (interleaved
#      authenticated tenants who must never see each other's views), then
#      randomized generated scenarios replayed by concurrent clients
#      through the shared plan cache, every response differentially checked;
#      any divergence fails the script (and leaves a shrunk .aqv repro),
#   2. the harness self-test — the same driver with --inject-fault-at,
#      which MUST exit 1 and write a repro: a soak harness that cannot
#      catch a deliberately flipped answer proves nothing.
#
# With --persist <dir>, act 1 additionally runs every scenario with
# save/open churn through per-scenario database directories under <dir>
# — each post-`open` probe interrogates state recovered from disk.
#
# CI's soak-smoke job runs this under ASan with SOAK_DURATION_S=60.
# Knobs (env): SOAK_SEED, SOAK_CLIENTS, SOAK_SCENARIOS,
# SOAK_MIN_COMMANDS, SOAK_DURATION_S, SOAK_TENANTS.
# See docs/OPERATIONS.md.
#
# Usage: tools/soak.sh [BUILD_DIR] [--persist <dir>]

set -euo pipefail

BUILD_DIR=build
PERSIST_DIR=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --persist)
      PERSIST_DIR=${2:?--persist needs a directory}
      shift 2
      ;;
    *)
      BUILD_DIR=$1
      shift
      ;;
  esac
done
SOAK="$BUILD_DIR/tools/aqv_soak"
if [[ ! -x "$SOAK" ]]; then
  echo "error: $SOAK not found; configure with -DAQV_BUILD_TOOLS=ON" >&2
  exit 1
fi

SOAK_SEED=${SOAK_SEED:-20260807}
SOAK_CLIENTS=${SOAK_CLIENTS:-4}
SOAK_SCENARIOS=${SOAK_SCENARIOS:-12}
SOAK_MIN_COMMANDS=${SOAK_MIN_COMMANDS:-3000}
SOAK_DURATION_S=${SOAK_DURATION_S:-0}
SOAK_TENANTS=${SOAK_TENANTS:-2}

workdir=$(mktemp -d)
cleanup() {
  status=$?
  rm -rf "$workdir"
  exit "$status"
}
trap cleanup EXIT

persist_flags=()
if [[ -n "$PERSIST_DIR" ]]; then
  mkdir -p "$PERSIST_DIR"
  persist_flags=(--persist "$PERSIST_DIR")
fi

echo "=== clean soak (seed=$SOAK_SEED clients=$SOAK_CLIENTS" \
  "scenarios=$SOAK_SCENARIOS min-commands=$SOAK_MIN_COMMANDS" \
  "duration-s=$SOAK_DURATION_S tenants=$SOAK_TENANTS" \
  "persist=${PERSIST_DIR:-off}) ==="
"$SOAK" \
  --seed "$SOAK_SEED" \
  --clients "$SOAK_CLIENTS" \
  --scenarios "$SOAK_SCENARIOS" \
  --min-commands "$SOAK_MIN_COMMANDS" \
  --duration-s "$SOAK_DURATION_S" \
  --views-min 15 --views-max 40 \
  --preds-min 8 --preds-max 16 \
  --tenants "$SOAK_TENANTS" \
  "${persist_flags[@]}" \
  --repro-dir "$workdir"

echo "=== fault-injection self-test (expect divergence + repro) ==="
rc=0
"$SOAK" \
  --seed "$SOAK_SEED" \
  --clients 1 \
  --scenarios 1 \
  --min-commands 1 \
  --views-min 8 --views-max 12 \
  --preds-min 6 --preds-max 8 \
  --tenants 0 \
  --inject-fault-at 1 \
  --repro-dir "$workdir" || rc=$?
if [[ "$rc" -ne 1 ]]; then
  echo "self-test FAILED: injected fault exited $rc, want 1" >&2
  exit 1
fi
repro=$(find "$workdir" -name 'repro-*.aqv' | head -n 1)
if [[ -z "$repro" ]]; then
  echo "self-test FAILED: no repro file written" >&2
  exit 1
fi
echo "--- shrunk repro ---"
cat "$repro"
echo "--------------------"
echo "soak OK"
