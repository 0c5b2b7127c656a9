#!/usr/bin/env bash
# crash_smoke.sh — end-to-end crash-recovery check of the durable frame log.
#
# Builds cmd/loadgen and runs its -crash harness: a child server process
# (loadgen re-exec'd) serves with a durable frame log, streams frames until
# half are acknowledged, is SIGKILLed mid-flight, and is restarted from the
# log alone; that second child finishes the stream and is drained with
# SIGTERM, which snapshots the feed, and a third child boots from the same
# log. The harness exits non-zero if any acknowledged frame is missing from
# the log, if any logged frame is not bit-faithful, if a recovered decision
# state differs by one bit from a local replay of the log, if any later
# decision diverges from the uninterrupted reference, or if the third
# child's /metrics do not show every logged frame restored from the
# snapshot and none replayed (DESIGN.md §13).
#
# Usage: scripts/crash_smoke.sh [per-feed]   (default 1200 frames)
set -euo pipefail
cd "$(dirname "$0")/.."

per_feed="${1:-1200}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/loadgen" ./cmd/loadgen

# One training epoch keeps the run fast; the harness reloads the saved
# bundle before building its reference, so the checked contract is exactly
# the serving child's float32 deployment weights.
"$tmp/loadgen" -crash -per-feed "$per_feed" -epochs 1
echo "crash_smoke: OK"
