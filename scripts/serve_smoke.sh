#!/usr/bin/env bash
# serve_smoke.sh — end-to-end check of the network serving layer.
#
# Boots cmd/occuserve with a tiny on-the-fly model, polls /readyz, exercises
# the feed lifecycle by hand (register, ingest, and a latest-decision read
# that must answer at once: 202 means decided), then points
# cmd/loadgen -target at the live server to hammer it with concurrent feeds:
# loadgen fetches the bundle the server serves on /v1/models and fails on any
# unexpected status or any streamed decision that is not bit-identical to its
# local replay. It then asserts a non-empty /metrics exposition carrying the
# server_* series on which every ingested frame has its decision, and finally
# sends SIGTERM and requires a clean drained exit 0.
#
# Usage: scripts/serve_smoke.sh [port]   (default 19180)
set -euo pipefail
cd "$(dirname "$0")/.."

port="${1:-19180}"
addr="127.0.0.1:${port}"
base="http://$addr"
tmp="$(mktemp -d)"
trap 'kill "${pid:-}" 2>/dev/null || true; rm -rf "$tmp"' EXIT

go build -o "$tmp/occuserve" ./cmd/occuserve
go build -o "$tmp/loadgen" ./cmd/loadgen

"$tmp/occuserve" -addr "$addr" -epochs 1 >"$tmp/serve.log" 2>&1 &
pid=$!

ready=""
for _ in $(seq 1 240); do
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "serve_smoke: occuserve died before /readyz answered" >&2
    cat "$tmp/serve.log" >&2
    exit 1
  fi
  if curl -sf "$base/readyz" >/dev/null; then
    ready=1
    break
  fi
  sleep 0.5
done
if [ -z "$ready" ]; then
  echo "serve_smoke: /readyz never returned 200" >&2
  cat "$tmp/serve.log" >&2
  exit 1
fi
echo "serve_smoke: server ready"

# Feed lifecycle by hand: register must 201, ingest must accept the frame,
# and the very next latest-decision read must answer 200 — the 202 already
# means the frame is decided, so there is nothing to poll for.
code="$(curl -s -o /dev/null -w '%{http_code}' -X PUT "$base/v1/feeds/smoke")"
if [ "$code" != 201 ]; then
  echo "serve_smoke: PUT /v1/feeds/smoke returned $code, want 201" >&2
  exit 1
fi
csi="0.9$(printf ',1%.0s' $(seq 63))"
body="{\"frames\":[{\"time\":\"2022-01-04T15:08:40Z\",\"csi\":[$csi],\"temp\":21.4,\"humidity\":41}]}"
resp="$(curl -sf -X POST -H 'Content-Type: application/json' -d "$body" "$base/v1/feeds/smoke/frames")"
if ! printf '%s' "$resp" | grep -q '"accepted":1'; then
  echo "serve_smoke: ingest did not accept the frame: $resp" >&2
  exit 1
fi
occ_code="$(curl -s -o "$tmp/occ.json" -w '%{http_code}' "$base/v1/feeds/smoke/occupancy")"
if [ "$occ_code" != 200 ]; then
  echo "serve_smoke: GET /v1/feeds/smoke/occupancy right after the 202 returned $occ_code, want 200" >&2
  exit 1
fi
echo "serve_smoke: feed lifecycle OK ($(cat "$tmp/occ.json"))"
curl -sf -X DELETE "$base/v1/feeds/smoke" >/dev/null

# Drive it properly: loadgen replays concurrent feeds over HTTP, retrying
# 429 partial accepts and failing on any unexpected status, stream error or
# decision that differs from its replay of the served bundle. -per-feed stays
# under occuserve's default 256-event stream buffer, so no event can be
# dropped on a slow subscriber.
if ! "$tmp/loadgen" -target "$base" -feeds 8 -per-feed 200 -epochs 1 \
  >"$tmp/loadgen.log" 2>&1; then
  echo "serve_smoke: loadgen -target failed" >&2
  cat "$tmp/loadgen.log" >&2
  exit 1
fi
tail -3 "$tmp/loadgen.log"
if ! grep -q 'bit-identical to the local runtime' "$tmp/loadgen.log"; then
  echo "serve_smoke: loadgen did not verify the streamed decisions" >&2
  exit 1
fi

metrics="$(curl -sf "$base/metrics")"
if ! printf '%s\n' "$metrics" | grep -q '^# TYPE server_frames_ingested_total counter'; then
  echo "serve_smoke: exposition is missing the server_* series:" >&2
  printf '%s\n' "$metrics" | head -20 >&2
  exit 1
fi
# At rest the books balance with no drop term, and the queue is gone from
# the exposition along with the machinery.
ingested="$(printf '%s\n' "$metrics" | awk '$1 == "server_frames_ingested_total" {print $2}')"
decided="$(printf '%s\n' "$metrics" | awk '$1 == "server_decisions_total" {print $2}')"
if [ -z "$ingested" ] || [ "$ingested" != "$decided" ]; then
  echo "serve_smoke: server_frames_ingested_total=$ingested but server_decisions_total=$decided" >&2
  exit 1
fi
if printf '%s\n' "$metrics" | grep -Eq '^server_[a-z_]*queue'; then
  echo "serve_smoke: a server queue series is still exposed" >&2
  exit 1
fi
echo "serve_smoke: /metrics OK ($(printf '%s\n' "$metrics" | wc -l) lines; $ingested ingested = $decided decided)"

# Graceful drain: SIGTERM must flip readiness and exit 0 within the budget.
kill -TERM "$pid"
if ! wait "$pid"; then
  echo "serve_smoke: occuserve exited non-zero on SIGTERM" >&2
  cat "$tmp/serve.log" >&2
  exit 1
fi
echo "serve_smoke: clean drain"
