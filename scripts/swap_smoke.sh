#!/usr/bin/env bash
# swap_smoke.sh — end-to-end check of the versioned model API and the
# zero-downtime hot swap, on the wire against a real occuserve.
#
# Trains two detector bundles with different seeds, serves A with drift
# detection on, then drives the model API with plain curl: install B
# (201, then 200 on the dedup re-install), reject a garbage bundle with a
# model_rejected envelope, refuse to activate an unknown sha with an
# unknown_model envelope, atomically activate B and verify the active
# version flips on GET /v1/models and serves by id on GET /v1/models/{id}
# with its X-Model-SHA256 header, fetch the displaced A back by version, pin a feed
# to A and unpin it (idempotently), and finally require a clean SIGTERM
# drain. The deeper swap guarantees — zero frame loss, bit-identical
# decision segments — are loadgen -swap's job (DESIGN.md §16).
#
# Usage: scripts/swap_smoke.sh [port]   (default 19400)
set -euo pipefail
cd "$(dirname "$0")/.."

port="${1:-19400}"
u="http://127.0.0.1:$port"
tmp="$(mktemp -d)"
pids=()
trap 'kill "${pids[@]}" 2>/dev/null || true; rm -rf "$tmp"' EXIT

go build -o "$tmp/occuserve" ./cmd/occuserve
go build -o "$tmp/occutrain" ./cmd/occutrain

echo "swap_smoke: training bundles A (seed 1) and B (seed 2)"
"$tmp/occutrain" -data "" -epochs 1 -train 6000 -seed 1 -model "$tmp/a.bin" >"$tmp/train-a.log" 2>&1
"$tmp/occutrain" -data "" -epochs 1 -train 6000 -seed 2 -model "$tmp/b.bin" >"$tmp/train-b.log" 2>&1

"$tmp/occuserve" -addr "127.0.0.1:$port" -model "$tmp/a.bin" \
  -drift-baseline 64 -drift-window 32 >"$tmp/serve.log" 2>&1 &
pids+=($!)
srv=$!
for _ in $(seq 1 240); do
  if curl -sf "$u/readyz" >/dev/null; then break; fi
  sleep 0.5
done
curl -sf "$u/readyz" >/dev/null || { echo "swap_smoke: server never ready" >&2; cat "$tmp/serve.log" >&2; exit 1; }
grep -q "drift detection on" "$tmp/serve.log" || { echo "swap_smoke: drift not enabled" >&2; exit 1; }

jsonfield() { sed -n "s/.*\"$2\":\"\([^\"]*\)\".*/\1/p" <<<"$1" | head -n 1; }

a_id="$(jsonfield "$(curl -sf "$u/v1/models")" active)"
[ -n "$a_id" ] || { echo "swap_smoke: no active version at boot" >&2; exit 1; }
echo "swap_smoke: boot version ${a_id:0:12} active"

# Install B: 201 on first sight, 200 (same id) on the dedup re-install.
code="$(curl -s -o "$tmp/install.json" -w '%{http_code}' -X POST \
  -H 'Content-Type: application/octet-stream' --data-binary @"$tmp/b.bin" "$u/v1/models")"
[ "$code" = 201 ] || { echo "swap_smoke: install B: want 201, got $code" >&2; cat "$tmp/install.json" >&2; exit 1; }
b_id="$(jsonfield "$(cat "$tmp/install.json")" id)"
[ -n "$b_id" ] && [ "$b_id" != "$a_id" ] || { echo "swap_smoke: bad candidate id $b_id" >&2; exit 1; }
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -H 'Content-Type: application/octet-stream' --data-binary @"$tmp/b.bin" "$u/v1/models")"
[ "$code" = 200 ] || { echo "swap_smoke: re-install B: want 200, got $code" >&2; exit 1; }
echo "swap_smoke: candidate ${b_id:0:12} installed (201, then 200 on dedup)"

# The install gate must reject garbage with the error envelope on the wire.
resp="$(printf 'not a detector bundle' | curl -s -w '\n%{http_code}' -X POST \
  -H 'Content-Type: application/octet-stream' --data-binary @- "$u/v1/models")"
grep -q '"code":"model_rejected"' <<<"$resp" && grep -q '422$' <<<"$resp" \
  || { echo "swap_smoke: garbage install: want 422 model_rejected, got: $resp" >&2; exit 1; }

# Activating a never-installed sha must 404 with unknown_model.
bogus="$(printf '0%.0s' $(seq 1 64))"
resp="$(curl -s -w '\n%{http_code}' -X POST -H 'Content-Type: application/json' \
  -d "{\"id\":\"$bogus\"}" "$u/v1/models/activate")"
grep -q '"code":"unknown_model"' <<<"$resp" && grep -q '404$' <<<"$resp" \
  || { echo "swap_smoke: bogus activate: want 404 unknown_model, got: $resp" >&2; exit 1; }
echo "swap_smoke: envelope checks hold (model_rejected, unknown_model)"

# Atomically activate B; the active id must flip everywhere it is exposed.
curl -sf -X POST -H 'Content-Type: application/json' -d "{\"id\":\"$b_id\"}" "$u/v1/models/activate" >/dev/null
act="$(jsonfield "$(curl -sf "$u/v1/models")" active)"
[ "$act" = "$b_id" ] || { echo "swap_smoke: active after swap is $act, want $b_id" >&2; exit 1; }
curl -sf -D "$tmp/model.hdr" -o "$tmp/model.bin" "$u/v1/models/$b_id"
got="$(sha256sum "$tmp/model.bin" | cut -d' ' -f1)"
[ "$got" = "$b_id" ] || { echo "swap_smoke: /v1/models/$b_id serves $got" >&2; exit 1; }
grep -qi "x-model-sha256: $b_id" "$tmp/model.hdr" \
  || { echo "swap_smoke: missing/wrong X-Model-SHA256 header" >&2; cat "$tmp/model.hdr" >&2; exit 1; }
# The displaced A stays fetchable by version.
got="$(curl -sf "$u/v1/models/$a_id" | sha256sum | cut -d' ' -f1)"
[ "$got" = "$a_id" ] || { echo "swap_smoke: /v1/models/$a_id serves $got" >&2; exit 1; }
echo "swap_smoke: activated ${b_id:0:12}; /v1/models, /v1/models/{id} and X-Model-SHA256 all agree"

# Pin a feed to the displaced A (the A/B lever), then unpin idempotently.
curl -sf -X PUT "$u/v1/feeds/room-a" >/dev/null
resp="$(curl -sf -X PUT -H 'Content-Type: application/json' -d "{\"id\":\"$a_id\"}" "$u/v1/feeds/room-a/model")"
[ "$(jsonfield "$resp" pinned)" = "$a_id" ] || { echo "swap_smoke: pin failed: $resp" >&2; exit 1; }
curl -sf "$u/v1/feeds" | grep -q "\"pinned_model\":\"$a_id\"" \
  || { echo "swap_smoke: feed listing misses pinned_model" >&2; exit 1; }
resp="$(curl -s -w '\n%{http_code}' -X PUT -H 'Content-Type: application/json' \
  -d "{\"id\":\"$bogus\"}" "$u/v1/feeds/room-a/model")"
grep -q '"code":"unknown_model"' <<<"$resp" \
  || { echo "swap_smoke: pin to unknown sha: want unknown_model, got: $resp" >&2; exit 1; }
curl -sf -X DELETE "$u/v1/feeds/room-a/model" >/dev/null
curl -sf -X DELETE "$u/v1/feeds/room-a/model" >/dev/null
echo "swap_smoke: per-feed pin / unpin holds"

kill -TERM "$srv"
wait "$srv" || { echo "swap_smoke: server exited non-zero on SIGTERM" >&2; cat "$tmp/serve.log" >&2; exit 1; }
grep -q "drained cleanly" "$tmp/serve.log" || { echo "swap_smoke: no clean drain" >&2; cat "$tmp/serve.log" >&2; exit 1; }
echo "swap_smoke: PASS — versioned model API, hot swap, pins and envelopes all verified on the wire"
