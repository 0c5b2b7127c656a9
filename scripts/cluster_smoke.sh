#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end check of the sharded serving cluster.
#
# Boots three occuserve nodes behind one shard map — n1 serves a bundle
# cmd/occutrain wrote, n2/n3 fetch it from n1 via -model-from — plus a thin
# redirecting router in front, asserts all four advertise the same model
# SHA-256, then
# points cmd/loadgen -cluster at the router: 64 feeds stream at their
# owning nodes, node n3 is drained out of the map mid-run, and each of its
# feeds moves to its new owner as its log directory (sealed segments and
# snapshot, streamed from n3's GET .../log into the owner's PUT .../log).
# loadgen's exit code asserts that every decision is bit-identical to a
# single-node replay, that the new owners' /metrics show every moved frame
# restored from its snapshot and none replayed, and that zero acknowledged
# frames were lost. Finally every process must drain cleanly on SIGTERM
# (DESIGN.md §15).
#
# Usage: scripts/cluster_smoke.sh [baseport]   (default 19200)
set -euo pipefail
cd "$(dirname "$0")/.."

bp="${1:-19200}"
p1=$((bp + 1)); p2=$((bp + 2)); p3=$((bp + 3)); pr=$((bp + 4))
u1="http://127.0.0.1:$p1"; u2="http://127.0.0.1:$p2"; u3="http://127.0.0.1:$p3"; ur="http://127.0.0.1:$pr"
nodes="n1=$u1,n2=$u2,n3=$u3"
tmp="$(mktemp -d)"
pids=()
trap 'kill "${pids[@]}" 2>/dev/null || true; rm -rf "$tmp"' EXIT

go build -o "$tmp/occuserve" ./cmd/occuserve
go build -o "$tmp/occutrain" ./cmd/occutrain
go build -o "$tmp/loadgen" ./cmd/loadgen
# Every member must score a moved feed with the same arithmetic, or the new
# owner refuses the hand-off (scorer_mismatch). A node that trains on the fly
# also trains a CSI-only fallback that -model-from does not carry, so n1
# serves a trained bundle instead, exactly as its peers do.
"$tmp/occutrain" -epochs 1 -model "$tmp/detector.bin" >"$tmp/occutrain.log" 2>&1

wait_ready() { # url name
  for _ in $(seq 1 240); do
    if curl -sf "$1/readyz" >/dev/null; then return 0; fi
    sleep 0.5
  done
  echo "cluster_smoke: $2 never became ready at $1" >&2
  cat "$tmp/$2.log" >&2
  exit 1
}

common=(-stream-buffer 4096 -cluster-nodes "$nodes")
"$tmp/occuserve" -addr "127.0.0.1:$p1" -cluster-self n1 -log-dir "$tmp/log-n1" -model "$tmp/detector.bin" "${common[@]}" >"$tmp/n1.log" 2>&1 &
pids+=($!)
wait_ready "$u1" n1
"$tmp/occuserve" -addr "127.0.0.1:$p2" -cluster-self n2 -log-dir "$tmp/log-n2" -model-from "$u1" "${common[@]}" >"$tmp/n2.log" 2>&1 &
pids+=($!)
"$tmp/occuserve" -addr "127.0.0.1:$p3" -cluster-self n3 -log-dir "$tmp/log-n3" -model-from "$u1" "${common[@]}" >"$tmp/n3.log" 2>&1 &
pids+=($!)
"$tmp/occuserve" -addr "127.0.0.1:$pr" -cluster-self router -model-from "$u1" "${common[@]}" >"$tmp/router.log" 2>&1 &
pids+=($!)
wait_ready "$u2" n2
wait_ready "$u3" n3
wait_ready "$ur" router
echo "cluster_smoke: 3 nodes + redirecting router ready"

# Model distribution: every node (and the router) must advertise the same
# bundle SHA — byte-identical weights are the precondition for
# placement-independent decisions.
sha() { curl -sf "$1/v1/cluster" | sed -n 's/.*"model_sha256":"\([0-9a-f]*\)".*/\1/p'; }
s1="$(sha "$u1")"
for u in "$u2" "$u3" "$ur"; do
  s="$(sha "$u")"
  if [ -z "$s1" ] || [ "$s" != "$s1" ]; then
    echo "cluster_smoke: model SHA mismatch: $u has '$s', n1 has '$s1'" >&2
    exit 1
  fi
done
echo "cluster_smoke: model sha256 ${s1:0:12}... identical on all nodes"

# The uniform error envelope must hold on the wire, through the router's
# redirect to the owner.
env_body="$(curl -sL "$ur/v1/feeds/ghost/occupancy")"
if ! printf '%s' "$env_body" | grep -q '"code":"unknown_feed"'; then
  echo "cluster_smoke: error envelope missing or malformed through the router: $env_body" >&2
  exit 1
fi
echo "cluster_smoke: error envelope OK through the router"

# The full harness: 64 feeds through the router, mid-run drain of n3 and
# the hand-off of its feeds; the exit code asserts bit-identity, restore
# without replay, and zero loss.
if ! "$tmp/loadgen" -cluster 3 -target "$ur" -drain-node n3 \
  -feeds 64 -per-feed 120 -epochs 1 >"$tmp/loadgen.log" 2>&1; then
  echo "cluster_smoke: loadgen cluster harness failed" >&2
  tail -30 "$tmp/loadgen.log" >&2
  exit 1
fi
tail -4 "$tmp/loadgen.log"

kill -TERM "${pids[@]}" 2>/dev/null || true
for p in "${pids[@]}"; do
  if ! wait "$p"; then
    echo "cluster_smoke: a node exited non-zero on SIGTERM" >&2
    exit 1
  fi
done
echo "cluster_smoke: clean drain on all nodes"
