#!/usr/bin/env bash
# Noise check of the benchmark itself: two sets (A, B) of full passes of the
# SAME code, every pass on another seed, the sets interleaved A B B A A B …
# so slow drift of the machine lands on both. Prints, for every (workload,
# end-to-end metric), both medians, both inter-quartile ranges and how much
# worse set B's median is than set A's, next to the bound in BENCHMARK.json.
# A bound should be at least twice that difference; see bench/README.md.
#
#   bench/noise.sh [passes-per-set (default 5)] [seconds (default: run_seconds)]
#
# One pass is four runs of about 31 s. Run it on an otherwise idle machine.
set -euo pipefail
cd "$(dirname "$0")/.."
passes=${1:-5}
seconds=${2:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
out=bench/out/noise
rm -rf "$out" && mkdir -p "$out"
go build -C bench -o out/occubench ./occubench
seed=100
for ((i = 0; i < 2 * passes; i++)); do
  case $((i % 4)) in 0 | 3) set=A ;; *) set=B ;; esac
  seed=$((seed + 1))
  for w in live_20hz bulk_backfill restart_recovery train_offline; do
    echo "pass $((i + 1))/$((2 * passes)) set $set seed $seed $w" >&2
    bench/out/occubench -workload "$w" -seed "$seed" -seconds "$seconds" -trace 0 |
      tail -n 1 >"$out/$set-$w-$seed.json"
  done
done
go run -C bench ./noisetable -dir out/noise
