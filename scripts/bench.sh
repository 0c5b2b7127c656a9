#!/usr/bin/env bash
# bench.sh — run the headline benchmarks, record the numbers as JSON, and
# diff the inference numbers against the most recent previous record.
#
# Usage: scripts/bench.sh [output.json]
#
# Writes BENCH_<date>.json in the repo root by default (BENCH_<date>T<time>
# if today's file already exists, so reruns never clobber a recorded run).
# The benchmarks cover the experiment grid end-to-end (Table4Full), the
# training hot path (TrainEpochMLP), the matmul kernel underneath everything
# (MatMul), and the serving stack (InferenceMLPBatch256 through the forward
# arena, the fused single-row path, and the engine under one and 64 callers).
# The InferenceMLPBatch256 / InferenceMLPSingleFused patterns deliberately
# prefix-match the reduced-precision variants (…F32, …I8, DESIGN.md §12), so
# the f64-vs-f32-vs-int8 spread is recorded in every BENCH_*.json and the
# regression check below tracks all of them.
#
# Two tiers. The µs-scale serving benchmarks (the fused single-row paths and
# the engine), the three float64 matmuls training runs on (MatMul,
# MatMulATB, MatMulABT — about a millisecond each since the AVX2 kernels)
# and the two halves of a recovered frame's cost outside the axpy
# (ReLUCompactF32, ~0.1 µs a row; FrameLogRecover, ~1 ms a 4 000-frame feed)
# run by time, five times each, and the record keeps the median with the fastest
# and slowest run beside it: three iterations of a 3 µs operation measure a
# cold cache, not the operation. Everything else still runs three iterations
# (ROADMAP item 1b covers moving the rest).
#
# After writing, the inference benchmarks (Inference*/Engine*) are compared
# against the latest earlier BENCH_*.json: a >15% ns/op regression prints a
# diagnosis and exits 1. CI runs this in a non-blocking job — the failure is
# a flag for a human, not a merge gate, because the three-iteration tier on
# shared runners is noisy.
set -euo pipefail

cd "$(dirname "$0")/.."

out="${1:-BENCH_$(date +%F).json}"
if [[ -z "${1:-}" && -e "$out" ]]; then
  out="BENCH_$(date +%FT%H%M%S).json"
fi
benches='BenchmarkTable4Full|BenchmarkTrainEpochMLP|BenchmarkInferenceMLPBatch256|BenchmarkFrameLogAppend|BenchmarkKernel|BenchmarkModelSwap'
timed='BenchmarkInferenceMLPSingleFused|BenchmarkEngineMultiFeed|BenchmarkEnginePredictSingle|BenchmarkMatMul$|BenchmarkMatMulATB$|BenchmarkMatMulABT$|BenchmarkReLUCompactF32|BenchmarkFrameLogRecover'

raw="$(go test -bench="$benches" -benchtime=3x -benchmem -run '^$' . 2>&1)"
echo "$raw"
raw_timed="$(go test -bench="$timed" -benchtime=1s -count=5 -benchmem -run '^$' . 2>&1)"
echo "$raw_timed"

# The most recent earlier record, by the UTC date embedded in each file
# (file mtimes are meaningless after a fresh clone).
prev=""
prev_date=""
for f in BENCH_*.json; do
  [[ -e "$f" && "$f" != "$out" ]] || continue
  d="$(sed -n 's/.*"date": "\([^"]*\)".*/\1/p' "$f" | head -n1)"
  if [[ "$d" > "$prev_date" ]]; then
    prev_date="$d"
    prev="$f"
  fi
done

# Convert `go test -bench` lines into a JSON document, keeping the
# environment facts needed to interpret the numbers (core count matters:
# neither the parallel experiment engine nor the serving engine can show
# wall-clock fan-out gains at GOMAXPROCS=1).
{
  printf '{\n'
  printf '  "date": "%s",\n' "$(date -u +%FT%TZ)"
  printf '  "go": "%s",\n' "$(go env GOVERSION)"
  printf '  "goos": "%s",\n' "$(go env GOOS)"
  printf '  "goarch": "%s",\n' "$(go env GOARCH)"
  printf '  "num_cpu": %s,\n' "$(getconf _NPROCESSORS_ONLN)"
  cpu_model="$(grep -m1 'model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2- | sed 's/^ *//' || true)"
  printf '  "cpu": "%s",\n' "${cpu_model:-unknown}"
  # Which SIMD features the host offers and which kernel was requested —
  # the Inference*/Kernel* numbers are meaningless without them (an AVX2
  # run and a generic run differ ~3x on the f32 path, DESIGN.md §14).
  cpu_flags="$(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null | cut -d: -f2- || true)"
  feats=""
  for f in avx2 fma avx512f; do
    if grep -qw "$f" <<<"$cpu_flags"; then feats="${feats:+$feats }$f"; fi
  done
  printf '  "cpu_simd": "%s",\n' "${feats:-none}"
  printf '  "kernel": "%s",\n' "${OCCU_KERNEL:-auto}"
  printf '  "benchmarks": [\n'
  # One entry per benchmark name. A name that ran several times (the timed
  # tier) records its median run as ns_per_op, with the run count and the
  # fastest and slowest run beside it.
  printf '%s\n%s\n' "$raw" "$raw_timed" | awk '
    /^Benchmark/ {
      name=$1; sub(/-[0-9]+$/, "", name)
      ns=""; bytes=""; allocs=""
      for (i=2; i<=NF; i++) {
        if ($(i)=="ns/op")     ns=$(i-1)
        if ($(i)=="B/op")      bytes=$(i-1)
        if ($(i)=="allocs/op") allocs=$(i-1)
      }
      if (!(name in runs)) order[++names] = name
      k = ++runs[name]
      v[name, k] = ns + 0; iters[name, k] = $2
      b[name] = bytes; a[name] = allocs
    }
    END {
      for (o = 1; o <= names; o++) {
        name = order[o]; n = runs[name]
        # insertion sort of the runs by ns/op, iterations carried along
        for (i = 2; i <= n; i++)
          for (j = i; j > 1 && v[name, j-1] > v[name, j]; j--) {
            t = v[name, j]; v[name, j] = v[name, j-1]; v[name, j-1] = t
            t = iters[name, j]; iters[name, j] = iters[name, j-1]; iters[name, j-1] = t
          }
        m = int((n + 1) / 2)
        if (o > 1) printf ",\n"
        printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters[name, m], v[name, m]
        if (n > 1) printf ", \"runs\": %d, \"ns_per_op_min\": %s, \"ns_per_op_max\": %s", n, v[name, 1], v[name, n]
        if (b[name] != "") printf ", \"bytes_per_op\": %s", b[name]
        if (a[name] != "") printf ", \"allocs_per_op\": %s", a[name]
        printf "}"
      }
      printf "\n"
    }
  '
  printf '  ]\n'
  printf '}\n'
} > "$out"

echo "benchmark results written to $out"

if [[ -z "$prev" ]]; then
  echo "no earlier BENCH_*.json — skipping regression check"
  exit 0
fi

echo "inference regression check against $prev (threshold: +15% ns/op):"
awk -v thresh=1.15 '
  /"name"/ {
    name=$0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
    ns=$0;   sub(/.*"ns_per_op": /, "", ns); sub(/[^0-9].*/, "", ns)
    if (name !~ /Inference|Engine/ || ns == "") next
    if (FNR == NR) { old[name] = ns; next }
    if (!(name in old) || old[name] <= 0) {
      printf "  %-36s %12d ns/op  (new benchmark, no baseline)\n", name, ns
      next
    }
    ratio = ns / old[name]
    mark = (ratio > thresh) ? "  << REGRESSION" : ""
    printf "  %-36s %12d -> %12d ns/op  (%.2fx)%s\n", name, old[name], ns, ratio, mark
    if (ratio > thresh) bad = 1
  }
  END { exit bad }
' "$prev" "$out" || {
  echo "bench.sh: inference benchmark regressed >15% vs $prev" >&2
  exit 1
}
echo "no inference regression"
