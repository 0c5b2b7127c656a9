// Command occubench is the repo benchmark: one process runs one workload,
// checks its outputs, and prints every metric by name with its unit. The
// last line of standard output is the result object BENCHMARK.json's
// contract asks for. See bench/README.md for what each workload and metric
// means and which layer should move which number.
//
// Usage (from the repository root):
//
//	go run -C bench ./occubench -workload live_20hz -seed 1 -seconds 25 -trace 0
//
// -trace 1 runs the traced per-layer pass instead of the end-to-end one:
// a short untraced and a short traced phase of the workload (their
// difference is the tracing overhead), the obs counter deltas, and the
// layer probes. End-to-end metrics always come from -trace 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/bench/benchkit"
	"repro/pkg/occupancy"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's vocabulary; a golden test holds them equal to BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_us_per_frame", "us"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"occupancy.client_encode_us_per_frame", "us"},
	{"occupancy.ingest_rtt_b1_ms", "ms"},
	{"occupancy.ingest_rtt_b256_ms", "ms"},
	{"occupancy.stream_next_us", "us"},
	{"occupancy.ingest_retries", "count"},
	{"occupancy.server_boot_ms", "ms"},
	{"server.ingest_handler_b1_us", "us"},
	{"server.ingest_handler_b256_us_per_frame", "us"},
	{"server.decode_us_per_frame", "us"},
	{"server.event_encode_us", "us"},
	{"server.queue_full_rejected", "count"},
	{"server.events_dropped", "count"},
	{"server.goroutines_per_feed", "count"},
	{"server.rss_kb_per_idle_feed", "KB"},
	{"server.single_feed_frames_per_s", "1/s"},
	{"framelog.append_b1_us", "us"},
	{"framelog.append_b256_us_per_frame", "us"},
	{"framelog.sync_us", "us"},
	{"framelog.open_scan_us_per_frame", "us"},
	{"framelog.replay_us_per_frame", "us"},
	{"framelog.appends", "count"},
	{"framelog.fsyncs", "count"},
	{"stream.process_self_us", "us"},
	{"stream.run_hop_us", "us"},
	{"core.feature_scale_us", "us"},
	{"core.engine_predict_c1_us", "us"},
	{"core.engine_predict_c16_us_per_row", "us"},
	{"core.engine_predict_c64_us_per_row", "us"},
	{"infer.batch_size_mean", "rows"},
	{"infer.fast_path_share", "ratio"},
	{"infer.singleton_wait_us", "us"},
	{"infer.registry_resolve_ns", "ns"},
	{"nn.f64_row_us", "us"},
	{"nn.f32_row_us", "us"},
	{"nn.i8_row_us", "us"},
	{"nn.f64_b256_us_per_row", "us"},
	{"nn.f32_b256_us_per_row", "us"},
	{"nn.i8_b256_us_per_row", "us"},
	{"nn.f32_b16_us_per_row", "us"},
	{"nn.fit_epoch_ms", "ms"},
	{"nn.fit_allocs_per_batch", "count"},
	{"nn.flops_per_row", "count"},
	{"nn.weight_bytes_f32", "bytes"},
	{"tensor.matmul_f64_gflops", "gflop/s"},
	{"tensor.matmul_atb_f64_gflops", "gflop/s"},
	{"tensor.matmul_abt_f64_gflops", "gflop/s"},
	{"tensor.matmul_f32_gflops", "gflop/s"},
	{"dataset.generate_us_per_record", "us"},
	{"drift.observe_ns", "ns"},
	{"obs.counter_inc_ns", "ns"},
	{"obs.histogram_observe_ns", "ns"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"gen.late_max_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.live_unattributed_ms", "ms"},
}

// workload is one traffic shape. setup builds everything the measured part
// needs (timed as setup_s) and teardown releases it; measure runs warm-up
// plus `window` of measured work, recording spans into rec when non-nil.
type workload interface {
	setup(env *environment) error
	teardown()
	measure(window time.Duration, rec *benchkit.Recorder) (*result, error)
}

// result is what one measured phase yields.
type result struct {
	ops, failed int64
	// The four workload-defined end-to-end figures (see bench/README.md).
	throughput, p50ms, tailms, cpuUS float64
	// primary is the figure trace.overhead_pct compares between the
	// untraced and the traced phase, lower is better.
	primary float64
	// notes are human-readable facts about the sample (counts per
	// percentile, repetitions, lateness) printed with the metrics.
	notes []string
	// layer holds the per-layer values only the workload itself can
	// observe (obs counter deltas, allocation counts, generator lateness).
	layer map[string]float64
	// na names the per-layer metrics this workload has no source for.
	na []string
}

var workloads = map[string]func() workload{
	"live_20hz":        func() workload { return &liveWorkload{} },
	"bulk_backfill":    func() workload { return &bulkWorkload{} },
	"restart_recovery": func() workload { return &recoveryWorkload{} },
	"train_offline":    func() workload { return &trainWorkload{} },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var (
		name    = flag.String("workload", "", fmt.Sprintf("one of %v", workloadNames()))
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same frames and the same model")
		seconds = flag.Float64("seconds", 25, "measured window per run, in seconds")
		trace   = flag.Int("trace", 0, "1: traced per-layer pass; 0: end-to-end pass")
		smoke   = flag.Bool("smoke", false, "shrink fixed work so a short -seconds still finishes (harness self-test)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "occubench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced, smoke bool) error {
	start := time.Now()
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want one of %v)", name, workloadNames())
	}
	if seconds <= 0 || seconds > 600 {
		return fmt.Errorf("-seconds %g out of range", seconds)
	}
	// Every number below is kernel-specific; a forced kernel the CPU
	// cannot run would silently measure the generic fallback.
	if err := occupancy.KernelError(); err != nil {
		return fmt.Errorf("kernel selection failed, refusing to measure: %w", err)
	}
	env, err := newEnvironment(name, seed, seconds, traced, smoke)
	if err != nil {
		return err
	}
	defer env.cleanup()
	env.print()

	window := time.Duration(seconds * float64(time.Second))
	w := mk()
	var out map[string]float64
	var res *result
	if traced {
		res, out, err = tracedPass(env, w, window)
	} else {
		res, out, err = endToEndPass(env, w, window, start)
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, n := range res.notes {
		fmt.Println("note:", n)
	}
	fmt.Printf("ops_attempted %d\nops_failed %d\n", res.ops, res.failed)
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := out[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (value %v)", d.name, v)
		}
		if slices.Contains(res.na, d.name) {
			fmt.Printf("%-42s %14s (no source in this workload)\n", d.name, "n/a")
		} else {
			fmt.Printf("%-42s %14.4f %s\n", d.name, v, d.unit)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	attempted := res.ops
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.failed != 0 {
		return fmt.Errorf("%d of %d operations failed verification", res.failed, res.ops)
	}
	return nil
}

// clockTicksPerSecond is USER_HZ, the unit of /proc/stat; it is 100 on every
// Linux the Go runtime supports.
const clockTicksPerSecond = 100

// endToEndPass sets up once — setup_s is process start to the start of
// warm-up — and runs one untraced measured phase.
func endToEndPass(env *environment, w workload, window time.Duration, start time.Time) (*result, map[string]float64, error) {
	if err := w.setup(env); err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.teardown()
	setup := time.Since(start).Seconds()
	host0, hostOK := benchkit.ReadHostCPU()
	cpu0 := benchkit.CPUTime()
	res, err := w.measure(window, nil)
	if err != nil {
		return nil, nil, err
	}
	// How disturbed the run was, for the reader: figures are printed as
	// measured whatever this says.
	if host1, ok := benchkit.ReadHostCPU(); ok && hostOK && host1.Total > host0.Total {
		own := (benchkit.CPUTime() - cpu0).Seconds() * clockTicksPerSecond
		total := host1.Total - host0.Total
		res.notes = append(res.notes, fmt.Sprintf("host: of the VM's CPU time during warm-up, window and verification the hypervisor withheld %.1f %% (steal) and other processes used %.1f %%",
			100*(host1.Steal-host0.Steal)/total, 100*math.Max(0, host1.Busy-host0.Busy-own)/total))
	}
	out := map[string]float64{
		"setup_s":          setup,
		"throughput_per_s": res.throughput,
		"latency_p50_ms":   res.p50ms,
		"latency_tail_ms":  res.tailms,
		"cpu_us_per_frame": res.cpuUS,
		"peak_rss_mb":      float64(benchkit.PeakRSSKB()) / 1024,
	}
	return res, out, nil
}

// tracedPass is the per-layer pass: set up once, run a quarter-window
// untraced phase and a quarter-window traced phase (spans kept in memory
// and written out afterwards), then run the layer probes.
func tracedPass(env *environment, w workload, window time.Duration) (*result, map[string]float64, error) {
	if err := w.setup(env); err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	phase := window / 4
	plain, err := w.measure(phase, nil)
	if err != nil {
		w.teardown()
		return nil, nil, err
	}
	rec := benchkit.NewRecorder()
	res, err := w.measure(phase, rec)
	w.teardown()
	if err != nil {
		return nil, nil, err
	}
	res.ops += plain.ops
	res.failed += plain.failed

	path, err := env.outFile("trace-" + env.workload + ".json")
	if err != nil {
		return nil, nil, err
	}
	if err := rec.WriteJSON(path); err != nil {
		return nil, nil, err
	}
	spans := rec.Spans()
	res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s", len(spans), path))
	for _, s := range benchkit.Summarize(spans) {
		res.notes = append(res.notes, fmt.Sprintf("span %-18s n=%-6d p50 %.4f ms  self p50 %.4f ms", s.Name, s.Count, s.P50Ms, s.SelfP50Ms))
	}

	probesFrom := time.Now()
	out, err := runProbes(env)
	if err != nil {
		return nil, nil, fmt.Errorf("layer probes: %w", err)
	}
	res.notes = append(res.notes, fmt.Sprintf("layer probes took %.1f s", time.Since(probesFrom).Seconds()))
	for k, v := range res.layer {
		out[k] = v
	}
	res.na = notApplicable(res.layer)
	out["trace.overhead_pct"] = 100 * (res.primary - plain.primary) / plain.primary
	out["infer.singleton_wait_us"] = out["core.engine_predict_c1_us"] - out["nn.f32_row_us"] - out["core.feature_scale_us"]
	// What the harness-side spans cannot see of a live frame's latency:
	// p50 minus the blocking steps measured in isolation. ROADMAP item 4's
	// in-program stage clocks are meant to close this gap.
	if env.workload == "live_20hz" {
		out["trace.live_unattributed_ms"] = res.p50ms - out["occupancy.ingest_rtt_b1_ms"] -
			(out["core.engine_predict_c1_us"]+out["server.event_encode_us"]+out["occupancy.stream_next_us"])/1000
	} else {
		res.na = append(res.na, "trace.live_unattributed_ms")
	}
	for _, k := range res.na {
		out[k] = 0
	}
	return res, out, nil
}

// memSnap holds the allocator counters the go.* per-layer metrics need.
type memSnap struct {
	mallocs, bytes, pauseNs uint64
	gcs                     uint32
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{mallocs: m.Mallocs, bytes: m.TotalAlloc, pauseNs: m.PauseTotalNs, gcs: m.NumGC}
}

// goLayer turns two allocator snapshots into the go.* metrics.
func goLayer(layer map[string]float64, before, after memSnap, ops int64) {
	if ops < 1 {
		ops = 1
	}
	layer["go.allocs_per_op"] = float64(after.mallocs-before.mallocs) / float64(ops)
	layer["go.alloc_bytes_per_op"] = float64(after.bytes-before.bytes) / float64(ops)
	layer["go.gc_cycles"] = float64(after.gcs - before.gcs)
	layer["go.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
}
