package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/bench/benchkit"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestMetricNamesMatchBenchmarkJSON is the golden test of the printed
// vocabulary: workload names, metric names and units are exactly the ones
// BENCHMARK.json declares, in the same order.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: %d in BENCHMARK.json, %d printed", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
				i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound < benchkit.StartingBounds[m.Name] || m.Bound > benchkit.MaxBound {
			t.Errorf("%s: bound %v outside [starting bound %v, %v]", m.Name, m.Bound, benchkit.StartingBounds[m.Name], benchkit.MaxBound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: %d in BENCHMARK.json, %d printed", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
				i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmoke drives every workload end to end at -smoke size: set-up, warm-up,
// three measured seconds, verification against the local replay, teardown.
// Timings taken while four workloads share the machine mean nothing; the
// test is about the harness running and the outputs verifying.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads for three seconds each")
	}
	for _, name := range workloadNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := run(name, 7, 3, false, true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSmokeTraced runs the per-layer pass once, so every per_layer metric is
// known to be produced and the span file to be written.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traced pass and every layer probe")
	}
	if err := run("bulk_backfill", 7, 3, true, true); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat("../out/trace-bulk_backfill.json"); err != nil {
		t.Errorf("span file: %v", err)
	}
}
