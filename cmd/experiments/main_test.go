package main

import (
	"encoding/json"
	"flag"
	"hash/fnv"
	"io"
	"os"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// timing matches the wall-clock figures main prints ("records in 0.1s",
// "computed in 0.6s"), the only run-to-run variation in its output.
var timing = regexp.MustCompile(`(records|computed) in [0-9.]+s`)

// TestTable4Golden pins what `experiments -quick -only table4` prints: an
// FNV-1a hash of main's stdout with the timing figures blanked — trace
// generation, the fold split, LogReg/RF/MLP training and scoring over every
// feature set and fold, and the table rendering, the same under either
// OCCU_KERNEL setting and for any -workers value. A change that moves an
// accuracy figure moves it on purpose; say so where it lands.
func TestTable4Golden(t *testing.T) {
	stdout, args := os.Stdout, os.Args
	defer func() { os.Stdout, os.Args = stdout, args }()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	os.Stdout = w
	os.Args = []string{"experiments", "-quick", "-only", "table4"}
	flag.CommandLine = flag.NewFlagSet("experiments", flag.ExitOnError)
	main()
	w.Close()
	out := timing.ReplaceAll(<-done, []byte("$1 in Xs"))
	h := fnv.New64a()
	h.Write(out)
	const want = 0xdb926ee9bdc3af17
	if h.Sum64() != want {
		t.Fatalf("stdout hashes to %#016x, want %#016x:\n%s", h.Sum64(), uint64(want), out)
	}
}

// TestResultsJSONRoundtrip ensures the -json export marshals cleanly,
// including the FeatureSet-keyed Table IV maps (which rely on the
// TextMarshaler implementation) and omits absent sections.
func TestResultsJSONRoundtrip(t *testing.T) {
	res := &resultsJSON{
		Seed:    7,
		RateHz:  0.5,
		Records: 100,
		Table4: &core.Table4Result{
			Acc: [][]map[dataset.FeatureSet]float64{
				{{dataset.FeatCSI: 99.5}, {dataset.FeatEnv: 88}, {dataset.FeatCSIEnv: 77}},
			},
			Avg: []map[dataset.FeatureSet]float64{{dataset.FeatCSI: 99.5}},
		},
		TimeOnly: &core.TimeOnlyResult{PerFold: []float64{90}, Avg: 90},
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"seed":7`, `"CSI":99.5`, `"C+E":77`, `"time_only"`} {
		if !contains(s, want) {
			t.Fatalf("JSON missing %q:\n%s", want, s)
		}
	}
	for _, absent := range []string{"table5", "figure3", "counting"} {
		if contains(s, `"`+absent+`"`) {
			t.Fatalf("omitempty failed for %s", absent)
		}
	}
	var back resultsJSON
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Table4.Avg[0][dataset.FeatCSI] != 99.5 {
		t.Fatal("feature-set map key did not roundtrip")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
