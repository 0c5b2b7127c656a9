package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// timing matches every wall-clock figure main prints ("records in 0.1s",
// "computed in 0.6s", "implemented here; 0.7s)", "inference: 1.2µs/sample"
// and an ablation table's Train time column), the only run-to-run variation
// in its output. runMain keeps the prefix and writes the figure as "Xs".
var timing = regexp.MustCompile(`(?m)((?:records|computed) in |; |inference: |  )[0-9][0-9.hm]*[µnm]?s(\)|/sample|$)`)

// runMain runs main with args and returns its stdout, timing blanked.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	stdout, osArgs := os.Stdout, os.Args
	defer func() { os.Stdout, os.Args = stdout, osArgs }()
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
	os.Args = append([]string{"experiments"}, args...)
	flag.CommandLine = flag.NewFlagSet("experiments", flag.ExitOnError)
	main()
	w.Close()
	return timing.ReplaceAll(<-done, []byte("${1}Xs$2"))
}

// TestTable4Golden pins what `experiments -quick -only <section>` prints for
// every section: an FNV-1a hash of main's stdout with the timing figures
// blanked — trace generation, the fold split, every model's training and
// scoring, and the table rendering, the same under either OCCU_KERNEL
// setting and for any -workers value. A change that moves a figure moves it
// on purpose; say so where it lands.
func TestTable4Golden(t *testing.T) {
	for _, tc := range []struct {
		only string
		want uint64
	}{
		{"table1", 0x4aa8db9fbbd17072},
		{"table2", 0xd2eaf62e799b043c},
		{"table3", 0x26d89511211a9fac},
		{"table4", 0x2219fb917eab0764},
		{"table5", 0xd76bbe9b7e309f83},
		{"profile", 0x089161d819d98239},
		{"figure3", 0xc3e6c68ebba9c0e1},
		{"timeonly", 0x23f2481bfd386b56},
		{"footprint", 0xf3a51fb66e4083eb},
		{"activity", 0x61d2e4d0982687f0},
		{"counting", 0x6f0e20a1afabf73d},
		{"robustness", 0x15f45747f10c406f},
	} {
		t.Run(tc.only, func(t *testing.T) {
			out := runMain(t, "-quick", "-only", tc.only)
			h := fnv.New64a()
			h.Write(out)
			if h.Sum64() != tc.want {
				t.Errorf("stdout hashes to %#016x, want %#016x:\n%s", h.Sum64(), tc.want, out)
			}
		})
	}
}

// TestAblationGolden pins every design sweep's table at -rate 0.02 -train
// 1200 -eval 300: an FNV-1a hash of the "ABLATION —" block of main's stdout
// (title, header and rows, the blank line after it included) with the Train
// time column blanked — the same under either OCCU_KERNEL setting and for
// any -workers value.
func TestAblationGolden(t *testing.T) {
	for _, tc := range []struct {
		dim  string
		want uint64
	}{
		{"arch", 0xdd07c4a88c8c04c9},
		{"std", 0xa52673a3bbfe2d5c},
		{"size", 0xb7ce0b3f4a7c1005},
		{"epochs", 0xff65de320f8935ea},
		{"family", 0xd67108bb5acb5721},
		{"preproc", 0xa4255a52bf85f916},
	} {
		t.Run(tc.dim, func(t *testing.T) {
			out := runMain(t, "-rate", "0.02", "-train", "1200", "-eval", "300", "-only", "ablate-"+tc.dim)
			i := bytes.Index(out, []byte("ABLATION —"))
			if i < 0 {
				t.Fatalf("no ablation table in:\n%s", out)
			}
			block := out[i:]
			block = block[:bytes.Index(block, []byte("\n\n"))+2]
			h := fnv.New64a()
			h.Write(block)
			if h.Sum64() != tc.want {
				t.Errorf("ablation block hashes to %#016x, want %#016x:\n%s", h.Sum64(), tc.want, block)
			}
		})
	}
}

// TestUnknownSectionRejected: a misspelt -only name exits with status 2 and
// the list of valid names, before generating the trace.
func TestUnknownSectionRejected(t *testing.T) {
	if os.Getenv("EXPERIMENTS_RUN_MAIN") == "1" {
		os.Args = []string{"experiments", "-quick", "-only", "tabel4"}
		flag.CommandLine = flag.NewFlagSet("experiments", flag.ExitOnError)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownSectionRejected$")
	cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("experiments -only tabel4: %v, want exit status 2\nstdout:\n%s", err, stdout.String())
	}
	for _, want := range []string{`"tabel4"`, "table4", "robustness", "ablate-preproc"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q does not name %s", stderr.String(), want)
		}
	}
	if strings.Contains(stdout.String(), "Generating") {
		t.Errorf("generated the trace before rejecting the name:\n%s", stdout.String())
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
