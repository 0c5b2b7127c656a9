// Command noisetable prints the set-to-set agreement table of bench/noise.sh:
// it reads the result lines of two sets of runs of the same code and reports,
// per workload and end-to-end metric, each set's median and inter-quartile
// range and how much worse set B is than set A — with the quartile estimator
// the benchmark contract itself uses. Below the table it prints, per metric,
// the bound the issue's rule gives: the larger of the starting value and
// twice the largest set-to-set difference on any workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/bench/benchkit"
)

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

type resultLine struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	dir := flag.String("dir", "out/noise", "directory of <set>-<workload>-<seed>.json result lines")
	spec := flag.String("benchmark", "../BENCHMARK.json", "the benchmark definition (bounds and directions)")
	flag.Parse()
	if err := table(*dir, *spec); err != nil {
		fmt.Fprintln(os.Stderr, "noisetable:", err)
		os.Exit(1)
	}
}

func table(dir, spec string) error {
	raw, err := os.ReadFile(spec)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return err
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	// values[set][workload][metric] in file-name order.
	values := map[string]map[string]map[string][]float64{}
	sort.Strings(files)
	for _, f := range files {
		parts := strings.SplitN(strings.TrimSuffix(filepath.Base(f), ".json"), "-", 3)
		if len(parts) != 3 {
			continue
		}
		set, workload := parts[0], parts[1]
		raw, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var line resultLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		if !line.Correct {
			return fmt.Errorf("%s: the run did not verify", f)
		}
		if values[set] == nil {
			values[set] = map[string]map[string][]float64{}
		}
		if values[set][workload] == nil {
			values[set][workload] = map[string][]float64{}
		}
		for name, m := range line.Metrics {
			values[set][workload][name] = append(values[set][workload][name], m.Value)
		}
	}
	fmt.Println("| workload | metric | median A | IQR A | median B | IQR B | B worse by | spread of all runs | bound | ok |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	failed := 0
	largestDiff, largestSpread := map[string]float64{}, map[string]float64{}
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			a, b := values["A"][w.Name][m.Name], values["B"][w.Name][m.Name]
			if len(a) < 2 || len(b) < 2 {
				return fmt.Errorf("%s/%s: need at least two runs per set, have %d and %d", w.Name, m.Name, len(a), len(b))
			}
			a1, a2, a3 := benchkit.Quartiles(a)
			b1, b2, b3 := benchkit.Quartiles(b)
			all1, all2, all3 := benchkit.Quartiles(append(append([]float64(nil), a...), b...))
			spread := (all3 - all1) / all2
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			largestDiff[m.Name] = math.Max(largestDiff[m.Name], math.Abs(worse))
			largestSpread[m.Name] = math.Max(largestSpread[m.Name], spread)
			// A bound has to cover twice the difference between two sets of
			// identical code, and the spread of one set of runs (set-up time,
			// which the driver exempts from the spread rule, excepted).
			ok := "yes"
			if 2*math.Abs(worse) > m.Bound || (m.Name != "setup_s" && spread > m.Bound) {
				ok = "NO"
				failed++
			}
			fmt.Printf("| %s | %s (%s) | %.4g | %.1f %% | %.4g | %.1f %% | %+.1f %% | %.1f %% | %.0f %% | %s |\n",
				w.Name, m.Name, m.Unit, a2, 100*(a3-a1)/a2, b2, 100*(b3-b1)/b2, 100*worse, 100*spread, 100*m.Bound, ok)
		}
	}
	fmt.Println()
	fmt.Println("| metric | starting bound | largest set-to-set difference | bound by the rule | largest spread | bound in BENCHMARK.json |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, m := range bf.EndToEnd {
		fmt.Printf("| %s | %.0f %% | %.1f %% | %.1f %% | %.1f %% | %.0f %% |\n",
			m.Name, 100*benchkit.StartingBounds[m.Name], 100*largestDiff[m.Name],
			100*benchkit.RuleBound(m.Name, largestDiff[m.Name]), 100*largestSpread[m.Name], 100*m.Bound)
	}
	if failed > 0 {
		return fmt.Errorf("%d (workload, metric) pairs are noisier than their bound allows", failed)
	}
	return nil
}
