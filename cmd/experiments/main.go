// Command experiments regenerates every table and figure of the paper's
// evaluation section on a synthetic 74-hour trace:
//
//	Table I   — dataset format (first records)
//	Table II  — occupancy distribution
//	Table III — train/test folds with sample counts and T/H ranges
//	Table IV  — occupancy accuracy: LogReg / RF / MLP × CSI / Env / C+E × 5 folds
//	Table V   — temperature & humidity regression from CSI: OLS vs MLP
//	Figure 3  — Grad-CAM feature importance over the 66 C+E inputs
//	§V-A      — Pearson correlations and ADF stationarity
//	§V-B      — time-of-day-only ablation
//	§IV-B     — model footprint and inference latency
//
// plus the extensions: activity recognition (the paper's §VI future work,
// with the windowed front-end comparison), occupant counting and the
// fault-intensity robustness sweep. The design sweeps behind the detector
// (core.AblationDims: topology, standardisation, training-set size, epochs,
// model family, preprocessing) run only when named: -only ablate runs all
// six, -only ablate-<dim> one.
//
// Usage:
//
//	experiments [-rate hz] [-seed n] [-train n] [-eval n] [-only name]
//	            [-quick] [-json results.json] [-workers n]
//
// -quick shrinks everything for a fast smoke run; -json additionally dumps
// every computed result for downstream plotting. An unknown -only name
// exits with status 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/report"
)

func main() {
	var (
		rate    = flag.Float64("rate", 0.5, "sampling rate in Hz for the 74 h trace (paper hardware: 20)")
		seed    = flag.Int64("seed", 1, "master random seed")
		train   = flag.Int("train", 40000, "max training samples after thinning (0 = all)")
		eval    = flag.Int("eval", 8000, "max evaluation samples per fold (0 = all)")
		only    = flag.String("only", "", "run a single section: "+strings.Join(sections(), ", "))
		quick   = flag.Bool("quick", false, "small fast run (low rate, few samples, small models)")
		jsonOut = flag.String("json", "", "also write all computed results to this JSON file")
		workers = flag.Int("workers", 0, "worker goroutines for the experiment grids (0 = GOMAXPROCS); results are identical for any value")
	)
	flag.Parse()
	if *only != "" && !slices.ContainsFunc(sections(), func(s string) bool { return strings.EqualFold(s, *only) }) {
		fmt.Fprintf(os.Stderr, "experiments: unknown -only %q; valid: %s\n", *only, strings.Join(sections(), ", "))
		os.Exit(2)
	}

	ecfg := core.DefaultExperimentConfig()
	ecfg.Seed = *seed
	ecfg.MaxTrainSamples = *train
	ecfg.MaxEvalSamples = *eval
	ecfg.Workers = *workers
	if *quick {
		*rate = 1.0 / 30
		ecfg.MaxTrainSamples = 3000
		ecfg.MaxEvalSamples = 800
		ecfg.Hidden = []int{64, 32}
		ecfg.NNTrain.Epochs = 8
		ecfg.RF.NumTrees = 12
		ecfg.RF.MaxDepth = 14
	}

	want := func(name string) bool {
		if *only == "" {
			return !strings.HasPrefix(name, "ablate")
		}
		return strings.EqualFold(*only, name)
	}

	fmt.Printf("Generating %v trace at %.3g Hz (seed %d)...\n", dataset.PaperDuration, *rate, *seed)
	t0 := time.Now()
	d, err := dataset.Generate(dataset.DefaultGenConfig(*rate, *seed))
	check(err)
	fmt.Printf("  %d records in %.1fs\n\n", d.Len(), time.Since(t0).Seconds())

	split, err := d.PaperSplit()
	check(err)

	results := &resultsJSON{Seed: *seed, RateHz: *rate, Records: d.Len()}
	if want("table1") {
		printTable1(d)
	}
	if want("table2") {
		printTable2(d)
		p := d.Profile()
		results.Table2 = &p
	}
	if want("table3") {
		printTable3(split)
		results.Table3 = split.TableIII()
	}
	if want("profile") {
		results.Profile = printProfile(d)
	}
	if want("table4") {
		results.Table4 = runAndPrintTable4(split, ecfg)
	}
	if want("table5") {
		results.Table5 = runAndPrintTable5(split, ecfg)
	}
	if want("figure3") {
		results.Figure3 = runAndPrintFigure3(split, ecfg)
	}
	if want("timeonly") {
		results.TimeOnly = runAndPrintTimeOnly(split, ecfg)
	}
	if want("footprint") {
		results.Footprint = runAndPrintFootprint(split, ecfg)
	}
	if want("activity") {
		results.Activity, results.WindowedActivity = runAndPrintActivity(split, ecfg)
	}
	if want("counting") {
		results.Counting = runAndPrintCounting(split, ecfg)
	}
	if want("robustness") {
		results.Robustness = runAndPrintRobustness(split, ecfg)
	}
	var dims []string
	for _, dim := range core.AblationDims {
		if want("ablate") || want("ablate-"+dim) {
			dims = append(dims, dim)
		}
	}
	if len(dims) > 0 {
		results.Ablations = runAndPrintAblations(split, ecfg, dims)
	}
	if *jsonOut != "" {
		writeJSON(*jsonOut, results)
	}
}

// sections lists the -only names in run order. The ablate ones run only
// when named.
func sections() []string {
	names := []string{"table1", "table2", "table3", "profile", "table4", "table5", "figure3",
		"timeonly", "footprint", "activity", "counting", "robustness", "ablate"}
	for _, dim := range core.AblationDims {
		names = append(names, "ablate-"+dim)
	}
	return names
}

// resultsJSON aggregates every computed artefact for the -json export.
type resultsJSON struct {
	Seed             int64                        `json:"seed"`
	RateHz           float64                      `json:"rate_hz"`
	Records          int                          `json:"records"`
	Table2           *dataset.Profile             `json:"table2,omitempty"`
	Table3           []dataset.FoldStats          `json:"table3,omitempty"`
	Profile          *core.ProfileResult          `json:"profile,omitempty"`
	Table4           *core.Table4Result           `json:"table4,omitempty"`
	Table5           *core.Table5Result           `json:"table5,omitempty"`
	Figure3          *core.Figure3Result          `json:"figure3,omitempty"`
	TimeOnly         *core.TimeOnlyResult         `json:"time_only,omitempty"`
	Footprint        *core.FootprintResult        `json:"footprint,omitempty"`
	Activity         *core.ActivityResult         `json:"activity,omitempty"`
	WindowedActivity *core.WindowedActivityResult `json:"windowed_activity,omitempty"`
	Counting         *core.CountingResult         `json:"counting,omitempty"`
	Robustness       *core.RobustnessResult       `json:"robustness,omitempty"`
	Ablations        []*core.AblationResult       `json:"ablations,omitempty"`
}

func writeJSON(path string, v interface{}) {
	f, err := os.Create(path)
	check(err)
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	check(enc.Encode(v))
	check(f.Close())
	fmt.Printf("results written to %s\n", path)
}

func runAndPrintActivity(split *dataset.Split, ecfg core.ExperimentConfig) (*core.ActivityResult, *core.WindowedActivityResult) {
	t0 := time.Now()
	res, w, err := core.RunActivity(split, ecfg)
	check(err)
	t := report.New("EXTENSION — activity recognition (empty / static / motion) from CSI, accuracy (%)",
		"Fold", "MLP", "RF")
	for i := range res.MLPPerFold {
		t.AddRowStrings(fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%.0f", res.MLPPerFold[i]), fmt.Sprintf("%.0f", res.RFPerFold[i]))
	}
	t.AddRowStrings("Avg.", fmt.Sprintf("%.0f", res.MLPAvg), fmt.Sprintf("%.0f", res.RFAvg))
	fmt.Println(t)
	fmt.Printf("  MLP pooled accuracy %.1f%%, per-class recall empty/static/motion = %.2f/%.2f/%.2f\n",
		100*res.Pooled.Accuracy, res.Pooled.Recall[0], res.Pooled.Recall[1], res.Pooled.Recall[2])
	fmt.Printf("  (paper §VI future work, implemented here; %.1fs)\n\n", time.Since(t0).Seconds())

	// Windowed front-end comparison (1 s of samples at the trace rate).
	fmt.Printf("  windowed front-end (N=%d): avg %.0f%% → %.0f%%, motion recall %.2f → %.2f\n\n",
		w.WindowN, w.SnapshotAvg, w.WindowedAvg, w.SnapshotMotionRec, w.WindowedMotionRec)
	return res, w
}

func runAndPrintCounting(split *dataset.Split, ecfg core.ExperimentConfig) *core.CountingResult {
	t0 := time.Now()
	res, err := core.RunCounting(split, ecfg)
	check(err)
	t := report.New("EXTENSION — occupant counting (0..4+, from CSI)",
		"Fold", "MLP exact %", "MLP MAE", "RF exact %", "RF MAE")
	for i := range res.MLPExact {
		t.AddRowStrings(fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%.0f", res.MLPExact[i]), fmt.Sprintf("%.2f", res.MLPMAE[i]),
			fmt.Sprintf("%.0f", res.RFExact[i]), fmt.Sprintf("%.2f", res.RFMAE[i]))
	}
	t.AddRowStrings("Avg.",
		fmt.Sprintf("%.0f", res.MLPExactAvg), fmt.Sprintf("%.2f", res.MLPMAEAvg),
		fmt.Sprintf("%.0f", res.RFExactAvg), fmt.Sprintf("%.2f", res.RFMAEAvg))
	fmt.Println(t)
	fmt.Printf("  (crowd-counting task of the paper's refs [3],[12],[13] on this substrate; %.1fs)\n\n",
		time.Since(t0).Seconds())
	return res
}

func runAndPrintRobustness(split *dataset.Split, ecfg core.ExperimentConfig) *core.RobustnessResult {
	t0 := time.Now()
	res, err := core.RunRobustness(split, ecfg)
	check(err)
	t := report.New("ROBUSTNESS — accuracy (%) vs fault intensity (bursty loss + AGC + nulls + env outage)",
		"Intensity", "Drop %", "CSI-only avg", "Pipeline avg", "Fallback %", "Imputed %")
	for _, p := range res.Points {
		t.AddRowStrings(fmt.Sprintf("%.2f", p.Intensity),
			fmt.Sprintf("%.1f", 100*p.DropRate),
			fmt.Sprintf("%.1f", p.CSIAvg),
			fmt.Sprintf("%.1f", p.PipeAvg),
			fmt.Sprintf("%.0f", 100*p.FallbackFrac),
			fmt.Sprintf("%.0f", 100*p.ImputedFrac))
	}
	fmt.Println(t)
	fmt.Printf("(intensity 0 row reproduces the Table IV MLP columns bit-identically; %.1fs)\n\n",
		time.Since(t0).Seconds())
	return res
}

func runAndPrintAblations(split *dataset.Split, ecfg core.ExperimentConfig, dims []string) []*core.AblationResult {
	all, err := core.RunAblation(split, ecfg, dims...)
	check(err)
	for _, res := range all {
		t := report.New(fmt.Sprintf("ABLATION — %s (CSI occupancy, fold-average accuracy)", res.Dimension),
			"Config", "Avg acc %", "Per fold", "Params", "Train time")
		for _, p := range res.Points {
			t.AddRowStrings(p.Name,
				fmt.Sprintf("%.1f", p.Acc),
				strings.Trim(fmtFolds(p.PerFold), "[]"),
				fmt.Sprintf("%d", p.Params),
				p.TrainTime.Round(time.Millisecond).String())
		}
		fmt.Println(t)
	}
	return all
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func printTable1(d *dataset.Dataset) {
	t := report.New("TABLE I — format of the collected data (first 4 records)",
		"Timestamp", "a0", "a1", "...", "a63", "Temperature", "Humidity", "Occupancy")
	n := 4
	if d.Len() < n {
		n = d.Len()
	}
	for i := 0; i < n; i++ {
		r := &d.Records[i]
		t.AddRowStrings(
			r.Time.Format("15:04:05.000"),
			fmt.Sprintf("%.3f", r.CSI[0]),
			fmt.Sprintf("%.3f", r.CSI[1]),
			"...",
			fmt.Sprintf("%.3f", r.CSI[63]),
			fmt.Sprintf("%.2f", r.Temp),
			fmt.Sprintf("%.0f", r.Humidity),
			fmt.Sprintf("%d", r.Label()),
		)
	}
	fmt.Println(t)
}

func printTable2(d *dataset.Dataset) {
	p := d.Profile()
	t := report.New("TABLE II — simultaneous subjects' presence distribution",
		"Occupants", "Zero", "One", "Two", "Three", "Four", "Five", "Six")
	row := []string{"# Samples"}
	pct := []string{"(%)"}
	for c := 0; c <= 6; c++ {
		row = append(row, fmt.Sprintf("%d", p.ByCount[c]))
		pct = append(pct, fmt.Sprintf("%.1f%%", 100*float64(p.ByCount[c])/float64(max(p.Total, 1))))
	}
	t.AddRowStrings(row...)
	t.AddRowStrings(pct...)
	fmt.Println(t)
	fmt.Printf("Total %d samples: %d empty (%.1f%%), %d occupied (%.1f%%)\n\n",
		p.Total, p.Empty, 100*float64(p.Empty)/float64(max(p.Total, 1)),
		p.Occupied, 100*float64(p.Occupied)/float64(max(p.Total, 1)))
}

func printTable3(split *dataset.Split) {
	t := report.New("TABLE III — start/end, samples, min/max temperature and humidity per fold",
		"Fold", "Start", "End", "Empty", "Occupied", "T", "H")
	for _, r := range split.TableIII() {
		t.AddRowStrings(r.Name,
			r.Start.Format("02/01 15:04"), r.End.Format("02/01 15:04"),
			fmt.Sprintf("%d", r.Empty), fmt.Sprintf("%d", r.Occupied),
			fmt.Sprintf("%.2f/%.2f", r.TempMin, r.TempMax),
			fmt.Sprintf("%.0f/%.0f", r.HumMin, r.HumMax))
	}
	fmt.Println(t)
}

func printProfile(d *dataset.Dataset) *core.ProfileResult {
	res, err := core.RunProfile(d, 10000)
	check(err)
	fmt.Println("§V-A — data profiling")
	fmt.Printf("  Pearson ρ: T–H=%.2f  T–occupancy=%.2f  H–occupancy=%.2f  (paper: 0.45 / 0.44 / 0.35)\n",
		res.TempHum, res.TempOcc, res.HumOcc)
	fmt.Printf("  Pearson ρ: time–T=%.2f  time–H=%.2f  (paper: ~0.77 combined)\n", res.TimeTemp, res.TimeHum)
	fmt.Printf("  Max |ρ| subcarrier↔environment: %.2f  (paper: ~0.20–0.30)\n", res.SubcarrierEnvCorrMax)
	fmt.Printf("  ADF: temperature %v\n", res.ADFTemp)
	fmt.Printf("  ADF: humidity    %v\n", res.ADFHum)
	fmt.Printf("  ADF: CSI (a20)   %v\n", res.ADFCSI)
	fmt.Printf("  KPSS: T %v\n  KPSS: H %v\n  KPSS: CSI %v\n\n", res.KPSSTemp, res.KPSSHum, res.KPSSCSI)
	return res
}

func runAndPrintTable4(split *dataset.Split, ecfg core.ExperimentConfig) *core.Table4Result {
	t0 := time.Now()
	res, err := core.RunTable4(split, ecfg)
	check(err)
	t := report.New("TABLE IV — occupancy detection accuracy (%) over the 5 testing folds",
		"Fold",
		"LogReg CSI", "LogReg Env", "LogReg C+E",
		"RF CSI", "RF Env", "RF C+E",
		"MLP CSI", "MLP Env", "MLP C+E")
	addRow := func(name string, get func(m int, f dataset.FeatureSet) float64) {
		row := []string{name}
		for m := range core.Table4Models {
			for _, f := range core.Table4Features {
				row = append(row, fmt.Sprintf("%.0f", get(m, f)))
			}
		}
		t.AddRowStrings(row...)
	}
	for fi := range res.Acc {
		fi := fi
		addRow(fmt.Sprintf("%d", fi+1), func(m int, f dataset.FeatureSet) float64 { return res.Acc[fi][m][f] })
	}
	addRow("Avg.", func(m int, f dataset.FeatureSet) float64 { return res.Avg[m][f] })
	fmt.Println(t)
	fmt.Printf("(paper Avg.: LogReg 81/70/82, RF 97/95/97, MLP 97/90/91; computed in %.1fs)\n\n",
		time.Since(t0).Seconds())
	return res
}

func runAndPrintTable5(split *dataset.Split, ecfg core.ExperimentConfig) *core.Table5Result {
	t0 := time.Now()
	res, err := core.RunTable5(split, ecfg)
	check(err)
	t := report.New("TABLE V — MAE/MAPE of linear and neural regression on humidity (H) and temperature (T)",
		"Fold", "Lin MAE (T/H)", "Lin MAPE (T/H)", "NN MAE (T/H)", "NN MAPE (T/H)")
	for i := range res.Linear {
		l, n := res.Linear[i], res.Neural[i]
		t.AddRowStrings(fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%.2f/%.2f", l.MAET, l.MAEH),
			fmt.Sprintf("%.2f/%.2f", l.MAPET, l.MAPEH),
			fmt.Sprintf("%.2f/%.2f", n.MAET, n.MAEH),
			fmt.Sprintf("%.2f/%.2f", n.MAPET, n.MAPEH))
	}
	t.AddRowStrings("Avg.",
		fmt.Sprintf("%.2f/%.2f", res.AvgLin.MAET, res.AvgLin.MAEH),
		fmt.Sprintf("%.2f/%.2f", res.AvgLin.MAPET, res.AvgLin.MAPEH),
		fmt.Sprintf("%.2f/%.2f", res.AvgNN.MAET, res.AvgNN.MAEH),
		fmt.Sprintf("%.2f/%.2f", res.AvgNN.MAPET, res.AvgNN.MAPEH))
	fmt.Println(t)
	fmt.Printf("(paper Avg.: Lin MAE 4.46/4.28 MAPE 21.08/13.32; NN MAE 2.39/4.62 MAPE 9.25/14.35; %.1fs)\n\n",
		time.Since(t0).Seconds())
	return res
}

func runAndPrintFigure3(split *dataset.Split, ecfg core.ExperimentConfig) *core.Figure3Result {
	res, err := core.RunFigure3(split, ecfg)
	check(err)
	fmt.Println("FIGURE 3 — Grad-CAM importance over all features (CSI a0..a63, temperature e, humidity h)")
	// Render as a signed sparkline table, 8 subcarriers per row.
	maxAbs := 1e-12
	for _, v := range res.Importance {
		if a := abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	for base := 0; base < 64; base += 8 {
		var sb strings.Builder
		fmt.Fprintf(&sb, "  a%02d–a%02d ", base, base+7)
		for k := base; k < base+8; k++ {
			fmt.Fprintf(&sb, "%+7.3f", res.Importance[k]/maxAbs)
		}
		fmt.Println(sb.String())
	}
	fmt.Printf("  temp(e) %+7.3f   hum(h) %+7.3f  (normalised to max |importance|)\n", res.Importance[64]/maxAbs, res.Importance[65]/maxAbs)
	fmt.Printf("  CSI mass %.1f%%  Env mass %.1f%%  top subcarriers %v\n", 100*res.CSIMass, 100*res.EnvMass, res.TopSubcarriers)
	fmt.Printf("  (paper: T and H importance ≈0, peaks at a9–a17 and a57–a60)\n\n")
	return res
}

func runAndPrintTimeOnly(split *dataset.Split, ecfg core.ExperimentConfig) *core.TimeOnlyResult {
	res, err := core.RunTimeOnly(split, ecfg)
	check(err)
	fmt.Printf("§V-B time-only ablation: per-fold %v → avg %.1f%% (paper: 89.3%%)\n\n", fmtFolds(res.PerFold), res.Avg)
	return res
}

func runAndPrintFootprint(split *dataset.Split, ecfg core.ExperimentConfig) *core.FootprintResult {
	dcfg := core.DefaultDetectorConfig()
	dcfg.Train = ecfg.NNTrain
	dcfg.Train.Epochs = 1 // footprint does not depend on training quality
	dcfg.Seed = ecfg.Seed
	det, err := core.TrainDetector(split.Train.Thin(2000), dcfg)
	check(err)
	fp := core.RunFootprint(det, 2000)
	fmt.Println("§IV-B deployment footprint (C+E detector, paper architecture)")
	fmt.Printf("  parameters: %d   float32 size: %.2f KiB   inference: %v/sample\n",
		fp.Params, fp.SizeKiB, fp.InferencePerSample)
	fmt.Printf("  (paper: 77 881 params*, 15.18 KiB, 10.781 ms/sample — *see DESIGN.md §5)\n\n")
	return fp
}

func fmtFolds(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.0f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
