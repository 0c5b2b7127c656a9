// Package repro's benchmark harness: one benchmark per paper table/figure
// (regenerating the artefact end to end at reduced scale) plus component
// micro-benchmarks for the hot paths (channel sampling, training epochs,
// single-sample inference — the §IV-B latency claim).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks measure the full regenerate-this-table cost;
// cmd/experiments runs the same code at paper scale and prints the tables.
package repro

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/agents"
	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/dataset"
	"repro/internal/envsim"
	"repro/internal/fault"
	"repro/internal/framelog"
	"repro/internal/infer"
	"repro/internal/linmodel"
	"repro/internal/nn"
	"repro/internal/rf"
	"repro/internal/tensor"
	"repro/internal/xai"
)

// benchData lazily generates a shared reduced-scale trace: the full 74 h
// scenario thinned to one sample every 40 s (≈6.7k records), split like
// Table III.
var (
	benchOnce  sync.Once
	benchSet   *dataset.Dataset
	benchSplit *dataset.Split
)

func benchFixture(b *testing.B) (*dataset.Dataset, *dataset.Split) {
	b.Helper()
	benchOnce.Do(func() {
		d, err := dataset.Generate(dataset.DefaultGenConfig(1.0/40, 1))
		if err != nil {
			panic(err)
		}
		s, err := d.PaperSplit()
		if err != nil {
			panic(err)
		}
		benchSet, benchSplit = d, s
	})
	return benchSet, benchSplit
}

// benchCfg is the reduced-scale experiment configuration the table
// benchmarks share.
func benchCfg() core.ExperimentConfig {
	cfg := core.DefaultExperimentConfig()
	cfg.MaxTrainSamples = 2000
	cfg.MaxEvalSamples = 500
	cfg.Hidden = []int{64, 32}
	cfg.NNTrain.Epochs = 5
	cfg.RF.NumTrees = 10
	cfg.RF.MaxDepth = 12
	return cfg
}

// --- Table I / data generation ---------------------------------------------

// BenchmarkTable1Generate measures end-to-end trace generation (agents +
// thermal model + channel model) per simulated sample.
func BenchmarkTable1Generate(b *testing.B) {
	cfg := dataset.DefaultGenConfig(20, 3)
	cfg.Start = time.Date(2022, 1, 5, 10, 0, 0, 0, time.UTC)
	cfg.Duration = time.Duration(b.N) * 50 * time.Millisecond
	if cfg.Duration < time.Second {
		cfg.Duration = time.Second
	}
	b.ResetTimer()
	n := 0
	err := dataset.Stream(context.Background(), cfg, func(dataset.Record) error { n++; return nil })
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(n)/float64(b.N), "records/op")
}

// --- Table II ---------------------------------------------------------------

// BenchmarkTable2Profile regenerates the occupancy distribution.
func BenchmarkTable2Profile(b *testing.B) {
	d, _ := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := d.Profile()
		if p.Total != d.Len() {
			b.Fatal("bad profile")
		}
	}
}

// --- Table III ---------------------------------------------------------------

// BenchmarkTable3Folds regenerates the fold split and per-fold statistics.
func BenchmarkTable3Folds(b *testing.B) {
	d, _ := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := d.PaperSplit()
		if err != nil {
			b.Fatal(err)
		}
		rows := s.TableIII()
		if len(rows) != 6 {
			b.Fatal("bad table")
		}
	}
}

// --- Table IV: one benchmark per model family -------------------------------

// BenchmarkTable4Logistic trains + evaluates the logistic baseline on CSI.
func BenchmarkTable4Logistic(b *testing.B) {
	_, split := benchFixture(b)
	x, y := split.Train.Matrix(dataset.FeatCSI)
	scaler := linmodel.FitScaler(x)
	xs := scaler.Transform(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var lr linmodel.Logistic
		lr.Fit(xs, y)
		for _, fold := range split.Folds {
			xf, _ := fold.Matrix(dataset.FeatCSI)
			lr.Predict(scaler.Transform(xf))
		}
	}
}

// BenchmarkTable4RandomForest trains + evaluates the RF baseline on CSI.
func BenchmarkTable4RandomForest(b *testing.B) {
	_, split := benchFixture(b)
	cfg := benchCfg()
	x, y := split.Train.Matrix(dataset.FeatCSI)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := rf.FitClassifier(x, y, cfg.RF)
		for _, fold := range split.Folds {
			xf, _ := fold.Matrix(dataset.FeatCSI)
			f.Predict(xf)
		}
	}
}

// BenchmarkTable4MLP trains + evaluates the paper's MLP on CSI.
func BenchmarkTable4MLP(b *testing.B) {
	_, split := benchFixture(b)
	cfg := benchCfg()
	x, y := split.Train.Matrix(dataset.FeatCSI)
	scaler := linmodel.FitScaler(x)
	xs := scaler.Transform(x)
	yf := tensor.NewMatrix(len(y), 1)
	for i, v := range y {
		yf.Set(i, 0, float64(v))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := nn.NewMLP(64, cfg.Hidden, 1, rand.New(rand.NewSource(1)))
		net.Fit(xs, yf, nn.BCEWithLogits{}, cfg.NNTrain)
		for _, fold := range split.Folds {
			xf, _ := fold.Matrix(dataset.FeatCSI)
			net.PredictBinary(scaler.Transform(xf))
		}
	}
}

// BenchmarkTable4Full regenerates the entire 3×3×5 grid.
func BenchmarkTable4Full(b *testing.B) {
	_, split := benchFixture(b)
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunTable4(split, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table V -----------------------------------------------------------------

// BenchmarkTable5Linear regenerates the OLS half of Table V.
func BenchmarkTable5Linear(b *testing.B) {
	_, split := benchFixture(b)
	x, _ := split.Train.Matrix(dataset.FeatCSI)
	y := tensor.NewMatrix(split.Train.Len(), 2)
	for i := range split.Train.Records {
		y.Set(i, 0, split.Train.Records[i].Temp)
		y.Set(i, 1, split.Train.Records[i].Humidity)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lin, err := linmodel.FitLinear(x, y, 1e-8)
		if err != nil {
			b.Fatal(err)
		}
		for _, fold := range split.Folds {
			xf, _ := fold.Matrix(dataset.FeatCSI)
			lin.Predict(xf)
		}
	}
}

// BenchmarkTable5Neural regenerates Table V through core.RunTable5: the MLP
// regressor and, alongside it, the OLS cell.
func BenchmarkTable5Neural(b *testing.B) {
	_, split := benchFixture(b)
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunTable5(split, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 3 ----------------------------------------------------------------

// BenchmarkFigure3GradCAM measures the Grad-CAM attribution pass on a
// trained C+E detector over a 512-sample batch.
func BenchmarkFigure3GradCAM(b *testing.B) {
	_, split := benchFixture(b)
	dcfg := core.DefaultDetectorConfig()
	dcfg.Hidden = []int{64, 32}
	dcfg.Train.Epochs = 2
	det, err := core.TrainDetector(split.Train, dcfg)
	if err != nil {
		b.Fatal(err)
	}
	x, _ := split.Folds[0].Matrix(dataset.FeatCSIEnv)
	if x.Rows > 512 {
		x = tensor.FromSlice(512, x.Cols, x.Data[:512*x.Cols])
	}
	xs := det.Scaler.Transform(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xai.GradCAM(det.Net, xs, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §V-A profiling -----------------------------------------------------------

// BenchmarkProfileVA regenerates the correlation + ADF profile.
func BenchmarkProfileVA(b *testing.B) {
	d, _ := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunProfile(d, 4000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §V-B time-only ablation ---------------------------------------------------

// BenchmarkTimeOnly regenerates the time-of-day ablation.
func BenchmarkTimeOnly(b *testing.B) {
	_, split := benchFixture(b)
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunTimeOnly(split, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §IV-B deployment numbers ----------------------------------------------

// BenchmarkInferenceMLPSingle measures single-sample forward latency on the
// paper architecture (the 10.781 ms/sample claim; a modern x86 core is
// orders of magnitude faster than the paper's target MCU).
func BenchmarkInferenceMLPSingle(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := nn.NewMLP(66, core.PaperHidden, 1, rng)
	x := tensor.NewMatrix(1, 66).RandomizeNormal(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.PredictProbs(x)
	}
}

// benchArena lowers net at precision p and returns one arena over it.
func benchArena(b *testing.B, net *nn.Network, p nn.Precision) *nn.Arena {
	prog, err := nn.Lower(net, p)
	if err != nil {
		b.Fatal(err)
	}
	return prog.NewArena()
}

// BenchmarkInferenceMLPSingleFused measures the arena's fused single-row
// path — vector·matrix over raw slices, no tensor.Matrix wrapping, zero
// allocations — which the inference engine runs for every row.
func BenchmarkInferenceMLPSingleFused(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := nn.NewMLP(66, core.PaperHidden, 1, rng)
	arena := benchArena(b, net, nn.F64)
	row := tensor.NewMatrix(1, 66).RandomizeNormal(rng, 1).Row(0)
	arena.PredictProb1(row) // warm the scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.PredictProb1(row)
	}
}

// BenchmarkInferenceMLPBatch256 measures amortised batch inference through
// the forward arena — the offline evaluation path, zero allocations per
// pass (the pre-arena PredictProbs path cost 18 allocs and ~2.1 MB per
// batch).
func BenchmarkInferenceMLPBatch256(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net := nn.NewMLP(66, core.PaperHidden, 1, rng)
	arena := benchArena(b, net, nn.F64)
	x := tensor.NewMatrix(256, 66).RandomizeNormal(rng, 1)
	probs := make([]float64, 256)
	arena.PredictProbsInto(probs, x) // warm the scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.PredictProbsInto(probs, x)
	}
	b.ReportMetric(256, "samples/op")
}

// BenchmarkInferenceMLPBatch256F32 is the reduced-precision counterpart of
// BenchmarkInferenceMLPBatch256: the same paper architecture and batch served
// through the float32 sparse-compaction arena (DESIGN.md §12). Identical
// inputs and sampling, so the two benchmarks are directly comparable; the
// acceptance bar is >=1.5x the f64 arena at zero allocations per pass.
func BenchmarkInferenceMLPBatch256F32(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net := nn.NewMLP(66, core.PaperHidden, 1, rng)
	arena := benchArena(b, net, nn.F32)
	x := tensor.NewMatrix(256, 66).RandomizeNormal(rng, 1)
	probs := make([]float64, 256)
	arena.PredictProbsInto(probs, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.PredictProbsInto(probs, x)
	}
	b.ReportMetric(256, "samples/op")
}

// BenchmarkInferenceMLPBatch256I8 is the int8-weight variant. On scalar x86
// the per-element int8→float32 widening makes it SLOWER than the f32 arena —
// its value is the ~4x smaller weight footprint, and the benchmark is tracked
// so that regression stays an explicit, measured trade (DESIGN.md §12).
func BenchmarkInferenceMLPBatch256I8(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net := nn.NewMLP(66, core.PaperHidden, 1, rng)
	arena := benchArena(b, net, nn.I8)
	x := tensor.NewMatrix(256, 66).RandomizeNormal(rng, 1)
	probs := make([]float64, 256)
	arena.PredictProbsInto(probs, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.PredictProbsInto(probs, x)
	}
	b.ReportMetric(256, "samples/op")
}

// BenchmarkInferenceMLPSingleFusedF32 is the float32 mirror of the fused
// single-row path — what a reduced-precision engine runs for batches of one.
func BenchmarkInferenceMLPSingleFusedF32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := nn.NewMLP(66, core.PaperHidden, 1, rng)
	arena := benchArena(b, net, nn.F32)
	row := tensor.NewMatrix(1, 66).RandomizeNormal(rng, 1).Row(0)
	arena.PredictProb1(row)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.PredictProb1(row)
	}
}

// BenchmarkEngineMultiFeed drives 64 concurrent feeds through
// core.DetectorEngine at the paper's model size and f64 — the serving
// fleet's scoring path as a Go benchmark. Each op is one record scored
// end-to-end (feature row, standardisation, a pooled arena, the fused row
// kernel) on the feed's own goroutine.
func BenchmarkEngineMultiFeed(b *testing.B) {
	det, recs := benchEngineDetector(b)
	de, err := core.NewDetectorEngine(det, core.ServeConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetParallelism(64)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			de.PredictRecord(&recs[i%len(recs)])
			i++
		}
	})
}

// BenchmarkEnginePredictSingle is the lone caller's cost at the paper's
// model size and the serving precision (f32): one goroutine calling
// core.DetectorEngine.PredictRecord — feature extraction, standardisation,
// a pooled arena, the fused row kernel. It is the go-test counterpart of
// the repo benchmark's core.engine_predict_c1_us probe.
func BenchmarkEnginePredictSingle(b *testing.B) {
	det, recs := benchEngineDetector(b)
	de, err := core.NewDetectorEngine(det, core.ServeConfig{Precision: "f32"})
	if err != nil {
		b.Fatal(err)
	}
	de.PredictRecord(&recs[0]) // fill the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		de.PredictRecord(&recs[i%len(recs)])
	}
}

// benchEngineDetector trains the default detector for one epoch and returns
// it with a bank of records to score.
func benchEngineDetector(b *testing.B) (*core.Detector, []dataset.Record) {
	_, split := benchFixture(b)
	dcfg := core.DefaultDetectorConfig()
	dcfg.Train.Epochs = 1
	det, err := core.TrainDetector(split.Train, dcfg)
	if err != nil {
		b.Fatal(err)
	}
	return det, split.Folds[0].Records
}

// BenchmarkInferenceRFSingle contrasts the RF per-sample cost (§V-B argues
// RF is too heavy for embedded real-time use).
func BenchmarkInferenceRFSingle(b *testing.B) {
	_, split := benchFixture(b)
	cfg := benchCfg()
	x, y := split.Train.Matrix(dataset.FeatCSI)
	f := rf.FitClassifier(x, y, cfg.RF)
	row := x.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictProb(row)
	}
}

// --- component micro-benchmarks ----------------------------------------------

// BenchmarkCSISampleEmpty measures one channel-model tick of an empty room.
func BenchmarkCSISampleEmpty(b *testing.B) {
	s := csi.NewSampler(csi.Config{Seed: 1})
	empty := benchSnapshot(0)
	env := envsim.State{Temp: 21, Humidity: 40}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(empty, env, 0.05)
	}
}

// BenchmarkCSISampleBusy measures a tick with four occupants.
func BenchmarkCSISampleBusy(b *testing.B) {
	s := csi.NewSampler(csi.Config{Seed: 1})
	busy := benchSnapshot(4)
	env := envsim.State{Temp: 21, Humidity: 40}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(busy, env, 0.05)
	}
}

// BenchmarkPhasorSum measures the channel model's ray sum alone: a
// paper-config table — line of sight, 8 wall reflections, 3 furniture
// scatterers and two rays for each of 4 occupants — at 64 subcarriers.
func BenchmarkPhasorSum(b *testing.B) {
	cfg := csi.DefaultConfig()
	w := make([]float64, csi.NumSubcarriers)
	for k := range w {
		w[k] = -2 * math.Pi * (cfg.CenterFreqHz + float64(k-csi.NumSubcarriers/2)*cfg.SubcarrierSpacingHz)
	}
	rng := rand.New(rand.NewSource(1))
	rays := make([]tensor.Phasor, 1+cfg.WallReflections+3+2*4)
	for i := range rays {
		length := 2 + 20*rng.Float64()
		rays[i] = tensor.Phasor{
			G:     cmplx.Rect(0.5*rng.Float64(), 2*math.Pi*rng.Float64()),
			Att:   math.Exp(-cfg.HumidityAbsorption * 8 * length),
			Tau:   length / 299792458.0,
			Base:  cfg.ThermalPhaseCoeff * length,
			Extra: rng.NormFloat64(),
		}
	}
	re, im := make([]float64, len(w)), make([]float64, len(w))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.PhasorSumInto(re, im, w, rays)
	}
	b.ReportMetric(float64(len(rays)*len(w)), "phasors/op")
}

// BenchmarkTrainEpochMLP measures one epoch on 2 000×64 inputs with the
// paper architecture.
func BenchmarkTrainEpochMLP(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.NewMatrix(2000, 64).RandomizeNormal(rng, 1)
	y := tensor.NewMatrix(2000, 1)
	for i := 0; i < 2000; i++ {
		if rng.Float64() < 0.5 {
			y.Set(i, 0, 1)
		}
	}
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = 1
	net := nn.NewMLP(64, core.PaperHidden, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Fit(x, y, nn.BCEWithLogits{}, cfg)
	}
	b.ReportMetric(2000, "samples/op")
}

// BenchmarkMatMul measures the 256×256 matmul kernel underlying everything.
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := tensor.NewMatrix(256, 256).RandomizeNormal(rng, 1)
	c := tensor.NewMatrix(256, 256).RandomizeNormal(rng, 1)
	dst := tensor.NewMatrix(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(dst, a, c)
	}
}

// BenchmarkMatMulATB measures dW = xᵀ·dy at the paper MLP's widest layer
// (batch 256, 128→256) — nn.Fit's weight-gradient product.
func BenchmarkMatMulATB(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.NewMatrix(256, 128).RandomizeNormal(rng, 1)
	dy := tensor.NewMatrix(256, 256).RandomizeNormal(rng, 1)
	dw := tensor.NewMatrix(128, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulATB(dw, x, dy)
	}
}

// BenchmarkMatMulABT measures dx = dy·Wᵀ at the same layer — nn.Fit's
// input-gradient product.
func BenchmarkMatMulABT(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	dy := tensor.NewMatrix(256, 256).RandomizeNormal(rng, 1)
	w := tensor.NewMatrix(128, 256).RandomizeNormal(rng, 1)
	dx := tensor.NewMatrix(256, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulABT(dx, dy, w)
	}
}

// BenchmarkKernelSparseRowMatMulF32 measures the sparse f32 kernel in
// isolation at the paper MLP's widest layer shape (128→256) with ~50%
// activation density — the inference hot loop the cpukit dispatch targets
// (generic scalar vs AVX2+FMA, DESIGN.md §14). Run with OCCU_KERNEL=generic
// to benchmark the portable kernel on the same machine.
func BenchmarkKernelSparseRowMatMulF32(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	w := tensor.NewMatrixF32(128, 256)
	for i := range w.Data {
		w.Data[i] = float32(rng.NormFloat64())
	}
	bias := make([]float32, 256)
	idx := make([]int32, 0, 128)
	val := make([]float32, 0, 128)
	for k := 0; k < 128; k++ {
		if rng.Float64() < 0.5 {
			idx = append(idx, int32(k))
			val = append(val, float32(rng.NormFloat64()))
		}
	}
	dst := make([]float32, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.SparseRowMatMulF32Into(dst, bias, w, idx, val)
	}
}

// BenchmarkKernelQuantMaddU7I8 measures the quantised int8 kernel at the
// same 128→256 layer shape: u7 activations × k-quad-packed int8 weights,
// int32 accumulation (VPMADDUBSW under the AVX2 kernel).
func BenchmarkKernelQuantMaddU7I8(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	w := make([]int8, 128*256)
	for i := range w {
		w[i] = int8(rng.Intn(255) - 127)
	}
	packed := tensor.PackI8KQuad(w, 128, 256)
	act := make([]uint8, 128)
	for i := range act {
		act[i] = uint8(rng.Intn(128))
	}
	dst := make([]int32, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.QuantMaddU7I8Into(dst, 256, packed, act)
	}
}

// BenchmarkReLUCompactF32 measures the activation compaction between two
// Dense layers at the detector's widest hidden layer: 512 pre-activations of
// random sign, the ReLU applied and the survivors gathered into (idx, val) —
// everything the f32 row path does that is not the axpy (DESIGN.md §14;
// branch-free scalar loop under OCCU_KERNEL=generic, VPERMPS left-packing
// under AVX2).
func BenchmarkReLUCompactF32(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	src := make([]float32, 512)
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	idx := make([]int32, len(src))
	val := make([]float32, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSinkInt = tensor.ReLUCompactF32(idx, val, src)
	}
}

// benchSinkInt keeps a benchmarked call's result alive.
var benchSinkInt int

// helpers ---------------------------------------------------------------------

// benchSnapshot builds a fixed occupant snapshot with the given headcount.
func benchSnapshot(people int) *agents.Snapshot {
	snap := &agents.Snapshot{
		Time: time.Date(2022, 1, 5, 10, 0, 0, 0, time.UTC),
		Furniture: []agents.Point{
			{X: 2, Y: 2}, {X: 10, Y: 4}, {X: 6, Y: 1},
		},
	}
	for i := 0; i < people; i++ {
		snap.Present = append(snap.Present, agents.PersonView{
			ID:  i,
			Pos: agents.Point{X: 3 + float64(i)*2, Y: 2 + float64(i%2)*2},
			Activity: func() agents.Activity {
				if i%2 == 0 {
					return agents.AtDesk
				}
				return agents.Walking
			}(),
			Speed: float64(i%2) * 1.1,
		})
	}
	snap.Count = len(snap.Present)
	return snap
}

// --- extension benchmarks ------------------------------------------------

// BenchmarkExtActivity regenerates the activity-recognition extension table.
func BenchmarkExtActivity(b *testing.B) {
	_, split := benchFixture(b)
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.RunActivity(split, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtCounting regenerates the occupant-counting extension table.
func BenchmarkExtCounting(b *testing.B) {
	_, split := benchFixture(b)
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunCounting(split, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationArchitecture runs the topology sweep.
func BenchmarkAblationArchitecture(b *testing.B) {
	_, split := benchFixture(b)
	cfg := benchCfg()
	cfg.NNTrain.Epochs = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunAblation(split, cfg, "arch"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAgentsStep measures one occupant-simulator tick at 20 Hz.
func BenchmarkAgentsStep(b *testing.B) {
	sim := agents.New(agents.Config{Seed: 5})
	t0 := time.Date(2022, 1, 5, 10, 0, 0, 0, time.UTC)
	dt := 50 * time.Millisecond
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step(t0.Add(time.Duration(i)*dt), dt)
	}
}

// BenchmarkEnvsimStep measures one thermal-model tick at 20 Hz.
func BenchmarkEnvsimStep(b *testing.B) {
	sim := envsim.NewSimulator(envsim.DefaultConfig(), rand.New(rand.NewSource(5)))
	t0 := time.Date(2022, 1, 5, 10, 0, 0, 0, time.UTC)
	dt := 50 * time.Millisecond
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step(t0.Add(time.Duration(i)*dt), dt, 3)
	}
}

// BenchmarkGradientStep measures one forward+backward+AdamW step on a
// 256-sample batch with the paper architecture.
func BenchmarkGradientStep(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	net := nn.NewMLP(66, core.PaperHidden, 1, rng)
	x := tensor.NewMatrix(256, 66).RandomizeNormal(rng, 1)
	y := tensor.NewMatrix(256, 1)
	for i := 0; i < 256; i++ {
		if rng.Float64() < 0.5 {
			y.Set(i, 0, 1)
		}
	}
	opt := nn.NewAdamW(5e-3, 1e-4)
	loss := nn.BCEWithLogits{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.FitOnline(x, y, loss, opt, 5)
	}
	b.ReportMetric(256, "samples/op")
}

// BenchmarkFrameLogAppend measures the durable-ingest hot path: one frame
// encoded, CRC-guarded and handed to the kernel on the per-feed log
// (DESIGN.md §13). "interval" is the serving default and the number the
// <5% ingest-overhead acceptance bound refers to; "always" pays a full
// fsync per frame and shows the ceiling of the durability trade-off.
func BenchmarkFrameLogAppend(b *testing.B) {
	frame := fault.Frame{Index: 0, EnvOK: true}
	frame.Rec.Time = time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	frame.Rec.Temp, frame.Rec.Humidity = 21.5, 43.25
	frame.Rec.Count, frame.Rec.Walking = 2, 1
	for k := range frame.Rec.CSI {
		frame.Rec.CSI[k] = float64(k%7) / 7
	}
	frame.Truth = frame.Rec
	for _, policy := range []string{framelog.FsyncInterval, framelog.FsyncAlways} {
		b.Run(policy, func(b *testing.B) {
			w, _, err := framelog.Open(framelog.Config{Dir: b.TempDir(), Fsync: policy}, "bench")
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(565) // length u32 + CRC32 + 557-byte frame payload
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frame.Index = i
				if err := w.Append(&frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The serving layer's actual hot path: one AppendBatch per accepted
	// ingest batch, one write syscall for all 64 frames. The op is still one
	// frame, so this line divides directly against the per-frame cases.
	b.Run("interval-batch64", func(b *testing.B) {
		w, _, err := framelog.Open(framelog.Config{Dir: b.TempDir(), Fsync: framelog.FsyncInterval}, "bench")
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		batch := make([]fault.Frame, 64)
		for i := range batch {
			batch[i] = frame
		}
		b.SetBytes(565)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(batch) {
			for k := range batch {
				batch[k].Index = i + k
			}
			if _, err := w.AppendBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFrameLogRecover measures what a restart pays the log per feed:
// framelog.OpenReplay over one 4 000-frame feed (restart_recovery's per-feed
// size) — list, read, CRC and decode every record once into the reused
// frame, hand it over, open the writer behind it (DESIGN.md §13). That is a
// full replay, what a feed without a usable snapshot pays. The callback does
// what costs nothing, so this is the log's share alone; the allocation
// figures are per recovered feed, not per frame.
func BenchmarkFrameLogRecover(b *testing.B) {
	const frames = 4000
	cfg := framelog.Config{Dir: b.TempDir(), Fsync: framelog.FsyncOff}
	w, _, err := framelog.Open(cfg, "bench")
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]fault.Frame, 250)
	for i := 0; i < frames; i += len(batch) {
		for k := range batch {
			batch[k].Index, batch[k].EnvOK = i+k, true
			batch[k].Rec.Temp = 20 + float64(k)/100
			batch[k].Rec.CSI[0] = float64(i + k)
		}
		if _, err := w.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(frames * 565)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last := -1
		w, rec, err := framelog.OpenReplay(cfg, nil, "bench", framelog.Anchor{}, func(f *fault.Frame) { last = f.Index })
		if err != nil || rec.Frames != frames || last != frames-1 {
			b.Fatalf("recovered %d frames, last index %d, error %v", rec.Frames, last, err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Online learning / hot swap (DESIGN.md §16) ----------------------------

// benchSwapRegistry builds a two-version model registry around one small
// trained detector (both versions share the payload — the benchmarks measure
// registry mechanics, not inference) and activates the first version.
func benchSwapRegistry(b *testing.B) (*infer.Registry, [2]string, *dataset.Record) {
	b.Helper()
	_, split := benchFixture(b)
	dcfg := core.DefaultDetectorConfig()
	dcfg.Hidden = []int{32, 16}
	dcfg.Train.Epochs = 1
	dcfg.Train.Seed = 7
	dcfg.Seed = 7
	det, err := core.TrainDetector(split.Train, dcfg)
	if err != nil {
		b.Fatal(err)
	}
	reg := infer.NewRegistry(nil)
	build := func([]byte) (any, error) { return det, nil }
	va, _, err := reg.Install([]byte("bench-bundle-a"), build)
	if err != nil {
		b.Fatal(err)
	}
	vb, _, err := reg.Install([]byte("bench-bundle-b"), build)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := reg.Activate(va.ID()); err != nil {
		b.Fatal(err)
	}
	return reg, [2]string{va.ID(), vb.ID()}, &split.Folds[0].Records[0]
}

// BenchmarkModelSwapActivate measures the hot-swap control-plane cost: one
// Registry.Activate is a map lookup plus an atomic pointer flip, which is
// why activation never pauses serving (DESIGN.md §16).
func BenchmarkModelSwapActivate(b *testing.B) {
	reg, ids, _ := benchSwapRegistry(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Activate(ids[i&1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelSwapServing measures the per-decision cost the registry adds
// to the serving hot path — ResolveFor (pin lookup + atomic active load) and
// the payload type assertion, then a real detector forward — while a
// background goroutine flips the active version as fast as it can, the
// worst-case swap pressure a feed can see.
func BenchmarkModelSwapServing(b *testing.B) {
	reg, ids, rec := benchSwapRegistry(b)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				if _, err := reg.Activate(ids[i&1]); err != nil {
					panic(err)
				}
			}
		}
	}()
	type predictor interface {
		PredictRecord(r *dataset.Record) (float64, int)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := reg.ResolveFor("bench-feed")
		p, ok := v.Payload().(predictor)
		if !ok {
			b.Fatal("payload is not a predictor")
		}
		p.PredictRecord(rec)
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}
