package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpukit"
	"repro/internal/tensor"
)

// TestQuantI8FollowsTier: the quantised-activation int8 path runs under every
// tier that has the AVX2 kernels — avx2 and avx512 — and never under generic.
func TestQuantI8FollowsTier(t *testing.T) {
	if k := cpukit.Active(); quantI8 != (k != cpukit.KernelGeneric) {
		t.Fatalf("kernel %s: quantI8 = %v", k, quantI8)
	}
}

// precisions are the three programs the lowering-refusal table runs over.
// The arena property tests below each run one helper twice: the Test… entry
// over f64, and the Test…F32… entry over the reduced programs (f32 and int8).
var (
	precisions = []Precision{F64, F32, I8}
	reduced    = []Precision{F32, I8}
)

// arenaTestNets builds the servable stacks the arena tests sweep: the paper
// MLP, and a stack with a doubled ReLU (idempotent) and a Dense with no
// activation (the plain compaction path) in the middle.
func arenaTestNets() map[string]*Network {
	rng := rand.New(rand.NewSource(21))
	mixed := NewNetwork(
		NewDense(12, 16, rng), NewReLU(), NewReLU(),
		NewDense(16, 8, rng),
		NewDense(8, 6, rng), NewReLU(),
		NewDense(6, 1, rng),
	)
	return map[string]*Network{
		"mlp":   NewMLP(12, []int{32, 16}, 1, rng),
		"mixed": mixed,
	}
}

// lower is Lower for tests: a refusal fails the test.
func lower(t *testing.T, net *Network, p Precision) *Program {
	t.Helper()
	prog, err := Lower(net, p)
	if err != nil {
		t.Fatalf("Lower(%s): %v", p, err)
	}
	return prog
}

// testArenaBitIdentical is the determinism contract: the batch path and the
// row path agree bit for bit across batch-size changes (grow and shrink), a
// second arena over the same program agrees, and the f64 program reproduces
// Network.PredictProbs exactly.
func testArenaBitIdentical(t *testing.T, seed int64, ps []Precision) {
	rng := rand.New(rand.NewSource(seed))
	for name, net := range arenaTestNets() {
		for _, p := range ps {
			prog := lower(t, net, p)
			a, b := prog.NewArena(), prog.NewArena()
			for _, rows := range []int{1, 3, 17, 64, 2, 64, 1} {
				x := tensor.NewMatrix(rows, net.InputDim()).RandomizeNormal(rng, 1)
				got := a.PredictProbsInto(make([]float64, rows), x)
				var want []float64
				if p == F64 {
					want = net.PredictProbs(x)
				}
				for i := 0; i < rows; i++ {
					if want != nil && got[i] != want[i] {
						t.Fatalf("%s/%s rows=%d: batch row %d = %v, Network.PredictProbs %v", name, p, rows, i, got[i], want[i])
					}
					if r := a.PredictProb1(x.Row(i)); r != got[i] {
						t.Fatalf("%s/%s rows=%d: PredictProb1 row %d = %v, batch %v", name, p, rows, i, r, got[i])
					}
					if r := b.PredictProb1(x.Row(i)); r != got[i] {
						t.Fatalf("%s/%s rows=%d: second arena row %d = %v, want %v", name, p, rows, i, r, got[i])
					}
				}
			}
		}
	}
}

func TestArenaBitIdentical(t *testing.T) { testArenaBitIdentical(t, 22, []Precision{F64}) }

func TestArenaF32BitIdenticalBatchRow(t *testing.T) { testArenaBitIdentical(t, 41, reduced) }

// testArenaZeroAlloc is the steady-state guarantee: no pass — batch, single
// row, or a shrunk batch — allocates.
func testArenaZeroAlloc(t *testing.T, seed int64, ps []Precision) {
	rng := rand.New(rand.NewSource(seed))
	net := NewMLP(66, []int{128, 256, 128}, 1, rng)
	x := tensor.NewMatrix(64, 66).RandomizeNormal(rng, 1)
	small := tensor.FromSlice(3, 66, x.Data[:3*66])
	dst := make([]float64, 64)
	row := x.Row(0)
	for _, p := range ps {
		a := lower(t, net, p).NewArena()
		for what, f := range map[string]func(){
			"batch":        func() { a.PredictProbsInto(dst, x) },
			"single-row":   func() { a.PredictProb1(row) },
			"shrunk-batch": func() { a.PredictProbsInto(dst[:3], small) },
		} {
			if n := testing.AllocsPerRun(10, f); n != 0 {
				t.Fatalf("%s %s pass allocates %v per run, want 0", p, what, n)
			}
		}
	}
}

func TestArenaZeroAlloc(t *testing.T) { testArenaZeroAlloc(t, 23, []Precision{F64}) }

func TestArenaF32ZeroAlloc(t *testing.T) { testArenaZeroAlloc(t, 44, reduced) }

// testArenaSharedNetworkConcurrent: many arenas over one program per
// precision, used from many goroutines, agree with the serial result (run
// with -race: programs are read-only after Lower).
func testArenaSharedNetworkConcurrent(t *testing.T, seed int64, ps []Precision) {
	rng := rand.New(rand.NewSource(seed))
	net := NewMLP(10, []int{16, 8}, 1, rng)
	x := tensor.NewMatrix(32, 10).RandomizeNormal(rng, 1)
	const workers = 9
	errs := make(chan string, workers)
	for _, p := range ps {
		prog := lower(t, net, p)
		want := prog.NewArena().PredictProbsInto(make([]float64, x.Rows), x)
		for w := 0; w < workers; w++ {
			go func() {
				dst := make([]float64, x.Rows)
				for iter := 0; iter < 50; iter++ {
					prog.NewArena().PredictProbsInto(dst, x)
					for i := range want {
						if dst[i] != want[i] {
							errs <- string(p) + " arena diverged under concurrency"
							return
						}
					}
				}
				errs <- ""
			}()
		}
		for w := 0; w < workers; w++ {
			if e := <-errs; e != "" {
				t.Fatal(e)
			}
		}
	}
}

func TestArenaSharedNetworkConcurrent(t *testing.T) {
	testArenaSharedNetworkConcurrent(t, 24, []Precision{F64})
}

func TestArenaF32SharedNetworkConcurrent(t *testing.T) {
	testArenaSharedNetworkConcurrent(t, 45, reduced)
}

// testArenaPanicContracts: a dst of the wrong length and a row of the wrong
// width panic.
func testArenaPanicContracts(t *testing.T, ps []Precision) {
	rng := rand.New(rand.NewSource(47))
	net := NewMLP(8, []int{8}, 1, rng)
	x := tensor.NewMatrix(5, 8).RandomizeNormal(rng, 1)
	for _, p := range ps {
		a := lower(t, net, p).NewArena()
		for what, fn := range map[string]func(){
			"dst length":      func() { a.PredictProbsInto(make([]float64, 4), x) },
			"row width":       func() { a.PredictProb1(make([]float64, 7)) },
			"batch row width": func() { a.PredictProbsInto(make([]float64, 5), tensor.NewMatrix(5, 9)) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: no panic on a wrong %s", p, what)
					}
				}()
				fn()
			}()
		}
	}
}

func TestArenaPanicContracts(t *testing.T) { testArenaPanicContracts(t, []Precision{F64}) }

func TestArenaF32PanicContracts(t *testing.T) { testArenaPanicContracts(t, reduced) }

// TestNetworkF32RoundTrip: lowering a network and lowering it after a
// Save/Load round trip through the float32 deployment format score
// bit-identically at f32 and int8 — the narrowing IS the format's. It lowers
// through NewNetworkF32 and NewNetworkI8, the names the benchmark probes use.
func TestNetworkF32RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for name, net := range arenaTestNets() {
		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		for p, lowerAs := range map[Precision]func(*Network) (*Program, error){F32: NewNetworkF32, I8: NewNetworkI8} {
			pd, err := lowerAs(net)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, p, err)
			}
			pl, err := lowerAs(loaded)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, p, err)
			}
			direct, viaFile := pd.NewArena(), pl.NewArena()
			x := tensor.NewMatrix(32, net.InputDim()).RandomizeNormal(rng, 1)
			for i := 0; i < x.Rows; i++ {
				if d, l := direct.PredictProb1(x.Row(i)), viaFile.PredictProb1(x.Row(i)); d != l {
					t.Fatalf("%s/%s: round trip diverges at row %d: %v != %v", name, p, i, d, l)
				}
			}
		}
	}
}

// TestArenaF32TracksF64 bounds the f32 and int8 divergence from the f64
// program on the paper-sized MLP. The bounds are loose versions of the
// serving defaults (core.DefaultDivergenceBounds); the tight golden bounds
// on the real dataset live in internal/core.
func TestArenaF32TracksF64(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := NewMLP(66, []int{128, 256, 128}, 1, rng)
	ref := lower(t, net, F64).NewArena()
	x := tensor.NewMatrix(256, 66).RandomizeNormal(rng, 1)
	for p, bound := range map[Precision]float64{F32: 1e-3, I8: 0.15} {
		a := lower(t, net, p).NewArena()
		worst := 0.0
		for i := 0; i < x.Rows; i++ {
			worst = math.Max(worst, math.Abs(a.PredictProb1(x.Row(i))-ref.PredictProb1(x.Row(i))))
		}
		if worst > bound {
			t.Fatalf("%s max |Δprob| = %g, want <= %g", p, worst, bound)
		}
		t.Logf("max |Δprob| vs f64: %s %.3g", p, worst)
	}
}

// TestNetworkI8Quantisation pins the quantiser's contract: symmetric
// per-layer scale, |q| <= 127, dequantised weights within scale/2 of the
// float32 originals, the documented artefact sizes, and a finite score from
// an all-zero layer.
func TestNetworkI8Quantisation(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	net := NewMLP(12, []int{32, 16}, 1, rng)
	pf, pi := lower(t, net, F32), lower(t, net, I8)
	if got, want := pf.SizeBytes(), net.SizeBytes(4); got != want {
		t.Fatalf("f32 SizeBytes = %d, want deployment size %d", got, want)
	}
	if got, want := lower(t, net, F64).SizeBytes(), net.SizeBytes(8); got != want {
		t.Fatalf("f64 SizeBytes = %d, want %d", got, want)
	}
	params := 12*32 + 32*16 + 16*1
	biases := 32 + 16 + 1
	if got, want := pi.SizeBytes(), params+4*biases+4*3; got != want {
		t.Fatalf("int8 SizeBytes = %d, want %d", got, want)
	}
	if f, q := float64(pf.SizeBytes()), float64(pi.SizeBytes()); f/q < 3 {
		t.Fatalf("int8 artefact only %.2fx smaller than f32", f/q)
	}
	for li, o := range pi.ops {
		for j, qw := range o.w8 {
			if qw > 127 || qw < -127 {
				t.Fatalf("layer %d: q[%d] = %d out of symmetric range", li, j, qw)
			}
			if d := math.Abs(float64(float32(qw)*o.scale - pf.ops[li].w32.Data[j])); d > float64(o.scale)/2+1e-12 {
				t.Fatalf("layer %d: dequant error %g exceeds scale/2 = %g", li, d, o.scale/2)
			}
		}
	}
	zero := NewNetwork(NewDense(4, 2, rng), NewReLU(), NewDense(2, 1, rng))
	for _, l := range zero.Layers {
		if d, ok := l.(*Dense); ok {
			for i := range d.W.Data {
				d.W.Data[i] = 0
			}
		}
	}
	if p := lower(t, zero, I8).NewArena().PredictProb1([]float64{1, 2, 3, 4}); math.IsNaN(p) {
		t.Fatal("all-zero quantised network produced NaN")
	}
}

// TestLowerRefuses: every stack an arena cannot score is an error from
// Lower, at every precision, never a panic on the first row.
func TestLowerRefuses(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for name, net := range map[string]*Network{
		"cnn":                NewCNN(12, 1, rng),
		"leading activation": NewNetwork(NewReLU(), NewDense(4, 1, rng)),
		"non-chaining Dense": NewNetwork(NewDense(4, 8, rng), NewReLU(), NewDense(16, 1, rng)),
		"2-column head":      NewMLP(4, []int{8}, 2, rng),
		"no Dense":           NewNetwork(),
	} {
		for _, p := range precisions {
			if _, err := Lower(net, p); err == nil {
				t.Errorf("Lower(%s) accepted a %s stack", p, name)
			}
		}
	}
	if _, err := Lower(NewMLP(4, []int{8}, 1, rng), "f16"); err == nil {
		t.Error("Lower accepted precision f16")
	}
}

// TestNetworkF32RejectsConv: the wrappers the benchmark probes compile
// against refuse what Lower refuses — NewNetworkF32 and NewNetworkI8 with an
// error, NewArena(net), which has no error result, with a panic.
func TestNetworkF32RejectsConv(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for name, net := range map[string]*Network{
		"cnn":                NewCNN(12, 1, rng),
		"leading activation": NewNetwork(NewReLU(), NewDense(4, 1, rng)),
	} {
		if _, err := NewNetworkF32(net); err == nil {
			t.Errorf("NewNetworkF32 accepted a %s stack", name)
		}
		if _, err := NewNetworkI8(net); err == nil {
			t.Errorf("NewNetworkI8 accepted a %s stack", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewArena accepted a %s stack", name)
				}
			}()
			NewArena(net)
		}()
	}
}

// TestPredictProbsInto covers the Into variants on Network itself.
func TestPredictProbsInto(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	net := NewMLP(8, []int{8}, 1, rng)
	x := tensor.NewMatrix(5, 8).RandomizeNormal(rng, 1)
	want := net.PredictProbs(x)
	got := net.PredictProbsInto(make([]float64, 5), x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PredictProbsInto diverges at %d", i)
		}
	}
	wantB := net.PredictBinary(x)
	gotB := net.PredictBinaryInto(make([]int, 5), make([]float64, 5), x)
	for i := range wantB {
		if gotB[i] != wantB[i] {
			t.Fatalf("PredictBinaryInto diverges at %d", i)
		}
	}
	for _, fn := range []func(){
		func() { net.PredictProbsInto(make([]float64, 4), x) },
		func() { net.PredictBinaryInto(make([]int, 4), make([]float64, 5), x) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on dst length mismatch")
				}
			}()
			fn()
		}()
	}
}
