package dataset

import (
	"math"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestWindowSpecDim(t *testing.T) {
	if (WindowSpec{N: 10}).Dim() != 128 {
		t.Fatal("csi-only dim")
	}
}

func TestWindowedMatrixAgainstNaive(t *testing.T) {
	cfg := shortConfig()
	cfg.Duration = 5 * time.Minute
	d := mustGenerate(t, cfg)
	spec := WindowSpec{N: 7}
	x, idx, err := d.WindowedMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows != d.Len()-6 || x.Cols != spec.Dim() || len(idx) != x.Rows {
		t.Fatalf("shape %dx%d idx=%d", x.Rows, x.Cols, len(idx))
	}
	// Rows are aligned to the window's last record.
	for r, j := range idx {
		if j != r+6 {
			t.Fatalf("row %d index %d", r, j)
		}
	}
	// Spot-check against a naive per-window computation.
	for _, r := range []int{0, 13, x.Rows - 1} {
		for _, k := range []int{0, 20, 63} {
			var vals []float64
			for i := r; i < r+7; i++ {
				vals = append(vals, d.Records[i].CSI[k])
			}
			wantMean := stats.Mean(vals)
			wantStd := stats.StdDev(vals)
			if math.Abs(x.At(r, 2*k)-wantMean) > 1e-9 {
				t.Fatalf("row %d sc %d mean %g want %g", r, k, x.At(r, 2*k), wantMean)
			}
			if math.Abs(x.At(r, 2*k+1)-wantStd) > 1e-9 {
				t.Fatalf("row %d sc %d std %g want %g", r, k, x.At(r, 2*k+1), wantStd)
			}
		}
	}
}

func TestWindowedMatrixErrors(t *testing.T) {
	d := &Dataset{Records: make([]Record, 3)}
	if _, _, err := d.WindowedMatrix(WindowSpec{N: 0}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, _, err := d.WindowedMatrix(WindowSpec{N: 5}); err == nil {
		t.Fatal("window longer than data accepted")
	}
	// Exactly one window.
	for i := range d.Records {
		d.Records[i].CSI[0] = float64(i)
	}
	x, idx, err := d.WindowedMatrix(WindowSpec{N: 3})
	if err != nil || x.Rows != 1 || idx[0] != 2 {
		t.Fatalf("single window: %v %d", err, x.Rows)
	}
	if math.Abs(x.At(0, 0)-1) > 1e-12 { // mean of 0,1,2
		t.Fatalf("mean %g", x.At(0, 0))
	}
}

// TestWindowedLabels: WindowedMatrix's row index names each window's last
// record, the one its labels come from.
func TestWindowedLabels(t *testing.T) {
	d := &Dataset{Records: []Record{{Count: 0}, {Count: 2}, {Count: 2, Walking: 1}}}
	x, idx, err := d.WindowedMatrix(WindowSpec{N: 2})
	if err != nil || x.Rows != 2 {
		t.Fatal(err)
	}
	var occ, act []int
	for _, j := range idx {
		occ = append(occ, d.Records[j].Label())
		act = append(act, d.Records[j].ActivityLabel())
	}
	if occ[0] != 1 || occ[1] != 1 {
		t.Fatalf("occ labels %v", occ)
	}
	if act[0] != ActivityStatic || act[1] != ActivityMotion {
		t.Fatalf("activity labels %v", act)
	}
}

// TestWindowingSeparatesMotion shows the point of the extractor: windowed
// per-subcarrier std is systematically larger when someone walks than when
// the room is static, which single snapshots cannot express.
func TestWindowingSeparatesMotion(t *testing.T) {
	cfg := shortConfig()
	cfg.Duration = 30 * time.Minute
	d := mustGenerate(t, cfg)
	spec := WindowSpec{N: 10}
	x, idx, err := d.WindowedMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	var stdMotion, stdStatic []float64
	for r, j := range idx {
		rec := &d.Records[j]
		// Aggregate the std features (odd columns).
		var s float64
		for k := 0; k < 64; k++ {
			s += x.At(r, 2*k+1)
		}
		switch rec.ActivityLabel() {
		case ActivityMotion:
			stdMotion = append(stdMotion, s)
		case ActivityStatic:
			stdStatic = append(stdStatic, s)
		}
	}
	if len(stdMotion) < 10 || len(stdStatic) < 10 {
		t.Skipf("not enough class diversity: %d motion, %d static", len(stdMotion), len(stdStatic))
	}
	if stats.Mean(stdMotion) <= stats.Mean(stdStatic) {
		t.Fatalf("motion windows must be more volatile: %g vs %g",
			stats.Mean(stdMotion), stats.Mean(stdStatic))
	}
}
