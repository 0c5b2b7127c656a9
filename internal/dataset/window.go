package dataset

import (
	"fmt"
	"math"

	"repro/internal/csi"
	"repro/internal/tensor"
)

// WindowSpec configures the temporal feature extractor: per subcarrier, the
// mean and standard deviation over a trailing window of N samples. Windowed
// amplitude statistics are the standard front-end in the CSI-sensing
// literature (the paper's refs [14], [16]) and are what makes brief motion
// events visible that single-sample snapshots miss — the gap the
// activity-recognition extension documents in EXPERIMENTS.md.
type WindowSpec struct {
	// N is the window length in samples (e.g. 20 = 1 s at 20 Hz).
	N int
}

// Dim returns the feature width: mean and std per subcarrier.
func (w WindowSpec) Dim() int { return 2 * csi.NumSubcarriers }

// WindowedMatrix materialises windowed features for records [N-1, len),
// returning the feature matrix plus the row-aligned indices into d.Records
// (a record's label/ground truth is that of the window's *last* sample, so
// labels stay causal for online use).
func (d *Dataset) WindowedMatrix(spec WindowSpec) (*tensor.Matrix, []int, error) {
	if spec.N < 1 {
		return nil, nil, fmt.Errorf("dataset: window length %d < 1", spec.N)
	}
	if d.Len() < spec.N {
		return nil, nil, fmt.Errorf("dataset: %d records < window %d", d.Len(), spec.N)
	}
	rows := d.Len() - spec.N + 1
	x := tensor.NewMatrix(rows, spec.Dim())
	idx := make([]int, rows)

	// Running sums per subcarrier for O(n) extraction.
	var sum, sq [csi.NumSubcarriers]float64
	for i := 0; i < spec.N-1; i++ {
		for k, v := range d.Records[i].CSI {
			sum[k] += v
			sq[k] += v * v
		}
	}
	invN := 1 / float64(spec.N)
	for r := 0; r < rows; r++ {
		last := r + spec.N - 1
		rec := &d.Records[last]
		for k, v := range rec.CSI {
			sum[k] += v
			sq[k] += v * v
		}
		row := x.Row(r)
		for k := 0; k < csi.NumSubcarriers; k++ {
			mean := sum[k] * invN
			variance := sq[k]*invN - mean*mean
			if variance < 0 {
				variance = 0 // numerical floor
			}
			row[2*k] = mean
			row[2*k+1] = math.Sqrt(variance)
		}
		idx[r] = last
		// Slide the window: drop the oldest sample.
		for k, v := range d.Records[r].CSI {
			sum[k] -= v
			sq[k] -= v * v
		}
	}
	return x, idx, nil
}
