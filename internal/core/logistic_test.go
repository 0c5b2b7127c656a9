package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/linmodel"
)

// TestLogisticAtOptimum: Table IV's logistic cells are solved to the
// optimum of their objective, mean log-loss + (1e-4/2)·‖W‖² with the bias
// unpenalised, not stopped on a schedule. On the three quick designs (seed
// 1, 3000 training rows) the objective's gradient, recomputed here from the
// fitted weights, must vanish to 1e-8 in every coordinate.
func TestLogisticAtOptimum(t *testing.T) {
	d, err := dataset.Generate(dataset.DefaultGenConfig(1.0/30, 1))
	if err != nil {
		t.Fatal(err)
	}
	split, err := d.PaperSplit()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultExperimentConfig()
	cfg.MaxTrainSamples = 3000
	for _, feat := range Table4Features {
		c := baseCell(cfg, linear, feat, occupancy)
		in, err := buildInputs(split.Train, c, c.maxTrain, nil)
		if err != nil {
			t.Fatal(err)
		}
		x, y := c.input(in.x, in.xs), labels(in.recs, c.task)
		var lr linmodel.Logistic
		lr.Fit(x, y)

		gw := make([]float64, x.Cols)
		var gb float64
		for i := 0; i < x.Rows; i++ {
			row := x.Row(i)
			z := lr.B
			for j, v := range row {
				z += lr.W[j] * v
			}
			e := 1/(1+math.Exp(-z)) - float64(y[i])
			for j, v := range row {
				gw[j] += e * v
			}
			gb += e
		}
		n := float64(x.Rows)
		worst := math.Abs(gb / n)
		for j, g := range gw {
			worst = math.Max(worst, math.Abs(g/n+1e-4*lr.W[j]))
		}
		if worst > 1e-8 {
			t.Errorf("%v: ‖∇J‖∞ = %.3g at the fitted weights, want ≤ 1e-8", feat, worst)
		} else {
			t.Logf("%v: ‖∇J‖∞ = %.3g over %d rows", feat, worst, x.Rows)
		}
	}
}
