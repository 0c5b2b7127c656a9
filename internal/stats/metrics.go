package stats

import (
	"fmt"
	"math"
)

// mapeEpsilon is the ε of paper eq. (3), guarding division by zero targets.
const mapeEpsilon = 1e-8

// MAE computes the mean absolute error of paper eq. (2).
func MAE(y, yhat []float64) float64 {
	mustSameLen(y, yhat, "MAE")
	if len(y) == 0 {
		return 0
	}
	var s float64
	for i := range y {
		s += math.Abs(y[i] - yhat[i])
	}
	return s / float64(len(y))
}

// MAPE computes the mean absolute percentage error of paper eq. (3),
// expressed in percent (so 12.65 means 12.65%).
func MAPE(y, yhat []float64) float64 {
	mustSameLen(y, yhat, "MAPE")
	if len(y) == 0 {
		return 0
	}
	var s float64
	for i := range y {
		s += math.Abs(y[i]-yhat[i]) / math.Max(mapeEpsilon, math.Abs(y[i]))
	}
	return 100 * s / float64(len(y))
}

// Accuracy computes the fraction of matching binary labels (0 or 1).
func Accuracy(y []int, yhat []int) float64 {
	if len(y) != len(yhat) {
		panic(fmt.Sprintf("stats: Accuracy length mismatch %d vs %d", len(y), len(yhat)))
	}
	if len(y) == 0 {
		return 0
	}
	correct := 0
	for i := range y {
		if y[i] == yhat[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}

// ConfusionMatrix accumulates binary classification outcomes.
type ConfusionMatrix struct {
	TP, TN, FP, FN int
}

// Observe records one (truth, prediction) pair of binary labels.
func (c *ConfusionMatrix) Observe(truth, pred int) {
	switch {
	case truth == 1 && pred == 1:
		c.TP++
	case truth == 0 && pred == 0:
		c.TN++
	case truth == 0 && pred == 1:
		c.FP++
	default:
		c.FN++
	}
}

// Total returns the number of observed pairs.
func (c *ConfusionMatrix) Total() int { return c.TP + c.TN + c.FP + c.FN }

// Accuracy returns (TP+TN)/total, or 0 when empty.
func (c *ConfusionMatrix) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(t)
}

// Precision returns TP/(TP+FP), or 0 when no positives were predicted.
func (c *ConfusionMatrix) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when no positives exist.
func (c *ConfusionMatrix) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c *ConfusionMatrix) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func (c *ConfusionMatrix) String() string {
	return fmt.Sprintf("TP=%d TN=%d FP=%d FN=%d acc=%.4f prec=%.4f rec=%.4f f1=%.4f",
		c.TP, c.TN, c.FP, c.FN, c.Accuracy(), c.Precision(), c.Recall(), c.F1())
}

func mustSameLen(a, b []float64, op string) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: %s length mismatch %d vs %d", op, len(a), len(b)))
	}
}
