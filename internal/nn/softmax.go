package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// SoftmaxCE fuses a softmax with categorical cross-entropy for multi-class
// heads — used by the activity-recognition and occupant-counting extensions
// (the paper's stated future work: "an ML model that simultaneously performs
// occupancy detection and activity recognition"). The network's last Dense
// layer emits one logit per class; targets are one-hot rows.
//
// ClassWeights, when non-nil, rescales each sample's loss by the weight of
// its true class — the standard counter to class imbalance (walking bouts
// are a few percent of office samples, so the unweighted objective happily
// ignores them). Use InverseFrequencyWeights to derive balanced weights.
type SoftmaxCE struct {
	ClassWeights []float64
}

func (s SoftmaxCE) weight(targetRow []float64) float64 {
	if s.ClassWeights == nil {
		return 1
	}
	for j, y := range targetRow {
		if y != 0 && j < len(s.ClassWeights) {
			return s.ClassWeights[j] * y
		}
	}
	return 1
}

// Value implements Loss: mean weighted −log p(target class), computed with
// the log-sum-exp trick.
func (s SoftmaxCE) Value(pred, target *tensor.Matrix) float64 {
	mustLossShapes(pred, target, "SoftmaxCE")
	if pred.Rows == 0 {
		return 0
	}
	var total float64
	for i := 0; i < pred.Rows; i++ {
		logits := pred.Row(i)
		lse := logSumExp(logits)
		w := s.weight(target.Row(i))
		for j, y := range target.Row(i) {
			if y != 0 {
				total += w * y * (lse - logits[j])
			}
		}
	}
	return total / float64(pred.Rows)
}

// Grad implements Loss: w·(softmax(z) − y)/n.
func (s SoftmaxCE) Grad(dst, pred, target *tensor.Matrix) *tensor.Matrix {
	mustLossShapes(pred, target, "SoftmaxCE")
	out := gradDst(dst, pred, "SoftmaxCE")
	if pred.Rows == 0 {
		return out
	}
	inv := 1 / float64(pred.Rows)
	for i := 0; i < pred.Rows; i++ {
		p := Softmax(pred.Row(i))
		ti := target.Row(i)
		oi := out.Row(i)
		w := s.weight(ti) * inv
		for j := range p {
			oi[j] = (p[j] - ti[j]) * w
		}
	}
	return out
}

// InverseFrequencyWeights returns per-class weights proportional to
// 1/frequency, normalised to mean 1, so rare classes contribute as much
// total gradient as common ones. Classes absent from labels get weight 1.
func InverseFrequencyWeights(labels []int, numClasses int) []float64 {
	counts := make([]int, numClasses)
	for _, l := range labels {
		if l >= 0 && l < numClasses {
			counts[l]++
		}
	}
	w := make([]float64, numClasses)
	var sum float64
	present := 0
	for c, n := range counts {
		if n > 0 {
			w[c] = float64(len(labels)) / float64(n)
			sum += w[c]
			present++
		}
	}
	if present == 0 {
		for c := range w {
			w[c] = 1
		}
		return w
	}
	mean := sum / float64(present)
	for c := range w {
		if w[c] == 0 {
			w[c] = 1
		} else {
			w[c] /= mean
		}
	}
	return w
}

// Softmax returns the softmax of logits as a fresh slice, stable under
// large magnitudes.
func Softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	if len(logits) == 0 {
		return out
	}
	mx := logits[0]
	for _, v := range logits[1:] {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - mx)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func logSumExp(logits []float64) float64 {
	mx := logits[0]
	for _, v := range logits[1:] {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for _, v := range logits {
		sum += math.Exp(v - mx)
	}
	return mx + math.Log(sum)
}

// PredictClasses runs inference and returns the argmax class per row for a
// multi-logit head.
func (n *Network) PredictClasses(x *tensor.Matrix) []int {
	out := n.Forward(x, false)
	if out.Cols < 2 {
		panic(fmt.Sprintf("nn: PredictClasses needs ≥2 logits, got %d", out.Cols))
	}
	classes := make([]int, out.Rows)
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		classes[i] = best
	}
	return classes
}

// OneHot encodes integer labels (0..numClasses-1) as a one-hot matrix.
func OneHot(labels []int, numClasses int) *tensor.Matrix {
	m := tensor.NewMatrix(len(labels), numClasses)
	for i, c := range labels {
		if c < 0 || c >= numClasses {
			panic(fmt.Sprintf("nn: OneHot label %d out of [0,%d)", c, numClasses))
		}
		m.Set(i, c, 1)
	}
	return m
}
