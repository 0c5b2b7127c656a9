package tensor

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b, which must have equal length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes dst += s*src element-wise.
func Axpy(dst []float64, s float64, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] += s * v
	}
}

// ScaleVec multiplies every element of v by s in place.
func ScaleVec(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// MatVec computes m×v, returning a new vector of length m.Rows.
func MatVec(m *Matrix, v []float64) []float64 {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVec len %d != cols %d", len(v), m.Cols))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), v)
	}
	return out
}

// Clamp limits x to the interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
