// Package rf implements CART decision trees and random forests (bootstrap
// bagging + random feature subsets), the paper's strongest non-neural
// baseline in Table IV. Both classification (Gini impurity) and regression
// (variance reduction) trees are provided; forests train their trees in
// parallel across goroutines.
package rf

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/tensor"
)

// node is one tree node. Leaves have feature == -1.
type node struct {
	feature   int     // split feature, -1 for leaf
	threshold float64 // go left when x[feature] <= threshold
	left      int     // child indices into Tree.nodes
	right     int
	value     float64 // leaf: class-1 probability (clf) or mean target (reg)
	samples   int
}

// Tree is a single CART tree stored as a flat node arena.
type Tree struct {
	nodes      []node
	regression bool
}

// TreeConfig bounds tree growth.
type TreeConfig struct {
	MaxDepth int // <=0 means unlimited
	MinLeaf  int // minimum samples per leaf (default 1)
	MTry     int // features examined per split; <=0 means all
}

// Validate reports whether the bounds are usable. MaxDepth and MTry use
// <= 0 as "unlimited"/"all features", so only truly contradictory values
// fail.
func (c TreeConfig) Validate() error {
	if c.MinLeaf < 0 {
		return fmt.Errorf("rf: negative MinLeaf %d", c.MinLeaf)
	}
	return nil
}

type builder struct {
	x    *tensor.Matrix
	y    []float64
	cfg  TreeConfig
	rng  *rand.Rand
	tree *Tree
	feat []int // scratch: candidate feature order

	// scratch buffers reused across nodes
	order []int
}

// BuildTree grows a classification tree on rows idx of x with labels y in
// {0,1}. Pass regression=true to grow a regression tree on real-valued y.
func BuildTree(x *tensor.Matrix, y []float64, idx []int, cfg TreeConfig, regression bool, rng *rand.Rand) *Tree {
	if x.Rows != len(y) {
		panic(fmt.Sprintf("rf: BuildTree rows %d != labels %d", x.Rows, len(y)))
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	if cfg.MTry <= 0 || cfg.MTry > x.Cols {
		cfg.MTry = x.Cols
	}
	t := &Tree{regression: regression}
	b := &builder{x: x, y: y, cfg: cfg, rng: rng, tree: t}
	b.feat = make([]int, x.Cols)
	for i := range b.feat {
		b.feat[i] = i
	}
	if len(idx) == 0 {
		// Degenerate: a single leaf predicting 0.
		t.nodes = append(t.nodes, node{feature: -1})
		return t
	}
	own := make([]int, len(idx))
	copy(own, idx)
	b.grow(own, 0)
	return t
}

// leafValue computes the prediction stored at a leaf.
func (b *builder) leafValue(idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += b.y[i]
	}
	return s / float64(len(idx))
}

// grow recursively builds the subtree for idx and returns its node index.
func (b *builder) grow(idx []int, depth int) int {
	mean := b.leafValue(idx)
	makeLeaf := func() int {
		b.tree.nodes = append(b.tree.nodes, node{feature: -1, value: mean, samples: len(idx)})
		return len(b.tree.nodes) - 1
	}
	if len(idx) < 2*b.cfg.MinLeaf {
		return makeLeaf()
	}
	if b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth {
		return makeLeaf()
	}
	pure := mean == 0 || mean == 1
	if !b.tree.regression && pure {
		return makeLeaf()
	}

	bestFeat, bestThr, bestGain := -1, 0.0, -1.0
	// Random feature subset of size MTry.
	b.rng.Shuffle(len(b.feat), func(i, j int) { b.feat[i], b.feat[j] = b.feat[j], b.feat[i] })
	for _, f := range b.feat[:b.cfg.MTry] {
		thr, gain, ok := b.bestSplit(idx, f)
		if ok && gain >= 0 && gain > bestGain {
			bestFeat, bestThr, bestGain = f, thr, gain
		}
	}
	if bestFeat < 0 {
		return makeLeaf()
	}

	// Partition idx in place.
	lo, hi := 0, len(idx)
	for lo < hi {
		if b.x.At(idx[lo], bestFeat) <= bestThr {
			lo++
		} else {
			hi--
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
	}
	if lo == 0 || lo == len(idx) {
		return makeLeaf() // numerically degenerate split
	}

	self := len(b.tree.nodes)
	b.tree.nodes = append(b.tree.nodes, node{feature: bestFeat, threshold: bestThr, samples: len(idx)})
	left := b.grow(idx[:lo], depth+1)
	right := b.grow(idx[lo:], depth+1)
	b.tree.nodes[self].left = left
	b.tree.nodes[self].right = right
	return self
}

// bestSplit scans all split points of feature f over idx, returning the best
// threshold and its impurity gain.
func (b *builder) bestSplit(idx []int, f int) (thr, gain float64, ok bool) {
	n := len(idx)
	if cap(b.order) < n {
		b.order = make([]int, n)
	}
	order := b.order[:n]
	copy(order, idx)
	sort.Slice(order, func(i, j int) bool { return b.x.At(order[i], f) < b.x.At(order[j], f) })

	// Prefix sums of y and y² along the sorted order.
	var totalSum, totalSq float64
	for _, i := range order {
		totalSum += b.y[i]
		totalSq += b.y[i] * b.y[i]
	}
	parentImp := impurity(totalSum, totalSq, float64(n), b.tree.regression)

	var leftSum, leftSq float64
	best := math.Inf(-1)
	minLeaf := b.cfg.MinLeaf
	for k := 0; k < n-1; k++ {
		yi := b.y[order[k]]
		leftSum += yi
		leftSq += yi * yi
		nl := k + 1
		nr := n - nl
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		xv := b.x.At(order[k], f)
		xn := b.x.At(order[k+1], f)
		if xv == xn {
			continue // cannot split between equal values
		}
		li := impurity(leftSum, leftSq, float64(nl), b.tree.regression)
		ri := impurity(totalSum-leftSum, totalSq-leftSq, float64(nr), b.tree.regression)
		g := parentImp - (float64(nl)*li+float64(nr)*ri)/float64(n)
		if g > best {
			best = g
			thr = (xv + xn) / 2
		}
	}
	// Zero-gain splits are kept (matching scikit-learn, which grows until
	// leaves are pure or a structural bound is hit); negative gain or no
	// admissible split point means the node becomes a leaf.
	if math.IsInf(best, -1) || best < 0 {
		return 0, 0, false
	}
	return thr, best, true
}

// impurity computes Gini (classification, y ∈ {0,1}) or variance
// (regression) from streaming sums.
func impurity(sum, sq, n float64, regression bool) float64 {
	if n == 0 {
		return 0
	}
	if regression {
		mean := sum / n
		return sq/n - mean*mean
	}
	p := sum / n
	return 2 * p * (1 - p)
}

// PredictValue returns the raw leaf value for one sample: class-1
// probability for classification trees, mean target for regression trees.
func (t *Tree) PredictValue(row []float64) float64 {
	i := 0
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd.value
		}
		if row[nd.feature] <= nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}
