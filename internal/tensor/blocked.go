package tensor

// Cache-blocked matmul kernel. The flat ikj kernel in tensor.go streams the
// destination row (n doubles) plus four rows of b (4n doubles) through L1 on
// every k step, and walks the *entire* k×n panel of b once per row of a. For
// the small matrices training hits (≤256×256, b ≤ 512 KB) that is optimal —
// everything lives in L2 and the 4-wide unroll is bandwidth-bound on L1 only.
// Once b outgrows L2, each row of a re-reads b from L3/DRAM; the blocked
// kernel below tiles (i, k, j) so one k×j panel of b is reused across a whole
// block of a-rows before moving on. The win is bounded by how memory-bound
// the scalar 4-wide kernel actually is: on the 2.1 GHz Xeon vCPU this repo is
// benchmarked on (BenchmarkMatMulLarge{Blocked,Flat}, 256×1024×1024) the
// kernel is close to compute-bound and blocking buys ~7%; on wider-SIMD or
// smaller-cache parts the gap grows. The dispatch in MatMul only selects the
// blocked kernel above matmulBlockThresholdBytes, where it never loses.
//
// Bit-identity contract: for every output element (i, j) the multiply-adds
// accumulate in ascending k with exactly the same 4-wide groupings as
// matmulRange — block edges are multiples of 4, each full group is summed in
// one FMA-shaped statement `di[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] +
// a3*b3[j]`, and the scalar tail only ever appears at k = kMax&^3. Blocking
// therefore changes the *traversal* order (which (i,j,k) triples run when)
// but never the *accumulation* order within an element, so results are bit
// for bit identical to the flat kernel — the property every determinism
// guarantee in this repo (parallel grid, robustness sweep, concurrent serving)
// is built on. TestMatMulBlockedBitIdentical enforces it.

const (
	// blockI is the a-row tile: enough rows to amortise streaming one k×j
	// panel of b before moving to the next panel.
	blockI = 128
	// blockK is the b-row tile. MUST be a multiple of 4 so the 4-wide
	// k-groupings inside a tile match the flat kernel's (see above). With
	// blockJ it bounds the live b panel at 128×512×8 = 512 KB — resident in
	// a 1 MB L2 with room for the destination and a-row tiles.
	blockK = 128
	// blockJ is the b-column tile: 512 doubles = 4 KB per row segment, so a
	// destination segment plus four b-row segments stay within L1.
	blockJ = 512
	// matmulBlockThresholdBytes selects the blocked kernel once the k×n
	// panel of b no longer fits in a private L2 (1 MB with headroom for dst
	// and a). Below it the flat kernel's lower loop overhead wins.
	matmulBlockThresholdBytes = 1 << 20
)

// matmulUseBlocked reports whether the blocked kernel should handle an
// a-rows × (k×n panel of b) multiply.
func matmulUseBlocked(rows, k, n int) bool {
	return rows >= 2 && k*n*8 > matmulBlockThresholdBytes
}

// matmulRangeBlocked computes rows [lo,hi) of dst += a×b with (i,k,j)
// tiling. dst rows in [lo,hi) must be zeroed on entry (MatMul does this),
// matching the flat kernel's contract.
func matmulRangeBlocked(dst, a, b *Matrix, lo, hi int) {
	n := b.Cols
	kMax := a.Cols
	for i0 := lo; i0 < hi; i0 += blockI {
		i1 := mini(i0+blockI, hi)
		for k0 := 0; k0 < kMax; k0 += blockK {
			k1 := mini(k0+blockK, kMax)
			for j0 := 0; j0 < n; j0 += blockJ {
				j1 := mini(j0+blockJ, n)
				for i := i0; i < i1; i++ {
					ai := a.Row(i)
					di := dst.Data[i*n+j0 : i*n+j1]
					k := k0
					for ; k+4 <= k1; k += 4 {
						a0, a1, a2, a3 := ai[k], ai[k+1], ai[k+2], ai[k+3]
						if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
							continue
						}
						b0 := b.Data[k*n+j0 : k*n+j1]
						b1 := b.Data[(k+1)*n+j0 : (k+1)*n+j1]
						b2 := b.Data[(k+2)*n+j0 : (k+2)*n+j1]
						b3 := b.Data[(k+3)*n+j0 : (k+3)*n+j1]
						for j := range di {
							di[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
						}
					}
					for ; k < k1; k++ {
						av := ai[k]
						if av == 0 {
							continue
						}
						bk := b.Data[k*n+j0 : k*n+j1]
						for j := range di {
							di[j] += av * bk[j]
						}
					}
				}
			}
		}
	}
}

// RowMatMulInto computes dst = row·b + bias for a single sample without any
// Matrix wrapping — the fused fast path the inference arena uses for the
// 1×N case the 20 Hz stream runtime hits on every frame. bias may be nil.
// len(row) must equal b.Rows and len(dst) must equal b.Cols; dst must not
// alias row or b.Data.
//
// The accumulation is the flat kernel's row loop verbatim (ascending k,
// 4-wide groupings, scalar tail at kMax&^3), so the result is bit-identical
// to MatMul(nil, FromSlice(1, len(row), row), b) regardless of which kernel
// MatMul itself would dispatch to — the blocked kernel above preserves the
// same per-element order.
func RowMatMulInto(dst, row []float64, b *Matrix, bias []float64) {
	if len(row) != b.Rows {
		panic("tensor: RowMatMulInto inner dims")
	}
	if len(dst) != b.Cols {
		panic("tensor: RowMatMulInto dst length")
	}
	n := b.Cols
	for j := range dst {
		dst[j] = 0
	}
	kMax := len(row)
	k := 0
	for ; k+4 <= kMax; k += 4 {
		a0, a1, a2, a3 := row[k], row[k+1], row[k+2], row[k+3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		b0 := b.Data[k*n : k*n+n]
		b1 := b.Data[(k+1)*n : (k+1)*n+n]
		b2 := b.Data[(k+2)*n : (k+2)*n+n]
		b3 := b.Data[(k+3)*n : (k+3)*n+n]
		for j := range dst {
			dst[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for ; k < kMax; k++ {
		av := row[k]
		if av == 0 {
			continue
		}
		bk := b.Data[k*n : k*n+n]
		for j := range dst {
			dst[j] += av * bk[j]
		}
	}
	if bias != nil {
		if len(bias) != n {
			panic("tensor: RowMatMulInto bias length")
		}
		for j, v := range bias {
			dst[j] += v
		}
	}
}

func mini(a, b int) int {
	if a < b {
		return a
	}
	return b
}
