//go:build amd64

#include "textflag.h"

// AVX2 and AVX-512 kernels (DESIGN.md §14). These implement the same operations as the
// pure-Go kernels in simd.go, f32.go and tensor.go with vector arithmetic:
//
//   - sparseAxpyF32AVX2       dst[j] += Σ_k val[k] · w[idx[k]*n + j]   (f32)
//   - denseRowMatMulF32AVX2   dst[j] += Σ_k a[k]   · b[k*n + j]        (f32)
//   - sparseDequantAxpyI8AVX2 dst[j] += Σ_k val[k] · f32(w[idx[k]*n+j]) (s8 weights)
//   - quantMaddU7I8AVX2       dst[j] += Σ_g Σ_r act[4g+r] · packed[(g*n+j)*4+r] (u7×s8, i32)
//   - axpy4F64AVX2            per pass: dst[j] += a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j] (f64, exact)
//   - dot4x4F64AVX2           per block: out[r] = Σ_k a[k] · b[r*stride + k], r = 0..3  (f64, exact)
//   - axpy4F64AVX512          axpy4F64AVX2 on 512-bit registers (f64, exact; AVX512F)
//   - dot2x4F64AVX512         dot4x4F64AVX2 for two rows of a at once (f64, exact; AVX512F)
//   - reluCompactF32AVX2      (idx, val) ← { (k, src[k]) : src[k] > 0 },  count  (f32, exact)
//   - compactNonzeroF32AVX2   (idx, val) ← { (k, src[k]) : src[k] != 0 }, count  (f32, exact)
//   - phasorSumAVX2           re[k] + i·im[k] = Σ_r G_r · Rect(Att_r, (w[k]·τ_r + base_r) + extra_r) (f64, exact)
//
// The float32 kernels accumulate with VFMADD231PS in 4-row groups, so
// sums are grouped (and fused) differently from the scalar kernels — results
// diverge boundedly and are gated by the tensor parity tests and
// core.RunDivergence, never assumed bit-identical. The integer kernel is
// exact: as long as every act byte is ≤ 127 (the U7 contract), VPMADDUBSW
// cannot saturate and the result equals the pure-Go int32 arithmetic bit for
// bit. The float64 kernels after them are exact too, because they fuse
// nothing, the compaction kernels because they compute nothing — they
// compare and move — and the phasor sum at the end of the file because it
// performs math.Sincos's operations in math.Sincos's order; see the notes
// above each.
//
// Register conventions shared by the float32 kernels:
//   DI  dst base          SI  weight/matrix base
//   BX  n (columns)       CX  remaining k count
//   R12 idx cursor        R13 val / a cursor
//   R14 row stride bytes  R8–R11 current row pointers
//   AX  column index j    DX  loop-bound scratch
//   Y12–Y15 broadcast multipliers, Y0–Y3 column accumulators

// func sparseAxpyF32AVX2(dst *float32, n int, w *float32, idx *int32, val *float32, nz int)
TEXT ·sparseAxpyF32AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), BX
	MOVQ w+16(FP), SI
	MOVQ idx+24(FP), R12
	MOVQ val+32(FP), R13
	MOVQ nz+40(FP), CX
	MOVQ BX, R14
	SHLQ $2, R14                  // stride = n * sizeof(float32)

sp4_loop:
	CMPQ CX, $4
	JLT  sp1_loop
	MOVLQSX (R12), AX
	IMULQ   R14, AX
	LEAQ    (SI)(AX*1), R8
	MOVLQSX 4(R12), AX
	IMULQ   R14, AX
	LEAQ    (SI)(AX*1), R9
	MOVLQSX 8(R12), AX
	IMULQ   R14, AX
	LEAQ    (SI)(AX*1), R10
	MOVLQSX 12(R12), AX
	IMULQ   R14, AX
	LEAQ    (SI)(AX*1), R11
	VBROADCASTSS (R13), Y12
	VBROADCASTSS 4(R13), Y13
	VBROADCASTSS 8(R13), Y14
	VBROADCASTSS 12(R13), Y15
	XORQ AX, AX

sp4_j32:
	LEAQ 32(AX), DX
	CMPQ DX, BX
	JGT  sp4_j8
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), Y1
	VMOVUPS 64(DI)(AX*4), Y2
	VMOVUPS 96(DI)(AX*4), Y3
	VFMADD231PS (R8)(AX*4), Y12, Y0
	VFMADD231PS 32(R8)(AX*4), Y12, Y1
	VFMADD231PS 64(R8)(AX*4), Y12, Y2
	VFMADD231PS 96(R8)(AX*4), Y12, Y3
	VFMADD231PS (R9)(AX*4), Y13, Y0
	VFMADD231PS 32(R9)(AX*4), Y13, Y1
	VFMADD231PS 64(R9)(AX*4), Y13, Y2
	VFMADD231PS 96(R9)(AX*4), Y13, Y3
	VFMADD231PS (R10)(AX*4), Y14, Y0
	VFMADD231PS 32(R10)(AX*4), Y14, Y1
	VFMADD231PS 64(R10)(AX*4), Y14, Y2
	VFMADD231PS 96(R10)(AX*4), Y14, Y3
	VFMADD231PS (R11)(AX*4), Y15, Y0
	VFMADD231PS 32(R11)(AX*4), Y15, Y1
	VFMADD231PS 64(R11)(AX*4), Y15, Y2
	VFMADD231PS 96(R11)(AX*4), Y15, Y3
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4)
	VMOVUPS Y3, 96(DI)(AX*4)
	ADDQ $32, AX
	JMP  sp4_j32

sp4_j8:
	LEAQ 8(AX), DX
	CMPQ DX, BX
	JGT  sp4_jtail
	VMOVUPS (DI)(AX*4), Y0
	VFMADD231PS (R8)(AX*4), Y12, Y0
	VFMADD231PS (R9)(AX*4), Y13, Y0
	VFMADD231PS (R10)(AX*4), Y14, Y0
	VFMADD231PS (R11)(AX*4), Y15, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	JMP  sp4_j8

sp4_jtail:
	CMPQ AX, BX
	JGE  sp4_next
	VMOVSS (DI)(AX*4), X0
	VFMADD231SS (R8)(AX*4), X12, X0
	VFMADD231SS (R9)(AX*4), X13, X0
	VFMADD231SS (R10)(AX*4), X14, X0
	VFMADD231SS (R11)(AX*4), X15, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ AX
	JMP  sp4_jtail

sp4_next:
	ADDQ $16, R12
	ADDQ $16, R13
	SUBQ $4, CX
	JMP  sp4_loop

sp1_loop:
	TESTQ CX, CX
	JLE   sp_done
	MOVLQSX (R12), AX
	IMULQ   R14, AX
	LEAQ    (SI)(AX*1), R8
	VBROADCASTSS (R13), Y12
	XORQ AX, AX

sp1_j8:
	LEAQ 8(AX), DX
	CMPQ DX, BX
	JGT  sp1_jtail
	VMOVUPS (DI)(AX*4), Y0
	VFMADD231PS (R8)(AX*4), Y12, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	JMP  sp1_j8

sp1_jtail:
	CMPQ AX, BX
	JGE  sp1_next
	VMOVSS (DI)(AX*4), X0
	VFMADD231SS (R8)(AX*4), X12, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ AX
	JMP  sp1_jtail

sp1_next:
	ADDQ $4, R12
	ADDQ $4, R13
	DECQ CX
	JMP  sp1_loop

sp_done:
	VZEROUPPER
	RET

// func denseRowMatMulF32AVX2(dst *float32, n int, a *float32, kMax int, b *float32)
// dst must be zeroed (or pre-biased) by the caller; b rows are consumed in
// ascending k, four at a time.
TEXT ·denseRowMatMulF32AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), BX
	MOVQ a+16(FP), R13
	MOVQ kMax+24(FP), CX
	MOVQ b+32(FP), SI
	MOVQ BX, R14
	SHLQ $2, R14

dn4_loop:
	CMPQ CX, $4
	JLT  dn1_loop
	MOVQ SI, R8
	LEAQ (R8)(R14*1), R9
	LEAQ (R9)(R14*1), R10
	LEAQ (R10)(R14*1), R11
	VBROADCASTSS (R13), Y12
	VBROADCASTSS 4(R13), Y13
	VBROADCASTSS 8(R13), Y14
	VBROADCASTSS 12(R13), Y15
	XORQ AX, AX

dn4_j32:
	LEAQ 32(AX), DX
	CMPQ DX, BX
	JGT  dn4_j8
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), Y1
	VMOVUPS 64(DI)(AX*4), Y2
	VMOVUPS 96(DI)(AX*4), Y3
	VFMADD231PS (R8)(AX*4), Y12, Y0
	VFMADD231PS 32(R8)(AX*4), Y12, Y1
	VFMADD231PS 64(R8)(AX*4), Y12, Y2
	VFMADD231PS 96(R8)(AX*4), Y12, Y3
	VFMADD231PS (R9)(AX*4), Y13, Y0
	VFMADD231PS 32(R9)(AX*4), Y13, Y1
	VFMADD231PS 64(R9)(AX*4), Y13, Y2
	VFMADD231PS 96(R9)(AX*4), Y13, Y3
	VFMADD231PS (R10)(AX*4), Y14, Y0
	VFMADD231PS 32(R10)(AX*4), Y14, Y1
	VFMADD231PS 64(R10)(AX*4), Y14, Y2
	VFMADD231PS 96(R10)(AX*4), Y14, Y3
	VFMADD231PS (R11)(AX*4), Y15, Y0
	VFMADD231PS 32(R11)(AX*4), Y15, Y1
	VFMADD231PS 64(R11)(AX*4), Y15, Y2
	VFMADD231PS 96(R11)(AX*4), Y15, Y3
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4)
	VMOVUPS Y3, 96(DI)(AX*4)
	ADDQ $32, AX
	JMP  dn4_j32

dn4_j8:
	LEAQ 8(AX), DX
	CMPQ DX, BX
	JGT  dn4_jtail
	VMOVUPS (DI)(AX*4), Y0
	VFMADD231PS (R8)(AX*4), Y12, Y0
	VFMADD231PS (R9)(AX*4), Y13, Y0
	VFMADD231PS (R10)(AX*4), Y14, Y0
	VFMADD231PS (R11)(AX*4), Y15, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	JMP  dn4_j8

dn4_jtail:
	CMPQ AX, BX
	JGE  dn4_next
	VMOVSS (DI)(AX*4), X0
	VFMADD231SS (R8)(AX*4), X12, X0
	VFMADD231SS (R9)(AX*4), X13, X0
	VFMADD231SS (R10)(AX*4), X14, X0
	VFMADD231SS (R11)(AX*4), X15, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ AX
	JMP  dn4_jtail

dn4_next:
	LEAQ (R11)(R14*1), SI
	ADDQ $16, R13
	SUBQ $4, CX
	JMP  dn4_loop

dn1_loop:
	TESTQ CX, CX
	JLE   dn_done
	MOVQ SI, R8
	VBROADCASTSS (R13), Y12
	XORQ AX, AX

dn1_j8:
	LEAQ 8(AX), DX
	CMPQ DX, BX
	JGT  dn1_jtail
	VMOVUPS (DI)(AX*4), Y0
	VFMADD231PS (R8)(AX*4), Y12, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	JMP  dn1_j8

dn1_jtail:
	CMPQ AX, BX
	JGE  dn1_next
	VMOVSS (DI)(AX*4), X0
	VFMADD231SS (R8)(AX*4), X12, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ AX
	JMP  dn1_jtail

dn1_next:
	ADDQ R14, SI
	ADDQ $4, R13
	DECQ CX
	JMP  dn1_loop

dn_done:
	VZEROUPPER
	RET

// func sparseDequantAxpyI8AVX2(dst *float32, n int, w *int8, idx *int32, val *float32, nz int)
// int8 weight rows are widened 8 lanes at a time (VPMOVSXBD + VCVTDQ2PS)
// and folded into the float32 accumulator with FMA — the vector form of the
// scalar per-weight widening that made the pure-Go int8 path slower than
// f32 (DESIGN.md §12).
TEXT ·sparseDequantAxpyI8AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), BX
	MOVQ w+16(FP), SI
	MOVQ idx+24(FP), R12
	MOVQ val+32(FP), R13
	MOVQ nz+40(FP), CX
	MOVQ BX, R14                  // stride = n * sizeof(int8)

dq4_loop:
	CMPQ CX, $4
	JLT  dq1_loop
	MOVLQSX (R12), AX
	IMULQ   R14, AX
	LEAQ    (SI)(AX*1), R8
	MOVLQSX 4(R12), AX
	IMULQ   R14, AX
	LEAQ    (SI)(AX*1), R9
	MOVLQSX 8(R12), AX
	IMULQ   R14, AX
	LEAQ    (SI)(AX*1), R10
	MOVLQSX 12(R12), AX
	IMULQ   R14, AX
	LEAQ    (SI)(AX*1), R11
	VBROADCASTSS (R13), Y12
	VBROADCASTSS 4(R13), Y13
	VBROADCASTSS 8(R13), Y14
	VBROADCASTSS 12(R13), Y15
	XORQ AX, AX

dq4_j8:
	LEAQ 8(AX), DX
	CMPQ DX, BX
	JGT  dq4_jtail
	VMOVUPS (DI)(AX*4), Y0
	VPMOVSXBD (R8)(AX*1), Y4
	VCVTDQ2PS Y4, Y4
	VFMADD231PS Y4, Y12, Y0
	VPMOVSXBD (R9)(AX*1), Y5
	VCVTDQ2PS Y5, Y5
	VFMADD231PS Y5, Y13, Y0
	VPMOVSXBD (R10)(AX*1), Y4
	VCVTDQ2PS Y4, Y4
	VFMADD231PS Y4, Y14, Y0
	VPMOVSXBD (R11)(AX*1), Y5
	VCVTDQ2PS Y5, Y5
	VFMADD231PS Y5, Y15, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	JMP  dq4_j8

dq4_jtail:
	CMPQ AX, BX
	JGE  dq4_next
	VMOVSS (DI)(AX*4), X0
	MOVBLSX (R8)(AX*1), DX
	VCVTSI2SSL DX, X4, X4
	VFMADD231SS X4, X12, X0
	MOVBLSX (R9)(AX*1), DX
	VCVTSI2SSL DX, X4, X4
	VFMADD231SS X4, X13, X0
	MOVBLSX (R10)(AX*1), DX
	VCVTSI2SSL DX, X4, X4
	VFMADD231SS X4, X14, X0
	MOVBLSX (R11)(AX*1), DX
	VCVTSI2SSL DX, X4, X4
	VFMADD231SS X4, X15, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ AX
	JMP  dq4_jtail

dq4_next:
	ADDQ $16, R12
	ADDQ $16, R13
	SUBQ $4, CX
	JMP  dq4_loop

dq1_loop:
	TESTQ CX, CX
	JLE   dq_done
	MOVLQSX (R12), AX
	IMULQ   R14, AX
	LEAQ    (SI)(AX*1), R8
	VBROADCASTSS (R13), Y12
	XORQ AX, AX

dq1_j8:
	LEAQ 8(AX), DX
	CMPQ DX, BX
	JGT  dq1_jtail
	VMOVUPS (DI)(AX*4), Y0
	VPMOVSXBD (R8)(AX*1), Y4
	VCVTDQ2PS Y4, Y4
	VFMADD231PS Y4, Y12, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	JMP  dq1_j8

dq1_jtail:
	CMPQ AX, BX
	JGE  dq1_next
	VMOVSS (DI)(AX*4), X0
	MOVBLSX (R8)(AX*1), DX
	VCVTSI2SSL DX, X4, X4
	VFMADD231SS X4, X12, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ AX
	JMP  dq1_jtail

dq1_next:
	ADDQ $4, R12
	ADDQ $4, R13
	DECQ CX
	JMP  dq1_loop

dq_done:
	VZEROUPPER
	RET

// func quantMaddU7I8AVX2(dst *int32, n int, packed *int8, act *uint8, groups int)
// The VPMADDUBSW/VPMADDWD int8 dot-product kernel. packed holds the weight
// matrix in k-quad layout (tensor.PackI8KQuad): group g stores, for every
// output column j, the four consecutive-k weights w[4g..4g+3][j] as adjacent
// bytes. One VPMADDUBSW against the broadcast activation quad produces
// a[4g]·w[4g][j] + a[4g+1]·w[4g+1][j] in even int16 lanes and the remaining
// pair in odd lanes; VPMADDWD against words of 1 folds the pair into one
// int32 per column. act bytes must be ≤ 127 so the int16 stage cannot
// saturate (127·127·2 = 32258 < 32767) — quantMaddU7I8Generic is then
// bit-identical.
//
// Registers: DI dst, BX n, SI packed group base, R13 act cursor, CX groups,
// R14 group stride (n·4), R8–R11 the group's four act bytes (scalar tail),
// Y6 broadcast act quad, Y7 words of 1, R12/R15/DX scalar scratch.
TEXT ·quantMaddU7I8AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), BX
	MOVQ packed+16(FP), SI
	MOVQ act+24(FP), R13
	MOVQ groups+32(FP), CX
	MOVQ BX, R14
	SHLQ $2, R14
	VPCMPEQW Y7, Y7, Y7
	VPSRLW $15, Y7, Y7            // 16 × int16(1)

qm_gloop:
	TESTQ CX, CX
	JLE   qm_done
	VPBROADCASTD (R13), Y6
	MOVBLZX (R13), R8
	MOVBLZX 1(R13), R9
	MOVBLZX 2(R13), R10
	MOVBLZX 3(R13), R11
	XORQ AX, AX

qm_j8:
	LEAQ 8(AX), DX
	CMPQ DX, BX
	JGT  qm_jtail
	VMOVDQU (SI)(AX*4), Y4
	VPMADDUBSW Y4, Y6, Y5
	VPMADDWD Y7, Y5, Y5
	VPADDD (DI)(AX*4), Y5, Y5
	VMOVDQU Y5, (DI)(AX*4)
	ADDQ $8, AX
	JMP  qm_j8

qm_jtail:
	CMPQ AX, BX
	JGE  qm_gnext
	LEAQ (SI)(AX*4), DX
	MOVBLSX (DX), R15
	IMULL R8, R15
	MOVBLSX 1(DX), R12
	IMULL R9, R12
	ADDL  R12, R15
	MOVBLSX 2(DX), R12
	IMULL R10, R12
	ADDL  R12, R15
	MOVBLSX 3(DX), R12
	IMULL R11, R12
	ADDL  R12, R15
	ADDL  R15, (DI)(AX*4)
	INCQ AX
	JMP  qm_jtail

qm_gnext:
	ADDQ R14, SI
	ADDQ $4, R13
	DECQ CX
	JMP  qm_gloop

qm_done:
	VZEROUPPER
	RET

// Exact float64 training kernels. Unlike the float32 kernels above these use
// separate VMULPD and VADDPD — no VFMADD — and add in the order of the Go
// statement they replace, so every lane rounds exactly as the scalar code
// does and results are bit-identical to the generic loops (axpy4F64 and
// matmulABTRange in tensor.go). Do not "optimise" a multiply/add pair here
// into a fused instruction: trained weights, checkpoints and every golden
// depend on the two roundings. Each kernel loops over its blocks itself, so
// a whole matmul row (or a whole row range of one k-block) costs one call.

// func axpy4F64AVX2(dst *float64, dstStride, n int, b *float64, bStride int, a *float64, aLane, aStride, passes int)
// For p in [0, passes): with a0..a3 = a[p·aStride + l·aLane] (l = 0..3),
// skip the pass if all four are ±0; otherwise, with d = dst + p·dstStride
// and b0..b3 the four consecutive n-wide rows starting at b + p·bStride,
// d[j] += ((a0·b0[j] + a1·b1[j]) + a2·b2[j]) + a3·b3[j] for j in [0,n).
// Strides are in elements. The skip ORs the coefficients' bit patterns and
// shifts the four sign bits out: the result is zero exactly when every
// coefficient is +0 or −0, so a NaN (non-zero mantissa) is never skipped —
// the Go test a0 == 0 && … && a3 == 0, bit for bit.
//
// Registers: DI dst row, BX n, R8 b block, R9–R11 its rows 1–3, SI a block,
// CX passes left, R12 aLane, R13 aStride, R14 dstStride, R15 bStride (all
// four in bytes), AX &a2 then column index j, DX skip test then loop-bound
// scratch, Y12–Y15 broadcast a0..a3, Y0–Y7 sums and products.
TEXT ·axpy4F64AVX2(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R14
	MOVQ n+16(FP), BX
	MOVQ b+24(FP), R8
	MOVQ bStride+32(FP), R15
	MOVQ a+40(FP), SI
	MOVQ aLane+48(FP), R12
	MOVQ aStride+56(FP), R13
	MOVQ passes+64(FP), CX
	SHLQ $3, R12
	SHLQ $3, R13
	SHLQ $3, R14
	SHLQ $3, R15

ax4_pass:
	TESTQ CX, CX
	JLE   ax4_done
	LEAQ  (SI)(R12*2), AX         // &a2
	MOVQ  (SI), DX
	ORQ   (SI)(R12*1), DX
	ORQ   (AX), DX
	ORQ   (AX)(R12*1), DX
	SHLQ  $1, DX                  // sign bits out: zero iff all four are ±0
	JZ    ax4_next
	VBROADCASTSD (SI), Y12
	VBROADCASTSD (SI)(R12*1), Y13
	VBROADCASTSD (AX), Y14
	VBROADCASTSD (AX)(R12*1), Y15
	LEAQ (R8)(BX*8), R9
	LEAQ (R9)(BX*8), R10
	LEAQ (R10)(BX*8), R11
	XORQ AX, AX

ax4_j16:
	LEAQ 16(AX), DX
	CMPQ DX, BX
	JGT  ax4_j4
	VMULPD (R8)(AX*8), Y12, Y0
	VMULPD 32(R8)(AX*8), Y12, Y1
	VMULPD 64(R8)(AX*8), Y12, Y2
	VMULPD 96(R8)(AX*8), Y12, Y3
	VMULPD (R9)(AX*8), Y13, Y4
	VMULPD 32(R9)(AX*8), Y13, Y5
	VMULPD 64(R9)(AX*8), Y13, Y6
	VMULPD 96(R9)(AX*8), Y13, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	VMULPD (R10)(AX*8), Y14, Y4
	VMULPD 32(R10)(AX*8), Y14, Y5
	VMULPD 64(R10)(AX*8), Y14, Y6
	VMULPD 96(R10)(AX*8), Y14, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	VMULPD (R11)(AX*8), Y15, Y4
	VMULPD 32(R11)(AX*8), Y15, Y5
	VMULPD 64(R11)(AX*8), Y15, Y6
	VMULPD 96(R11)(AX*8), Y15, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	VADDPD (DI)(AX*8), Y0, Y0
	VADDPD 32(DI)(AX*8), Y1, Y1
	VADDPD 64(DI)(AX*8), Y2, Y2
	VADDPD 96(DI)(AX*8), Y3, Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ $16, AX
	JMP  ax4_j16

ax4_j4:
	LEAQ 4(AX), DX
	CMPQ DX, BX
	JGT  ax4_jtail
	VMULPD (R8)(AX*8), Y12, Y0
	VMULPD (R9)(AX*8), Y13, Y4
	VADDPD Y4, Y0, Y0
	VMULPD (R10)(AX*8), Y14, Y4
	VADDPD Y4, Y0, Y0
	VMULPD (R11)(AX*8), Y15, Y4
	VADDPD Y4, Y0, Y0
	VADDPD (DI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  ax4_j4

ax4_jtail:
	CMPQ AX, BX
	JGE  ax4_next
	VMULSD (R8)(AX*8), X12, X0
	VMULSD (R9)(AX*8), X13, X4
	VADDSD X4, X0, X0
	VMULSD (R10)(AX*8), X14, X4
	VADDSD X4, X0, X0
	VMULSD (R11)(AX*8), X15, X4
	VADDSD X4, X0, X0
	VADDSD (DI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP  ax4_jtail

ax4_next:
	ADDQ R14, DI
	ADDQ R15, R8
	ADDQ R13, SI
	DECQ CX
	JMP  ax4_pass

ax4_done:
	VZEROUPPER
	RET

// func dot4x4F64AVX2(out *float64, a *float64, b *float64, stride int, k int, blocks int)
// For each of `blocks` blocks: four dot products of a[0:k] against the four
// rows b, b+stride, b+2·stride, b+3·stride (stride in elements) into
// out[0..3], then out advances by 4 and b by four rows. k must be a multiple
// of 4. The four lanes of each accumulator are the scalar kernel's s0..s3 —
// lane l sums the terms with index ≡ l (mod 4) in ascending order — and each
// is reduced as (s0+s1)+(s2+s3). The k%4 tail and the b rows past the last
// whole block are the caller's.
//
// Registers: DI out, SI a, R8–R11 the block's four rows, BX stride, CX k,
// DX blocks left, AX element index, Y0–Y3 accumulators, Y4–Y8 products and a.
TEXT ·dot4x4F64AVX2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ stride+24(FP), BX
	MOVQ k+32(FP), CX
	MOVQ blocks+40(FP), DX

dt_block:
	TESTQ DX, DX
	JLE   dt_done
	LEAQ (R8)(BX*8), R9
	LEAQ (R9)(BX*8), R10
	LEAQ (R10)(BX*8), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

dt_k4:
	CMPQ AX, CX
	JGE  dt_reduce
	VMOVUPD (SI)(AX*8), Y8
	VMULPD (R8)(AX*8), Y8, Y4
	VMULPD (R9)(AX*8), Y8, Y5
	VMULPD (R10)(AX*8), Y8, Y6
	VMULPD (R11)(AX*8), Y8, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	ADDQ $4, AX
	JMP  dt_k4

dt_reduce:
	// Y0 = (A0 A1 A2 A3) … Y3 = (D0 D1 D2 D3), one accumulator per row.
	VHADDPD Y1, Y0, Y4            // A0+A1  B0+B1  A2+A3  B2+B3
	VHADDPD Y3, Y2, Y5            // C0+C1  D0+D1  C2+C3  D2+D3
	VPERM2F128 $0x20, Y5, Y4, Y6  // A0+A1  B0+B1  C0+C1  D0+D1
	VPERM2F128 $0x31, Y5, Y4, Y7  // A2+A3  B2+B3  C2+C3  D2+D3
	VADDPD Y7, Y6, Y6             // (s0+s1)+(s2+s3) per row
	VMOVUPD Y6, (DI)
	ADDQ $32, DI
	LEAQ (R11)(BX*8), R8          // the next block's first row
	DECQ DX
	JMP  dt_block

dt_done:
	VZEROUPPER
	RET

// func axpy4F64AVX512(dst *float64, dstStride, n int, b *float64, bStride int, a *float64, aLane, aStride, passes int)
// axpy4F64AVX2's contract, passes, strides and ±0 group skip on 512-bit
// registers: 32 and then 8 columns a step, each lane doing the ymm kernel's
// VMULPD/VADDPD sequence, then the ymm 4-column step and the scalar tail on
// the low halves of the same broadcasts. AVX512F only, and no register above
// 15, so nothing here needs AVX512VL.
//
// Registers: as axpy4F64AVX2, with Z12–Z15 broadcasting a0..a3 and Z0–Z7
// the sums and products.
TEXT ·axpy4F64AVX512(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R14
	MOVQ n+16(FP), BX
	MOVQ b+24(FP), R8
	MOVQ bStride+32(FP), R15
	MOVQ a+40(FP), SI
	MOVQ aLane+48(FP), R12
	MOVQ aStride+56(FP), R13
	MOVQ passes+64(FP), CX
	SHLQ $3, R12
	SHLQ $3, R13
	SHLQ $3, R14
	SHLQ $3, R15

a5_pass:
	TESTQ CX, CX
	JLE   a5_done
	LEAQ  (SI)(R12*2), AX         // &a2
	MOVQ  (SI), DX
	ORQ   (SI)(R12*1), DX
	ORQ   (AX), DX
	ORQ   (AX)(R12*1), DX
	SHLQ  $1, DX                  // sign bits out: zero iff all four are ±0
	JZ    a5_next
	VBROADCASTSD (SI), Z12
	VBROADCASTSD (SI)(R12*1), Z13
	VBROADCASTSD (AX), Z14
	VBROADCASTSD (AX)(R12*1), Z15
	LEAQ (R8)(BX*8), R9
	LEAQ (R9)(BX*8), R10
	LEAQ (R10)(BX*8), R11
	XORQ AX, AX

a5_j32:
	LEAQ 32(AX), DX
	CMPQ DX, BX
	JGT  a5_j8
	VMULPD (R8)(AX*8), Z12, Z0
	VMULPD 64(R8)(AX*8), Z12, Z1
	VMULPD 128(R8)(AX*8), Z12, Z2
	VMULPD 192(R8)(AX*8), Z12, Z3
	VMULPD (R9)(AX*8), Z13, Z4
	VMULPD 64(R9)(AX*8), Z13, Z5
	VMULPD 128(R9)(AX*8), Z13, Z6
	VMULPD 192(R9)(AX*8), Z13, Z7
	VADDPD Z4, Z0, Z0
	VADDPD Z5, Z1, Z1
	VADDPD Z6, Z2, Z2
	VADDPD Z7, Z3, Z3
	VMULPD (R10)(AX*8), Z14, Z4
	VMULPD 64(R10)(AX*8), Z14, Z5
	VMULPD 128(R10)(AX*8), Z14, Z6
	VMULPD 192(R10)(AX*8), Z14, Z7
	VADDPD Z4, Z0, Z0
	VADDPD Z5, Z1, Z1
	VADDPD Z6, Z2, Z2
	VADDPD Z7, Z3, Z3
	VMULPD (R11)(AX*8), Z15, Z4
	VMULPD 64(R11)(AX*8), Z15, Z5
	VMULPD 128(R11)(AX*8), Z15, Z6
	VMULPD 192(R11)(AX*8), Z15, Z7
	VADDPD Z4, Z0, Z0
	VADDPD Z5, Z1, Z1
	VADDPD Z6, Z2, Z2
	VADDPD Z7, Z3, Z3
	VADDPD (DI)(AX*8), Z0, Z0
	VADDPD 64(DI)(AX*8), Z1, Z1
	VADDPD 128(DI)(AX*8), Z2, Z2
	VADDPD 192(DI)(AX*8), Z3, Z3
	VMOVUPD Z0, (DI)(AX*8)
	VMOVUPD Z1, 64(DI)(AX*8)
	VMOVUPD Z2, 128(DI)(AX*8)
	VMOVUPD Z3, 192(DI)(AX*8)
	ADDQ $32, AX
	JMP  a5_j32

a5_j8:
	LEAQ 8(AX), DX
	CMPQ DX, BX
	JGT  a5_j4
	VMULPD (R8)(AX*8), Z12, Z0
	VMULPD (R9)(AX*8), Z13, Z4
	VADDPD Z4, Z0, Z0
	VMULPD (R10)(AX*8), Z14, Z4
	VADDPD Z4, Z0, Z0
	VMULPD (R11)(AX*8), Z15, Z4
	VADDPD Z4, Z0, Z0
	VADDPD (DI)(AX*8), Z0, Z0
	VMOVUPD Z0, (DI)(AX*8)
	ADDQ $8, AX
	JMP  a5_j8

a5_j4:
	// Fewer than 8 columns are left: at most one ymm step.
	LEAQ 4(AX), DX
	CMPQ DX, BX
	JGT  a5_jtail
	VMULPD (R8)(AX*8), Y12, Y0
	VMULPD (R9)(AX*8), Y13, Y4
	VADDPD Y4, Y0, Y0
	VMULPD (R10)(AX*8), Y14, Y4
	VADDPD Y4, Y0, Y0
	VMULPD (R11)(AX*8), Y15, Y4
	VADDPD Y4, Y0, Y0
	VADDPD (DI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX

a5_jtail:
	CMPQ AX, BX
	JGE  a5_next
	VMULSD (R8)(AX*8), X12, X0
	VMULSD (R9)(AX*8), X13, X4
	VADDSD X4, X0, X0
	VMULSD (R10)(AX*8), X14, X4
	VADDSD X4, X0, X0
	VMULSD (R11)(AX*8), X15, X4
	VADDSD X4, X0, X0
	VADDSD (DI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP  a5_jtail

a5_next:
	ADDQ R14, DI
	ADDQ R15, R8
	ADDQ R13, SI
	DECQ CX
	JMP  a5_pass

a5_done:
	VZEROUPPER
	RET

// func dot2x4F64AVX512(out *float64, outStride int, a *float64, b *float64, stride int, k int, blocks int)
// dot4x4F64AVX2 for two rows of a at once: rows a and a+stride (a's rows
// lie stride elements apart, like b's) are scored against every block of
// four b rows into out[0..3] and out[outStride..outStride+3], and both out
// rows then advance by 4. Row a fills the low half of a zmm and row
// a+stride the high half, and each b row's four values are broadcast to
// both halves, so lanes 0–3 of an accumulator are row a's s0..s3 and lanes
// 4–7 row a+stride's: the scalar kernel's accumulators, each summed in
// ascending k and reduced as (s0+s1)+(s2+s3). k must be a multiple of 4;
// the k%4 tail and the b rows past the last whole block are the caller's.
// AVX512F only, and no register above 15.
//
// Registers: DI/R15 the two out rows, SI/R12 the two a rows, R8–R11 the
// block's four b rows, BX stride, R14 outStride, CX k, DX blocks left,
// AX element index, Z0–Z3 accumulators, Z8 the two a rows, Z4–Z7 the
// broadcast b rows and products, then the reduction.
TEXT ·dot2x4F64AVX512(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ outStride+8(FP), R14
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), R8
	MOVQ stride+32(FP), BX
	MOVQ k+40(FP), CX
	MOVQ blocks+48(FP), DX
	LEAQ (DI)(R14*8), R15
	LEAQ (SI)(BX*8), R12

d5_block:
	TESTQ DX, DX
	JLE   d5_done
	LEAQ (R8)(BX*8), R9
	LEAQ (R9)(BX*8), R10
	LEAQ (R10)(BX*8), R11
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	XORQ AX, AX

d5_k4:
	CMPQ AX, CX
	JGE  d5_reduce
	VMOVUPD (SI)(AX*8), Y8
	VINSERTF64X4 $1, (R12)(AX*8), Z8, Z8
	VBROADCASTF64X4 (R8)(AX*8), Z4
	VBROADCASTF64X4 (R9)(AX*8), Z5
	VBROADCASTF64X4 (R10)(AX*8), Z6
	VBROADCASTF64X4 (R11)(AX*8), Z7
	VMULPD Z4, Z8, Z4
	VMULPD Z5, Z8, Z5
	VMULPD Z6, Z8, Z6
	VMULPD Z7, Z8, Z7
	VADDPD Z4, Z0, Z0
	VADDPD Z5, Z1, Z1
	VADDPD Z6, Z2, Z2
	VADDPD Z7, Z3, Z3
	ADDQ $4, AX
	JMP  d5_k4

d5_reduce:
	// Z0 = (A0 A1 A2 A3 | A'0 A'1 A'2 A'3) … Z3 = (D0 … | D'0 …): one
	// accumulator per b row, row a's in the low half, row a+stride's (')
	// in the high half. Pairs below are 128-bit units.
	VUNPCKLPD Z1, Z0, Z4          // A0 B0 | A2 B2 | A'0 B'0 | A'2 B'2
	VUNPCKHPD Z1, Z0, Z5          // A1 B1 | A3 B3 | A'1 B'1 | A'3 B'3
	VADDPD Z5, Z4, Z4             // s0+s1 | s2+s3 | for A, B, A', B'
	VUNPCKLPD Z3, Z2, Z6
	VUNPCKHPD Z3, Z2, Z7
	VADDPD Z7, Z6, Z6             // the same for C, D, C', D'
	VSHUFF64X2 $0x88, Z6, Z4, Z5  // s0+s1 of AB | A'B' | CD | C'D'
	VSHUFF64X2 $0xDD, Z6, Z4, Z7  // s2+s3 of AB | A'B' | CD | C'D'
	VADDPD Z7, Z5, Z5             // (s0+s1)+(s2+s3)
	VSHUFF64X2 $0xD8, Z5, Z5, Z5  // A B C D | A' B' C' D'
	VMOVUPD Y5, (DI)
	VEXTRACTF64X4 $1, Z5, (R15)
	ADDQ $32, DI
	ADDQ $32, R15
	LEAQ (R11)(BX*8), R8          // the next block's first row
	DECQ DX
	JMP  d5_block

d5_done:
	VZEROUPPER
	RET

// Exact activation compaction. Eight float32 lanes a step: compare against
// zero, take the 8-bit lane mask, look the mask up in compactPerm (the
// positions of its set bits in ascending order, one byte each) and in
// compactCount (how many there are), left-pack the surviving values and
// their indices with VPERMPS/VPERMD and store all eight lanes at the cursor,
// which then advances by the count. The same (idx, val)[:count] as the Go
// loops for every bit pattern; lanes stored past the count are scratch, so
// the caller must guarantee idx and val hold n entries. n must be a multiple
// of 8 (the tail stays in Go). No POPCNT/BMI: nothing here needs more than
// the AVX2 cpukit detects.
//
// Registers: SI src, DI idx, R8 val, BX n, AX element index, CX cursor
// (the count so far), DX lane mask then its popcount, R10 compactPerm,
// R11 compactCount, Y15 zero, Y14 lane indices AX..AX+7, Y13 eights,
// Y0 values, Y1 compare mask, Y2 permutation, Y3/Y4 packed values/indices.
#define COMPACT_SETUP \
	LEAQ ·compactPerm(SB), R10; \
	LEAQ ·compactCount(SB), R11; \
	VXORPS Y15, Y15, Y15; \
	VPMOVZXBD 2040(R10), Y14; \
	VPCMPEQD Y13, Y13, Y13; \
	VPSRLD $31, Y13, Y13; \
	VPSLLD $3, Y13, Y13; \
	XORQ AX, AX; \
	XORQ CX, CX

#define COMPACT_STEP(PRED) \
	VMOVUPS (SI)(AX*4), Y0; \
	VCMPPS PRED, Y15, Y0, Y1; \
	VMOVMSKPS Y1, DX; \
	VPMOVZXBD (R10)(DX*8), Y2; \
	VPERMPS Y0, Y2, Y3; \
	VPERMD Y14, Y2, Y4; \
	VMOVUPS Y3, (R8)(CX*4); \
	VMOVDQU Y4, (DI)(CX*4); \
	MOVBQZX (R11)(DX*1), DX; \
	ADDQ DX, CX; \
	VPADDD Y13, Y14, Y14; \
	ADDQ $8, AX

// func reluCompactF32AVX2(idx *int32, val *float32, src *float32, n int) int
// Keeps src[k] > 0: predicate 0x1E, greater-than, ordered, quiet — false
// for ±0, negatives and every NaN, as the Go comparison is.
TEXT ·reluCompactF32AVX2(SB), NOSPLIT, $0-40
	MOVQ idx+0(FP), DI
	MOVQ val+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), BX
	COMPACT_SETUP

rc_loop:
	CMPQ AX, BX
	JGE  rc_done
	COMPACT_STEP($0x1E)
	JMP  rc_loop

rc_done:
	MOVQ CX, ret+32(FP)
	VZEROUPPER
	RET

// func compactNonzeroF32AVX2(idx *int32, val *float32, src *float32, n int) int
// Keeps src[k] != 0: predicate 0x04, not-equal, unordered, quiet — false
// for ±0 only, true for every NaN, as the Go comparison is.
TEXT ·compactNonzeroF32AVX2(SB), NOSPLIT, $0-40
	MOVQ idx+0(FP), DI
	MOVQ val+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), BX
	COMPACT_SETUP

nzc_loop:
	CMPQ AX, BX
	JGE  nzc_done
	COMPACT_STEP($0x04)
	JMP  nzc_loop

nzc_done:
	MOVQ CX, ret+32(FP)
	VZEROUPPER
	RET

// func phasorSumAVX2(re, im, w *float64, blocks int, rays *Phasor, n int) int
// The multipath ray sum, four subcarriers a block with the n rays looped
// inside so the sums stay in registers: each lane performs, on the scalar
// loop's operands and in its order, the phase (w·τ + base) + extra, then
// math.Sincos — Cody–Waite reduction by the three π/4 parts, the odd-octant
// fix, both degree-6 polynomials, the swap as a blend and the sign flips as
// XORs — then Att·cos, Att·sin and the complex multiply-accumulate
// (gr·zr − gi·zi, gr·zi + gi·zr). Separate multiplies and adds, no FMA, as
// in the f64 kernels above. A block in which some lane's |phase| is NaN, ±Inf
// or ≥ 2²⁹ is abandoned unstored: the kernel returns the number of blocks it
// stored, and PhasorSumInto runs that block through the Go loop. The lanes
// reach ±0 without math.Sincos's special case: the sign is taken from the
// sign bit, so −0 gives (−0, 1) as the special case does.
//
// Registers: DI re, SI im, DX w, AX element index, CX 4·blocks, R8 rays,
// R9 n, R10 phasorConst, R11 ray cursor (a Phasor is 48 bytes: G at 0/8,
// Att 16, Tau 24, Base 32, Extra 40), R12 rays left, BX lane mask,
// Y15 w[k..k+3], Y14/Y13 the real/imaginary sums, Y12 sign bit.
TEXT ·phasorSumAVX2(SB), NOSPLIT, $0-56
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ blocks+24(FP), CX
	SHLQ $2, CX
	MOVQ rays+32(FP), R8
	MOVQ n+40(FP), R9
	LEAQ ·phasorConst(SB), R10
	VMOVUPD 192(R10), Y12
	XORQ AX, AX

ps_block:
	CMPQ AX, CX
	JGE  ps_done
	VMOVUPD (DX)(AX*8), Y15
	VXORPD Y14, Y14, Y14
	VXORPD Y13, Y13, Y13
	MOVQ R8, R11
	MOVQ R9, R12

ps_ray:
	TESTQ R12, R12
	JLE   ps_store
	VBROADCASTSD 24(R11), Y0
	VMULPD Y0, Y15, Y0            // w·τ
	VBROADCASTSD 32(R11), Y1
	VADDPD Y1, Y0, Y0             // + base
	VBROADCASTSD 40(R11), Y1
	VADDPD Y1, Y0, Y0             // + extra: the phase x
	VANDNPD Y0, Y12, Y1           // |x|
	VCMPPD $0x15, 224(R10), Y1, Y2 // NLT_UQ: |x| ≥ 2²⁹, or NaN
	VMOVMSKPD Y2, BX
	TESTL BX, BX
	JNZ   ps_done
	VANDPD Y12, Y0, Y0            // sign of x: sin's sign so far
	VMULPD 0(R10), Y1, Y2         // |x|·(4/π)
	VROUNDPD $3, Y2, Y2           // j, truncated
	VADDPD 128(R10), Y2, Y2       // 2⁵² + j: j's bits in the low mantissa
	VPAND 160(R10), Y2, Y3
	VPADDQ Y3, Y2, Y2             // odd j → j+1
	VSUBPD 128(R10), Y2, Y3       // y = float64(j)
	VPSLLQ $62, Y2, Y4            // j bit 1 at the sign: swap sin and cos
	VPSLLQ $61, Y2, Y5
	VANDPD Y12, Y5, Y5            // j bit 2 at the sign: j > 3 flips both signs
	VXORPD Y5, Y0, Y0             // sin's sign
	VXORPD Y4, Y5, Y5             // cos's sign: bit 1 xor bit 2
	VMULPD 32(R10), Y3, Y2
	VSUBPD Y2, Y1, Y1             // |x| − y·PI4A
	VMULPD 64(R10), Y3, Y2
	VSUBPD Y2, Y1, Y1             // − y·PI4B
	VMULPD 96(R10), Y3, Y2
	VSUBPD Y2, Y1, Y1             // − y·PI4C = z
	VMULPD Y1, Y1, Y3             // zz
	VMULPD 320(R10), Y3, Y6       // ((((c0·zz + c1)·zz + c2)·zz + c3)·zz + c4)·zz + c5
	VADDPD 352(R10), Y6, Y6
	VMULPD Y3, Y6, Y6
	VADDPD 384(R10), Y6, Y6
	VMULPD Y3, Y6, Y6
	VADDPD 416(R10), Y6, Y6
	VMULPD Y3, Y6, Y6
	VADDPD 448(R10), Y6, Y6
	VMULPD Y3, Y6, Y6
	VADDPD 480(R10), Y6, Y6
	VMULPD 512(R10), Y3, Y7       // the same over s0..s5
	VADDPD 544(R10), Y7, Y7
	VMULPD Y3, Y7, Y7
	VADDPD 576(R10), Y7, Y7
	VMULPD Y3, Y7, Y7
	VADDPD 608(R10), Y7, Y7
	VMULPD Y3, Y7, Y7
	VADDPD 640(R10), Y7, Y7
	VMULPD Y3, Y7, Y7
	VADDPD 672(R10), Y7, Y7
	VMULPD Y3, Y3, Y8
	VMULPD Y6, Y8, Y8             // zz·zz·P_cos
	VMULPD 256(R10), Y3, Y9
	VMOVUPD 288(R10), Y6
	VSUBPD Y9, Y6, Y6             // 1 − 0.5·zz
	VADDPD Y8, Y6, Y6             // cos(z)
	VMULPD Y3, Y1, Y8
	VMULPD Y7, Y8, Y8             // z·zz·P_sin
	VADDPD Y8, Y1, Y1             // sin(z)
	VBLENDVPD Y4, Y6, Y1, Y7      // sin(x) = swap ? cos(z) : sin(z), unsigned
	VBLENDVPD Y4, Y1, Y6, Y8      // cos(x) = swap ? sin(z) : cos(z), unsigned
	VXORPD Y0, Y7, Y7
	VXORPD Y5, Y8, Y8
	VBROADCASTSD 16(R11), Y2
	VMULPD Y2, Y8, Y8             // zr = Att·cos
	VMULPD Y2, Y7, Y7             // zi = Att·sin
	VBROADCASTSD (R11), Y2        // gr
	VBROADCASTSD 8(R11), Y3       // gi
	VMULPD Y8, Y2, Y9
	VMULPD Y7, Y3, Y10
	VSUBPD Y10, Y9, Y9            // gr·zr − gi·zi
	VMULPD Y7, Y2, Y10
	VMULPD Y8, Y3, Y11
	VADDPD Y11, Y10, Y10          // gr·zi + gi·zr
	VADDPD Y9, Y14, Y14
	VADDPD Y10, Y13, Y13
	ADDQ $48, R11
	DECQ R12
	JMP  ps_ray

ps_store:
	VMOVUPD Y14, (DI)(AX*8)
	VMOVUPD Y13, (SI)(AX*8)
	ADDQ $4, AX
	JMP  ps_block

ps_done:
	SHRQ $2, AX                   // blocks stored; the one at AX, if any, was abandoned
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET
