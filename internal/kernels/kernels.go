// Package kernels provides the shared flat-buffer numeric primitives the
// rest of the system is built on: fused matrix–vector products over
// row-major buffers, axpy/outer-product accumulators, and a bump-allocator
// scratch arena. internal/nn (LSTM + dense layers), internal/fit (least
// squares, Levenberg–Marquardt), and internal/revpred's inference hot path
// all run on these kernels.
//
// Every kernel accumulates in strict ascending index order, so replacing a
// naive loop with the kernel is bit-for-bit equivalent — no hidden
// reassociation — and rounds every product before adding it (Go code
// writes float64(a*b), which no compiler may fuse into an FMA), so the
// results are the same bits on every architecture. Where a caller *chooses* a different loop nesting (e.g. the
// LSTM backward pass switching from gate-interleaved to row-major order),
// the reordering happens in the caller and is documented there, not smuggled
// in here.
package kernels

// Dot returns the inner product of two equal-length vectors, accumulating
// in ascending index order.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("kernels: Dot length mismatch")
	}
	s := 0.0
	for i, av := range a {
		s += float64(av * b[i])
	}
	return s
}

// MatVec computes y = A·x for a row-major rows×cols matrix: each y[r] is the
// in-order dot product of row r with x.
func MatVec(y, a []float64, rows, cols int, x []float64) {
	checkDims(a, rows, cols, x, cols, y, rows)
	x = x[:cols]
	for r := 0; r < rows; r++ {
		y[r] = Dot(a[r*cols:r*cols+cols], x)
	}
}

// MatVecAcc computes y += A·x with PAIRWISE row sums: each row accumulates
// even-index products and odd-index products separately (an odd tail joins
// the even sum) and y[r] += evenSum + oddSum. This is the one kernel whose
// summation order differs from a naive loop — the price of the two-lane
// SIMD fast path. The generic fallback implements the identical pairwise
// order, so results are deterministic and platform-independent; the switch
// from strict-order accumulation is documented in DESIGN.md (kernels layer)
// together with the golden-evidence procedure. Callers that need strict
// in-order sums use MatVec/Dot instead.
func MatVecAcc(y, a []float64, rows, cols int, x []float64) {
	checkDims(a, rows, cols, x, cols, y, rows)
	matVecAccImpl(y, a, rows, cols, x)
}

// MatTVecAcc computes dx += Aᵀ·dy without materializing the transpose.
// Rows are consumed in ascending order four at a time, each block's four
// contributions tree-summed before they touch dx ((r0+r1) + (r2+r3));
// remainder rows apply singly. The grouping is identical on every platform
// (asm and generic fallbacks match bit-for-bit) but differs from a strict
// row-by-row loop — this is a gradient-path kernel, consumed only under
// tolerances (see DESIGN.md, kernels layer).
func MatTVecAcc(dx, a []float64, rows, cols int, dy []float64) {
	checkDims(a, rows, cols, dx, cols, dy, rows)
	matTVecAccImpl(dx, a, rows, cols, dy)
}

// Axpy computes y += alpha·x elementwise. Each element is an independent
// mul+add, so the SIMD fast path on amd64 is bit-identical to the scalar
// loop.
func Axpy(y []float64, alpha float64, x []float64) {
	if len(y) != len(x) {
		panic("kernels: Axpy length mismatch")
	}
	axpyImpl(y, alpha, x)
}

// OuterAcc computes G += dy ⊗ x for a row-major rows×cols gradient buffer:
// G[r,k] += dy[r]·x[k]. Each element is touched exactly once, so the update
// order cannot change results.
func OuterAcc(g []float64, rows, cols int, dy, x []float64) {
	checkDims(g, rows, cols, x, cols, dy, rows)
	outerAccImpl(g, rows, cols, dy, x)
}

// Zero clears x.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

func checkDims(a []float64, rows, cols int, x []float64, wantX int, y []float64, wantY int) {
	if len(a) < rows*cols {
		panic("kernels: matrix buffer too short")
	}
	if len(x) < wantX || len(y) < wantY {
		panic("kernels: vector too short for matrix dims")
	}
}
