//go:build amd64 && !purego

package kernels

// Assembly kernels (SSE2, part of the amd64 baseline — no feature detection
// needed). All three are element-wise mul+add loops with no reassociation,
// so their results are bit-identical to the scalar fallbacks.

//go:noescape
func axpyPtr(y, x *float64, n int, alpha float64)

//go:noescape
func outerAccPtr(grad, dy, x *float64, rows, cols int)

//go:noescape
func matTVecAccPtr(dx, a, dy *float64, rows, cols int)

//go:noescape
func matVecAccPtr(y, a, x *float64, rows, cols int)

// axpyImpl dispatches to the assembly kernel. Short vectors stay in Go —
// below a handful of lanes the call overhead beats the SIMD win.
func axpyImpl(y []float64, alpha float64, x []float64) {
	if len(x) < 4 {
		for i, v := range x {
			y[i] += float64(alpha * v)
		}
		return
	}
	axpyPtr(&y[0], &x[0], len(x), alpha)
}

func outerAccImpl(g []float64, rows, cols int, dy, x []float64) {
	if rows == 0 || cols == 0 {
		return
	}
	outerAccPtr(&g[0], &dy[0], &x[0], rows, cols)
}

func matTVecAccImpl(dx, a []float64, rows, cols int, dy []float64) {
	if rows == 0 || cols == 0 {
		return
	}
	matTVecAccPtr(&dx[0], &a[0], &dy[0], rows, cols)
}

func matVecAccImpl(y, a []float64, rows, cols int, x []float64) {
	if rows == 0 || cols == 0 {
		return
	}
	matVecAccPtr(&y[0], &a[0], &x[0], rows, cols)
}
