//go:build !amd64 || purego

package kernels

// Portable scalar fallbacks for non-amd64 builds (or the purego tag). They
// compute bit-identical results to the assembly kernels: the same
// element-wise mul+add in the same row-by-row order, one lane at a time.
// Every product is written float64(a*b): the conversion rounds it before
// the add, so no compiler may fuse the pair into one FMA (arm64, ppc64le
// and s390x do fuse a bare a*b + c), which rounds once and breaks parity
// with the SSE2 kernels' MULPD/ADDPD. `make fma-lint` checks the arm64
// build.

func axpyImpl(y []float64, alpha float64, x []float64) {
	for i, v := range x {
		y[i] += float64(alpha * v)
	}
}

func outerAccImpl(g []float64, rows, cols int, dy, x []float64) {
	x = x[:cols]
	for r := 0; r < rows; r++ {
		row := g[r*cols:][:cols]
		d := dy[r]
		for k, xk := range x {
			row[k] += float64(d * xk)
		}
	}
}

func matTVecAccImpl(dx, a []float64, rows, cols int, dy []float64) {
	dx = dx[:cols]
	r := 0
	// Four-row blocks tree-sum their contribution before touching dx,
	// mirroring the SSE2 kernel's grouping exactly.
	for ; r+4 <= rows; r += 4 {
		r0 := a[r*cols:][:cols]
		r1 := a[(r+1)*cols:][:cols]
		r2 := a[(r+2)*cols:][:cols]
		r3 := a[(r+3)*cols:][:cols]
		d0, d1, d2, d3 := dy[r], dy[r+1], dy[r+2], dy[r+3]
		for k, v := range dx {
			dx[k] = v + ((float64(d0*r0[k]) + float64(d1*r1[k])) + (float64(d2*r2[k]) + float64(d3*r3[k])))
		}
	}
	for ; r < rows; r++ {
		row := a[r*cols:][:cols]
		d := dy[r]
		for k, w := range row {
			dx[k] += float64(d * w)
		}
	}
}

func matVecAccImpl(y, a []float64, rows, cols int, x []float64) {
	x = x[:cols]
	for r := 0; r < rows; r++ {
		row := a[r*cols:][:cols]
		var s0, s1 float64 // even / odd lanes, matching the SSE2 kernel
		k := 0
		for ; k+2 <= cols; k += 2 {
			s0 += float64(row[k] * x[k])
			s1 += float64(row[k+1] * x[k+1])
		}
		if k < cols {
			s0 += float64(row[k] * x[k])
		}
		y[r] += s0 + s1
	}
}
