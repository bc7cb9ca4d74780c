package kernels

import (
	"math/rand/v2"
	"testing"
)

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

// naiveDot is the reference in-order accumulation every kernel must match
// bit-for-bit.
func naiveDot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func TestDotBitForBitVsNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, n := range []int{0, 1, 3, 24, 59, 128} {
		a, b := randVec(rng, n), randVec(rng, n)
		if got, want := Dot(a, b), naiveDot(a, b); got != want {
			t.Fatalf("n=%d: Dot=%v naive=%v", n, got, want)
		}
	}
}

func TestMatVecBitForBit(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	rows, cols := 17, 11
	a, x := randVec(rng, rows*cols), randVec(rng, cols)
	y := make([]float64, rows)
	MatVec(y, a, rows, cols, x)
	acc := randVec(rng, rows)
	accWant := append([]float64(nil), acc...)
	MatVecAcc(acc, a, rows, cols, x)
	for r := 0; r < rows; r++ {
		want := naiveDot(a[r*cols:(r+1)*cols], x)
		if y[r] != want {
			t.Fatalf("MatVec row %d: %v != %v", r, y[r], want)
		}
		// MatVecAcc sums pairwise (even/odd lanes, tail into even) — the
		// documented kernel order, identical on every platform.
		var s0, s1 float64
		k := 0
		for ; k+2 <= cols; k += 2 {
			s0 += a[r*cols+k] * x[k]
			s1 += a[r*cols+k+1] * x[k+1]
		}
		if k < cols {
			s0 += a[r*cols+k] * x[k]
		}
		if want := accWant[r] + (s0 + s1); acc[r] != want {
			t.Fatalf("MatVecAcc row %d: %v != %v", r, acc[r], want)
		}
	}
}

func TestMatTVecAccMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	rows, cols := 9, 7
	a, dy := randVec(rng, rows*cols), randVec(rng, rows)
	dx := make([]float64, cols)
	MatTVecAcc(dx, a, rows, cols, dy)
	// Reference mirrors the documented kernel grouping: four-row blocks
	// tree-summed, remainder rows applied singly.
	want := make([]float64, cols)
	r := 0
	for ; r+4 <= rows; r += 4 {
		for k := 0; k < cols; k++ {
			want[k] += (dy[r]*a[r*cols+k] + dy[r+1]*a[(r+1)*cols+k]) +
				(dy[r+2]*a[(r+2)*cols+k] + dy[r+3]*a[(r+3)*cols+k])
		}
	}
	for ; r < rows; r++ {
		for k := 0; k < cols; k++ {
			want[k] += dy[r] * a[r*cols+k]
		}
	}
	for k := range want {
		if dx[k] != want[k] {
			t.Fatalf("col %d: %v != %v", k, dx[k], want[k])
		}
	}
}

func TestOuterAccAndAxpy(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	rows, cols := 6, 5
	g := randVec(rng, rows*cols)
	want := append([]float64(nil), g...)
	dy, x := randVec(rng, rows), randVec(rng, cols)
	OuterAcc(g, rows, cols, dy, x)
	for r := 0; r < rows; r++ {
		for k := 0; k < cols; k++ {
			want[r*cols+k] += dy[r] * x[k]
		}
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("OuterAcc[%d]: %v != %v", i, g[i], want[i])
		}
	}
	y := randVec(rng, cols)
	wy := append([]float64(nil), y...)
	Axpy(y, 0.37, x)
	for i := range y {
		if y[i] != wy[i]+0.37*x[i] {
			t.Fatalf("Axpy[%d]", i)
		}
	}
}

func TestKernelPanicsOnShortBuffers(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic on short buffer", name)
			}
		}()
		f()
	}
	expectPanic("Dot", func() { Dot(make([]float64, 2), make([]float64, 3)) })
	expectPanic("MatVec", func() { MatVec(make([]float64, 1), make([]float64, 3), 2, 2, make([]float64, 2)) })
	expectPanic("Axpy", func() { Axpy(make([]float64, 2), 1, make([]float64, 3)) })
}

func TestArenaReuseAndZeroing(t *testing.T) {
	var a Arena
	s1 := a.Take(100)
	for i := range s1 {
		s1[i] = 7
	}
	a.Reset()
	s2 := a.Take(100)
	if &s1[0] != &s2[0] {
		t.Fatal("Reset did not reuse the chunk")
	}
	for i, v := range s2 {
		if v != 0 {
			t.Fatalf("Take returned dirty memory at %d: %v", i, v)
		}
	}
	if len(a.chunks) != 1 || len(a.chunks[0]) != arenaMinChunk {
		t.Fatalf("arena holds %d chunks, want one of %d", len(a.chunks), arenaMinChunk)
	}
}

func TestArenaGrowsForLargeTakes(t *testing.T) {
	var a Arena
	big := a.Take(3 * arenaMinChunk)
	if len(big) != 3*arenaMinChunk {
		t.Fatalf("len %d", len(big))
	}
	small := a.Take(10)
	if len(small) != 10 {
		t.Fatalf("len %d", len(small))
	}
	a.Reset()
	// After reset the first chunk is carved first again.
	if got := a.Take(5); len(got) != 5 {
		t.Fatalf("len %d", len(got))
	}
	if a.Take(0) != nil {
		t.Fatal("Take(0) should be nil")
	}
}

func TestArenaTakeCapIsExact(t *testing.T) {
	var a Arena
	s := a.Take(8)
	if cap(s) != 8 {
		t.Fatalf("cap %d, want 8 (no aliasing via append)", cap(s))
	}
}

func TestAxpyAsmMatchesScalarBitForBit(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 48, 59, 96, 1000} {
		x := randVec(rng, n)
		y := randVec(rng, n)
		want := append([]float64(nil), y...)
		alpha := 2*rng.Float64() - 1
		for i, v := range x { // scalar reference
			want[i] += alpha * v
		}
		Axpy(y, alpha, x)
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("n=%d: Axpy[%d] = %v, scalar %v", n, i, y[i], want[i])
			}
		}
	}
}
