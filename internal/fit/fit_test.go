package fit

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 {
		t.Fatal("Set/At mismatch")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	got, err := m.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("MulVec = %v, want [3 7]", got)
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Fatal("MulVec dim mismatch did not error")
	}
}

func TestSolveLeastSquaresExact(t *testing.T) {
	// Square well-conditioned system.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := SolveLeastSquares(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestSolveLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2 + 3t to noiseless data; recovery must be exact.
	n := 50
	a := NewMatrix(n, 2)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		tt := float64(i) / 10
		a.Set(i, 0, 1)
		a.Set(i, 1, tt)
		b[i] = 2 + 3*tt
	}
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-8 || math.Abs(x[1]-3) > 1e-8 {
		t.Fatalf("x = %v, want [2 3]", x)
	}
}

func TestSolveLeastSquaresErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := SolveLeastSquares(a, []float64{1, 2}); err == nil {
		t.Error("underdetermined system did not error")
	}
	a2 := NewMatrix(2, 2)
	if _, err := SolveLeastSquares(a2, []float64{1}); err == nil {
		t.Error("row/b mismatch did not error")
	}
	// Singular: duplicate columns.
	a3 := NewMatrix(3, 2)
	for i := 0; i < 3; i++ {
		a3.Set(i, 0, float64(i+1))
		a3.Set(i, 1, float64(i+1))
	}
	if _, err := SolveLeastSquares(a3, []float64{1, 2, 3}); err == nil {
		t.Error("singular system did not error")
	}
}

// Property: the LS residual is orthogonal to the column space (normal eqns).
func TestLeastSquaresNormalEquationsProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 50; trial++ {
		rows, cols := 8+rng.IntN(20), 1+rng.IntN(4)
		a := NewMatrix(rows, cols)
		b := make([]float64, rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			b[i] = rng.NormFloat64()
		}
		x, err := SolveLeastSquares(a, b)
		if err != nil {
			continue // random matrix may be near-singular; skip
		}
		ax, _ := a.MulVec(x)
		for j := 0; j < cols; j++ {
			s := 0.0
			for i := 0; i < rows; i++ {
				s += a.At(i, j) * (b[i] - ax[i])
			}
			if math.Abs(s) > 1e-6 {
				t.Fatalf("trial %d: residual not orthogonal to column %d (dot=%g)", trial, j, s)
			}
		}
	}
}

func TestSolveNNLSSimple(t *testing.T) {
	// min ||x1*[1,0] + x2*[0,1] - [3,-2]||, x>=0 -> x = [3, 0].
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	x, err := SolveNNLS(a, []float64{3, -2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-8 || x[1] != 0 {
		t.Fatalf("NNLS = %v, want [3 0]", x)
	}
}

func TestSolveNNLSMatchesUnconstrainedWhenPositive(t *testing.T) {
	n := 40
	a := NewMatrix(n, 2)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		tt := float64(i + 1)
		a.Set(i, 0, 1)
		a.Set(i, 1, 1/tt)
		b[i] = 0.5 + 2.0/tt
	}
	x, err := SolveNNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-0.5) > 1e-6 || math.Abs(x[1]-2.0) > 1e-6 {
		t.Fatalf("NNLS = %v, want [0.5 2]", x)
	}
}

// Property: NNLS solutions are always elementwise non-negative.
func TestNNLSNonNegativityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
		rows, cols := 6+rng.IntN(10), 1+rng.IntN(4)
		a := NewMatrix(rows, cols)
		b := make([]float64, rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			b[i] = rng.NormFloat64()
		}
		x, err := SolveNNLS(a, b)
		if err != nil {
			return true
		}
		for _, v := range x {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLevenbergMarquardtExponential(t *testing.T) {
	// Fit y = a*exp(-b*t) with a=2, b=0.5.
	ts := make([]float64, 30)
	ys := make([]float64, 30)
	for i := range ts {
		ts[i] = float64(i) * 0.3
		ys[i] = 2 * math.Exp(-0.5*ts[i])
	}
	resFn := func(p, out []float64) {
		for i := range ts {
			out[i] = p[0]*math.Exp(-p[1]*ts[i]) - ys[i]
		}
	}
	got, err := LevenbergMarquardtInto(resFn, len(ts), []float64{1, 1}, LMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Params[0]-2) > 1e-4 || math.Abs(got.Params[1]-0.5) > 1e-4 {
		t.Fatalf("LM params = %v, want [2 0.5]", got.Params)
	}
	if !got.Converged {
		t.Error("LM did not report convergence")
	}
}

func TestLevenbergMarquardtRational(t *testing.T) {
	// Fit the EarlyCurve per-stage family 1/(a0 k^2 + a1 k + a2) + a3.
	truth := []float64{0.001, 0.05, 1.2, 0.35}
	model := func(p []float64, k float64) float64 {
		return 1/(p[0]*k*k+p[1]*k+p[2]) + p[3]
	}
	ks := make([]float64, 60)
	ys := make([]float64, 60)
	for i := range ks {
		ks[i] = float64(i + 1)
		ys[i] = model(truth, ks[i])
	}
	resFn := func(p, out []float64) {
		for i := range ks {
			out[i] = model(p, ks[i]) - ys[i]
		}
	}
	got, err := LevenbergMarquardtInto(resFn, len(ks), []float64{0.01, 0.01, 1, 0.1}, LMOptions{MaxIterations: 500})
	if err != nil {
		t.Fatal(err)
	}
	// Check fit quality rather than parameter identity (the family is
	// nearly unidentifiable in a0 vs a1 over short ranges).
	for i := range ks {
		if math.Abs(model(got.Params, ks[i])-ys[i]) > 1e-3 {
			t.Fatalf("LM rational fit error %g at k=%v (params %v)",
				math.Abs(model(got.Params, ks[i])-ys[i]), ks[i], got.Params)
		}
	}
}

func TestLevenbergMarquardtBadStart(t *testing.T) {
	resFn := func(p, out []float64) { out[0] = math.NaN() }
	if _, err := LevenbergMarquardtInto(resFn, 1, []float64{1}, LMOptions{}); err == nil {
		t.Fatal("LM with NaN residual at start did not error")
	}
}

// Property: LM never ends with higher cost than it started with.
func TestLMMonotoneCostProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		a, b := 1+rng.Float64()*3, 0.1+rng.Float64()
		ts := make([]float64, 20)
		ys := make([]float64, 20)
		for i := range ts {
			ts[i] = float64(i) * 0.2
			ys[i] = a*math.Exp(-b*ts[i]) + 0.01*rng.NormFloat64()
		}
		resFn := func(p, out []float64) {
			for i := range ts {
				out[i] = p[0]*math.Exp(-p[1]*ts[i]) - ys[i]
			}
		}
		start := []float64{rng.Float64() * 4, rng.Float64()}
		r0 := make([]float64, len(ts))
		resFn(start, r0)
		startCost := half2(r0)
		res, err := LevenbergMarquardtInto(resFn, len(ts), start, LMOptions{MaxIterations: 50})
		if err != nil {
			return true
		}
		return res.Cost <= startCost+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSolveSquarePivoting(t *testing.T) {
	// Requires pivoting: zero on the diagonal.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x := make([]float64, 2)
	if err := solveSquareInto(a, []float64{2, 3}, x, NewMatrix(2, 2), make([]float64, 2)); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("solveSquareInto = %v, want [3 2]", x)
	}
}
