package fit

import (
	"errors"
	"math"

	"spottune/internal/kernels"
)

// ResidualInto writes the residual vector r(θ) for params into out;
// Levenberg–Marquardt minimizes ||r(θ)||². The residual length is fixed by
// the caller of LevenbergMarquardtInto.
type ResidualInto func(params []float64, out []float64)

// LMOptions tunes the Levenberg–Marquardt solver. Zero values select
// sensible defaults.
type LMOptions struct {
	// MaxIterations bounds the outer loop (default 200).
	MaxIterations int
	// Tolerance stops when the relative cost improvement falls below it
	// (default 1e-10).
	Tolerance float64
	// InitialLambda is the starting damping factor (default 1e-3).
	InitialLambda float64
	// JacobianStep is the finite-difference step (default 1e-6 relative).
	JacobianStep float64
}

func (o LMOptions) withDefaults() LMOptions {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 200
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-10
	}
	if o.InitialLambda <= 0 {
		o.InitialLambda = 1e-3
	}
	if o.JacobianStep <= 0 {
		o.JacobianStep = 1e-6
	}
	return o
}

// LMResult carries the solution and diagnostics of an LM run.
type LMResult struct {
	Params     []float64
	Cost       float64 // final ½||r||²
	Iterations int
	Converged  bool
}

// ErrBadResidual is returned when the residual function produces NaN/Inf at
// the starting point.
var ErrBadResidual = errors.New("fit: residual function returned non-finite values at start")

// lmScratch holds every buffer one LM run needs; all of them are sized once
// and reused across iterations, so the solver allocates nothing per
// iteration regardless of how many damping retries it burns.
type lmScratch struct {
	res, rb, rt   []float64
	bumped, trial []float64
	jac, jtj      *Matrix
	damped        *Matrix
	jtr, step     []float64
	solveM        *Matrix
	solveX        []float64
}

func newLMScratch(m, n int) *lmScratch {
	return &lmScratch{
		res:    make([]float64, m),
		rb:     make([]float64, m),
		rt:     make([]float64, m),
		bumped: make([]float64, n),
		trial:  make([]float64, n),
		jac:    NewMatrix(m, n),
		jtj:    NewMatrix(n, n),
		damped: NewMatrix(n, n),
		jtr:    make([]float64, n),
		step:   make([]float64, n),
		solveM: NewMatrix(n, n),
		solveX: make([]float64, n),
	}
}

// LevenbergMarquardtInto minimizes ½||r(θ)||² starting from init, over a
// residual of fixed length m. The Jacobian is estimated by forward
// differences. The returned cost is monotonically non-increasing relative
// to the starting cost (steps that would increase it are rejected). All
// solver state lives in one preallocated scratch, so hot callers
// (EarlyCurve's staged refits) pay no per-iteration allocations.
func LevenbergMarquardtInto(r ResidualInto, m int, init []float64, opts LMOptions) (LMResult, error) {
	opts = opts.withDefaults()
	n := len(init)
	sc := newLMScratch(m, n)
	params := append([]float64(nil), init...)
	r(params, sc.res)
	if !allFinite(sc.res) {
		return LMResult{}, ErrBadResidual
	}
	cost := half2(sc.res)
	lambda := opts.InitialLambda

	for iter := 1; iter <= opts.MaxIterations; iter++ {
		// Numeric Jacobian J[i][j] = ∂r_i/∂θ_j.
		jac := sc.jac
		for j := 0; j < n; j++ {
			h := opts.JacobianStep * math.Max(math.Abs(params[j]), 1)
			copy(sc.bumped, params)
			sc.bumped[j] += h
			r(sc.bumped, sc.rb)
			for i := 0; i < m; i++ {
				jac.Set(i, j, (sc.rb[i]-sc.res[i])/h)
			}
		}
		// Normal equations JᵀJ + λ·diag(JᵀJ) and gradient Jᵀr.
		jtj := sc.jtj
		kernels.Zero(jtj.Data)
		kernels.Zero(sc.jtr)
		for i := 0; i < m; i++ {
			row := jac.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				jij := row[j]
				sc.jtr[j] += jij * sc.res[i]
				for k := j; k < n; k++ {
					jtj.Data[j*n+k] += jij * row[k]
				}
			}
		}
		for j := 0; j < n; j++ {
			for k := 0; k < j; k++ {
				jtj.Set(j, k, jtj.At(k, j))
			}
		}

		improved := false
		for attempt := 0; attempt < 12; attempt++ {
			copy(sc.damped.Data, jtj.Data)
			for j := 0; j < n; j++ {
				d := sc.damped.At(j, j)
				sc.damped.Set(j, j, d+lambda*math.Max(d, 1e-12))
			}
			if err := solveSquareInto(sc.damped, sc.jtr, sc.step, sc.solveM, sc.solveX); err != nil {
				lambda *= 10
				continue
			}
			for j := 0; j < n; j++ {
				sc.trial[j] = params[j] - sc.step[j]
			}
			r(sc.trial, sc.rt)
			if allFinite(sc.rt) {
				if c := half2(sc.rt); c < cost {
					rel := (cost - c) / math.Max(cost, 1e-300)
					copy(params, sc.trial)
					sc.res, sc.rt = sc.rt, sc.res
					cost = c
					lambda = math.Max(lambda/3, 1e-12)
					improved = true
					if rel < opts.Tolerance {
						return LMResult{Params: params, Cost: cost, Iterations: iter, Converged: true}, nil
					}
					break
				}
			}
			lambda *= 10
		}
		if !improved {
			return LMResult{Params: params, Cost: cost, Iterations: iter, Converged: true}, nil
		}
	}
	return LMResult{Params: params, Cost: cost, Iterations: opts.MaxIterations, Converged: false}, nil
}

// solveSquareInto solves the square system A·x = b via Gaussian elimination
// with partial pivoting, in caller-owned scratch: work receives a copy of A,
// rhs a copy of b, and the solution lands in x. a and b are not modified.
func solveSquareInto(a *Matrix, b, x []float64, work *Matrix, rhs []float64) error {
	if a.Rows != a.Cols || a.Rows != len(b) {
		return errors.New("fit: solveSquareInto needs a square system")
	}
	n := a.Rows
	m := work
	copy(m.Data, a.Data)
	copy(rhs, b)
	for k := 0; k < n; k++ {
		// Partial pivot.
		p, pv := k, math.Abs(m.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(m.At(i, k)); v > pv {
				p, pv = i, v
			}
		}
		if pv < 1e-300 {
			return ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				m.Data[k*n+j], m.Data[p*n+j] = m.Data[p*n+j], m.Data[k*n+j]
			}
			rhs[k], rhs[p] = rhs[p], rhs[k]
		}
		for i := k + 1; i < n; i++ {
			f := m.At(i, k) / m.At(k, k)
			if f == 0 {
				continue
			}
			for j := k; j < n; j++ {
				m.Set(i, j, m.At(i, j)-f*m.At(k, j))
			}
			rhs[i] -= f * rhs[k]
		}
	}
	for k := n - 1; k >= 0; k-- {
		s := rhs[k]
		for j := k + 1; j < n; j++ {
			s -= m.At(k, j) * rhs[j]
		}
		rhs[k] = s / m.At(k, k)
	}
	copy(x, rhs)
	return nil
}

func half2(r []float64) float64 {
	s := 0.0
	for _, v := range r {
		s += v * v
	}
	return 0.5 * s
}

func allFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
