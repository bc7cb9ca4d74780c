// Package fit provides the numerical solvers SpotTune needs: dense linear
// least squares (Householder QR), non-negative least squares (Lawson–Hanson),
// and Levenberg–Marquardt nonlinear least squares with a numeric Jacobian.
//
// The paper fits EarlyCurve's staged model with SciPy's least_squares
// (§III-C); this package is the stdlib-only equivalent.
package fit

import (
	"errors"
	"fmt"
	"math"

	"spottune/internal/kernels"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMatrix allocates a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("fit: invalid matrix dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("fit: MulVec dim mismatch: %d cols vs %d vec", m.Cols, len(x))
	}
	out := make([]float64, m.Rows)
	kernels.MatVec(out, m.Data, m.Rows, m.Cols, x)
	return out, nil
}

// ErrSingular is returned when a system is rank-deficient beyond recovery.
var ErrSingular = errors.New("fit: singular or rank-deficient system")

// SolveLeastSquares solves min_x ||A·x − b||² via Householder QR with column
// pivoting disabled (A is expected to be tall and reasonably conditioned;
// near-zero diagonal entries get a tiny Tikhonov fallback). A is not
// modified.
func SolveLeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("fit: A has %d rows but b has %d entries", a.Rows, len(b))
	}
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("fit: underdetermined system (%d rows < %d cols)", a.Rows, a.Cols)
	}
	m, n := a.Rows, a.Cols
	r := a.Clone()
	qtb := append([]float64(nil), b...)

	// Householder QR: transform R in place, apply reflections to qtb.
	for k := 0; k < n; k++ {
		// Norm of column k below the diagonal.
		norm := 0.0
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, r.At(i, k))
		}
		if norm == 0 {
			continue // column already zero; handled by the diagonal check below
		}
		// Give norm the sign of the diagonal element so that the
		// Householder vector's pivot 1 + x_k/norm never cancels.
		if r.At(k, k) < 0 {
			norm = -norm
		}
		// v = x − norm·e1, stored in the column.
		for i := k; i < m; i++ {
			r.Set(i, k, r.At(i, k)/norm)
		}
		r.Set(k, k, r.At(k, k)+1)
		// Apply (I − v vᵀ/v_k) to remaining columns and to qtb.
		for j := k + 1; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += r.At(i, k) * r.At(i, j)
			}
			s = -s / r.At(k, k)
			for i := k; i < m; i++ {
				r.Set(i, j, r.At(i, j)+s*r.At(i, k))
			}
		}
		s := 0.0
		for i := k; i < m; i++ {
			s += r.At(i, k) * qtb[i]
		}
		s = -s / r.At(k, k)
		for i := k; i < m; i++ {
			qtb[i] += s * r.At(i, k)
		}
		r.Set(k, k, -norm) // diagonal of R
	}

	// Back substitution on the upper triangle. Diagonal entries far below
	// the largest one indicate rank deficiency.
	maxDiag := 0.0
	for k := 0; k < n; k++ {
		if d := math.Abs(r.At(k, k)); d > maxDiag {
			maxDiag = d
		}
	}
	tol := 1e-12 * maxDiag
	x := make([]float64, n)
	for k := n - 1; k >= 0; k-- {
		d := r.At(k, k)
		if math.Abs(d) <= tol || d == 0 {
			return nil, ErrSingular
		}
		s := qtb[k]
		for j := k + 1; j < n; j++ {
			s -= r.At(k, j) * x[j]
		}
		x[k] = s / d
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrSingular
		}
	}
	return x, nil
}

// SolveNNLS solves min_x ||A·x − b||² subject to x ≥ 0 using the classic
// Lawson–Hanson active-set method. Used by the SLAQ baseline's
// non-negative basis fit.
func SolveNNLS(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("fit: A has %d rows but b has %d entries", a.Rows, len(b))
	}
	n := a.Cols
	x := make([]float64, n)
	passive := make([]bool, n)

	residual := func(x []float64) []float64 {
		ax, _ := a.MulVec(x)
		r := make([]float64, len(b))
		for i := range b {
			r[i] = b[i] - ax[i]
		}
		return r
	}
	gradient := func(r []float64) []float64 {
		w := make([]float64, n)
		for j := 0; j < n; j++ {
			s := 0.0
			for i := 0; i < a.Rows; i++ {
				s += a.At(i, j) * r[i]
			}
			w[j] = s
		}
		return w
	}
	// Solve the unconstrained LS restricted to the passive set.
	solvePassive := func() ([]float64, error) {
		cols := make([]int, 0, n)
		for j := 0; j < n; j++ {
			if passive[j] {
				cols = append(cols, j)
			}
		}
		if len(cols) == 0 {
			return make([]float64, n), nil
		}
		sub := NewMatrix(a.Rows, len(cols))
		for i := 0; i < a.Rows; i++ {
			for cj, j := range cols {
				sub.Set(i, cj, a.At(i, j))
			}
		}
		zs, err := SolveLeastSquares(sub, b)
		if err != nil {
			return nil, err
		}
		z := make([]float64, n)
		for cj, j := range cols {
			z[j] = zs[cj]
		}
		return z, nil
	}

	const tol = 1e-10
	for iter := 0; iter < 3*n+30; iter++ {
		w := gradient(residual(x))
		// Find the most violated KKT condition among the active set.
		best, bestW := -1, tol
		for j := 0; j < n; j++ {
			if !passive[j] && w[j] > bestW {
				best, bestW = j, w[j]
			}
		}
		if best == -1 {
			return x, nil // KKT satisfied
		}
		passive[best] = true

		for inner := 0; inner < 3*n+30; inner++ {
			z, err := solvePassive()
			if err != nil {
				// Rank-deficient passive set: drop the newest column.
				passive[best] = false
				return x, nil
			}
			// If all passive entries are positive, accept.
			ok := true
			for j := 0; j < n; j++ {
				if passive[j] && z[j] <= tol {
					ok = false
					break
				}
			}
			if ok {
				copy(x, z)
				break
			}
			// Step toward z until the first passive variable hits zero.
			alpha := math.Inf(1)
			for j := 0; j < n; j++ {
				if passive[j] && z[j] <= tol {
					if d := x[j] - z[j]; d > 0 {
						if a := x[j] / d; a < alpha {
							alpha = a
						}
					}
				}
			}
			if math.IsInf(alpha, 1) {
				alpha = 0
			}
			for j := 0; j < n; j++ {
				if passive[j] {
					x[j] += alpha * (z[j] - x[j])
					if x[j] <= tol {
						x[j] = 0
						passive[j] = false
					}
				}
			}
		}
	}
	return x, nil
}
