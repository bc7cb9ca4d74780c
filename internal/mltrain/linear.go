package mltrain

import (
	"math"
	"math/rand/v2"

	"spottune/internal/nn"
)

// Model is one trainable ML workload: it advances by minibatch SGD-style
// steps and reports a validation metric (lower is better).
type Model interface {
	// TrainStep performs one optimization step on the given examples of
	// ds at learning rate lr.
	TrainStep(ds *Dataset, idx []int, lr float64)
	// Loss returns the model's metric over an entire dataset.
	Loss(ds *Dataset) float64
}

var (
	_ Model = (*LogisticRegression)(nil)
	_ Model = (*LinearRegression)(nil)
	_ Model = (*SVM)(nil)
)

// LogisticRegression is binary logistic regression trained with SGD on
// cross-entropy (the paper's LoR workload on the Epsilon dataset).
type LogisticRegression struct {
	W  []float64
	B  float64
	L2 float64
}

// NewLogisticRegression builds a zero-initialized model.
func NewLogisticRegression(dim int, l2 float64) *LogisticRegression {
	return &LogisticRegression{W: make([]float64, dim), L2: l2}
}

func (m *LogisticRegression) predict(x []float64) float64 {
	s := m.B
	for j, xj := range x {
		s += m.W[j] * xj
	}
	return nn.Logistic(s)
}

// TrainStep implements Model.
func (m *LogisticRegression) TrainStep(ds *Dataset, idx []int, lr float64) {
	if len(idx) == 0 {
		return
	}
	gw := make([]float64, len(m.W))
	gb := 0.0
	for _, i := range idx {
		p := m.predict(ds.X[i])
		d := p - ds.Y[i]
		for j, xj := range ds.X[i] {
			gw[j] += d * xj
		}
		gb += d
	}
	inv := 1.0 / float64(len(idx))
	for j := range m.W {
		m.W[j] -= lr * (gw[j]*inv + m.L2*m.W[j])
	}
	m.B -= lr * gb * inv
}

// Loss implements Model: mean cross-entropy.
func (m *LogisticRegression) Loss(ds *Dataset) float64 {
	const eps = 1e-12
	total := 0.0
	for i, x := range ds.X {
		p := m.predict(x)
		if ds.Y[i] > 0.5 {
			total += -math.Log(p + eps)
		} else {
			total += -math.Log(1 - p + eps)
		}
	}
	return total / float64(len(ds.X))
}

// LinearRegression is least-squares regression trained with SGD (the
// paper's LiR workload on YearPredictionMSD).
type LinearRegression struct {
	W  []float64
	B  float64
	L2 float64
}

// NewLinearRegression builds a zero-initialized model.
func NewLinearRegression(dim int, l2 float64) *LinearRegression {
	return &LinearRegression{W: make([]float64, dim), L2: l2}
}

func (m *LinearRegression) predict(x []float64) float64 {
	s := m.B
	for j, xj := range x {
		s += m.W[j] * xj
	}
	return s
}

// TrainStep implements Model.
func (m *LinearRegression) TrainStep(ds *Dataset, idx []int, lr float64) {
	if len(idx) == 0 {
		return
	}
	gw := make([]float64, len(m.W))
	gb := 0.0
	for _, i := range idx {
		d := m.predict(ds.X[i]) - ds.Y[i]
		for j, xj := range ds.X[i] {
			gw[j] += d * xj
		}
		gb += d
	}
	inv := 1.0 / float64(len(idx))
	for j := range m.W {
		m.W[j] -= lr * (gw[j]*inv + m.L2*m.W[j])
	}
	m.B -= lr * gb * inv
}

// Loss implements Model: mean squared error.
func (m *LinearRegression) Loss(ds *Dataset) float64 {
	total := 0.0
	for i, x := range ds.X {
		d := m.predict(x) - ds.Y[i]
		total += d * d
	}
	return total / float64(len(ds.X))
}

// SVM is a soft-margin linear SVM trained by SGD on the hinge loss. Kernel
// SVMs (Table II's RBF option) are realized by pre-transforming the data
// with RFFTransform, following the random-Fourier-features construction —
// which is also what the paper's "#Feature" hyper-parameter controls.
type SVM struct {
	W  []float64
	B  float64
	L2 float64
}

// NewSVM builds a zero-initialized SVM.
func NewSVM(dim int, l2 float64) *SVM {
	return &SVM{W: make([]float64, dim), L2: l2}
}

func (m *SVM) score(x []float64) float64 {
	s := m.B
	for j, xj := range x {
		s += m.W[j] * xj
	}
	return s
}

// TrainStep implements Model with the hinge subgradient.
func (m *SVM) TrainStep(ds *Dataset, idx []int, lr float64) {
	if len(idx) == 0 {
		return
	}
	gw := make([]float64, len(m.W))
	gb := 0.0
	for _, i := range idx {
		sign := 2*ds.Y[i] - 1 // {0,1} -> {-1,+1}
		if sign*m.score(ds.X[i]) < 1 {
			for j, xj := range ds.X[i] {
				gw[j] -= sign * xj
			}
			gb -= sign
		}
	}
	inv := 1.0 / float64(len(idx))
	for j := range m.W {
		m.W[j] -= lr * (gw[j]*inv + m.L2*m.W[j])
	}
	m.B -= lr * gb * inv
}

// Loss implements Model: mean hinge loss.
func (m *SVM) Loss(ds *Dataset) float64 {
	total := 0.0
	for i, x := range ds.X {
		sign := 2*ds.Y[i] - 1
		if h := 1 - sign*m.score(x); h > 0 {
			total += h
		}
	}
	return total / float64(len(ds.X))
}

// RFFTransform approximates an RBF (Gaussian) kernel with random Fourier
// features: z_i(x) = sqrt(2/D)·cos(ω_i·x + b_i), ω ~ N(0, γ·I).
type RFFTransform struct {
	Omega [][]float64
	Phase []float64
}

// NewRFFTransform draws D random features for inputs of the given dim with
// kernel bandwidth gamma.
func NewRFFTransform(dim, features int, gamma float64, seed uint64) *RFFTransform {
	rng := rand.New(rand.NewPCG(seed, 0x4ff))
	t := &RFFTransform{
		Omega: make([][]float64, features),
		Phase: make([]float64, features),
	}
	scale := math.Sqrt(gamma)
	for i := range t.Omega {
		t.Omega[i] = make([]float64, dim)
		for j := range t.Omega[i] {
			t.Omega[i][j] = scale * rng.NormFloat64()
		}
		t.Phase[i] = rng.Float64() * 2 * math.Pi
	}
	return t
}

// Apply maps a dataset into RFF space (labels are shared, not copied).
func (t *RFFTransform) Apply(ds *Dataset) *Dataset {
	out := &Dataset{Classes: ds.Classes, Y: ds.Y}
	norm := math.Sqrt(2.0 / float64(len(t.Omega)))
	for _, x := range ds.X {
		z := make([]float64, len(t.Omega))
		for i := range t.Omega {
			s := t.Phase[i]
			for j, xj := range x {
				s += t.Omega[i][j] * xj
			}
			z[i] = norm * math.Cos(s)
		}
		out.X = append(out.X, z)
	}
	return out
}
