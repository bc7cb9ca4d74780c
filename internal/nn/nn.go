// Package nn is a small, dependency-free neural-network library: dense
// layers, stacked LSTMs with backpropagation through time, the Adam
// optimizer, weighted binary cross-entropy, global-norm gradient clipping,
// and gob serialization.
//
// It exists to implement RevPred (§III-B of the SpotTune paper): a three-tier
// LSTM over 59 history price records plus a three-layer fully connected
// branch over the present record. The paper builds this in a DL framework;
// this package is the stdlib-only substrate. All layers are gradient-checked
// in tests.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"spottune/internal/kernels"
)

// Param is one trainable tensor (flattened row-major) with its gradient
// accumulator.
type Param struct {
	Name       string
	Rows, Cols int
	W          []float64
	G          []float64
}

// NewParam allocates a zeroed rows×cols parameter.
func NewParam(name string, rows, cols int) *Param {
	return &Param{
		Name: name,
		Rows: rows,
		Cols: cols,
		W:    make([]float64, rows*cols),
		G:    make([]float64, rows*cols),
	}
}

// InitXavier fills W with Glorot-uniform values scaled by fan-in/fan-out.
func (p *Param) InitXavier(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(p.Rows+p.Cols))
	for i := range p.W {
		p.W[i] = (2*rng.Float64() - 1) * limit
	}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// GradShadow returns a Param that shares this parameter's weights but owns
// a private, zeroed gradient buffer. Parallel mini-batch workers accumulate
// into shadows; AddGrad folds the shards back in deterministic order.
func (p *Param) GradShadow() *Param {
	return &Param{Name: p.Name, Rows: p.Rows, Cols: p.Cols, W: p.W, G: make([]float64, len(p.W))}
}

// AddGrad accumulates another parameter's gradient buffer into this one.
func (p *Param) AddGrad(src *Param) {
	kernels.Axpy(p.G, 1, src.G)
}

// Activation selects a dense-layer nonlinearity.
type Activation int

// Supported activations. Identity must stay first so the zero value is a
// plain linear layer.
const (
	Identity Activation = iota
	ReLU
	Tanh
	Sigmoid
)

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Tanh:
		return math.Tanh(x)
	case Sigmoid:
		return sigmoid(x)
	default:
		return x
	}
}

// derivFromOutput returns dy/dx given y = act(x), using the output-side form
// so caches only store outputs.
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	case Sigmoid:
		return y * (1 - y)
	default:
		return 1
	}
}

// sigmoid is the numerically stable logistic, shaped for inlining: one Exp
// call site keeps it under the inliner budget, which matters because the
// LSTM gate loop calls it three times per hidden unit per timestep. For
// x < 0 it computes 1 − 1/(1+e^x) instead of the algebraically identical
// e^x/(1+e^x); the two differ by at most 1 ulp until e^x underflows the
// subtraction (|x| ≳ 36, where both sides are saturated anyway).
func sigmoid(x float64) float64 {
	e := math.Exp(-math.Abs(x))
	s := 1 / (1 + e)
	if x < 0 {
		s = 1 - s
	}
	return s
}

// Dense is a fully connected layer y = act(W·x + b).
type Dense struct {
	In, Out int
	W       *Param // Out × In
	B       *Param // Out × 1
	Act     Activation
}

// NewDense builds a dense layer with Xavier-initialized weights.
func NewDense(name string, in, out int, act Activation, rng *rand.Rand) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W:   NewParam(name+".W", out, in),
		B:   NewParam(name+".b", out, 1),
		Act: act,
	}
	d.W.InitXavier(rng)
	return d
}

// Params returns the trainable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// GradShadow returns a weight-sharing copy of the layer with private
// gradient accumulators (see Param.GradShadow).
func (d *Dense) GradShadow() *Dense {
	return &Dense{In: d.In, Out: d.Out, W: d.W.GradShadow(), B: d.B.GradShadow(), Act: d.Act}
}

// DenseCache stores what Backward needs. The input is borrowed, not copied:
// callers must not mutate x between Forward and Backward.
type DenseCache struct {
	x []float64 // input (borrowed)
	y []float64 // post-activation output
}

// Forward computes y = act(W·x + b).
func (d *Dense) Forward(x []float64) ([]float64, *DenseCache) {
	return d.ForwardWS(nil, x)
}

// ForwardWS is Forward over the given workspace; y is carved from ws. Each
// output accumulates bias first, then the input terms in
// kernels.MatVecAcc's documented pairwise order — deterministic and
// platform-independent (see DESIGN.md, "Kernels layer").
func (d *Dense) ForwardWS(ws *Workspace, x []float64) ([]float64, *DenseCache) {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: dense %s expects input %d, got %d", d.W.Name, d.In, len(x)))
	}
	y := ws.take(d.Out)
	copy(y, d.B.W)
	kernels.MatVecAcc(y, d.W.W, d.Out, d.In, x)
	if d.Act != Identity {
		for o, v := range y {
			y[o] = d.Act.apply(v)
		}
	}
	return y, &DenseCache{x: x, y: y}
}

// Backward accumulates parameter gradients for upstream gradient dy and
// returns the gradient w.r.t. the input.
func (d *Dense) Backward(cache *DenseCache, dy []float64) []float64 {
	return d.BackwardWS(nil, cache, dy)
}

// BackwardWS is Backward over the given workspace. The accumulation order
// into dx is unchanged from the pre-kernel implementation (per output row,
// ascending input index).
func (d *Dense) BackwardWS(ws *Workspace, cache *DenseCache, dy []float64) []float64 {
	if len(dy) != d.Out {
		panic(fmt.Sprintf("nn: dense %s backward expects grad %d, got %d", d.W.Name, d.Out, len(dy)))
	}
	dx := ws.take(d.In)
	for o := 0; o < d.Out; o++ {
		dz := dy[o] * d.Act.derivFromOutput(cache.y[o])
		d.B.G[o] += dz
		kernels.Axpy(d.W.G[o*d.In:(o+1)*d.In], dz, cache.x)
		kernels.Axpy(dx, dz, d.W.W[o*d.In:(o+1)*d.In])
	}
	return dx
}

// MLP is a stack of dense layers applied in order.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds len(sizes)-1 dense layers; hidden layers use hiddenAct and
// the final layer uses finalAct.
func NewMLP(name string, sizes []int, hiddenAct, finalAct Activation, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		act := hiddenAct
		if i+2 == len(sizes) {
			act = finalAct
		}
		m.Layers = append(m.Layers, NewDense(
			fmt.Sprintf("%s.%d", name, i), sizes[i], sizes[i+1], act, rng))
	}
	return m
}

// Params returns the trainable parameters.
func (m *MLP) Params() []*Param {
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// GradShadow returns a weight-sharing copy of the MLP with private gradient
// accumulators (see Param.GradShadow).
func (m *MLP) GradShadow() *MLP {
	out := &MLP{Layers: make([]*Dense, len(m.Layers))}
	for i, l := range m.Layers {
		out.Layers[i] = l.GradShadow()
	}
	return out
}

// MLPCache chains per-layer caches.
type MLPCache struct {
	caches []*DenseCache
}

// Forward applies every layer in order.
func (m *MLP) Forward(x []float64) ([]float64, *MLPCache) {
	return m.ForwardWS(nil, x)
}

// ForwardWS applies every layer in order over the given workspace.
func (m *MLP) ForwardWS(ws *Workspace, x []float64) ([]float64, *MLPCache) {
	c := &MLPCache{caches: make([]*DenseCache, 0, len(m.Layers))}
	for _, l := range m.Layers {
		var dc *DenseCache
		x, dc = l.ForwardWS(ws, x)
		c.caches = append(c.caches, dc)
	}
	return x, c
}

// Backward walks the layers in reverse, accumulating gradients.
func (m *MLP) Backward(cache *MLPCache, dy []float64) []float64 {
	return m.BackwardWS(nil, cache, dy)
}

// BackwardWS walks the layers in reverse over the given workspace.
func (m *MLP) BackwardWS(ws *Workspace, cache *MLPCache, dy []float64) []float64 {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		dy = m.Layers[i].BackwardWS(ws, cache.caches[i], dy)
	}
	return dy
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.G {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			for i := range p.G {
				p.G[i] *= scale
			}
		}
	}
	return norm
}

// ZeroGrads clears every parameter's gradient.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// Adam implements the Adam optimizer (Kingma & Ba 2014), the optimizer the
// paper uses for its neural workloads (Table II).
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int
	m map[*Param][]float64
	v map[*Param][]float64
}

// NewAdam returns an Adam optimizer with standard defaults for unset fields.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:      lr,
		Beta1:   0.9,
		Beta2:   0.999,
		Epsilon: 1e-8,
		m:       make(map[*Param][]float64),
		v:       make(map[*Param][]float64),
	}
}

// Step applies one Adam update to every parameter using its accumulated
// gradient, then leaves gradients untouched (callers zero them).
func (a *Adam) Step(params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(p.W))
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = make([]float64, len(p.W))
			a.v[p] = v
		}
		for i, g := range p.G {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mHat := m[i] / bc1
			vHat := v[i] / bc2
			p.W[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Epsilon)
		}
	}
}

// WeightedBCE is binary cross-entropy over a logit with per-class weights —
// the data-imbalance counterweight of §III-B (positive weight φ−, negative
// weight φ+).
type WeightedBCE struct {
	PosWeight float64
	NegWeight float64
}

// Loss returns the weighted BCE for a logit z against label y∈{0,1} and the
// gradient dL/dz. The sigmoid is folded in for numerical stability.
func (w WeightedBCE) Loss(z float64, y bool) (loss, dz float64) {
	p := sigmoid(z)
	const eps = 1e-12
	if y {
		loss = -w.PosWeight * math.Log(p+eps)
		dz = w.PosWeight * (p - 1)
		return loss, dz
	}
	loss = -w.NegWeight * math.Log(1-p+eps)
	dz = w.NegWeight * p
	return loss, dz
}

// Logistic exposes the numerically stable logistic (sigmoid) function.
func Logistic(x float64) float64 { return sigmoid(x) }

// ErrShape reports incompatible tensor shapes during (de)serialization.
var ErrShape = errors.New("nn: shape mismatch")
