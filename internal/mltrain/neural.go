package mltrain

import (
	"fmt"
	"math"
	"math/rand/v2"

	"spottune/internal/nn"
)

// softmaxCE returns the cross-entropy of logits against an integer label and
// the gradient w.r.t. the logits (softmax − one-hot), computed stably.
func softmaxCE(logits []float64, label int) (float64, []float64) {
	maxL := logits[0]
	for _, v := range logits[1:] {
		if v > maxL {
			maxL = v
		}
	}
	sum := 0.0
	exps := make([]float64, len(logits))
	for i, v := range logits {
		exps[i] = math.Exp(v - maxL)
		sum += exps[i]
	}
	d := make([]float64, len(logits))
	var loss float64
	for i := range logits {
		p := exps[i] / sum
		d[i] = p
		if i == label {
			d[i] -= 1
			// The epsilon guards log(0); the min keeps the loss from
			// dipping below zero when p is exactly 1.
			loss = -math.Log(math.Min(p+1e-12, 1))
		}
	}
	return loss, d
}

// MLPClassifier is a fully connected softmax classifier optimized with Adam
// — the AlexNet stand-in (a plain deep net with an exponential or epoch-step
// learning-rate schedule; see DESIGN.md for the substitution rationale).
type MLPClassifier struct {
	Classes int
	// L2 is the weight-decay coefficient applied in TrainStep (0 = off).
	L2 float64

	net *nn.MLP
	opt *nn.Adam
}

var _ Model = (*MLPClassifier)(nil)

// NewMLPClassifier builds an MLP dim → hidden... → classes.
func NewMLPClassifier(dim int, hidden []int, classes int, seed uint64) *MLPClassifier {
	rng := rand.New(rand.NewPCG(seed, 0x1147))
	sizes := append(append([]int{dim}, hidden...), classes)
	return &MLPClassifier{
		Classes: classes,
		net:     nn.NewMLP("mlp", sizes, nn.ReLU, nn.Identity, rng),
		opt:     nn.NewAdam(1e-3),
	}
}

// TrainStep implements Model with one Adam update on the batch.
func (m *MLPClassifier) TrainStep(ds *Dataset, idx []int, lr float64) {
	if len(idx) == 0 {
		return
	}
	params := m.net.Params()
	nn.ZeroGrads(params)
	inv := 1.0 / float64(len(idx))
	for _, i := range idx {
		logits, cache := m.net.Forward(ds.X[i])
		_, d := softmaxCE(logits, int(ds.Y[i]))
		for j := range d {
			d[j] *= inv
		}
		m.net.Backward(cache, d)
	}
	applyWeightDecay(params, m.L2)
	nn.ClipGradNorm(params, 5)
	m.opt.LR = lr
	m.opt.Step(params)
}

// applyWeightDecay adds λ·w to every weight gradient (biases included; at
// these scales the distinction is immaterial).
func applyWeightDecay(params []*nn.Param, l2 float64) {
	if l2 <= 0 {
		return
	}
	for _, p := range params {
		for i, w := range p.W {
			p.G[i] += l2 * w
		}
	}
}

// Loss implements Model: mean cross-entropy.
func (m *MLPClassifier) Loss(ds *Dataset) float64 {
	total := 0.0
	for i, x := range ds.X {
		logits, _ := m.net.Forward(x)
		l, _ := softmaxCE(logits, int(ds.Y[i]))
		total += l
	}
	return total / float64(len(ds.X))
}

// resBlock is one residual block: out = x + fc2(relu-act fc1(x)), with an
// optional post-addition ReLU ("version 1" in Table II's ResNet HPs; version
// 2 is the identity-shortcut variant).
type resBlock struct {
	fc1, fc2 *nn.Dense
	postAct  bool
}

type resBlockCache struct {
	c1, c2 *nn.DenseCache
	x      []float64
	sum    []float64 // pre-activation output (x + fc2(...))
}

func (b *resBlock) forward(x []float64) ([]float64, *resBlockCache) {
	h, c1 := b.fc1.Forward(x)
	f, c2 := b.fc2.Forward(h)
	sum := make([]float64, len(x))
	for i := range sum {
		sum[i] = x[i] + f[i]
	}
	out := sum
	if b.postAct {
		out = make([]float64, len(sum))
		for i, v := range sum {
			if v > 0 {
				out[i] = v
			}
		}
	}
	return out, &resBlockCache{c1: c1, c2: c2, x: x, sum: sum}
}

func (b *resBlock) backward(cache *resBlockCache, dout []float64) []float64 {
	dsum := dout
	if b.postAct {
		dsum = make([]float64, len(dout))
		for i, v := range cache.sum {
			if v > 0 {
				dsum[i] = dout[i]
			}
		}
	}
	dh := b.fc2.Backward(cache.c2, dsum)
	dx := b.fc1.Backward(cache.c1, dh)
	for i := range dx {
		dx[i] += dsum[i] // identity shortcut
	}
	return dx
}

// ResMLPClassifier is a residual MLP classifier — the ResNet stand-in. The
// Table II ResNet hyper-parameters map onto it directly: depth → number of
// residual blocks, version → post-activation variant, de → the epoch-step
// learning-rate decay that produces the two-stage validation curves of
// Fig. 5b.
type ResMLPClassifier struct {
	Classes int
	Hidden  int
	// L2 is the weight-decay coefficient applied in TrainStep (0 = off).
	L2 float64

	input  *nn.Dense
	blocks []*resBlock
	head   *nn.Dense
	opt    *nn.Adam
}

var _ Model = (*ResMLPClassifier)(nil)

// NewResMLPClassifier builds an input projection, `blocks` residual blocks
// of the given width, and a linear head.
func NewResMLPClassifier(dim, hidden, blocks, classes int, postAct bool, seed uint64) *ResMLPClassifier {
	if blocks < 1 {
		blocks = 1
	}
	rng := rand.New(rand.NewPCG(seed, 0x4e5))
	m := &ResMLPClassifier{
		Classes: classes,
		Hidden:  hidden,
		input:   nn.NewDense("res.in", dim, hidden, nn.ReLU, rng),
		head:    nn.NewDense("res.head", hidden, classes, nn.Identity, rng),
		opt:     nn.NewAdam(1e-3),
	}
	for b := 0; b < blocks; b++ {
		m.blocks = append(m.blocks, &resBlock{
			fc1:     nn.NewDense(fmt.Sprintf("res.%d.fc1", b), hidden, hidden, nn.ReLU, rng),
			fc2:     nn.NewDense(fmt.Sprintf("res.%d.fc2", b), hidden, hidden, nn.Identity, rng),
			postAct: postAct,
		})
	}
	return m
}

// Params returns all trainable parameters.
func (m *ResMLPClassifier) Params() []*nn.Param {
	ps := m.input.Params()
	for _, b := range m.blocks {
		ps = append(ps, b.fc1.Params()...)
		ps = append(ps, b.fc2.Params()...)
	}
	return append(ps, m.head.Params()...)
}

type resForward struct {
	inCache    *nn.DenseCache
	blockCache []*resBlockCache
	headCache  *nn.DenseCache
	logits     []float64
}

func (m *ResMLPClassifier) forward(x []float64) *resForward {
	fw := &resForward{}
	h, c := m.input.Forward(x)
	fw.inCache = c
	for _, b := range m.blocks {
		var bc *resBlockCache
		h, bc = b.forward(h)
		fw.blockCache = append(fw.blockCache, bc)
	}
	fw.logits, fw.headCache = m.head.Forward(h)
	return fw
}

func (m *ResMLPClassifier) backward(fw *resForward, dlogits []float64) {
	dh := m.head.Backward(fw.headCache, dlogits)
	for i := len(m.blocks) - 1; i >= 0; i-- {
		dh = m.blocks[i].backward(fw.blockCache[i], dh)
	}
	m.input.Backward(fw.inCache, dh)
}

// TrainStep implements Model with one Adam update on the batch.
func (m *ResMLPClassifier) TrainStep(ds *Dataset, idx []int, lr float64) {
	if len(idx) == 0 {
		return
	}
	params := m.Params()
	nn.ZeroGrads(params)
	inv := 1.0 / float64(len(idx))
	for _, i := range idx {
		fw := m.forward(ds.X[i])
		_, d := softmaxCE(fw.logits, int(ds.Y[i]))
		for j := range d {
			d[j] *= inv
		}
		m.backward(fw, d)
	}
	applyWeightDecay(params, m.L2)
	nn.ClipGradNorm(params, 5)
	m.opt.LR = lr
	m.opt.Step(params)
}

// Loss implements Model: mean cross-entropy.
func (m *ResMLPClassifier) Loss(ds *Dataset) float64 {
	total := 0.0
	for i, x := range ds.X {
		fw := m.forward(x)
		l, _ := softmaxCE(fw.logits, int(ds.Y[i]))
		total += l
	}
	return total / float64(len(ds.X))
}

// Accuracy returns top-1 classification accuracy.
func (m *ResMLPClassifier) Accuracy(ds *Dataset) float64 {
	hit := 0
	for i, x := range ds.X {
		fw := m.forward(x)
		best := 0
		for j, v := range fw.logits {
			if v > fw.logits[best] {
				best = j
			}
		}
		if best == int(ds.Y[i]) {
			hit++
		}
	}
	return float64(hit) / float64(len(ds.X))
}
