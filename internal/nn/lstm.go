package nn

import (
	"fmt"
	"math"
	"math/rand/v2"

	"spottune/internal/kernels"
)

// LSTM is a single LSTM layer. Gates are stacked in the order
// input (i), forget (f), candidate (g), output (o), so Wx is (4H × In),
// Wh is (4H × H) and B is (4H × 1).
type LSTM struct {
	In, Hidden int
	Wx         *Param
	Wh         *Param
	B          *Param
}

// NewLSTM builds an LSTM layer with Xavier-initialized weights and the
// customary +1 forget-gate bias (helps gradient flow early in training).
func NewLSTM(name string, in, hidden int, rng *rand.Rand) *LSTM {
	l := &LSTM{
		In:     in,
		Hidden: hidden,
		Wx:     NewParam(name+".Wx", 4*hidden, in),
		Wh:     NewParam(name+".Wh", 4*hidden, hidden),
		B:      NewParam(name+".b", 4*hidden, 1),
	}
	l.Wx.InitXavier(rng)
	l.Wh.InitXavier(rng)
	for h := 0; h < hidden; h++ {
		l.B.W[hidden+h] = 1 // forget gate bias
	}
	return l
}

// Params returns the trainable parameters.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// GradShadow returns a view of the layer that shares its weights but owns a
// private gradient accumulator — the unit of parallel mini-batch training:
// each worker backpropagates into its own shadow, and the shards are summed
// into the real gradients in deterministic shard order.
func (l *LSTM) GradShadow() *LSTM {
	return &LSTM{In: l.In, Hidden: l.Hidden, Wx: l.Wx.GradShadow(), Wh: l.Wh.GradShadow(), B: l.B.GradShadow()}
}

// LSTMCache holds the unrolled forward pass in flat row-major buffers:
// gate activations (4H per step, i/f/g/o stacked), cell and hidden states
// (H per step), plus borrowed references to the input steps. Slices are
// carved from the forward call's workspace and stay valid until its Reset.
type LSTMCache struct {
	t     int
	xs    [][]float64 // borrowed input views; callers must not mutate before backward
	gates []float64   // t × 4H post-activation gate values
	c, h  []float64   // t × H post-step cell / hidden states
	tanhC []float64   // t × H tanh(c), saved so backward skips the recompute
}

// ForwardSeqWS runs the layer over a sequence, starting from zero state,
// and returns the hidden state at every step. All transient buffers (and
// the returned hidden views) are carved from ws and remain valid until
// ws.Reset; a nil ws allocates them per call. Each gate row accumulates
// bias, then input terms, then hidden terms; within each term group the sum
// follows kernels.MatVecAcc's documented pairwise order, so outputs are
// deterministic and identical across platforms (and between a workspace
// and a nil one), though not bit-identical to the pre-kernels scalar code —
// see DESIGN.md, "Kernels layer".
func (l *LSTM) ForwardSeqWS(ws *Workspace, xs [][]float64) ([][]float64, *LSTMCache) {
	T := len(xs)
	H := l.Hidden
	cache := &LSTMCache{
		t:     T,
		xs:    xs,
		gates: ws.takeRaw(T * 4 * H),
		c:     ws.takeRaw(T * H),
		h:     ws.takeRaw(T * H),
		tanhC: ws.takeRaw(T * H),
	}
	outs := ws.takeRows(T)
	hPrev := ws.take(H) // zero initial state
	cPrev := ws.take(H)
	for t, x := range xs {
		if len(x) != l.In {
			panic(fmt.Sprintf("nn: lstm %s expects input %d, got %d at step %d", l.Wx.Name, l.In, len(x), t))
		}
		// Pre-activations z = B + Wx·x + Wh·hPrev: bias first, then the
		// input projection, then the recurrent term (pairwise row sums
		// inside each MatVecAcc).
		z := cache.gates[t*4*H : (t+1)*4*H]
		copy(z, l.B.W)
		kernels.MatVecAcc(z, l.Wx.W, 4*H, l.In, x)
		kernels.MatVecAcc(z, l.Wh.W, 4*H, H, hPrev)
		c := cache.c[t*H : (t+1)*H]
		h := cache.h[t*H : (t+1)*H]
		tc := cache.tanhC[t*H : (t+1)*H]
		for j := 0; j < H; j++ {
			i := sigmoid(z[j])
			f := sigmoid(z[H+j])
			g := math.Tanh(z[2*H+j])
			o := sigmoid(z[3*H+j])
			z[j], z[H+j], z[2*H+j], z[3*H+j] = i, f, g, o
			c[j] = f*cPrev[j] + i*g
			tc[j] = math.Tanh(c[j])
			h[j] = o * tc[j]
		}
		outs[t] = h
		hPrev, cPrev = h, c
	}
	return outs, cache
}

// ForwardSeqInferWS is ForwardSeqWS without the backward cache: identical
// arithmetic in identical order (bit-identical hidden outputs), but no
// per-call cache header reaches the heap. Gate pre-activations reuse one
// per-step buffer since backward never revisits them.
func (l *LSTM) ForwardSeqInferWS(ws *Workspace, xs [][]float64) [][]float64 {
	T := len(xs)
	H := l.Hidden
	z := ws.takeRaw(4 * H)
	cs := ws.takeRaw(T * H)
	hs := ws.takeRaw(T * H)
	outs := ws.takeRows(T)
	hPrev := ws.take(H) // zero initial state
	cPrev := ws.take(H)
	for t, x := range xs {
		if len(x) != l.In {
			panic(fmt.Sprintf("nn: lstm %s expects input %d, got %d at step %d", l.Wx.Name, l.In, len(x), t))
		}
		copy(z, l.B.W)
		kernels.MatVecAcc(z, l.Wx.W, 4*H, l.In, x)
		kernels.MatVecAcc(z, l.Wh.W, 4*H, H, hPrev)
		c := cs[t*H : (t+1)*H]
		h := hs[t*H : (t+1)*H]
		for j := 0; j < H; j++ {
			i := sigmoid(z[j])
			f := sigmoid(z[H+j])
			g := math.Tanh(z[2*H+j])
			o := sigmoid(z[3*H+j])
			c[j] = f*cPrev[j] + i*g
			h[j] = o * math.Tanh(c[j])
		}
		outs[t] = h
		hPrev, cPrev = h, c
	}
	return outs
}

// BackwardSeqWS backpropagates through time using the given workspace for
// every transient buffer. dhs must contain one gradient per timestep's
// hidden output (nil entries are allowed and cheap). Parameter gradients
// accumulate into the layer's Params; the returned slices are the gradients
// w.r.t. each input step.
//
// Input/hidden gradients (dx, dhPrev) accumulate in ascending gate-row
// order via the transpose kernels, whereas the pre-kernel code grouped the
// four gate contributions per hidden unit. The sums are mathematically
// identical but may differ in final ulps; every consumer (gradient checks,
// trained-model tests, campaign goldens) asserts through tolerances or
// properties, never on gradient bit patterns. Parameter gradients touch
// each element exactly once, so their values are order-independent.
func (l *LSTM) BackwardSeqWS(ws *Workspace, cache *LSTMCache, dhs [][]float64) [][]float64 {
	T := cache.t
	if len(dhs) != T {
		panic(fmt.Sprintf("nn: lstm backward got %d grads for %d steps", len(dhs), T))
	}
	H := l.Hidden
	dxsFlat := ws.take(T * l.In)
	dxs := ws.takeRows(T)
	dhNext := ws.take(H)
	dcNext := ws.take(H)
	dhPrev := ws.take(H)
	dcPrev := ws.take(H)
	dz := ws.takeRaw(4 * H)
	zeroH := ws.take(H)
	for t := T - 1; t >= 0; t-- {
		gates := cache.gates[t*4*H : (t+1)*4*H]
		tcs := cache.tanhC[t*H : (t+1)*H]
		cPrev, hPrev := zeroH, zeroH
		if t > 0 {
			cPrev = cache.c[(t-1)*H : t*H]
			hPrev = cache.h[(t-1)*H : t*H]
		}
		dht := dhs[t]
		for j := 0; j < H; j++ {
			dh := dhNext[j]
			if dht != nil {
				dh += dht[j]
			}
			i, f, g, o := gates[j], gates[H+j], gates[2*H+j], gates[3*H+j]
			tanhC := tcs[j]
			do := dh * tanhC
			dc := dh*o*(1-tanhC*tanhC) + dcNext[j]
			di := dc * g
			dg := dc * i
			df := dc * cPrev[j]
			dcPrev[j] = dc * f

			dzi := di * i * (1 - i)
			dzf := df * f * (1 - f)
			dzg := dg * (1 - g*g)
			dzo := do * o * (1 - o)
			dz[j], dz[H+j], dz[2*H+j], dz[3*H+j] = dzi, dzf, dzg, dzo

			l.B.G[j] += dzi
			l.B.G[H+j] += dzf
			l.B.G[2*H+j] += dzg
			l.B.G[3*H+j] += dzo
		}
		x := cache.xs[t]
		dx := dxsFlat[t*l.In : (t+1)*l.In]
		kernels.OuterAcc(l.Wx.G, 4*H, l.In, dz, x)
		kernels.MatTVecAcc(dx, l.Wx.W, 4*H, l.In, dz)
		kernels.OuterAcc(l.Wh.G, 4*H, H, dz, hPrev)
		kernels.MatTVecAcc(dhPrev, l.Wh.W, 4*H, H, dz)
		dxs[t] = dx
		dhNext, dhPrev = dhPrev, dhNext
		dcNext, dcPrev = dcPrev, dcNext
		kernels.Zero(dhPrev)
		kernels.Zero(dcPrev)
	}
	return dxs
}

// StackedLSTM chains several LSTM layers; layer n+1 consumes layer n's
// hidden sequence. RevPred uses a three-tier stack (§III-B).
type StackedLSTM struct {
	Layers []*LSTM
}

// NewStackedLSTM builds depth LSTM layers of the same hidden width.
func NewStackedLSTM(name string, in, hidden, depth int, rng *rand.Rand) *StackedLSTM {
	if depth < 1 {
		panic("nn: stacked LSTM needs depth >= 1")
	}
	s := &StackedLSTM{}
	for d := 0; d < depth; d++ {
		layerIn := hidden
		if d == 0 {
			layerIn = in
		}
		s.Layers = append(s.Layers, NewLSTM(fmt.Sprintf("%s.%d", name, d), layerIn, hidden, rng))
	}
	return s
}

// Params returns the trainable parameters.
func (s *StackedLSTM) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// GradShadow returns a weight-sharing copy of the stack with private
// gradient accumulators (see LSTM.GradShadow).
func (s *StackedLSTM) GradShadow() *StackedLSTM {
	out := &StackedLSTM{Layers: make([]*LSTM, len(s.Layers))}
	for i, l := range s.Layers {
		out.Layers[i] = l.GradShadow()
	}
	return out
}

// StackedCache chains per-layer caches.
type StackedCache struct {
	caches []*LSTMCache
}

// ForwardSeq returns the top layer's hidden sequence.
func (s *StackedLSTM) ForwardSeq(xs [][]float64) ([][]float64, *StackedCache) {
	return s.ForwardSeqWS(nil, xs)
}

// ForwardSeqWS is ForwardSeq over the given workspace; intermediate layer
// outputs live in the workspace, so nothing per-step is heap-allocated.
func (s *StackedLSTM) ForwardSeqWS(ws *Workspace, xs [][]float64) ([][]float64, *StackedCache) {
	c := &StackedCache{caches: make([]*LSTMCache, 0, len(s.Layers))}
	for _, l := range s.Layers {
		var lc *LSTMCache
		xs, lc = l.ForwardSeqWS(ws, xs)
		c.caches = append(c.caches, lc)
	}
	return xs, c
}

// ForwardSeqInferWS runs the stack through the cache-free inference path;
// bit-identical to ForwardSeqWS (see LSTM.ForwardSeqInferWS).
func (s *StackedLSTM) ForwardSeqInferWS(ws *Workspace, xs [][]float64) [][]float64 {
	for _, l := range s.Layers {
		xs = l.ForwardSeqInferWS(ws, xs)
	}
	return xs
}

// BackwardSeq backpropagates top-down through the stack.
func (s *StackedLSTM) BackwardSeq(cache *StackedCache, dhs [][]float64) [][]float64 {
	return s.BackwardSeqWS(nil, cache, dhs)
}

// BackwardSeqWS backpropagates top-down through the stack over ws.
func (s *StackedLSTM) BackwardSeqWS(ws *Workspace, cache *StackedCache, dhs [][]float64) [][]float64 {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dhs = s.Layers[i].BackwardSeqWS(ws, cache.caches[i], dhs)
	}
	return dhs
}

// LastHiddenGrad builds a dhs slice that is zero everywhere except the final
// step, for nets that read only the last hidden state.
func LastHiddenGrad(T, hidden int, dLast []float64) [][]float64 {
	return LastHiddenGradWS(nil, T, hidden, dLast)
}

// LastHiddenGradWS is LastHiddenGrad with the final-step gradient copied
// into workspace memory.
func LastHiddenGradWS(ws *Workspace, T, hidden int, dLast []float64) [][]float64 {
	dhs := ws.takeRows(T)
	last := ws.take(hidden)
	copy(last, dLast)
	dhs[T-1] = last
	return dhs
}
