package nn

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
)

func newRng() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }

func TestParamInit(t *testing.T) {
	p := NewParam("w", 4, 3)
	if len(p.W) != 12 || len(p.G) != 12 {
		t.Fatal("wrong storage size")
	}
	p.InitXavier(newRng())
	anyNonZero := false
	limit := math.Sqrt(6.0 / 7.0)
	for _, w := range p.W {
		if w != 0 {
			anyNonZero = true
		}
		if math.Abs(w) > limit {
			t.Fatalf("weight %v exceeds Xavier limit %v", w, limit)
		}
	}
	if !anyNonZero {
		t.Fatal("InitXavier left all weights zero")
	}
	p.G[0] = 5
	p.ZeroGrad()
	if p.G[0] != 0 {
		t.Fatal("ZeroGrad failed")
	}
}

func TestActivations(t *testing.T) {
	tests := []struct {
		act  Activation
		x    float64
		want float64
	}{
		{Identity, -3, -3},
		{ReLU, -3, 0},
		{ReLU, 3, 3},
		{Tanh, 0, 0},
		{Sigmoid, 0, 0.5},
	}
	for _, tt := range tests {
		if got := tt.act.apply(tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("act(%v)(%v) = %v, want %v", tt.act, tt.x, got, tt.want)
		}
	}
}

func TestSigmoidStability(t *testing.T) {
	if got := Logistic(1000); got != 1 {
		t.Errorf("Logistic(1000) = %v", got)
	}
	if got := Logistic(-1000); got != 0 {
		t.Errorf("Logistic(-1000) = %v", got)
	}
	if math.IsNaN(Logistic(-745)) || math.IsNaN(Logistic(745)) {
		t.Error("Logistic overflow produced NaN")
	}
}

func TestDenseForwardShape(t *testing.T) {
	d := NewDense("d", 3, 2, Identity, newRng())
	y, _ := d.Forward([]float64{1, 2, 3})
	if len(y) != 2 {
		t.Fatalf("output len %d, want 2", len(y))
	}
}

func TestDenseForwardKnownWeights(t *testing.T) {
	d := NewDense("d", 2, 1, Identity, newRng())
	copy(d.W.W, []float64{2, 3})
	d.B.W[0] = 1
	y, _ := d.Forward([]float64{4, 5})
	if want := 2.0*4 + 3*5 + 1; y[0] != want {
		t.Fatalf("dense output %v, want %v", y[0], want)
	}
}

// numericGrad computes d loss/d w[i] by central differences.
func numericGrad(loss func() float64, w []float64, i int) float64 {
	const h = 1e-6
	orig := w[i]
	w[i] = orig + h
	lp := loss()
	w[i] = orig - h
	lm := loss()
	w[i] = orig
	return (lp - lm) / (2 * h)
}

func checkParamGrads(t *testing.T, name string, params []*Param, loss func() float64, tol float64) {
	t.Helper()
	for _, p := range params {
		for i := range p.W {
			want := numericGrad(loss, p.W, i)
			got := p.G[i]
			scale := math.Max(math.Abs(want), 1)
			if math.Abs(got-want) > tol*scale {
				t.Errorf("%s %s[%d]: analytic %v vs numeric %v", name, p.Name, i, got, want)
			}
		}
	}
}

func TestDenseGradCheck(t *testing.T) {
	for _, act := range []Activation{Identity, ReLU, Tanh, Sigmoid} {
		d := NewDense("d", 3, 2, act, newRng())
		x := []float64{0.5, -0.3, 0.8}
		target := []float64{0.2, -0.1}
		loss := func() float64 {
			y, _ := d.Forward(x)
			s := 0.0
			for i := range y {
				diff := y[i] - target[i]
				s += 0.5 * diff * diff
			}
			return s
		}
		y, cache := d.Forward(x)
		dy := make([]float64, len(y))
		for i := range y {
			dy[i] = y[i] - target[i]
		}
		ZeroGrads(d.Params())
		d.Backward(cache, dy)
		checkParamGrads(t, "dense", d.Params(), loss, 1e-5)
	}
}

func TestDenseInputGradCheck(t *testing.T) {
	d := NewDense("d", 3, 2, Tanh, newRng())
	x := []float64{0.5, -0.3, 0.8}
	loss := func() float64 {
		y, _ := d.Forward(x)
		s := 0.0
		for _, v := range y {
			s += 0.5 * v * v
		}
		return s
	}
	y, cache := d.Forward(x)
	ZeroGrads(d.Params())
	dx := d.Backward(cache, y)
	for i := range x {
		want := numericGrad(loss, x, i)
		if math.Abs(dx[i]-want) > 1e-5 {
			t.Errorf("dx[%d] analytic %v vs numeric %v", i, dx[i], want)
		}
	}
}

func TestMLPGradCheck(t *testing.T) {
	m := NewMLP("m", []int{4, 5, 3, 1}, Tanh, Identity, newRng())
	x := []float64{0.1, -0.2, 0.3, 0.4}
	loss := func() float64 {
		y, _ := m.Forward(x)
		return 0.5 * y[0] * y[0]
	}
	y, cache := m.Forward(x)
	ZeroGrads(m.Params())
	m.Backward(cache, []float64{y[0]})
	checkParamGrads(t, "mlp", m.Params(), loss, 1e-5)
}

func TestLSTMForwardShapes(t *testing.T) {
	l := NewLSTM("l", 3, 4, newRng())
	xs := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	hs, _ := l.ForwardSeqWS(nil, xs)
	if len(hs) != 3 {
		t.Fatalf("got %d hidden outputs, want 3", len(hs))
	}
	for _, h := range hs {
		if len(h) != 4 {
			t.Fatalf("hidden size %d, want 4", len(h))
		}
	}
}

func TestLSTMForgetGateBias(t *testing.T) {
	l := NewLSTM("l", 2, 3, newRng())
	for h := 0; h < 3; h++ {
		if l.B.W[3+h] != 1 {
			t.Fatalf("forget bias not initialized to 1")
		}
	}
}

func TestLSTMGradCheck(t *testing.T) {
	l := NewLSTM("l", 2, 3, newRng())
	xs := [][]float64{{0.5, -0.1}, {0.2, 0.7}, {-0.4, 0.3}, {0.1, 0.1}}
	loss := func() float64 {
		hs, _ := l.ForwardSeqWS(nil, xs)
		last := hs[len(hs)-1]
		s := 0.0
		for _, v := range last {
			s += 0.5 * v * v
		}
		return s
	}
	hs, cache := l.ForwardSeqWS(nil, xs)
	last := hs[len(hs)-1]
	ZeroGrads(l.Params())
	l.BackwardSeqWS(nil, cache, LastHiddenGrad(len(xs), 3, last))
	checkParamGrads(t, "lstm", l.Params(), loss, 1e-4)
}

func TestLSTMAllStepGradCheck(t *testing.T) {
	// Gradient flowing from every timestep, not just the last.
	l := NewLSTM("l", 2, 2, newRng())
	xs := [][]float64{{0.3, -0.2}, {0.1, 0.4}, {-0.5, 0.2}}
	loss := func() float64 {
		hs, _ := l.ForwardSeqWS(nil, xs)
		s := 0.0
		for _, h := range hs {
			for _, v := range h {
				s += 0.5 * v * v
			}
		}
		return s
	}
	hs, cache := l.ForwardSeqWS(nil, xs)
	dhs := make([][]float64, len(xs))
	for t0, h := range hs {
		dhs[t0] = append([]float64(nil), h...)
	}
	ZeroGrads(l.Params())
	l.BackwardSeqWS(nil, cache, dhs)
	checkParamGrads(t, "lstm-all", l.Params(), loss, 1e-4)
}

func TestLSTMInputGradCheck(t *testing.T) {
	l := NewLSTM("l", 2, 3, newRng())
	flat := []float64{0.5, -0.1, 0.2, 0.7}
	rebuild := func() [][]float64 {
		return [][]float64{{flat[0], flat[1]}, {flat[2], flat[3]}}
	}
	loss := func() float64 {
		hs, _ := l.ForwardSeqWS(nil, rebuild())
		last := hs[len(hs)-1]
		s := 0.0
		for _, v := range last {
			s += 0.5 * v * v
		}
		return s
	}
	hs, cache := l.ForwardSeqWS(nil, rebuild())
	last := hs[len(hs)-1]
	ZeroGrads(l.Params())
	dxs := l.BackwardSeqWS(nil, cache, LastHiddenGrad(2, 3, last))
	got := []float64{dxs[0][0], dxs[0][1], dxs[1][0], dxs[1][1]}
	for i := range flat {
		want := numericGrad(loss, flat, i)
		if math.Abs(got[i]-want) > 1e-5 {
			t.Errorf("dx[%d] analytic %v vs numeric %v", i, got[i], want)
		}
	}
}

func TestStackedLSTMGradCheck(t *testing.T) {
	s := NewStackedLSTM("s", 2, 3, 3, newRng())
	if len(s.Layers) != 3 {
		t.Fatalf("stack depth %d, want 3", len(s.Layers))
	}
	xs := [][]float64{{0.5, -0.1}, {0.2, 0.7}, {-0.3, 0.4}}
	loss := func() float64 {
		hs, _ := s.ForwardSeq(xs)
		last := hs[len(hs)-1]
		sum := 0.0
		for _, v := range last {
			sum += 0.5 * v * v
		}
		return sum
	}
	hs, cache := s.ForwardSeq(xs)
	last := hs[len(hs)-1]
	ZeroGrads(s.Params())
	s.BackwardSeq(cache, LastHiddenGrad(len(xs), 3, last))
	checkParamGrads(t, "stacked", s.Params(), loss, 1e-4)
}

func TestWeightedBCELossAndGrad(t *testing.T) {
	w := WeightedBCE{PosWeight: 2, NegWeight: 0.5}
	z := 0.3
	// Numeric check of dz for both labels.
	for _, y := range []bool{true, false} {
		loss := func(z float64) float64 {
			l, _ := w.Loss(z, y)
			return l
		}
		_, dz := w.Loss(z, y)
		h := 1e-6
		want := (loss(z+h) - loss(z-h)) / (2 * h)
		if math.Abs(dz-want) > 1e-5 {
			t.Errorf("label %v: dz analytic %v vs numeric %v", y, dz, want)
		}
	}
	// Weighted: positive-label loss at p=0.5 should be 2x the unweighted.
	lp, _ := w.Loss(0, true)
	if math.Abs(lp-2*math.Log(2)) > 1e-9 {
		t.Errorf("weighted positive loss %v, want %v", lp, 2*math.Log(2))
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("p", 1, 4)
	copy(p.G, []float64{3, 4, 0, 0}) // norm 5
	pre := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm %v, want 5", pre)
	}
	post := math.Hypot(p.G[0], p.G[1])
	if math.Abs(post-1) > 1e-9 {
		t.Fatalf("post-clip norm %v, want 1", post)
	}
	// Below threshold: untouched.
	copy(p.G, []float64{0.3, 0.4, 0, 0})
	ClipGradNorm([]*Param{p}, 1)
	if p.G[0] != 0.3 {
		t.Fatal("clip modified a small gradient")
	}
}

func TestAdamReducesLoss(t *testing.T) {
	// Fit y = 2x with a linear model via Adam.
	d := NewDense("d", 1, 1, Identity, newRng())
	opt := NewAdam(0.05)
	rng := newRng()
	lossAt := func() float64 {
		total := 0.0
		for i := 0; i < 16; i++ {
			x := float64(i)/8 - 1
			y, _ := d.Forward([]float64{x})
			diff := y[0] - 2*x
			total += 0.5 * diff * diff
		}
		return total
	}
	before := lossAt()
	for epoch := 0; epoch < 200; epoch++ {
		ZeroGrads(d.Params())
		for i := 0; i < 16; i++ {
			x := rng.Float64()*2 - 1
			y, cache := d.Forward([]float64{x})
			d.Backward(cache, []float64{y[0] - 2*x})
		}
		opt.Step(d.Params())
	}
	after := lossAt()
	if after >= before/10 {
		t.Fatalf("Adam failed to reduce loss: %v -> %v", before, after)
	}
	if math.Abs(d.W.W[0]-2) > 0.1 {
		t.Errorf("learned weight %v, want ~2", d.W.W[0])
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := NewMLP("m", []int{3, 4, 2}, ReLU, Identity, newRng())
	var buf bytes.Buffer
	if err := Save(&buf, m.Params()); err != nil {
		t.Fatal(err)
	}
	m2 := NewMLP("m", []int{3, 4, 2}, ReLU, Identity, rand.New(rand.NewPCG(9, 9)))
	if err := Load(&buf, m2.Params()); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, 0.2, 0.3}
	y1, _ := m.Forward(x)
	y2, _ := m2.Forward(x)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("loaded model diverges: %v vs %v", y1, y2)
		}
	}
}

func TestLoadShapeMismatch(t *testing.T) {
	m := NewMLP("m", []int{3, 4, 2}, ReLU, Identity, newRng())
	blob, err := SaveBytes(m.Params())
	if err != nil {
		t.Fatal(err)
	}
	other := NewMLP("m", []int{3, 5, 2}, ReLU, Identity, newRng())
	if err := LoadBytes(blob, other.Params()); err == nil {
		t.Fatal("shape mismatch not detected")
	}
	missing := NewMLP("x", []int{3, 4, 2}, ReLU, Identity, newRng())
	if err := LoadBytes(blob, missing.Params()); err == nil {
		t.Fatal("missing parameter not detected")
	}
}

func TestSaveDuplicateNames(t *testing.T) {
	p1 := NewParam("same", 1, 1)
	p2 := NewParam("same", 1, 1)
	var buf bytes.Buffer
	if err := Save(&buf, []*Param{p1, p2}); err == nil {
		t.Fatal("duplicate names not rejected")
	}
}

func TestLSTMLearnsToggle(t *testing.T) {
	// Sanity: an LSTM can learn "output sign of the sum of inputs seen".
	rng := newRng()
	l := NewLSTM("l", 1, 8, rng)
	head := NewDense("h", 8, 1, Identity, rng)
	params := append(l.Params(), head.Params()...)
	opt := NewAdam(0.02)
	bce := WeightedBCE{PosWeight: 1, NegWeight: 1}

	sample := func() ([][]float64, bool) {
		T := 4 + rng.IntN(4)
		xs := make([][]float64, T)
		sum := 0.0
		for t0 := range xs {
			v := rng.Float64()*2 - 1
			xs[t0] = []float64{v}
			sum += v
		}
		return xs, sum > 0
	}
	var lastAvg float64
	for epoch := 0; epoch < 30; epoch++ {
		total := 0.0
		ZeroGrads(params)
		const batch = 32
		for b := 0; b < batch; b++ {
			xs, label := sample()
			hs, cache := l.ForwardSeqWS(nil, xs)
			z, hc := head.Forward(hs[len(hs)-1])
			loss, dz := bce.Loss(z[0], label)
			total += loss
			dh := head.Backward(hc, []float64{dz / batch})
			l.BackwardSeqWS(nil, cache, LastHiddenGrad(len(xs), 8, dh))
		}
		ClipGradNorm(params, 5)
		opt.Step(params)
		lastAvg = total / 32
	}
	if lastAvg > 0.55 {
		t.Errorf("LSTM failed to learn toggle task: avg loss %v", lastAvg)
	}
}
