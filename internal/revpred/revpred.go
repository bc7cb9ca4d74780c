// Package revpred implements RevPred, SpotTune's spot-instance revocation
// probability predictor (§III-B), together with the two baselines the paper
// compares against (a re-implementation of Tributary's predictor and plain
// logistic regression) and the train/evaluate harness behind Fig. 10.
//
// One independent model is trained per spot market from that market's price
// history. Given an instance type I, a maximum price b and a time t, a model
// outputs P(I, b, t): the probability that the market price exceeds b —
// i.e. the instance is revoked — within the next hour.
package revpred

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"

	"spottune/internal/kernels"
	"spottune/internal/market"
	"spottune/internal/nn"
)

// HistorySteps is the number of past per-minute records the history branch
// consumes (the paper uses the previous 59 minutes).
const HistorySteps = 59

// PresentFeatures is the present-record input width: the six engineered
// features plus the maximum price.
const PresentFeatures = market.FeatureCount + 1

// HorizonMinutes is the prediction window: revoked within the next hour.
const HorizonMinutes = 60

// Config controls model capacity and training.
type Config struct {
	// Hidden is the LSTM/MLP width (default 24).
	Hidden int
	// Depth is the LSTM stack depth (default 3, as in the paper).
	Depth int
	// Epochs over the training window (default 3).
	Epochs int
	// BatchSize for Adam updates (default 32).
	BatchSize int
	// LR is the Adam learning rate (default 1e-3).
	LR float64
	// Stride subsamples training minutes (default 2).
	Stride int
	// ClipNorm bounds the global gradient norm (default 5).
	ClipNorm float64
	// Seed drives weight init, shuffling and max-price deltas.
	Seed uint64
	// Workers is the number of gradient shards a mini-batch is split into
	// for parallel backpropagation (default 4). The shard layout and the
	// order shard gradients are folded back are fixed by this value alone,
	// so a given (config, seed) trains the identical model on any machine
	// and any GOMAXPROCS. Workers=1 reproduces strictly sequential
	// per-sample accumulation.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Hidden <= 0 {
		c.Hidden = 24
	}
	if c.Depth <= 0 {
		c.Depth = 3
	}
	if c.Epochs <= 0 {
		c.Epochs = 3
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR <= 0 {
		c.LR = 3e-3
	}
	if c.Stride <= 0 {
		c.Stride = 2
	}
	if c.ClipNorm <= 0 {
		c.ClipNorm = 5
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	return c
}

// Sample is one training/evaluation example.
type Sample struct {
	History  [][]float64 // HistorySteps × FeatureCount, normalized
	Present  []float64   // PresentFeatures, normalized
	MaxPrice float64     // raw USD/h, kept for diagnostics
	Label    bool        // revoked within the horizon
}

// normalizeFeatures scales the six raw features into comparable ranges:
// prices relative to the on-demand price, counts/durations relative to the
// one-hour window, hour-of-day to [0,1].
func normalizeFeatures(raw [market.FeatureCount]float64, it market.InstanceType) []float64 {
	dst := make([]float64, market.FeatureCount)
	normalizeFeaturesInto(dst, raw, it)
	return dst
}

// normalizeFeaturesInto is normalizeFeatures writing into a caller-owned
// buffer — the allocation-free form the inference hot path uses.
func normalizeFeaturesInto(dst []float64, raw [market.FeatureCount]float64, it market.InstanceType) {
	od := it.OnDemandPrice
	dst[0] = raw[0] / od
	dst[1] = raw[1] / od
	dst[2] = raw[2] / 60.0
	dst[3] = raw[3] / 60.0
	dst[4] = raw[4]
	dst[5] = raw[5] / 23.0
}

// DeltaMode selects how the maximum-price delta over the current price is
// generated when building samples.
type DeltaMode int

const (
	// DeltaFluctuation uses Algorithm 2: the trimmed-mean absolute price
	// variation over the past hour. RevPred trains with this mode so its
	// samples sit near the revoked/not-revoked border.
	DeltaFluctuation DeltaMode = iota + 1
	// DeltaRandom draws uniformly from [0.00001, 0.2] USD, as Tributary
	// does for training and every predictor does at inference time.
	DeltaRandom
	// DeltaMixed draws most samples at the Algorithm 2 border and the
	// rest at random — the border samples sharpen the decision boundary
	// (the paper's active-learning argument) while the random ones teach
	// the model its sensitivity to the maximum price, which inference
	// queries across the whole [0.00001, 0.2] range.
	DeltaMixed
)

// mixedRandomFraction is the share of random-delta samples in DeltaMixed.
const mixedRandomFraction = 0.35

// randomDelta reproduces the paper's inference-time delta interval.
func randomDelta(rng *rand.Rand) float64 {
	return 0.00001 + rng.Float64()*(0.2-0.00001)
}

// BuildSamples walks grid minutes [from, to) with the given stride and emits
// one labeled sample per step. from must leave room for the history window
// and to for the label horizon.
func BuildSamples(g *market.Grid, from, to, stride int, mode DeltaMode, rng *rand.Rand) ([]Sample, error) {
	if from < HistorySteps {
		from = HistorySteps
	}
	maxIdx := g.MaxLabelIndex(HorizonMinutes)
	if to > maxIdx+1 {
		to = maxIdx + 1
	}
	if from >= to {
		return nil, fmt.Errorf("revpred: empty sample window [%d, %d)", from, to)
	}
	if stride <= 0 {
		stride = 1
	}
	var samples []Sample
	for i := from; i < to; i += stride {
		var delta float64
		switch mode {
		case DeltaFluctuation:
			delta = g.FluctuationDelta(i)
		case DeltaRandom:
			delta = randomDelta(rng)
		case DeltaMixed:
			if rng.Float64() < mixedRandomFraction {
				delta = randomDelta(rng)
			} else {
				delta = g.FluctuationDelta(i)
			}
		default:
			return nil, fmt.Errorf("revpred: unknown delta mode %d", mode)
		}
		b := g.Price(i) + delta
		hist := make([][]float64, HistorySteps)
		for k := 0; k < HistorySteps; k++ {
			hist[k] = normalizeFeatures(g.Features(i-HistorySteps+k), g.Type)
		}
		present := append(normalizeFeatures(g.Features(i), g.Type), b/g.Type.OnDemandPrice)
		samples = append(samples, Sample{
			History:  hist,
			Present:  present,
			MaxPrice: b,
			Label:    g.ExceedsWithin(i, b, HorizonMinutes),
		})
	}
	return samples, nil
}

// classBalance returns the positive and negative sample fractions (φ+, φ−).
func classBalance(samples []Sample) (phiPos, phiNeg float64) {
	pos := 0
	for _, s := range samples {
		if s.Label {
			pos++
		}
	}
	n := float64(len(samples))
	if n == 0 {
		return 0.5, 0.5
	}
	phiPos = float64(pos) / n
	phiNeg = 1 - phiPos
	return phiPos, phiNeg
}

// Model is a trained RevPred network for one spot market. Its weights are
// fixed once Train or LoadModel returns; nothing mutates them afterwards.
// Predict is safe for concurrent use: per-call scratch (feature rows,
// forward workspace, activation buffers) comes from a pool, and the minute
// memo is guarded by its own mutex.
type Model struct {
	Type   market.InstanceType
	Hidden int

	hist    *nn.StackedLSTM // history branch: 59 × 6 features
	present *nn.MLP         // present branch: 7 features → embedding
	head    *nn.MLP         // concat → logit

	// PhiPos/PhiNeg are the training-set class fractions used both for
	// loss weighting and the Eq. 3 odds recalibration.
	PhiPos, PhiNeg float64

	// memo holds, per (grid, minute), everything Predict computes that the
	// maximum price does not enter; see historyMemo.
	memo historyMemo
	// hit is a copy of the weights a memo hit reads, packed by packHit.
	hit []float64
}

// inferScratch is the per-call inference state: buffers only, no cached
// results. Only act is sized by a model, and it grows to the widest model
// it has served, so every model draws from one pool.
type inferScratch struct {
	ws      *nn.Workspace
	hist    [][]float64 // HistorySteps rows of FeatureCount, one backing buffer
	present []float64   // the minute's FeatureCount normalized features
	act     []float64   // a memo hit's activations; see Model.scoreRow
}

// scratchPool holds *inferScratch values. One pool for all models keeps
// the idle scratches (and their workspace arenas) to a few per process,
// not a few per market.
var scratchPool = sync.Pool{New: func() any {
	const F = market.FeatureCount
	buf := make([]float64, HistorySteps*F)
	sc := &inferScratch{
		ws:      nn.NewWorkspace(),
		hist:    make([][]float64, HistorySteps),
		present: make([]float64, F),
	}
	for k := range sc.hist {
		sc.hist[k] = buf[k*F : (k+1)*F]
	}
	return sc
}}

// historyPageMinutes is how many minutes one memo page covers. It equals
// the width of one bitset word, so a page's fill bits are one uint64.
const historyPageMinutes = 64

// historyMemo memoizes, per (grid, minute), a row of 3·Hidden float64s:
// the history branch's last hidden state, then the two lane sums
// kernels.MatVecAcc builds over the present branch's first six columns
// (see Model.row). Both are pure functions of the frozen weights, the grid
// and the minute (the maximum price only enters the present branch's last
// column), so a memoized row holds the same bits a fresh pass returns.
// Rows are kept per grid, indexed by minute, in pages of historyPageMinutes
// rows that are allocated the first time one of their minutes is asked;
// the last page is clipped to the grid, so a (model, grid) pair holds at
// most grid.Len() × 3·Hidden × 8 bytes of rows. Grids are immutable, so
// the grid pointer is the key. A filled row is never written again, so a
// caller may read it after the mutex is released.
type historyMemo struct {
	mu    sync.Mutex
	grids map[*market.Grid][]historyPage
}

// historyPage is one page of memoized rows: bit k of filled says the
// page's k-th minute holds its row at rows[k*width:(k+1)*width].
type historyPage struct {
	filled uint64
	rows   []float64
}

// lookup returns the memoized row of the given width for minute i of g,
// or nil.
func (h *historyMemo) lookup(g *market.Grid, i, width int) []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	pages := h.grids[g]
	if pages == nil {
		return nil
	}
	p, k := &pages[i/historyPageMinutes], i%historyPageMinutes
	if p.filled&(1<<k) == 0 {
		return nil
	}
	return p.rows[k*width : (k+1)*width]
}

// store memoizes row as minute i's state and returns the memoized copy.
// When another goroutine stored the minute first, its row is kept: both
// are the same bits.
func (h *historyMemo) store(g *market.Grid, i int, row []float64) []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.grids == nil {
		h.grids = make(map[*market.Grid][]historyPage)
	}
	pages := h.grids[g]
	if pages == nil {
		pages = make([]historyPage, (g.Len()+historyPageMinutes-1)/historyPageMinutes)
		h.grids[g] = pages
	}
	p, k := &pages[i/historyPageMinutes], i%historyPageMinutes
	width := len(row)
	if p.rows == nil {
		minutes := min(historyPageMinutes, g.Len()-(i-k))
		p.rows = make([]float64, minutes*width)
	}
	dst := p.rows[k*width : (k+1)*width]
	if p.filled&(1<<k) == 0 {
		copy(dst, row)
		p.filled |= 1 << k
	}
	return dst
}

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param {
	ps := m.hist.Params()
	ps = append(ps, m.present.Params()...)
	ps = append(ps, m.head.Params()...)
	return ps
}

// newModel wires the RevPred architecture: a three-tier LSTM over history,
// three fully connected layers over the present record, and a joint head.
func newModel(it market.InstanceType, cfg Config, rng *rand.Rand) *Model {
	h := cfg.Hidden
	return &Model{
		Type:    it,
		Hidden:  h,
		hist:    nn.NewStackedLSTM("hist", market.FeatureCount, h, cfg.Depth, rng),
		present: nn.NewMLP("present", []int{PresentFeatures, h, h, h}, nn.ReLU, nn.ReLU, rng),
		head:    nn.NewMLP("head", []int{2 * h, h, 1}, nn.ReLU, nn.Identity, rng),
	}
}

// forward runs one sample through the net and returns the logit plus caches.
func (m *Model) forward(s *Sample) (float64, *nn.StackedCache, *nn.MLPCache, *nn.MLPCache) {
	return m.forwardWS(nil, s)
}

// forwardWS is forward over a reusable workspace. The caller owns the
// workspace lifecycle: this resets it, so any previous round's buffers die
// here.
func (m *Model) forwardWS(ws *nn.Workspace, s *Sample) (float64, *nn.StackedCache, *nn.MLPCache, *nn.MLPCache) {
	ws.Reset()
	hs, hc := m.hist.ForwardSeqWS(ws, s.History)
	last := hs[len(hs)-1]
	emb, pc := m.present.ForwardWS(ws, s.Present)
	joint := ws.Take(2 * m.Hidden)
	copy(joint[:m.Hidden], last)
	copy(joint[m.Hidden:], emb)
	z, hcHead := m.head.ForwardWS(ws, joint)
	return z[0], hc, pc, hcHead
}

// backward pushes dz through the net, accumulating gradients.
func (m *Model) backward(s *Sample, hc *nn.StackedCache, pc *nn.MLPCache, hcHead *nn.MLPCache, dz float64) {
	m.backwardWS(nil, s, hc, pc, hcHead, dz)
}

func (m *Model) backwardWS(ws *nn.Workspace, _ *Sample, hc *nn.StackedCache, pc *nn.MLPCache, hcHead *nn.MLPCache, dz float64) {
	dJoint := m.head.BackwardWS(ws, hcHead, []float64{dz})
	dLast := dJoint[:m.Hidden]
	dEmb := dJoint[m.Hidden:]
	m.present.BackwardWS(ws, pc, dEmb)
	m.hist.BackwardSeqWS(ws, hc, nn.LastHiddenGradWS(ws, HistorySteps, m.Hidden, dLast))
}

// gradShadow returns a weight-sharing copy with private gradient buffers —
// one per parallel training shard.
func (m *Model) gradShadow() *Model {
	return &Model{
		Type:    m.Type,
		Hidden:  m.Hidden,
		hist:    m.hist.GradShadow(),
		present: m.present.GradShadow(),
		head:    m.head.GradShadow(),
		PhiPos:  m.PhiPos,
		PhiNeg:  m.PhiNeg,
	}
}

// RawScore returns the uncalibrated network output P̂ for a sample.
func (m *Model) RawScore(s *Sample) float64 {
	z, _, _, _ := m.forward(s)
	return nn.Logistic(z)
}

// Calibrate undoes the class-weighted loss so the output is a usable
// probability. Training with positive weight φ− and negative weight φ+
// makes the loss minimizer satisfy odds(P̂) = (φ−/φ+)·odds(P), so the true
// conditional is recovered by odds(P) = odds(P̂)·φ+/φ−.
//
// Note: the paper's Eq. 3 prints the reciprocal factor (φ−/φ+), which
// re-applies the weighting instead of inverting it; with skewed classes
// that pushes every score to one side of the 0.5 threshold. We implement
// the mathematically consistent inversion and record the deviation in
// DESIGN.md.
func (m *Model) Calibrate(pHat float64) float64 {
	num := pHat * m.PhiPos
	den := num + (1-pHat)*m.PhiNeg
	if den == 0 {
		return 0
	}
	return num / den
}

// Score returns the calibrated revocation probability for a sample.
func (m *Model) Score(s *Sample) float64 { return m.Calibrate(m.RawScore(s)) }

// Predict builds the feature sample for minute i of grid g with the given
// maximum price and returns the calibrated revocation probability.
//
// This is the provisioning hot path (one call per candidate market per
// deployment decision). Everything the maximum price does not enter comes
// from the model's minute memo, so the 59-step LSTM pass, the feature
// assembly and most of the present branch's first layer run once per
// (grid, minute) for the model's lifetime; per call, only the maximum
// price's column, the rest of the present branch and the joint head run. A
// memo hit allocates nothing, and every path returns the same bits as
// Score on a freshly assembled sample.
func (m *Model) Predict(g *market.Grid, i int, maxPrice float64) float64 {
	if i < HistorySteps || i >= g.Len() {
		// Not enough history yet: fall back to the base rate.
		return m.PhiPos
	}
	sc := scratchPool.Get().(*inferScratch)
	defer scratchPool.Put(sc)
	return m.scoreRow(sc, m.row(sc, g, i), maxPrice/g.Type.OnDemandPrice)
}

// row returns minute i's memo row [hidden | lane0 | lane1], from the memo
// or, on a miss, built in sc and then memoized. hidden is the history
// branch's last hidden state. lane0 and lane1 are, per unit of the present
// branch's first layer, the even- and odd-column partial sums
// kernels.MatVecAcc builds over the six normalized features before it
// reaches the maximum-price column: lane by column parity, each lane in
// ascending order from zero, every product rounded before it is added.
// The passes run outside the memo's mutex, so concurrent misses do not
// serialize. The caller must have range-checked i.
func (m *Model) row(sc *inferScratch, g *market.Grid, i int) []float64 {
	h := m.Hidden
	if row := m.memo.lookup(g, i, 3*h); row != nil {
		return row
	}
	for k := range sc.hist {
		normalizeFeaturesInto(sc.hist[k], g.Features(i-HistorySteps+k), g.Type)
	}
	normalizeFeaturesInto(sc.present, g.Features(i), g.Type)
	sc.ws.Reset()
	hs := m.hist.ForwardSeqInferWS(sc.ws, sc.hist)
	row := sc.ws.Take(3 * h)
	copy(row, hs[len(hs)-1])
	l := m.present.Layers[0]
	for o := 0; o < h; o++ {
		w := l.W.W[o*l.In:][:market.FeatureCount]
		var s0, s1 float64
		for k, x := range sc.present {
			if k%2 == 0 {
				s0 += float64(w[k] * x)
			} else {
				s1 += float64(w[k] * x)
			}
		}
		row[h+o], row[2*h+o] = s0, s1
	}
	return m.memo.store(g, i, row)
}

// scoreRow finishes the present branch and runs the joint head for one
// normalized maximum price x against a memo row. The first layer's units
// end as MatVecAcc ends a row whose last (even) column is x: that product
// joins lane 0, then the lanes add, then the bias takes their sum. The
// other layers run on MatVecAcc over biases copied into sc.act, so every
// bit matches Dense.ForwardWS on the assembled sample. The weights come
// from m.hit; the architecture is newModel's, ReLU everywhere except the
// head's linear output.
func (m *Model) scoreRow(sc *inferScratch, row []float64, x float64) float64 {
	h := m.Hidden
	if len(sc.act) < 5*h+1 {
		sc.act = make([]float64, 5*h+1)
	}
	// act: joint [hidden | embedding], two present-branch layers, the
	// head's hidden layer and the logit.
	joint, a0, a1 := sc.act[:2*h], sc.act[2*h:3*h], sc.act[3*h:4*h]
	hh, z := sc.act[4*h:5*h], sc.act[5*h:5*h+1]
	copy(joint[:h], row[:h])
	tail, b0, w := m.hit[:h], m.hit[h:2*h], m.hit[2*h:]
	lane0, lane1 := row[h:2*h], row[2*h:3*h]
	for o := range a0 {
		a0[o] = relu(b0[o] + ((lane0[o] + float64(tail[o]*x)) + lane1[o]))
	}
	w = denseInto(a1, w, a0)
	w = denseInto(joint[h:], w, a1)
	w = denseInto(hh, w, joint)
	z[0] = w[h] // the linear output layer: its bias, then W·hh
	kernels.MatVecAcc(z, w[:h], 1, h, hh)
	return m.Calibrate(nn.Logistic(z[0]))
}

// denseInto is a ReLU dense layer over caller-owned y, in Dense.ForwardWS's
// order: y = relu(b + W·x), where w starts with W (len(y) rows of len(x))
// and then b. It returns the rest of w.
func denseInto(y, w, x []float64) []float64 {
	n := len(y) * len(x)
	copy(y, w[n:n+len(y)])
	kernels.MatVecAcc(y, w[:n], len(y), len(x), x)
	for o, v := range y {
		y[o] = relu(v)
	}
	return w[n+len(y):]
}

// packHit copies the weights a memo hit reads into m.hit, contiguous and
// in the order scoreRow reads them: the present branch's first-layer
// maximum-price column and biases, then each later layer's weights and
// biases. Train and LoadModel call it once the weights are final.
func (m *Model) packHit() {
	l := m.present.Layers[0]
	var w []float64
	for o := 0; o < l.Out; o++ {
		w = append(w, l.W.W[o*l.In+market.FeatureCount])
	}
	w = append(w, l.B.W...)
	for _, l := range [...]*nn.Dense{m.present.Layers[1], m.present.Layers[2], m.head.Layers[0], m.head.Layers[1]} {
		w = append(w, l.W.W...)
		w = append(w, l.B.W...)
	}
	m.hit = w
}

// relu is nn.ReLU's activation: negative inputs become zero, everything
// else (NaN and −0 included) passes through.
func relu(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// sampleAt assembles an unlabeled sample for inference.
func sampleAt(g *market.Grid, i int, maxPrice float64) (*Sample, error) {
	if i < HistorySteps || i >= g.Len() {
		return nil, fmt.Errorf("revpred: minute %d outside usable range [%d, %d)", i, HistorySteps, g.Len())
	}
	hist := make([][]float64, HistorySteps)
	for k := 0; k < HistorySteps; k++ {
		hist[k] = normalizeFeatures(g.Features(i-HistorySteps+k), g.Type)
	}
	present := append(normalizeFeatures(g.Features(i), g.Type), maxPrice/g.Type.OnDemandPrice)
	return &Sample{History: hist, Present: present, MaxPrice: maxPrice}, nil
}

// Train fits a RevPred model on grid minutes [from, to) (training split).
// Maximum prices are generated per Algorithm 2 (fluctuation deltas, mixed
// with a random-delta share so the model learns max-price sensitivity); the
// loss is class-weighted BCE; gradients are norm-clipped; Adam optimizes.
//
// Each mini-batch is split into cfg.Workers contiguous shards whose
// gradients are backpropagated in parallel into weight-sharing shadows and
// folded back in shard order — the shard layout depends only on the config,
// never on the machine, so training is deterministic everywhere (see
// Config.Workers).
func Train(g *market.Grid, from, to int, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5e7a11))
	samples, err := BuildSamples(g, from, to, cfg.Stride, DeltaMixed, rng)
	if err != nil {
		return nil, err
	}
	if len(samples) < 2*cfg.BatchSize {
		return nil, fmt.Errorf("revpred: only %d training samples; need at least %d", len(samples), 2*cfg.BatchSize)
	}
	m := newModel(g.Type, cfg, rng)
	m.PhiPos, m.PhiNeg = classBalance(samples)
	if m.PhiPos == 0 || m.PhiNeg == 0 {
		return nil, errors.New("revpred: training window has a single class; widen it or change the market")
	}
	// §III-B: positive class weighted by φ−, negative by φ+.
	loss := nn.WeightedBCE{PosWeight: m.PhiNeg, NegWeight: m.PhiPos}
	opt := nn.NewAdam(cfg.LR)
	params := m.Params()

	workers := cfg.Workers
	if workers > cfg.BatchSize {
		workers = cfg.BatchSize
	}
	type shard struct {
		model  *Model
		params []*nn.Param
		ws     *nn.Workspace
	}
	shards := make([]*shard, workers)
	for w := range shards {
		sm := m.gradShadow()
		shards[w] = &shard{model: sm, params: sm.Params(), ws: nn.NewWorkspace()}
	}
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for start := 0; start+cfg.BatchSize <= len(idx); start += cfg.BatchSize {
			batch := idx[start : start+cfg.BatchSize]
			var wg sync.WaitGroup
			for w, sh := range shards {
				lo := w * cfg.BatchSize / workers
				hi := (w + 1) * cfg.BatchSize / workers
				if lo == hi {
					continue
				}
				wg.Add(1)
				go func(sh *shard, chunk []int) {
					defer wg.Done()
					nn.ZeroGrads(sh.params)
					for _, si := range chunk {
						s := &samples[si]
						z, hc, pc, hcHead := sh.model.forwardWS(sh.ws, s)
						_, dz := loss.Loss(z, s.Label)
						sh.model.backwardWS(sh.ws, s, hc, pc, hcHead, dz/float64(cfg.BatchSize))
					}
				}(sh, batch[lo:hi])
			}
			wg.Wait()
			nn.ZeroGrads(params)
			for _, sh := range shards {
				for pi, p := range params {
					p.AddGrad(sh.params[pi])
				}
			}
			nn.ClipGradNorm(params, cfg.ClipNorm)
			opt.Step(params)
		}
	}
	m.packHit()
	return m, nil
}
