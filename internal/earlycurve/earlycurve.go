// Package earlycurve implements EarlyCurve, SpotTune's training-trend
// predictor (§III-C): validation-metric curves are modeled as a piecewise
// (staged) rational-decay function (Eq. 4–6) whose stage boundaries are
// detected online with the heuristic of Eq. 7. Given the metric history up
// to θ·max_trial_steps, it extrapolates the final metric so bad
// hyper-parameter settings can be shut down early.
//
// The SLAQ baseline (Zhang et al., SoCC'17) is included for Fig. 11: a
// single-stage non-negative fit over a fixed basis, which cannot track the
// multi-stage curves produced by step-decayed learning rates.
package earlycurve

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"spottune/internal/fit"
)

// MetricPoint is one observed (step, metric) pair, e.g. validation loss at a
// training step or epoch.
type MetricPoint struct {
	Step  int
	Value float64
}

// The paper's constants for the Eq. 7 stage-boundary heuristic: a new
// stage starts at point i when the relative metric change ζ_i exceeds
// stageXi after at least stageWindow consecutive steady points
// (ζ < stageEpsilon).
const (
	stageXi      = 0.5  // jump threshold ξ
	stageEpsilon = 0.01 // steadiness threshold ε
	stageWindow  = 5    // trailing steady points
)

// changeRate returns ζ_i = |L_i − L_{i−1}| / max(|L_{i−1}|, floor). The
// floor keeps ζ meaningful when a curve approaches zero: without it, noise
// at the bottom of a well-converged loss curve registers as huge relative
// jumps and fragments the curve into spurious stages.
func changeRate(prev, cur, floor float64) float64 {
	den := math.Abs(prev)
	if den < floor {
		den = floor
	}
	if den < 1e-12 {
		den = 1e-12
	}
	return math.Abs(cur-prev) / den
}

// scaleFloor derives the denominator floor from the curve's overall scale
// (1% of the largest magnitude seen).
func scaleFloor(points []MetricPoint) float64 {
	maxAbs := 0.0
	for _, p := range points {
		if a := math.Abs(p.Value); a > maxAbs {
			maxAbs = a
		}
	}
	return 0.01 * maxAbs
}

// Boundaries returns the indices (into points) where new stages begin,
// detected with the Eq. 7 heuristic. The first stage always begins at 0, so
// the result always starts with 0 and is strictly increasing.
func Boundaries(points []MetricPoint) []int {
	bounds := []int{0}
	if len(points) < 2 {
		return bounds
	}
	floor := scaleFloor(points)
	steady := 0
	for i := 1; i < len(points); i++ {
		z := changeRate(points[i-1].Value, points[i].Value, floor)
		if z > stageXi && steady >= stageWindow {
			bounds = append(bounds, i)
			steady = 0
			continue
		}
		if z < stageEpsilon {
			steady++
		} else {
			steady = 0
		}
	}
	return bounds
}

// Converged reports whether the curve has plateaued: every relative change
// across the last window points is below tol, and the window is not a slow
// net climb (a drifting-upward metric is overfitting, not convergence).
// SpotTune treats converged trials as finished even before
// θ·max_trial_steps (§III-C).
func Converged(points []MetricPoint, window int, tol float64) bool {
	n := len(points)
	if window < 2 || n < window {
		return false
	}
	floor := scaleFloor(points)
	for i := n - window + 1; i < n; i++ {
		if changeRate(points[i-1].Value, points[i].Value, floor) >= tol {
			return false
		}
	}
	first, last := points[n-window].Value, points[n-1].Value
	den := math.Abs(first)
	if den < floor {
		den = floor
	}
	return last-first <= tol*den
}

// StageFit is one fitted stage: the curve 1/(a0·k'² + a1·k' + a2) + a3 over
// the half-open step interval [L, R), where k' = k − L + 1 is the local step
// index. Local coordinates keep the rational family well-conditioned for
// late stages; the family is equivalent to the paper's Eq. 4 per-stage form.
type StageFit struct {
	L, R int // global step bounds, [L, R)
	A    [4]float64
}

// Eval evaluates the stage curve at global step k.
func (s *StageFit) Eval(k int) float64 {
	kl := float64(k - s.L + 1)
	den := s.A[0]*kl*kl + s.A[1]*kl + s.A[2]
	if den < 1e-9 {
		den = 1e-9
	}
	return 1/den + s.A[3]
}

// Fit is a fitted multi-stage curve.
type Fit struct {
	Stages []StageFit
}

// ErrTooFewPoints is returned when a curve has too little data to fit.
var ErrTooFewPoints = errors.New("earlycurve: too few metric points to fit")

// minStagePoints is the fewest observations a stage needs for a stable fit.
const minStagePoints = 4

// FitMemo is a content-addressed cache of solved stage fits: EarlyCurve's
// one reuse layer. An environment shares one across every campaign it runs,
// and the streaming matrix runner one per worker, where thousands of cells
// replay the same deterministic trial curves and would otherwise re-run the
// same Levenberg–Marquardt solves. Each refit of a growing curve finds its
// settled stages here and solves only the stage that changed. Results live
// in one flat arena slice; the index maps segment identity to arena slots.
//
// fitStage is a pure function of its segment, so a memo hit returns the same
// bits a fresh solve would. Segment identity is the full content key (point
// count, edge steps, and an FNV-1a hash over every step and value), and the
// memo is size-capped: once full it stops learning but keeps serving hits,
// so its memory is bounded regardless of how many cells stream through.
//
// A FitMemo is safe for concurrent use: one mutex guards the arena and the
// index, so sweep workers sharing an environment can share its memo. Two
// workers missing the same segment at once both solve it; the first store
// wins, and both solves are the same bits.
type FitMemo struct {
	mu    sync.Mutex
	fits  []StageFit
	index map[memoKey]int32
}

// memoFitCap bounds the arena (entries are ~56 bytes; the cap keeps a
// worker's memo under a few MiB even on adversarial workloads).
const memoFitCap = 1 << 16

type memoKey struct {
	n         int
	startStep int
	endStep   int
	hash      uint64
}

// NewFitMemo returns an empty stage-fit cache.
func NewFitMemo() *FitMemo {
	return &FitMemo{index: make(map[memoKey]int32)}
}

// segKey builds the content key for one stage segment.
func segKey(seg []MetricPoint) memoKey {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range seg {
		v := uint64(p.Step)
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
		v = math.Float64bits(p.Value)
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	return memoKey{
		n:         len(seg),
		startStep: seg[0].Step,
		endStep:   seg[len(seg)-1].Step,
		hash:      h,
	}
}

// fit returns the stage fit of one segment: the cached solve when the memo
// holds one, else a fresh fitStage, which it then caches. A nil memo always
// solves.
func (m *FitMemo) fit(seg []MetricPoint) (StageFit, error) {
	if m == nil {
		return fitStage(seg)
	}
	key := segKey(seg)
	if sf, ok := m.lookup(key); ok {
		return sf, nil
	}
	sf, err := fitStage(seg)
	if err != nil {
		return StageFit{}, err
	}
	m.store(key, sf)
	return sf, nil
}

// lookup returns the cached fit for a segment, if present.
func (m *FitMemo) lookup(key memoKey) (StageFit, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i, ok := m.index[key]; ok {
		return m.fits[i], true
	}
	return StageFit{}, false
}

// store caches a solved fit unless the memo is full.
func (m *FitMemo) store(key memoKey, sf StageFit) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.fits) >= memoFitCap {
		return
	}
	if _, dup := m.index[key]; dup {
		return
	}
	m.fits = append(m.fits, sf)
	m.index[key] = int32(len(m.fits) - 1)
}

// fitCurve fits the staged model of Eq. 4 to the observed points, in
// strictly increasing step order, with stage boundaries from Boundaries and
// every stage fitted through memo (nil solves each stage). fitStage is a
// pure function of its segment, so the result is bit-identical to a cold
// fit: the memo changes cost, never values.
func fitCurve(points []MetricPoint, memo *FitMemo) (*Fit, error) {
	if len(points) < minStagePoints {
		return nil, fmt.Errorf("%w: %d", ErrTooFewPoints, len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Step <= points[i-1].Step {
			return nil, fmt.Errorf("earlycurve: points not strictly increasing at %d", i)
		}
	}
	bounds := Boundaries(points)
	// Merge stages too short to fit into their predecessor.
	merged := []int{0}
	for _, b := range bounds[1:] {
		if len(points)-b < minStagePoints || b-merged[len(merged)-1] < minStagePoints {
			continue
		}
		merged = append(merged, b)
	}
	f := &Fit{}
	for si, start := range merged {
		end := len(points)
		if si+1 < len(merged) {
			end = merged[si+1]
		}
		seg := points[start:end]
		sf, err := memo.fit(seg)
		if err != nil {
			return nil, fmt.Errorf("earlycurve: fitting stage %d: %w", si, err)
		}
		sf.L = seg[0].Step
		sf.R = seg[len(seg)-1].Step + 1
		f.Stages = append(f.Stages, sf)
	}
	return f, nil
}

// fitStage fits 1/(a0·k'² + a1·k' + a2) + a3 with non-negative coefficients
// (enforced by squared reparameterization) via Levenberg–Marquardt.
func fitStage(seg []MetricPoint) (StageFit, error) {
	base := seg[0].Step
	ks := make([]float64, len(seg))
	ys := make([]float64, len(seg))
	minY, maxY := math.Inf(1), math.Inf(-1)
	for i, p := range seg {
		ks[i] = float64(p.Step - base + 1)
		ys[i] = p.Value
		minY = math.Min(minY, p.Value)
		maxY = math.Max(maxY, p.Value)
	}
	model := func(u []float64, k float64) float64 {
		den := u[0]*u[0]*k*k + u[1]*u[1]*k + u[2]*u[2]
		if den < 1e-9 {
			den = 1e-9
		}
		return 1/den + u[3]*u[3]
	}
	resid := func(u []float64, out []float64) {
		for i := range ks {
			out[i] = model(u, ks[i]) - ys[i]
		}
	}
	// Initialization: plateau a3 slightly below the smallest observed
	// value; a2 matches the first point's height above the plateau.
	a3 := math.Max(minY*0.9, 0)
	gap := math.Max(ys[0]-a3, 1e-3)
	init := []float64{
		math.Sqrt(1e-6),
		math.Sqrt(math.Max(0.1/gap/math.Max(ks[len(ks)-1], 1), 1e-9)),
		math.Sqrt(1 / gap),
		math.Sqrt(a3 + 1e-12),
	}
	res, err := fit.LevenbergMarquardtInto(resid, len(ks), init, fit.LMOptions{MaxIterations: 300})
	if err != nil {
		return StageFit{}, err
	}
	u := res.Params
	return StageFit{A: [4]float64{u[0] * u[0], u[1] * u[1], u[2] * u[2], u[3] * u[3]}}, nil
}

// Predict evaluates the fitted curve at a global step. Steps beyond the last
// stage extrapolate that stage's curve — exactly how EarlyCurve projects the
// final metric from partial data.
func (f *Fit) Predict(step int) (float64, error) {
	if len(f.Stages) == 0 {
		return 0, errors.New("earlycurve: empty fit")
	}
	for i := range f.Stages {
		s := &f.Stages[i]
		if step >= s.L && step < s.R {
			return s.Eval(step), nil
		}
	}
	last := &f.Stages[len(f.Stages)-1]
	if step >= last.R {
		return last.Eval(step), nil
	}
	// Before the first stage: clamp to its first value.
	first := &f.Stages[0]
	return first.Eval(first.L), nil
}

// TrendPredictor predicts a final metric value from a metric-curve prefix.
// Both EarlyCurve and the SLAQ baseline implement it, and the orchestrator
// depends only on this interface.
type TrendPredictor interface {
	// PredictFinal extrapolates the metric at finalStep from the points
	// observed so far.
	PredictFinal(points []MetricPoint, finalStep int) (float64, error)
}

// Predictor is the production EarlyCurve predictor.
type Predictor struct {
	// Memo, when set, serves and caches every stage fit (see FitMemo), so
	// a refit of a grown curve solves only the stages that changed. Nil
	// solves every stage.
	Memo *FitMemo
}

var _ TrendPredictor = (*Predictor)(nil)

// PredictFinal implements TrendPredictor with the staged fit of Eq. 4,
// guarded by a tail sanity check: when the extrapolation lands implausibly
// far above the recently observed values (which happens when noisy curves
// defeat stage detection and the rational fit degenerates), the prediction
// falls back to the tail mean. Validation metrics extrapolate downward or
// sideways, almost never upward past their recent ceiling.
func (p *Predictor) PredictFinal(points []MetricPoint, finalStep int) (float64, error) {
	f, err := fitCurve(points, p.Memo)
	if err != nil {
		return 0, err
	}
	return guardedPredict(f, points, finalStep)
}

// guardedPredict extrapolates the fitted curve to finalStep and applies
// Predictor's tail sanity guards.
func guardedPredict(f *Fit, points []MetricPoint, finalStep int) (float64, error) {
	pred, err := f.Predict(finalStep)
	if err != nil {
		return 0, err
	}
	n := len(points)
	w := 8
	if w > n {
		w = n
	}
	tail := points[n-w:]
	tailMean, tailMax, tailMin := 0.0, math.Inf(-1), math.Inf(1)
	for _, pt := range tail {
		tailMean += pt.Value
		tailMax = math.Max(tailMax, pt.Value)
		tailMin = math.Min(tailMin, pt.Value)
	}
	tailMean /= float64(w)
	// Ceiling: metrics do not extrapolate far above their recent values.
	ceiling := tailMax + 0.25*math.Abs(tailMax)
	if math.IsNaN(pred) || math.IsInf(pred, 0) || pred > ceiling {
		pred = tailMean
	}
	// Floor: further descent must be licensed by the tail's own trend —
	// a flat or rising tail cannot fall much below its recent band, and
	// a falling tail extrapolates at most 1.5x its linear rate. This
	// keeps the rational family's early-descent bias from dragging the
	// asymptote under long plateaus.
	slope := tailSlope(tail)
	last := tail[len(tail)-1]
	var floor float64
	if slope >= 0 {
		floor = tailMin - (tailMax - tailMin)
	} else {
		floor = last.Value + 1.5*slope*float64(finalStep-last.Step)
	}
	if pred < floor {
		pred = floor
	}
	return pred, nil
}

// tailSlope is the least-squares per-step slope over the given points.
func tailSlope(pts []MetricPoint) float64 {
	n := float64(len(pts))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		x := float64(p.Step)
		sx += x
		sy += p.Value
		sxx += x * x
		sxy += x * p.Value
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// SLAQ is the single-stage baseline: a non-negative least-squares fit over
// the fixed decaying basis {1, 1/k, 1/k², 1/√k, log(k+1)/(k+1)}. It matches
// EarlyCurve on single-stage curves but cannot express learning-rate-decay
// jumps (Fig. 11).
type SLAQ struct{}

var _ TrendPredictor = SLAQ{}

// slaqBasis evaluates the basis functions at step k ≥ 1.
func slaqBasis(k float64) []float64 {
	return []float64{
		1,
		1 / k,
		1 / (k * k),
		1 / math.Sqrt(k),
		math.Log(k+1) / (k + 1),
	}
}

// PredictFinal implements TrendPredictor with one global NNLS fit.
func (SLAQ) PredictFinal(points []MetricPoint, finalStep int) (float64, error) {
	if len(points) < minStagePoints {
		return 0, fmt.Errorf("%w: %d", ErrTooFewPoints, len(points))
	}
	base := points[0].Step
	nb := len(slaqBasis(1))
	a := fit.NewMatrix(len(points), nb)
	b := make([]float64, len(points))
	for i, p := range points {
		for j, v := range slaqBasis(float64(p.Step - base + 1)) {
			a.Set(i, j, v)
		}
		b[i] = p.Value
	}
	coef, err := fit.SolveNNLS(a, b)
	if err != nil {
		return 0, err
	}
	out := 0.0
	for j, v := range slaqBasis(float64(finalStep - base + 1)) {
		out += coef[j] * v
	}
	return out, nil
}
