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

// Detector implements the Eq. 7 stage-boundary heuristic: a new stage starts
// at point i when the relative metric change ζ_i exceeds Xi after at least
// Window consecutive steady points (ζ < Epsilon).
type Detector struct {
	// Xi is the jump threshold ξ (paper default 0.5).
	Xi float64
	// Epsilon is the steadiness threshold ε (paper default 0.01).
	Epsilon float64
	// Window is how many trailing points must be steady (paper uses 5).
	Window int
}

// DefaultDetector returns the paper's constants.
func DefaultDetector() Detector { return Detector{Xi: 0.5, Epsilon: 0.01, Window: 5} }

func (d Detector) withDefaults() Detector {
	if d.Xi <= 0 {
		d.Xi = 0.5
	}
	if d.Epsilon <= 0 {
		d.Epsilon = 0.01
	}
	if d.Window <= 0 {
		d.Window = 5
	}
	return d
}

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

// Boundaries returns the indices (into points) where new stages begin. The
// first stage always begins at 0, so the result always starts with 0 and is
// strictly increasing.
func (d Detector) Boundaries(points []MetricPoint) []int {
	d = d.withDefaults()
	bounds := []int{0}
	if len(points) < 2 {
		return bounds
	}
	floor := scaleFloor(points)
	steady := 0
	for i := 1; i < len(points); i++ {
		z := changeRate(points[i-1].Value, points[i].Value, floor)
		if z > d.Xi && steady >= d.Window {
			bounds = append(bounds, i)
			steady = 0
			continue
		}
		if z < d.Epsilon {
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

// FitCurve fits the staged model of Eq. 4 to the observed points using the
// given detector for stage boundaries. Points must be in increasing step
// order.
func FitCurve(points []MetricPoint, det Detector) (*Fit, error) {
	f, _, err := fitCurveReuse(points, det, nil, nil)
	return f, err
}

// FitMemo is a content-addressed cache of solved stage fits, shared across
// trackers (and across whole campaign cells in the streaming matrix runner,
// where thousands of cells replay the same deterministic trial curves and
// would otherwise re-run the same Levenberg–Marquardt solves). Results live
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

// lookup returns the cached fit for a segment, if present.
func (m *FitMemo) lookup(key memoKey) (StageFit, bool) {
	if m == nil {
		return StageFit{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if i, ok := m.index[key]; ok {
		return m.fits[i], true
	}
	return StageFit{}, false
}

// store caches a solved fit unless the memo is full.
func (m *FitMemo) store(key memoKey, sf StageFit) {
	if m == nil {
		return
	}
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

// Len reports how many stage fits are cached.
func (m *FitMemo) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.fits)
}

// trackedStage is one fitted stage annotated with the point-index range it
// was fitted over, so an incremental refit can prove a cached fit is still
// exact (same segment of an append-only stream ⇒ same fitStage output,
// bit for bit) and reuse it without running the solver.
type trackedStage struct {
	startIdx, endIdx   int // point-index range [startIdx, endIdx)
	startStep, endStep int // step values at the range edges, for validation
	fit                StageFit
}

// fitCurveReuse is FitCurve with two exact reuse layers: any stage whose
// point range matches a previous fit's exactly is copied instead of
// re-solved (prev — the per-tracker incremental memo), and any segment whose
// full content matches an earlier solve anywhere is served from the shared
// FitMemo (memo — the cross-tracker arena; nil disables it). fitStage is a
// pure function of its segment, so the result is bit-identical to a cold
// fit — the reuse layers change cost, never values.
func fitCurveReuse(points []MetricPoint, det Detector, prev []trackedStage, memo *FitMemo) (*Fit, []trackedStage, error) {
	if len(points) < minStagePoints {
		return nil, nil, fmt.Errorf("%w: %d", ErrTooFewPoints, len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Step <= points[i-1].Step {
			return nil, nil, fmt.Errorf("earlycurve: points not strictly increasing at %d", i)
		}
	}
	bounds := det.Boundaries(points)
	// Merge stages too short to fit into their predecessor.
	merged := []int{0}
	for _, b := range bounds[1:] {
		if len(points)-b < minStagePoints || b-merged[len(merged)-1] < minStagePoints {
			continue
		}
		merged = append(merged, b)
	}
	f := &Fit{}
	tracked := make([]trackedStage, 0, len(merged))
	for si, start := range merged {
		end := len(points)
		if si+1 < len(merged) {
			end = merged[si+1]
		}
		seg := points[start:end]
		sf, ok := reuseStage(prev, si, start, end, seg)
		if !ok && memo != nil {
			key := segKey(seg)
			if sf, ok = memo.lookup(key); !ok {
				var err error
				sf, err = fitStage(seg)
				if err != nil {
					return nil, nil, fmt.Errorf("earlycurve: fitting stage %d: %w", si, err)
				}
				memo.store(key, sf)
				ok = true
			}
		}
		if !ok {
			var err error
			sf, err = fitStage(seg)
			if err != nil {
				return nil, nil, fmt.Errorf("earlycurve: fitting stage %d: %w", si, err)
			}
		}
		sf.L = seg[0].Step
		sf.R = seg[len(seg)-1].Step + 1
		f.Stages = append(f.Stages, sf)
		tracked = append(tracked, trackedStage{
			startIdx:  start,
			endIdx:    end,
			startStep: seg[0].Step,
			endStep:   seg[len(seg)-1].Step,
			fit:       sf,
		})
	}
	return f, tracked, nil
}

// reuseStage reports whether the si-th previous stage covered exactly the
// same segment and returns its fit if so. Index bounds alone identify the
// segment on an append-only stream; the edge steps double-check that the
// caller really is appending, not rewriting.
func reuseStage(prev []trackedStage, si, start, end int, seg []MetricPoint) (StageFit, bool) {
	if si >= len(prev) {
		return StageFit{}, false
	}
	p := prev[si]
	if p.startIdx != start || p.endIdx != end ||
		p.startStep != seg[0].Step || p.endStep != seg[len(seg)-1].Step {
		return StageFit{}, false
	}
	return p.fit, true
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
	// Detector tunes stage detection; zero value uses paper defaults.
	Detector Detector
	// Memo optionally shares solved stage fits across every tracker spawned
	// from this predictor (see FitMemo). Nil disables sharing.
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
	f, _, err := fitCurveReuse(points, p.Detector.withDefaults(), nil, p.Memo)
	if err != nil {
		return 0, err
	}
	return guardedPredict(f, points, finalStep)
}

// NewTracker returns an incremental predictor for one append-only metric
// stream, seeded with this predictor's detector settings and sharing its
// stage-fit memo (when set).
func (p *Predictor) NewTracker() *Tracker {
	return &Tracker{Detector: p.Detector, Memo: p.Memo}
}

// guardedPredict extrapolates the fitted curve to finalStep and applies the
// tail sanity guards shared by Predictor and Tracker.
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

// Tracker is an incremental TrendPredictor for one append-only metric
// stream — the orchestrator keeps one per trial. Two exact optimizations
// sit behind the TrendPredictor interface:
//
//   - When no new points arrived since the previous call (same length, same
//     last point, same finalStep), the cached prediction is returned and no
//     refit runs at all.
//   - When points were appended, only stages whose segment changed are
//     re-solved; settled stages (everything but the growing tail stage, as
//     long as boundary detection kept them intact) reuse the previous fit.
//
// fitStage is a pure function of its segment, so both paths return results
// bit-identical to a cold Predictor.PredictFinal with the same detector.
// Tracker assumes the point stream is append-only; a rewritten history is
// detected via boundary/step mismatches and simply refits from scratch.
type Tracker struct {
	// Detector tunes stage detection; zero value uses paper defaults.
	Detector Detector
	// Memo optionally consults a shared stage-fit cache before solving (see
	// FitMemo); hits are bit-identical to fresh solves.
	Memo *FitMemo

	lastLen   int
	lastStep  int
	lastValue float64
	lastFinal int
	pred      float64
	err       error
	stages    []trackedStage
}

var _ TrendPredictor = (*Tracker)(nil)

// PredictFinal implements TrendPredictor incrementally.
func (t *Tracker) PredictFinal(points []MetricPoint, finalStep int) (float64, error) {
	n := len(points)
	if n > 0 && n == t.lastLen && finalStep == t.lastFinal &&
		points[n-1].Step == t.lastStep && points[n-1].Value == t.lastValue {
		return t.pred, t.err
	}
	f, tracked, err := fitCurveReuse(points, t.Detector.withDefaults(), t.stages, t.Memo)
	if err != nil {
		t.stages = nil
		t.pred, t.err = 0, err
	} else {
		t.stages = tracked
		t.pred, t.err = guardedPredict(f, points, finalStep)
	}
	t.lastLen, t.lastFinal = n, finalStep
	if n > 0 {
		t.lastStep, t.lastValue = points[n-1].Step, points[n-1].Value
	}
	return t.pred, t.err
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
