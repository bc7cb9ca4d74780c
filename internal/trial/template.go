package trial

import (
	"fmt"
	"sync"
	"sync/atomic"

	"spottune/internal/earlycurve"
)

// Template is what one HP curve alone fixes, for every replay of it in
// every campaign: the validated curve and the trial's checkpoint key, the
// convergence step and plateau verdicts per (window, tol), and EarlyCurve's
// predictions over the curve's prefixes. None of it depends on a seed, a
// market or a schedule, so an environment builds one template per curve and
// shares it read-only with every campaign it runs; a Replay adds only the
// campaign's own state (progress, step-time prefix, observation memo).
//
// A Template is safe for concurrent use. Its lazily built tables are
// published whole, and a memo entry computed by two campaigns at once is
// the same bits either way, so the first store is kept.
type Template struct {
	id       string
	maxSteps int
	curve    []earlycurve.MetricPoint // ground truth, steps ascending
	sizeMB   float64                  // modeled checkpoint size
	ckptKey  string                   // object-store key of the checkpoint

	// convs holds one verdict table per (window, tol) asked so far, an
	// immutable list replaced whole under mu.
	convs atomic.Pointer[[]*convTable]
	mu    sync.Mutex
	// preds memoizes EarlyCurve predictions by (observed points, final
	// step), under mu. Campaigns ask one or two final steps per prefix.
	preds []prediction
}

// convTable is one (window, tol) pair's plateau verdicts over a curve:
// the verdict of earlycurve.Converged for every observed prefix and the
// smallest step at which one holds. Read-only once built.
type convTable struct {
	window  int
	tol     float64
	plateau []bool // plateau[n]: Converged(curve[:n], window, tol)
	step    int    // curve step of the first true verdict
	ok      bool   // some prefix converges
}

// prediction is one memoized PredictFinal answer.
type prediction struct {
	n, final int
	val      float64
	err      error
}

// predMemoCap bounds a template's prediction memo. Past it, predictions are
// computed and not kept, so the memo stays small whatever the campaigns ask.
const predMemoCap = 64

// NewTemplate validates a curve and builds its template. The curve must be
// non-empty, strictly increasing in step, and its last point must be at
// maxSteps (the true final metric). It is not copied: it must not change
// while any replay of it lives, the rule Replay.Points already sets.
func NewTemplate(id string, maxSteps int, curve []earlycurve.MetricPoint, checkpointMB float64) (*Template, error) {
	if len(curve) == 0 {
		return nil, fmt.Errorf("trial: %s has an empty curve", id)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Step <= curve[i-1].Step {
			return nil, fmt.Errorf("trial: %s curve not increasing at %d", id, i)
		}
	}
	if curve[len(curve)-1].Step != maxSteps {
		return nil, fmt.Errorf("trial: %s curve ends at step %d, want maxSteps %d",
			id, curve[len(curve)-1].Step, maxSteps)
	}
	if checkpointMB <= 0 {
		checkpointMB = 1
	}
	return &Template{id: id, maxSteps: maxSteps, curve: curve, sizeMB: checkpointMB, ckptKey: "ckpt/" + id}, nil
}

// convergence returns the template's verdict table for (window, tol),
// building it on first use.
func (t *Template) convergence(window int, tol float64) *convTable {
	if c := t.findConv(window, tol); c != nil {
		return c
	}
	plateau := earlycurve.ConvergedPrefixes(t.curve, window, tol)
	c := &convTable{window: window, tol: tol, plateau: plateau}
	for n, v := range plateau {
		if v {
			c.step, c.ok = t.curve[n-1].Step, true
			break
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev := t.findConv(window, tol); prev != nil {
		return prev
	}
	var list []*convTable
	if p := t.convs.Load(); p != nil {
		list = append(list, *p...)
	}
	list = append(list, c)
	t.convs.Store(&list)
	return c
}

// findConv returns the published table for (window, tol), or nil.
func (t *Template) findConv(window int, tol float64) *convTable {
	if p := t.convs.Load(); p != nil {
		for _, c := range *p {
			if c.window == window && c.tol == tol {
				return c
			}
		}
	}
	return nil
}

// predictFinal is p's prediction over the curve's first n points, memoized
// by (n, finalStep). Every *earlycurve.Predictor answers a prefix with the
// same bits (its memo changes cost, never values), so the memo serves any
// of them.
func (t *Template) predictFinal(p *earlycurve.Predictor, n, finalStep int) (float64, error) {
	t.mu.Lock()
	for _, e := range t.preds {
		if e.n == n && e.final == finalStep {
			t.mu.Unlock()
			return e.val, e.err
		}
	}
	t.mu.Unlock()
	val, err := p.PredictFinal(t.curve[:n:n], finalStep)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.preds {
		if e.n == n && e.final == finalStep {
			return e.val, e.err
		}
	}
	if len(t.preds) < predMemoCap {
		t.preds = append(t.preds, prediction{n: n, final: finalStep, val: val, err: err})
	}
	return val, err
}

// Trend is one replay's trend predictor: inner, with EarlyCurve predictions
// over a prefix view of the replay's own curve answered from its template's
// memo. Any other points slice, and any other predictor type, goes to inner
// unchanged.
type Trend struct {
	tpl   *Template
	inner earlycurve.TrendPredictor
}

var _ earlycurve.TrendPredictor = (*Trend)(nil)

// PredictFinal implements earlycurve.TrendPredictor.
func (m *Trend) PredictFinal(points []earlycurve.MetricPoint, finalStep int) (float64, error) {
	if ec, ok := m.inner.(*earlycurve.Predictor); ok && ec != nil && len(points) > 0 &&
		len(points) <= len(m.tpl.curve) && &points[0] == &m.tpl.curve[0] {
		return m.tpl.predictFinal(ec, len(points), finalStep)
	}
	return m.inner.PredictFinal(points, finalStep)
}
