package trial

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"spottune/internal/earlycurve"
)

// oddCurve is a curve of n points, five steps apart, whose values mix
// decay, plateaus, exact zeros, negative stretches and NaN.
func oddCurve(rng *rand.Rand, n int) []earlycurve.MetricPoint {
	pts := make([]earlycurve.MetricPoint, n)
	scale := rng.Float64()*4 - 2
	for k := range pts {
		var v float64
		switch rng.IntN(8) {
		case 0:
			v = 0
		case 1:
			v = -scale
		case 2:
			if rng.IntN(3) == 0 {
				v = math.NaN()
			}
		case 3, 4, 5:
			if k > 0 {
				v = pts[k-1].Value * (1 + 1e-4*(rng.Float64()-0.5))
			}
		default:
			v = scale/(0.2*float64(k)+1) + 0.01*rng.NormFloat64()
		}
		pts[k] = earlycurve.MetricPoint{Step: 5 * (k + 1), Value: v}
	}
	return pts
}

// TestTemplateConvergenceMatchesConverged: on every prefix of random curves
// (zeros, negative values, NaN; windows below 2, at 2 and above), the
// template's plateau table, as Plateaued reads it at every completed-step
// count, is earlycurve.Converged on the observed points, and its
// convergence step is the first step whose prefix converges, the answer of
// testing each prefix in turn.
func TestTemplateConvergenceMatchesConverged(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 2))
	for c := 0; c < 200; c++ {
		curve := oddCurve(rng, 1+rng.IntN(50))
		maxSteps := curve[len(curve)-1].Step
		r, err := NewReplay("hp-odd", maxSteps, curve, constPerf{"small": 1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, window := range []int{-1, 0, 1, 2, 3, 8, 60} {
			for _, tol := range []float64{0, 5e-4, 1e-2, 0.5} {
				wantStep, wantOK := 0, false
				for i, p := range curve {
					if earlycurve.Converged(curve[:i+1], window, tol) {
						wantStep, wantOK = p.Step, true
						break
					}
				}
				if step, ok := r.ConvergeStep(window, tol); step != wantStep || ok != wantOK {
					t.Fatalf("curve %d, window %d, tol %v: ConvergeStep = (%d, %v), want (%d, %v)",
						c, window, tol, step, ok, wantStep, wantOK)
				}
				for done := 0; done <= maxSteps; done++ {
					r.progress = float64(done)
					if got, want := r.Plateaued(window, tol), earlycurve.Converged(r.Points(), window, tol); got != want {
						t.Fatalf("curve %d, window %d, tol %v, %d steps done: Plateaued = %v, Converged = %v",
							c, window, tol, done, got, want)
					}
				}
			}
		}
	}
}

// countingTrend counts the predictions it is asked for and answers a fixed
// value.
type countingTrend struct{ calls int }

func (c *countingTrend) PredictFinal([]earlycurve.MetricPoint, int) (float64, error) {
	c.calls++
	return 0.25, nil
}

// TestTrendMemoAndBypass: a replay's Trend answers an EarlyCurve prediction
// over a prefix view of its own curve from the template's memo, the bits a
// direct PredictFinal gives, once per (points, final step); a copy of the
// points, and any predictor that is not EarlyCurve, go to the predictor on
// every call.
func TestTrendMemoAndBypass(t *testing.T) {
	r := mkReplay(t)
	r.RunFor(small, secs(120), 0) // 60 steps: six points observed
	points := r.Points()
	if len(points) != 6 {
		t.Fatalf("%d points observed, want 6", len(points))
	}
	ec := &earlycurve.Predictor{}
	want, wantErr := ec.PredictFinal(points, 100)
	trend := r.Trend(ec)
	for k := 0; k < 3; k++ {
		got, err := trend.PredictFinal(r.Points(), 100)
		if math.Float64bits(got) != math.Float64bits(want) || (err == nil) != (wantErr == nil) {
			t.Fatalf("call %d: memoized prediction %v (%v), direct %v (%v)", k, got, err, want, wantErr)
		}
		if n := len(r.tpl.preds); n != 1 {
			t.Fatalf("call %d: the memo holds %d predictions, want 1", k, n)
		}
	}
	// Another replay of the same template is served from the same memo.
	others, err := Replays([]*Template{r.tpl}, constPerf{"small": 2})
	if err != nil {
		t.Fatal(err)
	}
	other := others[0]
	other.RunFor(small, secs(120), 0)
	otherTrend := other.Trend(&earlycurve.Predictor{Memo: earlycurve.NewFitMemo()})
	if got, _ := otherTrend.PredictFinal(other.Points(), 100); math.Float64bits(got) != math.Float64bits(want) || len(r.tpl.preds) != 1 {
		t.Fatalf("second replay: %v with %d memo entries, want %v from 1", got, len(r.tpl.preds), want)
	}

	// A copy of the points bypasses the memo and gets the predictor's own
	// answer.
	cp := slices.Clone(points)
	if got, _ := trend.PredictFinal(cp, 100); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("copied points: %v, want %v", got, want)
	}
	shifted := slices.Clone(points)
	shifted[len(shifted)-1].Value += 0.5
	direct, _ := ec.PredictFinal(shifted, 100)
	if got, _ := trend.PredictFinal(shifted, 100); math.Float64bits(got) != math.Float64bits(direct) {
		t.Fatalf("changed copy: %v, want the predictor's %v", got, direct)
	}
	if n := len(r.tpl.preds); n != 1 {
		t.Fatalf("copies reached the memo: %d entries, want 1", n)
	}

	// Any other predictor is asked every time, prefix view or not.
	cnt := &countingTrend{}
	ct := r.Trend(cnt)
	for k := 0; k < 4; k++ {
		ct.PredictFinal(r.Points(), 100)
		ct.PredictFinal(cp, 100)
	}
	if cnt.calls != 8 {
		t.Fatalf("the counting predictor was asked %d times, want 8", cnt.calls)
	}
	if n := len(r.tpl.preds); n != 1 {
		t.Fatalf("another predictor reached the memo: %d entries, want 1", n)
	}
}

// TestTemplateConcurrentFirstUse: goroutines that replay one template and
// ask its plateau table and predictions for the first time at once all get
// the answers a lone replay gets. Run under the race detector it also
// checks the template's publication.
func TestTemplateConcurrentFirstUse(t *testing.T) {
	tpl, err := NewTemplate("hp-c", 100, mkCurve(100, 5), 1)
	if err != nil {
		t.Fatal(err)
	}
	lone, err := NewReplay("hp-c", 100, mkCurve(100, 5), constPerf{"small": 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	lone.RunFor(small, secs(70), 0)
	wantPred, _ := (&earlycurve.Predictor{}).PredictFinal(lone.Points(), 100)
	wantStep, wantOK := lone.ConvergeStep(3, 0.05)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, err := Replays([]*Template{tpl}, constPerf{"small": 1})
			if err != nil {
				errs <- err.Error()
				return
			}
			r := rs[0]
			r.RunFor(small, secs(70), 0)
			tr := r.Trend(&earlycurve.Predictor{})
			if got, _ := tr.PredictFinal(r.Points(), 100); math.Float64bits(got) != math.Float64bits(wantPred) {
				errs <- "prediction differs from a lone replay's"
			}
			if step, ok := r.ConvergeStep(3, 0.05); step != wantStep || ok != wantOK {
				errs <- "convergence step differs from a lone replay's"
			}
			if r.Plateaued(3, 0.05) != lone.Plateaued(3, 0.05) {
				errs <- "plateau verdict differs from a lone replay's"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
