package earlycurve

import (
	"errors"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
)

// syntheticCurve builds a noisy staged decay curve.
func syntheticCurve(seed uint64, n int) []MetricPoint {
	rng := rand.New(rand.NewPCG(seed, 0xc0de))
	pts := make([]MetricPoint, 0, n)
	v := 2.0
	for k := 0; k < n; k++ {
		v = v*0.97 + 0.05 + 0.01*rng.Float64()
		if k == n/2 {
			v *= 0.6 // stage break
		}
		pts = append(pts, MetricPoint{Step: k * 3, Value: v})
	}
	return pts
}

// streamCurve builds a noiseless two-stage rational-decay curve of n
// points (stage switch at half).
func streamCurve(n int) []MetricPoint {
	pts := make([]MetricPoint, n)
	for k := 1; k <= n; k++ {
		v := 1/(0.05*float64(k)+1.2) + 0.8
		if k >= n/2 {
			v = 1/(2.0*float64(k-n/2+1)+5.0) + 0.2
		}
		pts[k-1] = MetricPoint{Step: k, Value: v}
	}
	return pts
}

// TestFitMemoBitIdentical: predictions served through a shared FitMemo must
// equal the memo-free path bit for bit, across repeated replays of
// overlapping prefixes of the same curves.
func TestFitMemoBitIdentical(t *testing.T) {
	memo := NewFitMemo()
	pWith := &Predictor{Memo: memo}
	pWithout := &Predictor{}
	for _, seed := range []uint64{1, 2, 3} {
		curve := syntheticCurve(seed, 60)
		for rep := 0; rep < 3; rep++ { // later reps replay memoized segments
			for _, n := range []int{10, 25, 40, 60} {
				a, errA := pWith.PredictFinal(curve[:n], 300)
				b, errB := pWithout.PredictFinal(curve[:n], 300)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("seed %d n %d: err mismatch %v vs %v", seed, n, errA, errB)
				}
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("seed %d rep %d n %d: memo path %v != cold path %v", seed, rep, n, a, b)
				}
			}
		}
	}
	if len(memo.fits) == 0 {
		t.Fatal("memo never cached a fit")
	}
}

// TestMemoStreamingMatchesColdFit: streaming ever-longer prefixes of one
// curve through a memoized predictor reproduces the memo-free predictor
// exactly — stage reuse is memoization, not approximation.
func TestMemoStreamingMatchesColdFit(t *testing.T) {
	curve := streamCurve(160)
	cold := &Predictor{}
	memo := &Predictor{Memo: NewFitMemo()}
	for n := minStagePoints; n <= len(curve); n += 7 {
		prefix := curve[:n]
		want, wantErr := cold.PredictFinal(prefix, 300)
		got, gotErr := memo.PredictFinal(prefix, 300)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("n=%d: err mismatch: cold %v, memo %v", n, wantErr, gotErr)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: memo %v != cold %v", n, got, want)
		}
	}
}

// TestMemoRefitsOnlyTailStage: once the memo has fitted a prefix whose
// first stage has settled, appending points adds exactly one fit to the
// memo — the growing tail stage's.
func TestMemoRefitsOnlyTailStage(t *testing.T) {
	curve := streamCurve(160)
	if f, err := fitCurve(curve[:150], nil); err != nil || len(f.Stages) != 2 {
		t.Fatalf("fixture: want a two-stage prefix, got %v (err %v)", f, err)
	}
	memo := NewFitMemo()
	p := &Predictor{Memo: memo}
	if _, err := p.PredictFinal(curve[:150], 300); err != nil {
		t.Fatal(err)
	}
	if got := len(memo.fits); got != 2 {
		t.Fatalf("memo holds %d fits after a two-stage prefix, want 2", got)
	}
	if _, err := p.PredictFinal(curve[:156], 300); err != nil {
		t.Fatal(err)
	}
	if got := len(memo.fits); got != 3 {
		t.Fatalf("memo holds %d fits after the append, want 3 (one new tail stage)", got)
	}
}

// TestMemoErrorThenRecovers: a memoized predictor reports too few points
// until enough arrive, then fits.
func TestMemoErrorThenRecovers(t *testing.T) {
	curve := streamCurve(80)
	p := &Predictor{Memo: NewFitMemo()}
	for i := 0; i < 2; i++ {
		if _, err := p.PredictFinal(curve[:2], 200); !errors.Is(err, ErrTooFewPoints) {
			t.Fatalf("call %d: err = %v, want ErrTooFewPoints", i, err)
		}
	}
	got, err := p.PredictFinal(curve, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(got) {
		t.Fatal("NaN after recovery")
	}
	want, err := (&Predictor{}).PredictFinal(curve, 200)
	if err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("recovered prediction %v, memo-free %v (err %v)", got, want, err)
	}
}

// TestFitMemoCapStopsGrowth: a full memo keeps serving but stops learning.
func TestFitMemoCapStopsGrowth(t *testing.T) {
	m := NewFitMemo()
	m.fits = make([]StageFit, memoFitCap)
	key := segKey(syntheticCurve(9, 8))
	m.store(key, StageFit{})
	if len(m.fits) != memoFitCap {
		t.Fatalf("capped memo grew to %d", len(m.fits))
	}
	if _, ok := m.lookup(key); ok {
		t.Fatal("rejected entry should not be retrievable")
	}
}

// TestFitMemoConcurrent: one FitMemo shared by several goroutines, each
// replaying the same curves, serves every goroutine the memo-free path's
// bits (run under -race to check the locking).
func TestFitMemoConcurrent(t *testing.T) {
	curves := [][]MetricPoint{syntheticCurve(1, 60), syntheticCurve(2, 60), syntheticCurve(3, 60)}
	prefixes := []int{10, 25, 40, 60}
	want := make([][]float64, len(curves))
	cold := &Predictor{}
	for c, curve := range curves {
		for _, n := range prefixes {
			v, err := cold.PredictFinal(curve[:n], 300)
			if err != nil {
				t.Fatal(err)
			}
			want[c] = append(want[c], v)
		}
	}
	shared := &Predictor{Memo: NewFitMemo()}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for k := range curves {
					c := (k + w) % len(curves) // goroutines start on different curves
					for j, n := range prefixes {
						v, err := shared.PredictFinal(curves[c][:n], 300)
						if err != nil {
							t.Error(err)
							return
						}
						if math.Float64bits(v) != math.Float64bits(want[c][j]) {
							t.Errorf("goroutine %d curve %d n %d: shared memo %v, cold %v", w, c, n, v, want[c][j])
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if len(shared.Memo.fits) == 0 {
		t.Fatal("memo never cached a fit")
	}
}
