package earlycurve

import (
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

// TestFitMemoBitIdentical: predictions served through a shared FitMemo must
// equal the memo-free path bit for bit, across multiple trackers replaying
// overlapping prefixes of the same curves.
func TestFitMemoBitIdentical(t *testing.T) {
	memo := NewFitMemo()
	pWith := &Predictor{Memo: memo}
	pWithout := &Predictor{}
	for _, seed := range []uint64{1, 2, 3} {
		curve := syntheticCurve(seed, 60)
		for rep := 0; rep < 3; rep++ { // later reps replay memoized segments
			trkWith, trkWithout := pWith.NewTracker(), pWithout.NewTracker()
			for _, n := range []int{10, 25, 40, 60} {
				a, errA := trkWith.PredictFinal(curve[:n], 300)
				b, errB := trkWithout.PredictFinal(curve[:n], 300)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("seed %d n %d: err mismatch %v vs %v", seed, n, errA, errB)
				}
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("seed %d rep %d n %d: memo path %v != cold path %v", seed, rep, n, a, b)
				}
			}
		}
	}
	if memo.Len() == 0 {
		t.Fatal("memo never cached a fit")
	}
}

// TestFitMemoCapStopsGrowth: a full memo keeps serving but stops learning.
func TestFitMemoCapStopsGrowth(t *testing.T) {
	m := NewFitMemo()
	m.fits = make([]StageFit, memoFitCap)
	key := segKey(syntheticCurve(9, 8))
	m.store(key, StageFit{})
	if m.Len() != memoFitCap {
		t.Fatalf("capped memo grew to %d", m.Len())
	}
	if _, ok := m.lookup(key); ok {
		t.Fatal("rejected entry should not be retrievable")
	}
}

// TestFitMemoConcurrent: one FitMemo shared by several goroutines, each
// replaying the same curves through its own trackers, serves every
// goroutine the memo-free path's bits (run under -race to check the
// locking).
func TestFitMemoConcurrent(t *testing.T) {
	curves := [][]MetricPoint{syntheticCurve(1, 60), syntheticCurve(2, 60), syntheticCurve(3, 60)}
	prefixes := []int{10, 25, 40, 60}
	want := make([][]float64, len(curves))
	cold := &Predictor{}
	for c, curve := range curves {
		trk := cold.NewTracker()
		for _, n := range prefixes {
			v, err := trk.PredictFinal(curve[:n], 300)
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
					trk := shared.NewTracker()
					for j, n := range prefixes {
						v, err := trk.PredictFinal(curves[c][:n], 300)
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
	if shared.Memo.Len() == 0 {
		t.Fatal("memo never cached a fit")
	}
}
