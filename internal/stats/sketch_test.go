package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// exactQuantile is the nearest-rank reference the sketch approximates.
func exactQuantile(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	return sorted[int(math.Round(q*float64(len(sorted)-1)))]
}

func TestSketchRelativeErrorBound(t *testing.T) {
	for _, alpha := range []float64{0.005, 0.01} {
		rng := rand.New(rand.NewPCG(42, 0))
		s := NewQuantileSketch(alpha)
		xs := make([]float64, 0, 20000)
		for i := 0; i < 20000; i++ {
			// Log-uniform positives spanning several decades, the shape of
			// campaign costs.
			x := math.Exp(rng.Float64()*10 - 2)
			xs = append(xs, x)
			s.Add(x)
		}
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1} {
			want := exactQuantile(xs, q)
			got := s.Quantile(q)
			if rel := math.Abs(got-want) / math.Abs(want); rel > alpha {
				t.Errorf("alpha %v q %v: got %v want %v (rel err %.4f)", alpha, q, got, want, rel)
			}
		}
		if s.Count() != len(xs) {
			t.Errorf("Count = %d, want %d", s.Count(), len(xs))
		}
		if got, want := s.Quantile(0), exactQuantile(xs, 0); got != want {
			t.Errorf("Quantile(0) = %v want %v", got, want)
		}
		if got, want := s.Max(), exactQuantile(xs, 1); got != want {
			t.Errorf("Max = %v want %v", got, want)
		}
		if mean := s.Mean(); math.Abs(mean-Mean(xs)) > 1e-9*math.Abs(mean) {
			t.Errorf("Mean = %v want %v", mean, Mean(xs))
		}
	}
}

// TestSketchOrderIndependent is the property the streaming matrix runner
// rests on: any insertion order — and any sharding across merged sketches —
// yields bit-identical quantiles.
func TestSketchOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 1))
	xs := make([]float64, 5000)
	for i := range xs {
		switch i % 7 {
		case 0:
			xs[i] = 0
		case 1:
			xs[i] = -rng.Float64() * 3
		default:
			xs[i] = rng.Float64() * 100
		}
	}
	forward := NewQuantileSketch(0.005)
	for _, x := range xs {
		forward.Add(x)
	}
	backward := NewQuantileSketch(0.005)
	for i := len(xs) - 1; i >= 0; i-- {
		backward.Add(xs[i])
	}
	// Sharded: four sketches merged, as worker-local aggregation would do.
	shards := make([]*QuantileSketch, 4)
	for i := range shards {
		shards[i] = NewQuantileSketch(0.005)
	}
	for i, x := range xs {
		shards[i%4].Add(x)
	}
	merged := NewQuantileSketch(0.005)
	for _, sh := range shards {
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		a, b, c := forward.Quantile(q), backward.Quantile(q), merged.Quantile(q)
		if math.Float64bits(a) != math.Float64bits(b) || math.Float64bits(a) != math.Float64bits(c) {
			t.Errorf("q %v: forward %x backward %x merged %x", q, math.Float64bits(a), math.Float64bits(b), math.Float64bits(c))
		}
	}
	if err := merged.Merge(NewQuantileSketch(0.01)); err == nil {
		if fresh := NewQuantileSketch(0.01); fresh.Count() == 0 {
			// Merging an empty sketch of any alpha is allowed; a non-empty
			// mismatched one is not.
			mismatch := NewQuantileSketch(0.01)
			mismatch.Add(1)
			if err := merged.Merge(mismatch); err == nil {
				t.Error("merging non-empty sketch with different alpha should fail")
			}
		}
	}
}

// TestSketchBoundedMemory pins the bounded-memory contract: bucket count
// stays flat while the sample count grows without limit.
func TestSketchBoundedMemory(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	s := NewQuantileSketch(0.005)
	var at10k int
	for i := 0; i < 200000; i++ {
		s.Add(math.Exp(rng.Float64()*8 - 4)) // fixed dynamic range
		if i == 10000 {
			at10k = len(s.pos) + len(s.neg)
		}
	}
	if n := len(s.pos) + len(s.neg); n > at10k+8 {
		t.Errorf("buckets grew with samples: %d at 10k, %d at 200k", at10k, n)
	}
	if s.Count() != 200000 {
		t.Errorf("Count = %d", s.Count())
	}
}

func TestSketchEdgeCases(t *testing.T) {
	s := NewQuantileSketch(0.005)
	if s.Quantile(0.5) != 0 || s.Count() != 0 || s.Mean() != 0 {
		t.Error("empty sketch should report zeros")
	}
	s.Add(math.NaN())
	if s.Count() != 0 {
		t.Error("NaN must be ignored")
	}
	s.Add(5)
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 5 {
			t.Errorf("single-value sketch: q=%v got %v (min/max clamp should pin it)", q, got)
		}
	}
	s.Add(-5)
	if s.Quantile(0) != -5 || s.Max() != 5 {
		t.Errorf("envelope: [%v, %v]", s.Quantile(0), s.Max())
	}
	if q := s.Quantile(0.5); q < -5 || q > 5 {
		t.Errorf("median %v outside envelope", q)
	}
}
