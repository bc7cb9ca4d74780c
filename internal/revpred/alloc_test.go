package revpred

import (
	"testing"
)

// TestPredictAllocBudget is the tier-1 allocation guard for the
// provisioning hot path: Model.Predict with a warm scratch pool must stay
// within a small fixed budget per call (the pre-cache implementation
// assembled ~1300 allocations per query). Pooled workspaces, cache-free
// inference forwards and the paged history memo leave nothing per call:
// the 50 minutes it slides over allocate at most one memo page.
func TestPredictAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, so the count would measure the detector")
	}
	g := spikyGrid(t, 3)
	m, err := Train(g, 0, g.Len(), Config{Hidden: 6, Depth: 2, Epochs: 1, BatchSize: 16, Stride: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	i := HistorySteps + 100
	// Warm the pool so scratch construction is not billed to steady state.
	m.Predict(g, i, g.Prices[i]+0.05)
	n := 0
	avg := testing.AllocsPerRun(50, func() {
		idx := i + n%50 // slide the window forward, as the provisioner does
		n++
		m.Predict(g, idx, g.Prices[idx]+0.05)
	})
	if avg > 0 {
		t.Errorf("Model.Predict allocates %.1f times per query, want 0", avg)
	}
}

// TestPredictMemoHitZeroAllocs pins a warm-memo Predict at zero
// allocations: every minute it asks is already memoized, so only the
// present branch and the head run, on pooled scratch.
func TestPredictMemoHitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, so the count would measure the detector")
	}
	g := spikyGrid(t, 3)
	m, err := Train(g, 0, g.Len(), Config{Hidden: 6, Depth: 2, Epochs: 1, BatchSize: 16, Stride: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	i := HistorySteps + 100
	for k := 0; k < 10; k++ {
		m.Predict(g, i+k, 0.1)
	}
	n := 0
	avg := testing.AllocsPerRun(100, func() {
		idx := i + n%10
		n++
		m.Predict(g, idx, g.Prices[idx]+float64(n%7)*0.01)
	})
	if avg != 0 {
		t.Errorf("warm-memo Model.Predict allocates %.2f times per query, want 0", avg)
	}
}
