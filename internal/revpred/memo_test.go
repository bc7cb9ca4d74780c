package revpred

import (
	"math"
	"sync"
	"testing"

	"spottune/internal/market"
)

// memoBids are the maximum-price offsets over the current price the
// exactness tests query at every minute.
var memoBids = []float64{0.00001, 0.01, 0.05, 0.2}

// coldScores is Score on a freshly assembled sample for every usable minute
// of g and every bid: the reference a memoized Predict must match.
func coldScores(t *testing.T, m *Model, g *market.Grid) [][]float64 {
	t.Helper()
	out := make([][]float64, g.Len())
	for i := HistorySteps; i < g.Len(); i++ {
		for _, d := range memoBids {
			s, err := sampleAt(g, i, g.Price(i)+d)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = append(out[i], m.Score(s))
		}
	}
	return out
}

// TestPredictMemoMatchesColdScore: Predict through the history memo equals
// a cold Score bit for bit at every minute of a grid and several bids,
// while 4 goroutines fill and read the memo at once in different minute
// orders, and again once the memo is warm. The last page is clipped to the
// grid, so the memo holds at most grid.Len() × Hidden float64s.
func TestPredictMemoMatchesColdScore(t *testing.T) {
	m, err := Train(spikyGrid(t, 3), 0, 3*1440, Config{Hidden: 6, Depth: 2, Epochs: 1, BatchSize: 16, Stride: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g := genGrid(t, "r4.large", 4, 3) // 240 minutes: three full pages and a clipped one
	want := coldScores(t, m, g)
	check := func(i, b int, got float64) {
		if w := want[i][b]; math.Float64bits(got) != math.Float64bits(w) {
			t.Errorf("minute %d bid %d: Predict %x, cold Score %x", i, b, math.Float64bits(got), math.Float64bits(w))
		}
	}
	for pass := 0; pass < 2; pass++ { // cold memo, then warm
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for n := 0; n < g.Len()-HistorySteps; n++ {
					i := HistorySteps + (n*(2*w+1)+w*37)%(g.Len()-HistorySteps)
					for b, d := range memoBids {
						check(i, b, m.Predict(g, i, g.Price(i)+d))
					}
				}
			}(w)
		}
		wg.Wait()
	}
	rows := 0
	for _, p := range m.memo.grids[g] {
		rows += len(p.rows)
	}
	if limit := g.Len() * m.Hidden; rows > limit {
		t.Errorf("memo holds %d float64s for a %d-minute grid, want at most %d", rows, g.Len(), limit)
	}
}

// TestPredictMemoKeepsGridsApart: two grids on one model never share rows.
// Queries interleave the grids minute by minute and each must match its
// own grid's cold Score.
func TestPredictMemoKeepsGridsApart(t *testing.T) {
	m, err := Train(spikyGrid(t, 3), 0, 3*1440, Config{Hidden: 6, Depth: 2, Epochs: 1, BatchSize: 16, Stride: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, b := genGrid(t, "r4.large", 3, 1), genGrid(t, "r4.large", 3, 2)
	wantA, wantB := coldScores(t, m, a), coldScores(t, m, b)
	differ := false
	for i := HistorySteps; i < a.Len(); i++ {
		for k, d := range memoBids {
			ga, gb := m.Predict(a, i, a.Price(i)+d), m.Predict(b, i, b.Price(i)+d)
			if math.Float64bits(ga) != math.Float64bits(wantA[i][k]) {
				t.Fatalf("grid a minute %d bid %d: Predict %v, cold Score %v", i, k, ga, wantA[i][k])
			}
			if math.Float64bits(gb) != math.Float64bits(wantB[i][k]) {
				t.Fatalf("grid b minute %d bid %d: Predict %v, cold Score %v", i, k, gb, wantB[i][k])
			}
			differ = differ || ga != gb
		}
	}
	if !differ {
		t.Fatal("the two grids scored identically everywhere; the test cannot tell them apart")
	}
	if n := len(m.memo.grids); n != 2 {
		t.Fatalf("memo keeps %d grids, want 2", n)
	}
}
