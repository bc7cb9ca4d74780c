package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{4}, 4},
		{"several", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); !almostEq(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
}

func TestCOV(t *testing.T) {
	xs := []float64{10, 10, 10}
	if got := COV(xs); got != 0 {
		t.Errorf("COV of constants = %v, want 0", got)
	}
	if got := COV(nil); got != 0 {
		t.Errorf("COV(nil) = %v, want 0", got)
	}
	// stddev 2, mean 5 -> 0.4
	if got := COV([]float64{3, 7, 3, 7}); !almostEq(got, 0.4, 1e-12) {
		t.Errorf("COV = %v, want 0.4", got)
	}
}

func TestTrimmedMean(t *testing.T) {
	// 10 values; trim 20% both sides drops 2 low + 2 high.
	xs := []float64{100, 1, 2, 3, 4, 5, 6, 7, 8, -50}
	got, err := TrimmedMean(xs, 0.2, 0.2)
	if err != nil {
		t.Fatalf("TrimmedMean: %v", err)
	}
	want := Mean([]float64{2, 3, 4, 5, 6, 7})
	if !almostEq(got, want, 1e-12) {
		t.Errorf("TrimmedMean = %v, want %v", got, want)
	}
}

func TestTrimmedMeanErrors(t *testing.T) {
	if _, err := TrimmedMean(nil, 0.2, 0.2); err == nil {
		t.Error("TrimmedMean(nil) did not error")
	}
	if _, err := TrimmedMean([]float64{1}, 0.6, 0.6); err == nil {
		t.Error("TrimmedMean with trim sum >= 1 did not error")
	}
}

func TestTrimmedMeanTinyInput(t *testing.T) {
	// With 1-2 elements the trim windows collapse; must still return a value.
	got, err := TrimmedMean([]float64{5}, 0.2, 0.2)
	if err != nil || got != 5 {
		t.Errorf("TrimmedMean([5]) = %v, %v", got, err)
	}
}

func TestBinaryScores(t *testing.T) {
	var b BinaryScores
	// 3 TP, 1 FP, 4 TN, 2 FN
	for i := 0; i < 3; i++ {
		b.Observe(true, true)
	}
	b.Observe(true, false)
	for i := 0; i < 4; i++ {
		b.Observe(false, false)
	}
	for i := 0; i < 2; i++ {
		b.Observe(false, true)
	}
	if b.Total() != 10 {
		t.Fatalf("Total = %d, want 10", b.Total())
	}
	if got := b.Accuracy(); !almostEq(got, 0.7, 1e-12) {
		t.Errorf("Accuracy = %v, want 0.7", got)
	}
	if got := b.Precision(); !almostEq(got, 0.75, 1e-12) {
		t.Errorf("Precision = %v, want 0.75", got)
	}
	if got := b.Recall(); !almostEq(got, 0.6, 1e-12) {
		t.Errorf("Recall = %v, want 0.6", got)
	}
	wantF1 := 2 * 0.75 * 0.6 / (0.75 + 0.6)
	if got := b.F1(); !almostEq(got, wantF1, 1e-12) {
		t.Errorf("F1 = %v, want %v", got, wantF1)
	}
}

func TestBinaryScoresEmpty(t *testing.T) {
	var b BinaryScores
	if b.Accuracy() != 0 || b.Precision() != 0 || b.Recall() != 0 || b.F1() != 0 {
		t.Error("empty BinaryScores should report zeros")
	}
}

// Property: trimmed mean always lies within [min, max] of the input.
func TestTrimmedMeanBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				// Keep magnitudes sane to avoid float overflow in sums.
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		tm, err := TrimmedMean(xs, 0.2, 0.2)
		if err != nil {
			return false
		}
		lo, hi := slices.Min(xs), slices.Max(xs)
		return tm >= lo-1e-9 && tm <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: accuracy and F1 always land in [0, 1].
func TestBinaryScoresRangeProperty(t *testing.T) {
	f := func(tp, fp, tn, fn uint8) bool {
		b := BinaryScores{TP: int(tp), FP: int(fp), TN: int(tn), FN: int(fn)}
		acc, f1 := b.Accuracy(), b.F1()
		return acc >= 0 && acc <= 1 && f1 >= 0 && f1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestGini pins the fairness metric: equality is 0, full concentration
// approaches (n-1)/n, and the classic two-point split matches hand math.
func TestGini(t *testing.T) {
	if g := Gini(nil); g != 0 {
		t.Fatalf("Gini(nil) = %v", g)
	}
	if g := Gini([]float64{0, 0, 0}); g != 0 {
		t.Fatalf("all-zero Gini = %v", g)
	}
	if g := Gini([]float64{5, 5, 5, 5}); math.Abs(g) > 1e-12 {
		t.Fatalf("equal-shares Gini = %v, want 0", g)
	}
	// One tenant holds everything among 4: G = (n-1)/n = 0.75.
	if g := Gini([]float64{0, 0, 0, 12}); math.Abs(g-0.75) > 1e-12 {
		t.Fatalf("concentrated Gini = %v, want 0.75", g)
	}
	// {1,3}: G = (2·(1·1+2·3))/(2·4) − 3/2 = 14/8 − 1.5 = 0.25.
	if g := Gini([]float64{3, 1}); math.Abs(g-0.25) > 1e-12 {
		t.Fatalf("two-point Gini = %v, want 0.25", g)
	}
	// Order must not matter and the input must survive.
	in := []float64{4, 1, 2}
	want := Gini([]float64{1, 2, 4})
	if g := Gini(in); g != want {
		t.Fatalf("order-dependent Gini: %v vs %v", g, want)
	}
	if in[0] != 4 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("Gini mutated its input: %v", in)
	}
}
