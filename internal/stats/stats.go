// Package stats provides the small statistical toolkit shared across
// SpotTune: moments, trimmed means (Algorithm 2 of the paper), coefficient
// of variation (the Fig. 6 profiling claim), binary-classification scores
// (Fig. 10), and top-k selection accuracy (Fig. 8c).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by reducers that require at least one sample.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// COV returns the coefficient of variation (stddev/mean). The paper uses
// COV < 0.1 of per-step times to justify online profiling (§IV-A5). A zero
// mean yields 0 to keep callers total.
func COV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / math.Abs(m)
}

// TrimmedMean drops the smallest lo-fraction and largest hi-fraction of the
// sorted samples and averages the rest — the Algorithm 2 preprocessing step
// (lo = hi = 0.2 in the paper). It returns ErrEmpty if no samples survive.
func TrimmedMean(xs []float64, lo, hi float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if lo < 0 || hi < 0 || lo+hi >= 1 {
		return 0, errors.New("stats: trim fractions must be non-negative and sum below 1")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	start := int(math.Floor(lo * float64(n)))
	end := n - int(math.Floor(hi*float64(n)))
	if start >= end {
		// Degenerate small-n case: fall back to the middle element.
		return sorted[n/2], nil
	}
	return Mean(sorted[start:end]), nil
}

// ArgMin returns the index of the smallest element, or -1 for empty input.
func ArgMin(xs []float64) int {
	idx := -1
	best := math.Inf(1)
	for i, x := range xs {
		if x < best {
			best, idx = x, i
		}
	}
	return idx
}

// BinaryScores accumulates a confusion matrix for a binary classifier.
// The zero value is ready to use.
type BinaryScores struct {
	TP, FP, TN, FN int
}

// Observe records one (predicted, actual) pair.
func (b *BinaryScores) Observe(predicted, actual bool) {
	switch {
	case predicted && actual:
		b.TP++
	case predicted && !actual:
		b.FP++
	case !predicted && !actual:
		b.TN++
	default:
		b.FN++
	}
}

// Total returns the number of observed samples.
func (b *BinaryScores) Total() int { return b.TP + b.FP + b.TN + b.FN }

// Accuracy returns (TP+TN)/total, or 0 with no samples.
func (b *BinaryScores) Accuracy() float64 {
	n := b.Total()
	if n == 0 {
		return 0
	}
	return float64(b.TP+b.TN) / float64(n)
}

// Precision returns TP/(TP+FP), or 0 when undefined.
func (b *BinaryScores) Precision() float64 {
	if b.TP+b.FP == 0 {
		return 0
	}
	return float64(b.TP) / float64(b.TP+b.FP)
}

// Recall returns TP/(TP+FN), or 0 when undefined.
func (b *BinaryScores) Recall() float64 {
	if b.TP+b.FN == 0 {
		return 0
	}
	return float64(b.TP) / float64(b.TP+b.FN)
}

// F1 returns the harmonic mean of precision and recall, or 0 when undefined.
func (b *BinaryScores) F1() float64 {
	p, r := b.Precision(), b.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// TopK returns the indices of the k smallest values (ties broken by index),
// ordered ascending by value. k larger than len(xs) returns all indices.
func TopK(xs []float64, k int) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	if k < 0 {
		k = 0
	}
	return idx[:k]
}

// Gini is the Gini coefficient of a non-negative sample — the service
// layer's fairness metric over per-tenant spend. 0 means perfectly equal
// shares, values toward 1 mean spend concentrated on few tenants. Empty,
// all-zero, or negative-sum samples return 0 (no inequality measurable).
// The input slice is not modified.
func Gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum, weighted float64
	for i, x := range sorted {
		sum += x
		weighted += float64(i+1) * x
	}
	if sum <= 0 {
		return 0
	}
	// Standard rank formulation: G = (2·Σ i·x_(i) )/(n·Σx) − (n+1)/n.
	return 2*weighted/(float64(n)*sum) - float64(n+1)/float64(n)
}
