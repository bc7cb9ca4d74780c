package stats

import (
	"errors"
	"math"
	"sort"
)

// QuantileSketch is a bounded-memory, order-independent quantile estimator
// (a DDSketch-style log-binned histogram). Values are counted into
// geometrically spaced buckets, so memory is bounded by the dynamic range of
// the data (a few hundred buckets for any realistic cost/JCT span) rather
// than the sample count, and every quantile estimate carries a guaranteed
// relative error of at most Alpha.
//
// Determinism is the point: bucket counts commute, so a sketch filled by
// concurrent workers in scheduling-dependent order holds exactly the same
// state — and reports exactly the same quantiles — as one filled
// sequentially from a CSV column. Streaming aggregation and after-the-fact
// CSV aggregation can therefore never disagree.
//
// Min, max, sum, and count are tracked exactly (they are order-independent
// reductions), so Mean/Min/Max are not estimates.
type QuantileSketch struct {
	alpha float64
	gamma float64 // bucket growth factor (1+alpha)/(1-alpha)
	lnG   float64

	pos   map[int32]uint64 // bucket key -> count, x > minTracked
	neg   map[int32]uint64 // bucket key over |x|, x < -minTracked
	zeros uint64           // |x| <= minTracked

	count    uint64
	sum      float64
	min, max float64
}

// minTracked is the magnitude below which values collapse into the zero
// bucket, bounding the key range for denormal-ish inputs.
const minTracked = 1e-9

// DefaultSketchAlpha is the relative-accuracy target used by the streaming
// matrix summary (0.5%: p99 of a $100 cost distribution is within ±$0.50).
const DefaultSketchAlpha = 0.005

// NewQuantileSketch returns an empty sketch with the given relative-accuracy
// target (0 < alpha < 1; out-of-range values fall back to
// DefaultSketchAlpha).
func NewQuantileSketch(alpha float64) *QuantileSketch {
	if alpha <= 0 || alpha >= 1 {
		alpha = DefaultSketchAlpha
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &QuantileSketch{
		alpha: alpha,
		gamma: gamma,
		lnG:   math.Log(gamma),
		pos:   map[int32]uint64{},
		neg:   map[int32]uint64{},
		min:   math.Inf(1),
		max:   math.Inf(-1),
	}
}

// key maps a positive magnitude to its bucket index: bucket k covers
// (gamma^(k-1), gamma^k].
func (s *QuantileSketch) key(mag float64) int32 {
	return int32(math.Ceil(math.Log(mag) / s.lnG))
}

// bucketValue is the representative value for bucket k: the point whose
// worst-case relative distance to both bucket edges is alpha.
func (s *QuantileSketch) bucketValue(k int32) float64 {
	return 2 * math.Pow(s.gamma, float64(k)) / (s.gamma + 1)
}

// Add counts one value. NaN values are ignored (they have no place on the
// quantile axis and would otherwise poison min/max).
func (s *QuantileSketch) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	switch {
	case x > minTracked:
		s.pos[s.key(x)]++
	case x < -minTracked:
		s.neg[s.key(-x)]++
	default:
		s.zeros++
	}
	s.count++
	s.sum += x
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
}

// Merge folds other into s (bucket counts add; min/max/sum/count combine
// exactly). Both sketches must share the same alpha.
func (s *QuantileSketch) Merge(other *QuantileSketch) error {
	if other == nil || other.count == 0 {
		return nil
	}
	if other.alpha != s.alpha {
		return errors.New("stats: merging sketches with different accuracy targets")
	}
	for k, c := range other.pos {
		s.pos[k] += c
	}
	for k, c := range other.neg {
		s.neg[k] += c
	}
	s.zeros += other.zeros
	s.count += other.count
	s.sum += other.sum
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	return nil
}

// Count returns the number of values added.
func (s *QuantileSketch) Count() int { return int(s.count) }

// Mean returns the exact arithmetic mean, or 0 when empty.
func (s *QuantileSketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Max returns the exact maximum, or 0 when empty.
func (s *QuantileSketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Quantile returns the estimated q-quantile (0 <= q <= 1) with relative
// error at most alpha, clamped to the exact [min, max] envelope. It returns
// 0 for an empty sketch. The q=0 and q=1 endpoints are exact.
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	// rank is the 0-indexed position in the sorted sample this quantile
	// names (nearest-rank over n-1 intervals, matching a sorted-slice
	// lookup xs[round(q*(n-1))]).
	rank := uint64(math.Round(q * float64(s.count-1)))

	est, ok := s.walk(rank)
	if !ok {
		// Unreachable while the walk covers every bucket, but a total
		// fallback beats a panic in an estimator.
		est = s.max
	}
	// The log-binned estimate can poke past the exact envelope at the
	// extremes; clamping costs nothing and keeps Quantile(q) within
	// observed data.
	if est < s.min {
		est = s.min
	}
	if est > s.max {
		est = s.max
	}
	return est
}

// walk scans buckets in ascending value order until the cumulative count
// passes rank.
func (s *QuantileSketch) walk(rank uint64) (float64, bool) {
	var cum uint64
	// Negative buckets: larger |x| key means smaller value, so descend.
	negKeys := sortedKeys(s.neg)
	for i := len(negKeys) - 1; i >= 0; i-- {
		cum += s.neg[negKeys[i]]
		if cum > rank {
			return -s.bucketValue(negKeys[i]), true
		}
	}
	cum += s.zeros
	if cum > rank {
		return 0, true
	}
	for _, k := range sortedKeys(s.pos) {
		cum += s.pos[k]
		if cum > rank {
			return s.bucketValue(k), true
		}
	}
	return 0, false
}

func sortedKeys(m map[int32]uint64) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
