package market

import (
	"fmt"
	"math"
	"sync"
	"time"

	"spottune/internal/stats"
)

// FeatureCount is the number of engineered features per price record
// (§III-B): current price, hour-average price, price changes in the past
// hour, minutes since the current price was set, workday flag, hour of day.
const FeatureCount = 6

// LookbackMinutes is the history window RevPred sees (59 past records plus
// the present one covers one hour).
const LookbackMinutes = 60

// Grid is the 1-minute resampling of one market's sparse trace (§IV-A1):
// minute i holds the price in force at Start + i minutes, with O(1) feature
// extraction. It is the unit RevPred trains on, and the view every
// revocation predictor is handed.
//
// A grid's per-minute arrays are built once, by the first read that needs
// them (Price, Features, FluctuationDelta, ExceedsWithin), under a
// sync.Once that makes concurrent first reads safe. Len, Index, TimeAt and
// MaxLabelIndex need only the start and the minute count, so a grid that no
// predictor reads features from never allocates its arrays. A grid's values
// are fixed when it is constructed and its arrays are built at most once, so
// predictors may memoize results per grid pointer. Share grids by pointer;
// a Grid must not be copied.
type Grid struct {
	Type  InstanceType
	Start time.Time

	minutes int
	// end is the first instant past the grid, Start + minutes·1m, and
	// startNanos is Start in Unix nanoseconds: Index's bounds and origin.
	end        time.Time
	startNanos int64
	// priceAt is the price-at-instant source the arrays are sampled from;
	// build drops it.
	priceAt func(time.Time) (float64, bool)
	once    sync.Once

	prices []float64 // one entry per minute
	// changedAt[i] is the minute index at which prices[i] was last set
	// (i.e. the start of the current price plateau). A grid spans fewer
	// minutes than math.MaxInt32 (see newGrid), so minute indices and
	// change counts fit in int32.
	changedAt []int32
	// cumPrice[i] = sum of prices[0..i-1] for O(1) window averages.
	cumPrice []float64
	// cumChanges[i] = number of price changes in prices[1..i-1].
	cumChanges []int32
}

// NewGrid resamples tr onto a 1-minute grid over [from, to) after
// validating it. The arrays are built before NewGrid returns, so the grid
// keeps no reference to tr.
func NewGrid(it InstanceType, tr *Trace, from, to time.Time) (*Grid, error) {
	if it.Name != tr.Type {
		return nil, fmt.Errorf("market: grid type %q does not match trace %q", it.Name, tr.Type)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	g, err := newGrid(it, from, to, tr.PriceAt)
	if err != nil {
		return nil, err
	}
	g.once.Do(g.build)
	return g, nil
}

// NewStoreGrid is the 1-minute grid of a packed market over [from, to),
// sampled from s.PriceAt when a read first needs its arrays. The store is
// immutable, so the grid's values are the same whenever that happens.
func NewStoreGrid(it InstanceType, s *Store, from, to time.Time) (*Grid, error) {
	ti, ok := s.Lookup(it.Name)
	if !ok {
		return nil, fmt.Errorf("market: store has no trace for grid type %q", it.Name)
	}
	return newGrid(it, from, to, func(t time.Time) (float64, bool) { return s.PriceAt(ti, t) })
}

// newGrid is a grid over [from, to) with its arrays not yet built: one
// minute for every from + k·1m before to. A span must be shorter than the
// longest time.Duration (about 292 years), which to.Sub(from) saturates
// at: the grid's end and offsets are Durations. That cap is 153,722,867
// minutes, so minute indices and change counts fit the int32 arrays; every
// span of more than math.MaxInt32 minutes is rejected with it.
func newGrid(it InstanceType, from, to time.Time, priceAt func(time.Time) (float64, bool)) (*Grid, error) {
	if !from.Before(to) {
		return nil, fmt.Errorf("market: grid from %v >= to %v", from, to)
	}
	span := to.Sub(from)
	if span == math.MaxInt64 {
		return nil, fmt.Errorf("market: grid from %v to %v is longer than a time.Duration", from, to)
	}
	minutes := int(span / time.Minute)
	if span%time.Minute != 0 {
		minutes++
	}
	return &Grid{
		Type:       it,
		Start:      from,
		minutes:    minutes,
		end:        from.Add(time.Duration(minutes) * time.Minute),
		startNanos: from.UnixNano(),
		priceAt:    priceAt,
	}, nil
}

// build samples the source at every minute and fills the feature
// accumulators. It runs once, under g.once.
func (g *Grid) build() {
	n := g.minutes
	g.prices = make([]float64, n)
	g.changedAt = make([]int32, n)
	g.cumPrice = make([]float64, n+1)
	g.cumChanges = make([]int32, n+1)
	for i := 0; i < n; i++ {
		g.prices[i], _ = g.priceAt(g.TimeAt(i))
		g.cumPrice[i+1] = g.cumPrice[i] + g.prices[i]
		if i == 0 {
			continue
		}
		if g.prices[i] != g.prices[i-1] {
			g.changedAt[i] = int32(i)
			g.cumChanges[i+1] = g.cumChanges[i] + 1
		} else {
			g.changedAt[i] = g.changedAt[i-1]
			g.cumChanges[i+1] = g.cumChanges[i]
		}
	}
	g.priceAt = nil
}

// Len returns the number of minutes in the grid.
func (g *Grid) Len() int { return g.minutes }

// TimeAt returns the wall time of minute i.
func (g *Grid) TimeAt(i int) time.Time { return g.Start.Add(time.Duration(i) * time.Minute) }

// Index maps a timestamp to its minute index (floor). It errors when t is
// outside the grid. Inside it the offset from Start is below the grid's
// span, so the difference of the two Unix-nanosecond counts is exact even
// where each count alone would overflow.
func (g *Grid) Index(t time.Time) (int, error) {
	if t.Before(g.Start) {
		return 0, fmt.Errorf("market: time %v before grid start %v", t, g.Start)
	}
	if !t.Before(g.end) {
		return 0, fmt.Errorf("market: time %v beyond grid end", t)
	}
	return int((t.UnixNano() - g.startNanos) / int64(time.Minute)), nil
}

// Price returns the market price in force at minute i.
func (g *Grid) Price(i int) float64 {
	g.once.Do(g.build)
	return g.prices[i]
}

// Features returns the six engineered features for minute i. Lookback
// windows are truncated at the grid start.
func (g *Grid) Features(i int) [FeatureCount]float64 {
	g.once.Do(g.build)
	lo := i - LookbackMinutes + 1
	if lo < 0 {
		lo = 0
	}
	window := float64(i - lo + 1)
	avg := (g.cumPrice[i+1] - g.cumPrice[lo]) / window
	changes := float64(g.cumChanges[i+1] - g.cumChanges[lo])
	sinceSet := float64(i - int(g.changedAt[i]))
	t := g.TimeAt(i)
	workday := 0.0
	if isWorkday(t) {
		workday = 1
	}
	return [FeatureCount]float64{
		g.prices[i],       // (1) current spot market price
		avg,               // (2) average price in the past hour
		changes,           // (3) number of price changes in the past hour
		sinceSet,          // (4) minutes since the current price was set
		workday,           // (5) workday flag
		float64(t.Hour()), // (6) hour of the day
	}
}

// FluctuationDelta implements Algorithm 2: the 20%-trimmed mean of absolute
// adjacent price differences over the past hour. Training-time maximum
// prices are current price + this delta, placing samples near the
// revoked/not-revoked decision border.
//
// The paper computes the diffs over the raw Kaggle record stream, where
// adjacent records are actual price *changes*; on the interpolated 1-minute
// grid the equivalent is the set of nonzero minute-over-minute differences
// (zero diffs are just the gaps between sparse records and would drown the
// statistic).
func (g *Grid) FluctuationDelta(i int) float64 {
	g.once.Do(g.build)
	lo := i - LookbackMinutes + 1
	if lo < 1 {
		lo = 1
	}
	if i < lo {
		return 0
	}
	deltas := make([]float64, 0, i-lo+1)
	for j := lo; j <= i; j++ {
		d := g.prices[j] - g.prices[j-1]
		if d < 0 {
			d = -d
		}
		if d > 0 {
			deltas = append(deltas, d)
		}
	}
	tm, err := stats.TrimmedMean(deltas, 0.2, 0.2)
	if err != nil {
		return 0 // no price changes in the past hour
	}
	return tm
}

// ExceedsWithin reports whether the market price rises strictly above
// maxPrice at any minute in (i, i+horizon]. This is the revocation label:
// AWS revokes a spot instance once the market price passes the user's
// maximum price.
func (g *Grid) ExceedsWithin(i int, maxPrice float64, horizon int) bool {
	g.once.Do(g.build)
	hi := i + horizon
	if hi >= g.minutes {
		hi = g.minutes - 1
	}
	for j := i + 1; j <= hi; j++ {
		if g.prices[j] > maxPrice {
			return true
		}
	}
	return false
}

// MaxLabelIndex returns the largest minute index with a full label horizon.
func (g *Grid) MaxLabelIndex(horizon int) int { return g.minutes - horizon - 1 }
