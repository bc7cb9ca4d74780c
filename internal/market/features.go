package market

import (
	"fmt"
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

// Grid is a 1-minute-resampled view of one market's trace with O(1) feature
// extraction. It is the unit RevPred trains on. A Grid is immutable once
// NewGrid returns: predictors memoize results per grid, so callers must not
// modify Prices.
type Grid struct {
	Type   InstanceType
	Start  time.Time
	Prices []float64 // one entry per minute

	// changedAt[i] is the minute index at which Prices[i] was last set
	// (i.e. the start of the current price plateau).
	changedAt []int
	// cumPrice[i] = sum of Prices[0..i-1] for O(1) window averages.
	cumPrice []float64
	// cumChanges[i] = number of price changes in Prices[1..i-1].
	cumChanges []int
}

// NewGrid interpolates tr onto a 1-minute grid over [from, to) and
// precomputes feature accumulators.
func NewGrid(it InstanceType, tr *Trace, from, to time.Time) (*Grid, error) {
	if it.Name != tr.Type {
		return nil, fmt.Errorf("market: grid type %q does not match trace %q", it.Name, tr.Type)
	}
	resampled, err := tr.InterpolateMinutes(from, to)
	if err != nil {
		return nil, err
	}
	g := &Grid{Type: it, Start: from}
	g.Prices = make([]float64, len(resampled.Records))
	for i, r := range resampled.Records {
		g.Prices[i] = r.Price
	}
	n := len(g.Prices)
	g.changedAt = make([]int, n)
	g.cumPrice = make([]float64, n+1)
	g.cumChanges = make([]int, n+1)
	for i := 0; i < n; i++ {
		g.cumPrice[i+1] = g.cumPrice[i] + g.Prices[i]
		if i == 0 {
			g.changedAt[i] = 0
			g.cumChanges[i+1] = 0
			continue
		}
		changed := g.Prices[i] != g.Prices[i-1]
		if changed {
			g.changedAt[i] = i
			g.cumChanges[i+1] = g.cumChanges[i] + 1
		} else {
			g.changedAt[i] = g.changedAt[i-1]
			g.cumChanges[i+1] = g.cumChanges[i]
		}
	}
	return g, nil
}

// Len returns the number of minutes in the grid.
func (g *Grid) Len() int { return len(g.Prices) }

// TimeAt returns the wall time of minute i.
func (g *Grid) TimeAt(i int) time.Time { return g.Start.Add(time.Duration(i) * time.Minute) }

// Index maps a timestamp to its minute index (floor). It errors when t is
// outside the grid.
func (g *Grid) Index(t time.Time) (int, error) {
	d := t.Sub(g.Start)
	if d < 0 {
		return 0, fmt.Errorf("market: time %v before grid start %v", t, g.Start)
	}
	i := int(d / time.Minute)
	if i >= len(g.Prices) {
		return 0, fmt.Errorf("market: time %v beyond grid end", t)
	}
	return i, nil
}

// Features returns the six engineered features for minute i. Lookback
// windows are truncated at the grid start.
func (g *Grid) Features(i int) [FeatureCount]float64 {
	lo := i - LookbackMinutes + 1
	if lo < 0 {
		lo = 0
	}
	window := float64(i - lo + 1)
	avg := (g.cumPrice[i+1] - g.cumPrice[lo]) / window
	changes := float64(g.cumChanges[i+1] - g.cumChanges[lo])
	sinceSet := float64(i - g.changedAt[i])
	t := g.TimeAt(i)
	workday := 0.0
	if isWorkday(t) {
		workday = 1
	}
	return [FeatureCount]float64{
		g.Prices[i],       // (1) current spot market price
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
	lo := i - LookbackMinutes + 1
	if lo < 1 {
		lo = 1
	}
	if i < lo {
		return 0
	}
	deltas := make([]float64, 0, i-lo+1)
	for j := lo; j <= i; j++ {
		d := g.Prices[j] - g.Prices[j-1]
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
	hi := i + horizon
	if hi >= len(g.Prices) {
		hi = len(g.Prices) - 1
	}
	for j := i + 1; j <= hi; j++ {
		if g.Prices[j] > maxPrice {
			return true
		}
	}
	return false
}

// MaxLabelIndex returns the largest minute index with a full label horizon.
func (g *Grid) MaxLabelIndex(horizon int) int { return len(g.Prices) - horizon - 1 }
