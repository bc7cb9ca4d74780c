package market

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// Record is one spot-price observation: the market price that became
// effective at At and holds until the next record.
type Record struct {
	At    time.Time
	Price float64 // USD per hour
}

// Trace is the spot-price history of a single market (one instance type in
// one region). Records must be strictly increasing in time; spot prices are
// step functions, so the price at time t is the price of the latest record
// at or before t.
type Trace struct {
	Type    string // instance type name
	Records []Record
}

// Validate checks monotone timestamps and prices on the store's integer
// grid: positive, finite, a whole number of micro-dollars per hour
// (math.Round(p*1e6)/1e6 == p) and at most $2,147.483647 per hour, the int32
// cap. An error names the offending record.
func (tr *Trace) Validate() error {
	if len(tr.Records) == 0 {
		return errors.New("market: trace has no records")
	}
	for i, r := range tr.Records {
		if !(r.Price > 0) || math.IsInf(r.Price, 1) {
			// The negated comparison also catches NaN, which compares
			// false against everything and would otherwise slip through.
			return fmt.Errorf("market: record %d has non-positive or non-finite price %v", i, r.Price)
		}
		if m := math.Round(r.Price * microPerUSD); m > maxMicro {
			return fmt.Errorf("market: record %d price %v is above the $%v/h cap", i, r.Price, maxMicro/microPerUSD)
		} else if m/microPerUSD != r.Price {
			return fmt.Errorf("market: record %d price %v is not a whole number of micro-dollars", i, r.Price)
		}
		if i > 0 && !tr.Records[i-1].At.Before(r.At) {
			return fmt.Errorf("market: record %d timestamp %v not after previous %v",
				i, r.At, tr.Records[i-1].At)
		}
	}
	return nil
}

// PriceAt returns the market price effective at t: the price of the latest
// record at or before t. Querying before the first record returns the first
// record's price (ok=false flags the extrapolation).
//
// Hold-last-price contract: querying at or after the final record returns
// that record's price with ok=true — a trace that ends before the horizon
// of interest holds its last price forever. AvgOver, MaxOver, and the
// cloudsim billing/revocation machinery all inherit this extension.
//
// A validated price is a whole number m of micro-dollars, so the price
// returned is float64(m)/1e6 bit for bit: what Store.PriceAt computes.
func (tr *Trace) PriceAt(t time.Time) (price float64, ok bool) {
	n := len(tr.Records)
	if n == 0 {
		return 0, false
	}
	// First index with At > t.
	i := sort.Search(n, func(i int) bool { return tr.Records[i].At.After(t) })
	if i == 0 {
		return tr.Records[0].Price, false
	}
	return tr.Records[i-1].Price, true
}

// AvgOver returns the time-weighted average price over [from, to). This is
// the "average price of this instance in the last hour" term of Eq. 1, and
// the price a cloudsim instance is billed at over its lifetime.
//
// It walks the window segment by segment, summing each segment's
// micro-price × nanoseconds as an exact 128-bit integer, and divides that
// integral once (quote). The sum is exact, so any other grouping of the
// same segments, such as Store.AvgOver's two block-integral lookups, gives
// the same bits. The price before the first record is the first record's
// (PriceAt's extrapolation). Prices must be on Validate's grid.
func (tr *Trace) AvgOver(from, to time.Time) (float64, error) {
	if !from.Before(to) {
		return 0, fmt.Errorf("market: AvgOver with from %v >= to %v", from, to)
	}
	if len(tr.Records) == 0 {
		return 0, errors.New("market: trace has no records")
	}
	return quote(tr.integral(from, to), int64(to.Sub(from))), nil
}

// integral is the walk AvgOver divides: the exact sum of micro-price ×
// nanoseconds over the segments of [from, to), for from before to on a
// trace with records.
func (tr *Trace) integral(from, to time.Time) i128 {
	recs := tr.Records
	i := sort.Search(len(recs), func(i int) bool { return recs[i].At.After(from) })
	price, cursor := recs[max(i-1, 0)].Price, from
	var sum i128
	for ; i < len(recs) && recs[i].At.Before(to); i++ {
		sum = sum.add(priceTimes(toMicro(price), int64(recs[i].At.Sub(cursor))))
		price, cursor = recs[i].Price, recs[i].At
	}
	return sum.add(priceTimes(toMicro(price), int64(to.Sub(cursor))))
}

// MaxOver returns the maximum price in force over the half-open window
// [from, to): the step-function price entering the window (a change landing
// exactly at `from` counts) plus every change strictly inside it; a change
// exactly at `to` belongs to the next window, matching AvgOver.
// A spot request with maximum price b is revoked within the window iff
// MaxOver > b.
func (tr *Trace) MaxOver(from, to time.Time) float64 {
	maxP := 0.0
	// The price effective at `from` counts (step function): it is what the
	// window opens at even when the last change predates the window.
	if p, ok := tr.PriceAt(from); ok && p > maxP {
		maxP = p
	}
	for _, r := range tr.Records {
		if !r.At.Before(from) && r.At.Before(to) && r.Price > maxP {
			maxP = r.Price
		}
	}
	return maxP
}

// TraceSet maps instance type names to traces, the in-memory equivalent of
// one region's CSV in the Kaggle dataset.
type TraceSet map[string]*Trace

// Validate checks every member trace.
func (ts TraceSet) Validate() error {
	for name, tr := range ts {
		if tr.Type != name {
			return fmt.Errorf("market: trace keyed %q has Type %q", name, tr.Type)
		}
		if err := tr.Validate(); err != nil {
			return fmt.Errorf("market: trace %q: %w", name, err)
		}
	}
	return nil
}
