package market

import (
	"math"
	"math/bits"
)

// Prices are exact integers: every record's price is a whole number of
// micro-dollars per hour that fits an int32 (Trace.Validate enforces both),
// and price integrals are exact 128-bit counts of micro-dollars per hour ×
// nanoseconds. A quote or bill is one division of such an integral, so its
// bits depend on (trace, from, to) alone, not on how the sum was grouped.
const (
	// microPerUSD converts USD per hour to the stored micro-dollars per hour.
	microPerUSD = 1e6
	// maxMicro is the highest storable price: $2,147.483647 per hour.
	maxMicro = math.MaxInt32
)

// toMicro is a validated price in micro-dollars per hour.
func toMicro(price float64) int32 { return int32(math.Round(price * microPerUSD)) }

// i128 is a two's-complement 128-bit integer: a price integral in
// micro-dollars per hour × nanoseconds. Arithmetic wraps modulo 2^128, so a
// difference of two integrals is exact whenever the true difference fits.
// Every window of a validated trace fits: its integral is below
// 2^31 × 2^63 = 2^94 (14 days at $100/h is about 1.2e23).
type i128 struct{ hi, lo uint64 }

func (a i128) add(b i128) i128 {
	lo, carry := bits.Add64(a.lo, b.lo, 0)
	hi, _ := bits.Add64(a.hi, b.hi, carry)
	return i128{hi, lo}
}

func (a i128) sub(b i128) i128 {
	lo, borrow := bits.Sub64(a.lo, b.lo, 0)
	hi, _ := bits.Sub64(a.hi, b.hi, borrow)
	return i128{hi, lo}
}

// priceTimes is micro × nanos, the integral of one price over a span of
// either sign.
func priceTimes(micro int32, nanos int64) i128 {
	hi, lo := bits.Mul64(uint64(micro), uint64(nanos))
	if nanos < 0 { // uint64(nanos) read nanos as nanos + 2^64
		hi -= uint64(micro)
	}
	return i128{hi, lo}
}

// quote is the average price in USD per hour of a nonnegative integral over
// a window of nanos nanoseconds: the one division every quote and bill makes.
func quote(sum i128, nanos int64) float64 {
	return (float64(sum.hi)*0x1p64 + float64(sum.lo)) / (float64(nanos) * microPerUSD)
}

// exceedMicro returns the least micro-price m whose price float64(m)/1e6
// exceeds bid, so a record's price exceeds bid exactly when its micro-price
// is at least m. ok=false when no storable price does: a NaN bid (which
// nothing exceeds), +Inf, and bids at or above the cap. Non-finite and
// out-of-range bids are settled before the adjusting loops, which would not
// terminate on them.
func exceedMicro(bid float64) (m int32, ok bool) {
	switch {
	case !(bid < maxMicro/microPerUSD):
		return 0, false
	case bid < 0: // −Inf too: every price exceeds it
		return 0, true
	}
	n := int64(bid * microPerUSD)
	for float64(n)/microPerUSD <= bid {
		n++
	}
	for n > 0 && float64(n-1)/microPerUSD > bid {
		n--
	}
	return int32(n), true
}
