package market

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Cursor is one owner's position in one trace of a Store: the record in
// force at the last instant it was asked about, the span [at, until) over
// which that record stays in force, the record's micro-price and the exact
// integral of the trace's price from its first record to at. A cluster asks
// its markets about an instant that only moves forward, mostly inside the
// span of the record it asked about last or a few records later, so the
// Store methods that take a cursor answer:
//
//   - inside the span, from the cursor's fields alone;
//   - up to blockRecords records ahead, by walking there and adding each
//     passed segment's integral (priceTimes, exact);
//   - anywhere else (the first use, a move backward, a longer jump), by
//     re-seeding from the bucket search and the block integral, as the
//     search methods do;
//   - before the trace's first record, through the search methods
//     themselves, leaving the cursor where it was.
//
// Every integral is exact, so each answer has the bits of the search method
// it stands for (PriceAt, AvgOver, NextAfter, FirstExceed) whatever the
// cursor's history; FuzzCursorMatchesStore pins that. A Cursor is mutable
// state with one owner, like the cluster that keeps it; the Store it reads
// stays immutable and shared. Build one with NewCursor.
type Cursor struct {
	trace int32
	i     int32 // flat index of the record in force; −1 before the first seek
	micro int32
	// at is the record's timestamp and until the next record's, or
	// math.MaxInt64 for the trace's last record, which holds forever.
	at, until int64
	sum       i128 // the integral from the trace's first record to at
}

// NewCursor returns a cursor over trace ti, not yet positioned: its first
// query re-seeds from the search.
func (s *Store) NewCursor(ti int) Cursor { return Cursor{trace: int32(ti), i: -1} }

// seek moves c to the record in force at tNanos and reports whether there is
// one: false before the trace's first record (or on an empty trace), where
// the callers answer through the search methods and c stays where it was.
func (s *Store) seek(c *Cursor, tNanos int64) bool {
	if c.i >= 0 && tNanos >= c.at {
		if tNanos < c.until {
			return true
		}
		hi := s.traces[c.trace].hi
		for n := 0; n < blockRecords; n++ {
			next := c.i + 1
			if next >= hi { // the last record holds to the end of time
				return true
			}
			c.sum = c.sum.add(priceTimes(c.micro, c.until-c.at))
			c.i, c.at, c.micro, c.until = next, c.until, s.micro[next], s.untilAfter(int(next), hi)
			if tNanos < c.until {
				return true
			}
		}
	}
	tr := &s.traces[c.trace]
	i := s.searchAfter(tr, tNanos) - 1
	if i < int(tr.lo) {
		return false
	}
	c.i, c.at, c.micro, c.until = int32(i), s.atNanos[i], s.micro[i], s.untilAfter(i, tr.hi)
	c.sum = s.integralTo(tr, i)
	return true
}

// untilAfter is the end of record i's span in a trace ending at hi.
func (s *Store) untilAfter(i int, hi int32) int64 {
	if i+1 < int(hi) {
		return s.atNanos[i+1]
	}
	return math.MaxInt64
}

// PriceAtCursor is PriceAt on c's trace at tNanos, found through c.
func (s *Store) PriceAtCursor(c *Cursor, tNanos int64) (price float64, ok bool) {
	if !s.seek(c, tNanos) {
		return s.PriceAt(int(c.trace), time.Unix(0, tNanos))
	}
	return float64(c.micro) / microPerUSD, true
}

// AvgOverCursors is AvgOver over [fromNanos, toNanos), each end's integral
// found through its own cursor. Both cursors must be on the same trace.
func (s *Store) AvgOverCursors(from, to *Cursor, fromNanos, toNanos int64) (float64, error) {
	if fromNanos >= toNanos {
		return 0, fmt.Errorf("market: AvgOver with from %v >= to %v",
			time.Unix(0, fromNanos).UTC(), time.Unix(0, toNanos).UTC())
	}
	tr := &s.traces[to.trace]
	if tr.lo == tr.hi {
		return 0, errors.New("market: trace has no records")
	}
	sum := s.integralVia(to, toNanos).sub(s.integralVia(from, fromNanos))
	return quote(sum, toNanos-fromNanos), nil
}

// integralVia is integralAt on c's trace at tNanos, through c.
func (s *Store) integralVia(c *Cursor, tNanos int64) i128 {
	if !s.seek(c, tNanos) {
		return s.integralAt(&s.traces[c.trace], tNanos)
	}
	return c.sum.add(priceTimes(c.micro, tNanos-c.at))
}

// NextAfterCursor is NextAfter on c's trace at tNanos, found through c.
func (s *Store) NextAfterCursor(c *Cursor, tNanos int64) (time.Time, bool) {
	if !s.seek(c, tNanos) {
		return s.NextAfter(int(c.trace), time.Unix(0, tNanos))
	}
	if c.i+1 >= s.traces[c.trace].hi {
		return time.Time{}, false
	}
	return time.Unix(0, c.until).UTC(), true
}

// FirstExceedCursor is FirstExceed on c's trace after tNanos, its scan
// starting from the record after c's.
func (s *Store) FirstExceedCursor(c *Cursor, tNanos int64, maxPrice float64) (time.Time, bool) {
	m, ok := exceedMicro(maxPrice)
	if !ok {
		return time.Time{}, false
	}
	if !s.seek(c, tNanos) {
		return s.FirstExceed(int(c.trace), time.Unix(0, tNanos), maxPrice)
	}
	return s.firstExceedFrom(int(c.i)+1, int(s.traces[c.trace].hi), m)
}
