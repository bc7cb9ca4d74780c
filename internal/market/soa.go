package market

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

const (
	// bucketRecords caps the mean number of records per time bucket of a
	// trace's record index: a query lands in its bucket in O(1) and bisects
	// at most a handful of records there.
	bucketRecords = 8
	// blockRecords is how many consecutive records of the flat buffers
	// share one stored price integral and one FirstExceed price maximum.
	blockRecords = 8
)

// Store is a TraceSet packed into structure-of-arrays form: every trace's
// timestamps and prices live in shared flat buffers, addressed by per-trace
// spans. The hot simulator queries (PriceAt, AvgOver, FirstExceed,
// NextAfter) run over contiguous integer arrays instead of per-record
// time.Time comparisons through sort.Search closures.
//
// Prices are stored as int32 micro-dollars per hour (price.go), timestamps
// as Unix nanoseconds, so FirstExceed and NextAfter return a record's
// instant in UTC. Three derived arrays make each query cheap:
//
//   - a record index per trace: the trace's time span cut into equal
//     power-of-two buckets holding at most bucketRecords records on average,
//     each bucket storing the first record at or after its start, so an
//     instant's record is one shift and a short bisection away;
//   - integral, per blockRecords-record block, the exact 128-bit integral
//     of price × nanoseconds from the owning trace's first record to the
//     block's first record, so a window's integral is two lookups, at most
//     blockRecords−1 products at each end and one subtraction;
//   - blockMax, the highest micro-price of every block, so FirstExceed skips
//     blocks that cannot beat the bid.
//
// PriceAt has the bits of Trace.PriceAt, and AvgOver the bits of
// Trace.AvgOver's segment-by-segment integer walk: both divide the same
// exact integral once. soa_test.go and FuzzStoreMatchesTrace pin that.
//
// A Store is immutable after NewStore and safe for concurrent readers, so
// one Store is shared by every cluster, grid (NewStoreGrid) and sweep worker
// built from the same environment.
type Store struct {
	atNanos  []int64 // all traces' timestamps, trace-major
	micro    []int32 // parallel to atNanos: prices in micro-dollars per hour
	integral []i128  // per block, see the type doc
	blockMax []int32 // max of micro[k·blockRecords : (k+1)·blockRecords]
	buckets  []int32 // every trace's bucket boundaries into the flat buffers
	traces   []traceIndex

	names []string // sorted trace names
	index map[string]int
}

// traceIndex locates one trace in the flat buffers and its record index in
// Store.buckets.
type traceIndex struct {
	lo, hi      int32 // [lo, hi) span into the flat buffers
	bucket      int32 // the trace's first boundary in Store.buckets
	shift       uint8 // buckets are 1<<shift nanoseconds wide
	first, last int64 // first and last record timestamps
}

// NewStore packs a validated TraceSet in one pass over its records. Traces
// are laid out in sorted-name order so the packing is deterministic.
func NewStore(ts TraceSet) *Store {
	names := make([]string, 0, len(ts))
	total, boundaries := 0, 0
	for name, tr := range ts {
		names = append(names, name)
		total += len(tr.Records)
		if n := len(tr.Records); n > 0 {
			span := uint64(tr.Records[n-1].At.UnixNano()) - uint64(tr.Records[0].At.UnixNano())
			boundaries += int(span>>bucketShift(span, n)) + 2
		}
	}
	sort.Strings(names)
	blocks := (total + blockRecords - 1) / blockRecords
	s := &Store{
		atNanos:  make([]int64, total),
		micro:    make([]int32, total),
		integral: make([]i128, blocks),
		blockMax: make([]int32, blocks),
		buckets:  make([]int32, 0, boundaries),
		traces:   make([]traceIndex, len(names)),
		names:    names,
		index:    make(map[string]int, len(names)),
	}
	k := 0
	for i, name := range names {
		s.index[name] = i
		recs := ts[name].Records
		tr := &s.traces[i]
		lo := k
		*tr = traceIndex{lo: int32(lo), hi: int32(lo + len(recs)), bucket: int32(len(s.buckets))}
		if len(recs) == 0 {
			continue
		}
		tr.first, tr.last = recs[0].At.UnixNano(), recs[len(recs)-1].At.UnixNano()
		span := uint64(tr.last) - uint64(tr.first)
		tr.shift = bucketShift(span, len(recs))
		// Bucket boundary b, for b in [0, nb], is the first record at or
		// after the bucket's start; each record emits the boundaries of
		// the buckets up to its own. Emitting only moves forward, so the
		// boundaries stay ordered (and every query in range) even for
		// timestamps that are not.
		nb, next := span>>tr.shift+1, uint64(0)
		var run i128 // the integral from the trace's first record to record k
		for _, r := range recs {
			at, m := r.At.UnixNano(), toMicro(r.Price)
			if k > lo {
				run = run.add(priceTimes(s.micro[k-1], at-s.atNanos[k-1]))
			}
			s.atNanos[k], s.micro[k] = at, m
			if b := k / blockRecords; k%blockRecords == 0 {
				s.integral[b], s.blockMax[b] = run, m
			} else if m > s.blockMax[b] {
				s.blockMax[b] = m
			}
			for b := min((uint64(at)-uint64(tr.first))>>tr.shift, nb-1); next <= b; next++ {
				s.buckets = append(s.buckets, int32(k))
			}
			k++
		}
		for ; next <= nb; next++ {
			s.buckets = append(s.buckets, int32(k))
		}
	}
	return s
}

// bucketShift is the log2 of the widest power-of-two bucket width, in
// nanoseconds, that keeps a trace of n records spanning span nanoseconds at
// or below bucketRecords records per bucket on average.
func bucketShift(span uint64, n int) uint8 {
	want := uint64((n + bucketRecords - 1) / bucketRecords)
	shift := uint8(63)
	for shift > 0 && span>>shift+1 < want {
		shift--
	}
	return shift
}

// Lookup resolves a trace name to its index. Hot paths resolve once and then
// query by index.
func (s *Store) Lookup(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Names returns the packed trace names in layout (sorted) order.
func (s *Store) Names() []string { return s.names }

// searchAfter returns the flat index of the trace's first record strictly
// after tNanos (tr.hi when there is none) — the flat-buffer equivalent of
// sort.Search over Record.At.After. An instant inside the trace's span
// falls in bucket (tNanos−first)>>shift, whose boundaries bracket the
// answer; a bisection between them finds it.
func (s *Store) searchAfter(tr *traceIndex, tNanos int64) int {
	if tNanos < tr.first {
		return int(tr.lo)
	}
	if tNanos >= tr.last {
		return int(tr.hi)
	}
	b := int(tr.bucket) + int((uint64(tNanos)-uint64(tr.first))>>tr.shift)
	lo, n := int(s.buckets[b]), int(s.buckets[b+1]-s.buckets[b])
	if n == 0 {
		return lo
	}
	// Bisect, keeping the answer in [lo, lo+n].
	at := s.atNanos
	for n > 1 {
		half := n >> 1
		if at[lo+half] <= tNanos {
			lo += half
		}
		n -= half
	}
	if at[lo] <= tNanos {
		lo++
	}
	return lo
}

// PriceAt is Trace.PriceAt by trace index: the price of the latest record at
// or before t, extrapolating the first record backward (ok=false) and the
// last record forward (hold-last-price, ok=true). A price on the
// micro-dollar grid comes back with the bits it was packed with.
func (s *Store) PriceAt(ti int, t time.Time) (price float64, ok bool) {
	tr := &s.traces[ti]
	if tr.lo == tr.hi {
		return 0, false
	}
	i := s.searchAfter(tr, t.UnixNano())
	if i == int(tr.lo) {
		return float64(s.micro[i]) / microPerUSD, false
	}
	return float64(s.micro[i-1]) / microPerUSD, true
}

// AvgOver is Trace.AvgOver by trace index: the time-weighted average price
// over [from, to), the exact integral over the window divided once by its
// length. The integral is integralAt(to) − integralAt(from), so a quote
// costs two index lookups whatever the window's length, and its bits are
// those of any other grouping of the same segments.
func (s *Store) AvgOver(ti int, from, to time.Time) (float64, error) {
	if !from.Before(to) {
		return 0, fmt.Errorf("market: AvgOver with from %v >= to %v", from, to)
	}
	tr := &s.traces[ti]
	if tr.lo == tr.hi {
		return 0, errors.New("market: trace has no records")
	}
	fromNanos, toNanos := from.UnixNano(), to.UnixNano()
	sum := s.integralAt(tr, toNanos).sub(s.integralAt(tr, fromNanos))
	return quote(sum, toNanos-fromNanos), nil
}

// integralAt is the integral of the trace's price from its first record to
// tNanos, negative before that record (whose price extends backward) and
// wrapping modulo 2^128 like every i128: the integral up to the record in
// force at tNanos plus the partial segment after it.
func (s *Store) integralAt(tr *traceIndex, tNanos int64) i128 {
	i := max(s.searchAfter(tr, tNanos)-1, int(tr.lo))
	return s.integralTo(tr, i).add(priceTimes(s.micro[i], tNanos-s.atNanos[i]))
}

// integralTo is the integral of the trace's price from its first record to
// record i's instant. It starts from the stored integral of the block
// holding record i, or from 0 when that block opens in an earlier trace,
// and adds the at most blockRecords−1 whole segments up to record i.
func (s *Store) integralTo(tr *traceIndex, i int) i128 {
	lo := int(tr.lo)
	var sum i128
	k := i / blockRecords * blockRecords
	if k >= lo {
		sum = s.integral[k/blockRecords]
	} else {
		k = lo
	}
	at, micro := s.atNanos[k:i+1], s.micro[k:i+1]
	for j := 0; j+1 < len(at); j++ {
		sum = sum.add(priceTimes(micro[j], at[j+1]-at[j]))
	}
	return sum
}

// FirstExceed returns the first instant strictly after `after` at which the
// market price rises above maxPrice, under the hold-last-price contract: a
// trace whose remaining records never exceed maxPrice reports found=false
// (the held final price cannot cross it). The bid becomes the least
// micro-price that exceeds it (exceedMicro), and the scan compares
// integers, skipping whole blocks whose maximum is below that threshold.
// Every bid, NaN and ±Inf included, gets the answer of a float scan of the
// records' prices. The instant is the record's timestamp in UTC; callers
// compare instants only, so scheduling is identical to the Trace path.
func (s *Store) FirstExceed(ti int, after time.Time, maxPrice float64) (time.Time, bool) {
	m, ok := exceedMicro(maxPrice)
	if !ok {
		return time.Time{}, false
	}
	tr := &s.traces[ti]
	return s.firstExceedFrom(s.searchAfter(tr, after.UnixNano()), int(tr.hi), m)
}

// firstExceedFrom is FirstExceed's scan over the flat records [i, hi) for
// the first micro-price at or above m.
func (s *Store) firstExceedFrom(i, hi int, m int32) (time.Time, bool) {
	for i < hi {
		switch {
		case i%blockRecords == 0 && s.blockMax[i/blockRecords] < m:
			i += blockRecords
		case s.micro[i] >= m:
			return time.Unix(0, s.atNanos[i]).UTC(), true
		default:
			i++
		}
	}
	return time.Time{}, false
}

// NextAfter returns the instant of the trace's first record strictly after
// t: the next price tick. ok=false when no record follows t (the trace holds
// its last price from there on). Like FirstExceed, the instant is the
// record's timestamp in UTC.
func (s *Store) NextAfter(ti int, t time.Time) (time.Time, bool) {
	tr := &s.traces[ti]
	i := s.searchAfter(tr, t.UnixNano())
	if i >= int(tr.hi) {
		return time.Time{}, false
	}
	return time.Unix(0, s.atNanos[i]).UTC(), true
}
