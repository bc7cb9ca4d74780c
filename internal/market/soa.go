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
	// blockRecords is how many consecutive records of the flat buffers one
	// FirstExceed price maximum covers.
	blockRecords = 16
)

// Store is a TraceSet packed into structure-of-arrays form: every trace's
// timestamps and prices live in shared flat buffers, addressed by per-trace
// spans. The hot simulator queries (PriceAt, AvgOver, FirstExceed,
// NextAfter) run over contiguous int64/float64 arrays instead of per-record
// time.Time comparisons through sort.Search closures.
//
// Three derived arrays make each query cheap:
//
//   - a record index per trace: the trace's time span cut into equal
//     power-of-two buckets holding at most bucketRecords records on average,
//     each bucket storing the first record at or after its start, so an
//     instant's record is one shift and a short bisection away;
//   - secs, each record's whole segment to the next record in seconds
//     (time.Duration.Seconds of the spacing), so AvgOver's interior is a
//     branch-free sum;
//   - blockMax, the highest price of every blockRecords-record block, so
//     FirstExceed skips blocks that cannot beat the bid.
//
// Timestamps are kept only as Unix nanoseconds, so FirstExceed and
// NextAfter return a record's instant in UTC.
//
// Every query is arithmetic-identical to its Trace counterpart: same
// floating-point operations in the same order, so a campaign driven through
// a Store is bit-identical to one driven through the Traces it was packed
// from. soa_test.go and FuzzStoreMatchesTrace pin that equivalence.
//
// A Store is immutable after NewStore and safe for concurrent readers, so
// one Store is shared by every cluster, grid (NewStoreGrid) and sweep worker
// built from the same environment.
type Store struct {
	atNanos  []int64   // all traces' timestamps, trace-major
	prices   []float64 // parallel to atNanos
	secs     []float64 // parallel to atNanos; 0 on each trace's last record
	blockMax []float64 // max of prices[k·blockRecords : (k+1)·blockRecords]
	buckets  []int32   // every trace's bucket boundaries into the flat buffers
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

// NewStore packs a validated TraceSet. Traces are laid out in sorted-name
// order so the packing is deterministic.
func NewStore(ts TraceSet) *Store {
	names := make([]string, 0, len(ts))
	total := 0
	for name, tr := range ts {
		names = append(names, name)
		total += len(tr.Records)
	}
	sort.Strings(names)
	s := &Store{
		atNanos:  make([]int64, 0, total),
		prices:   make([]float64, 0, total),
		secs:     make([]float64, total),
		blockMax: make([]float64, (total+blockRecords-1)/blockRecords),
		traces:   make([]traceIndex, len(names)),
		names:    names,
		index:    make(map[string]int, len(names)),
	}
	for i, name := range names {
		s.index[name] = i
		lo := len(s.atNanos)
		for _, r := range ts[name].Records {
			s.atNanos = append(s.atNanos, r.At.UnixNano())
			s.prices = append(s.prices, r.Price)
		}
		s.indexTrace(&s.traces[i], lo, len(s.atNanos))
	}
	for k := range s.atNanos {
		if b := k / blockRecords; k%blockRecords == 0 || s.prices[k] > s.blockMax[b] {
			s.blockMax[b] = s.prices[k]
		}
	}
	return s
}

// indexTrace fills one trace's spacing seconds and bucket boundaries. The
// buckets are the widest power of two that keeps the mean at or below
// bucketRecords records; boundary b counts the records before bucket b's
// start. The boundary sweep only moves forward, so the boundaries stay
// ordered (and every query in range) even for timestamps that are not.
func (s *Store) indexTrace(tr *traceIndex, lo, hi int) {
	tr.lo, tr.hi, tr.bucket = int32(lo), int32(hi), int32(len(s.buckets))
	if lo == hi {
		return
	}
	at := s.atNanos
	for k := lo; k+1 < hi; k++ {
		s.secs[k] = time.Duration(at[k+1] - at[k]).Seconds()
	}
	tr.first, tr.last = at[lo], at[hi-1]
	span := uint64(tr.last) - uint64(tr.first)
	want := uint64((hi - lo + bucketRecords - 1) / bucketRecords)
	shift := uint8(63)
	for shift > 0 && span>>shift+1 < want {
		shift--
	}
	tr.shift = shift
	nb := span>>shift + 1
	s.buckets = append(s.buckets, int32(lo))
	k := lo
	for b := uint64(1); b < nb; b++ {
		start := b << shift
		for k < hi && uint64(at[k])-uint64(tr.first) < start {
			k++
		}
		s.buckets = append(s.buckets, int32(k))
	}
	s.buckets = append(s.buckets, int32(hi))
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
// last record forward (hold-last-price, ok=true).
func (s *Store) PriceAt(ti int, t time.Time) (price float64, ok bool) {
	tr := &s.traces[ti]
	if tr.lo == tr.hi {
		return 0, false
	}
	i := s.searchAfter(tr, t.UnixNano())
	if i == int(tr.lo) {
		return s.prices[i], false
	}
	return s.prices[i-1], true
}

// AvgOver is Trace.AvgOver by trace index: the time-weighted average price
// over [from, to), segment by segment in the same floating-point order.
//
// Records i..j−1 fall inside (from, to). The window is the partial segment
// [from, at[i]) at the price in force at from, the whole segments
// [at[k], at[k+1]) for k in [i, j−1) at prices[k] × secs[k], and the
// closing partial [at[j−1], to); with no record inside, it is one segment.
// Every seconds value is time.Duration.Seconds of the same spacing
// Trace.AvgOver converts, so the sum runs the same multiplies and adds in
// the same order.
func (s *Store) AvgOver(ti int, from, to time.Time) (float64, error) {
	if !from.Before(to) {
		return 0, fmt.Errorf("market: AvgOver with from %v >= to %v", from, to)
	}
	tr := &s.traces[ti]
	if tr.lo == tr.hi {
		return 0, errors.New("market: trace has no records")
	}
	fromNanos, toNanos := from.UnixNano(), to.UnixNano()
	i := s.searchAfter(tr, fromNanos)
	j := s.searchAfter(tr, toNanos-1) // first record at or after to
	p := s.prices[max(i-1, int(tr.lo))]
	sum := 0.0 // price·seconds
	if j <= i {
		sum += p * time.Duration(toNanos-fromNanos).Seconds()
	} else {
		sum += p * time.Duration(s.atNanos[i]-fromNanos).Seconds()
		pr := s.prices[i : j-1]
		secs := s.secs[i : j-1]
		secs = secs[:len(pr)] // equal lengths drop the bounds check below
		for k := range pr {
			sum += pr[k] * secs[k]
		}
		sum += s.prices[j-1] * time.Duration(toNanos-s.atNanos[j-1]).Seconds()
	}
	return sum / time.Duration(toNanos-fromNanos).Seconds(), nil
}

// FirstExceed returns the first instant strictly after `after` at which the
// market price rises above maxPrice, under the hold-last-price contract: a
// trace whose remaining records never exceed maxPrice reports found=false
// (the held final price cannot cross it). Blocks whose maximum does not
// exceed maxPrice are skipped whole. The instant is the record's timestamp
// in UTC; callers compare instants only, so scheduling is identical to the
// Trace path.
func (s *Store) FirstExceed(ti int, after time.Time, maxPrice float64) (time.Time, bool) {
	tr := &s.traces[ti]
	i, hi := s.searchAfter(tr, after.UnixNano()), int(tr.hi)
	for i < hi {
		switch {
		case i%blockRecords == 0 && s.blockMax[i/blockRecords] <= maxPrice:
			i += blockRecords
		case s.prices[i] > maxPrice:
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
