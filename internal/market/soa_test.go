package market

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// randomTraceSet builds a seeded multi-trace set that mixes three record
// spacings: long runs of the 1-minute grid the generators emit, sub-second
// gaps, and irregular whole-second gaps up to two hours. Prices random-walk
// on the micro-dollar grid.
func randomTraceSet(seed uint64, traces, records int) TraceSet {
	rng := rand.New(rand.NewPCG(seed, 0x50a))
	start := time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)
	ts := TraceSet{}
	for t := 0; t < traces; t++ {
		name := string(rune('a'+t)) + ".large"
		tr := &Trace{Type: name}
		at := start
		price := 0.05 + rng.Float64()*0.3
		add := func(gap time.Duration) {
			tr.Records = append(tr.Records, Record{At: at, Price: onGrid(price)})
			at = at.Add(gap)
			price = math.Max(0.01, price*(0.9+rng.Float64()*0.2))
		}
		for len(tr.Records) < records {
			switch rng.IntN(4) {
			case 0, 1:
				for k := 1 + rng.IntN(90); k > 0 && len(tr.Records) < records; k-- {
					add(time.Minute)
				}
			case 2:
				add(time.Duration(1 + rng.Int64N(int64(time.Second)-1)))
			default:
				add(time.Duration(1+rng.IntN(7200)) * time.Second)
			}
		}
		ts[name] = tr
	}
	return ts
}

// assertAvgOverBits compares one AvgOver window on the store and the trace
// bit for bit: the store's block integrals must sum to the Trace walk's
// integral exactly, not merely land close.
func assertAvgOverBits(t *testing.T, store *Store, ti int, tr *Trace, from, to time.Time) {
	t.Helper()
	wantAvg, wantErr := tr.AvgOver(from, to)
	gotAvg, gotErr := store.AvgOver(ti, from, to)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: AvgOver(%v,%v) err mismatch: %v vs %v", tr.Type, from, to, wantErr, gotErr)
	}
	if math.Float64bits(wantAvg) != math.Float64bits(gotAvg) {
		t.Fatalf("%s: AvgOver(%v,%v) = %x want %x",
			tr.Type, from, to, math.Float64bits(gotAvg), math.Float64bits(wantAvg))
	}
}

// queryInstants picks instants before, inside (both on and off record
// boundaries), and after the trace.
func queryInstants(rng *rand.Rand, tr *Trace, n int) []time.Time {
	start, end := tr.Records[0].At, tr.Records[len(tr.Records)-1].At
	out := []time.Time{
		start.Add(-time.Hour),
		start,
		start.Add(time.Nanosecond),
		end.Add(-time.Nanosecond),
		end,
		end.Add(48 * time.Hour),
	}
	span := end.Sub(start)
	for i := 0; i < n; i++ {
		if span > 0 { // a one-record trace has no inside
			out = append(out, start.Add(time.Duration(rng.Int64N(int64(span)))))
		}
		// Record boundaries and their 1ns neighbours are the step edges.
		r := tr.Records[rng.IntN(len(tr.Records))]
		out = append(out, r.At, r.At.Add(-time.Nanosecond), r.At.Add(time.Nanosecond))
	}
	return out
}

func TestStoreMatchesTraceBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		ts := randomTraceSet(seed, 4, 300)
		store := NewStore(ts)
		rng := rand.New(rand.NewPCG(seed, 0xfee1))
		for name, tr := range ts {
			ti, ok := store.Lookup(name)
			if !ok {
				t.Fatalf("seed %d: store missing trace %q", seed, name)
			}
			instants := queryInstants(rng, tr, 200)
			for _, at := range instants {
				wantP, wantOK := tr.PriceAt(at)
				gotP, gotOK := store.PriceAt(ti, at)
				if wantP != gotP || wantOK != gotOK {
					t.Fatalf("seed %d %s: PriceAt(%v) = %v,%v want %v,%v",
						seed, name, at, gotP, gotOK, wantP, wantOK)
				}
			}
			for i := 0; i+1 < len(instants); i += 2 {
				from, to := instants[i], instants[i+1]
				if to.Before(from) {
					from, to = to, from
				}
				if !from.Before(to) {
					continue
				}
				assertAvgOverBits(t, store, ti, tr, from, to)
			}
			// The trailing-hour quote window [to−1h, to), ending on and next
			// to record boundaries and at arbitrary nanoseconds in between.
			for _, to := range instants {
				assertAvgOverBits(t, store, ti, tr, to.Add(-time.Hour), to)
				off := time.Duration(rng.Int64N(int64(time.Minute)))
				assertAvgOverBits(t, store, ti, tr, to.Add(off-time.Hour), to.Add(off))
			}
		}
	}
}

// TestRandomTraceSetSpacings pins that the fixture really exercises runs of
// equal 1-minute gaps and sub-second gaps, next to irregular ones.
func TestRandomTraceSetSpacings(t *testing.T) {
	for name, tr := range randomTraceSet(1, 4, 300) {
		run, longest, subSecond := 0, 0, 0
		for i := 1; i < len(tr.Records); i++ {
			gap := tr.Records[i].At.Sub(tr.Records[i-1].At)
			if gap == time.Minute {
				run++
				longest = max(longest, run)
			} else {
				run = 0
			}
			if gap < time.Second {
				subSecond++
			}
		}
		if longest < 30 || subSecond == 0 {
			t.Fatalf("%s: longest 1-minute run %d, %d sub-second gaps", name, longest, subSecond)
		}
	}
}

// firstExceedRef is the pre-SoA reference: linear scan for the first record
// strictly after `after` priced above maxPrice (see cloudsim.firstExceed).
func firstExceedRef(tr *Trace, after time.Time, maxPrice float64) (time.Time, bool) {
	for _, r := range tr.Records {
		if r.At.After(after) && r.Price > maxPrice {
			return r.At, true
		}
	}
	return time.Time{}, false
}

// nextAfterRef is the reference next price tick: the first record strictly
// after t, found as Cluster.NextPriceTick did over the Trace.
func nextAfterRef(tr *Trace, t time.Time) (time.Time, bool) {
	i := sort.Search(len(tr.Records), func(i int) bool { return tr.Records[i].At.After(t) })
	if i == len(tr.Records) {
		return time.Time{}, false
	}
	return tr.Records[i].At, true
}

func TestStoreFirstExceedMatchesReference(t *testing.T) {
	ts := randomTraceSet(99, 3, 250)
	store := NewStore(ts)
	rng := rand.New(rand.NewPCG(99, 0xbeef))
	for name, tr := range ts {
		ti, _ := store.Lookup(name)
		for _, after := range queryInstants(rng, tr, 100) {
			for _, maxPrice := range []float64{0, 0.04, 0.1, 0.2, 1e9} {
				wantAt, wantOK := firstExceedRef(tr, after, maxPrice)
				gotAt, gotOK := store.FirstExceed(ti, after, maxPrice)
				if wantOK != gotOK || (wantOK && !wantAt.Equal(gotAt)) {
					t.Fatalf("%s: FirstExceed(%v, %v) = %v,%v want %v,%v",
						name, after, maxPrice, gotAt, gotOK, wantAt, wantOK)
				}
			}
		}
	}
}

// edgeBids are the bids FirstExceed settles before its threshold search:
// non-finite, zero, negative, and at, under, over and far above the cap.
var edgeBids = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -0.5,
	maxMicro / microPerUSD, math.Nextafter(maxMicro/microPerUSD, 0),
	math.Nextafter(maxMicro/microPerUSD, math.Inf(1)), 1e300,
}

// TestStoreFirstExceedEdgeBids pins FirstExceed to the float scan's answer
// for the edge bids and for bids equal to a record's price and one ulp
// either side, on a trace holding the capped price; then checks the integer
// threshold against its definition over random and grid-adjacent bids.
func TestStoreFirstExceedEdgeBids(t *testing.T) {
	capPrice := maxMicro / microPerUSD
	tr := &Trace{Type: "edge", Records: []Record{
		{At: t0, Price: 0.05},
		{At: t0.Add(10 * time.Minute), Price: 0.123456},
		{At: t0.Add(20 * time.Minute), Price: capPrice},
		{At: t0.Add(30 * time.Minute), Price: 0.2},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	store := NewStore(TraceSet{tr.Type: tr})
	before := t0.Add(-time.Hour)
	for _, tc := range []struct {
		after time.Time
		bid   float64
		want  int // record index, −1 for none
	}{
		{before, math.NaN(), -1},
		{before, math.Inf(1), -1},
		{before, math.Inf(-1), 0},
		{before, 0, 0},
		{before, math.Copysign(0, -1), 0},
		{before, -0.5, 0},
		{before, 0.05, 1},
		{before, math.Nextafter(0.05, 0), 0},
		{before, math.Nextafter(0.05, 1), 1},
		{before, 0.123456, 2},
		{before, capPrice, -1},
		{before, math.Nextafter(capPrice, 0), 2},
		{before, math.Nextafter(capPrice, math.Inf(1)), -1},
		{before, 1e300, -1},
		{t0.Add(20 * time.Minute), 0.1, 3},
		{t0.Add(20 * time.Minute), 0.2, -1},
	} {
		gotAt, gotOK := store.FirstExceed(0, tc.after, tc.bid)
		refAt, refOK := firstExceedRef(tr, tc.after, tc.bid)
		if gotOK != refOK || !gotAt.Equal(refAt) {
			t.Fatalf("FirstExceed(%v, %v) = %v,%v; float scan %v,%v", tc.after, tc.bid, gotAt, gotOK, refAt, refOK)
		}
		if tc.want < 0 && gotOK || tc.want >= 0 && (!gotOK || !gotAt.Equal(tr.Records[tc.want].At)) {
			t.Fatalf("FirstExceed(%v, %v) = %v,%v, want record %d", tc.after, tc.bid, gotAt, gotOK, tc.want)
		}
	}
	rng := rand.New(rand.NewPCG(5, 0xb1d))
	for k := 0; k < 20000; k++ {
		m := 1 + rng.Int64N(maxMicro)
		bid := float64(m) / microPerUSD
		switch k % 4 {
		case 1:
			bid = math.Nextafter(bid, 0)
		case 2:
			bid = math.Nextafter(bid, math.Inf(1))
		case 3:
			bid = rng.Float64() * capPrice
		}
		n, ok := exceedMicro(bid)
		if !ok || !(float64(n)/microPerUSD > bid) || n > 0 && float64(n-1)/microPerUSD > bid {
			t.Fatalf("exceedMicro(%v) = %d,%v: not the least micro-price above the bid", bid, n, ok)
		}
	}
}

// windowIntegral is the store's integral over [from, to).
func windowIntegral(s *Store, ti int, from, to time.Time) i128 {
	tr := &s.traces[ti]
	return s.integralAt(tr, to.UnixNano()).sub(s.integralAt(tr, from.UnixNano()))
}

// TestIntegralAdditive pins the integer contract's additivity: for
// a < b < c anywhere around the trace, before its first record and after
// its last included, the integral over [a, c) is exactly the sum over
// [a, b) and [b, c), on the store and on the Trace walk, and both agree.
func TestIntegralAdditive(t *testing.T) {
	ts := randomTraceSet(3, 3, 397) // 397 records: later traces open mid-block
	store := NewStore(ts)
	rng := rand.New(rand.NewPCG(3, 0xadd))
	for name, tr := range ts {
		ti, _ := store.Lookup(name)
		instants := queryInstants(rng, tr, 100)
		for k := 0; k < 2000; k++ {
			p := []time.Time{
				instants[rng.IntN(len(instants))],
				instants[rng.IntN(len(instants))],
				instants[rng.IntN(len(instants))],
			}
			sort.Slice(p, func(i, j int) bool { return p[i].Before(p[j]) })
			a, b, c := p[0], p[1], p[2]
			if !a.Before(b) || !b.Before(c) {
				continue
			}
			whole := tr.integral(a, c)
			if got := tr.integral(a, b).add(tr.integral(b, c)); got != whole {
				t.Fatalf("%s: Trace integral [%v,%v) = %v, split at %v sums to %v", name, a, c, whole, b, got)
			}
			if got := windowIntegral(store, ti, a, c); got != whole {
				t.Fatalf("%s: Store integral [%v,%v) = %v, Trace walk %v", name, a, c, got, whole)
			}
			if got := windowIntegral(store, ti, a, b).add(windowIntegral(store, ti, b, c)); got != whole {
				t.Fatalf("%s: Store integral [%v,%v) split at %v sums to %v, want %v", name, a, c, b, got, whole)
			}
		}
	}
}

// TestShuffledResumKeepsBits is the integer contract's gate: a window cut
// into random pieces whose integrals are summed in shuffled order has the
// whole window's integral bits, and the quote rebuilt from that sum has
// AvgOver's bits on the Trace and the Store. The same pieces summed as
// floats in the same shuffled orders must disagree with the in-order float
// sum somewhere, so the fixture is known to reorder adds that matter.
func TestShuffledResumKeepsBits(t *testing.T) {
	ts := randomTraceSet(11, 3, 601)
	store := NewStore(ts)
	rng := rand.New(rand.NewPCG(11, 0x5f1e))
	floatMoved := 0
	for name, tr := range ts {
		ti, _ := store.Lookup(name)
		start := tr.Records[0].At
		span := tr.Records[len(tr.Records)-1].At.Sub(start)
		for k := 0; k < 300; k++ {
			from := start.Add(time.Duration(rng.Int64N(int64(span))) - time.Hour)
			to := from.Add(time.Duration(1 + rng.Int64N(int64(span))))
			cuts := []time.Time{from, to}
			for n := rng.IntN(40); n > 0; n-- {
				cuts = append(cuts, from.Add(time.Duration(rng.Int64N(int64(to.Sub(from))))))
			}
			sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
			var pieces []i128
			var floats []float64
			for i := 0; i+1 < len(cuts); i++ {
				if cuts[i].Before(cuts[i+1]) {
					pieces = append(pieces, tr.integral(cuts[i], cuts[i+1]))
					floats = append(floats, quote(pieces[len(pieces)-1], 1))
				}
			}
			inOrder := 0.0
			for _, f := range floats {
				inOrder += f
			}
			perm := rng.Perm(len(pieces))
			var sum i128
			shuffled := 0.0
			for _, i := range perm {
				sum = sum.add(pieces[i])
				shuffled += floats[i]
			}
			if shuffled != inOrder {
				floatMoved++
			}
			whole := tr.integral(from, to)
			if sum != whole {
				t.Fatalf("%s: [%v,%v) in %d shuffled pieces sums to %v, want %v", name, from, to, len(pieces), sum, whole)
			}
			nanos := to.UnixNano() - from.UnixNano()
			for _, q := range []func() (float64, error){
				func() (float64, error) { return tr.AvgOver(from, to) },
				func() (float64, error) { return store.AvgOver(ti, from, to) },
			} {
				avg, err := q()
				if err != nil || math.Float64bits(avg) != math.Float64bits(quote(sum, nanos)) {
					t.Fatalf("%s: AvgOver(%v,%v) = %v,%v; rebuilt quote %v", name, from, to, avg, err, quote(sum, nanos))
				}
			}
		}
	}
	if floatMoved == 0 {
		t.Fatal("no shuffled float re-sum moved a bit: the fixture does not exercise reordering")
	}
}

// storeBytesPerRecord is the packed store's footprint: every flat array
// and per-trace index entry at its capacity, over the number of records.
func storeBytesPerRecord(s *Store) float64 {
	b := cap(s.atNanos)*int(unsafe.Sizeof(int64(0))) +
		cap(s.micro)*int(unsafe.Sizeof(int32(0))) +
		cap(s.integral)*int(unsafe.Sizeof(i128{})) +
		cap(s.blockMax)*int(unsafe.Sizeof(int32(0))) +
		cap(s.buckets)*int(unsafe.Sizeof(int32(0))) +
		cap(s.traces)*int(unsafe.Sizeof(traceIndex{}))
	return float64(b) / float64(len(s.atNanos))
}

// TestStoreFootprint fails when the packed store exceeds 16 B per record on
// a 5-day DefaultSpecs set and the volatile and inversion regimes.
func TestStoreFootprint(t *testing.T) {
	cat := DefaultCatalog()
	to := regFrom.Add(5 * 24 * time.Hour)
	specs, err := DefaultSpecs(cat)
	if err != nil {
		t.Fatal(err)
	}
	sets := map[string]TraceSet{}
	if sets["default"], err = GenerateSet(specs, regFrom, to, 1); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"volatile", "inversion"} {
		if sets[name], err = GenerateRegime(name, cat, regFrom, to, 1); err != nil {
			t.Fatal(err)
		}
	}
	for name, set := range sets {
		if b := storeBytesPerRecord(NewStore(set)); b > 16 {
			t.Errorf("%s: packed store takes %.2f B per record, want at most 16", name, b)
		} else {
			t.Logf("%s: %.2f B per record", name, b)
		}
	}
}

func TestStoreNamesDeterministic(t *testing.T) {
	ts := randomTraceSet(5, 5, 10)
	a, b := NewStore(ts), NewStore(ts)
	if len(a.Names()) != 5 {
		t.Fatalf("Names = %v", a.Names())
	}
	for i, n := range a.Names() {
		if b.Names()[i] != n {
			t.Fatalf("nondeterministic packing order: %v vs %v", a.Names(), b.Names())
		}
		if i > 0 && a.Names()[i-1] >= n {
			t.Fatalf("names not sorted: %v", a.Names())
		}
	}
}
