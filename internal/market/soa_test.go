package market

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

// randomTraceSet builds a seeded multi-trace set that mixes three record
// spacings: long runs of the 1-minute grid the generators emit (the runs
// AvgOver reuses one seconds value across), sub-second gaps, and irregular
// whole-second gaps up to two hours.
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
			tr.Records = append(tr.Records, Record{At: at, Price: price})
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
// bit for bit: the store must run the same floating-point operations in the
// same order, not merely land close.
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
	out := []time.Time{
		tr.Start().Add(-time.Hour),
		tr.Start(),
		tr.Start().Add(time.Nanosecond),
		tr.End().Add(-time.Nanosecond),
		tr.End(),
		tr.End().Add(48 * time.Hour),
	}
	span := tr.End().Sub(tr.Start())
	for i := 0; i < n; i++ {
		if span > 0 { // a one-record trace has no inside
			out = append(out, tr.Start().Add(time.Duration(rng.Int64N(int64(span)))))
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

// TestRandomTraceSetSpacings pins that the fixture really exercises the
// spacings the exact quote path distinguishes: runs of equal 1-minute gaps
// and sub-second gaps, next to irregular ones.
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
