package market

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// fuzzTraceSet builds a trace set from a shape program: each byte b appends
// to the current trace by its low two bits — a 1-minute run of 1+b>>2
// records, one sub-second gap, one gap of 1+b>>2 hours plus random
// nanoseconds — or (b&3 == 3) closes the trace, so consecutive closes make
// one-record traces. Prices random-walk on the micro-dollar grid and
// sometimes repeat, so bids that equal a price test the strict comparison.
// Sets hold at most 8 traces and 4,096 records.
func fuzzTraceSet(seed uint64, shape []byte) TraceSet {
	rng := rand.New(rand.NewPCG(seed, 0xf022))
	at := time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(rng.Int64N(int64(24 * time.Hour))))
	ts := TraceSet{}
	var tr *Trace
	price := 0.1
	total := 0
	add := func(gap time.Duration) {
		if tr == nil {
			tr = &Trace{Type: string(rune('a'+len(ts))) + ".large"}
			ts[tr.Type] = tr
		}
		tr.Records = append(tr.Records, Record{At: at, Price: onGrid(price)})
		total++
		at = at.Add(gap)
		if rng.IntN(4) > 0 {
			price = math.Max(0.01, price*(0.8+rng.Float64()*0.4))
		}
	}
	for _, b := range shape {
		if total >= 4096 || (tr == nil && len(ts) == 8) {
			break
		}
		n := 1 + int(b>>2)
		switch b & 3 {
		case 0:
			for k := 0; k < n && total < 4096; k++ {
				add(time.Minute)
			}
		case 1:
			add(time.Duration(1 + rng.Int64N(int64(time.Second)-1)))
		case 2:
			add(time.Duration(n)*time.Hour + time.Duration(rng.Int64N(int64(time.Hour))))
		default:
			if tr == nil {
				add(time.Minute) // a close right after a close: one record
			}
			tr = nil
			at = at.Add(-time.Duration(rng.Int64N(int64(48 * time.Hour))))
		}
	}
	if len(ts) == 0 {
		add(time.Minute)
	}
	return ts
}

// FuzzStoreMatchesTrace pins the packed store to the Trace reference on
// fuzzed trace sets: PriceAt and AvgOver bit for bit, FirstExceed to the
// linear scan's instant and NextAfter to the first record strictly after
// the query (both in UTC), at instants on, next to and between record
// boundaries and outside the trace, over arbitrary and trailing-hour
// windows, with bids at, just under and just over record prices and the
// edge bids of edgeBids.
func FuzzStoreMatchesTrace(f *testing.F) {
	f.Add(uint64(1), []byte{0xfc, 1, 2, 0x40, 5, 3, 3, 0x7c, 6})
	f.Add(uint64(7), []byte{3, 3, 3, 0, 3, 1, 1, 1, 3, 0x0a})
	f.Add(uint64(42), []byte{0xfc, 0xfc, 0xfc, 0xfc, 0xfc, 0xfc, 0x12, 0xfc, 0xfc, 0xfc})
	f.Fuzz(func(t *testing.T, seed uint64, shape []byte) {
		ts := fuzzTraceSet(seed, shape)
		if err := ts.Validate(); err != nil {
			t.Fatalf("fuzzTraceSet built an invalid set: %v", err)
		}
		store := NewStore(ts)
		rng := rand.New(rand.NewPCG(seed, 0x9e77))
		for name, tr := range ts {
			ti, ok := store.Lookup(name)
			if !ok {
				t.Fatalf("store missing trace %q", name)
			}
			instants := queryInstants(rng, tr, 24)
			for _, at := range instants {
				wantP, wantOK := tr.PriceAt(at)
				gotP, gotOK := store.PriceAt(ti, at)
				if math.Float64bits(wantP) != math.Float64bits(gotP) || wantOK != gotOK {
					t.Fatalf("%s: PriceAt(%v) = %v,%v want %v,%v", name, at, gotP, gotOK, wantP, wantOK)
				}
				assertAvgOverBits(t, store, ti, tr, at.Add(-time.Hour), at)
				wantNext, wantOK := nextAfterRef(tr, at)
				gotNext, gotOK := store.NextAfter(ti, at)
				if wantOK != gotOK || !wantNext.Equal(gotNext) || (gotOK && gotNext.Location() != time.UTC) {
					t.Fatalf("%s: NextAfter(%v) = %v,%v want %v,%v in UTC", name, at, gotNext, gotOK, wantNext, wantOK)
				}
				r := tr.Records[rng.IntN(len(tr.Records))]
				bids := append([]float64{r.Price, math.Nextafter(r.Price, 0), math.Nextafter(r.Price, math.Inf(1))}, edgeBids...)
				for _, bid := range bids {
					wantAt, wantOK := firstExceedRef(tr, at, bid)
					gotAt, gotOK := store.FirstExceed(ti, at, bid)
					if wantOK != gotOK || !wantAt.Equal(gotAt) {
						t.Fatalf("%s: FirstExceed(%v, %v) = %v,%v want %v,%v",
							name, at, bid, gotAt, gotOK, wantAt, wantOK)
					}
				}
			}
			for i := 0; i+1 < len(instants); i++ {
				from, to := instants[i], instants[rng.IntN(len(instants))]
				if to.Before(from) {
					from, to = to, from
				}
				if from.Before(to) {
					assertAvgOverBits(t, store, ti, tr, from, to)
				}
			}
		}
	})
}
