package market

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// cursorWindows are the window lengths the cursor fuzz averages over: the
// trailing hour of Eq. 1 most of the time, and windows short and long
// enough to put the far cursor inside, behind or ahead of the near one's
// record.
var cursorWindows = []time.Duration{time.Hour, time.Hour, time.Hour, time.Nanosecond, time.Minute, 5 * time.Hour}

// spanPoint is an instant in record k's span: the record's own instant a
// quarter of the time, otherwise a random point before the next record (or
// up to two hours past the last one).
func spanPoint(rng *rand.Rand, recs []Record, k int) time.Time {
	if rng.IntN(4) == 0 {
		return recs[k].At
	}
	span := 2 * time.Hour
	if k+1 < len(recs) {
		span = recs[k+1].At.Sub(recs[k].At)
	}
	return recs[k].At.Add(time.Duration(rng.Int64N(int64(span))))
}

// FuzzCursorMatchesStore drives a pair of cursors per trace (the near end
// of a window and its far end, as a cluster's now and hour-ago cursors)
// through a query sequence read from moves: each byte repeats the last
// instant, hops 0 to 20 records forward, nudges forward by a few
// nanoseconds, jumps backward, or lands before the first or after the last
// record. At every instant PriceAtCursor, AvgOverCursors, NextAfterCursor
// and FirstExceedCursor, asked in a random order so each is sometimes the
// one that moves the cursor, must return exactly what the search methods
// return: the same float bits, the same instant and the same ok.
func FuzzCursorMatchesStore(f *testing.F) {
	f.Add(uint64(1), []byte{0xfc, 1, 2, 0x40, 5, 3, 3, 0x7c, 6}, []byte{1, 0, 9, 0x51, 4, 0xa1, 5, 6, 1, 7, 0, 0x29})
	f.Add(uint64(7), []byte{3, 3, 3, 0, 3, 1, 1, 1, 3, 0x0a}, []byte{6, 1, 1, 0, 7, 7, 5, 2, 3})
	f.Add(uint64(42), []byte{0xfc, 0xfc, 0xfc, 0x12, 0xfc}, []byte{0xa1, 0xa1, 0xa1, 0x09, 0x11, 0x19, 0x21, 5, 0xa2, 4, 0xfc})
	f.Fuzz(func(t *testing.T, seed uint64, shape, moves []byte) {
		ts := fuzzTraceSet(seed, shape)
		if err := ts.Validate(); err != nil {
			t.Fatalf("fuzzTraceSet built an invalid set: %v", err)
		}
		if len(moves) > 512 {
			moves = moves[:512]
		}
		store := NewStore(ts)
		rng := rand.New(rand.NewPCG(seed, 0xc0de))
		for _, name := range store.Names() {
			ti, _ := store.Lookup(name)
			recs := ts[name].Records
			near, far := store.NewCursor(ti), store.NewCursor(ti)
			k, at := 0, recs[0].At
			for _, b := range moves {
				switch b & 7 {
				case 0: // ask the same instant again
				case 1, 2, 3:
					k = min(k+int(b>>3)%21, len(recs)-1)
					at = spanPoint(rng, recs, k)
				case 4:
					at = at.Add(time.Duration(b >> 3))
				case 5:
					k = rng.IntN(k + 1)
					at = spanPoint(rng, recs, k)
				case 6:
					k, at = 0, recs[0].At.Add(-time.Duration(1+rng.Int64N(int64(2*time.Hour))))
				default:
					k = len(recs) - 1
					at = recs[k].At.Add(time.Duration(rng.Int64N(int64(48 * time.Hour))))
				}
				from := at.Add(-cursorWindows[rng.IntN(len(cursorWindows))])
				for _, q := range rng.Perm(4) {
					switch q {
					case 0:
						want, wantOK := store.PriceAt(ti, at)
						got, gotOK := store.PriceAtCursor(&near, at.UnixNano())
						if math.Float64bits(got) != math.Float64bits(want) || gotOK != wantOK {
							t.Fatalf("%s: PriceAtCursor(%v) = %v,%v want %v,%v", name, at, got, gotOK, want, wantOK)
						}
					case 1:
						want, wantErr := store.AvgOver(ti, from, at)
						got, gotErr := store.AvgOverCursors(&far, &near, from.UnixNano(), at.UnixNano())
						if math.Float64bits(got) != math.Float64bits(want) || (gotErr == nil) != (wantErr == nil) {
							t.Fatalf("%s: AvgOverCursors(%v, %v) = %x,%v want %x,%v",
								name, from, at, math.Float64bits(got), gotErr, math.Float64bits(want), wantErr)
						}
					case 2:
						want, wantOK := store.NextAfter(ti, at)
						got, gotOK := store.NextAfterCursor(&near, at.UnixNano())
						if !got.Equal(want) || got.Location() != want.Location() || gotOK != wantOK {
							t.Fatalf("%s: NextAfterCursor(%v) = %v,%v want %v,%v", name, at, got, gotOK, want, wantOK)
						}
					default:
						p, _ := store.PriceAt(ti, at)
						r := recs[rng.IntN(len(recs))].Price
						bid := []float64{p, math.Nextafter(p, 0), r, math.Nextafter(r, math.Inf(1)), p * 1.2}[rng.IntN(5)]
						if rng.IntN(8) == 0 {
							bid = edgeBids[rng.IntN(len(edgeBids))]
						}
						want, wantOK := store.FirstExceed(ti, at, bid)
						got, gotOK := store.FirstExceedCursor(&near, at.UnixNano(), bid)
						if !got.Equal(want) || got.Location() != want.Location() || gotOK != wantOK {
							t.Fatalf("%s: FirstExceedCursor(%v, %v) = %v,%v want %v,%v", name, at, bid, got, gotOK, want, wantOK)
						}
					}
				}
			}
		}
	})
}

// TestCursorState pins the cursor's fields after each kind of move: the
// first use, a query inside the span, a walk of blockRecords records, a
// longer jump, a move backward and a query past the last record each leave
// the cursor on the record in force, with that record's span and the
// block-derived integral up to it; a query before the first record leaves
// the cursor where it was.
func TestCursorState(t *testing.T) {
	start := time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)
	tr := &Trace{Type: "a.large"}
	for i := 0; i < 64; i++ {
		tr.Records = append(tr.Records, Record{At: start.Add(time.Duration(i) * time.Minute), Price: onGrid(0.1 + 0.001*float64(i%7))})
	}
	store := NewStore(TraceSet{tr.Type: tr})
	c := store.NewCursor(0)
	minute := func(m float64) int64 { return start.Add(time.Duration(m * float64(time.Minute))).UnixNano() }
	for _, s := range []struct {
		name   string
		at     int64
		record int
	}{
		{"first use", minute(3.5), 3},
		{"inside the span", minute(3.9), 3},
		{"blockRecords records ahead", minute(11.2), 11},
		{"one record further", minute(20.1), 20},
		{"backward", minute(19.5), 19},
		{"past the last record", minute(70), 63},
	} {
		if _, ok := store.PriceAtCursor(&c, s.at); !ok {
			t.Fatalf("%s: ok=false inside the trace", s.name)
		}
		until := int64(math.MaxInt64)
		if s.record+1 < len(tr.Records) {
			until = store.atNanos[s.record+1]
		}
		if int(c.i) != s.record || c.at != store.atNanos[s.record] || c.until != until || c.micro != store.micro[s.record] {
			t.Fatalf("%s: cursor %+v, want record %d", s.name, c, s.record)
		}
		if c.sum != store.integralTo(&store.traces[0], s.record) {
			t.Fatalf("%s: cursor integral differs from the block integral", s.name)
		}
	}
	before := c
	if p, ok := store.PriceAtCursor(&c, start.Add(-time.Minute).UnixNano()); ok || p != tr.Records[0].Price {
		t.Fatalf("before the first record: %v,%v want %v,false", p, ok, tr.Records[0].Price)
	}
	if c != before {
		t.Fatal("a query before the first record moved the cursor")
	}
}
