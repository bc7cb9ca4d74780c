package market

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// storeGridOf packs a single-trace set and returns its lazily built grid.
func storeGridOf(t *testing.T, it InstanceType, tr *Trace, from, to time.Time) *Grid {
	t.Helper()
	g, err := NewStoreGrid(it, NewStore(TraceSet{tr.Type: tr}), from, to)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestInterpolateMinutes pins the one-minute resampling (§IV-A1) both grid
// constructors share: minute i carries the price in force at from + i
// minutes, carried forward between sparse records.
func TestInterpolateMinutes(t *testing.T) {
	tr := mkTrace(1.0, 2.0)
	it := InstanceType{Name: tr.Type}
	fromTrace, err := NewGrid(it, tr, t0, t0.Add(20*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	fromStore := storeGridOf(t, it, tr, t0, t0.Add(20*time.Minute))
	for _, g := range []*Grid{fromTrace, fromStore} {
		if g.Len() != 20 {
			t.Fatalf("interpolated %d minutes, want 20", g.Len())
		}
		for i := 0; i < g.Len(); i++ {
			want := 1.0
			if i >= 10 {
				want = 2.0
			}
			if p := g.Price(i); p != want {
				t.Fatalf("minute %d price = %v, want %v", i, p, want)
			}
			if wantAt := t0.Add(time.Duration(i) * time.Minute); !g.TimeAt(i).Equal(wantAt) {
				t.Fatalf("minute %d at %v, want %v", i, g.TimeAt(i), wantAt)
			}
		}
	}
}

// Property: interpolation preserves PriceAt semantics on grid points, for
// the trace-backed and the store-backed grid alike.
func TestInterpolationConsistencyProperty(t *testing.T) {
	it, _ := DefaultCatalog().Lookup("r4.xlarge")
	tr, err := Generate(MarketSpec{Type: it}, t0, t0.Add(12*time.Hour), 5)
	if err != nil {
		t.Fatal(err)
	}
	fromTrace, err := NewGrid(it, tr, t0, t0.Add(12*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	fromStore := storeGridOf(t, it, tr, t0, t0.Add(12*time.Hour))
	for _, g := range []*Grid{fromTrace, fromStore} {
		for i := 0; i < g.Len(); i++ {
			want, _ := tr.PriceAt(g.TimeAt(i))
			if got := g.Price(i); got != want {
				t.Fatalf("minute %d: interpolated %v, PriceAt %v", i, got, want)
			}
		}
	}
}

// loopMinutes counts the minutes the historical resampling loop visited
// over [from, to).
func loopMinutes(from, to time.Time) int {
	n := 0
	for t := from; t.Before(to); t = t.Add(time.Minute) {
		n++
	}
	return n
}

// assertGridsEqual compares every read a predictor can make of two grids,
// bit for bit: Len, every minute's price and features, the fluctuation
// delta, revocation labels at bids on, under and over the minute's price,
// and MaxLabelIndex.
func assertGridsEqual(t *testing.T, name string, want, got *Grid) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: Len %d, want %d", name, got.Len(), want.Len())
	}
	bits := math.Float64bits
	for i := 0; i < want.Len(); i++ {
		if bits(got.Price(i)) != bits(want.Price(i)) {
			t.Fatalf("%s: minute %d price %v, want %v", name, i, got.Price(i), want.Price(i))
		}
		wf, gf := want.Features(i), got.Features(i)
		for k := range wf {
			if bits(gf[k]) != bits(wf[k]) {
				t.Fatalf("%s: minute %d feature %d = %v, want %v", name, i, k, gf[k], wf[k])
			}
		}
		if i%7 != 0 {
			continue // the per-minute scans below are O(hour); sample them
		}
		if w, g := want.FluctuationDelta(i), got.FluctuationDelta(i); bits(g) != bits(w) {
			t.Fatalf("%s: minute %d FluctuationDelta %v, want %v", name, i, g, w)
		}
		p := want.Price(i)
		for _, bid := range []float64{p, math.Nextafter(p, 0), p * 1.1} {
			if w, g := want.ExceedsWithin(i, bid, 60), got.ExceedsWithin(i, bid, 60); g != w {
				t.Fatalf("%s: minute %d ExceedsWithin(%v) = %v, want %v", name, i, bid, g, w)
			}
		}
	}
	for _, h := range []int{1, 60, 120} {
		if w, g := want.MaxLabelIndex(h), got.MaxLabelIndex(h); g != w {
			t.Fatalf("%s: MaxLabelIndex(%d) = %d, want %d", name, h, g, w)
		}
	}
}

// TestStoreGridMatchesTraceGrid pins the store-backed grid an environment
// builds to the trace-backed one, bit for bit, over the baseline
// personalities and every regime, on spans that are not minute-aligned and
// that start before the traces do.
func TestStoreGridMatchesTraceGrid(t *testing.T) {
	cat := DefaultCatalog()
	specs, err := DefaultSpecs(cat)
	if err != nil {
		t.Fatal(err)
	}
	end := t0.Add(36 * time.Hour)
	sets := map[string]TraceSet{}
	if sets["default"], err = GenerateSet(specs, t0, end, 3); err != nil {
		t.Fatal(err)
	}
	for _, regime := range RegimeNames() {
		if sets[regime], err = GenerateRegime(regime, cat, t0, end, 3); err != nil {
			t.Fatal(err)
		}
	}
	spans := [][2]time.Time{
		{t0, end},
		{t0.Add(17*time.Second + 3*time.Millisecond), end.Add(-41 * time.Second)},
		{t0.Add(-90*time.Second - time.Nanosecond), t0.Add(5*time.Hour + time.Nanosecond)},
	}
	for setName, set := range sets {
		store := NewStore(set)
		for _, name := range cat.Names() {
			it, _ := cat.Lookup(name)
			for _, span := range spans {
				from, to := span[0], span[1]
				want, err := NewGrid(it, set[name], from, to)
				if err != nil {
					t.Fatal(err)
				}
				got, err := NewStoreGrid(it, store, from, to)
				if err != nil {
					t.Fatal(err)
				}
				label := setName + "/" + name
				if n := loopMinutes(from, to); got.Len() != n {
					t.Fatalf("%s: Len %d over [%v, %v), the minute loop visits %d", label, got.Len(), from, to, n)
				}
				assertGridsEqual(t, label, want, got)
			}
		}
	}
}

// TestStoreGridBuildsOnFirstRead pins the laziness: the start-and-count
// reads leave a store-backed grid's arrays unbuilt, and the first feature
// read builds them and drops the source.
func TestStoreGridBuildsOnFirstRead(t *testing.T) {
	tr := mkTrace(1, 2, 3)
	g := storeGridOf(t, InstanceType{Name: tr.Type}, tr, t0, t0.Add(time.Hour))
	if g.Len() != 60 || g.MaxLabelIndex(10) != 49 || !g.TimeAt(3).Equal(t0.Add(3*time.Minute)) {
		t.Fatalf("Len %d, MaxLabelIndex %d, TimeAt(3) %v", g.Len(), g.MaxLabelIndex(10), g.TimeAt(3))
	}
	if i, err := g.Index(t0.Add(90 * time.Second)); err != nil || i != 1 {
		t.Fatalf("Index = %d, %v; want 1", i, err)
	}
	if g.prices != nil {
		t.Fatal("Len, Index, TimeAt or MaxLabelIndex built the arrays")
	}
	if f := g.Features(25); f[0] != 3 || f[2] != 2 {
		t.Fatalf("features %v", f)
	}
	if len(g.prices) != 60 || g.priceAt != nil {
		t.Fatalf("first feature read left %d prices, source kept %v", len(g.prices), g.priceAt != nil)
	}
}

// indexBySub is Grid.Index as first written, through time.Time.Sub, whose
// saturating difference the comparisons with Start and end replace.
func indexBySub(g *Grid, t time.Time) (int, error) {
	d := t.Sub(g.Start)
	if d < 0 {
		return 0, fmt.Errorf("market: time %v before grid start %v", t, g.Start)
	}
	i := int(d / time.Minute)
	if i >= g.minutes {
		return 0, fmt.Errorf("market: time %v beyond grid end", t)
	}
	return i, nil
}

// TestGridIndexMatchesSub pins Index to the Sub-based form, index and error
// message alike, at −1 ns, 0 and +1 ns around the grid start, a minute
// boundary and the grid end, on a whole-minute grid, a grid whose last
// minute is cut short and a grid in +08:00, and at the zero time.Time, an
// instant after 2262 and a +08:00 instant inside a UTC grid.
func TestGridIndexMatchesSub(t *testing.T) {
	tr := mkTrace(1, 2, 3)
	east := time.FixedZone("UTC+8", 8*60*60)
	for _, span := range []struct {
		name     string
		from, to time.Time
	}{
		{"whole minutes", t0, t0.Add(time.Hour)},
		{"ragged last minute", t0, t0.Add(time.Hour + 30*time.Second)},
		{"+08:00", t0.In(east).Add(7 * time.Second), t0.In(east).Add(2 * time.Hour)},
	} {
		g := storeGridOf(t, InstanceType{Name: tr.Type}, tr, span.from, span.to)
		instants := []time.Time{{}, time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), t0.Add(30 * time.Minute).In(east)}
		for _, edge := range []time.Time{g.Start, g.TimeAt(17), g.TimeAt(g.Len() - 1), g.end} {
			instants = append(instants, edge.Add(-time.Nanosecond), edge, edge.Add(time.Nanosecond))
		}
		for _, at := range instants {
			want, wantErr := indexBySub(g, at)
			got, gotErr := g.Index(at)
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: Index(%v) = %d, %v; want %d, %v", span.name, at, got, gotErr, want, wantErr)
			}
		}
	}
}

// TestGridFirstReadConcurrent has 8 goroutines make the first feature read
// of a fresh store-backed grid at once: the arrays are built once and every
// reader sees the same values as an eagerly built grid. CI runs it under
// the race detector.
func TestGridFirstReadConcurrent(t *testing.T) {
	it, _ := DefaultCatalog().Lookup("m4.2xlarge")
	tr, err := Generate(MarketSpec{Type: it}, t0, t0.Add(6*time.Hour), 9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewGrid(it, tr, t0, t0.Add(6*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	g := storeGridOf(t, it, tr, t0, t0.Add(6*time.Hour))
	const readers = 8
	got := make([][][FeatureCount]float64, readers)
	var start, done sync.WaitGroup
	start.Add(1)
	for r := 0; r < readers; r++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			// Each reader starts at a different minute, so the first
			// reads race on different entry points.
			rows := make([][FeatureCount]float64, g.Len())
			for k := 0; k < g.Len(); k++ {
				i := (k + r*g.Len()/readers) % g.Len()
				rows[i] = g.Features(i)
			}
			got[r] = rows
		}()
	}
	start.Done()
	done.Wait()
	for r, rows := range got {
		for i, f := range rows {
			if f != want.Features(i) {
				t.Fatalf("reader %d minute %d: features %v, want %v", r, i, f, want.Features(i))
			}
		}
	}
}

// TestGridConstructorErrors pins the constructors' rejections: an empty or
// inverted span, a span of more than math.MaxInt32 minutes or past the
// longest time.Duration, a store without the grid's type, and
// (trace-backed) a mismatched or invalid trace. The longest span accepted
// keeps its minute count exact.
func TestGridConstructorErrors(t *testing.T) {
	tr := mkTrace(1, 2)
	it := InstanceType{Name: tr.Type}
	store := NewStore(TraceSet{tr.Type: tr})
	if _, err := NewStoreGrid(it, store, t0, t0); err == nil {
		t.Error("store grid over an empty span accepted")
	}
	if _, err := NewGrid(it, tr, t0.Add(time.Minute), t0); err == nil {
		t.Error("trace grid over an inverted span accepted")
	}
	longest := time.Duration(math.MaxInt64 - 1).Truncate(time.Minute)
	for _, to := range []time.Time{t0.AddDate(5000, 0, 0), t0.Add(longest).Add(time.Minute)} {
		if _, err := NewStoreGrid(it, store, t0, to); err == nil || !strings.Contains(err.Error(), "longer than") {
			t.Errorf("store grid from %v to %v: err %v, want a span rejection", t0, to, err)
		}
	}
	g, err := NewStoreGrid(it, store, t0, t0.Add(longest))
	if err != nil {
		t.Fatalf("store grid over the longest whole-minute span: %v", err)
	}
	if got, want := g.Len(), int(longest/time.Minute); got != want || want > math.MaxInt32 {
		t.Errorf("longest grid has %d minutes, want %d (at most math.MaxInt32)", got, want)
	}
	if _, err := NewStoreGrid(InstanceType{Name: "missing"}, store, t0, t0.Add(time.Hour)); err == nil {
		t.Error("store grid for a type the store lacks accepted")
	}
	if _, err := NewGrid(InstanceType{Name: "other"}, tr, t0, t0.Add(time.Hour)); err == nil {
		t.Error("trace grid for a mismatched type accepted")
	}
	bad := mkTrace(1, -2)
	if _, err := NewGrid(it, bad, t0, t0.Add(time.Hour)); err == nil {
		t.Error("trace grid over an invalid trace accepted")
	}
}
