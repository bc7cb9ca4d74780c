package market

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var (
	t0 = time.Date(2017, 4, 26, 0, 0, 0, 0, time.UTC) // Wednesday
)

func TestDefaultCatalogMatchesTableIII(t *testing.T) {
	c := DefaultCatalog()
	if c.Len() != 6 {
		t.Fatalf("catalog has %d types, want 6", c.Len())
	}
	tests := []struct {
		name  string
		cpus  int
		mem   float64
		price float64
	}{
		{"r4.large", 2, 15.25, 0.133},
		{"r3.xlarge", 4, 30, 0.33},
		{"r4.xlarge", 4, 30.5, 0.266},
		{"m4.2xlarge", 8, 32, 0.4},
		{"r4.2xlarge", 8, 61, 0.532},
		{"m4.4xlarge", 16, 64, 0.8},
	}
	for _, tt := range tests {
		it, ok := c.Lookup(tt.name)
		if !ok {
			t.Errorf("Lookup(%q) missing", tt.name)
			continue
		}
		if it.CPUs != tt.cpus || it.MemoryGB != tt.mem || it.OnDemandPrice != tt.price {
			t.Errorf("%s = %+v, want cpus=%d mem=%v price=%v", tt.name, it, tt.cpus, tt.mem, tt.price)
		}
	}
}

func TestCatalogErrors(t *testing.T) {
	if _, err := NewCatalog([]InstanceType{{Name: "", CPUs: 1, MemoryGB: 1, OnDemandPrice: 1}}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewCatalog([]InstanceType{{Name: "a", CPUs: 0, MemoryGB: 1, OnDemandPrice: 1}}); err == nil {
		t.Error("zero CPUs accepted")
	}
	// Regression: MemoryGB used to be the one shape field NewCatalog never
	// validated — a zero- or negative-memory type slipped straight into the
	// catalog and made every memory-based compatibility query vacuous.
	if _, err := NewCatalog([]InstanceType{{Name: "a", CPUs: 1, OnDemandPrice: 1}}); err == nil {
		t.Error("zero MemoryGB accepted")
	}
	if _, err := NewCatalog([]InstanceType{{Name: "a", CPUs: 1, MemoryGB: -4, OnDemandPrice: 1}}); err == nil {
		t.Error("negative MemoryGB accepted")
	}
	if _, err := NewCatalog([]InstanceType{{Name: "a", CPUs: 1, MemoryGB: math.NaN(), OnDemandPrice: 1}}); err == nil {
		t.Error("NaN MemoryGB accepted")
	}
	if _, err := NewCatalog([]InstanceType{{Name: "a", CPUs: 1, MemoryGB: 1, OnDemandPrice: 1, PerfFactor: -1}}); err == nil {
		t.Error("negative PerfFactor accepted")
	}
	if _, err := NewCatalog([]InstanceType{{Name: "a", CPUs: 1, MemoryGB: 1, OnDemandPrice: 1, Capacity: -2}}); err == nil {
		t.Error("negative Capacity accepted")
	}
	dup := []InstanceType{
		{Name: "a", CPUs: 1, MemoryGB: 1, OnDemandPrice: 1},
		{Name: "a", CPUs: 2, MemoryGB: 2, OnDemandPrice: 2},
	}
	if _, err := NewCatalog(dup); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestCatalogMetadataNormalization(t *testing.T) {
	c := MustNewCatalog([]InstanceType{
		{Name: "c5.xlarge", CPUs: 4, MemoryGB: 8, OnDemandPrice: 0.17},
		{Name: "bare", CPUs: 2, MemoryGB: 4, OnDemandPrice: 0.1, Family: "x", AZ: "zone-q", PerfFactor: 1.5},
	})
	it, _ := c.Lookup("c5.xlarge")
	if it.Family != "c5" || it.AZ != DefaultAZ || it.PerfFactor != 1 {
		t.Errorf("normalized metadata = %+v, want family c5, AZ %s, perf 1", it, DefaultAZ)
	}
	it, _ = c.Lookup("bare")
	if it.Family != "x" || it.AZ != "zone-q" || it.PerfFactor != 1.5 {
		t.Errorf("explicit metadata rewritten: %+v", it)
	}
	if got := c.Families(); len(got) != 2 || got[0] != "c5" || got[1] != "x" {
		t.Errorf("Families() = %v, want [c5 x]", got)
	}
}

func TestCompatibilityPredicate(t *testing.T) {
	c := DefaultCatalog()
	// r4.xlarge (4 CPU / 30.5 GB) is covered by itself and everything
	// bigger; r4.large has too few cores and r3.xlarge slightly less
	// memory (30 < 30.5).
	got, err := c.CompatibleWith("r4.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"m4.2xlarge", "m4.4xlarge", "r4.2xlarge", "r4.xlarge"}
	if len(got) != len(want) {
		t.Fatalf("CompatibleWith(r4.xlarge) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CompatibleWith(r4.xlarge) = %v, want %v (sorted)", got, want)
		}
	}
	if _, err := c.CompatibleWith("nope"); err == nil {
		t.Error("unknown base type accepted")
	}
	// The smallest type is compatible with everything; every type is at
	// least as powerful as itself.
	all, err := c.CompatibleWith("r4.large")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != c.Len() {
		t.Errorf("CompatibleWith(r4.large) = %v, want whole catalog", all)
	}
	for _, it := range c.Types() {
		if !it.AtLeastAsPowerful(it) {
			t.Errorf("%s not AtLeastAsPowerful(itself)", it.Name)
		}
	}
	// PerfFactor weighs in: same shape, slower cores → not a valid
	// replacement for the faster one.
	fast := InstanceType{Name: "f.2x", CPUs: 8, MemoryGB: 32, OnDemandPrice: 0.4, PerfFactor: 1.25}
	slow := InstanceType{Name: "s.2x", CPUs: 8, MemoryGB: 32, OnDemandPrice: 0.3, PerfFactor: 1}
	if slow.AtLeastAsPowerful(fast) {
		t.Error("slower-core type accepted as replacement for faster one")
	}
	if !fast.AtLeastAsPowerful(slow) {
		t.Error("faster-core type rejected as replacement for slower one")
	}
}

func TestCatalogNamesSorted(t *testing.T) {
	c := DefaultCatalog()
	names := c.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

// TestCatalogIndexScanMatchesMap pins Index's scan against the name map:
// every catalog size resolves each of its names, given as the catalog's own
// string or as a copy with bytes of its own, to its construction index, as
// the map does, and misses names it does not hold.
func TestCatalogIndexScanMatchesMap(t *testing.T) {
	for n := 1; n <= 16; n++ {
		types := make([]InstanceType, n)
		for i := range types {
			types[i] = InstanceType{Name: fmt.Sprintf("t%d.x%dlarge", i%3, i), CPUs: 1 + i, MemoryGB: 1, OnDemandPrice: 0.1}
		}
		c := MustNewCatalog(types)
		for i, it := range types {
			for _, name := range []string{it.Name, strings.Clone(it.Name)} {
				got, ok := c.Index(name)
				want, wantOK := c.byKey[name]
				if got != i || !ok || got != want || ok != wantOK {
					t.Fatalf("size %d: Index(%q) = %d, %v; want %d, true", n, name, got, ok, i)
				}
			}
		}
		for _, name := range []string{"", "t0", "t0.x0large ", "T0.x0large", "m4.4xlarge"} {
			if got, ok := c.Index(name); ok || got != 0 {
				t.Fatalf("size %d: Index(%q) = %d, %v; want a miss", n, name, got, ok)
			}
		}
	}
}

func mkTrace(prices ...float64) *Trace {
	tr := &Trace{Type: "test"}
	for i, p := range prices {
		tr.Records = append(tr.Records, Record{At: t0.Add(time.Duration(i) * 10 * time.Minute), Price: p})
	}
	return tr
}

func TestTraceValidate(t *testing.T) {
	good := mkTrace(1, 2, 3)
	if err := good.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	if err := (&Trace{}).Validate(); err == nil {
		t.Error("empty trace accepted")
	}
	bad := mkTrace(1, -2)
	if err := bad.Validate(); err == nil {
		t.Error("negative price accepted")
	}
	outOfOrder := &Trace{Type: "x", Records: []Record{
		{At: t0.Add(time.Hour), Price: 1},
		{At: t0, Price: 2},
	}}
	if err := outOfOrder.Validate(); err == nil {
		t.Error("out-of-order records accepted")
	}
}

// TestTraceValidatePriceGrid pins the store's input contract: prices are
// whole micro-dollars per hour up to the int32 cap, and a rejection names
// the record.
func TestTraceValidatePriceGrid(t *testing.T) {
	for _, tc := range []struct {
		price float64
		want  string // "" accepts
	}{
		{0.123456, ""},
		{0.000001, ""},
		{2147.483647, ""},
		{0.1234567, "record 2 price 0.1234567 is not a whole number of micro-dollars"},
		{1.0 / 3, "record 2 price 0.3333333333333333 is not a whole number of micro-dollars"},
		{2147.483648, "record 2 price 2147.483648 is above the $2147.483647/h cap"},
		{1e300, "record 2 price 1e+300 is above the $2147.483647/h cap"},
	} {
		err := mkTrace(1, 2, tc.price).Validate()
		if tc.want == "" && err != nil {
			t.Errorf("price %v rejected: %v", tc.price, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("price %v: error %v, want %q", tc.price, err, tc.want)
		}
	}
}

func TestPriceAtStepFunction(t *testing.T) {
	tr := mkTrace(1.0, 2.0, 3.0) // changes at 0, 10, 20 min
	tests := []struct {
		at   time.Duration
		want float64
		ok   bool
	}{
		{-time.Minute, 1.0, false}, // before first record: extrapolate
		{0, 1.0, true},
		{5 * time.Minute, 1.0, true},
		{10 * time.Minute, 2.0, true},
		{15 * time.Minute, 2.0, true},
		{25 * time.Minute, 3.0, true},
		{24 * time.Hour, 3.0, true},
	}
	for _, tt := range tests {
		got, ok := tr.PriceAt(t0.Add(tt.at))
		if got != tt.want || ok != tt.ok {
			t.Errorf("PriceAt(+%v) = %v,%v want %v,%v", tt.at, got, ok, tt.want, tt.ok)
		}
	}
}

func TestAvgOverTimeWeighted(t *testing.T) {
	tr := mkTrace(1.0, 2.0) // 1.0 for first 10 min, then 2.0
	// Average over [0, 20m): 10 min at 1.0 + 10 min at 2.0 = 1.5.
	got, err := tr.AvgOver(t0, t0.Add(20*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.5) > 1e-12 {
		t.Errorf("AvgOver = %v, want 1.5", got)
	}
	// Window entirely in one plateau.
	got, err = tr.AvgOver(t0.Add(2*time.Minute), t0.Add(4*time.Minute))
	if err != nil || got != 1.0 {
		t.Errorf("AvgOver plateau = %v, %v", got, err)
	}
	if _, err := tr.AvgOver(t0, t0); err == nil {
		t.Error("empty window accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	it, _ := DefaultCatalog().Lookup("r3.xlarge")
	spec := MarketSpec{Type: it}
	a, err := Generate(spec, t0, t0.Add(24*time.Hour), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, t0, t0.Add(24*time.Hour), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("same seed produced %d vs %d records", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("same seed diverged at record %d", i)
		}
	}
	c, err := Generate(spec, t0, t0.Add(24*time.Hour), 43)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Records) == len(c.Records)
	if same {
		for i := range a.Records {
			if a.Records[i] != c.Records[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateValidAndPlausible(t *testing.T) {
	specs, err := DefaultSpecs(DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	set, err := GenerateSet(specs, t0, t0.Add(11*24*time.Hour), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 6 {
		t.Fatalf("generated %d markets, want 6", len(set))
	}
	for name, tr := range set {
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		it, _ := DefaultCatalog().Lookup(name)
		avg, err := tr.AvgOver(t0, t0.Add(11*24*time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		// Discounted most of the time: average well below on-demand.
		if avg >= it.OnDemandPrice {
			t.Errorf("%s: average spot price %v >= on-demand %v", name, avg, it.OnDemandPrice)
		}
		if avg < 0.05*it.OnDemandPrice {
			t.Errorf("%s: average spot price %v implausibly low", name, avg)
		}
		// Sparse: far fewer records than minutes.
		if len(tr.Records) >= 11*24*60 {
			t.Errorf("%s: trace not sparse (%d records)", name, len(tr.Records))
		}
		if len(tr.Records) < 50 {
			t.Errorf("%s: trace implausibly static (%d records)", name, len(tr.Records))
		}
	}
	// The spiky market (r3.xlarge, Fig. 1) should exceed on-demand at peak.
	r3 := set["r3.xlarge"]
	it, _ := DefaultCatalog().Lookup("r3.xlarge")
	peak := 0.0
	for _, r := range r3.Records {
		peak = max(peak, r.Price)
	}
	if peak <= it.OnDemandPrice {
		t.Errorf("r3.xlarge max %v never exceeded on-demand %v (Fig. 1 shape)", peak, it.OnDemandPrice)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(MarketSpec{}, t0, t0.Add(time.Hour), 1); err == nil {
		t.Error("Generate without instance type accepted")
	}
	it, _ := DefaultCatalog().Lookup("r4.large")
	if _, err := Generate(MarketSpec{Type: it}, t0, t0, 1); err == nil {
		t.Error("Generate with empty window accepted")
	}
}

func newTestGrid(t *testing.T, hours int, seed uint64) *Grid {
	t.Helper()
	it, _ := DefaultCatalog().Lookup("m4.2xlarge")
	tr, err := Generate(MarketSpec{Type: it}, t0, t0.Add(time.Duration(hours)*time.Hour), seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrid(it, tr, t0, t0.Add(time.Duration(hours)*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGridIndexing(t *testing.T) {
	g := newTestGrid(t, 2, 7)
	if g.Len() != 120 {
		t.Fatalf("grid Len = %d, want 120", g.Len())
	}
	i, ok := g.Index(t0.Add(61*time.Minute + 30*time.Second))
	if !ok || i != 61 {
		t.Errorf("Index = %d, %v; want 61", i, ok)
	}
	if !g.TimeAt(61).Equal(t0.Add(61 * time.Minute)) {
		t.Error("TimeAt mismatch")
	}
	if _, ok := g.Index(t0.Add(-time.Minute)); ok {
		t.Error("Index before start accepted")
	}
	if _, ok := g.Index(t0.Add(3 * time.Hour)); ok {
		t.Error("Index past end accepted")
	}
}

func TestGridFeaturesHandComputed(t *testing.T) {
	// Hand-built trace: price 1.0 at t0, 2.0 at +5min, 1.5 at +8min.
	tr := &Trace{Type: "m4.2xlarge", Records: []Record{
		{At: t0, Price: 1.0},
		{At: t0.Add(5 * time.Minute), Price: 2.0},
		{At: t0.Add(8 * time.Minute), Price: 1.5},
	}}
	it, _ := DefaultCatalog().Lookup("m4.2xlarge")
	g, err := NewGrid(it, tr, t0, t0.Add(20*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	f := g.Features(10)
	if f[0] != 1.5 {
		t.Errorf("feature current price = %v, want 1.5", f[0])
	}
	// Minutes 0..10: prices 1,1,1,1,1,2,2,2,1.5,1.5,1.5 -> avg = (5*1+3*2+3*1.5)/11
	wantAvg := (5*1.0 + 3*2.0 + 3*1.5) / 11
	if math.Abs(f[1]-wantAvg) > 1e-12 {
		t.Errorf("feature avg = %v, want %v", f[1], wantAvg)
	}
	if f[2] != 2 { // two changes: at minute 5 and minute 8
		t.Errorf("feature #changes = %v, want 2", f[2])
	}
	if f[3] != 2 { // current price set at minute 8, now minute 10
		t.Errorf("feature sinceSet = %v, want 2", f[3])
	}
	if f[4] != 1 { // 2017-04-26 is a Wednesday
		t.Errorf("feature workday = %v, want 1", f[4])
	}
	if f[5] != 0 { // midnight hour
		t.Errorf("feature hour = %v, want 0", f[5])
	}
}

func TestGridWeekendFlag(t *testing.T) {
	sat := time.Date(2017, 4, 29, 12, 0, 0, 0, time.UTC) // Saturday
	tr := &Trace{Type: "m4.2xlarge", Records: []Record{{At: sat, Price: 1}}}
	it, _ := DefaultCatalog().Lookup("m4.2xlarge")
	g, err := NewGrid(it, tr, sat, sat.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	f := g.Features(0)
	if f[4] != 0 {
		t.Errorf("Saturday workday flag = %v, want 0", f[4])
	}
	if f[5] != 12 {
		t.Errorf("hour feature = %v, want 12", f[5])
	}
}

func TestFluctuationDeltaAlgorithm2(t *testing.T) {
	// Constant price -> delta 0.
	tr := &Trace{Type: "m4.2xlarge", Records: []Record{{At: t0, Price: 1}}}
	it, _ := DefaultCatalog().Lookup("m4.2xlarge")
	g, err := NewGrid(it, tr, t0, t0.Add(2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if d := g.FluctuationDelta(90); d != 0 {
		t.Errorf("FluctuationDelta on flat trace = %v, want 0", d)
	}
	// Alternating price: all |diffs| equal 0.5 -> trimmed mean 0.5.
	rec := []Record{}
	for i := 0; i < 120; i++ {
		p := 1.0
		if i%2 == 1 {
			p = 1.5
		}
		rec = append(rec, Record{At: t0.Add(time.Duration(i) * time.Minute), Price: p})
	}
	tr2 := &Trace{Type: "m4.2xlarge", Records: rec}
	g2, err := NewGrid(it, tr2, t0, t0.Add(2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if d := g2.FluctuationDelta(100); math.Abs(d-0.5) > 1e-9 {
		t.Errorf("FluctuationDelta alternating = %v, want 0.5", d)
	}
}

func TestExceedsWithin(t *testing.T) {
	tr := &Trace{Type: "m4.2xlarge", Records: []Record{
		{At: t0, Price: 1.0},
		{At: t0.Add(30 * time.Minute), Price: 3.0},
		{At: t0.Add(40 * time.Minute), Price: 1.0},
	}}
	it, _ := DefaultCatalog().Lookup("m4.2xlarge")
	g, err := NewGrid(it, tr, t0, t0.Add(2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !g.ExceedsWithin(0, 2.0, 60) {
		t.Error("spike within horizon not detected")
	}
	if g.ExceedsWithin(0, 3.5, 60) {
		t.Error("max price above spike flagged as exceeded")
	}
	if g.ExceedsWithin(45, 2.0, 60) {
		t.Error("past spike flagged for future window")
	}
	if g.MaxLabelIndex(60) != g.Len()-61 {
		t.Errorf("MaxLabelIndex = %d", g.MaxLabelIndex(60))
	}
}

// Property: grid features are finite and within plausible ranges.
func TestGridFeatureRangeProperty(t *testing.T) {
	g := newTestGrid(t, 26, 99)
	f := func(rawIdx uint16) bool {
		i := int(rawIdx) % g.Len()
		feats := g.Features(i)
		if feats[0] <= 0 || math.IsNaN(feats[0]) {
			return false
		}
		if feats[1] <= 0 || feats[2] < 0 || feats[2] > 60 {
			return false
		}
		if feats[3] < 0 || feats[3] > float64(i) {
			return false
		}
		if feats[4] != 0 && feats[4] != 1 {
			return false
		}
		return feats[5] >= 0 && feats[5] <= 23
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTraceSetValidate(t *testing.T) {
	ts := TraceSet{"a": mkTrace(1)}
	if err := ts.Validate(); err == nil {
		t.Error("mismatched key/type accepted")
	}
	tr := mkTrace(1)
	tr.Type = "a"
	ts2 := TraceSet{"a": tr}
	if err := ts2.Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
}
