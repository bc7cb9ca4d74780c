package market

import (
	"bytes"
	"testing"
	"time"
)

var (
	regFrom = time.Date(2017, 4, 26, 0, 0, 0, 0, time.UTC)
	regTo   = regFrom.Add(4 * 24 * time.Hour)
)

// TestEveryRegimeGeneratesValidDeterministicTraces also pins that every
// regime emits prices the packed store holds exactly (Validate's
// micro-dollar grid), at two seeds.
func TestEveryRegimeGeneratesValidDeterministicTraces(t *testing.T) {
	cat := DefaultCatalog()
	for _, seed := range []uint64{1, 7} {
		for _, name := range RegimeNames() {
			set1, err := GenerateRegime(name, cat, regFrom, regTo, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if err := set1.Validate(); err != nil {
				t.Fatalf("%s seed %d: invalid traces: %v", name, seed, err)
			}
			if len(set1) != cat.Len() {
				t.Fatalf("%s: %d traces, want %d", name, len(set1), cat.Len())
			}
			// Bit-identical regeneration under the same seed.
			set2, err := GenerateRegime(name, cat, regFrom, regTo, seed)
			if err != nil {
				t.Fatal(err)
			}
			var b1, b2 bytes.Buffer
			if err := WriteSetCSV(&b1, set1); err != nil {
				t.Fatal(err)
			}
			if err := WriteSetCSV(&b2, set2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
				t.Errorf("%s: same seed produced different traces", name)
			}
		}
	}
	if _, err := GenerateRegime("nope", cat, regFrom, regTo, 7); err == nil {
		t.Error("unknown regime accepted")
	}
	// Empty name aliases baseline.
	base, err := GenerateRegime("", cat, regFrom, regTo, 7)
	if err != nil {
		t.Fatal(err)
	}
	def, err := GenerateRegime("baseline", cat, regFrom, regTo, 7)
	if err != nil {
		t.Fatal(err)
	}
	var bb, db bytes.Buffer
	if err := WriteSetCSV(&bb, base); err != nil {
		t.Fatal(err)
	}
	if err := WriteSetCSV(&db, def); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bb.Bytes(), db.Bytes()) {
		t.Error("empty regime name does not alias baseline")
	}
}

// avgPrice is the time-weighted mean over the whole window.
func avgPrice(t *testing.T, tr *Trace) float64 {
	t.Helper()
	avg, err := tr.AvgOver(regFrom, regTo)
	if err != nil {
		t.Fatal(err)
	}
	return avg
}

func TestCalmIsCheaperAndSmootherThanVolatile(t *testing.T) {
	cat := DefaultCatalog()
	calm, err := GenerateRegime("calm", cat, regFrom, regTo, 3)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := GenerateRegime("volatile", cat, regFrom, regTo, 3)
	if err != nil {
		t.Fatal(err)
	}
	cheaper, denser := 0, 0
	for _, name := range cat.Names() {
		if avgPrice(t, calm[name]) < avgPrice(t, vol[name]) {
			cheaper++
		}
		if len(calm[name].Records) < len(vol[name].Records) {
			denser++
		}
	}
	// Per-market noise can flip one member; the regime-level ordering must
	// hold for the bulk of the region.
	if cheaper < cat.Len()-1 {
		t.Errorf("calm cheaper than volatile in only %d/%d markets", cheaper, cat.Len())
	}
	if denser < cat.Len()-1 {
		t.Errorf("calm sparser than volatile in only %d/%d markets", denser, cat.Len())
	}
}

func TestFlashCrashSpikesAreCorrelatedAcrossMarkets(t *testing.T) {
	cat := DefaultCatalog()
	set, err := GenerateRegime("flash-crash", cat, regFrom, regTo, 5)
	if err != nil {
		t.Fatal(err)
	}
	// At some instant, EVERY market must simultaneously exceed 3x its own
	// whole-window average — the correlated detonation. Scan minute grid.
	avgs := map[string]float64{}
	for _, name := range cat.Names() {
		avgs[name] = avgPrice(t, set[name])
	}
	found := false
	for ts := regFrom; ts.Before(regTo); ts = ts.Add(time.Minute) {
		all := true
		for _, name := range cat.Names() {
			p, _ := set[name].PriceAt(ts)
			if p < 3*avgs[name] {
				all = false
				break
			}
		}
		if all {
			found = true
			break
		}
	}
	if !found {
		t.Error("no instant where every market detonates together")
	}
}

func TestInversionWindowPinsSpotAboveOnDemand(t *testing.T) {
	cat := DefaultCatalog()
	seed := uint64(11)
	set, err := GenerateRegime("inversion", cat, regFrom, regTo, seed)
	if err != nil {
		t.Fatal(err)
	}
	start, end := InversionWindow(regFrom, regTo, seed)
	if !start.After(regFrom) || !end.Before(regTo) {
		t.Fatalf("window [%v, %v) outside generation span", start, end)
	}
	for _, it := range cat.Types() {
		tr := set[it.Name]
		// Inside the window: price >= 1.15x on-demand at every probe.
		for ts := start; ts.Before(end); ts = ts.Add(17 * time.Minute) {
			p, _ := tr.PriceAt(ts)
			if p < 1.15*it.OnDemandPrice-1e-9 {
				t.Fatalf("%s at %v: price %v below inverted floor %v", it.Name, ts, p, 1.15*it.OnDemandPrice)
			}
		}
		// Just before the window the market is calm — typically far below
		// on-demand (allow spikes: only require it is below the floor at
		// the probe OR the window edge actually changed the price).
		pBefore, _ := tr.PriceAt(start.Add(-time.Minute))
		pAfter, _ := tr.PriceAt(end.Add(time.Minute))
		if pBefore >= 1.15*it.OnDemandPrice && pAfter >= 1.15*it.OnDemandPrice {
			t.Errorf("%s: prices around the window (%v, %v) look inverted too — window not localized", it.Name, pBefore, pAfter)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s after inversion rewrite: %v", it.Name, err)
		}
	}
}

// TestInversionWindowLandsInsideCampaignSplit: for every seed, the window
// must sit entirely on the campaign side of the standard train/test splits
// (14/8 full fidelity, 5/2 quick) — an inversion confined to the
// predictor-training days would leave the campaign stress-free.
func TestInversionWindowLandsInsideCampaignSplit(t *testing.T) {
	cases := []struct {
		days, trainDays int
	}{{14, 8}, {5, 2}}
	for _, tc := range cases {
		from := regFrom
		to := from.Add(time.Duration(tc.days) * 24 * time.Hour)
		split := from.Add(time.Duration(tc.trainDays) * 24 * time.Hour)
		for seed := uint64(1); seed <= 60; seed++ {
			start, end := InversionWindow(from, to, seed)
			if start.Before(split) {
				t.Fatalf("%d/%d split, seed %d: window starts %v before campaign start %v",
					tc.days, tc.trainDays, seed, start, split)
			}
			if end.After(to) {
				t.Fatalf("%d/%d split, seed %d: window ends %v after trace end %v",
					tc.days, tc.trainDays, seed, end, to)
			}
		}
	}
}

func TestCrunchElevatesWholeRegion(t *testing.T) {
	cat := DefaultCatalog()
	base, err := GenerateRegime("baseline", cat, regFrom, regTo, 9)
	if err != nil {
		t.Fatal(err)
	}
	crunch, err := GenerateRegime("crunch", cat, regFrom, regTo, 9)
	if err != nil {
		t.Fatal(err)
	}
	higher := 0
	for _, name := range cat.Names() {
		if avgPrice(t, crunch[name]) > avgPrice(t, base[name]) {
			higher++
		}
	}
	if higher < cat.Len()-1 {
		t.Errorf("crunch pricier than baseline in only %d/%d markets", higher, cat.Len())
	}
}

func TestGenerateSetSharedValidation(t *testing.T) {
	cat := DefaultCatalog()
	specs, err := DefaultSpecs(cat)
	if err != nil {
		t.Fatal(err)
	}
	bad := []SharedSpike{{At: regTo.Add(time.Hour), Attack: time.Minute, HalfLife: time.Minute, Amplitude: 2}}
	if _, err := GenerateSetShared(specs, regFrom, regTo, 1, bad); err == nil {
		t.Error("out-of-window shared spike accepted")
	}
	zero := []SharedSpike{{At: regFrom.Add(time.Hour), Amplitude: 2}}
	if _, err := GenerateSetShared(specs, regFrom, regTo, 1, zero); err == nil {
		t.Error("zero-duration shared spike accepted")
	}
	typo := []SharedSpike{{At: regFrom.Add(time.Hour), Attack: time.Minute, HalfLife: time.Minute, Amplitude: 2, Family: "z9"}}
	if _, err := GenerateSetShared(specs, regFrom, regTo, 1, typo); err == nil {
		t.Error("spike scoped to a family no market belongs to accepted")
	}
}

// TestFamilyScopedSpikeLeavesOtherFamiliesUntouched pins the scoping
// contract: a family-scoped shared spike reshapes every market of its family
// and leaves every other market's trace bit-identical — the filter consumes
// no randomness, so scoped events cannot perturb unrelated price streams.
func TestFamilyScopedSpikeLeavesOtherFamiliesUntouched(t *testing.T) {
	cat := DefaultCatalog()
	specs, err := DefaultSpecs(cat)
	if err != nil {
		t.Fatal(err)
	}
	ev := []SharedSpike{{
		At: regFrom.Add(26 * time.Hour), Attack: 2 * time.Minute,
		HalfLife: 20 * time.Minute, Amplitude: 8, Family: "r4",
	}}
	with, err := GenerateSetShared(specs, regFrom, regTo, 21, ev)
	if err != nil {
		t.Fatal(err)
	}
	without, err := GenerateSet(specs, regFrom, regTo, 21)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b *Trace) bool {
		if len(a.Records) != len(b.Records) {
			return false
		}
		for i := range a.Records {
			if !a.Records[i].At.Equal(b.Records[i].At) || a.Records[i].Price != b.Records[i].Price {
				return false
			}
		}
		return true
	}
	for _, it := range cat.Types() {
		eq := same(with[it.Name], without[it.Name])
		if it.Family == "r4" && eq {
			t.Errorf("%s: family-scoped spike had no effect on its own family", it.Name)
		}
		if it.Family != "r4" && !eq {
			t.Errorf("%s (family %s): spike scoped to r4 perturbed another family's stream", it.Name, it.Family)
		}
	}
}

// TestFamilyCrunchCrashesFamiliesTogetherNotRegionWide: inside the
// family-crunch regime each family must have an instant where every one of
// its markets simultaneously trades far above its own average (the
// correlated within-family crash), while no instant may see the entire
// region crash at once — the slots are staggered, which is what makes
// cross-family diversification escape the crunch.
func TestFamilyCrunchCrashesFamiliesTogetherNotRegionWide(t *testing.T) {
	cat := DefaultCatalog()
	set, err := GenerateRegime("family-crunch", cat, regFrom, regTo, 7)
	if err != nil {
		t.Fatal(err)
	}
	avgs := map[string]float64{}
	for _, name := range cat.Names() {
		avgs[name] = avgPrice(t, set[name])
	}
	members := map[string][]string{}
	for _, it := range cat.Types() {
		members[it.Family] = append(members[it.Family], it.Name)
	}
	crashed := func(ts time.Time, names []string) bool {
		for _, name := range names {
			p, _ := set[name].PriceAt(ts)
			if p < 3*avgs[name] {
				return false
			}
		}
		return true
	}
	crashedFams := map[string]bool{}
	for ts := regFrom; ts.Before(regTo); ts = ts.Add(time.Minute) {
		if crashed(ts, cat.Names()) {
			t.Fatalf("whole region crashed together at %v — family slots not staggered", ts)
		}
		for fam, names := range members {
			if !crashedFams[fam] && crashed(ts, names) {
				crashedFams[fam] = true
			}
		}
	}
	for _, fam := range cat.Families() {
		if !crashedFams[fam] {
			t.Errorf("family %s never crashed as a unit", fam)
		}
	}
}
