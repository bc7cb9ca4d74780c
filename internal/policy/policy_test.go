package policy

import (
	"testing"
	"time"
)

// fakeMarket is a static MarketView over three instance types.
type fakeMarket struct {
	now  time.Time
	spot map[string]float64
	avg  map[string]float64
	od   map[string]float64
}

func (m *fakeMarket) Now() time.Time { return m.now }

func (m *fakeMarket) price(table map[string]float64, name string) (float64, error) {
	v, ok := table[name]
	if !ok {
		return 0, errUnknown(name)
	}
	return v, nil
}

type errUnknown string

func (e errUnknown) Error() string { return "unknown market " + string(e) }

func (m *fakeMarket) CurrentPrice(name string) (float64, error)     { return m.price(m.spot, name) }
func (m *fakeMarket) AvgPriceLastHour(name string) (float64, error) { return m.price(m.avg, name) }
func (m *fakeMarket) OnDemandPrice(name string) (float64, error)    { return m.price(m.od, name) }

// testCtx is a two-type world: "slow" (cheap) and "fast" (pricey, 4x
// faster), mirroring the core fixture.
func testCtx() Context {
	return Context{
		Market: &fakeMarket{
			now:  time.Date(2017, 5, 4, 0, 0, 0, 0, time.UTC),
			spot: map[string]float64{"slow": 0.02, "fast": 0.2},
			avg:  map[string]float64{"slow": 0.02, "fast": 0.2},
			od:   map[string]float64{"slow": 0.1, "fast": 0.8},
		},
		SecPerStep: func(name string) float64 {
			if name == "fast" {
				return 1.0
			}
			return 4.0
		},
	}
}

func pool() []string { return []string{"slow", "fast"} }

func mustNew(t *testing.T, name string, p Params) Policy {
	t.Helper()
	pol, err := New(name, p)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

func TestRegistryHasSixBuiltins(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("only %d registered policies: %v", len(names), names)
	}
	for _, want := range []string{SpotTuneName, CheapestName, FastestName, OnDemandName, FallbackName, MixedFleetName} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in %q not registered (have %v)", want, names)
		}
	}
	infos := Infos()
	if len(infos) != len(names) {
		t.Fatalf("Infos %d != Names %d", len(infos), len(names))
	}
	for _, info := range infos {
		if info.Doc == "" {
			t.Errorf("policy %q has no doc line", info.Name)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("no-such-policy", Params{Pool: pool()}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := New(SpotTuneName, Params{}); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := New(SpotTuneName, Params{Pool: pool(), DeltaLow: 0.3, DeltaHigh: 0.1}); err == nil {
		t.Error("inverted delta interval accepted")
	}
}

func TestSpotTunePicksMinStepCost(t *testing.T) {
	pol := mustNew(t, SpotTuneName, Params{Pool: pool(), Seed: 7})
	ctx := testCtx()
	// Step costs: slow = 4s × 0.02 = 0.08; fast = 1s × 0.2 = 0.2.
	req, err := pol.Decide(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if req.TypeName != "slow" || req.OnDemand {
		t.Fatalf("chose %+v, want spot slow", req)
	}
	if req.MaxPrice <= 0.02 || req.MaxPrice > 0.02+DefaultDeltaHigh+1e-9 {
		t.Fatalf("max price %v outside bid window", req.MaxPrice)
	}
	// Make fast dramatically faster so it wins: 0.05s × 0.2 = 0.01 < 0.08.
	ctx.SecPerStep = func(name string) float64 {
		if name == "fast" {
			return 0.05
		}
		return 4.0
	}
	req, err = pol.Decide(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if req.TypeName != "fast" {
		t.Fatalf("chose %s, want fast", req.TypeName)
	}
}

func TestSpotTuneFavorsLikelyRevoked(t *testing.T) {
	// fast: p=0.95 → expected cost (1-0.95+0.02)·0.2·1 = 0.014 < slow 0.0816.
	revProb := func(name string) RevProbFunc {
		return func(time.Time, float64) float64 {
			if name == "fast" {
				return 0.95
			}
			return 0
		}
	}
	pol := mustNew(t, SpotTuneName, Params{Pool: pool(), Seed: 7, RevProb: revProb})
	req, err := pol.Decide(testCtx())
	if err != nil {
		t.Fatal(err)
	}
	if req.TypeName != "fast" {
		t.Fatalf("chose %s, want fast (refund-likely)", req.TypeName)
	}
	if req.RevProb != 0.95 {
		t.Fatalf("RevProb = %v", req.RevProb)
	}
}

func TestSpotTuneDeterministicBidStream(t *testing.T) {
	a := mustNew(t, SpotTuneName, Params{Pool: pool(), Seed: 42})
	b := mustNew(t, SpotTuneName, Params{Pool: pool(), Seed: 42})
	ctx := testCtx()
	for i := 0; i < 10; i++ {
		ra, err := a.Decide(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Decide(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ra != rb {
			t.Fatalf("decision %d diverges: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestCheapestAndFastestBaselines(t *testing.T) {
	ctx := testCtx()
	cheap, err := mustNew(t, CheapestName, Params{Pool: pool()}).Decide(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cheap.TypeName != "slow" || cheap.OnDemand {
		t.Fatalf("cheapest chose %+v, want spot slow", cheap)
	}
	if cheap.MaxPrice != 0.1*DefaultMaxPriceFactor {
		t.Fatalf("cheapest bid %v, want never-revoked %v", cheap.MaxPrice, 0.1*DefaultMaxPriceFactor)
	}
	fastest, err := mustNew(t, FastestName, Params{Pool: pool()}).Decide(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fastest.TypeName != "fast" || fastest.OnDemand {
		t.Fatalf("fastest chose %+v, want spot fast", fastest)
	}
	if fastest.MaxPrice != 0.8*DefaultMaxPriceFactor {
		t.Fatalf("fastest bid %v", fastest.MaxPrice)
	}
}

func TestOnDemandOnly(t *testing.T) {
	// Expected on-demand step cost: slow = 4×0.1 = 0.4; fast = 1×0.8 = 0.8.
	req, err := mustNew(t, OnDemandName, Params{Pool: pool()}).Decide(testCtx())
	if err != nil {
		t.Fatal(err)
	}
	if !req.OnDemand || req.TypeName != "slow" {
		t.Fatalf("on-demand chose %+v, want on-demand slow", req)
	}
}

func TestFallbackSwitchesAndRecovers(t *testing.T) {
	prob := 0.0
	revProb := func(string) RevProbFunc {
		return func(time.Time, float64) float64 { return prob }
	}
	pol := mustNew(t, FallbackName, Params{
		Pool: pool(), Seed: 1, RevProb: revProb,
		FallbackAfter: 2, DoomProb: 0.6, CalmProb: 0.3,
	})
	ctx := testCtx()

	// Calm market, no failures: spot.
	req, err := pol.Decide(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if req.OnDemand {
		t.Fatalf("calm market fell back to on-demand: %+v", req)
	}

	// Doom window: on-demand regardless of failures.
	prob = 0.9
	req, err = pol.Decide(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !req.OnDemand {
		t.Fatalf("doom window kept spot: %+v", req)
	}

	// K failures with an uneasy (but not doomed) market: on-demand.
	prob = 0.5
	ctx.Trial.SpotFailures = 2
	req, err = pol.Decide(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !req.OnDemand {
		t.Fatalf("failure streak kept spot: %+v", req)
	}

	// Market calms: back to spot even though the streak has not cleared.
	prob = 0.1
	req, err = pol.Decide(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if req.OnDemand {
		t.Fatalf("calm market did not swap back to spot: %+v", req)
	}
}

func TestMixedFleetPinsIncumbent(t *testing.T) {
	pol := mustNew(t, MixedFleetName, Params{Pool: pool(), Seed: 1})
	ctx := testCtx()
	explorer, err := pol.Decide(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if explorer.OnDemand {
		t.Fatalf("explorer deployed on-demand: %+v", explorer)
	}
	ctx.Trial.Incumbent = true
	incumbent, err := pol.Decide(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !incumbent.OnDemand {
		t.Fatalf("incumbent not pinned on on-demand: %+v", incumbent)
	}
}

func TestUnknownPoolMemberSurfacesError(t *testing.T) {
	ctx := testCtx()
	for _, name := range []string{SpotTuneName, CheapestName, OnDemandName} {
		pol := mustNew(t, name, Params{Pool: []string{"slow", "nope"}})
		if _, err := pol.Decide(ctx); err == nil {
			t.Errorf("%s: unknown pool member not surfaced", name)
		}
	}
}
