package policy

import (
	"testing"
	"time"

	"spottune/internal/market"
	"spottune/internal/obs"
)

// divCtx is a three-market, two-family world: r4.xlarge is cheapest,
// r4.2xlarge the beefy sibling, m4.xlarge the de-correlated alternative.
// All markets share SecPerStep 1 so scores equal trailing-average prices.
func divCtx() Context {
	return Context{
		Market: &fakeMarket{
			now:  time.Date(2017, 5, 4, 0, 0, 0, 0, time.UTC),
			spot: map[string]float64{"r4.xlarge": 0.05, "r4.2xlarge": 0.10, "m4.xlarge": 0.07},
			avg:  map[string]float64{"r4.xlarge": 0.05, "r4.2xlarge": 0.10, "m4.xlarge": 0.07},
			od:   map[string]float64{"r4.xlarge": 0.27, "r4.2xlarge": 0.53, "m4.xlarge": 0.2},
		},
		SecPerStep: func(string) float64 { return 1 },
	}
}

func divPool() []string { return []string{"r4.xlarge", "r4.2xlarge", "m4.xlarge"} }

func TestDiversifiedPicksLowestScore(t *testing.T) {
	pol := mustNew(t, DiversifiedSpotName, Params{Pool: divPool(), Seed: 3})
	req, err := pol.Decide(divCtx())
	if err != nil {
		t.Fatal(err)
	}
	if req.TypeName != "r4.xlarge" || req.OnDemand {
		t.Fatalf("chose %+v, want spot r4.xlarge", req)
	}
	if req.MaxPrice <= 0.05 || req.MaxPrice > 0.05+deltaHigh+1e-9 {
		t.Fatalf("max price %v outside bid window", req.MaxPrice)
	}
}

// TestDiversifiedTieBreaksLexicographic pins the engine-wide tie rule on the
// new selection path: equal allocation scores resolve to the
// lexicographically smallest type name, regardless of pool order.
func TestDiversifiedTieBreaksLexicographic(t *testing.T) {
	ctx := Context{
		Market: &fakeMarket{
			now:  time.Date(2017, 5, 4, 0, 0, 0, 0, time.UTC),
			spot: map[string]float64{"b.large": 0.05, "a.large": 0.05, "c.large": 0.05},
			avg:  map[string]float64{"b.large": 0.05, "a.large": 0.05, "c.large": 0.05},
			od:   map[string]float64{"b.large": 0.2, "a.large": 0.2, "c.large": 0.2},
		},
		SecPerStep: func(string) float64 { return 1 },
	}
	// Deliberately unsorted pool: the policy must not inherit its order.
	pol := mustNew(t, DiversifiedSpotName, Params{Pool: []string{"c.large", "b.large", "a.large"}, Seed: 9})
	req, err := pol.Decide(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if req.TypeName != "a.large" {
		t.Fatalf("tie broke to %q, want lexicographic winner a.large", req.TypeName)
	}
	// The tie rule also governs the diversified branch: avoid family "a"
	// and the remaining tie (b vs c) must break to b.
	ctx2 := ctx
	ctx2.Trial.ExcludeFamily = "a"
	req, err = pol.Decide(ctx2)
	if err != nil {
		t.Fatal(err)
	}
	if req.TypeName != "b.large" {
		t.Fatalf("filtered tie broke to %q, want b.large", req.TypeName)
	}
}

func TestDiversifiedAvoidsLastRevokedFamily(t *testing.T) {
	pol := mustNew(t, DiversifiedSpotName, Params{Pool: divPool(), Seed: 3})
	rec := obs.NewRecording(obs.Meta{})
	ctx := divCtx()
	ctx.Tracer = rec
	ctx.Trial.LastRevoked = "r4.xlarge"
	ctx.Trial.SpotFailures = 1
	req, err := pol.Decide(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if req.TypeName != "m4.xlarge" {
		t.Fatalf("chose %q, want the out-of-family m4.xlarge", req.TypeName)
	}
	events := rec.Events()
	if len(events) != 1 || events[0].Kind != obs.KindDiversify {
		t.Fatalf("events = %+v, want one diversify", events)
	}
	if events[0].Type != "m4.xlarge" || events[0].Label != "r4" || events[0].N != 1 {
		t.Fatalf("diversify payload = %+v", events[0])
	}

	// Streak cleared: the revoked family is fair game again, no event.
	rec2 := obs.NewRecording(obs.Meta{})
	ctx.Tracer = rec2
	ctx.Trial.SpotFailures = 0
	req, err = pol.Decide(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if req.TypeName != "r4.xlarge" {
		t.Fatalf("chose %q after streak clear, want r4.xlarge", req.TypeName)
	}
	if rec2.Len() != 0 {
		t.Fatalf("unexpected events after streak clear: %+v", rec2.Events())
	}
}

// TestDiversifiedDecideZeroAllocs pins a decision to no heap allocation,
// with and without an avoid set: families resolve once, when the policy is
// built, and the avoid set holds its at most two families in place.
func TestDiversifiedDecideZeroAllocs(t *testing.T) {
	pol := mustNew(t, DiversifiedSpotName, Params{Pool: divPool(), Seed: 3})
	avoiding := divCtx()
	avoiding.Trial.ExcludeFamily = "c4"
	avoiding.Trial.LastRevoked = "r4.xlarge"
	avoiding.Trial.SpotFailures = 1
	for _, c := range []struct {
		name string
		ctx  Context
		want string
	}{
		{"no avoid set", divCtx(), "r4.xlarge"},
		{"avoid set", avoiding, "m4.xlarge"},
	} {
		var req Request
		avg := testing.AllocsPerRun(100, func() {
			var err error
			if req, err = pol.Decide(c.ctx); err != nil {
				t.Fatal(err)
			}
		})
		if req.TypeName != c.want {
			t.Errorf("%s: chose %q, want %q", c.name, req.TypeName, c.want)
		}
		if avg != 0 {
			t.Errorf("%s: Decide allocates %.1f times, want 0", c.name, avg)
		}
	}
}

func TestDiversifiedFamilyAvoidanceNeedsAlternative(t *testing.T) {
	// Single-family pool: avoiding r4 would empty the candidate set, so the
	// constraint must not bind.
	pol := mustNew(t, DiversifiedSpotName, Params{Pool: []string{"r4.xlarge", "r4.2xlarge"}, Seed: 3})
	ctx := divCtx()
	ctx.Trial.ExcludeFamily = "r4"
	req, err := pol.Decide(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if req.TypeName != "r4.xlarge" {
		t.Fatalf("chose %q, want r4.xlarge (no alternative family exists)", req.TypeName)
	}
}

func TestDiversifiedCapacityOptimizedPenalizesHotMarkets(t *testing.T) {
	params := Params{Pool: divPool(), Seed: 3, Allocation: AllocCapacityOptimized}
	pol := mustNew(t, DiversifiedSpotName, params)
	ctx := divCtx()
	// r4.xlarge has revoked constantly (1.0/hour); m4.xlarge never.
	// Scores: r4.xlarge 0.05×(1+1)=0.10, m4.xlarge 0.07, r4.2xlarge 0.10×(1+0.5)=0.15.
	ctx.RevRate = func(name string) float64 {
		switch name {
		case "r4.xlarge":
			return 1.0
		case "r4.2xlarge":
			return 0.5
		}
		return 0
	}
	req, err := pol.Decide(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if req.TypeName != "m4.xlarge" {
		t.Fatalf("capacity-optimized chose %q, want m4.xlarge", req.TypeName)
	}

	// lowest-price ignores the same evidence.
	lp := mustNew(t, DiversifiedSpotName, Params{Pool: divPool(), Seed: 3})
	req, err = lp.Decide(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if req.TypeName != "r4.xlarge" {
		t.Fatalf("lowest-price chose %q, want r4.xlarge", req.TypeName)
	}
}

func TestDiversifiedCompatibilityNarrowing(t *testing.T) {
	cat := market.MustNewCatalog([]market.InstanceType{
		{Name: "r4.large", CPUs: 2, MemoryGB: 15.25, OnDemandPrice: 0.133},
		{Name: "r4.xlarge", CPUs: 4, MemoryGB: 30.5, OnDemandPrice: 0.266},
		{Name: "m4.xlarge", CPUs: 4, MemoryGB: 32, OnDemandPrice: 0.2},
	})
	ctx := Context{
		Market: &fakeMarket{
			now:  time.Date(2017, 5, 4, 0, 0, 0, 0, time.UTC),
			spot: map[string]float64{"r4.large": 0.01, "r4.xlarge": 0.05, "m4.xlarge": 0.07},
			avg:  map[string]float64{"r4.large": 0.01, "r4.xlarge": 0.05, "m4.xlarge": 0.07},
			od:   map[string]float64{"r4.large": 0.133, "r4.xlarge": 0.266, "m4.xlarge": 0.2},
		},
		SecPerStep: func(string) float64 { return 1 },
	}
	pool := []string{"r4.large", "r4.xlarge", "m4.xlarge"}
	// Base r4.xlarge: r4.large is cheapest but too small — must never win.
	pol := mustNew(t, DiversifiedSpotName, Params{Pool: pool, Seed: 3, Catalog: cat, BaseType: "r4.xlarge"})
	req, err := pol.Decide(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if req.TypeName != "r4.xlarge" {
		t.Fatalf("chose %q, want r4.xlarge (r4.large is incompatible)", req.TypeName)
	}

	// Constraint errors: base type without catalog, unknown base, pool with
	// no compatible member.
	if _, err := New(DiversifiedSpotName, Params{Pool: pool, BaseType: "r4.xlarge"}); err == nil {
		t.Error("base type without catalog accepted")
	}
	if _, err := New(DiversifiedSpotName, Params{Pool: pool, Catalog: cat, BaseType: "nope"}); err == nil {
		t.Error("unknown base type accepted")
	}
	if _, err := New(DiversifiedSpotName, Params{Pool: []string{"r4.large"}, Catalog: cat, BaseType: "m4.xlarge"}); err == nil {
		t.Error("pool with no compatible member accepted")
	}
	if _, err := New(DiversifiedSpotName, Params{Pool: pool, Allocation: "spread-eagle"}); err == nil {
		t.Error("unknown allocation strategy accepted")
	}
}

func TestDiversifiedDeterministicAcrossFilters(t *testing.T) {
	// Two same-seed policies must keep identical bid streams even when one
	// is deciding under exclusions (one delta per candidate per call).
	a := mustNew(t, DiversifiedSpotName, Params{Pool: divPool(), Seed: 42})
	b := mustNew(t, DiversifiedSpotName, Params{Pool: divPool(), Seed: 42})
	plain := divCtx()
	filtered := divCtx()
	filtered.Trial.Exclude = "r4.xlarge"
	filtered.Trial.ExcludeFamily = "r4"
	for i := 0; i < 8; i++ {
		if _, err := a.Decide(plain); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Decide(filtered); err != nil {
			t.Fatal(err)
		}
	}
	// After interleaving, both streams must agree again on the same input.
	ra, err := a.Decide(plain)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Decide(plain)
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Fatalf("bid streams diverged: %+v vs %+v", ra, rb)
	}
}
