package policy_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"spottune/internal/cloudsim"
	"spottune/internal/market"
	"spottune/internal/policy"
	"spottune/internal/simclock"
)

// call is one quote a view answered: the method and the type name it was
// for.
type call struct{ method, name string }

// nameOnly is a call-logging MarketView over a cluster that hides the
// cluster's SlotMarket upgrade, so policies quote it by name.
type nameOnly struct {
	c   *cloudsim.Cluster
	log []call
}

func (v *nameOnly) Now() time.Time { return v.c.Now() }

func (v *nameOnly) CurrentPrice(name string) (float64, error) {
	v.log = append(v.log, call{"CurrentPrice", name})
	return v.c.CurrentPrice(name)
}

func (v *nameOnly) AvgPriceLastHour(name string) (float64, error) {
	v.log = append(v.log, call{"AvgPriceLastHour", name})
	return v.c.AvgPriceLastHour(name)
}

func (v *nameOnly) OnDemandPrice(name string) (float64, error) {
	v.log = append(v.log, call{"OnDemandPrice", name})
	return v.c.OnDemandPrice(name)
}

// bySlot is a call-logging SlotMarket over a cluster: it logs each slot
// quote under the name its slot was resolved from, so its log reads like
// nameOnly's, and counts the quotes it answered by name in byName.
type bySlot struct {
	nameOnly
	names  map[int]string
	byName int
}

func (v *bySlot) CurrentPrice(name string) (float64, error) {
	v.byName++
	return v.nameOnly.CurrentPrice(name)
}

func (v *bySlot) AvgPriceLastHour(name string) (float64, error) {
	v.byName++
	return v.nameOnly.AvgPriceLastHour(name)
}

func (v *bySlot) OnDemandPrice(name string) (float64, error) {
	v.byName++
	return v.nameOnly.OnDemandPrice(name)
}

func (v *bySlot) Slot(name string) (int, bool) {
	slot, ok := v.c.Slot(name)
	if ok {
		v.names[slot] = name
	}
	return slot, ok
}

func (v *bySlot) CurrentPriceBySlot(slot int) (float64, error) {
	v.log = append(v.log, call{"CurrentPrice", v.names[slot]})
	return v.c.CurrentPriceBySlot(slot)
}

func (v *bySlot) AvgPriceLastHourBySlot(slot int) (float64, error) {
	v.log = append(v.log, call{"AvgPriceLastHour", v.names[slot]})
	return v.c.AvgPriceLastHourBySlot(slot)
}

func (v *bySlot) OnDemandPriceBySlot(slot int) (float64, error) {
	v.log = append(v.log, call{"OnDemandPrice", v.names[slot]})
	return v.c.OnDemandPriceBySlot(slot)
}

// slotWorld is a contended cluster over the default catalog capped at 3 per
// type, with a traced market outside the catalog ("x9.off") and a fleet
// that lifts some types' surge multipliers above 1.
func slotWorld(t *testing.T) (*simclock.Virtual, *cloudsim.Cluster) {
	t.Helper()
	start := time.Date(2017, 5, 4, 0, 0, 0, 0, time.UTC)
	cat := market.DefaultCatalog().WithCapacity(3)
	specs, err := market.DefaultSpecs(cat)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := market.GenerateSet(specs, start.Add(-2*time.Hour), start.Add(48*time.Hour), 9)
	if err != nil {
		t.Fatal(err)
	}
	traces["x9.off"] = &market.Trace{Type: "x9.off", Records: traces["r4.xlarge"].Records}
	clk := simclock.NewVirtual(start)
	c, err := cloudsim.NewCluster(clk, cat, traces)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetCapacityDomain(cloudsim.NewCapacityDomain(0.5)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"r4.large", "r4.large", "m4.2xlarge"} {
		if _, err := c.RequestSpot(name, 100, nil); err != nil {
			t.Fatal(err)
		}
	}
	return clk, c
}

// slotParams builds every policy under test: predictors that clamp on both
// sides, a member without one, and the world's catalog.
func slotParams(pool []string, cat *market.Catalog) policy.Params {
	return policy.Params{
		Pool: pool,
		Seed: 5,
		RevProb: func(name string) policy.RevProbFunc {
			if name == "r3.xlarge" {
				return nil
			}
			return func(at time.Time, maxPrice float64) float64 {
				return math.Mod(maxPrice*7+float64(at.Unix()%97)/97, 1.4) - 0.2
			}
		},
		Catalog: cat,
	}
}

// slotTrial is decision i's trial: plain, excluded, family-excluded after a
// revocation, and the incumbent with and without an on-demand pin in use.
func slotTrial(i int, pool []string) (policy.TrialInfo, int) {
	info := policy.TrialInfo{ID: "t", MaxSteps: 100}
	active := 0
	switch i % 5 {
	case 1:
		info.Exclude = pool[i%len(pool)]
	case 2:
		info.Exclude = pool[i%len(pool)]
		info.ExcludeFamily = market.FamilyOf(info.Exclude)
		info.SpotFailures = 1
		info.LastRevoked = pool[(i+1)%len(pool)]
	case 3:
		info.Incumbent, info.SpotFailures = true, 3
	case 4:
		info.Incumbent, active = true, 1
	}
	return info, active
}

func slotCtx(m policy.MarketView, info policy.TrialInfo, active int) policy.Context {
	return policy.Context{
		Market:         m,
		Trial:          info,
		ActiveOnDemand: active,
		SecPerStep:     func(name string) float64 { return 1 + float64(len(name)%5) },
		RevRate:        func(name string) float64 { return float64(len(name)%3) * 0.1 },
	}
}

// TestSlotQuotesMatchNameQuotes pins the SlotMarket upgrade against the
// name path it replaces. Every registered policy is built twice from the
// same Params; one twin decides over the *cloudsim.Cluster (quoted by
// slot), the other over a name-only wrapper of it, and a third over a
// logging SlotMarket. Over excluded, family-excluded and incumbent trials,
// a one-member pool, a pool with a traced market outside the catalog and a
// pool with an unknown member, every decision must return the same Request
// (so the bid-delta streams stay aligned) and the same error, the slot
// path must make the name path's calls in the same order, and the spottune
// twin must quote each member's current price once and the trailing-hour
// average of each candidate once per decision. A SlotMarket that resolves
// every member must be quoted by slot only; one with an unknown member is
// quoted by name.
func TestSlotQuotesMatchNameQuotes(t *testing.T) {
	pools := map[string][]string{
		"catalog":     market.DefaultCatalog().Names(),
		"one-member":  {"r4.xlarge"},
		"off-catalog": {"x9.off", "r4.large", "m4.4xlarge"},
		"unknown":     {"r4.large", "nope", "m4.2xlarge"},
	}
	for pname, pool := range pools {
		for _, name := range policy.Names() {
			t.Run(pname+"/"+name, func(t *testing.T) {
				clk, c := slotWorld(t)
				p := slotParams(pool, c.Catalog())
				direct, err := policy.New(name, p)
				if err != nil {
					t.Fatal(err)
				}
				named, _ := policy.New(name, p)
				logged, _ := policy.New(name, p)
				byName := &nameOnly{c: c}
				slots := &bySlot{nameOnly: nameOnly{c: c}, names: map[int]string{}}
				for i := 0; i < 40; i++ {
					clk.AdvanceTo(clk.Now().Add(7 * time.Minute))
					info, active := slotTrial(i, pool)
					byName.log, slots.log = byName.log[:0], slots.log[:0]
					want, wantErr := named.Decide(slotCtx(byName, info, active))
					got, err := direct.Decide(slotCtx(c, info, active))
					again, againErr := logged.Decide(slotCtx(slots, info, active))
					if fmt.Sprint(err) != fmt.Sprint(wantErr) || fmt.Sprint(againErr) != fmt.Sprint(wantErr) {
						t.Fatalf("decision %d: errors %v / %v, want %v", i, err, againErr, wantErr)
					}
					if got != want || again != want {
						t.Fatalf("decision %d: slot path %+v / %+v, name path %+v", i, got, again, want)
					}
					if fmt.Sprint(slots.log) != fmt.Sprint(byName.log) {
						t.Fatalf("decision %d: slot path quoted %v, name path %v", i, slots.log, byName.log)
					}
					if pname != "unknown" && slots.byName != 0 {
						t.Fatalf("decision %d: %d quotes on an upgraded view went by name", i, slots.byName)
					}
					if name == policy.SpotTuneName && wantErr == nil {
						checkSpotTuneQuotes(t, i, pool, info, byName.log)
					}
				}
			})
		}
	}
}

// checkSpotTuneQuotes checks one spottune decision's name-path quotes: one
// CurrentPrice per member and one AvgPriceLastHour per member the decision
// did not exclude, in pool order.
func checkSpotTuneQuotes(t *testing.T, i int, pool []string, info policy.TrialInfo, log []call) {
	t.Helper()
	var want []call
	for _, name := range pool {
		want = append(want, call{"CurrentPrice", name})
		if name != info.Exclude || len(pool) < 2 {
			want = append(want, call{"AvgPriceLastHour", name})
		}
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("decision %d: spottune quoted %v, want %v", i, log, want)
	}
}

// TestCheapestOnDemandSlotMatchesName pins the degradation ladder's
// on-demand choice on both paths, including a pool whose off-catalog member
// has no on-demand offer.
func TestCheapestOnDemandSlotMatchesName(t *testing.T) {
	for _, pool := range [][]string{market.DefaultCatalog().Names(), {"m4.4xlarge"}, {"r4.large", "x9.off"}, {"nope"}} {
		clk, c := slotWorld(t)
		direct, named := policy.NewPool(pool), policy.NewPool(pool)
		byName := &nameOnly{c: c}
		for i := 0; i < 5; i++ {
			clk.AdvanceTo(clk.Now().Add(time.Hour))
			byName.log = byName.log[:0]
			want, wantErr := named.CheapestOnDemand(slotCtx(byName, policy.TrialInfo{}, 0))
			got, err := direct.CheapestOnDemand(slotCtx(c, policy.TrialInfo{}, 0))
			if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%v: slot path %+v, %v; name path %+v, %v", pool, got, err, want, wantErr)
			}
			if wantErr == nil && len(byName.log) != len(pool) {
				t.Fatalf("%v: name path quoted %v, want one OnDemandPrice per member", pool, byName.log)
			}
		}
	}
}
