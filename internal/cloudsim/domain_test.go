package cloudsim

import (
	"errors"
	"math"
	"testing"
	"time"

	"spottune/internal/market"
	"spottune/internal/simclock"
)

// domainWorld builds two clusters for two tenants sharing one clock and one
// capacity domain over a flat-priced, capacity-2 market.
func domainWorld(t *testing.T, slope float64) (*simclock.Virtual, *Cluster, *Cluster, *CapacityDomain) {
	t.Helper()
	start := time.Date(2017, 4, 26, 0, 0, 0, 0, time.UTC)
	cat := market.MustNewCatalog([]market.InstanceType{
		{Name: "r4.large", CPUs: 2, MemoryGB: 15, OnDemandPrice: 0.133, Capacity: 2},
	})
	traces := market.TraceSet{
		"r4.large": {Type: "r4.large", Records: []market.Record{{At: start.Add(-time.Hour), Price: 0.04}}},
	}
	clk := simclock.NewVirtual(start)
	dom := NewCapacityDomain(slope)
	mk := func() *Cluster {
		c, err := NewCluster(clk, cat, traces)
		if err != nil {
			t.Fatal(err)
		}
		c.SetCapacityDomain(dom)
		return c
	}
	return clk, mk(), mk(), dom
}

// TestDomainSharedCapacity pins the cross-cluster cap: tenant B is refused
// room that tenant A's fleet already holds, and settlement returns it.
func TestDomainSharedCapacity(t *testing.T) {
	_, a, b, dom := domainWorld(t, 0)

	ia, err := a.RequestSpot("r4.large", 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RequestSpot("r4.large", 1.0, nil); err != nil {
		t.Fatal(err)
	}
	// r4.large is the catalog's only type, slot 0.
	if dom.inUse[0] != 2 {
		t.Fatalf("domain in-use %d, want 2", dom.inUse[0])
	}
	// The region is full across tenants, even though each cluster privately
	// holds only one of the two slots.
	if _, err := b.RequestSpot("r4.large", 1.0, nil); !errors.Is(err, ErrCapacityUnavailable) {
		t.Fatalf("third request got %v, want ErrCapacityUnavailable", err)
	}
	if err := a.Terminate(ia.ID); err != nil {
		t.Fatal(err)
	}
	if dom.inUse[0] != 1 {
		t.Fatalf("domain in-use %d after settlement, want 1", dom.inUse[0])
	}
	if _, err := b.RequestSpot("r4.large", 1.0, nil); err != nil {
		t.Fatalf("request after release failed: %v", err)
	}
}

// TestDomainSurgePricing pins the demand-pressure transform: quotes and
// launch-sampled billing multiply by 1+slope·utilization, and a detached
// cluster stays flat.
func TestDomainSurgePricing(t *testing.T) {
	clk, a, b, _ := domainWorld(t, 0.5)

	// Empty region: quotes are the flat trace price.
	p0, err := a.CurrentPrice("r4.large")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p0-0.04) > 1e-12 {
		t.Fatalf("empty-region quote %.6f, want 0.04", p0)
	}

	ia, err := a.RequestSpot("r4.large", 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One of two slots used: the instance's own demand counts, so its
	// launch-sampled surge is 1 + 0.5·(1/2).
	if math.Abs(ia.Surge-1.25) > 1e-12 {
		t.Fatalf("launch surge %.4f, want 1.25", ia.Surge)
	}
	p1, _ := b.CurrentPrice("r4.large")
	if math.Abs(p1-0.04*1.25) > 1e-12 {
		t.Fatalf("quote at half utilization %.6f, want %.6f", p1, 0.04*1.25)
	}
	avg, err := b.AvgPriceLastHour("r4.large")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avg-0.04*1.25) > 1e-12 {
		t.Fatalf("hour-avg quote %.6f, want %.6f", avg, 0.04*1.25)
	}

	// Billing integrates trace price × launch surge.
	clk.AdvanceTo(clk.Now().Add(2 * time.Hour))
	if err := a.Terminate(ia.ID); err != nil {
		t.Fatal(err)
	}
	rec := a.Ledger().Records[0]
	want := 0.04 * 2 * 1.25
	if math.Abs(rec.GrossCost-want) > 1e-9 {
		t.Fatalf("gross %.6f, want %.6f", rec.GrossCost, want)
	}
}

// TestNilDomainUnchanged pins the default path: without a domain the surge
// helpers quote flat prices and Surge is 1.
func TestNilDomainUnchanged(t *testing.T) {
	start := time.Date(2017, 4, 26, 0, 0, 0, 0, time.UTC)
	cat := market.MustNewCatalog([]market.InstanceType{
		{Name: "r4.large", CPUs: 2, MemoryGB: 15, OnDemandPrice: 0.133},
	})
	traces := market.TraceSet{
		"r4.large": {Type: "r4.large", Records: []market.Record{{At: start.Add(-time.Hour), Price: 0.04}}},
	}
	c, err := NewCluster(simclock.NewVirtual(start), cat, traces)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := c.RequestSpot("r4.large", 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Surge != 1 {
		t.Fatalf("surge %v without a domain, want 1", inst.Surge)
	}
	p, _ := c.CurrentPrice("r4.large")
	if p != 0.04 {
		t.Fatalf("quote %.6f without a domain, want 0.04", p)
	}
}
