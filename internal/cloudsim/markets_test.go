package cloudsim

import (
	"errors"
	"testing"
	"time"

	"spottune/internal/market"
	"spottune/internal/simclock"
)

// TestQuotePathAllocationFree guards the deploy path's per-attempt costs:
// quotes and rejected spot requests — the common outcome under contention —
// allocate nothing, and every kind of miss (own cap, shared cap, blackout)
// still matches ErrCapacityUnavailable.
func TestQuotePathAllocationFree(t *testing.T) {
	clk, a, b, _ := domainWorld(t, 0.5)
	clk.Sleep(90 * time.Second) // off the record grid: quote windows start and end between records
	for i := 0; i < 2; i++ {
		if _, err := a.RequestSpot("r4.large", 1.0, nil); err != nil {
			t.Fatal(err)
		}
	}
	quotes := map[string]func(){
		"CurrentPrice": func() {
			if _, err := b.CurrentPrice("r4.large"); err != nil {
				t.Fatal(err)
			}
		},
		"AvgPriceLastHour": func() {
			if _, err := b.AvgPriceLastHour("r4.large"); err != nil {
				t.Fatal(err)
			}
		},
		"OnDemandPrice": func() {
			if _, err := b.OnDemandPrice("r4.large"); err != nil {
				t.Fatal(err)
			}
		},
		"RequestSpot shared-capacity miss": func() {
			if _, err := b.RequestSpot("r4.large", 1.0, nil); !errors.Is(err, ErrCapacityUnavailable) {
				t.Fatalf("got %v, want ErrCapacityUnavailable", err)
			}
		},
		"RequestSpot own-capacity miss": func() {
			if _, err := a.RequestSpot("r4.large", 1.0, nil); !errors.Is(err, ErrCapacityUnavailable) {
				t.Fatalf("got %v, want ErrCapacityUnavailable", err)
			}
		},
	}
	for name, f := range quotes {
		if avg := testing.AllocsPerRun(200, f); avg != 0 {
			t.Errorf("%s allocates %.1f times, want 0", name, avg)
		}
	}

	// A blackout miss on an otherwise empty market.
	now := clk.Now()
	c := emptyCluster(t, clk)
	if err := c.AddBlackout(Blackout{From: now, To: now.Add(time.Hour)}); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := c.RequestSpot("r4.large", 1.0, nil); !errors.Is(err, ErrCapacityUnavailable) {
			t.Fatalf("got %v, want ErrCapacityUnavailable", err)
		}
	}); avg != 0 {
		t.Errorf("RequestSpot blackout miss allocates %.1f times, want 0", avg)
	}
}

// emptyCluster is a private, uncapped r4.large market on the given clock.
func emptyCluster(t *testing.T, clk *simclock.Virtual) *Cluster {
	t.Helper()
	start := time.Date(2017, 4, 26, 0, 0, 0, 0, time.UTC)
	cat := market.MustNewCatalog([]market.InstanceType{
		{Name: "r4.large", CPUs: 2, MemoryGB: 15, OnDemandPrice: 0.133},
	})
	traces := market.TraceSet{
		"r4.large": {Type: "r4.large", Records: []market.Record{{At: start.Add(-time.Hour), Price: 0.04}}},
	}
	c, err := NewCluster(clk, cat, traces)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCapacityDomainRejectsForeignLayout pins the domain's layout contract:
// clusters on one domain must index their catalogs the same way.
func TestCapacityDomainRejectsForeignLayout(t *testing.T) {
	clk, _, _, dom := domainWorld(t, 0)
	start := time.Date(2017, 4, 26, 0, 0, 0, 0, time.UTC)
	cat := market.MustNewCatalog([]market.InstanceType{
		{Name: "m4.large", CPUs: 2, MemoryGB: 8, OnDemandPrice: 0.1},
	})
	traces := market.TraceSet{
		"m4.large": {Type: "m4.large", Records: []market.Record{{At: start, Price: 0.03}}},
	}
	c, err := NewCluster(clk, cat, traces)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetCapacityDomain(dom); err == nil {
		t.Fatal("domain accepted a cluster with a different catalog layout")
	}
	// The same layout in a different catalog value is accepted.
	same := emptyCluster(t, clk)
	if err := same.SetCapacityDomain(dom); err != nil {
		t.Fatalf("same layout rejected: %v", err)
	}
}
