package cloudsim

import (
	"errors"
	"math"
	"math/rand/v2"
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
	clk.AdvanceTo(clk.Now().Add(90 * time.Second)) // off the record grid: quote windows start and end between records
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

// TestClusterQuotesMatchStore walks a cluster's clock forward in hops of
// seconds to hours and checks every query it answers through its cursors
// against the store's search, bit for bit: CurrentPrice, AvgPriceLastHour
// and NextPriceTick for a catalog market and for a traced market outside
// the catalog (queried in turn, so the spare cursor pair is re-aimed), and
// the revocation instant RequestSpot schedules for a bid just over the
// current price.
func TestClusterQuotesMatchStore(t *testing.T) {
	start := time.Date(2017, 4, 26, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewPCG(3, 5))
	traces := market.TraceSet{}
	for _, name := range []string{"r4.large", "x1.off", "x2.off"} {
		tr := &market.Trace{Type: name}
		for at := start.Add(-2 * time.Hour); at.Before(start.Add(30 * time.Hour)); at = at.Add(time.Duration(1+rng.IntN(7)) * time.Minute) {
			tr.Records = append(tr.Records, market.Record{At: at, Price: float64(20000+rng.IntN(40000)) / 1e6})
		}
		traces[name] = tr
	}
	cat := market.MustNewCatalog([]market.InstanceType{
		{Name: "r4.large", CPUs: 2, MemoryGB: 15, OnDemandPrice: 0.133},
	})
	clk := simclock.NewVirtual(start)
	c, err := NewCluster(clk, cat, traces)
	if err != nil {
		t.Fatal(err)
	}
	store := c.markets.store
	hops := []time.Duration{0, time.Second, 90 * time.Second, 10 * time.Minute, 2 * time.Hour}
	for step := 0; step < 400; step++ {
		clk.AdvanceTo(clk.Now().Add(hops[rng.IntN(len(hops))]))
		now := clk.Now()
		for _, name := range []string{"r4.large", "x1.off", "r4.large", "x2.off"} {
			ti, _ := store.Lookup(name)
			wantP, _ := store.PriceAt(ti, now)
			wantAvg, _ := store.AvgOver(ti, now.Add(-time.Hour), now)
			wantNext, wantOK := store.NextAfter(ti, now)
			gotP, err := c.CurrentPrice(name)
			if err != nil || math.Float64bits(gotP) != math.Float64bits(wantP) {
				t.Fatalf("%v %s: CurrentPrice = %v, %v; want %v", now, name, gotP, err, wantP)
			}
			gotAvg, err := c.AvgPriceLastHour(name)
			if err != nil || math.Float64bits(gotAvg) != math.Float64bits(wantAvg) {
				t.Fatalf("%v %s: AvgPriceLastHour = %v, %v; want %v", now, name, gotAvg, err, wantAvg)
			}
			if gotNext, gotOK := c.NextPriceTick(name); gotOK != wantOK || !gotNext.Equal(wantNext) {
				t.Fatalf("%v %s: NextPriceTick = %v, %v; want %v, %v", now, name, gotNext, gotOK, wantNext, wantOK)
			}
		}
		if step%4 == 0 {
			ti, _ := store.Lookup("r4.large")
			p, _ := store.PriceAt(ti, now)
			bid := p * 1.3
			inst, err := c.RequestSpot("r4.large", bid, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := store.FirstExceed(ti, now, bid)
			if !inst.RevokeAt.Equal(want) {
				t.Fatalf("%v: RequestSpot schedules revocation at %v, want %v", now, inst.RevokeAt, want)
			}
			if err := c.Terminate(inst.ID); err != nil {
				t.Fatal(err)
			}
		}
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
