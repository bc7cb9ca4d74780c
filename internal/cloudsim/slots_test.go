package cloudsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"spottune/internal/market"
	"spottune/internal/simclock"
)

// TestSurgeCacheMatchesExpression drives two clusters on one domain through
// a randomized sequence of spot launches and terminations over an uncapped
// type and two capped ones, at a non-zero and a zero slope. After every step
// each type's cached multiplier must be bit-equal to 1 + slope·inUse/capacity
// (1 for the uncapped type and at slope 0), quotes must scale the trace
// price by it, and each launch must record the multiplier after its own
// acquire.
func TestSurgeCacheMatchesExpression(t *testing.T) {
	start := time.Date(2017, 4, 26, 0, 0, 0, 0, time.UTC)
	cat := market.MustNewCatalog([]market.InstanceType{
		{Name: "a.large", CPUs: 2, MemoryGB: 8, OnDemandPrice: 0.1},
		{Name: "b.large", CPUs: 2, MemoryGB: 8, OnDemandPrice: 0.1, Capacity: 3},
		{Name: "c.large", CPUs: 2, MemoryGB: 8, OnDemandPrice: 0.1, Capacity: 7},
	})
	traces := market.TraceSet{}
	for i, it := range cat.Types() {
		traces[it.Name] = &market.Trace{Type: it.Name, Records: []market.Record{{At: start.Add(-time.Hour), Price: []float64{0.031, 0.041, 0.057}[i]}}}
	}
	for _, slope := range []float64{0.37, 0} {
		clk := simclock.NewVirtual(start)
		dom := NewCapacityDomain(slope)
		var clusters []*Cluster
		for range 2 {
			c, err := NewCluster(clk, cat, traces)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.SetCapacityDomain(dom); err != nil {
				t.Fatal(err)
			}
			clusters = append(clusters, c)
		}
		want := func(i int) float64 {
			capacity := cat.TypeAt(i).Capacity
			if slope == 0 || capacity <= 0 {
				return 1
			}
			return 1 + slope*float64(dom.inUse[i])/float64(capacity)
		}
		rng := rand.New(rand.NewPCG(11, uint64(slope*100)))
		var live []*Instance
		for step := 0; step < 2000; step++ {
			c := clusters[rng.IntN(len(clusters))]
			if len(live) > 0 && rng.IntN(2) == 0 {
				k := rng.IntN(len(live))
				inst := live[k]
				live = append(live[:k], live[k+1:]...)
				owner := clusters[0]
				if got, ok := owner.Instance(inst.ID); !ok || got != inst {
					owner = clusters[1]
				}
				if err := owner.Terminate(inst.ID); err != nil {
					t.Fatal(err)
				}
			} else {
				i := rng.IntN(cat.Len())
				inst, err := c.RequestSpot(cat.TypeAt(i).Name, 10, nil)
				if MissOf(err) == CapacityMiss {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(inst.Surge) != math.Float64bits(want(i)) {
					t.Fatalf("slope %v step %d: launch surge %v, want %v", slope, step, inst.Surge, want(i))
				}
				live = append(live, inst)
			}
			for i := 0; i < cat.Len(); i++ {
				if got := dom.surge(i); math.Float64bits(got) != math.Float64bits(want(i)) {
					t.Fatalf("slope %v step %d: type %d cached surge %v at %d in use, want %v", slope, step, i, got, dom.inUse[i], want(i))
				}
				p, _ := c.CurrentPriceBySlot(i)
				trace := traces[cat.TypeAt(i).Name].Records[0].Price
				if math.Float64bits(p) != math.Float64bits(trace*want(i)) {
					t.Fatalf("slope %v step %d: type %d quote %v, want %v", slope, step, i, p, trace*want(i))
				}
			}
		}
	}
}

// TestMissOfClassifiesRequestSpot pins MissOf against errors.Is on every
// error RequestSpot returns: a price miss, the three capacity misses, and
// an unknown type, which is no market miss.
func TestMissOfClassifiesRequestSpot(t *testing.T) {
	clk, a, b, _ := domainWorld(t, 0)
	if MissOf(nil) != NoMiss {
		t.Fatal("nil classified as a miss")
	}
	check := func(label string, err error, want SpotMiss) {
		t.Helper()
		if got := MissOf(err); got != want {
			t.Fatalf("%s: MissOf(%v) = %d, want %d", label, err, got, want)
		}
		if errors.Is(err, ErrPriceAboveMax) != (want == PriceMiss) || errors.Is(err, ErrCapacityUnavailable) != (want == CapacityMiss) {
			t.Fatalf("%s: MissOf(%v) = %d disagrees with errors.Is", label, err, want)
		}
	}
	_, err := a.RequestSpot("r4.large", 0.01, nil)
	check("price", err, PriceMiss)
	_, err = a.RequestSpot("nope", 1, nil)
	check("unknown type", err, NoMiss)
	for range 2 {
		if _, err := a.RequestSpot("r4.large", 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	_, err = a.RequestSpot("r4.large", 1, nil)
	check("own capacity", err, CapacityMiss)
	_, err = b.RequestSpot("r4.large", 1, nil)
	check("shared capacity", err, CapacityMiss)
	c := emptyCluster(t, clk)
	if err := c.AddBlackout(Blackout{From: clk.Now(), To: clk.Now().Add(time.Hour)}); err != nil {
		t.Fatal(err)
	}
	_, err = c.RequestSpot("r4.large", 1, nil)
	check("blackout", err, CapacityMiss)
}

// TestInstanceIDs pins launch's IDs to fmt's "i-%06d" bytes, across the
// six-digit boundary, and their Instance round trip.
func TestInstanceIDs(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		if got, want := instanceID(n), fmt.Sprintf("i-%06d", n); got != want {
			t.Fatalf("instanceID(%d) = %q, want %q", n, got, want)
		}
	}
	for p := 10; p <= 1e15; p *= 10 {
		for _, n := range []int{p - 1, p, p + 1} {
			if got, want := instanceID(n), fmt.Sprintf("i-%06d", n); got != want {
				t.Fatalf("instanceID(%d) = %q, want %q", n, got, want)
			}
		}
	}
	c := emptyCluster(t, simclock.NewVirtual(time.Date(2017, 4, 26, 0, 0, 0, 0, time.UTC)))
	launch := func(want string) {
		t.Helper()
		inst, err := c.RequestOnDemand("r4.large")
		if err != nil {
			t.Fatal(err)
		}
		if inst.ID != want {
			t.Fatalf("launched %q, want %q", inst.ID, want)
		}
		if got, ok := c.Instance(want); !ok || got != inst {
			t.Fatalf("Instance(%q) = %v, %v; want the launched instance", want, got, ok)
		}
	}
	launch("i-000001")
	// Skip to the 999,999th launch: the placeholders stand for instances
	// launched in between.
	c.instances = append(c.instances, make([]*Instance, 999997)...)
	launch("i-999999")
	launch("i-1000000")
}
