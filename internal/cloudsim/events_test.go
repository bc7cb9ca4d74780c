package cloudsim

import (
	"testing"
	"time"

	"spottune/internal/market"
	"spottune/internal/simclock"
)

// TestNextEventTimeAnswersOwnEvents pins the cluster's own next event on a
// clock two clusters share: each answers only the notices, revocations and
// mass preemptions it scheduled, and the clock's next event is the earlier
// of the two answers. Events leave the answer once they fire, once
// Terminate or a superseding preemption cancels them, and at the clock's
// Reset. Among events due at one instant the answer is the first scheduled,
// down to its location.
func TestNextEventTimeAnswersOwnEvents(t *testing.T) {
	east := time.FixedZone("UTC+8", 8*60*60)
	cat := market.MustNewCatalog([]market.InstanceType{
		{Name: "r4.large", CPUs: 2, MemoryGB: 15.25, OnDemandPrice: 0.133},
	})
	// 0.04 from t0, 0.5 from +90min, 0.04 again from +100min: a bid of 0.1
	// is noticed at +88min and revoked at +90min.
	traces := market.TraceSet{"r4.large": &market.Trace{Type: "r4.large", Records: []market.Record{
		{At: t0, Price: 0.04},
		{At: t0.Add(90 * time.Minute), Price: 0.5},
		{At: t0.Add(100 * time.Minute), Price: 0.04},
	}}}
	clk := simclock.NewVirtual(t0)
	mk := func() *Cluster {
		c, err := NewCluster(clk, cat, traces)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk(), mk()
	same := func(x, y time.Time) bool { return x.Equal(y) && x.Location() == y.Location() }
	check := func(step string, wantA, wantB time.Time) {
		t.Helper()
		var first time.Time
		for _, c := range []struct {
			name string
			c    *Cluster
			want time.Time
		}{{"a", a, wantA}, {"b", b, wantB}} {
			at, ok := c.c.NextEventTime()
			if ok == c.want.IsZero() || ok && !same(at, c.want) {
				t.Fatalf("%s: cluster %s answers %v in %v (ok=%v), want %v in %v",
					step, c.name, at, at.Location(), ok, c.want, c.want.Location())
			}
			if ok && (first.IsZero() || at.Before(first)) {
				first = at
			}
		}
		if at, ok := clk.NextEventTime(); ok == first.IsZero() || !at.Equal(first) {
			t.Fatalf("%s: clock's next event %v (ok=%v), want the earlier answer %v", step, at, ok, first)
		}
	}
	notice, revoke := t0.Add(88*time.Minute), t0.Add(90*time.Minute)
	check("idle", time.Time{}, time.Time{})

	instA, err := a.RequestSpot("r4.large", 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("a's request", notice, time.Time{})

	// Two preemptions of b at one instant, the first in +08:00, then b's
	// own request: the answer is the first preemption, in its zone.
	preempt := t0.Add(30 * time.Minute)
	for _, at := range []time.Time{preempt.In(east), preempt} {
		if err := b.SchedulePreemption(at, ""); err != nil {
			t.Fatal(err)
		}
	}
	instB, err := b.RequestSpot("r4.large", 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("b's preemptions and request", notice, preempt.In(east))

	// The preemptions fire and supersede b's market notice and revocation
	// (cancelled) with a revocation two minutes on; a's events stay.
	clk.AdvanceTo(preempt.Add(time.Minute))
	if instB.State != StateNoticed {
		t.Fatalf("b's instance %v after the preemption, want noticed", instB.State)
	}
	check("preempted", notice, preempt.In(east).Add(NoticeLeadTime))

	if err := a.Terminate(instA.ID); err != nil {
		t.Fatal(err)
	}
	check("a terminated", time.Time{}, preempt.In(east).Add(NoticeLeadTime))

	clk.AdvanceTo(preempt.Add(NoticeLeadTime))
	if instB.State != StateRevoked {
		t.Fatalf("b's instance %v after its revocation, want revoked", instB.State)
	}
	check("b revoked", time.Time{}, time.Time{})

	// Events pending at Reset drop out; events scheduled after it count.
	if _, err := a.RequestSpot("r4.large", 0.1, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.SchedulePreemption(revoke, ""); err != nil {
		t.Fatal(err)
	}
	check("pending before reset", notice, revoke)
	clk.Reset(t0)
	check("reset", time.Time{}, time.Time{})
	if _, err := b.RequestSpot("r4.large", 0.1, nil); err != nil {
		t.Fatal(err)
	}
	check("after reset", time.Time{}, notice)
}
