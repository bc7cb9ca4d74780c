package simclock

import (
	"testing"
	"time"
)

// TestResetDropsPendingEvents: events still queued at a reset never fire,
// and the clock stays usable.
func TestResetDropsPendingEvents(t *testing.T) {
	v := NewVirtual(t0)
	for i := 0; i < 20; i++ {
		v.Schedule(t0.Add(time.Hour), func(time.Time) { t.Fatal("event pending at Reset fired") })
	}
	v.AdvanceTo(t0.Add(time.Minute))
	v.Reset(t0)
	if got := v.pendingEvents(); got != 0 {
		t.Fatalf("%d events still pending after Reset", got)
	}
	if _, ok := v.NextEventTime(); ok {
		t.Fatal("NextEventTime reported an event after Reset")
	}
	fired := false
	v.Schedule(t0.Add(time.Hour), func(time.Time) { fired = true })
	v.AdvanceTo(t0.Add(2 * time.Hour))
	if !fired {
		t.Fatal("event scheduled after Reset did not fire")
	}
}

// TestResetMovesClock: Reset sets Now to its start, earlier or later than
// the current instant.
func TestResetMovesClock(t *testing.T) {
	v := NewVirtual(t0)
	v.AdvanceTo(t0.Add(3 * time.Hour))
	v.Reset(t0)
	if got := v.Now(); !got.Equal(t0) {
		t.Fatalf("Now() after Reset backward = %v, want %v", got, t0)
	}
	later := t0.Add(48 * time.Hour)
	v.Reset(later)
	if got := v.Now(); !got.Equal(later) {
		t.Fatalf("Now() after Reset forward = %v, want %v", got, later)
	}
}

// TestResetReusesSlots: an epoch that schedules as many events as the one
// before the reset draws every slot from the clock's free list, including
// the slots of events the first epoch left pending.
func TestResetReusesSlots(t *testing.T) {
	v := NewVirtual(t0)
	noop := func(time.Time) {}
	epoch := func() {
		v.Reset(t0)
		for i := 0; i < 200; i++ {
			v.Schedule(t0.Add(time.Duration(i+1)*time.Second), noop)
		}
		v.AdvanceTo(t0.Add(time.Minute)) // leaves 140 events pending
	}
	epoch()
	if got := v.pendingEvents(); got != 140 {
		t.Fatalf("pending events = %d, want 140", got)
	}
	if allocs := testing.AllocsPerRun(20, epoch); allocs != 0 {
		t.Fatalf("an epoch after Reset allocated %v times, want 0", allocs)
	}
}

// TestResetStaleRefCannotCancel: an EventRef from before a reset cannot
// cancel the event that reuses its slot.
func TestResetStaleRefCannotCancel(t *testing.T) {
	v := NewVirtual(t0)
	stale := v.Schedule(t0.Add(time.Hour), func(time.Time) {})
	v.Reset(t0)
	fired := false
	fresh := v.Schedule(t0.Add(time.Second), func(time.Time) { fired = true })
	if fresh.ev != stale.ev {
		t.Fatal("the event after Reset did not reuse the freed slot")
	}
	stale.Cancel()
	if got := v.pendingEvents(); got != 1 {
		t.Fatalf("stale Cancel left %d pending events, want 1", got)
	}
	v.AdvanceTo(t0.Add(time.Minute))
	if !fired {
		t.Fatal("stale Cancel killed the recycled slot's new event")
	}
}
