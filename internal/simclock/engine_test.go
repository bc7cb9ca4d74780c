package simclock

import (
	"testing"
	"time"
)

// TestEnginePeekStep: NextEventTime peeks at the earliest pending event,
// and advancing to it steps exactly that event, leaving the clock at its
// due time.
func TestEnginePeekStep(t *testing.T) {
	v := NewVirtual(t0)
	if _, ok := v.NextEventTime(); ok {
		t.Fatal("NextEventTime on an empty clock reported an event")
	}
	var order []int
	v.Schedule(t0.Add(2*time.Minute), func(time.Time) { order = append(order, 2) })
	v.Schedule(t0.Add(time.Minute), func(time.Time) { order = append(order, 1) })
	at, ok := v.NextEventTime()
	if !ok || !at.Equal(t0.Add(time.Minute)) {
		t.Fatalf("NextEventTime = %v,%v, want earliest event", at, ok)
	}
	v.AdvanceTo(at)
	if got := v.Now(); !got.Equal(t0.Add(time.Minute)) {
		t.Fatalf("AdvanceTo left clock at %v", got)
	}
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("AdvanceTo fired %v, want earliest only", order)
	}
	if v.pendingEvents() != 1 {
		t.Fatalf("pending events = %d after firing one", v.pendingEvents())
	}
}

// TestEngineRunUntilBoundary: AdvanceTo runs events until its target,
// inclusive, and a target in the past runs nothing.
func TestEngineRunUntilBoundary(t *testing.T) {
	v := NewVirtual(t0)
	hits := 0
	v.Schedule(t0.Add(time.Minute), func(time.Time) { hits++ })
	v.Schedule(t0.Add(2*time.Minute), func(time.Time) { hits++ })
	// AdvanceTo is inclusive of events due exactly at the target.
	v.AdvanceTo(t0.Add(time.Minute))
	if hits != 1 {
		t.Fatalf("AdvanceTo fired %d events, want 1", hits)
	}
	if got := v.Now(); !got.Equal(t0.Add(time.Minute)) {
		t.Fatalf("clock at %v after AdvanceTo", got)
	}
	// A target in the past is a no-op.
	v.AdvanceTo(t0)
	if hits != 1 {
		t.Fatalf("AdvanceTo(past) fired %d events", hits-1)
	}
}

// TestEngineSameInstantDeterminism pins the per-event determinism guarantee:
// N events scheduled at one instant fire in schedule order, even when they
// were pushed interleaved with events at other instants.
func TestEngineSameInstantDeterminism(t *testing.T) {
	v := NewVirtual(t0)
	at := t0.Add(time.Hour)
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		v.Schedule(at, func(time.Time) { order = append(order, i) })
		// Interleave decoys at other instants to churn the heap layout.
		v.Schedule(at.Add(time.Duration(8-i)*time.Minute), func(time.Time) {})
		v.Schedule(at.Add(-time.Duration(i+1)*time.Second), func(time.Time) {})
	}
	v.AdvanceTo(at)
	if len(order) != 8 {
		t.Fatalf("fired %d same-instant events, want 8", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("same-instant events fired out of schedule order: %v", order)
		}
	}
}

// TestEngineCancelDuringDispatch: a callback cancels a later event due at
// the same instant; the cancelled event must not fire even though it was
// already queued when dispatch began.
func TestEngineCancelDuringDispatch(t *testing.T) {
	v := NewVirtual(t0)
	at := t0.Add(time.Minute)
	fired := make([]bool, 3)
	var victim EventRef
	v.Schedule(at, func(time.Time) {
		fired[0] = true
		victim.Cancel()
	})
	victim = v.Schedule(at, func(time.Time) { fired[1] = true })
	v.Schedule(at, func(time.Time) { fired[2] = true })
	v.AdvanceTo(at)
	if !fired[0] || fired[1] || !fired[2] {
		t.Fatalf("fired = %v, want [true false true]", fired)
	}
	// Cancelling an already-fired event is a no-op.
	victim.Cancel()
}

// TestEngineCancelIsEager: cancellation removes the event from the queue
// immediately (O(log n) heap removal), so NextEventTime and the queue
// length never see it.
func TestEngineCancelIsEager(t *testing.T) {
	v := NewVirtual(t0)
	fired := 0
	evs := make([]EventRef, 100)
	for i := range evs {
		evs[i] = v.Schedule(t0.Add(time.Duration(i+1)*time.Second), func(time.Time) { fired++ })
	}
	// Cancel a mid-heap slice, including the root.
	for i := 0; i < 50; i++ {
		evs[i].Cancel()
		evs[i].Cancel() // double-cancel must be safe
	}
	if got := v.pendingEvents(); got != 50 {
		t.Fatalf("pending events = %d after cancellations, want 50", got)
	}
	at, ok := v.NextEventTime()
	if !ok || !at.Equal(t0.Add(51*time.Second)) {
		t.Fatalf("NextEventTime = %v, want first surviving event", at)
	}
	v.AdvanceTo(t0.Add(time.Hour))
	if fired != 50 {
		t.Fatalf("fired %d, want the 50 survivors", fired)
	}
}

func TestEngineCallbackReschedulesItself(t *testing.T) {
	v := NewVirtual(t0)
	hits := 0
	var rearm func(now time.Time)
	rearm = func(now time.Time) {
		hits++
		if hits < 4 {
			v.Schedule(now.Add(time.Minute), rearm)
		}
	}
	v.Schedule(t0.Add(time.Minute), rearm)
	v.AdvanceTo(t0.Add(24 * time.Hour))
	if hits != 4 {
		t.Fatalf("hits = %d, want 4", hits)
	}
	if _, ok := v.NextEventTime(); ok {
		t.Fatal("clock not idle after the chain ended")
	}
}

// TestEngineSteadyStateAllocs pins the pooling contract: once the slab and
// free list are warm, a schedule→fire cycle allocates nothing.
func TestEngineSteadyStateAllocs(t *testing.T) {
	v := NewVirtual(t0)
	noop := func(time.Time) {}
	// Warm the pool past one slab and the heap slice's growth.
	for i := 0; i < 300; i++ {
		v.Schedule(v.Now().Add(time.Second), noop)
	}
	v.AdvanceTo(v.Now().Add(time.Hour))

	allocs := testing.AllocsPerRun(200, func() {
		due := v.Now().Add(time.Second)
		v.Schedule(due, noop)
		v.AdvanceTo(due)
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+fire allocated %v times per run, want 0", allocs)
	}
}

// TestEngineCancelAfterRecycleIsNoOp: a stale EventRef whose slot has been
// recycled for a newer event must not cancel that newer event.
func TestEngineCancelAfterRecycleIsNoOp(t *testing.T) {
	v := NewVirtual(t0)
	fired := 0
	stale := v.Schedule(t0.Add(time.Second), func(time.Time) { fired++ })
	v.AdvanceTo(t0.Add(time.Second)) // fires and recycles the slot
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	// The next schedule reuses the recycled slot (same clock, empty heap).
	v.Schedule(v.Now().Add(time.Second), func(time.Time) { fired++ })
	stale.Cancel() // must not touch the recycled slot's new occupant
	if v.pendingEvents() != 1 {
		t.Fatal("stale Cancel removed a recycled slot's new event")
	}
	v.AdvanceTo(v.Now().Add(time.Minute))
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}
