package simclock

import (
	"testing"
	"time"
)

// TestNodePoolReuseAcrossEngines pins the cross-engine recycling contract:
// a second engine on the same pool reuses the first engine's slots instead
// of carving fresh ones.
func TestNodePoolReuseAcrossEngines(t *testing.T) {
	start := time.Date(2017, 4, 26, 0, 0, 0, 0, time.UTC)
	pool := NewNodePool()

	e1 := NewEngine(start)
	e1.SetNodePool(pool)
	fired := 0
	for i := 0; i < 50; i++ {
		e1.ScheduleAfter(time.Duration(i)*time.Second, func(time.Time) { fired++ })
	}
	e1.RunUntil(start.Add(time.Minute))
	if fired != 50 {
		t.Fatalf("fired %d events, want 50", fired)
	}
	if got := pool.FreeSlots(); got != 50 {
		t.Fatalf("pool has %d free slots after drain, want 50", got)
	}

	e2 := NewEngine(start)
	e2.SetNodePool(pool)
	handedBefore := pool.Handed()
	for i := 0; i < 50; i++ {
		e2.ScheduleAfter(time.Second, func(time.Time) {})
	}
	if got := pool.FreeSlots(); got != 0 {
		t.Fatalf("pool has %d free slots with 50 pending on e2, want 0 (reuse)", got)
	}
	if got := pool.Handed() - handedBefore; got != 50 {
		t.Fatalf("pool handed %d slots to e2, want 50", got)
	}
	e2.RunUntil(start.Add(2 * time.Second))
}

// TestNodePoolStaleRefSafe pins EventRef safety across engine boundaries:
// cancelling a ref whose slot has been recycled into a different engine is a
// no-op (the generation check fails), and the new engine's event still fires.
func TestNodePoolStaleRefSafe(t *testing.T) {
	start := time.Date(2017, 4, 26, 0, 0, 0, 0, time.UTC)
	pool := NewNodePool()

	e1 := NewEngine(start)
	e1.SetNodePool(pool)
	ref := e1.ScheduleAfter(time.Second, func(time.Time) {})
	e1.RunUntil(start.Add(2 * time.Second)) // fires; slot back to pool

	e2 := NewEngine(start)
	e2.SetNodePool(pool)
	fired := false
	e2.ScheduleAfter(time.Second, func(time.Time) { fired = true }) // reuses the slot
	ref.Cancel()                                                    // stale: must not cancel e2's event
	if ref.Pending() {
		t.Fatal("stale ref reports pending")
	}
	e2.RunUntil(start.Add(2 * time.Second))
	if !fired {
		t.Fatal("stale Cancel killed the recycled slot's new event")
	}
}

// TestReleaseNodes pins end-of-wave recycling: pending events that never
// fired flow back to the pool when the engine retires.
func TestReleaseNodes(t *testing.T) {
	start := time.Date(2017, 4, 26, 0, 0, 0, 0, time.UTC)
	pool := NewNodePool()
	e := NewEngine(start)
	e.SetNodePool(pool)
	for i := 0; i < 20; i++ {
		e.ScheduleAfter(time.Hour, func(time.Time) { t.Fatal("released event fired") })
	}
	e.RunUntil(start.Add(time.Minute))
	if n := e.ReleaseNodes(); n != 20 {
		t.Fatalf("released %d nodes, want 20", n)
	}
	if got := pool.FreeSlots(); got != 20 {
		t.Fatalf("pool has %d free slots, want 20", got)
	}
	if got := e.PendingEvents(); got != 0 {
		t.Fatalf("%d events still pending after release", got)
	}
	// The released engine stays usable (nothing fires: queue is empty).
	e.RunUntil(start.Add(2 * time.Hour))
}
