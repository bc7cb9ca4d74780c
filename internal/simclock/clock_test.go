package simclock

import (
	"testing"
	"time"
)

var t0 = time.Date(2017, 4, 26, 0, 0, 0, 0, time.UTC)

func TestVirtualNow(t *testing.T) {
	v := NewVirtual(t0)
	if got := v.Now(); !got.Equal(t0) {
		t.Fatalf("Now() = %v, want %v", got, t0)
	}
}

func TestScheduleFiresInOrder(t *testing.T) {
	v := NewVirtual(t0)
	var order []int
	v.Schedule(t0.Add(2*time.Minute), func(time.Time) { order = append(order, 2) })
	v.Schedule(t0.Add(1*time.Minute), func(time.Time) { order = append(order, 1) })
	v.Schedule(t0.Add(3*time.Minute), func(time.Time) { order = append(order, 3) })
	v.AdvanceTo(t0.Add(10 * time.Minute))
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired in order %v, want [1 2 3]", order)
	}
}

func TestSameInstantInsertionOrder(t *testing.T) {
	v := NewVirtual(t0)
	at := t0.Add(time.Minute)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		v.Schedule(at, func(time.Time) { order = append(order, i) })
	}
	v.AdvanceTo(at)
	for i, got := range order {
		if got != i {
			t.Fatalf("same-instant events fired out of insertion order: %v", order)
		}
	}
}

func TestEventSeesDueTime(t *testing.T) {
	v := NewVirtual(t0)
	due := t0.Add(5 * time.Minute)
	var seen time.Time
	v.Schedule(due, func(now time.Time) { seen = now })
	v.AdvanceTo(t0.Add(time.Hour))
	if !seen.Equal(due) {
		t.Fatalf("event saw now=%v, want due time %v", seen, due)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	v := NewVirtual(t0)
	fired := false
	ev := v.Schedule(t0.Add(time.Minute), func(time.Time) { fired = true })
	ev.Cancel()
	v.AdvanceTo(t0.Add(time.Hour))
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelNilSafe(t *testing.T) {
	var ev EventRef
	ev.Cancel() // must not panic
}

func TestCallbackCanScheduleMore(t *testing.T) {
	v := NewVirtual(t0)
	var hits int
	var rearm func(now time.Time)
	rearm = func(now time.Time) {
		hits++
		if hits < 5 {
			v.Schedule(now.Add(time.Minute), rearm)
		}
	}
	v.Schedule(t0.Add(time.Minute), rearm)
	v.AdvanceTo(t0.Add(time.Hour))
	if hits != 5 {
		t.Fatalf("chained events fired %d times, want 5", hits)
	}
}

func TestAdvanceToPastIsNoop(t *testing.T) {
	v := NewVirtual(t0)
	v.AdvanceTo(t0.Add(time.Hour))
	v.AdvanceTo(t0) // earlier than now
	if got := v.Now(); !got.Equal(t0.Add(time.Hour)) {
		t.Fatalf("AdvanceTo(past) moved clock to %v", got)
	}
}

func TestPendingEvents(t *testing.T) {
	v := NewVirtual(t0)
	e1 := v.Schedule(t0.Add(time.Minute), func(time.Time) {})
	v.Schedule(t0.Add(2*time.Minute), func(time.Time) {})
	if got := v.pendingEvents(); got != 2 {
		t.Fatalf("pending events = %d, want 2", got)
	}
	e1.Cancel()
	if got := v.pendingEvents(); got != 1 {
		t.Fatalf("pending events after cancel = %d, want 1", got)
	}
}

func TestNextEventTime(t *testing.T) {
	v := NewVirtual(t0)
	if _, ok := v.NextEventTime(); ok {
		t.Fatal("NextEventTime on empty queue reported ok")
	}
	e := v.Schedule(t0.Add(time.Minute), func(time.Time) {})
	at, ok := v.NextEventTime()
	if !ok || !at.Equal(t0.Add(time.Minute)) {
		t.Fatalf("NextEventTime = %v,%v", at, ok)
	}
	e.Cancel()
	if _, ok := v.NextEventTime(); ok {
		t.Fatal("NextEventTime returned cancelled event")
	}
}
