// Package simclock provides the simulator's one clock: Virtual, a
// deterministic discrete-event scheduler. Every simulated campaign runs on
// one, so a multi-day hyper-parameter-tuning campaign replays in
// milliseconds of wall time. Simulation cores that know their next trigger
// time advance the clock straight to it instead of polling.
package simclock

import "time"

// Virtual is a deterministic discrete-event clock: a current instant plus a
// priority queue of timed callbacks. cloudsim schedules market events on it
// and the orchestrator advances it directly to each next trigger.
//
// Determinism guarantees:
//
//   - events fire in (due time, schedule order): two events due at the same
//     instant fire in the order they were scheduled;
//   - a callback observes the clock set exactly to its due time;
//   - callbacks run one at a time, after their event has left the queue, so
//     they may schedule or cancel further events.
//
// Events are pooled: once an event fires or is cancelled its slot is
// recycled for the next Schedule, so a long-running simulation reaches zero
// steady-state allocations per event. Slots are handed out as EventRef value
// handles whose generation counter makes Cancel safe against recycling.
//
// A clock has one owner: it takes no lock, so every call on it, and on the
// EventRefs it hands out, must come from one goroutine at a time. The zero
// value is not usable; construct with NewVirtual.
type Virtual struct {
	now    time.Time
	events []*event // binary heap ordered by (atNanos, seq)
	seq    uint64

	// Event pooling: recycled slots plus a slab the next fresh slots are
	// carved from. Slab blocks stay alive as long as any of their events
	// are referenced, so addresses handed out remain stable.
	free     []*event
	slab     []event
	slabUsed int
}

// A clock's first slab holds eventSlabMin event slots, and each later one
// twice its predecessor, up to eventSlabSize: a short simulation (one
// campaign) pays for the slots it uses, a long one for few large slabs.
const (
	eventSlabMin  = 16
	eventSlabSize = 128
)

// NewVirtual returns a virtual clock starting at the given instant.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now returns the clock's current instant.
func (v *Virtual) Now() time.Time { return v.now }

// event is one pooled scheduler slot. Schedule hands out an EventRef
// handle instead of the slot, so a slot can be recycled the moment its
// event fires or is cancelled.
type event struct {
	at      time.Time
	atNanos int64 // at.UnixNano(), cached for fast heap compares
	fn      func(now time.Time)
	seq     uint64
	idx     int // heap position; -1 once fired, cancelled, or popped
	gen     uint64
	owner   *Virtual
}

// EventRef is a cancellation handle for one scheduled event. It is a small
// value (copy freely); the zero EventRef is valid and cancels nothing.
// Because event slots are recycled, the handle pairs the slot with the
// generation it was issued for: Cancel after the event has fired — even if
// the slot now carries a different event — is a safe no-op.
type EventRef struct {
	ev  *event
	gen uint64
}

// Cancel removes the event from its clock's queue so it will never fire.
// Removal is O(log n) via the heap index. Safe to call on the zero EventRef,
// multiple times, and after the event has fired (no-op).
func (r EventRef) Cancel() {
	ev := r.ev
	if ev == nil || ev.owner == nil {
		return
	}
	if ev.gen == r.gen && ev.idx >= 0 {
		v := ev.owner
		v.heapRemove(ev.idx)
		v.recycle(ev)
	}
}

// alloc hands out a pooled event slot. The slot's gen is preserved across
// reuse so stale EventRefs keep failing their check.
func (v *Virtual) alloc() *event {
	if n := len(v.free); n > 0 {
		ev := v.free[n-1]
		v.free[n-1] = nil
		v.free = v.free[:n-1]
		return ev
	}
	if v.slabUsed == len(v.slab) {
		v.slab = make([]event, min(max(2*len(v.slab), eventSlabMin), eventSlabSize))
		v.slabUsed = 0
	}
	ev := &v.slab[v.slabUsed]
	v.slabUsed++
	ev.owner = v
	return ev
}

// recycle returns a slot (already removed from the heap) to the free list.
// Bumping gen invalidates every outstanding EventRef.
func (v *Virtual) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.idx = -1
	v.free = append(v.free, ev)
}

// Schedule registers fn to run when the clock reaches at. Events scheduled
// at or before the current instant fire on the next advance. The returned
// EventRef may be cancelled.
func (v *Virtual) Schedule(at time.Time, fn func(now time.Time)) EventRef {
	v.seq++
	ev := v.alloc()
	ev.at = at
	ev.atNanos = at.UnixNano()
	ev.fn = fn
	ev.seq = v.seq
	v.heapPush(ev)
	return EventRef{ev: ev, gen: ev.gen}
}

// NextEventTime returns the due time of the earliest pending event, or
// ok=false when the queue is empty.
func (v *Virtual) NextEventTime() (at time.Time, ok bool) {
	if len(v.events) == 0 {
		return time.Time{}, false
	}
	return v.events[0].at, true
}

// AdvanceTo moves the clock to target, firing every pending event due at or
// before target in (due time, schedule order), and leaves the clock at
// target. Each event leaves the queue and its slot is recycled before its
// callback runs. If target is before the current time, it is a no-op.
func (v *Virtual) AdvanceTo(target time.Time) {
	targetNanos := target.UnixNano()
	for !target.Before(v.now) {
		if len(v.events) == 0 || v.events[0].atNanos > targetNanos {
			v.now = target
			return
		}
		ev := v.events[0]
		v.heapRemove(0)
		if ev.at.After(v.now) {
			v.now = ev.at
		}
		fn, now := ev.fn, v.now
		v.recycle(ev)
		fn(now)
	}
}

// Reset cancels every pending event into the clock's free list and moves
// the clock to start, backward if need be. EventRefs handed out before the
// reset cancel nothing after it. A service shard resets its clock at the
// end of each wave, so events the wave left pending (revocations past
// campaign end) never fire and the next wave reuses their slots.
func (v *Virtual) Reset(start time.Time) {
	for _, ev := range v.events {
		v.recycle(ev)
	}
	v.events = v.events[:0]
	v.now = start
}

// The heap below is a concrete-typed binary heap ordered by (atNanos, seq)
// so same-instant events fire in insertion order, keeping simulations
// deterministic. A hand-rolled heap (rather than container/heap) avoids the
// interface dispatch on every compare/swap in the hottest loop of the
// simulator, and the idx field kept current under every move lets Cancel
// remove mid-heap entries in O(log n).

// eventLess orders the heap by (due instant, schedule order).
func eventLess(a, b *event) bool {
	if a.atNanos == b.atNanos {
		return a.seq < b.seq
	}
	return a.atNanos < b.atNanos
}

// heapPush appends ev and restores heap order.
func (v *Virtual) heapPush(ev *event) {
	ev.idx = len(v.events)
	v.events = append(v.events, ev)
	v.siftUp(ev.idx)
}

// heapRemove removes the event at heap position i.
func (v *Virtual) heapRemove(i int) {
	h := v.events
	n := len(h) - 1
	removed := h[i]
	if i != n {
		h[i], h[n] = h[n], h[i]
		h[i].idx = i
	}
	h[n] = nil
	v.events = h[:n]
	if i < n {
		v.siftDown(i)
		v.siftUp(i)
	}
	removed.idx = -1
}

func (v *Virtual) siftUp(i int) {
	h := v.events
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].idx = i
		i = parent
	}
	h[i] = ev
	ev.idx = i
}

func (v *Virtual) siftDown(i int) {
	h := v.events
	n := len(h)
	ev := h[i]
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && eventLess(h[right], h[left]) {
			child = right
		}
		if !eventLess(h[child], ev) {
			break
		}
		h[i] = h[child]
		h[i].idx = i
		i = child
	}
	h[i] = ev
	ev.idx = i
}
