package simclock

import (
	"fmt"
	"sync"
	"time"
)

// Engine is a deterministic discrete-event scheduler: a current instant plus
// a priority queue of timed callbacks. It is the core the rest of the
// simulator runs on — cloudsim schedules market events on it and the
// orchestrator advances it directly to each next trigger instead of polling.
//
// Determinism guarantees:
//
//   - events fire in (due time, schedule order): two events due at the same
//     instant fire in the order they were scheduled;
//   - a callback observes the clock set exactly to its due time;
//   - callbacks run one at a time, outside the engine lock, so they may
//     schedule or cancel further events.
//
// Event objects are pooled: once an event fires or is cancelled its slot is
// recycled for the next Schedule, so a long-running simulation reaches zero
// steady-state allocations per event. Slots are handed out as EventRef value
// handles whose generation counter makes Cancel safe against recycling.
//
// The zero value is an engine starting at the zero time; NewEngine sets the
// epoch explicitly. Engines are safe for concurrent use, though simulations
// are typically single-threaded per engine.
type Engine struct {
	mu     sync.Mutex
	now    time.Time
	events []*Event // binary heap ordered by (atNanos, seq)
	seq    uint64
	fired  uint64

	// Event pooling: recycled slots plus a slab the next fresh slots are
	// carved from. Slab blocks stay alive as long as any of their events
	// are referenced, so addresses handed out remain stable.
	free     []*Event
	slab     []Event
	slabUsed int

	// pool, when attached (SetNodePool), replaces the private free/slab
	// arena with a shared one so slots survive the engine (service shards
	// build one engine per scheduling wave). Nil for ordinary engines — the
	// private path above stays lock-free beyond e.mu.
	pool *NodePool

	// gate, when installed (SetAdvanceGate), is called at the top of every
	// time-advancing RunUntil, before any event fires. Read without the
	// lock: install before the simulation starts.
	gate func(target time.Time)
}

// An engine's first slab holds eventSlabMin Event slots, and each later one
// twice its predecessor, up to eventSlabSize: a short simulation (one
// campaign) pays for the slots it uses, a long one for few large slabs.
const (
	eventSlabMin  = 16
	eventSlabSize = 128
)

// NewEngine returns an engine whose clock starts at the given instant.
func NewEngine(start time.Time) *Engine {
	return &Engine{now: start}
}

// Now returns the engine's current instant.
func (e *Engine) Now() time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// Event is one pooled scheduler slot. Callers never construct or hold
// *Event directly — Schedule returns an EventRef handle instead, so a slot
// can be recycled the moment its event fires or is cancelled.
type Event struct {
	at      time.Time
	atNanos int64 // at.UnixNano(), cached for fast heap compares
	fn      func(now time.Time)
	seq     uint64
	idx     int // heap position; -1 once fired, cancelled, or popped
	gen     uint64
	owner   *Engine
}

// EventRef is a cancellation handle for one scheduled event. It is a small
// value (copy freely); the zero EventRef is valid and cancels nothing.
// Because event slots are recycled, the handle pairs the slot with the
// generation it was issued for: Cancel after the event has fired — even if
// the slot now carries a different event — is a safe no-op.
type EventRef struct {
	ev  *Event
	gen uint64
}

// Cancel removes the event from its engine's queue so it will never fire.
// Removal is O(log n) via the heap index. Safe to call on the zero EventRef,
// multiple times, and after the event has fired (no-op).
func (r EventRef) Cancel() {
	ev := r.ev
	if ev == nil || ev.owner == nil {
		return
	}
	e := ev.owner
	e.mu.Lock()
	defer e.mu.Unlock()
	if ev.gen == r.gen && ev.idx >= 0 {
		e.heapRemove(ev.idx)
		e.recycle(ev)
	}
}

// Pending reports whether the event is still queued (not fired, not
// cancelled).
func (r EventRef) Pending() bool {
	ev := r.ev
	if ev == nil || ev.owner == nil {
		return false
	}
	e := ev.owner
	e.mu.Lock()
	defer e.mu.Unlock()
	return ev.gen == r.gen && ev.idx >= 0
}

// alloc hands out a pooled event slot. Caller must hold e.mu. The slot's gen
// is preserved across reuse so stale EventRefs keep failing their check.
func (e *Engine) alloc() *Event {
	if e.pool != nil {
		ev := e.pool.get()
		ev.owner = e
		return ev
	}
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	if e.slabUsed == len(e.slab) {
		e.slab = make([]Event, min(max(2*len(e.slab), eventSlabMin), eventSlabSize))
		e.slabUsed = 0
	}
	ev := &e.slab[e.slabUsed]
	e.slabUsed++
	ev.owner = e
	return ev
}

// recycle returns a slot (already removed from the heap) to the free list.
// Caller must hold e.mu. Bumping gen invalidates every outstanding EventRef.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.idx = -1
	if e.pool != nil {
		e.pool.put(ev)
		return
	}
	e.free = append(e.free, ev)
}

// Schedule registers fn to run when the clock reaches at. Events scheduled
// at or before the current instant fire on the next advance. The returned
// EventRef may be cancelled.
func (e *Engine) Schedule(at time.Time, fn func(now time.Time)) EventRef {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.schedule(at, fn)
}

// schedule is Schedule with e.mu held.
func (e *Engine) schedule(at time.Time, fn func(now time.Time)) EventRef {
	e.seq++
	ev := e.alloc()
	ev.at = at
	ev.atNanos = at.UnixNano()
	ev.fn = fn
	ev.seq = e.seq
	e.heapPush(ev)
	return EventRef{ev: ev, gen: ev.gen}
}

// ScheduleAfter registers fn to run d after the current instant.
func (e *Engine) ScheduleAfter(d time.Duration, fn func(now time.Time)) EventRef {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.schedule(e.now.Add(d), fn)
}

// Peek returns the due time of the earliest pending event without firing
// it, or ok=false when the queue is empty.
func (e *Engine) Peek() (at time.Time, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.events) == 0 {
		return time.Time{}, false
	}
	return e.events[0].at, true
}

// popNext removes and recycles the earliest event, returning its callback
// and due time, or ok=false when either the queue is empty or the earliest
// event is due after limit (when bounded). It advances the clock to the due
// time (never backward) and counts the dispatch. Caller must hold e.mu; the
// returned callback must be invoked outside the lock.
func (e *Engine) popNext(bounded bool, limitNanos int64) (fn func(now time.Time), now time.Time, ok bool) {
	if len(e.events) == 0 {
		return nil, time.Time{}, false
	}
	ev := e.events[0]
	if bounded && ev.atNanos > limitNanos {
		return nil, time.Time{}, false
	}
	e.heapRemove(0)
	if ev.at.After(e.now) {
		e.now = ev.at
	}
	fn = ev.fn
	now = e.now
	e.fired++
	e.recycle(ev)
	return fn, now, true
}

// Step fires exactly the earliest pending event, advancing the clock to its
// due time. It reports whether an event fired.
func (e *Engine) Step() bool {
	e.mu.Lock()
	fn, now, ok := e.popNext(false, 0)
	e.mu.Unlock()
	if !ok {
		return false
	}
	fn(now)
	return true
}

// RunUntil fires every event due at or before target in deterministic order,
// leaves the clock at target, and returns the number of events fired. If
// target is before the current instant it is a no-op.
func (e *Engine) RunUntil(target time.Time) int {
	if e.gate != nil {
		e.mu.Lock()
		due := target.After(e.now)
		e.mu.Unlock()
		if due {
			e.gate(target)
		}
	}
	targetNanos := target.UnixNano()
	fired := 0
	for {
		e.mu.Lock()
		if target.Before(e.now) {
			e.mu.Unlock()
			return fired
		}
		fn, now, ok := e.popNext(true, targetNanos)
		if !ok {
			e.now = target
			e.mu.Unlock()
			return fired
		}
		e.mu.Unlock()
		fn(now)
		fired++
	}
}

// RunUntilIdle fires all pending events regardless of their due time,
// advancing the clock as it goes. It returns the number of events fired and
// errors out after limit events to guard against runaway self-scheduling.
func (e *Engine) RunUntilIdle(limit int) (int, error) {
	fired := 0
	for {
		if _, ok := e.Peek(); !ok {
			return fired, nil
		}
		if fired >= limit {
			return fired, fmt.Errorf("simclock: exceeded %d events without becoming idle", limit)
		}
		e.Step()
		fired++
	}
}

// PendingEvents reports how many events are queued.
func (e *Engine) PendingEvents() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.events)
}

// FiredEvents reports how many events have been dispatched over the
// engine's lifetime — a cheap progress/efficiency counter for benchmarks.
func (e *Engine) FiredEvents() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fired
}

// The heap below is a concrete-typed binary heap ordered by (atNanos, seq)
// so same-instant events fire in insertion order, keeping simulations
// deterministic. A hand-rolled heap (rather than container/heap) avoids the
// interface dispatch on every compare/swap in the hottest loop of the
// simulator, and the idx field kept current under every move lets Cancel
// remove mid-heap entries in O(log n).

// less orders the heap by (due instant, schedule order).
func eventLess(a, b *Event) bool {
	if a.atNanos == b.atNanos {
		return a.seq < b.seq
	}
	return a.atNanos < b.atNanos
}

// heapPush appends ev and restores heap order. Caller must hold e.mu.
func (e *Engine) heapPush(ev *Event) {
	ev.idx = len(e.events)
	e.events = append(e.events, ev)
	e.siftUp(ev.idx)
}

// heapRemove removes the event at heap position i. Caller must hold e.mu.
func (e *Engine) heapRemove(i int) {
	h := e.events
	n := len(h) - 1
	removed := h[i]
	if i != n {
		h[i], h[n] = h[n], h[i]
		h[i].idx = i
	}
	h[n] = nil
	e.events = h[:n]
	if i < n {
		e.siftDown(i)
		e.siftUp(i)
	}
	removed.idx = -1
}

func (e *Engine) siftUp(i int) {
	h := e.events
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

func (e *Engine) siftDown(i int) {
	h := e.events
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
