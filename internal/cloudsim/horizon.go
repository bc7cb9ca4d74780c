package cloudsim

import (
	"time"

	"spottune/internal/simclock"
)

// This file is the cluster's "next interesting instant" surface: instead of
// being sampled every poll tick, the cluster tells schedulers when its state
// can next change — the next price tick of a market, the next termination
// notice or revocation of a running instance, or a refund-window boundary.
// A discrete-event orchestrator advances the clock directly to the earliest
// of these (or to its own trial triggers, whichever comes first).

// NextPriceTick returns the first time strictly after the current instant at
// which the market price of the given type changes, or ok=false when the
// trace is flat for the rest of the simulation (or the type is unknown).
// ok=false is the hold-last-price contract, not an error: a trace that ends
// before the campaign horizon holds its final price forever, so the market
// is genuinely quiescent and schedulers must not expect another tick. The
// store answers through the market's now cursor (market.Store.NextAfter),
// so the instant is in UTC.
func (c *Cluster) NextPriceTick(typeName string) (time.Time, bool) {
	slot, ok := c.markets.slot(typeName)
	if !ok {
		return time.Time{}, false
	}
	return c.markets.store.NextAfterCursor(&c.cursors[slot].now, c.nowNanos())
}

// NextMarketTick returns the earliest upcoming price change across the given
// type names (every market when names is nil), or ok=false when all traces
// are flat from here on.
func (c *Cluster) NextMarketTick(names []string) (time.Time, bool) {
	if names == nil {
		names = c.markets.catalog.Names()
	}
	var best time.Time
	found := false
	for _, name := range names {
		at, ok := c.NextPriceTick(name)
		if ok && (!found || at.Before(best)) {
			best, found = at, true
		}
	}
	return best, found
}

// NextInstanceEvent returns the earliest pending notice or revocation among
// running instances, or ok=false when no instance has a scheduled market
// event. (These events also sit on the cluster's clock queue; this method
// exposes them without firing anything.)
func (c *Cluster) NextInstanceEvent() (time.Time, bool) {
	now := c.clk.Now()
	var best time.Time
	found := false
	consider := func(at time.Time) {
		if at.IsZero() || at.Before(now) {
			return
		}
		if !found || at.Before(best) {
			best, found = at, true
		}
	}
	for _, inst := range c.instances {
		if !inst.Running() {
			continue
		}
		if inst.State == StateRunning {
			consider(inst.NoticeAt)
		}
		consider(inst.RevokeAt)
	}
	return best, found
}

// schedule puts fn on the cluster's clock and keeps the event for
// NextEventTime.
func (c *Cluster) schedule(at time.Time, fn func(now time.Time)) simclock.EventRef {
	return c.track(c.clk.Schedule(at, fn), at)
}

// scheduleFor puts instance event arg (see instanceEvents) on the
// cluster's clock and keeps it for NextEventTime.
func (c *Cluster) scheduleFor(at time.Time, arg int) simclock.EventRef {
	return c.track(c.clk.ScheduleFor(at, (*instanceEvents)(c), arg), at)
}

// clusterEvent is one entry of the cluster's event heap: an event it put
// on its clock, ordered by due time and then by schedule order.
type clusterEvent struct {
	at  int64 // due time, UnixNano
	seq uint64
	ref simclock.EventRef
}

func (a clusterEvent) before(b clusterEvent) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// track pushes a scheduled event onto the cluster's event heap. A heap
// that has doubled since its last compaction first drops every event that
// has left the clock, so it holds about twice the pending events at most.
func (c *Cluster) track(ev simclock.EventRef, at time.Time) simclock.EventRef {
	if len(c.events) >= 2*c.compacted+16 {
		n := 0
		for _, e := range c.events {
			if _, ok := e.ref.Pending(); ok {
				c.events[n] = e
				n++
			}
		}
		clear(c.events[n:])
		c.events = c.events[:n]
		for i := n/2 - 1; i >= 0; i-- {
			c.siftDown(i)
		}
		c.compacted = n
	}
	c.eventSeq++
	c.events = append(c.events, clusterEvent{at: at.UnixNano(), seq: c.eventSeq, ref: ev})
	for i := len(c.events) - 1; i > 0; {
		p := (i - 1) / 2
		if !c.events[i].before(c.events[p]) {
			break
		}
		c.events[i], c.events[p] = c.events[p], c.events[i]
		i = p
	}
	return ev
}

// siftDown restores the heap order below entry i.
func (c *Cluster) siftDown(i int) {
	h := c.events
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h[l].before(h[m]) {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h[r].before(h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// NextEventTime returns the due time of the earliest pending event the
// cluster put on its clock (a notice, a revocation, a mass preemption), the
// first scheduled among equal instants, or ok=false when none is pending.
// Events that fired, were cancelled or were dropped by the clock's Reset
// leave the answer, and so do the events of other clusters sharing the
// clock: in a private world the answer is the clock's NextEventTime, to the
// bit.
//
// The events sit in a heap, earliest first, ties in schedule order. An
// event leaves the clock without telling the cluster, so the heap's top is
// checked here and dropped while it is no longer pending: each event is
// pushed and dropped once, and a call costs a lookup plus the drops.
func (c *Cluster) NextEventTime() (at time.Time, ok bool) {
	for len(c.events) > 0 {
		if at, ok := c.events[0].ref.Pending(); ok {
			return at, true
		}
		last := len(c.events) - 1
		c.events[0] = c.events[last]
		c.events[last] = clusterEvent{}
		c.events = c.events[:last]
		c.siftDown(0)
	}
	return time.Time{}, false
}

// NextInterestingAt returns the earliest instant at which the cluster's
// observable state can change: a price tick in one of the named markets
// (all markets when names is nil), a pending notice or revocation, a
// blackout window opening or closing over a named market, or a running
// instance crossing its refund-window boundary. ok=false means the cluster
// is fully quiescent from here on.
func (c *Cluster) NextInterestingAt(names []string) (time.Time, bool) {
	var best time.Time
	found := false
	consider := func(at time.Time, ok bool) {
		if !ok {
			return
		}
		if !found || at.Before(best) {
			best, found = at, true
		}
	}
	consider(c.NextMarketTick(names))
	consider(c.NextInstanceEvent())
	now := c.clk.Now()
	consider(c.nextBlackoutEdge(names, now))
	for _, inst := range c.instances {
		if !inst.Running() || inst.OnDemand {
			// On-demand instances are never revoked and never refunded,
			// so neither market events nor the refund-window boundary
			// make them interesting; a mixed spot/on-demand fleet's
			// horizon is set by its spot members alone.
			continue
		}
		if dl := inst.RefundDeadline(); dl.After(now) {
			consider(dl, true)
		}
	}
	return best, found
}
