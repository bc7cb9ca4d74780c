package cloudsim

import "time"

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
	cur, _, ok := c.quote(typeName)
	if !ok {
		return time.Time{}, false
	}
	return c.markets.store.NextAfterCursor(&cur.now, c.nowNanos())
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
