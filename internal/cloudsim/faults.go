package cloudsim

import (
	"errors"
	"fmt"
	"time"
)

// This file is the cluster's fault-injection surface. Scenario specs
// (internal/scenario) compose these primitives into named failure regimes:
//
//   - Blackouts model per-type capacity droughts: spot requests for the
//     affected market fail outright for the window's duration, regardless of
//     the offered maximum price (the ICE — "insufficient capacity error" —
//     face of the real spot market, which price traces alone cannot express).
//   - Mass preemptions model correlated capacity reclaims: at one instant,
//     every running spot instance (optionally of one type) receives its
//     termination notice and is revoked NoticeLeadTime later, regardless of
//     price. This is the doom-window event fallback policies exist for.
//
// Both are deterministic: they are installed before the campaign starts and
// fire on the virtual clock, so a seeded scenario replays bit-identically.

// ErrCapacityUnavailable is returned by RequestSpot while the market is
// inside an installed blackout window. Like ErrPriceAboveMax it is market
// state, not a configuration error: callers should retry once the cluster's
// observable state changes (NextInterestingAt includes blackout edges).
var ErrCapacityUnavailable = errors.New("cloudsim: spot capacity unavailable")

// Blackout is one capacity-unavailability window: spot requests for TypeName
// (every market when TypeName is empty) fail during [From, To).
type Blackout struct {
	TypeName string
	From, To time.Time
}

// AddBlackout installs a capacity-unavailability window. Windows may overlap
// and may name a type absent from the catalog only if empty (which matches
// all markets). Already-running instances are unaffected — a blackout stops
// new requests, not live capacity.
func (c *Cluster) AddBlackout(b Blackout) error {
	if !b.From.Before(b.To) {
		return fmt.Errorf("cloudsim: blackout window from %v >= to %v", b.From, b.To)
	}
	if b.TypeName != "" {
		if _, ok := c.markets.catalog.Lookup(b.TypeName); !ok {
			return fmt.Errorf("cloudsim: blackout names unknown instance type %q", b.TypeName)
		}
	}
	c.blackouts = append(c.blackouts, b)
	return nil
}

// blackedOut reports whether a spot request for typeName fails at instant t.
func (c *Cluster) blackedOut(typeName string, t time.Time) bool {
	for _, b := range c.blackouts {
		if b.TypeName != "" && b.TypeName != typeName {
			continue
		}
		if !t.Before(b.From) && t.Before(b.To) {
			return true
		}
	}
	return false
}

// nextBlackoutEdge returns the earliest future blackout boundary (start or
// end) relevant to any of the named markets (all markets when names is nil).
// Blackout edges are observable state changes: a blocked deployment can only
// succeed once a window opens or closes, so schedulers must be able to wake
// on them.
func (c *Cluster) nextBlackoutEdge(names []string, now time.Time) (time.Time, bool) {
	relevant := func(b Blackout) bool {
		if b.TypeName == "" || names == nil {
			return true
		}
		for _, n := range names {
			if n == b.TypeName {
				return true
			}
		}
		return false
	}
	var best time.Time
	found := false
	consider := func(at time.Time) {
		if !at.After(now) {
			return
		}
		if !found || at.Before(best) {
			best, found = at, true
		}
	}
	for _, b := range c.blackouts {
		if !relevant(b) {
			continue
		}
		consider(b.From)
		consider(b.To)
	}
	return best, found
}

// SchedulePreemption arranges a correlated mass preemption: at instant `at`,
// every running spot instance (restricted to typeName when non-empty)
// receives its termination notice immediately and is revoked NoticeLeadTime
// later, regardless of its maximum price — a capacity reclaim rather than a
// price crossing. Instances already noticed keep their earlier notice but
// are revoked at the earlier of the two revocation instants. On-demand
// instances are reliable capacity and are never preempted.
//
// The first-instance-hour refund rule applies as for any provider
// revocation: instances younger than RefundWindow at revocation time are
// fully refunded.
func (c *Cluster) SchedulePreemption(at time.Time, typeName string) error {
	if typeName != "" {
		if _, ok := c.markets.catalog.Lookup(typeName); !ok {
			return fmt.Errorf("cloudsim: preemption names unknown instance type %q", typeName)
		}
	}
	if at.Before(c.clk.Now()) {
		return fmt.Errorf("cloudsim: preemption at %v is in the past (now %v)", at, c.clk.Now())
	}
	c.schedule(at, func(now time.Time) {
		// RunningInstances sorts by ID, so notice delivery order — and with
		// it every downstream orchestration decision — is deterministic.
		for _, inst := range c.RunningInstances() {
			if inst.OnDemand {
				continue
			}
			if typeName != "" && inst.Type.Name != typeName {
				continue
			}
			c.preempt(inst, now)
		}
	})
	return nil
}

// preempt force-revokes one spot instance: notice now, revocation
// NoticeLeadTime later. Pending market events are superseded unless they
// fire even earlier.
func (c *Cluster) preempt(inst *Instance, now time.Time) {
	if !inst.Running() {
		return
	}
	revokeAt := now.Add(NoticeLeadTime)
	if !inst.RevokeAt.IsZero() && inst.RevokeAt.Before(revokeAt) {
		// The market was going to revoke it sooner anyway; keep that.
		revokeAt = inst.RevokeAt
	}
	inst.noticeEv.Cancel()
	inst.revokeEv.Cancel()
	inst.RevokeAt = revokeAt
	if inst.State == StateRunning {
		// Already-noticed instances keep their earlier NoticeAt: no new
		// notice is delivered, only the revocation may move up.
		inst.NoticeAt = now
		inst.State = StateNoticed
		if inst.onNotice != nil {
			inst.onNotice(inst, now)
		}
	}
	inst.revokeEv = c.scheduleFor(revokeAt, 2*inst.n+1)
}
