// Package cloudsim is a discrete-event simulator of the transient-resource
// cloud SpotTune runs on (§II-A): EC2-like spot markets with user-set
// maximum prices, revocation when the market price exceeds them, two-minute
// termination notices, per-second billing at the market price, the
// first-instance-hour full-refund rule, and an S3-like object store with a
// CPU-bound throughput model calibrated to the paper's measurements (§IV-F).
//
// All time is virtual (simclock.Virtual), so multi-day tuning campaigns
// replay in milliseconds while preserving every economic rule SpotTune's
// provisioning strategy exploits.
package cloudsim

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"spottune/internal/market"
	"spottune/internal/obs"
	"spottune/internal/simclock"
)

// NoticeLeadTime is how far ahead of an interruption the termination notice
// arrives (AWS delivers it two minutes early).
const NoticeLeadTime = 2 * time.Minute

// RefundWindow is the first-instance-hour window: instances revoked by the
// provider within it are fully refunded.
const RefundWindow = time.Hour

// InstanceState tracks a VM through its lifecycle.
type InstanceState int

// Lifecycle states.
const (
	StateRunning InstanceState = iota + 1
	StateNoticed
	StateRevoked
	StateTerminated
)

func (s InstanceState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateNoticed:
		return "noticed"
	case StateRevoked:
		return "revoked"
	case StateTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("InstanceState(%d)", int(s))
	}
}

// EndReason records why an instance stopped.
type EndReason int

// End reasons.
const (
	EndRevoked EndReason = iota + 1
	EndUserTerminated
)

func (r EndReason) String() string {
	switch r {
	case EndRevoked:
		return "revoked"
	case EndUserTerminated:
		return "user-terminated"
	default:
		return fmt.Sprintf("EndReason(%d)", int(r))
	}
}

// Instance is one running (or finished) VM.
type Instance struct {
	ID       string
	Type     market.InstanceType
	MaxPrice float64 // user's maximum price (spot) or 0 for on-demand
	OnDemand bool

	LaunchedAt time.Time
	State      InstanceState
	EndedAt    time.Time
	End        EndReason

	// NoticeAt/RevokeAt are the already-determined future market events for
	// this instance (zero when the trace never exceeds the maximum price).
	// They let schedulers jump straight to the next interesting instant
	// instead of sampling instance state on a poll grid.
	NoticeAt time.Time
	RevokeAt time.Time

	// Surge is the demand-pressure billing multiplier sampled at launch
	// (1 outside a capacity domain): spot billing integrates the trace
	// price times this factor. Zero is read as 1 for instances built
	// outside the cluster constructors.
	Surge float64

	// slot is the type's catalog index in the cluster's Markets table (the
	// key of its capacity counters and trace slot).
	slot int

	noticeEv simclock.EventRef
	revokeEv simclock.EventRef
	// onNotice is the subscriber registered at request time; fault
	// injections (mass preemptions) deliver their notices through it too.
	onNotice NoticeFunc
}

// RefundDeadline is the end of the first-instance-hour window: a provider
// revocation at or before it is fully refunded.
func (i *Instance) RefundDeadline() time.Time {
	return i.LaunchedAt.Add(RefundWindow)
}

// Running reports whether the instance is still usable (running or noticed).
func (i *Instance) Running() bool {
	return i.State == StateRunning || i.State == StateNoticed
}

// Usage is the billing ledger entry for one finished instance.
type Usage struct {
	InstanceID string
	TypeName   string
	OnDemand   bool // reliable-tier rental (never revoked, never refunded)
	Launched   time.Time
	Ended      time.Time
	End        EndReason
	GrossCost  float64 // integrated market price before refund, USD
	Refunded   float64 // refund granted under the first-hour rule, USD
}

// Duration is the instance lifetime.
func (u Usage) Duration() time.Duration { return u.Ended.Sub(u.Launched) }

// Ledger accumulates finished-instance usage.
type Ledger struct {
	Records []Usage
}

// TotalGross sums pre-refund cost.
func (l *Ledger) TotalGross() float64 {
	s := 0.0
	for _, u := range l.Records {
		s += u.GrossCost
	}
	return s
}

// TotalRefunded sums granted refunds.
func (l *Ledger) TotalRefunded() float64 {
	s := 0.0
	for _, u := range l.Records {
		s += u.Refunded
	}
	return s
}

// TotalNet sums the user's actual spend.
func (l *Ledger) TotalNet() float64 { return l.TotalGross() - l.TotalRefunded() }

// NoticeFunc is invoked when a termination notice is delivered for an
// instance, NoticeLeadTime before revocation. It runs on the simulation
// event thread and must not block.
type NoticeFunc func(inst *Instance, now time.Time)

// Cluster is the simulated cloud: spot markets driven by price traces plus
// the billing machinery.
type Cluster struct {
	clk *simclock.Virtual
	// markets holds the catalog and the SoA store (every price query runs
	// against it, bit-identical to the Trace methods), and resolves type
	// names to catalog entries and trace slots. It is immutable and shared
	// by every cluster built from one environment or world.
	markets *Markets

	// instances holds every instance the cluster launched, in launch
	// order: instance i-N is instances[N-1].
	instances []*Instance
	ledger    Ledger

	// runningSpot counts live spot instances per catalog index, enforcing
	// the catalog's per-type Capacity cap (0 = unlimited). On-demand
	// capacity is never capped.
	runningSpot []int
	// cursors holds, per market slot (Markets), the market cursors every
	// query at the clock's current instant runs through (see quoteCursors).
	cursors []quoteCursors

	// domain, when attached (SetCapacityDomain), shares per-type spot
	// capacity and demand-pressure pricing with every other cluster on the
	// same domain (multi-tenant service shards). Nil — the default —
	// keeps the cluster a private world, bit-identical to pre-service
	// behavior.
	domain *CapacityDomain

	// blackouts are the installed capacity-unavailability windows, in
	// installation order (fault injection; see faults.go).
	blackouts []Blackout

	// trc receives billing events (ledger postings, first-hour refunds) at
	// the exact moment each ledger record is appended, so a trace's
	// posting order is the ledger's record order. Never nil (obs.Nop).
	trc obs.Tracer
}

// NewCluster builds a cluster over the given catalog and per-market traces:
// it validates and packs the traces and resolves a private Markets table.
// Every catalog type must have a trace. Environments that build many
// clusters share one table through NewClusterOn instead.
func NewCluster(clk *simclock.Virtual, cat *market.Catalog, traces market.TraceSet) (*Cluster, error) {
	if clk == nil {
		return nil, errors.New("cloudsim: nil clock")
	}
	if err := traces.Validate(); err != nil {
		return nil, err
	}
	m, err := NewMarkets(cat, market.NewStore(traces))
	if err != nil {
		return nil, err
	}
	return NewClusterOn(clk, m)
}

// NewClusterOn builds a cluster over a resolved Markets table, which many
// clusters (sweeps, the streaming matrix runner, service shards) share
// read-only.
func NewClusterOn(clk *simclock.Virtual, m *Markets) (*Cluster, error) {
	if clk == nil {
		return nil, errors.New("cloudsim: nil clock")
	}
	if m == nil {
		return nil, errors.New("cloudsim: nil markets")
	}
	c := &Cluster{
		clk:         clk,
		markets:     m,
		runningSpot: make([]int, m.catalog.Len()),
		cursors:     make([]quoteCursors, len(m.slots)),
		trc:         obs.Nop{},
	}
	for i := range c.cursors {
		c.cursors[i] = m.cursorsOn(m.slots[i].trace)
	}
	return c, nil
}

// quoteCursors are one market's two cursors into the shared store: now
// answers every query at the clock's current instant (quotes, the spot
// price check, the revocation search and the next price tick), hourAgo the
// far end of the trailing-hour average. The clock only moves forward, so
// each cursor mostly answers inside the record it last stood on or a few
// records later (market.Cursor); billing and grids, whose instants jump,
// keep the store's search.
type quoteCursors struct{ now, hourAgo market.Cursor }

// cursorsOn is a fresh cursor pair over the store's trace ti.
func (m *Markets) cursorsOn(ti int) quoteCursors {
	return quoteCursors{now: m.store.NewCursor(ti), hourAgo: m.store.NewCursor(ti)}
}

// SetTracer installs the flight recorder billing events flow through
// (nil restores the no-op default). The orchestrator wires its own tracer
// here so cluster-side settlements land in the same recording, in the same
// deterministic single-goroutine order, as orchestration events.
func (c *Cluster) SetTracer(t obs.Tracer) {
	if t == nil {
		t = obs.Nop{}
	}
	c.trc = t
}

// SetCapacityDomain attaches the cluster to a shared capacity/demand domain
// (nil detaches). Attach before any spot request: the domain must see every
// live spot instance to keep its accounting conserved. Every cluster on one
// domain must use a catalog of the same layout, the same type names with
// the same capacities in the same order (the world's catalog).
func (c *Cluster) SetCapacityDomain(d *CapacityDomain) error {
	if d != nil {
		if err := d.bind(c.markets.catalog); err != nil {
			return err
		}
	}
	c.domain = d
	return nil
}

// nowNanos is the clock's current instant in Unix nanoseconds, the unit the
// cursors take.
func (c *Cluster) nowNanos() int64 { return c.clk.Now().UnixNano() }

// Clock exposes the cluster's virtual clock.
func (c *Cluster) Clock() *simclock.Virtual { return c.clk }

// Now is the current virtual instant (shorthand for Clock().Now(); with
// CurrentPrice, AvgPriceLastHour, and OnDemandPrice it makes the cluster a
// policy.MarketView).
func (c *Cluster) Now() time.Time { return c.clk.Now() }

// Slot resolves a type name to the slot its quotes are keyed by: a catalog
// type's catalog index, or for a traced market outside the catalog a slot
// after the catalog's. With CurrentPriceBySlot, AvgPriceLastHourBySlot and
// OnDemandPriceBySlot it makes the cluster a policy.SlotMarket: policies
// resolve their pools once per campaign and quote by slot. Each name-keyed
// quote is this lookup plus its slot method.
func (c *Cluster) Slot(typeName string) (int, bool) { return c.markets.slot(typeName) }

// Catalog exposes the instance catalog.
func (c *Cluster) Catalog() *market.Catalog { return c.markets.catalog }

// Ledger returns the billing ledger (live view).
func (c *Cluster) Ledger() *Ledger { return &c.ledger }

// CurrentPrice returns the spot market price of a type right now.
func (c *Cluster) CurrentPrice(typeName string) (float64, error) {
	slot, ok := c.markets.slot(typeName)
	if !ok {
		return 0, fmt.Errorf("cloudsim: unknown market %q", typeName)
	}
	return c.CurrentPriceBySlot(slot)
}

// CurrentPriceBySlot is CurrentPrice for the market at a slot from Slot:
// the trace price through the slot's now cursor times the slot's
// demand-pressure multiplier (1 without a capacity domain and outside the
// catalog). It never fails.
func (c *Cluster) CurrentPriceBySlot(slot int) (float64, error) {
	p, _ := c.markets.store.PriceAtCursor(&c.cursors[slot].now, c.nowNanos())
	return p * c.domain.surge(slot), nil
}

// AvgPriceLastHour returns the time-weighted average market price over the
// past hour — the price term of Eq. 1.
func (c *Cluster) AvgPriceLastHour(typeName string) (float64, error) {
	slot, ok := c.markets.slot(typeName)
	if !ok {
		return 0, fmt.Errorf("cloudsim: unknown market %q", typeName)
	}
	return c.AvgPriceLastHourBySlot(slot)
}

// AvgPriceLastHourBySlot is AvgPriceLastHour for the market at a slot from
// Slot, scaled like CurrentPriceBySlot.
func (c *Cluster) AvgPriceLastHourBySlot(slot int) (float64, error) {
	cur := &c.cursors[slot]
	now := c.nowNanos()
	avg, err := c.markets.store.AvgOverCursors(&cur.hourAgo, &cur.now, now-int64(time.Hour), now)
	return avg * c.domain.surge(slot), err
}

// OnDemandPrice returns the fixed hourly on-demand quote for a type — the
// reliable-capacity price provisioning policies weigh spot bids against.
func (c *Cluster) OnDemandPrice(typeName string) (float64, error) {
	slot, ok := c.markets.slot(typeName)
	if !ok {
		return 0, fmt.Errorf("cloudsim: unknown instance type %q", typeName)
	}
	return c.OnDemandPriceBySlot(slot)
}

// OnDemandPriceBySlot is OnDemandPrice for the type at a slot from Slot. A
// traced market outside the catalog has no on-demand offer: it fails as
// OnDemandPrice fails for an unknown type.
func (c *Cluster) OnDemandPriceBySlot(slot int) (float64, error) {
	sl := &c.markets.slots[slot]
	if slot >= c.markets.catalog.Len() {
		return 0, fmt.Errorf("cloudsim: unknown instance type %q", sl.it.Name)
	}
	return sl.it.OnDemandPrice, nil
}

// ErrPriceAboveMax is returned when a spot request's maximum price is below
// the current market price (AWS will not fulfill such requests).
var ErrPriceAboveMax = errors.New("cloudsim: market price above requested maximum")

// RequestSpot launches a spot instance of the given type with the given
// maximum price. If the market ever rises above maxPrice, a notice fires
// NoticeLeadTime beforehand (onNotice may be nil) and the instance is then
// revoked with first-hour refunds applied.
//
// A request the market has no room for fails with an error matching
// ErrCapacityUnavailable (errors.Is); those errors are built once per
// Markets table, so the miss allocates nothing.
func (c *Cluster) RequestSpot(typeName string, maxPrice float64, onNotice NoticeFunc) (*Instance, error) {
	slot, ok := c.markets.catalog.Index(typeName)
	if !ok {
		return nil, fmt.Errorf("cloudsim: unknown instance type %q", typeName)
	}
	sl := &c.markets.slots[slot]
	it, cur := sl.it, &c.cursors[slot].now
	now := c.clk.Now()
	if c.blackedOut(typeName, now) {
		return nil, sl.blackedOut
	}
	// The catalog's per-type cap is the same retriable market state as a
	// blackout window: the region has no room for another instance of this
	// type right now, try again (or elsewhere) later.
	if it.Capacity > 0 && c.runningSpot[slot] >= it.Capacity {
		return nil, sl.atCapacity
	}
	// The shared domain's cap counts co-resident tenants' fleets too, so a
	// cluster can be refused room its private count would have granted.
	if c.domain != nil && !c.domain.hasRoom(slot, it.Capacity) {
		return nil, sl.sharedFull
	}
	nowNanos := now.UnixNano()
	price, _ := c.markets.store.PriceAtCursor(cur, nowNanos)
	if price > maxPrice {
		return nil, &priceError{typeName: typeName, price: price, max: maxPrice}
	}
	inst := c.launch(&Instance{
		Type:       it,
		MaxPrice:   maxPrice,
		LaunchedAt: now,
		State:      StateRunning,
		Surge:      1,
		slot:       slot,
		onNotice:   onNotice,
	})
	c.runningSpot[slot]++
	if c.domain != nil {
		// Sampled after acquiring, so an instance's own demand is part of
		// the pressure it is billed under.
		c.domain.acquire(slot)
		inst.Surge = c.domain.surge(slot)
	}

	if exceedAt, found := c.markets.store.FirstExceedCursor(cur, nowNanos, maxPrice); found {
		noticeAt := exceedAt.Add(-NoticeLeadTime)
		if noticeAt.Before(now) {
			noticeAt = now
		}
		inst.NoticeAt = noticeAt
		inst.RevokeAt = exceedAt
		inst.noticeEv = c.clk.Schedule(noticeAt, func(at time.Time) {
			if !inst.Running() || inst.State == StateNoticed {
				return
			}
			inst.State = StateNoticed
			if inst.onNotice != nil {
				inst.onNotice(inst, at)
			}
		})
		inst.revokeEv = c.clk.Schedule(exceedAt, func(at time.Time) {
			if !inst.Running() {
				return
			}
			c.finish(inst, at, EndRevoked)
		})
	}
	return inst, nil
}

// RequestOnDemand launches a reliable on-demand instance billed at the fixed
// catalog price. It is never revoked.
func (c *Cluster) RequestOnDemand(typeName string) (*Instance, error) {
	slot, ok := c.markets.catalog.Index(typeName)
	if !ok {
		return nil, fmt.Errorf("cloudsim: unknown instance type %q", typeName)
	}
	return c.launch(&Instance{
		Type:       c.markets.slots[slot].it,
		OnDemand:   true,
		LaunchedAt: c.clk.Now(),
		State:      StateRunning,
		Surge:      1,
		slot:       slot,
	}), nil
}

// launch names a new instance and records it.
func (c *Cluster) launch(inst *Instance) *Instance {
	c.instances = append(c.instances, inst)
	inst.ID = instanceID(len(c.instances))
	return inst
}

// instanceID is the ID of the cluster's n-th instance (n >= 1): "i-" and n
// in decimal, zero-padded to six digits, the bytes fmt.Sprintf("i-%06d", n)
// formats, built in one allocation.
func instanceID(n int) string {
	var b [2 + 20]byte
	i := len(b)
	for digits := 0; n > 0 || digits < 6; digits++ {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	i -= 2
	b[i], b[i+1] = 'i', '-'
	return string(b[i:])
}

// Terminate shuts an instance down at the user's request (full charge, no
// refund).
func (c *Cluster) Terminate(id string) error {
	inst, ok := c.Instance(id)
	if !ok {
		return fmt.Errorf("cloudsim: unknown instance %q", id)
	}
	if !inst.Running() {
		return fmt.Errorf("cloudsim: instance %q already %v", id, inst.State)
	}
	c.finish(inst, c.clk.Now(), EndUserTerminated)
	return nil
}

// finish settles billing and cancels pending events.
func (c *Cluster) finish(inst *Instance, at time.Time, reason EndReason) {
	inst.noticeEv.Cancel()
	inst.revokeEv.Cancel()
	if reason == EndRevoked {
		inst.State = StateRevoked
	} else {
		inst.State = StateTerminated
	}
	inst.EndedAt = at
	inst.End = reason
	if !inst.OnDemand {
		c.runningSpot[inst.slot]--
		if c.domain != nil {
			c.domain.release(inst.slot)
		}
	}

	usage := Usage{
		InstanceID: inst.ID,
		TypeName:   inst.Type.Name,
		OnDemand:   inst.OnDemand,
		Launched:   inst.LaunchedAt,
		Ended:      at,
		End:        reason,
	}
	dur := at.Sub(inst.LaunchedAt)
	if dur > 0 {
		if inst.OnDemand {
			usage.GrossCost = inst.Type.OnDemandPrice * dur.Hours()
		} else {
			avg, err := c.markets.store.AvgOver(c.markets.slots[inst.slot].trace, inst.LaunchedAt, at)
			if err == nil {
				surge := inst.Surge
				if surge == 0 {
					surge = 1
				}
				usage.GrossCost = avg * dur.Hours() * surge
			}
		}
	}
	// First-instance-hour refund: only provider revocations qualify.
	if reason == EndRevoked && !inst.OnDemand && dur <= RefundWindow {
		usage.Refunded = usage.GrossCost
	}
	c.ledger.Records = append(c.ledger.Records, usage)
	var od int64
	if inst.OnDemand {
		od = 1
	}
	c.trc.Emit(obs.Event{
		VT:    at,
		Kind:  obs.KindPosting,
		Inst:  inst.ID,
		Type:  inst.Type.Name,
		Label: reason.String(),
		A:     usage.GrossCost,
		B:     usage.Refunded,
		N:     od,
	})
	if usage.Refunded > 0 {
		c.trc.Emit(obs.Event{
			VT:   at,
			Kind: obs.KindRefund,
			Inst: inst.ID,
			Type: inst.Type.Name,
			A:    usage.Refunded,
		})
	}
}

// Instance returns an instance the cluster launched, by ID.
func (c *Cluster) Instance(id string) (*Instance, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "i-"))
	if err != nil || n < 1 || n > len(c.instances) || c.instances[n-1].ID != id {
		return nil, false
	}
	return c.instances[n-1], true
}

// RunningInstances lists instances still usable, sorted by ID.
func (c *Cluster) RunningInstances() []*Instance {
	var out []*Instance
	for _, inst := range c.instances {
		if inst.Running() {
			out = append(out, inst)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Revocation scheduling note — hold-last-price contract: spot prices are
// step functions, so a trace that ends before the campaign horizon holds its
// final price forever. A trace with no record after the launch instant above
// maxPrice therefore never revokes the instance — there is no implicit
// "trace exhausted" eviction — and billing integrates the held price over
// the remaining lifetime (AvgOver extends the last record the same way).
// market.Store.FirstExceed implements the search; holdlast_test.go pins the
// behaviour end-to-end.
