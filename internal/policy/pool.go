package policy

import "math"

// Pool is an instance pool quoted on the market views a policy decides
// over. On a view with the SlotMarket upgrade it resolves every member to a
// slot the first time it sees the view and quotes each later decision by
// slot, so a decision makes no name lookup for its quotes. Any other view,
// or one that cannot resolve every member, is quoted through nameQuotes,
// which makes the same name-keyed calls in the same order a name-keyed loop
// makes; the benchmark's timing view and the test fakes are quoted that
// way. Either way a decision sees the same prices and errors, so the choice
// of path moves no simulated bit.
//
// A Pool belongs to one policy (or one orchestrator) and, like it, to one
// goroutine.
type Pool struct {
	names []string
	// resolvedOn is the upgraded view slots was resolved on; slots holds
	// each member's slot there, or is nil when a member did not resolve.
	resolvedOn SlotMarket
	slots      []int
	// byName is the adapter a decision quotes through by name; ident is
	// its slots, the member indices.
	byName nameQuotes
	ident  []int
}

// NewPool returns a pool of the named instance types, in order.
func NewPool(names []string) *Pool {
	p := newPool(names)
	return &p
}

func newPool(names []string) Pool {
	names = append([]string(nil), names...)
	ident := make([]int, len(names))
	for k := range ident {
		ident[k] = k
	}
	return Pool{names: names, byName: nameQuotes{names: names}, ident: ident}
}

// quoter is the slot-keyed quoting half of a SlotMarket, which nameQuotes
// also implements.
type quoter interface {
	CurrentPriceBySlot(slot int) (float64, error)
	AvgPriceLastHourBySlot(slot int) (float64, error)
	OnDemandPriceBySlot(slot int) (float64, error)
}

// quotes are a pool's members quoted on one decision's view: member k is
// quoted at slot slots[k] of q.
type quotes struct {
	q     quoter
	slots []int
}

func (q quotes) currentPrice(k int) (float64, error) { return q.q.CurrentPriceBySlot(q.slots[k]) }

func (q quotes) avgPriceLastHour(k int) (float64, error) {
	return q.q.AvgPriceLastHourBySlot(q.slots[k])
}

func (q quotes) onDemandPrice(k int) (float64, error) { return q.q.OnDemandPriceBySlot(q.slots[k]) }

// on returns the pool's quotes on view m, resolving the pool's slots when m
// is an upgraded view other than the one last resolved.
func (p *Pool) on(m MarketView) quotes {
	if sm, ok := m.(SlotMarket); ok {
		if sm != p.resolvedOn {
			p.resolve(sm)
		}
		if p.slots != nil {
			return quotes{sm, p.slots}
		}
	}
	p.byName.view = m
	return quotes{&p.byName, p.ident}
}

// resolve resolves every member's slot on sm. A member sm does not know
// leaves slots nil, so the view is quoted by name and fails where a
// name-keyed loop fails.
func (p *Pool) resolve(sm SlotMarket) {
	p.resolvedOn, p.slots = sm, make([]int, len(p.names))
	for k, name := range p.names {
		slot, ok := sm.Slot(name)
		if !ok {
			p.slots = nil
			return
		}
		p.slots[k] = slot
	}
}

// nameQuotes quotes a view by name: slot k is the k-th member.
type nameQuotes struct {
	view  MarketView
	names []string
}

func (n *nameQuotes) CurrentPriceBySlot(k int) (float64, error) {
	return n.view.CurrentPrice(n.names[k])
}

func (n *nameQuotes) AvgPriceLastHourBySlot(k int) (float64, error) {
	return n.view.AvgPriceLastHour(n.names[k])
}

func (n *nameQuotes) OnDemandPriceBySlot(k int) (float64, error) {
	return n.view.OnDemandPrice(n.names[k])
}

// CheapestOnDemand picks the pool member with the least expected on-demand
// cost per step (M[inst][hp] · on-demand price) for the context's trial,
// ties broken by pool order — the choice every policy's on-demand path
// makes, exported so the orchestrator's degradation ladder can force
// reliable capacity without bypassing the shared selection rule (and
// without touching any policy's rng stream: on-demand selection draws
// nothing).
func (p *Pool) CheapestOnDemand(ctx Context) (Request, error) {
	q := p.on(ctx.Market)
	best := Request{OnDemand: true, StepCost: math.Inf(1)}
	for k, name := range p.names {
		od, err := q.onDemandPrice(k)
		if err != nil {
			return Request{}, err
		}
		if sCost := ctx.SecPerStep(name) * od; sCost < best.StepCost {
			best.TypeName = name
			best.StepCost = sCost
		}
	}
	if math.IsInf(best.StepCost, 1) {
		return Request{}, errNoViable
	}
	return best, nil
}
