package simclock

// NodePool is a shareable event-slot pool: engines attached to it draw and
// recycle their Event slots from one arena instead of their private slabs,
// so a service shard that builds a fresh engine per scheduling wave reaches
// zero steady-state event allocations across waves, not just within one.
//
// Like an engine, a pool has one owner and takes no lock: every engine
// attached to it must run on the same goroutine (a service shard runs its
// waves one after another). An engine with no pool attached never touches
// one.
type NodePool struct {
	free     []*Event
	slab     []Event
	slabUsed int
	handed   uint64
}

// NewNodePool returns an empty pool.
func NewNodePool() *NodePool { return &NodePool{} }

// get hands out one slot. The caller (an Engine) must set the slot's owner
// before use.
func (p *NodePool) get() *Event {
	p.handed++
	if n := len(p.free); n > 0 {
		ev := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return ev
	}
	if p.slabUsed == len(p.slab) {
		p.slab = make([]Event, eventSlabSize)
		p.slabUsed = 0
	}
	ev := &p.slab[p.slabUsed]
	p.slabUsed++
	return ev
}

// put returns a recycled slot (gen already bumped by the engine) for reuse
// by any attached engine.
func (p *NodePool) put(ev *Event) { p.free = append(p.free, ev) }

// Handed reports how many slot hand-outs the pool has served over its
// lifetime (fresh carves plus reuses) — a cheap reuse diagnostic.
func (p *NodePool) Handed() uint64 { return p.handed }

// FreeSlots reports how many recycled slots are ready for reuse.
func (p *NodePool) FreeSlots() int { return len(p.free) }

// SetNodePool attaches a shared slot pool to the engine. It must be called
// before the first Schedule; attaching after events exist would strand the
// engine-private slots.
func (e *Engine) SetNodePool(p *NodePool) { e.pool = p }

// ReleaseNodes cancels every still-pending event and recycles its slot,
// returning the number released. A service shard calls it when a scheduling
// wave's engine retires, so slots scheduled for events that never fired
// (revocations beyond campaign end) flow back to the shared pool instead of
// stranding in the dead engine's heap.
func (e *Engine) ReleaseNodes() int {
	n := len(e.events)
	for _, ev := range e.events {
		ev.idx = -1
		e.recycle(ev)
	}
	e.events = e.events[:0]
	return n
}
