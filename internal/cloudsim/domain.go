package cloudsim

import (
	"errors"

	"spottune/internal/market"
)

// CapacityDomain is the shared market state of one service shard: every
// cluster attached to it (Cluster.SetCapacityDomain) draws per-type spot
// capacity from one pool — the per-type limit is the cluster catalog's
// Capacity, 0 meaning unlimited — and aggregate demand lifts quoted and
// billed spot prices through a linear surge multiplier. One tenant's fleet
// therefore consumes room and raises prices that every co-resident tenant
// sees, which is the coupling a private-cluster sweep cannot express.
//
// The per-type counters are a slice indexed by catalog index (market.Catalog
// Index), laid out by the catalog of the first attached cluster; every
// attached cluster must share that catalog's layout (same type names with
// the same capacities in the same order — a world's clusters all use the
// world's catalog). Beside each counter the domain keeps the type's surge
// multiplier, recomputed whenever the counter moves, so a quote reads it
// instead of dividing.
//
// A domain belongs to one shard wave, whose campaigns take turns on the
// shard's goroutine, so it carries no locking and is NOT safe for concurrent
// use across shards — build one per shard wave.
//
// Deliberately untouched: the revocation schedule. Notices and revocations
// still come from raw-trace price exceedance (market.Store.FirstExceed vs
// the user's maximum price), so demand pressure changes what tenants pay,
// never when the provider reclaims — the ledger/trace invariants hold
// unchanged under contention.
type CapacityDomain struct {
	slope   float64
	catalog *market.Catalog
	inUse   []int
	// surges[i] is type i's multiplier at its current inUse (see setSurge).
	surges []float64
}

// NewCapacityDomain returns an empty domain. surgeSlope is the demand
// multiplier's gradient: at full per-type utilization a spot quote (and
// the launch-sampled billing multiplier) is 1+surgeSlope times the trace
// price. A zero slope shares capacity without moving prices.
func NewCapacityDomain(surgeSlope float64) *CapacityDomain {
	return &CapacityDomain{slope: surgeSlope}
}

// errForeignLayout refuses a cluster whose catalog is laid out differently.
var errForeignLayout = errors.New("cloudsim: capacity domain shared across catalogs of different layouts")

// bind lays the counters out by the attaching cluster's catalog, or checks
// that the catalog matches the layout already bound: the same names with
// the same capacities, since one cached multiplier serves every cluster.
func (d *CapacityDomain) bind(cat *market.Catalog) error {
	if d.catalog == nil {
		d.catalog, d.inUse, d.surges = cat, make([]int, cat.Len()), make([]float64, cat.Len())
		for i := range d.surges {
			d.setSurge(i)
		}
		return nil
	}
	if d.catalog == cat {
		return nil
	}
	if d.catalog.Len() != cat.Len() {
		return errForeignLayout
	}
	for i := 0; i < cat.Len(); i++ {
		bound, it := d.catalog.TypeAt(i), cat.TypeAt(i)
		if bound.Name != it.Name || bound.Capacity != it.Capacity {
			return errForeignLayout
		}
	}
	return nil
}

// hasRoom reports whether one more spot instance of the type at catalog
// index i fits under the given per-type limit (0 = unlimited).
func (d *CapacityDomain) hasRoom(i, capacity int) bool {
	return capacity <= 0 || d.inUse[i] < capacity
}

// acquire counts one launched spot instance. The caller must have checked
// hasRoom under the same shard turn.
func (d *CapacityDomain) acquire(i int) {
	d.inUse[i]++
	d.setSurge(i)
}

// release returns one spot instance's capacity at settlement.
func (d *CapacityDomain) release(i int) {
	d.inUse[i]--
	d.setSurge(i)
}

// setSurge recomputes the demand-pressure price multiplier of the type at
// catalog index i from its count: 1 + slope·(inUse/capacity), and 1 for an
// uncapped type (capacity 0) or a zero slope. Only acquire, release and
// bind move a count, so surges[i] always equals this expression.
func (d *CapacityDomain) setSurge(i int) {
	capacity := d.catalog.TypeAt(i).Capacity
	if d.slope == 0 || capacity <= 0 {
		d.surges[i] = 1
		return
	}
	d.surges[i] = 1 + d.slope*float64(d.inUse[i])/float64(capacity)
}

// surge is the demand-pressure price multiplier of the market at slot i
// right now. A nil domain and markets outside the catalog quote the flat
// trace price.
func (d *CapacityDomain) surge(i int) float64 {
	if d == nil || i >= len(d.surges) {
		return 1
	}
	return d.surges[i]
}
