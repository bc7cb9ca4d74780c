package cloudsim

import (
	"fmt"

	"spottune/internal/market"
)

// Markets is the resolution table every cluster quote runs through: for each
// catalog type, at its catalog index, the catalog entry, the trace's slot in
// the packed store, and the capacity-miss errors a spot request for it can
// return. A quote resolves its type name with one lookup (Catalog.Index) and
// reads everything else by index. The store is the table's only copy of the
// prices: quotes, bills, revocation instants and price ticks all read it.
//
// A Markets is immutable and safe for concurrent readers. Build one per
// environment or world (NewMarkets) and share it across every cluster built
// there (NewClusterOn); NewCluster builds a private one.
type Markets struct {
	catalog *market.Catalog
	store   *market.Store
	slots   []marketSlot
}

// marketSlot is one catalog type's resolved market.
type marketSlot struct {
	it    market.InstanceType
	trace int // index into the store
	// The capacity misses, built once so a rejected spot request (the
	// common outcome under contention) allocates nothing.
	blackedOut, atCapacity, sharedFull *capacityError
}

// NewMarkets resolves every catalog type against a packed store. Every
// catalog type must have a trace in the store.
func NewMarkets(cat *market.Catalog, store *market.Store) (*Markets, error) {
	m := &Markets{catalog: cat, store: store, slots: make([]marketSlot, cat.Len())}
	for i := range m.slots {
		it := cat.TypeAt(i)
		ti, ok := store.Lookup(it.Name)
		if !ok {
			return nil, fmt.Errorf("cloudsim: no price trace for instance type %q", it.Name)
		}
		m.slots[i] = marketSlot{
			it:         it,
			trace:      ti,
			blackedOut: &capacityError{fmt.Sprintf("%v: %s blacked out", ErrCapacityUnavailable, it.Name)},
			atCapacity: &capacityError{fmt.Sprintf("%v: %s at capacity %d", ErrCapacityUnavailable, it.Name, it.Capacity)},
			sharedFull: &capacityError{fmt.Sprintf("%v: %s at shared capacity %d", ErrCapacityUnavailable, it.Name, it.Capacity)},
		}
	}
	return m, nil
}

// Catalog is the catalog the table resolves.
func (m *Markets) Catalog() *market.Catalog { return m.catalog }

// capacityError is the ErrCapacityUnavailable a spot request gets when the
// market has no room for it. Each type's misses are built once with its
// Markets slot, so a rejected request allocates nothing.
type capacityError struct{ msg string }

func (e *capacityError) Error() string { return e.msg }

// Unwrap makes the error match ErrCapacityUnavailable.
func (e *capacityError) Unwrap() error { return ErrCapacityUnavailable }

// priceError is the ErrPriceAboveMax a spot request gets when the market
// price is above its maximum. It keeps the quote and formats only in Error,
// so a rejection (every failed bid of a deploy pass) costs no formatting.
type priceError struct {
	typeName   string
	price, max float64
}

func (e *priceError) Error() string {
	return fmt.Sprintf("%v: %s at %.4f > max %.4f", ErrPriceAboveMax, e.typeName, e.price, e.max)
}

// Unwrap makes the error match ErrPriceAboveMax.
func (e *priceError) Unwrap() error { return ErrPriceAboveMax }
