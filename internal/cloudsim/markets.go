package cloudsim

import (
	"fmt"

	"spottune/internal/market"
)

// Markets is the resolution table every cluster quote runs through. Its
// slots are the catalog types, each at its catalog index, then every traced
// market outside the catalog; a slot holds the catalog entry (only the name
// for a market outside the catalog), the trace's index in the packed store,
// and the capacity-miss errors a spot request for a catalog type can return.
// A quote resolves its type name to a slot with one lookup (slot) and reads
// everything else by index. The store is the table's only copy of the
// prices: quotes, bills, revocation instants and price ticks all read it.
//
// A Markets is immutable and safe for concurrent readers. Build one per
// environment or world (NewMarkets) and share it across every cluster built
// there (NewClusterOn); NewCluster builds a private one.
type Markets struct {
	catalog *market.Catalog
	store   *market.Store
	slots   []marketSlot
	// offCatalog maps each traced market outside the catalog to its slot.
	// Such a market is quoted like any other but cannot be rented.
	offCatalog map[string]int
}

// marketSlot is one resolved market.
type marketSlot struct {
	it    market.InstanceType
	trace int // index into the store
	// The capacity misses, built once so a rejected spot request (the
	// common outcome under contention) allocates nothing. Nil outside the
	// catalog.
	blackedOut, atCapacity, sharedFull *capacityError
}

// NewMarkets resolves every catalog type against a packed store, then gives
// every other trace in the store a slot of its own. Every catalog type must
// have a trace in the store.
func NewMarkets(cat *market.Catalog, store *market.Store) (*Markets, error) {
	m := &Markets{catalog: cat, store: store, slots: make([]marketSlot, cat.Len()), offCatalog: map[string]int{}}
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
	for ti, name := range store.Names() {
		if _, ok := cat.Index(name); ok {
			continue
		}
		m.offCatalog[name] = len(m.slots)
		m.slots = append(m.slots, marketSlot{it: market.InstanceType{Name: name}, trace: ti})
	}
	return m, nil
}

// Catalog is the catalog the table resolves.
func (m *Markets) Catalog() *market.Catalog { return m.catalog }

// slot resolves a type name to its slot: the catalog index of a catalog
// type, the slot after the catalog's of a traced market outside it.
func (m *Markets) slot(name string) (int, bool) {
	if i, ok := m.catalog.Index(name); ok {
		return i, true
	}
	i, ok := m.offCatalog[name]
	return i, ok
}

// SpotMiss classifies a failed spot request by what refused it.
type SpotMiss int

// Spot request outcomes.
const (
	// NoMiss is a launched instance, or an error that is not market state
	// (an unknown type).
	NoMiss SpotMiss = iota
	// PriceMiss is ErrPriceAboveMax: the market price is above the bid.
	PriceMiss
	// CapacityMiss is ErrCapacityUnavailable: no room for the type (a
	// blackout, its capacity cap, or the shared domain's).
	CapacityMiss
)

// MissOf classifies an error RequestSpot returned. It reads the error's
// concrete type, where errors.Is walks the chain and compares against each
// sentinel, so pass the error as RequestSpot returned it, unwrapped.
func MissOf(err error) SpotMiss {
	switch err.(type) {
	case *priceError:
		return PriceMiss
	case *capacityError:
		return CapacityMiss
	}
	return NoMiss
}

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
