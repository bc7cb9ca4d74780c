package campaign

import (
	"reflect"

	"spottune/internal/market"
)

// gridBuilt reports whether a grid's per-minute arrays exist. A grid builds
// them on its first feature read and exposes no accessor for that state, so
// the hook reads the unexported price array through reflection.
func gridBuilt(g *market.Grid) bool {
	prices := reflect.ValueOf(g).Elem().FieldByName("prices")
	if !prices.IsValid() {
		panic("campaign: market.Grid has no prices field to inspect")
	}
	return !prices.IsNil()
}

// templateCount is how many trial templates an environment's cache holds.
// The cache exposes no accessor for it, so the hook reads the unexported
// map's length through reflection.
func templateCount(e *Environment) int {
	tpls := reflect.ValueOf(e.templates).Elem().FieldByName("tpls")
	if !tpls.IsValid() {
		panic("campaign: workload.TemplateCache has no tpls field to inspect")
	}
	return tpls.Len()
}
