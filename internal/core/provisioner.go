// Package core implements SpotTune itself: the Algorithm 1 Orchestrator with
// notice-driven checkpointing, hourly refund-farming restarts and
// EarlyCurve-based early shutdown, driven by a pluggable provisioning policy
// (the paper's Eq. 1–2 provisioner is policy "spottune"; the §IV-A4
// Single-Spot baselines are policies "cheapest-spot" and "fastest-spot"),
// and campaign reports.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"spottune/internal/market"
	"spottune/internal/policy"
	"spottune/internal/revpred"
)

// ValidatePoolWiring checks that every pool member has a feature grid and a
// revocation predictor — the fail-fast guard for Eq. 1–2 wiring at
// campaign-level policy construction (GridRevProb silently predicts 0 for
// unknown markets, which would bias selection instead of erroring).
func ValidatePoolWiring(pool []string, grids map[string]*market.Grid, predictors map[string]revpred.Predictor) error {
	for _, name := range pool {
		if _, ok := grids[name]; !ok {
			return fmt.Errorf("core: no market grid for pool member %q", name)
		}
		if _, ok := predictors[name]; !ok {
			return fmt.Errorf("core: no revocation predictor for pool member %q", name)
		}
	}
	return nil
}

// GridRevProb builds a policy.RevProbSource over per-market feature grids
// and trained revocation predictors — the Eq. 1 probability term. Each
// market's prediction pairs its grid with its predictor, built here once per
// market, so a policy resolving its pool at construction gets the function
// itself and a prediction makes no name lookup. Markets without a grid entry
// or a predictor resolve to nil and predict 0, as do instants outside the
// grid. Later changes to the maps are not seen, so build it after the
// environment is assembled.
func GridRevProb(grids map[string]*market.Grid, predictors map[string]revpred.Predictor) policy.RevProbSource {
	table := make(map[string]policy.RevProbFunc, len(grids))
	for name, g := range grids {
		if pred, ok := predictors[name]; ok {
			table[name] = func(at time.Time, maxPrice float64) float64 {
				if idx, ok := g.Index(at); ok {
					return pred.Predict(g, idx, maxPrice)
				}
				return 0
			}
		}
	}
	return func(typeName string) policy.RevProbFunc { return table[typeName] }
}

// PerfMatrix is the online performance model M of Algorithm 1: estimated
// seconds per step for every (instance type, HP) pair, initialized from core
// counts and refined from observed throughput.
//
// Rows are catalog indices (market.Catalog.Index) and columns are HP ids in
// registration order, so a quote resolves its type name with one lookup and
// reads the cell by index. Types outside the catalog have no row: they quote
// c0 and their observations are dropped.
type PerfMatrix struct {
	c0      float64
	catalog *market.Catalog
	alpha   float64
	// prior[row] is the row's initial estimate, c0 / effective CPUs.
	prior []float64
	// cols maps HP ids to columns; hps is its inverse.
	cols map[string]int
	hps  []string
	// est[row][col] is the estimate, NaN until the first observation (rows
	// grow to a column only when it is observed).
	est [][]float64
}

// NewPerfMatrix builds M with M[inst][hp] initialized to c0 / effective
// CPUs — cores scaled by the family's performance factor, so a newer
// generation's prior is proportionally faster. At the default factor 1 this
// is exactly c0 / CPUs.
func NewPerfMatrix(catalog *market.Catalog, c0 float64) *PerfMatrix {
	if c0 <= 0 {
		c0 = 16
	}
	m := &PerfMatrix{
		c0:      c0,
		catalog: catalog,
		alpha:   0.5,
		prior:   make([]float64, catalog.Len()),
		cols:    make(map[string]int),
		est:     make([][]float64, catalog.Len()),
	}
	for row := range m.prior {
		m.prior[row] = c0
		if it := catalog.TypeAt(row); it.CPUs != 0 {
			m.prior[row] = c0 / it.EffectiveCPUs()
		}
	}
	return m
}

// column returns the HP's column, registering it on first use.
func (m *PerfMatrix) column(hpID string) int {
	if c, ok := m.cols[hpID]; ok {
		return c
	}
	c := len(m.hps)
	m.cols[hpID] = c
	m.hps = append(m.hps, hpID)
	return c
}

// get returns the current seconds/step estimate of a type for the HP in
// column col (from column): one name lookup.
func (m *PerfMatrix) get(typeName string, col int) float64 {
	row, ok := m.catalog.Index(typeName)
	if !ok {
		return m.c0
	}
	if r := m.est[row]; col >= 0 && col < len(r) && !math.IsNaN(r[col]) {
		return r[col]
	}
	return m.prior[row]
}

// observe folds a measured seconds-per-step sample for the HP in column col
// into the estimate (line 36 of Algorithm 1).
func (m *PerfMatrix) observe(typeName string, col int, secPerStep float64) {
	if secPerStep <= 0 || math.IsNaN(secPerStep) || math.IsInf(secPerStep, 0) {
		return
	}
	row, ok := m.catalog.Index(typeName)
	if !ok {
		return
	}
	r := m.est[row]
	for len(r) <= col {
		r = append(r, math.NaN())
	}
	m.est[row] = r
	if prev := r[col]; !math.IsNaN(prev) {
		r[col] = (1-m.alpha)*prev + m.alpha*secPerStep
	} else {
		r[col] = secPerStep
	}
}

// Snapshot lists known estimates sorted by (type, hp) for reporting.
func (m *PerfMatrix) Snapshot() []PerfEntry {
	n := 0
	for _, r := range m.est {
		for _, v := range r {
			if !math.IsNaN(v) {
				n++
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]PerfEntry, 0, n)
	for row, r := range m.est {
		tn := m.catalog.TypeAt(row).Name
		for col, v := range r {
			if !math.IsNaN(v) {
				out = append(out, PerfEntry{TypeName: tn, HPID: m.hps[col], SecPerStep: v})
			}
		}
	}
	// (type, hp) pairs are unique, so the order is total.
	slices.SortFunc(out, func(a, b PerfEntry) int {
		return cmp.Or(strings.Compare(a.TypeName, b.TypeName), strings.Compare(a.HPID, b.HPID))
	})
	return out
}

// PerfEntry is one observed performance-matrix cell.
type PerfEntry struct {
	TypeName   string
	HPID       string
	SecPerStep float64
}
