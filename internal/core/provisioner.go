// Package core implements SpotTune itself: the Algorithm 1 Orchestrator with
// notice-driven checkpointing, hourly refund-farming restarts and
// EarlyCurve-based early shutdown, driven by a pluggable provisioning policy
// (the paper's Eq. 1–2 provisioner is policy "spottune"); plus the legacy
// Single-Spot baseline loop of §IV-A4 and campaign reports.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"spottune/internal/cloudsim"
	"spottune/internal/market"
	"spottune/internal/policy"
	"spottune/internal/revpred"
)

// Default bid-delta interval (Algorithm 1 line 4): the maximum price is the
// current market price plus a uniform delta from this range, in USD.
const (
	DefaultDeltaLow  = policy.DefaultDeltaLow
	DefaultDeltaHigh = policy.DefaultDeltaHigh
)

// Choice is the provisioning decision for one deployment.
type Choice struct {
	TypeName string
	MaxPrice float64
	RevProb  float64 // predicted revocation probability within the hour
	AvgPrice float64 // trailing-hour average market price (Eq. 1 price term)
	StepCost float64 // Eq. 2 expected cost per step (relative units)
}

// ValidatePoolWiring checks that every pool member has a feature grid and a
// revocation predictor — the fail-fast guard for Eq. 1–2 wiring, shared by
// the Provisioner and campaign-level policy construction (GridRevProb
// silently predicts 0 for unknown markets, which would bias selection
// instead of erroring).
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

// GridRevProb builds a policy.RevProbFunc over per-market feature grids and
// trained revocation predictors — the Eq. 1 probability term. Markets
// without a grid entry or a predictor (or instants outside the grid) predict
// 0. The pairing is resolved here, once, so each prediction costs one name
// lookup; later changes to the maps are not seen, so build it after the
// environment is assembled.
func GridRevProb(grids map[string]*market.Grid, predictors map[string]revpred.Predictor) policy.RevProbFunc {
	type gridPred struct {
		grid *market.Grid
		pred revpred.Predictor
	}
	table := make(map[string]gridPred, len(grids))
	for name, g := range grids {
		if pred, ok := predictors[name]; ok {
			table[name] = gridPred{grid: g, pred: pred}
		}
	}
	return func(typeName string, at time.Time, maxPrice float64) float64 {
		m, ok := table[typeName]
		if !ok {
			return 0
		}
		if idx, err := m.grid.Index(at); err == nil {
			return m.pred.Predict(m.grid, idx, maxPrice)
		}
		return 0
	}
}

// Provisioner is the paper's Eq. 1–2 provisioner behind its original API: a
// thin shell over the extracted "spottune" policy (internal/policy), kept so
// existing callers and the legacy NewOrchestrator signature keep working.
type Provisioner struct {
	pool    []string
	cluster *cloudsim.Cluster
	pol     policy.Policy
}

// NewProvisioner wires the provisioner. Every pool member needs a grid and a
// predictor. Delta bounds of zero select the paper's defaults.
func NewProvisioner(
	cluster *cloudsim.Cluster,
	pool []string,
	grids map[string]*market.Grid,
	predictors map[string]revpred.Predictor,
	deltaLow, deltaHigh float64,
	seed uint64,
) (*Provisioner, error) {
	if len(pool) == 0 {
		return nil, errors.New("core: empty instance pool")
	}
	if err := ValidatePoolWiring(pool, grids, predictors); err != nil {
		return nil, err
	}
	pol, err := policy.New(policy.SpotTuneName, policy.Params{
		Pool:      pool,
		Seed:      seed,
		RevProb:   GridRevProb(grids, predictors),
		DeltaLow:  deltaLow,
		DeltaHigh: deltaHigh,
	})
	if err != nil {
		return nil, err
	}
	return &Provisioner{
		pool:    append([]string(nil), pool...),
		cluster: cluster,
		pol:     pol,
	}, nil
}

// Best implements getBestInst of Algorithm 1: secPerStep supplies the
// current M[inst][hp] estimate for the trial being deployed.
func (p *Provisioner) Best(secPerStep func(typeName string) float64) (Choice, error) {
	req, err := p.pol.Decide(policy.Context{Market: p.cluster, SecPerStep: secPerStep})
	if err != nil {
		return Choice{}, err
	}
	return Choice{
		TypeName: req.TypeName,
		MaxPrice: req.MaxPrice,
		RevProb:  req.RevProb,
		AvgPrice: req.AvgPrice,
		StepCost: req.StepCost,
	}, nil
}

// Pool returns the instance type names the provisioner chooses from.
func (p *Provisioner) Pool() []string { return append([]string(nil), p.pool...) }

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
