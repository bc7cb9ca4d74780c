package scenario

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"spottune/internal/campaign"
	"spottune/internal/experiments"
	"spottune/internal/invariants"
	"spottune/internal/obs"
	"spottune/internal/policy"
	"spottune/internal/resilience"
	"spottune/internal/revpred"
	"spottune/internal/search"
)

// Options tunes a matrix run.
type Options struct {
	// Seed is inherited by every spec without its own (and drives the
	// per-cell sweep streams).
	Seed uint64
	// Quick trades fidelity for speed: synthetic curves, constant
	// revocation predictor, short traces.
	Quick bool
	// Workload is the default Table II benchmark for specs that name none
	// (default "LoR").
	Workload string
	// Scale multiplies workload sizes (default 1).
	Scale float64
	// Theta is the early-shutdown rate for every cell (default 0.7).
	Theta float64
	// Policies restricts the policy axis (nil = every registered policy).
	Policies []string
	// Tuners is the search-strategy axis crossed with every scenario and
	// policy (nil = just spottune, the paper's schedule — the tuner axis
	// is opt-in because it multiplies the matrix). Specs with their own
	// Tuner pin override the axis for their cells.
	Tuners []string
	// Strategies is the recovery-strategy axis (resilience registry
	// names) crossed between the tuner and policy axes (nil = just
	// "fixed", the historical behavior — like Tuners, opt-in because it
	// multiplies the matrix). Specs with their own Resilience pin
	// override the axis for their cells.
	Strategies []string
	// Trace turns on the flight recorder for every cell: each campaign
	// records its events into an obs.Recording handed back on Cell.Trace,
	// the invariant audit reconciles trace-derived cost attribution against
	// the ledger and attaches event context to violations, and the
	// streaming summary aggregates per-cell metrics.
	Trace bool
}

func (o Options) withDefaults() Options {
	if o.Workload == "" {
		o.Workload = "LoR"
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Theta <= 0 || o.Theta > 1 {
		o.Theta = 0.7
	}
	if len(o.Policies) == 0 {
		// An empty slice (e.g. a separator-only -policies flag) means "no
		// restriction", same as nil — never a zero-cell matrix that would
		// report a vacuous "every cell sound".
		o.Policies = policy.Names()
	}
	if len(o.Tuners) == 0 {
		o.Tuners = []string{search.SpotTuneName}
	}
	if len(o.Strategies) == 0 {
		o.Strategies = []string{resilience.FixedName}
	}
	return o
}

// revPredConfig mirrors the experiment harness's fidelity split.
func (o Options) revPredConfig(seed uint64) revpred.Config {
	if o.Quick {
		return revpred.Config{Hidden: 6, Depth: 1, Epochs: 1, Stride: 16, BatchSize: 16, Seed: seed}
	}
	return revpred.Config{Hidden: 12, Depth: 2, Epochs: 2, Stride: 4, Seed: seed}
}

// Cell is one (scenario, tuner, strategy, policy) outcome plus its
// invariant audit.
type Cell struct {
	Scenario string
	Regime   string
	Tuner    string
	// Strategy is the recovery strategy the cell ran under ("fixed"
	// unless the strategy axis was widened). Like Replicate it is not a
	// CSV column — the frozen Header predates the axis, and the default
	// single-strategy grid must stay byte-identical.
	Strategy string
	// Replicate is the cell's index on the streaming runner's seed axis
	// (always 0 for single-replicate streams; it does not appear in the
	// CSV schema, whose row order encodes it).
	Replicate int
	experiments.CrossPolicyRow
	Violations []invariants.Violation
	// Trace is the cell's flight recording (nil unless Options.Trace). Meta
	// carries the cell coordinates.
	Trace *obs.Recording
}

// Header is the per-cell CSV schema.
var Header = []string{
	"scenario", "regime", "tuner", "policy", "workload",
	"cost_usd", "jct_hours", "refund_frac", "free_step_frac",
	"deployments", "on_demand_deployments", "notices", "revocations",
	"violations",
}

// CellWriter renders cells to CSV one at a time, so a streamed grid's full
// cell table never exists in memory. The encoding is fully deterministic
// (fixed float precision, one row per cell in the order written), so two
// runs of the same seeded matrix produce bit-identical files.
type CellWriter struct {
	cw  *csv.Writer
	row []string
}

// NewCellWriter emits the Header and returns a writer ready for cells.
func NewCellWriter(w io.Writer) (*CellWriter, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(Header); err != nil {
		return nil, err
	}
	return &CellWriter{cw: cw, row: make([]string, 0, len(Header))}, nil
}

// Write appends one cell row.
func (w *CellWriter) Write(c Cell) error {
	w.row = append(w.row[:0],
		c.Scenario, c.Regime, c.Tuner, c.Policy, c.Workload,
		strconv.FormatFloat(c.Cost, 'f', 6, 64),
		strconv.FormatFloat(c.JCTHours, 'f', 6, 64),
		strconv.FormatFloat(c.RefundFrac, 'f', 6, 64),
		strconv.FormatFloat(c.Report.FreeStepFraction(), 'f', 6, 64),
		strconv.Itoa(c.Deployments),
		strconv.Itoa(c.OnDemandDeployments),
		strconv.Itoa(c.Notices),
		strconv.Itoa(c.Report.Revocations),
		strconv.Itoa(len(c.Violations)),
	)
	return w.cw.Write(w.row)
}

// Flush drains the underlying csv writer and reports any deferred error.
func (w *CellWriter) Flush() error {
	w.cw.Flush()
	return w.cw.Error()
}

// Matrix is a scenario × tuner × strategy × policy study.
type Matrix struct {
	Specs []Spec
}

// StateFor assembles the invariant checker's input from a campaign run's
// final simulator state — the one place the State fields are wired, shared
// by the matrix runner and the equivalence suites.
func StateFor(d *campaign.RunDetail) invariants.State {
	return invariants.State{
		Ledger:      d.Cluster.Ledger(),
		Report:      d.Report,
		Trials:      d.Trials,
		Catalog:     d.Cluster.Catalog(),
		Checkpoints: storeBlobs(d),
		Trace:       d.Trace,
	}
}

// storeBlobs snapshots every checkpoint in the run's object store.
func storeBlobs(d *campaign.RunDetail) map[string][]byte {
	keys := d.Store.Keys()
	out := make(map[string][]byte, len(keys))
	for _, key := range keys {
		blob, _, err := d.Store.Get(key, 1)
		if err != nil {
			continue
		}
		out[key] = blob
	}
	return out
}

// SpecsByName filters the default battery down to the named scenarios, in
// the given order (nil selects everything).
func SpecsByName(names []string) ([]Spec, error) {
	all := DefaultSpecs()
	if names == nil {
		return all, nil
	}
	byName := map[string]Spec{}
	for _, s := range all {
		byName[s.Name] = s
	}
	out := make([]Spec, 0, len(names))
	for _, n := range names {
		s, ok := byName[n]
		if !ok {
			avail := make([]string, 0, len(byName))
			for k := range byName {
				avail = append(avail, k)
			}
			sort.Strings(avail)
			return nil, fmt.Errorf("scenario: unknown scenario %q (available: %v)", n, avail)
		}
		out = append(out, s)
	}
	return out, nil
}
