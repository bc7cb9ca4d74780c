package scenario

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"spottune/internal/campaign"
	"spottune/internal/earlycurve"
	"spottune/internal/experiments"
	"spottune/internal/invariants"
	"spottune/internal/policy"
	"spottune/internal/search"
	"spottune/internal/stats"
	"spottune/internal/workload"
)

// streamAll collects every streamed cell plus the summary.
func streamAll(t *testing.T, m Matrix, opt StreamOptions) ([]Cell, *StreamSummary) {
	t.Helper()
	var cells []Cell
	opt.OnCell = func(c Cell) error {
		cells = append(cells, c)
		return nil
	}
	sum, err := m.Stream(opt)
	if err != nil {
		t.Fatal(err)
	}
	return cells, sum
}

// coldCells is the streaming runner's reference: every cell of the
// one-replicate grid, in grid order, run alone on a freshly built
// environment through RunPolicy, with a memo-free EarlyCurve predictor. It
// covers the axes randomSpec draws (no tuner or strategy pins).
func coldCells(t *testing.T, m Matrix, opt Options) []Cell {
	t.Helper()
	opt = opt.withDefaults()
	var cells []Cell
	for _, raw := range m.Specs {
		s := raw.withDefaults(opt)
		bench, err := workload.SuiteByName(s.Workload, workload.Config{Seed: opt.Seed, Scale: opt.Scale})
		if err != nil {
			t.Fatal(err)
		}
		curves := bench.SyntheticCurves(opt.Seed)
		for _, tuner := range opt.Tuners {
			for _, strategy := range opt.Strategies {
				for _, pol := range opt.Policies {
					env, err := s.Environment(opt)
					if err != nil {
						t.Fatal(err)
					}
					var vs []invariants.Violation
					rep, err := env.RunPolicy(bench, curves, campaign.Options{
						Theta:        opt.Theta,
						Seed:         s.Seed,
						Tuner:        tuner,
						Policy:       pol,
						Resilience:   strategy,
						Deadline:     s.Deadline,
						BaseType:     s.BaseType,
						PolicyParams: policy.Params{Allocation: s.Allocation},
						Trend:        &earlycurve.Predictor{},
						Inspect: func(d *campaign.RunDetail) error {
							vs = invariants.Check(StateFor(d))
							return nil
						},
					})
					if err != nil {
						t.Fatalf("%s/%s/%s: %v", s.Name, tuner, pol, err)
					}
					cells = append(cells, Cell{
						Scenario: s.Name,
						Regime:   s.Regime,
						Tuner:    tuner,
						Strategy: strategy,
						CrossPolicyRow: experiments.CrossPolicyRow{
							Policy:              pol,
							Workload:            bench.Name,
							Cost:                rep.NetCost,
							JCTHours:            rep.JCT.Hours(),
							RefundFrac:          rep.RefundFraction(),
							Deployments:         rep.Deployments,
							OnDemandDeployments: rep.OnDemandDeployments,
							Notices:             rep.Notices,
							Report:              rep,
						},
						Violations: vs,
					})
				}
			}
		}
	}
	return cells
}

// TestMetamorphicStreamEquivalence pins the streaming runner bit-identical
// to running every cell cold on seeded random scenario specs: same cells in
// the same order, same costs/JCT/refunds to the last bit, same winner per
// cell, and agreeing invariant audits — under concurrent workers that reuse
// one EarlyCurve fit memo each across their cells.
func TestMetamorphicStreamEquivalence(t *testing.T) {
	iters := 3
	if testing.Short() {
		iters = 1
	}
	rng := rand.New(rand.NewPCG(0x57e4, 0))
	for i := 0; i < iters; i++ {
		// Two random specs per round (unique names), a random tuner pick,
		// and a random policy subset.
		specA, specB := randomSpec(rng), randomSpec(rng)
		specA.Name, specB.Name = fmt.Sprintf("meta-a%d", i), fmt.Sprintf("meta-b%d", i)
		m := Matrix{Specs: []Spec{specA, specB}}
		opt := quickOpts()
		opt.Seed = rng.Uint64()%500 + 1
		opt.Policies = []string{policy.SpotTuneName, policy.CheapestName, policy.OnDemandName}[:2+rng.IntN(2)]
		opt.Tuners = []string{search.SpotTuneName}
		if rng.IntN(2) == 0 {
			opt.Tuners = append(opt.Tuners, search.HalvingName)
		}

		cold := coldCells(t, m, opt)
		streamed, _ := streamAll(t, m, StreamOptions{Options: opt, Workers: 4})

		if len(streamed) != len(cold) {
			t.Fatalf("round %d: %d streamed cells vs %d cold", i, len(streamed), len(cold))
		}
		for j, want := range cold {
			got := streamed[j]
			if got.Scenario != want.Scenario || got.Tuner != want.Tuner || got.Policy != want.Policy {
				t.Fatalf("round %d cell %d: (%s,%s,%s) vs cold (%s,%s,%s)", i, j,
					got.Scenario, got.Tuner, got.Policy, want.Scenario, want.Tuner, want.Policy)
			}
			if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
				math.Float64bits(got.JCTHours) != math.Float64bits(want.JCTHours) ||
				math.Float64bits(got.RefundFrac) != math.Float64bits(want.RefundFrac) {
				t.Errorf("round %d cell %d (%s/%s/%s): economics diverge: cost %x vs %x, jct %x vs %x",
					i, j, got.Scenario, got.Tuner, got.Policy,
					math.Float64bits(got.Cost), math.Float64bits(want.Cost),
					math.Float64bits(got.JCTHours), math.Float64bits(want.JCTHours))
			}
			if got.Report.Best != want.Report.Best {
				t.Errorf("round %d cell %d: winner %q vs %q", i, j, got.Report.Best, want.Report.Best)
			}
			for k := range want.Report.Ranked {
				if got.Report.Ranked[k] != want.Report.Ranked[k] {
					t.Errorf("round %d cell %d: ranking diverges at %d", i, j, k)
					break
				}
			}
			if got.Deployments != want.Deployments || got.Notices != want.Notices ||
				got.OnDemandDeployments != want.OnDemandDeployments {
				t.Errorf("round %d cell %d: decision counts diverge", i, j)
			}
			if len(got.Violations) != len(want.Violations) {
				t.Errorf("round %d cell %d: %d violations streamed vs %d cold",
					i, j, len(got.Violations), len(want.Violations))
			}
		}
		// The rendered CSVs must also agree byte for byte.
		if !bytes.Equal(cellsCSV(t, cold), cellsCSV(t, streamed)) {
			t.Errorf("round %d: streamed CSV differs from cold CSV", i)
		}
	}
}

// TestStreamReplicatesAndSummary exercises the seed axis: replicate 0 is the
// one-replicate grid bit for bit, later replicates are present in order with
// distinct seeds actually changing outcomes, and the summary sketches equal
// a post-hoc aggregation of the per-cell values (streaming and CSV
// aggregation cannot disagree).
func TestStreamReplicatesAndSummary(t *testing.T) {
	specs, err := SpecsByName([]string{"baseline", "calm"})
	if err != nil {
		t.Fatal(err)
	}
	m := Matrix{Specs: specs}
	opt := quickOpts()
	opt.Policies = []string{policy.SpotTuneName, policy.CheapestName}
	const reps = 3
	cells, sum := streamAll(t, m, StreamOptions{Options: opt, Replicates: reps, Workers: 3})

	perSpec := len(opt.Policies) // one tuner
	if want := len(specs) * reps * perSpec; len(cells) != want {
		t.Fatalf("%d cells, want %d", len(cells), want)
	}
	if sum.Cells != len(cells) {
		t.Fatalf("summary counts %d cells, emitted %d", sum.Cells, len(cells))
	}
	// Emission order: spec-major, then replicate, tuner, policy.
	idx := 0
	for _, s := range specs {
		for r := 0; r < reps; r++ {
			for _, p := range opt.Policies {
				c := cells[idx]
				if c.Scenario != s.Name || c.Replicate != r || c.Policy != p {
					t.Fatalf("cell %d: got (%s, rep %d, %s), want (%s, rep %d, %s)",
						idx, c.Scenario, c.Replicate, c.Policy, s.Name, r, p)
				}
				idx++
			}
		}
	}
	// Replicate 0 must equal the one-replicate grid.
	single, _ := streamAll(t, m, StreamOptions{Options: opt})
	li := 0
	for _, c := range cells {
		if c.Replicate != 0 {
			continue
		}
		want := single[li]
		li++
		if math.Float64bits(c.Cost) != math.Float64bits(want.Cost) {
			t.Errorf("replicate 0 cell %s/%s diverges from the one-replicate grid", c.Scenario, c.Policy)
		}
	}
	if li != len(single) {
		t.Fatalf("matched %d replicate-0 cells, the one-replicate grid has %d", li, len(single))
	}
	// Different replicates must actually explore different seeds.
	varied := false
	for _, c := range cells {
		if c.Replicate == 0 {
			continue
		}
		for _, c0 := range cells {
			if c0.Replicate == 0 && c0.Scenario == c.Scenario && c0.Policy == c.Policy &&
				math.Float64bits(c0.Cost) != math.Float64bits(c.Cost) {
				varied = true
			}
		}
	}
	if !varied {
		t.Error("every replicate produced identical costs; seed axis is not wired")
	}
	// Summary == post-hoc aggregation of the per-cell column.
	recost := stats.NewQuantileSketch(stats.DefaultSketchAlpha)
	for _, c := range cells {
		recost.Add(c.Cost)
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if math.Float64bits(sum.Cost.Quantile(q)) != math.Float64bits(recost.Quantile(q)) {
			t.Errorf("q=%v: streamed %v vs re-aggregated %v", q, sum.Cost.Quantile(q), recost.Quantile(q))
		}
	}
	if sum.Violations != 0 {
		t.Errorf("%d invariant violations on a healthy streamed grid", sum.Violations)
	}
}
