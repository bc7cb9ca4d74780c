package experiments

import (
	"reflect"
	"testing"

	"spottune/internal/campaign"
	"spottune/internal/search"
)

// TestCrossTunerStudy is the acceptance test for the search-strategy
// comparison harness: every registered tuner (≥ 4) runs on one Table II
// workload through campaign.Sweep, produces a comparable cost/JCT row, and
// the whole study replays bit-identically under a fixed seed.
func TestCrossTunerStudy(t *testing.T) {
	ctx := quickCtx()
	rows, err := CrossTuner(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("only %d tuners in the study: %+v", len(rows), rows)
	}
	byName := make(map[string]CrossTunerRow, len(rows))
	for _, r := range rows {
		byName[r.Tuner] = r
		if r.Workload != "LoR" {
			t.Errorf("%s: workload %q", r.Tuner, r.Workload)
		}
		if r.Cost <= 0 || r.JCTHours <= 0 {
			t.Errorf("%s: degenerate cost/JCT %v/%v", r.Tuner, r.Cost, r.JCTHours)
		}
		if r.Report == nil || r.Report.Best == "" {
			t.Errorf("%s: no selection", r.Tuner)
		}
		if r.Report != nil && r.Report.Tuner != r.Tuner {
			t.Errorf("row %s carries a report from tuner %q", r.Tuner, r.Report.Tuner)
		}
	}
	for _, want := range []string{
		search.SpotTuneName, search.HalvingName, search.HyperbandName, search.FullTrainName,
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("tuner %q missing from the study", want)
		}
	}
	// The full-train ceiling does the most work of any schedule.
	ceiling := byName[search.FullTrainName]
	for _, name := range []string{search.HalvingName, search.HyperbandName} {
		if r := byName[name]; r.Report.TotalSteps >= ceiling.Report.TotalSteps {
			t.Errorf("%s ran %d steps, at or above the full-train ceiling %d",
				name, r.Report.TotalSteps, ceiling.Report.TotalSteps)
		}
	}

	// Deterministic replay of the whole fanned-out study.
	rows2, err := CrossTuner(quickCtx())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, rows2) {
		t.Fatal("same seed produced different cross-tuner studies")
	}
}

// TestCrossTunerSpotTuneRowMatchesRunSpotTune: every study row, in registry
// order, must be the campaign a sequential RunPolicy runs, and the spottune
// row the one RunSpotTune runs — the tuner axis adds no hidden divergence.
func TestCrossTunerSpotTuneRowMatchesRunSpotTune(t *testing.T) {
	ctx := quickCtx()
	rows, err := CrossTuner(ctx)
	if err != nil {
		t.Fatal(err)
	}
	env, err := ctx.Env(ctx.defaultKind())
	if err != nil {
		t.Fatal(err)
	}
	bench, err := ctx.Bench("LoR")
	if err != nil {
		t.Fatal(err)
	}
	curves, err := ctx.Curves("LoR")
	if err != nil {
		t.Fatal(err)
	}
	names := search.Names()
	if len(rows) != len(names) {
		t.Fatalf("%d rows for %d registered tuners", len(rows), len(names))
	}
	for i, r := range rows {
		if r.Tuner != names[i] {
			t.Fatalf("row %d is %q, want registry order %q", i, r.Tuner, names[i])
		}
		opt := campaign.Options{Theta: 0.7, Seed: ctx.Opts.Seed, Tuner: r.Tuner}
		run := env.RunPolicy
		if r.Tuner == search.SpotTuneName {
			opt.Tuner = ""
			run = env.RunSpotTune
		}
		direct, err := run(bench, curves, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Report, direct) {
			t.Errorf("study %s row diverges from a sequential run:\n%+v\nvs\n%+v", r.Tuner, r.Report, direct)
		}
	}
}
