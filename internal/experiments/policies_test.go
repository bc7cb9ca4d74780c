package experiments

import (
	"reflect"
	"testing"

	"spottune/internal/campaign"
	"spottune/internal/policy"
)

// TestCrossPolicyStudy is the acceptance test for the policy comparison
// harness: every registered policy (≥ 6) runs on one Table II workload
// through campaign.Sweep, produces a comparable cost/JCT row, and the whole
// study replays bit-identically under a fixed seed.
func TestCrossPolicyStudy(t *testing.T) {
	ctx := quickCtx()
	rows, err := CrossPolicy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 6 {
		t.Fatalf("only %d policies in the study: %+v", len(rows), rows)
	}
	byName := make(map[string]CrossPolicyRow, len(rows))
	for _, r := range rows {
		byName[r.Policy] = r
		if r.Workload != "LoR" {
			t.Errorf("%s: workload %q", r.Policy, r.Workload)
		}
		if r.Cost <= 0 || r.JCTHours <= 0 {
			t.Errorf("%s: degenerate cost/JCT %v/%v", r.Policy, r.Cost, r.JCTHours)
		}
		if r.Report == nil || r.Report.Best == "" {
			t.Errorf("%s: no selection", r.Policy)
		}
	}
	for _, want := range []string{
		policy.SpotTuneName, policy.CheapestName, policy.FastestName,
		policy.OnDemandName, policy.FallbackName, policy.MixedFleetName,
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("policy %q missing from the study", want)
		}
	}
	// The pure on-demand policy must never touch the spot market; the
	// spot-only policies must never rent on-demand.
	if od := byName[policy.OnDemandName]; od.OnDemandDeployments != od.Deployments || od.Notices != 0 {
		t.Errorf("on-demand row saw spot activity: %+v", od)
	}
	for _, name := range []string{policy.SpotTuneName, policy.CheapestName, policy.FastestName} {
		if r := byName[name]; r.OnDemandDeployments != 0 {
			t.Errorf("%s rented on-demand capacity: %+v", name, r)
		}
	}

	// Deterministic replay of the whole fanned-out study.
	rows2, err := CrossPolicy(quickCtx())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, rows2) {
		t.Error("cross-policy study is not deterministic under a fixed seed")
	}
}

// TestCrossPolicySpotTuneMatchesRunSpotTune: every study row, in registry
// order, must be the campaign a sequential RunPolicy reports, and the
// spottune row the one RunSpotTune reports — the parallel fan-out is one
// comparison harness, not a second code path.
func TestCrossPolicySpotTuneMatchesRunSpotTune(t *testing.T) {
	ctx := quickCtx()
	rows, err := CrossPolicy(ctx)
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
	names := policy.Names()
	if len(rows) != len(names) {
		t.Fatalf("%d rows for %d registered policies", len(rows), len(names))
	}
	for i, r := range rows {
		if r.Policy != names[i] {
			t.Fatalf("row %d is %q, want registry order %q", i, r.Policy, names[i])
		}
		opt := campaign.Options{Theta: 0.7, Seed: ctx.Opts.Seed, Policy: r.Policy}
		run := env.RunPolicy
		if r.Policy == policy.SpotTuneName {
			run = env.RunSpotTune
		}
		rep, err := run(bench, curves, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Report, rep) {
			t.Errorf("study %s row diverges from a sequential run:\n%+v\nvs\n%+v", r.Policy, r.Report, rep)
		}
	}
}
