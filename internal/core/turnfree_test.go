package core_test

import (
	"fmt"
	"testing"

	"spottune/internal/campaign"
	"spottune/internal/core"
	"spottune/internal/policy"
	"spottune/internal/resilience"
	"spottune/internal/scenario"
	"spottune/internal/search"
	"spottune/internal/service"
	"spottune/internal/workload"
)

// withFullTurns runs f with the turn-free retries off when full is set.
func withFullTurns(full bool, f func()) {
	was := core.SetFullTurnsOnly(full)
	defer core.SetFullTurnsOnly(was)
	f()
}

// TestTurnFreeServiceMatchesFullTurns pins the turn-free retries on the
// contended service: co-resident tenants share one clock, capacity and
// surge, so a tenant that skips a turn must still see every other tenant's
// acquires and releases exactly when its full-turn twin does. Each of the
// three spot-chooser policies runs under both recovery strategies on
// TestServiceContendedDigest's configs, once with full turns only and once
// with turn-free retries. Every tenant's report must match but for
// LoopIterations, which must not grow, and the flight recording of the
// tenant with the most refusals must match event for event but for the
// campaign-end iteration count. Somewhere the retries must have saved
// turns, or the case shows nothing.
func TestTurnFreeServiceMatchesFullTurns(t *testing.T) {
	env, err := campaign.NewEnvironment(campaign.EnvOptions{
		Seed: 11, Days: 5, TrainDays: 2, Predictor: campaign.PredictorConstant,
	})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: 11, Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	curves := bench.SyntheticCurves(11)
	saved := 0
	for _, pol := range []string{policy.SpotTuneName, policy.FallbackName, policy.MixedFleetName} {
		for _, strat := range []string{resilience.FixedName, resilience.AdaptiveName} {
			for _, sc := range []struct{ shards, inFlight int }{{1, 6}, {2, 3}} {
				name := fmt.Sprintf("%s/%s/shards=%d", pol, strat, sc.shards)
				t.Run(name, func(t *testing.T) {
					tenants := service.DefaultBattery(12, 31)
					for i := range tenants {
						tenants[i].Policy, tenants[i].Resilience = pol, strat
					}
					run := func(full bool, traced string) []service.Result {
						var got []service.Result
						cfg := service.Config{
							Shards: sc.shards, MaxInFlight: sc.inFlight,
							Contention: true, Capacity: 2, SurgeSlope: 0.5,
							TraceTenant: traced,
							OnResult:    func(r service.Result) { got = append(got, r) },
						}
						withFullTurns(full, func() {
							if _, err := service.Run(env, bench, curves, tenants, cfg); err != nil {
								t.Fatal(err)
							}
						})
						for _, r := range got {
							if r.Err != nil {
								t.Fatalf("tenant %s: %v", r.Tenant.ID, r.Err)
							}
						}
						return got
					}
					probe := run(false, "")
					traced, most := "", 0
					for _, r := range probe {
						if n := core.Refusals(r.Report); n > most {
							traced, most = r.Tenant.ID, n
						}
					}
					if traced == "" {
						t.Fatal("no tenant was refused capacity: the case shows nothing")
					}
					free, full := run(false, traced), run(true, traced)
					for i := range full {
						a, b := free[i].Report, full[i].Report
						if d := core.ReportDiff(a, b); d != "" {
							t.Fatalf("tenant %s: reports differ:\n%s", full[i].Tenant.ID, d)
						}
						if d := core.ReportDiff(probe[i].Report, a); d != "" || probe[i].Report.LoopIterations != a.LoopIterations {
							t.Fatalf("tenant %s: tracing moved the report:\n%s", full[i].Tenant.ID, d)
						}
						if a.LoopIterations > b.LoopIterations {
							t.Fatalf("tenant %s: %d loop turns with turn-free retries, %d without", full[i].Tenant.ID, a.LoopIterations, b.LoopIterations)
						}
						saved += b.LoopIterations - a.LoopIterations
						if full[i].Tenant.ID != traced {
							continue
						}
						if d := core.EventsDiff(free[i].Trace, full[i].Trace); d != "" {
							t.Fatalf("tenant %s: %s", traced, d)
						}
					}
				})
			}
		}
	}
	if saved == 0 {
		t.Fatal("turn-free retries saved no loop turn on any contended tenant")
	}
}

// TestTurnFreeBatteryMatchesFullTurns pins the turn-free retries on the
// quick scenario battery and the chaos storms (seed 1), every registered
// policy under both recovery strategies (and every tuner unless -short),
// traced: blackouts, capacity crunches, mass preemptions and a deadline
// ladder in private worlds. Every cell's report and
// flight recording must match the full-turn run's but for LoopIterations
// and the campaign-end iteration count, and the cells must include
// capacity refusals.
func TestTurnFreeBatteryMatchesFullTurns(t *testing.T) {
	opt := scenario.StreamOptions{
		Options: scenario.Options{
			Seed: 1, Quick: true, Trace: true,
			Strategies: []string{resilience.FixedName, resilience.AdaptiveName},
		},
		Workers: 2,
	}
	if !testing.Short() {
		opt.Tuners = search.Names()
	}
	storms, err := scenario.StormSpecs(scenario.StormAll, 1)
	if err != nil {
		t.Fatal(err)
	}
	specs := append(scenario.DefaultSpecs(), storms...)
	run := func(full bool) []scenario.Cell {
		var cells []scenario.Cell
		o := opt
		o.OnCell = func(c scenario.Cell) error {
			cells = append(cells, c)
			return nil
		}
		withFullTurns(full, func() {
			if _, err := (scenario.Matrix{Specs: specs}).Stream(o); err != nil {
				t.Fatal(err)
			}
		})
		return cells
	}
	free, full := run(false), run(true)
	if len(free) != len(full) {
		t.Fatalf("%d cells with turn-free retries, %d with full turns", len(free), len(full))
	}
	refusing, saved := 0, 0
	for i := range full {
		a, b := free[i], full[i]
		where := fmt.Sprintf("%s/%s/%s/%s", b.Scenario, b.Tuner, b.Strategy, b.Policy)
		if d := core.ReportDiff(a.Report, b.Report); d != "" {
			t.Fatalf("%s: reports differ:\n%s", where, d)
		}
		if d := core.EventsDiff(a.Trace, b.Trace); d != "" {
			t.Fatalf("%s: %s", where, d)
		}
		if len(a.Violations) != 0 || len(b.Violations) != 0 {
			t.Fatalf("%s: violations %v / %v", where, a.Violations, b.Violations)
		}
		if core.Refusals(b.Report) > 0 {
			refusing++
		}
		saved += b.Report.LoopIterations - a.Report.LoopIterations
	}
	if refusing == 0 || saved <= 0 {
		t.Fatalf("%d capacity-refusing cells, %d loop turns saved: the battery shows nothing", refusing, saved)
	}
	t.Logf("%d cells, %d refused capacity; turn-free retries saved %d loop turns", len(full), refusing, saved)
}
