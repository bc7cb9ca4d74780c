package scenario

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"spottune/internal/campaign"
	"spottune/internal/core"
	"spottune/internal/invariants"
	"spottune/internal/policy"
	"spottune/internal/workload"
)

// randomSpec draws one scenario spec from the seeded stream: a regime, up
// to two faults at random campaign offsets, and occasionally a restricted
// fleet.
func randomSpec(rng *rand.Rand) Spec {
	regimes := []string{"baseline", "calm", "volatile", "diurnal", "flash-crash", "inversion", "crunch"}
	s := Spec{
		Name:   "meta",
		Regime: regimes[rng.IntN(len(regimes))],
		Seed:   rng.Uint64()%1000 + 1,
	}
	for f := rng.IntN(3); f > 0; f-- {
		after := time.Duration(1+rng.IntN(40)) * time.Hour
		if rng.IntN(2) == 0 {
			s.Faults = append(s.Faults, Fault{Kind: FaultMassPreemption, After: after})
		} else {
			s.Faults = append(s.Faults, Fault{
				Kind:     FaultBlackout,
				After:    after,
				Duration: time.Duration(1+rng.IntN(5)) * time.Hour,
			})
		}
	}
	if rng.IntN(3) == 0 {
		s.Pool = []string{"r4.large", "r3.xlarge", "m4.2xlarge"}
	}
	return s
}

// TestMetamorphicLoopEquivalence: for randomized scenario specs — regime,
// faults and fleet from randomSpec, plus a drawn θ — the event loop must run
// the same campaign dark and under full observation. With the flight
// recorder on and the invariant hook installed, the report (ranking,
// selection, economics, step attribution, turn count) is identical to the
// untraced run's, and the observed final state, trace included, passes the
// full invariant audit. One campaign per spec, cycling through the policies.
func TestMetamorphicLoopEquivalence(t *testing.T) {
	iters := 8
	if testing.Short() {
		iters = 4
	}
	rng := rand.New(rand.NewPCG(0xdecade, 0))
	opt := quickOpts()
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	curves := bench.SyntheticCurves(1)
	thetas := []float64{0.5, 0.7, 1.0}
	policies := []string{policy.SpotTuneName, policy.CheapestName, policy.FallbackName, policy.OnDemandName}
	for i := 0; i < iters; i++ {
		s := randomSpec(rng).withDefaults(opt)
		theta := thetas[rng.IntN(len(thetas))]
		pol := policies[i%len(policies)]
		env, err := s.Environment(opt)
		if err != nil {
			t.Fatal(err)
		}
		o := campaign.Options{Theta: theta, Seed: s.Seed, Policy: pol}
		dark, err := env.RunPolicy(bench, curves, o)
		if err != nil {
			t.Fatalf("spec %d (%s θ=%v %s): %v", i, s.Regime, theta, pol, err)
		}
		var vs []invariants.Violation
		events := 0
		o.Trace = true
		o.Inspect = func(d *campaign.RunDetail) error {
			vs = invariants.Check(StateFor(d))
			events = d.Trace.Len()
			return nil
		}
		observed, err := env.RunPolicy(bench, curves, o)
		if err != nil {
			t.Fatalf("spec %d (%s θ=%v %s) observed: %v", i, s.Regime, theta, pol, err)
		}
		if !reflect.DeepEqual(dark, observed) {
			t.Errorf("spec %d (%s θ=%v %s): observed run diverges from dark run: JCT %v vs %v, cost %v vs %v, best %q vs %q",
				i, s.Regime, theta, pol, observed.JCT, dark.JCT, observed.NetCost, dark.NetCost, observed.Best, dark.Best)
		}
		if events == 0 {
			t.Errorf("spec %d (%s θ=%v %s): flight recorder captured no events", i, s.Regime, theta, pol)
		}
		if len(vs) != 0 {
			t.Errorf("spec %d (%s θ=%v %s faults=%d): invariant violations: %v",
				i, s.Regime, theta, pol, len(s.Faults), vs)
		}
	}
}

// TestMetamorphicQuantizationOnReliableCapacity: on reliable on-demand
// capacity nothing makes the event loop wait on its retry quantum — no
// notice spaces a redeploy by a poll tick, no blackout rejection retries on
// its grid — so its turns count real events, not poll ticks, and a spec's
// faults cannot move the campaign. Every randomized scenario, faults and
// all, must run the same campaign as its fault-free twin. The only trace a
// scheduled mass preemption may leave is one extra scheduler turn (the
// wakeup that finds nothing to reclaim), which splits one segment's
// seconds-per-step sample into two slices: that sample may differ from the
// twin's in its last bits, and nothing else may.
func TestMetamorphicQuantizationOnReliableCapacity(t *testing.T) {
	iters := 6
	if testing.Short() {
		iters = 3
	}
	rng := rand.New(rand.NewPCG(0xfacade, 0))
	opt := quickOpts()
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	curves := bench.SyntheticCurves(1)
	run := func(s Spec, theta float64, inspect func(*campaign.RunDetail) error) *core.Report {
		t.Helper()
		env, err := s.Environment(opt)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := env.RunPolicy(bench, curves, campaign.Options{
			Theta:   theta,
			Seed:    s.Seed,
			Policy:  policy.OnDemandName,
			Inspect: inspect,
		})
		if err != nil {
			t.Fatalf("%s faults=%d: %v", s.Regime, len(s.Faults), err)
		}
		return rep
	}
	for i := 0; i < iters; i++ {
		s := randomSpec(rng).withDefaults(opt)
		theta := []float64{0.5, 0.7, 1.0}[rng.IntN(3)]
		var vs []invariants.Violation
		faulted := run(s, theta, func(d *campaign.RunDetail) error {
			vs = invariants.Check(StateFor(d))
			return nil
		})
		twin := s
		twin.Faults = nil
		clean := run(twin, theta, nil)
		preemptions := 0
		for _, f := range s.Faults {
			if f.Kind == FaultMassPreemption {
				preemptions++
			}
		}
		if len(vs) != 0 {
			t.Errorf("spec %d (%s θ=%v): invariant violations: %v", i, s.Regime, theta, vs)
		}
		if faulted.Notices != 0 || faulted.Revocations != 0 || faulted.BlackoutRetries != nil {
			t.Errorf("spec %d (%s θ=%v): reliable capacity hit the retry paths: %d notices, %d revocations, retries %v",
				i, s.Regime, theta, faulted.Notices, faulted.Revocations, faulted.BlackoutRetries)
		}
		if faulted.OnDemandDeployments != faulted.Deployments {
			t.Errorf("spec %d (%s θ=%v): %d of %d deployments on demand",
				i, s.Regime, theta, faulted.OnDemandDeployments, faulted.Deployments)
		}
		// One turn per deployment's trigger and at most one per round
		// opening (every round deploys), plus the preemption wakeups — a
		// polling loop would need JCT/poll-interval turns, thousands here.
		if max := 2*faulted.Deployments + preemptions; faulted.LoopIterations > max {
			t.Errorf("spec %d (%s θ=%v): %d loop turns for %d deployments and %d preemptions (max %d)",
				i, s.Regime, theta, faulted.LoopIterations, faulted.Deployments, preemptions, max)
		}
		if extra := faulted.LoopIterations - clean.LoopIterations; extra < 0 || extra > preemptions {
			t.Errorf("spec %d (%s θ=%v): %d loop turns with faults vs %d without (%d preemptions)",
				i, s.Regime, theta, faulted.LoopIterations, clean.LoopIterations, preemptions)
		}
		if len(faulted.PerfObservations) != len(clean.PerfObservations) {
			t.Fatalf("spec %d (%s θ=%v): %d perf observations with faults vs %d without",
				i, s.Regime, theta, len(faulted.PerfObservations), len(clean.PerfObservations))
		}
		for j, got := range faulted.PerfObservations {
			want := clean.PerfObservations[j]
			if got.TypeName != want.TypeName || got.HPID != want.HPID ||
				math.Abs(got.SecPerStep-want.SecPerStep) > 1e-12*want.SecPerStep {
				t.Errorf("spec %d (%s θ=%v): perf observation %d %+v with faults vs %+v without",
					i, s.Regime, theta, j, got, want)
			}
		}
		f, c := *faulted, *clean
		f.LoopIterations, c.LoopIterations = 0, 0
		f.PerfObservations, c.PerfObservations = nil, nil
		if !reflect.DeepEqual(f, c) {
			t.Errorf("spec %d (%s θ=%v faults=%d): faults moved an on-demand campaign: JCT %v vs %v, cost %v vs %v, deployments %d vs %d",
				i, s.Regime, theta, len(s.Faults), faulted.JCT, clean.JCT, faulted.NetCost, clean.NetCost,
				faulted.Deployments, clean.Deployments)
		}
	}
}
