package core

import (
	"reflect"
	"testing"
	"time"

	"spottune/internal/cloudsim"
	"spottune/internal/obs"
	"spottune/internal/policy"
	"spottune/internal/search"
)

// worldPolicy constructs a registered policy bound to a testWorld's grids
// and predictors through GridRevProb, with the paper's default bid deltas.
func worldPolicy(t *testing.T, w *testWorld, name string, pool []string, seed uint64) policy.Policy {
	t.Helper()
	pol, err := policy.New(name, policy.Params{
		Pool:    pool,
		Seed:    seed,
		RevProb: GridRevProb(w.grids, w.preds),
	})
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// TestSingleSpotPoliciesRunEveryTrialOnOneType pins what the §IV-A4
// Single-Spot baselines promise when they run through the orchestrator at
// θ=1: one statically chosen type, a bid so high nothing is ever noticed,
// revoked or refunded, every trial trained to max_trial_steps, and the
// ranking of the trials' true finals.
func TestSingleSpotPoliciesRunEveryTrialOnOneType(t *testing.T) {
	cases := []struct {
		polName  string
		typeName string
	}{
		{policy.CheapestName, "slow"}, // lowest on-demand price in the fixture
		{policy.FastestName, "fast"},  // fewest seconds per step
	}
	for _, tc := range cases {
		t.Run(tc.polName, func(t *testing.T) {
			pool := []string{"slow", "fast"}
			w := newWorld(t, false)
			trials := mkTrials(t, w, 3, 100, 10)
			orch, err := NewPolicyOrchestrator(w.cluster, w.store,
				worldPolicy(t, w, tc.polName, pool, 7), pool, trials, orchCfg(1.0))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := orch.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Notices != 0 || rep.Revocations != 0 || rep.Refund != 0 || rep.FreeSteps != 0 {
				t.Fatalf("never-revoked baseline saw spot events: %d notices, %d revocations, $%v refunded, %d free steps",
					rep.Notices, rep.Revocations, rep.Refund, rep.FreeSteps)
			}
			for _, tr := range trials {
				if tr.CompletedSteps() != tr.MaxSteps() {
					t.Errorf("trial %s stopped at %d/%d", tr.ID(), tr.CompletedSteps(), tr.MaxSteps())
				}
			}
			led := w.cluster.Ledger()
			if len(led.Records) == 0 {
				t.Fatal("baseline rented nothing")
			}
			for _, u := range led.Records {
				if u.TypeName != tc.typeName || u.OnDemand {
					t.Errorf("ledger holds %s (on-demand %v), want only spot %s", u.TypeName, u.OnDemand, tc.typeName)
				}
			}
			if want := search.RankByValue(TrueFinals(trials)); !reflect.DeepEqual(rep.Ranked, want) {
				t.Errorf("ranking %v, want the true-final order %v", rep.Ranked, want)
			}
		})
	}
}

// TestOnDemandPolicyNeverRevoked: on the spiky market that revokes every
// near-market spot bid, the on-demand policy completes without a single
// notice and pays the fixed quote.
func TestOnDemandPolicyNeverRevoked(t *testing.T) {
	w := newWorld(t, true)
	pool := []string{"slow", "fast"}
	trials := mkTrials(t, w, 2, 300, 25)
	orch, err := NewPolicyOrchestrator(w.cluster, w.store,
		worldPolicy(t, w, policy.OnDemandName, pool, 7), pool, trials, orchCfg(1.0))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := orch.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		if tr.CompletedSteps() != tr.MaxSteps() {
			t.Fatalf("trial %s incomplete at %d", tr.ID(), tr.CompletedSteps())
		}
	}
	if rep.Notices != 0 || rep.Revocations != 0 || rep.Refund != 0 {
		t.Fatalf("on-demand campaign saw spot events: %+v", rep)
	}
	if rep.OnDemandDeployments != rep.Deployments || rep.Deployments == 0 {
		t.Fatalf("deployments %d, on-demand %d — want all on-demand",
			rep.Deployments, rep.OnDemandDeployments)
	}
	if rep.NetCost <= 0 {
		t.Fatal("on-demand campaign cost nothing")
	}
	if rep.Approach != "Policy(on-demand)" {
		t.Fatalf("approach %q", rep.Approach)
	}
}

// TestFallbackPolicySurvivesStormViaOnDemand: in a market that revokes
// near-market bids within minutes, the fallback policy must end up renting
// on-demand capacity (after its failure budget) and still finish — with
// dramatically fewer notices than the doomed pure-spot strategy.
func TestFallbackPolicySurvivesStormViaOnDemand(t *testing.T) {
	pool := []string{"slow"}
	w := stormWorld(t, 8*time.Minute, 5*time.Minute)
	trials := mkTrials(t, w, 2, 300, 25)
	// The constant-0 predictor never flags a doom window, so only the
	// failure streak can trigger the fallback.
	orch, err := NewPolicyOrchestrator(w.cluster, w.store,
		worldPolicy(t, w, policy.FallbackName, pool, 7), pool, trials, orchCfg(1.0))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := orch.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		if tr.CompletedSteps() != tr.MaxSteps() {
			t.Fatalf("storm stalled trial %s at %d", tr.ID(), tr.CompletedSteps())
		}
	}
	if rep.OnDemandDeployments == 0 {
		t.Fatal("fallback never swapped to on-demand in a revocation storm")
	}
	if rep.OnDemandDeployments >= rep.Deployments {
		t.Fatalf("fallback never tried spot: %d/%d", rep.OnDemandDeployments, rep.Deployments)
	}
	if rep.Notices == 0 {
		t.Fatal("storm fixture produced no notices; test broken")
	}
}

// TestFallbackBlackoutStreakSwapsToOnDemandAndBack pins the doom-window
// swap-back contract against capacity blackouts: rejections with the
// retriable ErrCapacityUnavailable must COUNT toward the trial's
// spot-failure streak (not reset it — each retry is a fresh Decide, so a
// reset would leave the fallback trying spot through the whole window).
// With a single blacked-out market and a predictor hostile during the
// window, the streak reaches the fallback threshold within two poll-grid retries,
// the policy traps the trial on on-demand ("streak" fallback event with the
// accumulated count), and — because on-demand segments end only at schedule
// boundaries — the θ-truncated explore segment hands the same trial back
// after the blackout has lifted and the predictor has calmed: the
// continuation swaps back to spot ("spot-return"), still carrying the
// streak, and only that surviving spot segment finally clears it.
func TestFallbackBlackoutStreakSwapsToOnDemandAndBack(t *testing.T) {
	w := newWorld(t, false)
	pool := []string{"slow"}
	blackoutEnd := t0.Add(40 * time.Minute)
	if err := w.cluster.AddBlackout(cloudsim.Blackout{
		TypeName: "slow",
		From:     t0,
		To:       blackoutEnd,
	}); err != nil {
		t.Fatal(err)
	}
	// Above the calm threshold (0.3) while the blackout holds — so the streak traps —
	// and calm afterwards so the trial is sent back to spot.
	pol, err := policy.New(policy.FallbackName, policy.Params{
		Pool: pool,
		Seed: 7,
		RevProb: func(string) policy.RevProbFunc {
			return func(at time.Time, _ float64) float64 {
				if at.Before(blackoutEnd) {
					return 0.45
				}
				return 0.05
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// θ=0.5 splits the 2000-step trial into a ~67min explore segment (the
	// trapped on-demand one) and a continuation segment whose deploy
	// decision lands well after the 40min blackout.
	trials := mkTrials(t, w, 1, 2000, 100)
	rec := obs.NewRecording(obs.Meta{Tuner: "spottune", Policy: "test", Workload: "synthetic", Seed: 1})
	cfg := orchCfg(0.5)
	cfg.MCnt = 1
	cfg.Tracer = rec
	orch, err := NewPolicyOrchestrator(w.cluster, w.store, pol, pool, trials, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := orch.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The policy swaps to on-demand after 2 consecutive spot failures.
	const fallbackAfter = 2
	if got := trials[0].CompletedSteps(); got != trials[0].MaxSteps() {
		t.Fatalf("trial stalled at %d steps", got)
	}
	if rep.OnDemandDeployments == 0 {
		t.Fatal("blackout streak never swapped the trial to on-demand")
	}
	if rep.OnDemandDeployments >= rep.Deployments {
		t.Fatalf("trial never returned to spot: %d/%d deployments on-demand",
			rep.OnDemandDeployments, rep.Deployments)
	}
	var retries, streakClears int
	var trapped, returned bool
	for _, e := range rec.Events() {
		switch e.Kind {
		case obs.KindBlackoutRetry:
			retries++
		case obs.KindFallback:
			switch e.Label {
			case "streak":
				trapped = true
				// The streak the policy acted on is the accumulated
				// blackout-rejection count — a streak reset on the
				// retriable error would never reach the threshold.
				if e.N < int64(fallbackAfter) {
					t.Errorf("trapped at streak %d, below the %d threshold",
						e.N, fallbackAfter)
				}
				if returned {
					t.Error("trapped on on-demand after the spot return")
				}
			case "spot-return":
				returned = true
			}
		case obs.KindStreakClear:
			streakClears++
			if !returned {
				t.Error("streak cleared before any surviving spot segment")
			}
		}
	}
	if retries < fallbackAfter {
		t.Fatalf("only %d blackout retries recorded; fixture never exercised the streak", retries)
	}
	if !trapped {
		t.Fatal("no \"streak\" fallback event: blackout rejections did not accumulate")
	}
	if !returned {
		t.Fatal("no \"spot-return\" event after the blackout lifted")
	}
	if streakClears == 0 {
		t.Fatal("surviving spot segment never cleared the failure streak")
	}
}

// TestFallbackDoomWindowSkipsSpotEntirely: with a predictor that always
// forecasts near-certain revocation, the fallback policy goes straight to
// on-demand without burning a single failed spot attempt.
func TestFallbackDoomWindowSkipsSpotEntirely(t *testing.T) {
	w := newWorld(t, true)
	pool := []string{"slow"}
	trials := mkTrials(t, w, 1, 200, 20)
	pol, err := policy.New(policy.FallbackName, policy.Params{
		Pool: pool,
		Seed: 7,
		RevProb: func(string) policy.RevProbFunc {
			return func(time.Time, float64) float64 { return 0.95 }
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	orch, err := NewPolicyOrchestrator(w.cluster, w.store, pol, pool, trials, orchCfg(1.0))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := orch.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OnDemandDeployments != rep.Deployments {
		t.Fatalf("doom window still tried spot: %d/%d", rep.OnDemandDeployments, rep.Deployments)
	}
	if rep.Notices != 0 {
		t.Fatalf("on-demand segments got noticed: %d", rep.Notices)
	}
}

// TestMixedFleetPinsIncumbentOnDemand: with concurrent slots and trials
// long enough to redeploy at hourly restarts, the mixed fleet must split —
// the incumbent-best trial on reliable capacity, the explorers on spot —
// and the campaign must finish with both kinds of deployment on the books.
func TestMixedFleetPinsIncumbentOnDemand(t *testing.T) {
	w := newWorld(t, false)
	pool := []string{"slow", "fast"}
	// ~2.2h per trial on the cheap instance: several restart decisions
	// fire after the leaderboard has formed.
	trials := mkTrials(t, w, 3, 2000, 100)
	cfg := orchCfg(1.0)
	cfg.MaxConcurrent = 2
	orch, err := NewPolicyOrchestrator(w.cluster, w.store,
		worldPolicy(t, w, policy.MixedFleetName, pool, 7), pool, trials, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := orch.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		if tr.CompletedSteps() != tr.MaxSteps() {
			t.Fatalf("trial %s incomplete", tr.ID())
		}
	}
	if rep.OnDemandDeployments == 0 {
		t.Fatal("mixed fleet never pinned the incumbent on on-demand")
	}
	if rep.OnDemandDeployments >= rep.Deployments {
		t.Fatalf("mixed fleet ran no spot explorers: %d/%d",
			rep.OnDemandDeployments, rep.Deployments)
	}
	if rep.Best != idFor(0) {
		t.Fatalf("best = %q", rep.Best)
	}
}

// TestPolicyOrchestratorValidation covers the constructor's policy wiring;
// TestOrchestratorValidation covers its cluster and trial inputs.
func TestPolicyOrchestratorValidation(t *testing.T) {
	w := newWorld(t, false)
	pool := []string{"slow", "fast"}
	trials := mkTrials(t, w, 1, 50, 10)
	pol := worldPolicy(t, w, policy.SpotTuneName, pool, 1)
	if _, err := NewPolicyOrchestrator(w.cluster, w.store, nil, pool, trials, Config{}); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := NewPolicyOrchestrator(w.cluster, w.store, pol, nil, trials, Config{}); err == nil {
		t.Error("empty pool accepted")
	}
}
