package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"spottune/internal/earlycurve"
	"spottune/internal/trial"
)

// TestOrchestratorConservationProperty drives randomized campaigns (random
// trial counts, horizons, θ, spikiness) and asserts the invariants that must
// hold for every one of them:
//
//   - every submitted trial reaches exactly its phase-appropriate step count
//   - free steps never exceed total steps
//   - refunds never exceed gross cost; net = gross − refund
//   - the selected best HP is one of the submitted trials
//   - the ranking is a permutation of all submitted trials
func TestOrchestratorConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xc0))
		spiky := rng.IntN(2) == 0
		w := newWorld(t, spiky)
		nTrials := 2 + rng.IntN(3)
		every := 10
		maxSteps := (60 + rng.IntN(240)) / every * every
		theta := 0.3 + 0.7*rng.Float64()
		trials := mkTrials(t, w, nTrials, maxSteps, every)

		cfg := orchCfg(theta)
		cfg.MCnt = 1 + rng.IntN(nTrials)
		cfg.MaxConcurrent = 1 + rng.IntN(2)
		rep, err := w.orchestrator(t, []string{"slow", "fast"}, 7, trials, cfg).Run()
		if err != nil {
			return false
		}
		// Billing invariants.
		if rep.GrossCost < 0 || rep.Refund < 0 || rep.Refund > rep.GrossCost+1e-9 {
			return false
		}
		if diff := rep.GrossCost - rep.Refund - rep.NetCost; diff > 1e-9 || diff < -1e-9 {
			return false
		}
		if rep.FreeSteps < 0 || rep.FreeSteps > rep.TotalSteps {
			return false
		}
		// Ranking is a permutation of the submitted trials.
		if len(rep.Ranked) != nTrials {
			return false
		}
		seen := map[string]bool{}
		for _, id := range rep.Ranked {
			seen[id] = true
		}
		bestSubmitted := false
		for _, tr := range trials {
			if !seen[tr.ID()] {
				return false
			}
			if tr.ID() == rep.Best {
				bestSubmitted = true
			}
		}
		if !bestSubmitted {
			return false
		}
		// Step accounting: continued trials finish fully, the rest stop
		// at the θ cap (or earlier only via convergence, which these
		// strictly-decreasing curves never trigger before the cap).
		thetaCap := int(float64(maxSteps)*theta + 0.5)
		inTop := map[string]bool{}
		for _, id := range rep.Top {
			inTop[id] = true
		}
		for _, tr := range trials {
			got := tr.CompletedSteps()
			if inTop[tr.ID()] {
				if got != maxSteps {
					return false
				}
			} else if got < thetaCap-1 || got > thetaCap+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCampaignJCTBoundedProperty: the campaign can never finish faster than
// the pure compute lower bound on the fastest instance, nor absurdly slower
// than the slowest sequential bound plus per-deployment overheads.
func TestCampaignJCTBoundedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xd1))
		w := newWorld(t, false)
		n := 2 + rng.IntN(2)
		maxSteps := (100 + rng.IntN(100)) / 10 * 10
		trials := mkTrials(t, w, n, maxSteps, 10)
		rep, err := w.orchestrator(t, []string{"slow", "fast"}, 7, trials, orchCfg(1.0)).Run()
		if err != nil {
			return false
		}
		// Lower bound: all steps at the fast instance's 1 s/step, fully
		// parallel would still need maxSteps seconds.
		if rep.JCT < time.Duration(maxSteps)*time.Second {
			return false
		}
		// Upper bound: sequential on the slow instance (4 s/step) plus a
		// generous hour per deployment of overhead.
		upper := time.Duration(n*maxSteps*4)*time.Second +
			time.Duration(rep.Deployments+1)*time.Hour
		return rep.JCT <= upper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestCheckpointMonotoneProperty: a trial's checkpointed progress never
// decreases across the checkpoints the orchestrator writes (snapshots are
// taken at or after the previous one).
func TestCheckpointMonotoneProperty(t *testing.T) {
	w := newWorld(t, true)
	trials := mkTrials(t, w, 1, 600, 50)
	if _, err := w.orchestrator(t, []string{"slow"}, 9, trials, orchCfg(1.0)).Run(); err != nil {
		t.Fatal(err)
	}
	// The final checkpoint must decode to the trial's final progress.
	blob, _, err := w.store.Get("ckpt/"+trials[0].ID(), 2)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := trial.NewReplay(trials[0].ID(), 600, mkCurvePoints(600, 50), w.perf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if probe.CompletedSteps() != 600 {
		t.Fatalf("final checkpoint holds %d steps, want 600", probe.CompletedSteps())
	}
}

func mkCurvePoints(maxSteps, every int) []earlycurve.MetricPoint {
	var pts []earlycurve.MetricPoint
	for s := every; s <= maxSteps; s += every {
		pts = append(pts, earlycurve.MetricPoint{Step: s, Value: 1/(0.05*float64(s)+1.2) + 0.1})
	}
	return pts
}
