package campaign

import (
	"testing"

	"spottune/internal/revpred"
	"spottune/internal/workload"
)

// TestGridsBuildOnlyForFeatureReads: a spottune campaign under the constant
// predictor, and under a WithPredictors copy that wraps it (as a tracing
// harness does), consults the predictor on the pool's grids without
// building any grid's per-minute arrays. Training RevPred reads features,
// so a RevPred environment has built every pool grid.
func TestGridsBuildOnlyForFeatureReads(t *testing.T) {
	env := quickEnv(t, PredictorConstant)
	log := &predictionLog{}
	preds := make(map[string]revpred.Predictor, len(env.Predictors))
	for name, p := range env.Predictors {
		preds[name] = loggedPredictor{inner: p, log: log}
	}
	wrapped, err := env.WithPredictors(preds)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: 3, Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	curves := bench.SyntheticCurves(3)
	for _, e := range []*Environment{env, wrapped} {
		if _, err := e.RunSpotTune(bench, curves, Options{Theta: 0.7, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if len(log.out) == 0 {
		t.Fatal("the wrapped predictors were never consulted")
	}
	for name, g := range env.Grids {
		if gridBuilt(g) {
			t.Fatalf("%s: a feature-free campaign built the grid's arrays", name)
		}
	}

	rev, _ := revPredEnv(t)
	for _, name := range rev.Pool {
		if !gridBuilt(rev.Grids[name]) {
			t.Fatalf("%s: training RevPred left the grid unbuilt", name)
		}
	}
}
