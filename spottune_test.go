package spottune

import (
	"testing"
	"time"
)

// fastEnv builds an environment without neural training (constant
// predictor) over a short trace window.
func fastEnv(t *testing.T, kind PredictorKind) *Environment {
	t.Helper()
	env, err := NewEnvironment(EnvOptions{
		Seed:      3,
		Days:      6,
		TrainDays: 2,
		Predictor: kind,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnvironmentShape(t *testing.T) {
	env := fastEnv(t, PredictorConstant)
	if len(env.Pool) != 6 {
		t.Fatalf("pool size %d, want 6", len(env.Pool))
	}
	if len(env.Grids) != 6 || len(env.Predictors) != 6 {
		t.Fatalf("grids/predictors %d/%d", len(env.Grids), len(env.Predictors))
	}
	wantStart := DefaultStart().Add(2 * 24 * time.Hour)
	if !env.CampaignStart.Equal(wantStart) {
		t.Fatalf("campaign start %v, want %v", env.CampaignStart, wantStart)
	}
	if _, err := NewEnvironment(EnvOptions{Seed: 1, Predictor: "bogus"}); err == nil {
		t.Fatal("bogus predictor kind accepted")
	}
}

func TestEndToEndCampaignAndBaselines(t *testing.T) {
	env := fastEnv(t, PredictorOracle)
	bench, err := BenchmarkByName("LoR", WorkloadConfig{Seed: 1, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	curves := bench.SyntheticCurves(1)

	st, err := env.RunSpotTune(bench, curves, CampaignOptions{Theta: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cheap, err := env.RunPolicy(bench, curves, CampaignOptions{Policy: PolicyCheapest, Theta: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := env.RunPolicy(bench, curves, CampaignOptions{Policy: PolicyFastest, Theta: 1, Seed: 1, BaseType: "m4.4xlarge"})
	if err != nil {
		t.Fatal(err)
	}

	if st.NetCost <= 0 || cheap.NetCost <= 0 || fast.NetCost <= 0 {
		t.Fatalf("non-positive costs: %v %v %v", st.NetCost, cheap.NetCost, fast.NetCost)
	}
	if st.JCT <= 0 {
		t.Fatalf("JCT %v", st.JCT)
	}
	// Fastest baseline must beat cheapest on time; cheapest must beat
	// fastest on cost (Fig. 7 relationships that must always hold).
	if fast.JCT >= cheap.JCT {
		t.Errorf("fastest JCT %v not below cheapest %v", fast.JCT, cheap.JCT)
	}
	if cheap.NetCost >= fast.NetCost {
		t.Errorf("cheapest cost %v not below fastest %v", cheap.NetCost, fast.NetCost)
	}
	// SpotTune with θ=0.7 runs ~30% fewer steps plus refunds: it should
	// undercut both baselines on cost.
	if st.NetCost >= cheap.NetCost {
		t.Errorf("SpotTune cost %v not below cheapest baseline %v", st.NetCost, cheap.NetCost)
	}
	// Selection quality: ranking exists and best is one of the trials.
	if st.Best == "" || len(st.Ranked) != 16 {
		t.Fatalf("best %q ranked %d", st.Best, len(st.Ranked))
	}
	finals, trueBest, err := TrueFinals(bench, curves)
	if err != nil {
		t.Fatal(err)
	}
	if len(finals) != 16 || trueBest == "" {
		t.Fatalf("finals %d best %q", len(finals), trueBest)
	}
}

func TestThetaOneRunsAllSteps(t *testing.T) {
	env := fastEnv(t, PredictorNone)
	bench, err := BenchmarkByName("LiR", WorkloadConfig{Seed: 2, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	curves := bench.SyntheticCurves(2)
	rep, err := env.RunSpotTune(bench, curves, CampaignOptions{Theta: 1.0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := 16 * bench.MaxTrialSteps
	if rep.TotalSteps != want {
		t.Fatalf("total steps %d, want %d", rep.TotalSteps, want)
	}
}

func TestThetaReducesCostMonotonically(t *testing.T) {
	env := fastEnv(t, PredictorConstant)
	bench, err := BenchmarkByName("SVM", WorkloadConfig{Seed: 4, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	curves := bench.SyntheticCurves(4)
	low, err := env.RunSpotTune(bench, curves, CampaignOptions{Theta: 0.3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	high, err := env.RunSpotTune(bench, curves, CampaignOptions{Theta: 1.0, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if low.TotalSteps >= high.TotalSteps {
		t.Errorf("θ=0.3 steps %d not below θ=1.0 steps %d", low.TotalSteps, high.TotalSteps)
	}
	if low.JCT >= high.JCT {
		t.Errorf("θ=0.3 JCT %v not below θ=1.0 JCT %v", low.JCT, high.JCT)
	}
}

func TestSuiteAccessors(t *testing.T) {
	if got := len(Suite(WorkloadConfig{Seed: 1, Scale: 0.2})); got != 6 {
		t.Fatalf("Suite len %d", got)
	}
	if _, err := BenchmarkByName("nope", WorkloadConfig{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
