package campaign

import (
	"reflect"
	"testing"
	"time"

	"spottune/internal/core"
	"spottune/internal/earlycurve"
	"spottune/internal/policy"
	"spottune/internal/revpred"
	"spottune/internal/search"
	"spottune/internal/workload"
)

func quickEnv(t *testing.T, kind PredictorKind) *Environment {
	t.Helper()
	env, err := NewEnvironment(EnvOptions{Seed: 11, Days: 5, TrainDays: 2, Predictor: kind})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnvironmentDefaults(t *testing.T) {
	env := quickEnv(t, PredictorNone)
	if got := len(env.Pool); got != 6 {
		t.Fatalf("pool %d", got)
	}
	if !env.CampaignStart.Equal(env.Start.Add(2 * 24 * time.Hour)) {
		t.Fatalf("campaign start %v", env.CampaignStart)
	}
	if !env.End.Equal(env.Start.Add(5 * 24 * time.Hour)) {
		t.Fatalf("end %v", env.End)
	}
	// TrainDays >= Days is clamped.
	env2, err := NewEnvironment(EnvOptions{Seed: 1, Days: 3, TrainDays: 9, Predictor: PredictorNone})
	if err != nil {
		t.Fatal(err)
	}
	if !env2.CampaignStart.Equal(env2.Start.Add(2 * 24 * time.Hour)) {
		t.Fatalf("clamped campaign start %v", env2.CampaignStart)
	}
}

func TestEnvironmentPredictorKinds(t *testing.T) {
	for _, kind := range []PredictorKind{PredictorOracle, PredictorConstant, PredictorNone} {
		env := quickEnv(t, kind)
		if len(env.Predictors) != 6 {
			t.Errorf("%s: %d predictors", kind, len(env.Predictors))
		}
	}
	if _, err := NewEnvironment(EnvOptions{Seed: 1, Predictor: "wat"}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestWithPredictors(t *testing.T) {
	env := quickEnv(t, PredictorNone)
	preds := make(map[string]revpred.Predictor, len(env.Pool))
	for _, n := range env.Pool {
		preds[n] = revpred.ConstantPredictor(0.9)
	}
	env2, err := env.WithPredictors(preds)
	if err != nil {
		t.Fatal(err)
	}
	if env2.Predictors[env.Pool[0]].Predict(nil, 0, 0) != 0.9 {
		t.Fatal("predictors not swapped")
	}
	// Original untouched.
	if env.Predictors[env.Pool[0]].Predict(nil, 0, 0) != 0 {
		t.Fatal("original environment mutated")
	}
	delete(preds, env.Pool[0])
	if _, err := env.WithPredictors(preds); err == nil {
		t.Fatal("incomplete predictor map accepted")
	}
}

func TestRunSpotTuneAndBaselineAgainstSameMarkets(t *testing.T) {
	env := quickEnv(t, PredictorConstant)
	bench, err := workload.SuiteByName("GBTR", workload.Config{Seed: 2, Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	curves := bench.SyntheticCurves(2)
	st, err := env.RunSpotTune(bench, curves, Options{Theta: 0.7, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	base, err := env.RunPolicy(bench, curves, Options{Policy: policy.CheapestName, Theta: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.NetCost <= 0 || base.NetCost <= 0 {
		t.Fatalf("costs %v / %v", st.NetCost, base.NetCost)
	}
	// Determinism: identical rerun must produce identical reports.
	st2, err := env.RunSpotTune(bench, curves, Options{Theta: 0.7, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.NetCost != st2.NetCost || st.JCT != st2.JCT || st.Best != st2.Best {
		t.Fatalf("non-deterministic campaign: %v/%v vs %v/%v",
			st.NetCost, st.JCT, st2.NetCost, st2.JCT)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSpotTuneWithSLAQTrend(t *testing.T) {
	env := quickEnv(t, PredictorNone)
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: 3, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	curves := bench.SyntheticCurves(3)
	rep, err := env.RunSpotTune(bench, curves, Options{Theta: 0.6, Seed: 3, Trend: earlycurve.SLAQ{}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best == "" || len(rep.Ranked) != 16 {
		t.Fatalf("SLAQ-driven campaign report incomplete: %q/%d", rep.Best, len(rep.Ranked))
	}
}

func TestRunNilBenchmark(t *testing.T) {
	env := quickEnv(t, PredictorNone)
	if _, err := env.RunSpotTune(nil, nil, Options{}); err == nil {
		t.Error("nil benchmark accepted")
	}
}

// TestEveryPolicyDeterministicReplay: each registered policy must replay
// bit-identically under a fixed seed — the property Sweep-based studies
// depend on.
func TestEveryPolicyDeterministicReplay(t *testing.T) {
	env := quickEnv(t, PredictorConstant)
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: 6, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	curves := bench.SyntheticCurves(6)
	for _, name := range policy.Names() {
		opt := Options{Theta: 0.7, Seed: 6, Policy: name}
		a, err := env.RunPolicy(bench, curves, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := env.RunPolicy(bench, curves, opt)
		if err != nil {
			t.Fatalf("%s replay: %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: replay diverges (%v/$%.6f vs %v/$%.6f)",
				name, a.JCT, a.NetCost, b.JCT, b.NetCost)
		}
		if a.NetCost <= 0 || len(a.Ranked) != 16 || a.Best == "" {
			t.Errorf("%s: degenerate report: cost %v, %d ranked, best %q",
				name, a.NetCost, len(a.Ranked), a.Best)
		}
	}
}

// axisTasks builds one Sweep task per registry name, each running the
// campaign whose options set has written that name into.
func axisTasks(env *Environment, bench *workload.Benchmark, curves workload.Curves, names []string, opt Options, set func(*Options, string)) []Task {
	tasks := make([]Task, len(names))
	for i, name := range names {
		o := opt
		set(&o, name)
		tasks[i] = Task{Key: name, Run: func() (*core.Report, error) {
			return env.RunPolicy(bench, curves, o)
		}}
	}
	return tasks
}

// TestPolicyTasksSweep fans the policy dimension through the Sweep pool.
func TestPolicyTasksSweep(t *testing.T) {
	env := quickEnv(t, PredictorConstant)
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: 7, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	curves := bench.SyntheticCurves(7)
	tasks := axisTasks(env, bench, curves, policy.Names(), Options{Theta: 0.7, Seed: 7},
		func(o *Options, name string) { o.Policy = name })
	if len(tasks) < 6 {
		t.Fatalf("only %d policy tasks", len(tasks))
	}
	results := Sweep(tasks, SweepOptions{})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Key, r.Err)
		}
	}
	for i, res := range results {
		if res.Key != policy.Names()[i] {
			t.Errorf("result %d key %q, want %q", i, res.Key, policy.Names()[i])
		}
		if res.Report.NetCost <= 0 {
			t.Errorf("%s: cost %v", res.Key, res.Report.NetCost)
		}
	}
	// Sequential rerun must reproduce the parallel sweep exactly.
	for i, res := range results {
		o := Options{Theta: 0.7, Seed: 7, Policy: res.Key}
		rep, err := env.RunPolicy(bench, curves, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, results[i].Report) {
			t.Errorf("%s: sweep result differs from sequential run", res.Key)
		}
	}
}

// TestRunPolicyUnknownName surfaces registry misses.
func TestRunPolicyUnknownName(t *testing.T) {
	env := quickEnv(t, PredictorNone)
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: 1, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	curves := bench.SyntheticCurves(1)
	if _, err := env.RunPolicy(bench, curves, Options{Policy: "nope", Seed: 1}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestTrueFinalsConsistent(t *testing.T) {
	bench, err := workload.SuiteByName("LiR", workload.Config{Seed: 4, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	curves := bench.SyntheticCurves(4)
	finals, best, err := TrueFinals(bench, curves)
	if err != nil {
		t.Fatal(err)
	}
	if len(finals) != 16 {
		t.Fatalf("finals %d", len(finals))
	}
	for id, v := range finals {
		if v < finals[best] {
			t.Fatalf("best %s not minimal (%s=%v < %v)", best, id, v, finals[best])
		}
	}
}

// TestTunerTasksSweepEveryRegisteredTuner: the tuner-dimension sweep runs
// every registered search strategy over one environment through the worker
// pool, each report labeled with its tuner, deterministically per seed.
func TestTunerTasksSweepEveryRegisteredTuner(t *testing.T) {
	env := quickEnv(t, PredictorConstant)
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: 3, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	curves := bench.SyntheticCurves(3)
	opt := Options{Theta: 0.7, Seed: 3}
	names := search.Names()
	run := func() []SweepResult {
		return Sweep(axisTasks(env, bench, curves, names, opt,
			func(o *Options, name string) { o.Tuner = name }), SweepOptions{})
	}
	results := run()
	if len(results) != len(names) {
		t.Fatalf("%d results for %d registered tuners", len(results), len(names))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("tuner %s: %v", res.Key, res.Err)
		}
		if res.Key != names[i] {
			t.Errorf("result %d keyed %q, want registry order %q", i, res.Key, names[i])
		}
		if res.Report.Tuner != names[i] {
			t.Errorf("report for %s labeled %q", names[i], res.Report.Tuner)
		}
		if res.Report.Best == "" {
			t.Errorf("tuner %s selected nothing", names[i])
		}
	}
	again := run()
	for i := range results {
		if !reflect.DeepEqual(results[i].Report, again[i].Report) {
			t.Errorf("tuner %s replay diverged", results[i].Key)
		}
	}
}

// TestRunPolicyRejectsUnknownTuner: a typo'd tuner name fails loudly at
// campaign assembly, not mid-run.
func TestRunPolicyRejectsUnknownTuner(t *testing.T) {
	env := quickEnv(t, PredictorNone)
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: 1, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.RunPolicy(bench, bench.SyntheticCurves(1), Options{Tuner: "wat"}); err == nil {
		t.Fatal("unknown tuner accepted")
	}
}
