package mltrain

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDatasetValidate(t *testing.T) {
	good := SyntheticBinary(100, 5, 2, 0, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	bad := &Dataset{X: [][]float64{{1, 2}}, Y: []float64{0, 1}, Classes: 2}
	if err := bad.Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
	ragged := &Dataset{X: [][]float64{{1, 2}, {1}}, Y: []float64{0, 1}, Classes: 2}
	if err := ragged.Validate(); err == nil {
		t.Error("ragged features accepted")
	}
	badLabel := &Dataset{X: [][]float64{{1}}, Y: []float64{5}, Classes: 2}
	if err := badLabel.Validate(); err == nil {
		t.Error("out-of-range label accepted")
	}
	empty := &Dataset{}
	if err := empty.Validate(); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestDatasetSplit(t *testing.T) {
	d := SyntheticBinary(200, 4, 2, 0, 1)
	train, val := d.Split(0.8)
	if train.Len()+val.Len() != d.Len() {
		t.Fatalf("split lost examples: %d + %d != %d", train.Len(), val.Len(), d.Len())
	}
	if train.Len() != 160 || val.Len() != 40 {
		t.Fatalf("split sizes %d/%d, want 160/40", train.Len(), val.Len())
	}
	// Both splits should see both classes.
	for name, ds := range map[string]*Dataset{"train": train, "val": val} {
		seen := map[float64]bool{}
		for _, y := range ds.Y {
			seen[y] = true
		}
		if len(seen) != 2 {
			t.Errorf("%s split has classes %v", name, seen)
		}
	}
}

func TestSyntheticGeneratorsDeterministic(t *testing.T) {
	a := SyntheticBinary(50, 8, 2, 0.05, 42)
	b := SyntheticBinary(50, 8, 2, 0.05, 42)
	for i := range a.X {
		for j := range a.X[i] {
			if a.X[i][j] != b.X[i][j] {
				t.Fatal("SyntheticBinary not deterministic")
			}
		}
	}
	c := SyntheticBinary(50, 8, 2, 0.05, 43)
	same := true
	for i := range a.X {
		for j := range a.X[i] {
			if a.X[i][j] != c.X[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestBatcherCoversEpoch(t *testing.T) {
	b := NewBatcher(10, 1)
	seen := map[int]bool{}
	for i := 0; i < 5; i++ {
		for _, idx := range b.Next(2) {
			seen[idx] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("one epoch covered %d/10 indices", len(seen))
	}
	// Oversized batches clamp.
	if got := len(b.Next(99)); got != 10 {
		t.Fatalf("oversized batch returned %d", got)
	}
}

func TestSchedules(t *testing.T) {
	if got := (ConstLR(0.1)).LR(999); got != 0.1 {
		t.Errorf("ConstLR = %v", got)
	}
	e := ExpDecay{Base: 0.1, DecayRate: 0.95, DecaySteps: 100}
	if got := e.LR(0); got != 0.1 {
		t.Errorf("ExpDecay at 0 = %v", got)
	}
	if got := e.LR(100); math.Abs(got-0.095) > 1e-12 {
		t.Errorf("ExpDecay at ds = %v, want 0.095", got)
	}
	// Degenerate config falls back to base.
	if got := (ExpDecay{Base: 0.2}).LR(50); got != 0.2 {
		t.Errorf("degenerate ExpDecay = %v", got)
	}
	s := EpochStepDecay{Base: 0.1, Factor: 0.1, DecayEpochs: 40, StepsPerEpoch: 10}
	if got := s.LR(399); got != 0.1 {
		t.Errorf("EpochStepDecay before drop = %v", got)
	}
	if got := s.LR(400); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("EpochStepDecay after drop = %v, want 0.01", got)
	}
	if got := (EpochStepDecay{Base: 0.3}).LR(10); got != 0.3 {
		t.Errorf("degenerate EpochStepDecay = %v", got)
	}
}

func TestLogisticRegressionLearns(t *testing.T) {
	d := SyntheticBinary(400, 10, 4, 0.02, 7)
	train, val := d.Split(0.8)
	m := NewLogisticRegression(10, 1e-4)
	tr, err := NewTrainer(m, train, val, TrainerConfig{Batch: 32, Schedule: ConstLR(0.5), ValidateEvery: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Validate()
	tr.RunSteps(300)
	after := tr.Validate()
	if after >= before {
		t.Fatalf("LoR loss did not improve: %v -> %v", before, after)
	}
	if acc := accuracy(val, func(x []float64) int {
		if m.predict(x) >= 0.5 {
			return 1
		}
		return 0
	}); acc < 0.9 {
		t.Errorf("LoR accuracy %v on separable data", acc)
	}
}

func TestLinearRegressionLearns(t *testing.T) {
	d := SyntheticRegression(400, 8, 0.05, 7)
	train, val := d.Split(0.8)
	m := NewLinearRegression(8, 0)
	tr, err := NewTrainer(m, train, val, TrainerConfig{Batch: 32, Schedule: ConstLR(0.1), ValidateEvery: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Validate()
	tr.RunSteps(400)
	after := tr.Validate()
	if after >= before/2 {
		t.Fatalf("LiR loss did not improve enough: %v -> %v", before, after)
	}
}

func TestSVMLearnsLinear(t *testing.T) {
	d := SyntheticBinary(400, 10, 4, 0.02, 9)
	train, val := d.Split(0.8)
	m := NewSVM(10, 1e-4)
	tr, err := NewTrainer(m, train, val, TrainerConfig{Batch: 32, Schedule: ConstLR(0.1), ValidateEvery: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Validate()
	tr.RunSteps(400)
	if after := tr.Validate(); after >= before/2 {
		t.Fatalf("SVM hinge loss did not improve enough: %v -> %v", before, after)
	}
}

func TestRFFTransformShapes(t *testing.T) {
	d := SyntheticBinary(50, 6, 2, 0, 3)
	rff := NewRFFTransform(6, 40, 0.5, 11)
	z := rff.Apply(d)
	if z.Dim() != 40 || z.Len() != 50 {
		t.Fatalf("RFF output %dx%d", z.Len(), z.Dim())
	}
	// Features are bounded by sqrt(2/D).
	bound := math.Sqrt(2.0/40.0) + 1e-12
	for _, x := range z.X {
		for _, v := range x {
			if math.Abs(v) > bound {
				t.Fatalf("RFF feature %v exceeds bound %v", v, bound)
			}
		}
	}
	if err := z.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGBTRegressorLearnsNonlinear(t *testing.T) {
	// Nonlinear target: GBT must beat a constant predictor markedly.
	d := SyntheticRegression(500, 6, 0.05, 13)
	train, val := d.Split(0.8)
	m := NewGBTRegressor(4, 5)
	tr, err := NewTrainer(m, train, val, TrainerConfig{Batch: 200, Schedule: ConstLR(0.3), ValidateEvery: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Validate()
	tr.RunSteps(20)
	after := tr.Validate()
	if after >= before/2 {
		t.Fatalf("GBT MSE did not halve: %v -> %v", before, after)
	}
	if len(m.Trees) != 20 {
		t.Fatalf("GBT grew %d trees, want 20", len(m.Trees))
	}
}

func TestMLPClassifierLearns(t *testing.T) {
	d := SyntheticImages(300, 16, 4, 0.3, 21)
	train, val := d.Split(0.8)
	m := NewMLPClassifier(16, []int{24}, 4, 3)
	tr, err := NewTrainer(m, train, val, TrainerConfig{Batch: 32, Schedule: ConstLR(3e-3), ValidateEvery: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Validate()
	tr.RunSteps(300)
	after := tr.Validate()
	if after >= before/2 {
		t.Fatalf("MLP loss did not halve: %v -> %v", before, after)
	}
	if acc := accuracy(val, func(x []float64) int {
		logits, _ := m.net.Forward(x)
		return argmax(logits)
	}); acc < 0.7 {
		t.Errorf("MLP accuracy %v too low", acc)
	}
}

func TestResMLPClassifierLearnsAndCheckpoints(t *testing.T) {
	d := SyntheticImages(300, 16, 4, 0.3, 23)
	train, val := d.Split(0.8)
	for _, postAct := range []bool{true, false} {
		m := NewResMLPClassifier(16, 24, 2, 4, postAct, 3)
		tr, err := NewTrainer(m, train, val, TrainerConfig{Batch: 32, Schedule: ConstLR(2e-3), ValidateEvery: 20, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		before := tr.Validate()
		tr.RunSteps(300)
		after := tr.Validate()
		if after >= before/2 {
			t.Fatalf("ResMLP(postAct=%v) loss did not halve: %v -> %v", postAct, before, after)
		}
	}
}

func TestEpochStepDecayProducesTwoStageCurve(t *testing.T) {
	// The Fig. 5b shape: a sharp validation-loss drop at the decay epoch.
	d := SyntheticImages(300, 16, 4, 0.5, 31)
	train, val := d.Split(0.8)
	m := NewResMLPClassifier(16, 24, 2, 4, true, 3)
	sched := EpochStepDecay{Base: 5e-3, Factor: 0.05, DecayEpochs: 20, StepsPerEpoch: 10}
	tr, err := NewTrainer(m, train, val, TrainerConfig{Batch: 32, Schedule: sched, ValidateEvery: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr.RunSteps(400)
	if got := sched.LR(199); got != 5e-3 {
		t.Fatalf("pre-decay lr %v", got)
	}
	if got := sched.LR(200); math.Abs(got-2.5e-4) > 1e-12 {
		t.Fatalf("post-decay lr %v", got)
	}
	curve := tr.Curve()
	if len(curve) != 40 {
		t.Fatalf("curve has %d points, want 40", len(curve))
	}
}

func TestTrainerRunStepsReturnsNewPoints(t *testing.T) {
	d := SyntheticBinary(100, 4, 3, 0, 3)
	train, val := d.Split(0.8)
	m := NewLogisticRegression(4, 0)
	tr, err := NewTrainer(m, train, val, TrainerConfig{Batch: 16, ValidateEvery: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := tr.RunSteps(12)
	if len(got) != 2 { // steps 5 and 10
		t.Fatalf("new points = %d, want 2", len(got))
	}
	got = tr.RunSteps(3) // reaches step 15
	if len(got) != 1 || got[0].Step != 15 {
		t.Fatalf("second batch points = %+v", got)
	}
}

func TestNewTrainerValidates(t *testing.T) {
	d := SyntheticBinary(100, 4, 3, 0, 3)
	train, val := d.Split(0.8)
	bad := &Dataset{}
	if _, err := NewTrainer(NewLogisticRegression(4, 0), bad, val, TrainerConfig{}); err == nil {
		t.Error("bad train set accepted")
	}
	if _, err := NewTrainer(NewLogisticRegression(4, 0), train, bad, TrainerConfig{}); err == nil {
		t.Error("bad val set accepted")
	}
}

// Property: softmaxCE loss is non-negative and its gradient sums to ~0.
func TestSoftmaxCEProperty(t *testing.T) {
	f := func(raw []float64, labelRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		logits := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			logits = append(logits, math.Mod(v, 50))
		}
		label := int(labelRaw) % len(logits)
		loss, d := softmaxCE(logits, label)
		if loss < 0 || math.IsNaN(loss) {
			return false
		}
		sum := 0.0
		for _, g := range d {
			sum += g
		}
		return math.Abs(sum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: GBT predictions are finite and checkpoints round-trip exactly.
func TestGBTPredictionFiniteProperty(t *testing.T) {
	f := func(seed uint64) bool {
		d := SyntheticRegression(80, 3, 0.1, seed)
		train, val := d.Split(0.8)
		m := NewGBTRegressor(3, 2)
		tr, err := NewTrainer(m, train, val, TrainerConfig{Batch: 60, Schedule: ConstLR(0.5), ValidateEvery: 3, Seed: seed})
		if err != nil {
			return false
		}
		tr.RunSteps(6)
		l := tr.Validate()
		return !math.IsNaN(l) && !math.IsInf(l, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// accuracy is the share of ds whose integer label predict gets right.
func accuracy(ds *Dataset, predict func(x []float64) int) float64 {
	hit := 0
	for i, x := range ds.X {
		if predict(x) == int(ds.Y[i]) {
			hit++
		}
	}
	return float64(hit) / float64(len(ds.X))
}

func argmax(v []float64) int {
	best := 0
	for j, x := range v {
		if x > v[best] {
			best = j
		}
	}
	return best
}
