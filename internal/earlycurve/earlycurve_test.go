package earlycurve

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// synthCurve generates points from the Eq. 4 family itself.
func synthCurve(a [4]float64, n int) []MetricPoint {
	pts := make([]MetricPoint, n)
	for k := 1; k <= n; k++ {
		v := 1/(a[0]*float64(k)*float64(k)+a[1]*float64(k)+a[2]) + a[3]
		pts[k-1] = MetricPoint{Step: k, Value: v}
	}
	return pts
}

// twoStageCurve emulates a learning-rate-decay curve: stage one decays
// toward plateau p1, then at step jump the metric drops sharply and decays
// toward plateau p2 < p1 (the Fig. 5b ResNet shape).
func twoStageCurve(n, jump int, p1, p2 float64) []MetricPoint {
	pts := make([]MetricPoint, n)
	for k := 1; k <= n; k++ {
		var v float64
		if k < jump {
			v = 1/(0.05*float64(k)+1.2) + p1
		} else {
			kl := float64(k - jump + 1)
			v = 1/(2.0*kl+5.0) + p2
		}
		pts[k-1] = MetricPoint{Step: k, Value: v}
	}
	return pts
}

func TestChangeRate(t *testing.T) {
	if got := changeRate(2, 1, 0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("changeRate(2,1) = %v", got)
	}
	if got := changeRate(0, 1, 0); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("changeRate(0,1) = %v not finite", got)
	}
	// The floor damps relative changes near zero.
	if got := changeRate(0.001, 0.002, 0.01); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("floored changeRate = %v, want 0.1", got)
	}
}

// pointsOf turns metric values into points at steps 1, 2, ….
func pointsOf(values ...float64) []MetricPoint {
	pts := make([]MetricPoint, len(values))
	for i, v := range values {
		pts[i] = MetricPoint{Step: i + 1, Value: v}
	}
	return pts
}

func TestDetectorSingleStage(t *testing.T) {
	pts := synthCurve([4]float64{0, 0.05, 1.0, 0.3}, 100)
	b := Boundaries(pts)
	if len(b) != 1 || b[0] != 0 {
		t.Fatalf("smooth curve boundaries = %v, want [0]", b)
	}
}

func TestDetectorTwoStage(t *testing.T) {
	pts := twoStageCurve(200, 100, 0.8, 0.2)
	b := Boundaries(pts)
	if len(b) != 2 {
		t.Fatalf("two-stage curve boundaries = %v, want 2 stages", b)
	}
	// Jump is at index 99 (step 100).
	if b[1] != 99 {
		t.Errorf("stage boundary at index %d, want 99", b[1])
	}
}

func TestDetectorNeedsSteadyPrefix(t *testing.T) {
	// A jump in the still-noisy early phase must not split stages.
	pts := pointsOf(10, 5, 2.4, 1.1, 0.6, 0.58, 0.57, 0.565, 0.562, 0.561)
	b := Boundaries(pts)
	if len(b) != 1 {
		t.Fatalf("early-jump boundaries = %v, want [0]", b)
	}
}

func TestDetectorEmptyAndTiny(t *testing.T) {
	if got := Boundaries(nil); len(got) != 1 || got[0] != 0 {
		t.Errorf("Boundaries(nil) = %v", got)
	}
	if got := Boundaries(pointsOf(1)); len(got) != 1 {
		t.Errorf("Boundaries(single) = %v", got)
	}
}

func TestConverged(t *testing.T) {
	flat := pointsOf(0.5, 0.5001, 0.5002, 0.5001, 0.5000, 0.5001)
	if !Converged(flat, 5, 0.01) {
		t.Error("flat curve not detected as converged")
	}
	falling := pointsOf(1.0, 0.8, 0.6, 0.5, 0.4, 0.3)
	if Converged(falling, 5, 0.01) {
		t.Error("falling curve wrongly converged")
	}
	if Converged(flat[:2], 5, 0.01) {
		t.Error("short history wrongly converged")
	}
}

func TestFitCurveRecoversSingleStage(t *testing.T) {
	truth := [4]float64{0.0001, 0.05, 1.0, 0.35}
	pts := synthCurve(truth, 80)
	f, err := fitCurve(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Stages) != 1 {
		t.Fatalf("fitted %d stages, want 1", len(f.Stages))
	}
	// In-sample accuracy.
	for _, p := range pts {
		got, err := f.Predict(p.Step)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-p.Value) > 0.01 {
			t.Fatalf("fit error %v at step %d", math.Abs(got-p.Value), p.Step)
		}
	}
	// Extrapolation to 3x the horizon stays near the true plateau.
	got, err := f.Predict(240)
	if err != nil {
		t.Fatal(err)
	}
	want := 1/(truth[0]*240*240+truth[1]*240+truth[2]) + truth[3]
	if math.Abs(got-want) > 0.05 {
		t.Errorf("extrapolation at 240 = %v, want %v", got, want)
	}
}

func TestFitCurveTwoStagePrediction(t *testing.T) {
	pts := twoStageCurve(300, 150, 0.8, 0.2)
	// Observe only the first 70%.
	obs := pts[:210]
	f, err := fitCurve(obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Stages) != 2 {
		t.Fatalf("fitted %d stages, want 2", len(f.Stages))
	}
	got, err := f.Predict(300)
	if err != nil {
		t.Fatal(err)
	}
	truth := pts[299].Value
	if math.Abs(got-truth) > 0.03 {
		t.Errorf("two-stage prediction %v, truth %v", got, truth)
	}
}

func TestFitCurveErrors(t *testing.T) {
	if _, err := fitCurve(nil, nil); err == nil {
		t.Error("empty points accepted")
	}
	short := synthCurve([4]float64{0, 0.1, 1, 0.2}, 3)
	if _, err := fitCurve(short, nil); err == nil {
		t.Error("3 points accepted")
	}
	bad := []MetricPoint{{1, 1}, {1, 0.9}, {2, 0.8}, {3, 0.7}, {4, 0.6}}
	if _, err := fitCurve(bad, nil); err == nil {
		t.Error("non-increasing steps accepted")
	}
}

func TestPredictBeforeFirstStage(t *testing.T) {
	pts := make([]MetricPoint, 20)
	for i := range pts {
		pts[i] = MetricPoint{Step: i + 100, Value: 1/(0.1*float64(i+1)+1) + 0.3}
	}
	f, err := fitCurve(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Predict(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(got) || got <= 0 {
		t.Errorf("pre-stage prediction = %v", got)
	}
}

func TestEarlyCurveBeatsSLAQOnTwoStage(t *testing.T) {
	// The Fig. 11 comparison: on a two-stage curve observed to 70%, the
	// staged model must predict the final value far better than the
	// single-stage SLAQ fit.
	pts := twoStageCurve(300, 150, 0.8, 0.2)
	obs := pts[:210]
	truth := pts[299].Value

	ec := &Predictor{}
	ecPred, err := ec.PredictFinal(obs, 300)
	if err != nil {
		t.Fatal(err)
	}
	slaqPred, err := SLAQ{}.PredictFinal(obs, 300)
	if err != nil {
		t.Fatal(err)
	}
	ecErr := math.Abs(ecPred - truth)
	slaqErr := math.Abs(slaqPred - truth)
	if ecErr >= slaqErr {
		t.Errorf("EarlyCurve error %v not below SLAQ error %v", ecErr, slaqErr)
	}
	if ecErr > 0.05 {
		t.Errorf("EarlyCurve error %v too large", ecErr)
	}
}

func TestSLAQMatchesEarlyCurveOnSingleStage(t *testing.T) {
	// §IV-E: without learning-rate stages the two methods are comparable.
	pts := synthCurve([4]float64{0, 0.05, 1.0, 0.35}, 100)
	obs := pts[:70]
	truth := pts[99].Value
	ec := &Predictor{}
	ecPred, err := ec.PredictFinal(obs, 100)
	if err != nil {
		t.Fatal(err)
	}
	slaqPred, err := SLAQ{}.PredictFinal(obs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ecPred-truth) > 0.05 {
		t.Errorf("EarlyCurve single-stage error %v", math.Abs(ecPred-truth))
	}
	if math.Abs(slaqPred-truth) > 0.1 {
		t.Errorf("SLAQ single-stage error %v", math.Abs(slaqPred-truth))
	}
}

func TestSLAQErrors(t *testing.T) {
	if _, err := (SLAQ{}).PredictFinal(nil, 10); err == nil {
		t.Error("SLAQ accepted empty points")
	}
}

func TestFitCurveWithNoise(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	pts := twoStageCurve(300, 150, 0.8, 0.2)
	noisy := make([]MetricPoint, 210)
	for i := range noisy {
		noisy[i] = pts[i]
		noisy[i].Value *= 1 + 0.005*rng.NormFloat64()
	}
	ec := &Predictor{}
	got, err := ec.PredictFinal(noisy, 300)
	if err != nil {
		t.Fatal(err)
	}
	truth := pts[299].Value
	if math.Abs(got-truth) > 0.08 {
		t.Errorf("noisy prediction %v, truth %v", got, truth)
	}
}

// Property: stage intervals from fitCurve partition the observed step range
// without overlap (the Eq. 6 condition).
func TestStagePartitionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		n := 60 + rng.IntN(200)
		jump := 20 + rng.IntN(n-40)
		p1 := 0.4 + rng.Float64()
		p2 := p1 * (0.1 + 0.4*rng.Float64())
		pts := twoStageCurve(n, jump, p1, p2)
		fitres, err := fitCurve(pts, nil)
		if err != nil {
			return true // fit failures are allowed, overlap is not
		}
		for i := range fitres.Stages {
			s := fitres.Stages[i]
			if s.L >= s.R {
				return false
			}
			if i > 0 && s.L != fitres.Stages[i-1].R {
				return false
			}
		}
		first := fitres.Stages[0]
		last := fitres.Stages[len(fitres.Stages)-1]
		return first.L == pts[0].Step && last.R == pts[len(pts)-1].Step+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: fitted stage coefficients are non-negative (the Eq. 4 constraint).
func TestNonNegativeCoefficientsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 23))
		a := [4]float64{0, 0.01 + 0.2*rng.Float64(), 0.5 + rng.Float64(), rng.Float64()}
		pts := synthCurve(a, 40+rng.IntN(100))
		fitres, err := fitCurve(pts, nil)
		if err != nil {
			return true
		}
		for _, s := range fitres.Stages {
			for _, c := range s.A {
				if c < 0 || math.IsNaN(c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
