package revpred

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"spottune/internal/market"
)

var t0 = time.Date(2017, 4, 26, 0, 0, 0, 0, time.UTC)

// flatGrid builds a constant-price grid (never revokes).
func flatGrid(t *testing.T, hours int) *market.Grid {
	t.Helper()
	it, _ := market.DefaultCatalog().Lookup("r4.large")
	tr := &market.Trace{Type: it.Name, Records: []market.Record{{At: t0, Price: 0.04}}}
	g, err := market.NewGrid(it, tr, t0, t0.Add(time.Duration(hours)*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// spikyGrid builds a deterministic daily-noon-spike market: price 1.0 except
// 12:00–12:30 each day when it is 5.0. Minutes 11:01–11:59 are the only
// positives under near-zero fluctuation deltas, so "hour of day" perfectly
// separates the classes — learnable by a nonlinear model, only approximately
// by logistic regression.
func spikyGrid(t *testing.T, days int) *market.Grid {
	t.Helper()
	it, _ := market.DefaultCatalog().Lookup("r3.xlarge")
	var recs []market.Record
	for d := 0; d < days; d++ {
		day := t0.Add(time.Duration(d) * 24 * time.Hour)
		recs = append(recs,
			market.Record{At: day, Price: 0.08},
			market.Record{At: day.Add(12 * time.Hour), Price: 0.4},
			market.Record{At: day.Add(12*time.Hour + 30*time.Minute), Price: 0.08},
		)
	}
	tr := &market.Trace{Type: it.Name, Records: recs}
	g, err := market.NewGrid(it, tr, t0, t0.Add(time.Duration(days)*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func genGrid(t *testing.T, name string, hours int, seed uint64) *market.Grid {
	t.Helper()
	it, ok := market.DefaultCatalog().Lookup(name)
	if !ok {
		t.Fatalf("unknown instance %q", name)
	}
	specs, err := market.DefaultSpecs(market.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	var spec market.MarketSpec
	for _, s := range specs {
		if s.Type.Name == name {
			spec = s
		}
	}
	end := t0.Add(time.Duration(hours) * time.Hour)
	tr, err := market.Generate(spec, t0, end, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := market.NewGrid(it, tr, t0, end)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildSamplesShape(t *testing.T) {
	g := genGrid(t, "m4.2xlarge", 6, 3)
	rng := rand.New(rand.NewPCG(1, 1))
	samples, err := BuildSamples(g, 0, g.Len(), 5, DeltaFluctuation, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples built")
	}
	for i, s := range samples {
		if len(s.History) != HistorySteps {
			t.Fatalf("sample %d history len %d", i, len(s.History))
		}
		for _, h := range s.History {
			if len(h) != market.FeatureCount {
				t.Fatalf("history feature width %d", len(h))
			}
		}
		if len(s.Present) != PresentFeatures {
			t.Fatalf("present width %d", len(s.Present))
		}
		if s.MaxPrice < g.Price(0)*0.01 {
			t.Fatalf("implausible max price %v", s.MaxPrice)
		}
	}
}

func TestBuildSamplesEmptyWindow(t *testing.T) {
	g := genGrid(t, "m4.2xlarge", 3, 3)
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := BuildSamples(g, g.Len(), g.Len(), 1, DeltaFluctuation, rng); err == nil {
		t.Fatal("empty window accepted")
	}
	if _, err := BuildSamples(g, 0, g.Len(), 1, DeltaMode(99), rng); err == nil {
		t.Fatal("unknown delta mode accepted")
	}
}

func TestBuildSamplesRandomDeltaRange(t *testing.T) {
	g := genGrid(t, "r4.large", 6, 9)
	rng := rand.New(rand.NewPCG(2, 2))
	samples, err := BuildSamples(g, 0, g.Len(), 7, DeltaRandom, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		i, _ := g.Index(t0.Add(time.Hour)) // any valid index for price bounds
		_ = i
		delta := s.MaxPrice - s.Present[0]*g.Type.OnDemandPrice
		if delta < 0.00001-1e-9 || delta > 0.2+1e-9 {
			t.Fatalf("random delta %v outside [0.00001, 0.2]", delta)
		}
	}
}

func TestClassBalance(t *testing.T) {
	samples := []Sample{{Label: true}, {Label: false}, {Label: false}, {Label: false}}
	pos, neg := classBalance(samples)
	if pos != 0.25 || neg != 0.75 {
		t.Fatalf("classBalance = %v, %v", pos, neg)
	}
	pos, neg = classBalance(nil)
	if pos != 0.5 || neg != 0.5 {
		t.Fatalf("classBalance(empty) = %v, %v", pos, neg)
	}
}

func TestCalibrateEq3(t *testing.T) {
	m := &Model{PhiPos: 0.5, PhiNeg: 0.5}
	for _, p := range []float64{0, 0.2, 0.5, 0.9, 1} {
		if got := m.Calibrate(p); math.Abs(got-p) > 1e-12 {
			t.Fatalf("balanced calibration changed %v -> %v", p, got)
		}
	}
	// Skewed: φ+ = 0.1, φ− = 0.9. Training up-weighted the rare positives
	// by 9x, so a weighted-balanced score of 0.5 corresponds to the base
	// rate: odds' = odds · (φ+/φ−) at pHat=0.5 -> P = 0.1.
	m2 := &Model{PhiPos: 0.1, PhiNeg: 0.9}
	if got := m2.Calibrate(0.5); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("Calibrate(0.5) = %v, want 0.1", got)
	}
	// Monotone in pHat.
	prev := -1.0
	for p := 0.0; p <= 1.0; p += 0.05 {
		got := m2.Calibrate(p)
		if got < prev {
			t.Fatalf("calibration not monotone at %v", p)
		}
		prev = got
	}
}

func TestTrainSingleClassErrors(t *testing.T) {
	g := flatGrid(t, 48)
	_, err := Train(g, 0, g.Len(), Config{Hidden: 4, Depth: 1, Epochs: 1, Stride: 10, Seed: 1})
	if err == nil {
		t.Fatal("flat market (single class) did not error")
	}
}

func tinyCfg(seed uint64) Config {
	return Config{Hidden: 8, Depth: 2, Epochs: 2, BatchSize: 16, LR: 3e-3, Stride: 6, Seed: seed}
}

func TestTrainPredictPipeline(t *testing.T) {
	g := spikyGrid(t, 4)
	m, err := Train(g, 0, g.Len(), tinyCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if m.PhiPos <= 0 || m.PhiPos >= 1 {
		t.Fatalf("PhiPos = %v", m.PhiPos)
	}
	// Predictions must be valid probabilities.
	for _, i := range []int{HistorySteps, 500, 1200, g.Len() - 61} {
		p := m.Predict(g, i, g.Price(i)+0.01)
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("Predict at %d = %v", i, p)
		}
	}
	// Too-early index falls back to base rate.
	if got := m.Predict(g, 3, 1.0); got != m.PhiPos {
		t.Fatalf("early Predict = %v, want base rate %v", got, m.PhiPos)
	}
}

func TestTrainDeterministicAcrossRuns(t *testing.T) {
	g := spikyGrid(t, 3)
	m1, err := Train(g, 0, g.Len(), tinyCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(g, 0, g.Len(), tinyCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	p1 := m1.Predict(g, 800, g.Price(800)+0.05)
	p2 := m2.Predict(g, 800, g.Price(800)+0.05)
	if p1 != p2 {
		t.Fatalf("same seed produced different models: %v vs %v", p1, p2)
	}
}

// rampGrid builds a market whose daily spike has an hour-long on-ramp
// (11:00→12:00 climbing 0.08→0.40, plateau, then reset). The climb is the
// kind of price-dynamics signal the paper's LSTM history branch exists to
// exploit; a linear model over the present record cannot carve it.
func rampGrid(t *testing.T, days int) *market.Grid {
	t.Helper()
	it, _ := market.DefaultCatalog().Lookup("r3.xlarge")
	var recs []market.Record
	for d := 0; d < days; d++ {
		day := t0.Add(time.Duration(d) * 24 * time.Hour)
		recs = append(recs, market.Record{At: day, Price: 0.08})
		for m := 1; m <= 60; m++ {
			p := math.Round((0.08+float64(m)*(0.4-0.08)/60)*1e6) / 1e6 // on the micro-dollar grid
			recs = append(recs, market.Record{
				At:    day.Add(11*time.Hour + time.Duration(m)*time.Minute),
				Price: p,
			})
		}
		recs = append(recs, market.Record{At: day.Add(12*time.Hour + 30*time.Minute), Price: 0.08})
	}
	tr := &market.Trace{Type: it.Name, Records: recs}
	g, err := market.NewGrid(it, tr, t0, t0.Add(time.Duration(days)*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRevPredBeatsLogRegOnNonlinearMarket(t *testing.T) {
	if testing.Short() {
		t.Skip("training comparison skipped in -short")
	}
	g := rampGrid(t, 8) // 6 train days, 2 test days
	cfg := Config{Hidden: 10, Depth: 2, Epochs: 4, BatchSize: 16, LR: 3e-3, Stride: 4, Seed: 11}
	rp, err := Train(g, HistorySteps, 6*24*60, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := TrainLogReg(g, HistorySteps, 6*24*60, cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := BuildEvalSamples(g, 6*24*60, g.Len(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	rpScores := Evaluate(rp, samples)
	lrScores := Evaluate(lr, samples)
	if rpScores.F1() <= lrScores.F1() {
		t.Errorf("RevPred F1 %.3f not above LogReg F1 %.3f on a nonlinear market",
			rpScores.F1(), lrScores.F1())
	}
	// Ranking quality: RevPred must clearly separate the two classes even
	// when the 0.5 operating point is recall-heavy at this skew.
	var posSum, negSum float64
	var pos, neg int
	for i := range samples {
		s := &samples[i]
		if sc := rp.Score(s); s.Label {
			posSum += sc
			pos++
		} else {
			negSum += sc
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatal("test window lacks both classes")
	}
	if posSum/float64(pos) < negSum/float64(neg)+0.1 {
		t.Errorf("RevPred does not separate classes: mean pos %.3f vs mean neg %.3f",
			posSum/float64(pos), negSum/float64(neg))
	}
}

func TestTributaryPipeline(t *testing.T) {
	g := spikyGrid(t, 3)
	cfg := Config{Hidden: 6, Depth: 1, Epochs: 1, BatchSize: 16, LR: 3e-3, Stride: 8, Seed: 3}
	m, err := TrainTributary(g, 0, g.Len(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Predict(g, 700, g.Price(700)+0.05)
	if p < 0 || p > 1 || math.IsNaN(p) {
		t.Fatalf("Tributary Predict = %v", p)
	}
	if got := m.Predict(g, 1, 1.0); got != 0.5 {
		t.Fatalf("early Tributary Predict = %v, want 0.5", got)
	}
}

func TestLogRegPipeline(t *testing.T) {
	g := spikyGrid(t, 3)
	cfg := Config{Hidden: 4, Depth: 1, Epochs: 1, BatchSize: 16, Stride: 8, Seed: 3}
	m, err := TrainLogReg(g, 0, g.Len(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Predict(g, 700, g.Price(700)+0.05)
	if p < 0 || p > 1 || math.IsNaN(p) {
		t.Fatalf("LogReg Predict = %v", p)
	}
}

func TestConstantPredictor(t *testing.T) {
	c := ConstantPredictor(0.3)
	if got := c.Predict(nil, 0, 0); got != 0.3 {
		t.Fatalf("ConstantPredictor = %v", got)
	}
}

func TestEvaluateConfusion(t *testing.T) {
	samples := []Sample{{Label: true}, {Label: true}, {Label: false}, {Label: false}}
	// Scorer that always answers "revoked".
	always := ConstantScorer(0.9)
	b := Evaluate(always, samples)
	if b.TP != 2 || b.FP != 2 || b.TN != 0 || b.FN != 0 {
		t.Fatalf("confusion = %+v", b)
	}
	never := ConstantScorer(0.1)
	b = Evaluate(never, samples)
	if b.TN != 2 || b.FN != 2 {
		t.Fatalf("confusion = %+v", b)
	}
}

func TestNewSplitBounds(t *testing.T) {
	g := spikyGrid(t, 3)
	sp, err := NewSplit(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sp.TrainFrom != HistorySteps || sp.TrainTo != 2*24*60 || sp.TestTo != g.Len() {
		t.Fatalf("split = %+v", sp)
	}
	if _, err := NewSplit(g, 5); err == nil {
		t.Fatal("split beyond grid accepted")
	}
}

func TestAggregate(t *testing.T) {
	r1 := CompareResult{}
	r1.RevPred.TP, r1.RevPred.TN = 3, 4
	r2 := CompareResult{}
	r2.RevPred.TP, r2.RevPred.FP = 1, 2
	rev, _, _ := Aggregate([]CompareResult{r1, r2})
	if rev.TP != 4 || rev.TN != 4 || rev.FP != 2 {
		t.Fatalf("aggregate = %+v", rev)
	}
}

// ConstantScorer scores every sample identically (test helper).
type ConstantScorer float64

// Score implements SampleScorer.
func (c ConstantScorer) Score(*Sample) float64 { return float64(c) }
