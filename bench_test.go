package spottune

// One benchmark per table/figure of the paper's evaluation (§IV), plus
// micro-benchmarks of the core substrates. Figure benchmarks run the same
// experiment code as cmd/benchfigs at reduced scale and report the headline
// quantities via b.ReportMetric, so `go test -bench` regenerates the
// paper-facing numbers. Experiment fixtures (market generation, predictor
// training — built lazily by the memoizing Context on first use) are warmed
// by one untimed run before b.ResetTimer, so ns/op measures the experiment,
// not fixture assembly:
//
//	go test -bench=Fig -benchmem
//
// Full-fidelity runs (real training, trained RevPred) are produced by
// `go run ./cmd/benchfigs -fig all`; see EXPERIMENTS.md.

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"spottune/internal/campaign"
	"spottune/internal/cloudsim"
	"spottune/internal/core"
	"spottune/internal/earlycurve"
	"spottune/internal/experiments"
	"spottune/internal/invariants"
	"spottune/internal/market"
	"spottune/internal/mltrain"
	"spottune/internal/nn"
	"spottune/internal/obs"
	"spottune/internal/policy"
	"spottune/internal/resilience"
	"spottune/internal/revpred"
	"spottune/internal/scenario"
	"spottune/internal/search"
	"spottune/internal/service"
	"spottune/internal/simclock"
	"spottune/internal/trial"
	"spottune/internal/workload"

	"math/rand/v2"
)

func benchOpts() experiments.Options {
	return experiments.Options{
		Seed:      1,
		Scale:     0.2,
		Quick:     true,
		Workloads: []string{"LoR", "ResNet"},
	}
}

// BenchmarkFig1SpotPrices regenerates the Fig. 1 trace (11 days of the
// spiky r3.xlarge market).
func BenchmarkFig1SpotPrices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(experiments.Options{Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Records)), "records")
	}
}

// BenchmarkFig5Curves records the example validation-loss curves with the
// real pure-Go trainers.
func BenchmarkFig5Curves(b *testing.B) {
	ctx := experiments.NewContext(experiments.Options{Seed: 1, Scale: 0.2, Workloads: []string{"LoR", "ResNet"}})
	if _, err := experiments.Fig5(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.ResNet)), "resnet_points")
	}
}

// BenchmarkFig6Profiling samples the performance matrix (the COV < 0.1
// online-profiling claim of §IV-A5).
func BenchmarkFig6Profiling(b *testing.B) {
	ctx := experiments.NewContext(benchOpts())
	if _, err := experiments.Fig6(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].COV, "cov")
	}
}

// BenchmarkFig7Campaign runs the four-approach cost/JCT/PCR comparison on
// two workloads at reduced scale.
func BenchmarkFig7Campaign(b *testing.B) {
	ctx := experiments.NewContext(benchOpts())
	if _, err := experiments.Fig7(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(ctx)
		if err != nil {
			b.Fatal(err)
		}
		pcr := experiments.PCRNormalized(rows)
		b.ReportMetric(pcr["LoR"][experiments.ApproachCheapest], "pcr_cheapest_vs_st07")
		for _, r := range rows {
			if r.Workload == "LoR" && r.Approach == experiments.ApproachSpotTune07 {
				b.ReportMetric(r.Cost, "st07_cost_usd")
				b.ReportMetric(r.JCTHours, "st07_jct_hours")
			}
		}
	}
}

// BenchmarkFig8ThetaSweep sweeps θ over one workload.
func BenchmarkFig8ThetaSweep(b *testing.B) {
	ctx := experiments.NewContext(experiments.Options{
		Seed: 1, Scale: 0.15, Quick: true, Workloads: []string{"LoR"},
	})
	if _, _, err := experiments.Fig8(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, acc, err := experiments.Fig8(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(acc[len(acc)-1].Top3, "top3_at_theta1")
	}
}

// BenchmarkFig9Refund measures the refunded-resource contribution at θ=0.7.
func BenchmarkFig9Refund(b *testing.B) {
	ctx := experiments.NewContext(benchOpts())
	if _, err := experiments.Fig7(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(ctx)
		if err != nil {
			b.Fatal(err)
		}
		f9 := experiments.Fig9(rows)
		sum := 0.0
		for _, r := range f9 {
			sum += r.FreeFraction
		}
		b.ReportMetric(sum/float64(len(f9)), "mean_free_frac")
	}
}

// BenchmarkFig10RevPred trains and scores the three revocation predictors
// on every market (tiny capacity).
func BenchmarkFig10RevPred(b *testing.B) {
	ctx := experiments.NewContext(benchOpts())
	if _, err := experiments.Fig10(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RevPred.Accuracy(), "revpred_acc")
		b.ReportMetric(res.Tributary.Accuracy(), "tributary_acc")
	}
}

// BenchmarkFig11EarlyCurve compares EarlyCurve and SLAQ across the 16
// ResNet configurations.
func BenchmarkFig11EarlyCurve(b *testing.B) {
	ctx := experiments.NewContext(benchOpts())
	if _, err := experiments.Fig11(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(ctx)
		if err != nil {
			b.Fatal(err)
		}
		var ec, slaq float64
		for _, r := range res.Rows {
			ec += r.EarlyErr
			slaq += r.SLAQErr
		}
		n := float64(len(res.Rows))
		b.ReportMetric(ec/n, "earlycurve_err")
		b.ReportMetric(slaq/n, "slaq_err")
	}
}

// BenchmarkFig12Checkpoint measures checkpoint-restore overhead share.
func BenchmarkFig12Checkpoint(b *testing.B) {
	ctx := experiments.NewContext(benchOpts())
	if _, err := experiments.Fig7(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(ctx)
		if err != nil {
			b.Fatal(err)
		}
		f12 := experiments.Fig12(rows)
		sum := 0.0
		for _, r := range f12 {
			sum += r.OverheadFrac
		}
		b.ReportMetric(sum/float64(len(f12)), "mean_overhead_frac")
	}
}

// BenchmarkCrossPolicy runs the cross-policy provisioning study (every
// registered policy on one workload through campaign.Sweep) and reports the
// per-policy headline costs — the numbers `make bench` exports to
// BENCH_policy.json.
func BenchmarkCrossPolicy(b *testing.B) {
	ctx := experiments.NewContext(experiments.Options{
		Seed: 1, Scale: 0.15, Quick: true, Workloads: []string{"LoR"},
	})
	if _, err := experiments.CrossPolicy(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CrossPolicy(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "policies")
		for _, r := range rows {
			switch r.Policy {
			case PolicySpotTune:
				b.ReportMetric(r.Cost, "spottune_cost_usd")
			case PolicyOnDemand:
				b.ReportMetric(r.Cost, "on_demand_cost_usd")
			case PolicyMixedFleet:
				b.ReportMetric(float64(r.OnDemandDeployments), "mixed_fleet_od_deploys")
			}
		}
	}
}

// BenchmarkCrossTuner measures the search-strategy comparison study: every
// registered tuner on one workload under the spottune policy, fanned out
// through campaign.Sweep.
func BenchmarkCrossTuner(b *testing.B) {
	ctx := experiments.NewContext(experiments.Options{
		Seed: 1, Scale: 0.15, Quick: true, Workloads: []string{"LoR"},
	})
	if _, err := experiments.CrossTuner(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CrossTuner(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "tuners")
		for _, r := range rows {
			switch r.Tuner {
			case TunerSpotTune:
				b.ReportMetric(r.Cost, "spottune_cost_usd")
			case TunerFullTrain:
				b.ReportMetric(r.Cost, "full_train_cost_usd")
			case TunerHyperband:
				b.ReportMetric(float64(r.Notices), "hyperband_notices")
			}
		}
	}
}

// ---------------------------------------------------------------- micro

// BenchmarkMarketGenerate measures synthetic trace generation (one market,
// one day).
func BenchmarkMarketGenerate(b *testing.B) {
	it, _ := market.DefaultCatalog().Lookup("r3.xlarge")
	spec := market.MarketSpec{Type: it}
	start := campaign.DefaultStart()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := market.Generate(spec, start, start.Add(24*time.Hour), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSTMForwardBackward measures one RevPred-shaped LSTM training
// step (59 timesteps, 6 features, hidden 24, depth 3) through the reusable
// BPTT workspace, exactly as revpred.Train drives it.
func BenchmarkLSTMForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	l := nn.NewStackedLSTM("b", 6, 24, 3, rng)
	xs := make([][]float64, 59)
	for t := range xs {
		xs[t] = make([]float64, 6)
		for j := range xs[t] {
			xs[t][j] = rng.Float64()
		}
	}
	ws := nn.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		hs, cache := l.ForwardSeqWS(ws, xs)
		last := hs[len(hs)-1]
		l.BackwardSeqWS(ws, cache, nn.LastHiddenGradWS(ws, 59, 24, last))
	}
}

// BenchmarkEarlyCurveFit measures one staged fit over a 200-point two-stage
// curve.
func BenchmarkEarlyCurveFit(b *testing.B) {
	pts := make([]earlycurve.MetricPoint, 200)
	for k := 1; k <= 200; k++ {
		v := 1/(0.05*float64(k)+1.2) + 0.8
		if k >= 100 {
			v = 1/(2.0*float64(k-99)+5.0) + 0.2
		}
		pts[k-1] = earlycurve.MetricPoint{Step: k, Value: v}
	}
	p := &earlycurve.Predictor{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PredictFinal(pts, 300); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventQueue measures the virtual clock under heavy scheduling.
func BenchmarkEventQueue(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clk := simclock.NewVirtual(campaign.DefaultStart())
		for j := 0; j < 1000; j++ {
			clk.Schedule(clk.Now().Add(time.Duration(j%97)*time.Second), func(time.Time) {})
		}
		clk.AdvanceTo(clk.Now().Add(2 * time.Minute))
	}
}

// BenchmarkGBTRound measures one boosting round on the GBTR workload data.
func BenchmarkGBTRound(b *testing.B) {
	data := mltrain.SyntheticRegression(400, 8, 0.1, 5)
	train, _ := data.Split(0.8)
	idx := make([]int, 128)
	for i := range idx {
		idx[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := mltrain.NewGBTRegressor(5, 4)
		m.TrainStep(train, idx, 0.3)
	}
}

// BenchmarkStoreQuotes measures the packed market store's quotes over a
// generated 3-day DefaultSpecs set: a trailing-hour AvgOver (the price term
// of Eq. 1), a day-long AvgOver inside the trace (an instance's bill over a
// day of records), PriceAt, and FirstExceed with bids up to 50% over the
// current price, each at seeded instants; and AvgOverCursor, the
// trailing-hour quote a cluster makes, through each market's pair of
// cursors advanced in 10 s hops (round-robin over the markets, back to the
// start after 70 hours). One op is 1,024 queries; ns/quote is the cost of
// one call.
func BenchmarkStoreQuotes(b *testing.B) {
	specs, err := market.DefaultSpecs(market.DefaultCatalog())
	if err != nil {
		b.Fatal(err)
	}
	start := campaign.DefaultStart()
	set, err := market.GenerateSet(specs, start, start.Add(72*time.Hour), 1)
	if err != nil {
		b.Fatal(err)
	}
	store := market.NewStore(set)
	type query struct {
		ti  int
		at  time.Time
		bid float64
		day time.Time // start of the day-long window
	}
	rng, dayRng := rand.New(rand.NewPCG(1, 2)), rand.New(rand.NewPCG(3, 4))
	qs := make([]query, 1024)
	for i := range qs {
		ti := rng.IntN(len(store.Names()))
		at := start.Add(time.Hour + time.Duration(rng.Int64N(int64(70*time.Hour))))
		p, _ := store.PriceAt(ti, at)
		day := start.Add(time.Duration(dayRng.Int64N(int64(48 * time.Hour))))
		qs[i] = query{ti: ti, at: at, bid: p * (1 + 0.5*rng.Float64()), day: day}
	}
	for _, bc := range []struct {
		name  string
		quote func(q query) float64
	}{
		{"AvgOver", func(q query) float64 {
			avg, _ := store.AvgOver(q.ti, q.at.Add(-time.Hour), q.at)
			return avg
		}},
		{"AvgOver24h", func(q query) float64 {
			avg, _ := store.AvgOver(q.ti, q.day, q.day.Add(24*time.Hour))
			return avg
		}},
		{"PriceAt", func(q query) float64 { p, _ := store.PriceAt(q.ti, q.at); return p }},
		{"FirstExceed", func(q query) float64 {
			at, _ := store.FirstExceed(q.ti, q.at, q.bid)
			return float64(at.Unix())
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, q := range qs {
					benchSink += bc.quote(q)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(qs)), "ns/quote")
		})
	}
	b.Run("AvgOverCursor", func(b *testing.B) {
		n := len(store.Names())
		near, far := make([]market.Cursor, n), make([]market.Cursor, n)
		for ti := range near {
			near[ti], far[ti] = store.NewCursor(ti), store.NewCursor(ti)
		}
		first := start.Add(time.Hour).UnixNano()
		at := first
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range qs {
				ti := j % n
				if ti == 0 {
					if at += int64(10 * time.Second); at >= first+int64(70*time.Hour) {
						at = first
					}
				}
				avg, _ := store.AvgOverCursors(&far[ti], &near[ti], at-int64(time.Hour), at)
				benchSink += avg
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(qs)), "ns/quote")
	})
}

// BenchmarkEnvironment measures assembling a constant-predictor campaign
// environment: trace generation, validation, the packed store and the pool
// grids, which build no arrays because nothing reads their features. Two
// cases: the 5-day environment quick-fidelity scenario batteries build, and
// the 2-day one the contended service region builds. B/op and allocs/op
// are the environment's setup cost.
func BenchmarkEnvironment(b *testing.B) {
	for _, bc := range []struct {
		name string
		opts campaign.EnvOptions
	}{
		{"Quick5Day", campaign.EnvOptions{Seed: 1, Days: 5, TrainDays: 2, Predictor: campaign.PredictorConstant}},
		{"Tenants2Day", campaign.EnvOptions{Seed: 1, Days: 2, TrainDays: 1, Predictor: campaign.PredictorConstant}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := campaign.NewEnvironment(bc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSink keeps the micro benchmarks' results live.
var benchSink float64

// BenchmarkStepNoise measures ground-truth step-time draws through the LoR
// benchmark's noisy perf model. One op walks one (trial, type) prefix as
// Replay does: it resolves the pair's draw once, then sums 1,024 step times
// into int64 prefix sums. Ops rotate over 4 instance types × 4 HP settings;
// ns/draw is the cost of one step, its share of resolving the pair
// included.
func BenchmarkStepNoise(b *testing.B) {
	bench := workload.LoR(workload.Config{Scale: 0.05})
	perf := bench.PerfModel(1)
	cat := market.DefaultCatalog()
	var types []market.InstanceType
	for _, name := range cat.Names()[:4] {
		it, _ := cat.Lookup(name)
		types = append(types, it)
	}
	hps := bench.HPs[:4]
	const steps = 1024
	cum := make([]int64, 1, steps+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		draw := perf.Steps(types[i%len(types)], hps[i/len(types)%len(hps)].ID)
		cum = cum[:1]
		for k := 0; k < steps; k++ {
			cum = append(cum, cum[k]+int64(draw(k)))
		}
		benchSink += float64(cum[steps])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/draw")
}

// revpredBenchModel trains a small RevPred model of the given width on the
// first day of a generated 2-day m4.2xlarge market and returns it with the
// market's grid.
func revpredBenchModel(b *testing.B, hidden int) (*market.Grid, *revpred.Model) {
	b.Helper()
	it, _ := market.DefaultCatalog().Lookup("m4.2xlarge")
	specs, _ := market.DefaultSpecs(market.DefaultCatalog())
	var spec market.MarketSpec
	for _, s := range specs {
		if s.Type.Name == it.Name {
			spec = s
		}
	}
	start := campaign.DefaultStart()
	tr, err := market.Generate(spec, start, start.Add(48*time.Hour), 3)
	if err != nil {
		b.Fatal(err)
	}
	g, err := market.NewGrid(it, tr, start, start.Add(48*time.Hour))
	if err != nil {
		b.Fatal(err)
	}
	m, err := revpred.Train(g, revpred.HistorySteps, 24*60,
		revpred.Config{Hidden: hidden, Depth: 2, Epochs: 1, Stride: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return g, m
}

// BenchmarkRevPredInference measures one cold provisioning-time
// probability query (feature assembly + LSTM forward): every call asks a
// minute the model's memo does not hold. The calls cycle through the
// grid's minutes, and each time the cycle wraps the model is re-loaded
// from its saved bytes with the timer stopped, dropping the memo, so every
// op is a miss at any -benchtime. BenchmarkRevPredScore measures the warm
// path.
func BenchmarkRevPredInference(b *testing.B) {
	g, m := revpredBenchModel(b, 8)
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		b.Fatal(err)
	}
	minutes := g.Len() - 2*revpred.HistorySteps
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % minutes
		if k == 0 && i > 0 {
			b.StopTimer()
			var err error
			if m, err = revpred.LoadModel(bytes.NewReader(saved.Bytes()), m.Type); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		idx := revpred.HistorySteps + k
		m.Predict(g, idx, g.Price(idx)+0.05)
	}
}

// BenchmarkRevPredScore measures one probability query on a warm memo, the
// path campaigns take: the 100 minutes it cycles through are memoized
// before the timer starts, so each call runs only the maximum price's
// column, the rest of the present branch and the head. Hidden 12, as on the
// solo-revpred benchmark workload; every call asks a different bid.
func BenchmarkRevPredScore(b *testing.B) {
	g, m := revpredBenchModel(b, 12)
	const minutes = 100
	for k := 0; k < minutes; k++ {
		m.Predict(g, revpred.HistorySteps+k, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := revpred.HistorySteps + i%minutes
		benchSink += m.Predict(g, idx, g.Price(idx)+float64(i%997)*0.0002)
	}
}

// campaignBenchEnv builds the shared fixture for the campaign benchmarks:
// a 16-trial LoR workload over a 4-day constant-predictor environment.
func campaignBenchEnv(b *testing.B) (*campaign.Environment, *Benchmark, Curves) {
	b.Helper()
	env, err := campaign.NewEnvironment(campaign.EnvOptions{
		Seed: 1, Days: 6, TrainDays: 2, Predictor: campaign.PredictorConstant,
	})
	if err != nil {
		b.Fatal(err)
	}
	bench, err := BenchmarkByName("LoR", WorkloadConfig{Seed: 1, Scale: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	return env, bench, bench.SyntheticCurves(1)
}

// benchConstPerf is a noise-free per-type step-time model for the
// controlled campaign fixture.
type benchConstPerf map[string]time.Duration

func (p benchConstPerf) Steps(it market.InstanceType, _ string) trial.StepTimes {
	d := p[it.Name]
	return func(int) time.Duration { return d }
}

// multiDayFixture is the static (read-only, reusable) part of the
// controlled multi-day campaign: catalog, flat two-market traces, grids.
type multiDayFixture struct {
	cat    *market.Catalog
	traces market.TraceSet
	grids  map[string]*market.Grid
	preds  map[string]revpred.Predictor
	start  time.Time
}

var mdFixture *multiDayFixture

func newMultiDayFixture(b testing.TB) *multiDayFixture {
	b.Helper()
	if mdFixture != nil {
		return mdFixture
	}
	start := campaign.DefaultStart()
	cat := market.MustNewCatalog([]market.InstanceType{
		{Name: "slow", CPUs: 2, MemoryGB: 8, OnDemandPrice: 0.1},
		{Name: "fast", CPUs: 16, MemoryGB: 64, OnDemandPrice: 0.8},
	})
	gridStart := start.Add(-2 * time.Hour)
	end := start.Add(14 * 24 * time.Hour)
	f := &multiDayFixture{
		cat: cat,
		traces: market.TraceSet{
			"slow": {Type: "slow", Records: []market.Record{{At: gridStart, Price: 0.02}}},
			"fast": {Type: "fast", Records: []market.Record{{At: gridStart, Price: 0.2}}},
		},
		grids: map[string]*market.Grid{},
		preds: map[string]revpred.Predictor{},
		start: start,
	}
	for _, name := range []string{"slow", "fast"} {
		it, _ := cat.Lookup(name)
		g, err := market.NewGrid(it, f.traces[name], gridStart, end)
		if err != nil {
			b.Fatal(err)
		}
		f.grids[name] = g
		f.preds[name] = revpred.ConstantPredictor(0)
	}
	mdFixture = f
	return f
}

// run executes one controlled multi-day campaign: 8 slow trials on the flat
// two-market world, the regime where a literal Algorithm 1 polling loop
// would spin tens of thousands of no-op turns.
func (f *multiDayFixture) run(b testing.TB) *core.Report {
	b.Helper()
	clk := simclock.NewVirtual(f.start)
	cluster, err := cloudsim.NewCluster(clk, f.cat, f.traces)
	if err != nil {
		b.Fatal(err)
	}
	perf := benchConstPerf{"slow": 32 * time.Second, "fast": 8 * time.Second}
	var trials []*trial.Replay
	const maxSteps, every = 12000, 100
	for i := 0; i < 8; i++ {
		var pts []earlycurve.MetricPoint
		for s := every; s <= maxSteps; s += every {
			pts = append(pts, earlycurve.MetricPoint{
				Step:  s,
				Value: 1/(0.05*float64(s)+1.2) + 0.1*float64(i+1),
			})
		}
		tr, err := trial.NewReplay(fmt.Sprintf("hp-%d", i), maxSteps, pts, perf, 10)
		if err != nil {
			b.Fatal(err)
		}
		trials = append(trials, tr)
	}
	pool := []string{"slow", "fast"}
	pol, err := policy.New(policy.SpotTuneName, policy.Params{
		Pool: pool, Seed: 7, RevProb: core.GridRevProb(f.grids, f.preds),
	})
	if err != nil {
		b.Fatal(err)
	}
	orch, err := core.NewPolicyOrchestrator(cluster, cloudsim.NewObjectStore(), pol, pool, trials, core.Config{
		Theta: 0.7, MCnt: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := orch.Run()
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkCampaign measures one controlled multi-day SpotTune campaign.
// loop_iters is the event loop's turn count: one per real scheduling event,
// not one per poll interval of virtual time.
func BenchmarkCampaign(b *testing.B) {
	f := newMultiDayFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := f.run(b)
		b.ReportMetric(rep.JCT.Hours(), "virtual_jct_hours")
		b.ReportMetric(float64(rep.LoopIterations), "loop_iters")
	}
}

// BenchmarkSoloCampaigns mirrors the solo-revpred benchmark workload, the
// one path where RevPred inference runs: one op is 64 sequential
// single-user RunPolicy campaigns (spottune policy and tuner, fixed
// recovery strategy, θ=0.7) of LoR at scale 0.2 on a 4-day region at seed
// 1, whose markets carry trained RevPred models (Hidden 12, Depth 2,
// Epochs 1, Stride 8), each campaign audited by invariants.Check in
// Inspect. Environment assembly, training and one warm-up round, which
// fills most of the RevPred memos, run before the timer. `make profile`
// profiles it into results/solo.pprof.
func BenchmarkSoloCampaigns(b *testing.B) {
	env, err := campaign.NewEnvironment(campaign.EnvOptions{
		Seed: 1, Days: 4, TrainDays: 2, Predictor: campaign.PredictorRevPred,
		RevPred: revpred.Config{Hidden: 12, Depth: 2, Epochs: 1, Stride: 8, Seed: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	bench, err := BenchmarkByName("LoR", WorkloadConfig{Seed: 1, Scale: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	curves := bench.SyntheticCurves(1)
	var violations []invariants.Violation
	opt := campaign.Options{
		Theta:      0.7,
		Policy:     policy.SpotTuneName,
		Tuner:      search.SpotTuneName,
		Resilience: resilience.FixedName,
		Inspect: func(d *campaign.RunDetail) error {
			violations = invariants.Check(scenario.StateFor(d))
			return nil
		},
	}
	const campaigns = 64
	round := func(r int) {
		for c := 0; c < campaigns; c++ {
			opt.Seed = scenario.ReplicateSeed(uint64(r), c)
			if _, err := env.RunPolicy(bench, curves, opt); err != nil {
				b.Fatal(err)
			}
			if len(violations) > 0 {
				b.Fatalf("round %d campaign %d: %d invariant violations, first: %v", r, c, len(violations), violations[0])
			}
		}
	}
	round(0) // fills most of the RevPred memos, as the workload's first rounds do
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		round(i)
	}
	b.ReportMetric(float64(b.N*campaigns)/b.Elapsed().Seconds(), "campaigns/s")
}

// BenchmarkBatteryStream mirrors the battery-stream benchmark workload:
// one op streams scenario.DefaultSpecs (every regime and fault scenario, at
// seed 1) at quick fidelity through every registered policy × tuner ×
// recovery strategy, LoR at scale 0.2, on 2 workers, with the runner's
// invariant audit on every cell. Each op is one workload round: 8
// replicates at the op's own seed. `make profile` profiles it into
// results/battery.pprof.
func BenchmarkBatteryStream(b *testing.B) {
	specs := scenario.DefaultSpecs()
	for i := range specs {
		specs[i].Seed = 1
	}
	opt := scenario.StreamOptions{
		Options: scenario.Options{
			Quick:      true,
			Workload:   "LoR",
			Scale:      0.2,
			Policies:   policy.Names(),
			Tuners:     search.Names(),
			Strategies: resilience.Names(),
		},
		Replicates: 8,
		Workers:    2,
	}
	cells := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = uint64(i + 1)
		sum, err := scenario.Matrix{Specs: specs}.Stream(opt)
		if err != nil {
			b.Fatal(err)
		}
		if sum.Violations != 0 {
			b.Fatalf("op %d: %d invariant violations", i, sum.Violations)
		}
		cells += sum.Cells
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkCampaignEnv measures one full synthetic-environment campaign (16
// trials, generated spot markets, constant predictor) — the realistic
// short-campaign regime, where shared work (EarlyCurve fits, Eq. 1-2
// provisioning) dominates.
func BenchmarkCampaignEnv(b *testing.B) {
	env, bench, curves := campaignBenchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := env.RunSpotTune(bench, curves, campaign.Options{Theta: 0.7, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.JCT.Hours(), "virtual_jct_hours")
		b.ReportMetric(float64(rep.LoopIterations), "loop_iters")
	}
}

// BenchmarkCampaignUntraced / BenchmarkCampaignTraced are the flight
// recorder's overhead lane: the same synthetic-environment campaign with the
// no-op tracer (the default) and with a live recording. `make bench` feeds
// both through benchperf's ratio gate — traced/untraced must stay ≤ 1.05.
func BenchmarkCampaignUntraced(b *testing.B) {
	benchCampaignTrace(b, false)
}

func BenchmarkCampaignTraced(b *testing.B) {
	benchCampaignTrace(b, true)
}

func benchCampaignTrace(b *testing.B, traced bool) {
	env, bench, curves := campaignBenchEnv(b)
	var events int
	opt := campaign.Options{
		Theta: 0.7,
		Trace: traced,
		Inspect: func(d *campaign.RunDetail) error {
			if d.Trace != nil {
				events = d.Trace.Len()
			}
			return nil
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = uint64(i)
		if _, err := env.RunSpotTune(bench, curves, opt); err != nil {
			b.Fatal(err)
		}
	}
	if traced {
		b.ReportMetric(float64(events), "trace_events")
	}
}

// BenchmarkTraceExport measures turning a finished recording into its JSONL
// and Chrome trace_event forms — the cost a user pays only at write-out.
func BenchmarkTraceExport(b *testing.B) {
	env, bench, curves := campaignBenchEnv(b)
	var rec *obs.Recording
	_, err := env.RunSpotTune(bench, curves, campaign.Options{
		Theta: 0.7, Trace: true,
		Inspect: func(d *campaign.RunDetail) error { rec = d.Trace; return nil },
	})
	if err != nil || rec == nil {
		b.Fatalf("no recording (err=%v)", err)
	}
	for _, format := range []string{"jsonl", "chrome"} {
		b.Run(format, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := obs.WriteTrace(&buf, format, rec); err != nil {
					b.Fatal(err)
				}
				n = buf.Len()
			}
			b.ReportMetric(float64(rec.Len()), "events")
			b.ReportMetric(float64(n)/float64(rec.Len()), "bytes_per_event")
		})
	}
}

// BenchmarkCampaignSweep measures a 16-campaign θ/seed sweep through the
// campaign.Sweep worker pool — the many-campaign scenario the event-driven
// core exists for.
func BenchmarkCampaignSweep(b *testing.B) {
	env, bench, curves := campaignBenchEnv(b)
	thetas := []float64{0.25, 0.5, 0.75, 1.0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tasks []campaign.Task
		for s := 0; s < 4; s++ {
			for _, theta := range thetas {
				theta, seed := theta, uint64(i*4+s)
				tasks = append(tasks, campaign.Task{
					Key: fmt.Sprintf("θ=%.2f/seed=%d", theta, seed),
					Run: func() (*core.Report, error) {
						return env.RunSpotTune(bench, curves, campaign.Options{Theta: theta, Seed: seed})
					},
				})
			}
		}
		res := campaign.Sweep(tasks, campaign.SweepOptions{})
		for _, r := range res {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.Key, r.Err)
			}
		}
		iters := 0
		for _, r := range res {
			iters += r.Report.LoopIterations
		}
		b.ReportMetric(float64(len(res)), "campaigns")
		b.ReportMetric(float64(iters)/float64(len(res)), "mean_loop_iters")
	}
}

// BenchmarkAblationPredictors compares Eq. 2 with no prediction, the
// session predictor, and the oracle.
func BenchmarkAblationPredictors(b *testing.B) {
	ctx := experiments.NewContext(experiments.Options{
		Seed: 1, Scale: 0.15, Quick: true, Workloads: []string{"LoR"},
	})
	if _, err := experiments.PredictorAblation(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PredictorAblation(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Predictor == "oracle" {
				b.ReportMetric(r.FreeFrac, "oracle_free_frac")
			}
			if r.Predictor == "none" {
				b.ReportMetric(r.FreeFrac, "none_free_frac")
			}
		}
	}
}

// BenchmarkMatrixStreaming drives the streaming matrix runner over grids of
// increasing size (the replicate axis scales the cell count without adding
// specs). Beyond cells/s it reports the peak heap observed while streaming —
// the bounded-memory contract is that this metric stays flat between the
// 1k-cell and 100k-cell grids.
func BenchmarkMatrixStreaming(b *testing.B) {
	for _, cells := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			benchMatrixStreaming(b, cells)
		})
	}
}

func benchMatrixStreaming(b *testing.B, cells int) {
	m := scenario.Matrix{Specs: []scenario.Spec{{
		Name:      "bench",
		Regime:    "calm",
		Days:      2,
		TrainDays: 1,
		Pool:      []string{"r4.large", "m4.2xlarge"},
	}}}
	opt := scenario.Options{
		Seed:     1,
		Quick:    true,
		Workload: "LoR",
		Scale:    0.2,
		Policies: []string{"spottune", "cheapest-spot"},
	}
	reps := cells / len(opt.Policies)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var (
			peak uint64
			ms   runtime.MemStats
			seen int
		)
		sum, err := m.Stream(scenario.StreamOptions{
			Options:    opt,
			Replicates: reps,
			OnCell: func(scenario.Cell) error {
				seen++
				if seen%1024 == 0 {
					runtime.ReadMemStats(&ms)
					if ms.HeapAlloc > peak {
						peak = ms.HeapAlloc
					}
				}
				return nil
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if seen == 0 || peak == 0 {
			runtime.ReadMemStats(&ms)
			peak = ms.HeapAlloc
		}
		if want := reps * len(opt.Policies); sum.Cells != want {
			b.Fatalf("streamed %d cells, want %d", sum.Cells, want)
		}
		if sum.Violations != 0 {
			b.Fatalf("%d invariant violations in the streamed grid", sum.Violations)
		}
		b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
		b.ReportMetric(sum.Cost.Quantile(0.99), "cost-p99-usd")
	}
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// serviceBenchPeak1k stashes the 1k-tenant sub-benchmark's peak live heap
// (MB) so the 10k run can enforce the bounded-memory contract in-process:
// service working state is per shard and per in-flight slot, so a 10×
// tenant count must not cost more than 2× the heap.
var serviceBenchPeak1k float64

// BenchmarkServiceThroughput drives the sharded multi-tenant engine at 1k
// and 10k concurrent campaigns on a contended shared market and reports
// campaigns/s plus the peak live heap observed while streaming results.
// The gate reads the runtime's live-heap metric (the heap the last GC
// marked), not HeapAlloc, which also counts garbage not yet collected and
// so lands anywhere on the GC sawtooth. Both sizes take the same number of
// readings, one every tenants/64 results plus one at the end, so the gate
// compares maxima over equally many samples. `make service` exports these
// numbers to BENCH_service.json.
func BenchmarkServiceThroughput(b *testing.B) {
	for _, tenants := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			benchServiceThroughput(b, tenants)
		})
	}
}

func benchServiceThroughput(b *testing.B, tenants int) {
	env, err := campaign.NewEnvironment(campaign.EnvOptions{
		Seed: 1, Days: 2, TrainDays: 1, Predictor: campaign.PredictorConstant,
	})
	if err != nil {
		b.Fatal(err)
	}
	bench, err := BenchmarkByName("LoR", WorkloadConfig{Seed: 1, Scale: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	curves := bench.SyntheticCurves(1)
	battery := service.DefaultBattery(tenants, 1)
	cfg := service.Config{
		Shards:      8,
		MaxInFlight: 8,
		Contention:  true,
		Capacity:    4,
		SurgeSlope:  0.5,
	}
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	every := tenants / 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var (
			peak uint64
			seen int
		)
		sample := func() {
			metrics.Read(live)
			peak = max(peak, live[0].Value.Uint64())
		}
		cfg.OnResult = func(r service.Result) {
			if r.Err != nil {
				b.Fatalf("tenant %s: %v", r.Tenant.ID, r.Err)
			}
			if len(r.Violations) != 0 {
				b.Fatalf("tenant %s: %d invariant violations, first: %v", r.Tenant.ID, len(r.Violations), r.Violations[0])
			}
			if seen++; seen%every == 0 {
				sample()
			}
		}
		sum, err := service.Run(env, bench, curves, battery, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sample()
		if sum.Admitted != tenants || sum.Failed != 0 {
			b.Fatalf("summary %+v, want %d admitted", sum, tenants)
		}
		if len(sum.Capacity) != 0 {
			b.Fatalf("capacity oversubscription: %v", sum.Capacity)
		}
		peakMB := float64(peak) / (1 << 20)
		b.ReportMetric(peakMB, "peak-live-heap-MB")
		b.ReportMetric(sum.Cost.Quantile(0.99), "cost-p99-usd")
		switch tenants {
		case 1000:
			serviceBenchPeak1k = peakMB
		case 10000:
			// The flat-memory gate. Guarded so a filtered run of only the
			// 10k sub-benchmark still works.
			if serviceBenchPeak1k > 0 && peakMB > 2*serviceBenchPeak1k {
				b.Fatalf("peak heap %.1f MB at 10k tenants exceeds 2x the 1k figure (%.1f MB)",
					peakMB, serviceBenchPeak1k)
			}
		}
	}
	b.ReportMetric(float64(tenants)*float64(b.N)/b.Elapsed().Seconds(), "campaigns/s")
}
