package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"spottune/internal/campaign"
	"spottune/internal/cloudsim"
	"spottune/internal/core"
	"spottune/internal/earlycurve"
	"spottune/internal/market"
	"spottune/internal/policy"
	"spottune/internal/revpred"
	"spottune/internal/stats"
)

// ---------------------------------------------------------------- Fig. 1

// Fig1Result is a spot-price trace next to its on-demand price.
type Fig1Result struct {
	TypeName string
	OnDemand float64
	Records  []market.Record
}

// Fig1 regenerates the Fig. 1 view: eleven days of the spiky r3.xlarge
// market against its flat on-demand price.
func Fig1(opts Options) (*Fig1Result, error) {
	opts = opts.withDefaults()
	cat := market.DefaultCatalog()
	specs, err := market.DefaultSpecs(cat)
	if err != nil {
		return nil, err
	}
	start := campaign.DefaultStart()
	end := start.Add(11 * 24 * time.Hour)
	for _, spec := range specs {
		if spec.Type.Name != "r3.xlarge" {
			continue
		}
		tr, err := market.Generate(spec, start, end, opts.Seed)
		if err != nil {
			return nil, err
		}
		return &Fig1Result{
			TypeName: spec.Type.Name,
			OnDemand: spec.Type.OnDemandPrice,
			Records:  tr.Records,
		}, nil
	}
	return nil, fmt.Errorf("experiments: r3.xlarge spec missing")
}

// ---------------------------------------------------------------- Fig. 5

// Fig5Result carries example validation-loss curves: three LoR settings
// (Fig. 5a) and a two-stage ResNet-like config (Fig. 5b).
type Fig5Result struct {
	LoR    map[string][]earlycurve.MetricPoint
	ResNet []earlycurve.MetricPoint
	ResHP  string
}

// Fig5 records the example curves with the real trainers.
func Fig5(ctx *Context) (*Fig5Result, error) {
	lor, err := ctx.Bench("LoR")
	if err != nil {
		return nil, err
	}
	lorCurves, err := ctx.Curves("LoR")
	if err != nil {
		return nil, err
	}
	out := &Fig5Result{LoR: make(map[string][]earlycurve.MetricPoint, 3)}
	for _, hp := range lor.HPs {
		if len(out.LoR) == 3 {
			break
		}
		// Three visibly different settings, as in the figure.
		if hp.Num["bs"] == 128 && hp.Num["dr"] == 1.0 && hp.Num["ds"] == 2000 ||
			hp.Num["bs"] == 128 && hp.Num["lr"] == 1e-3 && hp.Num["dr"] == 0.95 && hp.Num["ds"] == 1000 ||
			hp.Num["bs"] == 64 && hp.Num["lr"] == 1e-2 && hp.Num["dr"] == 0.95 && hp.Num["ds"] == 2000 {
			out.LoR[hp.ID] = lorCurves[hp.ID]
		}
	}
	res, err := ctx.Bench("ResNet")
	if err != nil {
		return nil, err
	}
	resCurves, err := ctx.Curves("ResNet")
	if err != nil {
		return nil, err
	}
	out.ResHP = res.HPs[0].ID
	out.ResNet = resCurves[out.ResHP]
	return out, nil
}

// ---------------------------------------------------------------- Fig. 6

// Fig6Row is one instance's training-speed profile for the ResNet workload.
type Fig6Row struct {
	TypeName   string
	Price      float64 // on-demand, the figure's x-ordering
	SecPerStep float64 // mean over sampled steps
	COV        float64
}

// Fig6 samples the ground-truth performance model per instance, verifying
// the paper's COV < 0.1 profiling claim and the non-monotone speed/price
// relation.
func Fig6(ctx *Context) ([]Fig6Row, error) {
	b, err := ctx.Bench("ResNet")
	if err != nil {
		return nil, err
	}
	perf := b.PerfModel(ctx.Opts.Seed)
	cat := market.DefaultCatalog()
	var rows []Fig6Row
	for _, it := range cat.Types() {
		steps := perf.Steps(it, b.HPs[0].ID)
		var xs []float64
		for step := 0; step < 200; step++ {
			xs = append(xs, steps(step).Seconds())
		}
		rows = append(rows, Fig6Row{
			TypeName:   it.Name,
			Price:      it.OnDemandPrice,
			SecPerStep: stats.Mean(xs),
			COV:        stats.COV(xs),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Price < rows[j].Price })
	return rows, nil
}

// ---------------------------------------------------------------- Fig. 7

// Approach labels for the four compared strategies.
const (
	ApproachSpotTune07 = "SpotTune(theta=0.7)"
	ApproachSpotTune10 = "SpotTune(theta=1.0)"
	ApproachCheapest   = "SingleSpot(Cheapest)"
	ApproachFastest    = "SingleSpot(Fastest)"
)

// Fig7Row is one (workload, approach) cell of Fig. 7.
type Fig7Row struct {
	Workload string
	Approach string
	Cost     float64
	JCTHours float64
	Report   *core.Report
}

// Fig7 runs the full cost/JCT/PCR comparison: SpotTune at θ=0.7 and θ=1.0
// versus the cheapest and fastest single-spot baselines, on every workload.
// The baselines are the cheapest-spot and fastest-spot policies at θ=1
// through the same orchestrator as SpotTune, so they pay the same boot,
// checkpoint, restore and hourly-restart overheads and get its plateau
// stop.
// The (workload × approach) grid fans out over a campaign.Sweep worker pool;
// rows come back in the same deterministic order the sequential loop
// produced them in.
func Fig7(ctx *Context) ([]Fig7Row, error) {
	env, err := ctx.Env(ctx.defaultKind())
	if err != nil {
		return nil, err
	}
	type cell struct {
		workload string
		approach string
	}
	var cells []cell
	var tasks []campaign.Task
	for _, name := range ctx.Opts.Workloads {
		bench, err := ctx.Bench(name)
		if err != nil {
			return nil, err
		}
		curves, err := ctx.Curves(name)
		if err != nil {
			return nil, err
		}
		for _, spec := range []struct {
			label string
			run   func(*rand.Rand) (*core.Report, error)
		}{
			{ApproachSpotTune07, func(*rand.Rand) (*core.Report, error) {
				return env.RunSpotTune(bench, curves, campaign.Options{Theta: 0.7, Seed: ctx.Opts.Seed})
			}},
			{ApproachSpotTune10, func(*rand.Rand) (*core.Report, error) {
				return env.RunSpotTune(bench, curves, campaign.Options{Theta: 1.0, Seed: ctx.Opts.Seed})
			}},
			{ApproachCheapest, func(*rand.Rand) (*core.Report, error) {
				return env.RunPolicy(bench, curves, campaign.Options{
					Policy: policy.CheapestName, Theta: 1, Seed: ctx.Opts.Seed})
			}},
			{ApproachFastest, func(*rand.Rand) (*core.Report, error) {
				// m4.4xlarge is the only catalog type compatible with
				// itself. Without the anchor, a trial whose measured
				// m4.4xlarge step time exceeds another type's unmeasured
				// estimate moves there at its hourly-restart redeploy.
				return env.RunPolicy(bench, curves, campaign.Options{
					Policy: policy.FastestName, Theta: 1, Seed: ctx.Opts.Seed, BaseType: "m4.4xlarge"})
			}},
		} {
			cells = append(cells, cell{workload: name, approach: spec.label})
			tasks = append(tasks, campaign.Task{Key: name + "/" + spec.label, Run: spec.run})
		}
	}
	results := campaign.Sweep(tasks, campaign.SweepOptions{Seed: ctx.Opts.Seed})
	var rows []Fig7Row
	for i, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", res.Key, res.Err)
		}
		rows = append(rows, Fig7Row{
			Workload: cells[i].workload,
			Approach: cells[i].approach,
			Cost:     res.Report.NetCost,
			JCTHours: res.Report.JCT.Hours(),
			Report:   res.Report,
		})
	}
	return rows, nil
}

// PCRNormalized returns each row's performance-cost rate normalized so
// SpotTune(θ=0.7) is 1 within each workload (Fig. 7c's presentation).
func PCRNormalized(rows []Fig7Row) map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	ref := make(map[string]float64)
	for _, r := range rows {
		if r.Approach == ApproachSpotTune07 {
			ref[r.Workload] = r.Report.PCR()
		}
	}
	for _, r := range rows {
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string]float64)
		}
		denom := ref[r.Workload]
		if denom == 0 {
			continue
		}
		out[r.Workload][r.Approach] = r.Report.PCR() / denom
	}
	return out
}

// ---------------------------------------------------------------- Fig. 8

// Fig8Row is one (θ, workload) sample.
type Fig8Row struct {
	Theta    float64
	Workload string
	Cost     float64
	JCTHours float64
	Top1     bool
	Top3     bool
}

// Fig8Accuracy aggregates selection accuracy over workloads per θ.
type Fig8Accuracy struct {
	Theta float64
	Top1  float64
	Top3  float64
}

// Fig8 sweeps θ from 0.1 to 1.0, measuring cost, JCT and EarlyCurve
// selection accuracy against ground truth. The (workload × θ) campaigns run
// in parallel through campaign.Sweep with deterministic row ordering.
func Fig8(ctx *Context) ([]Fig8Row, []Fig8Accuracy, error) {
	env, err := ctx.Env(ctx.defaultKind())
	if err != nil {
		return nil, nil, err
	}
	thetas := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	type cell struct {
		workload string
		theta    float64
		trueBest string
	}
	var cells []cell
	var tasks []campaign.Task
	for _, name := range ctx.Opts.Workloads {
		bench, err := ctx.Bench(name)
		if err != nil {
			return nil, nil, err
		}
		curves, err := ctx.Curves(name)
		if err != nil {
			return nil, nil, err
		}
		_, trueBest, err := campaign.TrueFinals(bench, curves)
		if err != nil {
			return nil, nil, err
		}
		for _, theta := range thetas {
			name, theta := name, theta
			cells = append(cells, cell{workload: name, theta: theta, trueBest: trueBest})
			tasks = append(tasks, campaign.Task{
				Key: fmt.Sprintf("%s/θ=%.1f", name, theta),
				Run: func(*rand.Rand) (*core.Report, error) {
					return env.RunSpotTune(bench, curves, campaign.Options{Theta: theta, Seed: ctx.Opts.Seed})
				},
			})
		}
	}
	results := campaign.Sweep(tasks, campaign.SweepOptions{Seed: ctx.Opts.Seed})
	var rows []Fig8Row
	for i, res := range results {
		if res.Err != nil {
			return nil, nil, fmt.Errorf("experiments: %s: %w", res.Key, res.Err)
		}
		rep, c := res.Report, cells[i]
		top1 := len(rep.Ranked) > 0 && rep.Ranked[0] == c.trueBest
		top3 := false
		for _, id := range rep.Ranked[:min(3, len(rep.Ranked))] {
			if id == c.trueBest {
				top3 = true
			}
		}
		rows = append(rows, Fig8Row{
			Theta:    c.theta,
			Workload: c.workload,
			Cost:     rep.NetCost,
			JCTHours: rep.JCT.Hours(),
			Top1:     top1,
			Top3:     top3,
		})
	}
	var acc []Fig8Accuracy
	for _, theta := range thetas {
		var t1, t3, n float64
		for _, r := range rows {
			if r.Theta != theta {
				continue
			}
			n++
			if r.Top1 {
				t1++
			}
			if r.Top3 {
				t3++
			}
		}
		if n > 0 {
			acc = append(acc, Fig8Accuracy{Theta: theta, Top1: t1 / n, Top3: t3 / n})
		}
	}
	return rows, acc, nil
}

// ---------------------------------------------------------------- Fig. 9

// Fig9Row decomposes one workload's θ=0.7 campaign into free vs charged
// steps (9a) and refund vs net cost (9b).
type Fig9Row struct {
	Workload     string
	FreeSteps    int
	ChargedSteps int
	FreeFraction float64
	GrossCost    float64
	Refund       float64
	RefundFrac   float64
}

// Fig9 derives the refunded-resources contribution from Fig. 7's θ=0.7
// reports.
func Fig9(rows []Fig7Row) []Fig9Row {
	var out []Fig9Row
	for _, r := range rows {
		if r.Approach != ApproachSpotTune07 {
			continue
		}
		rep := r.Report
		out = append(out, Fig9Row{
			Workload:     r.Workload,
			FreeSteps:    rep.FreeSteps,
			ChargedSteps: rep.TotalSteps - rep.FreeSteps,
			FreeFraction: rep.FreeStepFraction(),
			GrossCost:    rep.GrossCost,
			Refund:       rep.Refund,
			RefundFrac:   rep.RefundFraction(),
		})
	}
	return out
}

// ---------------------------------------------------------------- Fig. 10

// Fig10Result aggregates the predictor comparison (10a/b) and the
// integrated cost/PCR comparison (10c).
type Fig10Result struct {
	PerMarket []revpred.CompareResult
	RevPred   stats.BinaryScores
	Tributary stats.BinaryScores
	LogReg    stats.BinaryScores
	CostRows  []Fig10cRow
}

// Fig10cRow compares SpotTune campaigns driven by RevPred vs the Tributary
// predictor on one workload.
type Fig10cRow struct {
	Workload      string
	CostRevPred   float64
	CostTributary float64
	PCRRevPred    float64 // normalized: RevPred = 1
	PCRTributary  float64
}

// Fig10 trains and evaluates the three revocation predictors per market
// (held-out accuracy and F1), then re-runs SpotTune campaigns with RevPred
// and Tributary predictors plugged into provisioning.
func Fig10(ctx *Context) (*Fig10Result, error) {
	envRev, err := ctx.Env(campaign.PredictorRevPred)
	if err != nil {
		return nil, err
	}
	cfg := ctx.Opts.revPredConfig()
	evalStride := 5
	if ctx.Opts.Quick {
		evalStride = 20
	}
	res := &Fig10Result{}
	for _, name := range market.DefaultCatalog().Names() {
		g := envRev.Grids[name]
		sp, err := revpred.NewSplit(g, ctx.Opts.TrainDays)
		if err != nil {
			return nil, err
		}
		cmp, err := revpred.CompareOnMarket(sp, cfg, evalStride, ctx.Opts.Seed+7)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig10 %s: %w", name, err)
		}
		res.PerMarket = append(res.PerMarket, cmp)
	}
	res.RevPred, res.Tributary, res.LogReg = revpred.Aggregate(res.PerMarket)

	// 10c: integrated effect on campaign cost/PCR.
	envTrib, err := ctx.Env(campaign.PredictorTributary)
	if err != nil {
		return nil, err
	}
	for _, name := range ctx.Opts.Workloads {
		bench, err := ctx.Bench(name)
		if err != nil {
			return nil, err
		}
		curves, err := ctx.Curves(name)
		if err != nil {
			return nil, err
		}
		repRev, err := envRev.RunSpotTune(bench, curves, campaign.Options{Theta: 0.7, Seed: ctx.Opts.Seed})
		if err != nil {
			return nil, err
		}
		repTrib, err := envTrib.RunSpotTune(bench, curves, campaign.Options{Theta: 0.7, Seed: ctx.Opts.Seed})
		if err != nil {
			return nil, err
		}
		pcrRev := repRev.PCR()
		row := Fig10cRow{
			Workload:      name,
			CostRevPred:   repRev.NetCost,
			CostTributary: repTrib.NetCost,
			PCRRevPred:    1,
		}
		if pcrRev > 0 {
			row.PCRTributary = repTrib.PCR() / pcrRev
		}
		res.CostRows = append(res.CostRows, row)
	}
	return res, nil
}

// ---------------------------------------------------------------- Fig. 11

// Fig11Row is one ResNet config's final-metric prediction error under both
// trend predictors at θ=0.7.
type Fig11Row struct {
	Config    string
	Truth     float64
	EarlyPred float64
	SLAQPred  float64
	EarlyErr  float64
	SLAQErr   float64
}

// Fig11Result carries the per-config errors plus a worked example (the
// config where the staged fit matters most).
type Fig11Result struct {
	Rows    []Fig11Row
	Example Fig11Row
	// ExampleObserved is the 70% prefix the predictors saw.
	ExampleObserved []earlycurve.MetricPoint
	// ExampleTruthCurve is the full ground-truth curve.
	ExampleTruthCurve []earlycurve.MetricPoint
}

// Fig11 compares EarlyCurve against SLAQ on all 16 ResNet configurations.
func Fig11(ctx *Context) (*Fig11Result, error) {
	bench, err := ctx.Bench("ResNet")
	if err != nil {
		return nil, err
	}
	curves, err := ctx.Curves("ResNet")
	if err != nil {
		return nil, err
	}
	ec := &earlycurve.Predictor{}
	slaq := earlycurve.SLAQ{}
	res := &Fig11Result{}
	bestGap := -1.0
	for _, hp := range bench.HPs {
		curve := curves[hp.ID]
		cut := int(0.7 * float64(bench.MaxTrialSteps))
		var prefix []earlycurve.MetricPoint
		for _, p := range curve {
			if p.Step <= cut {
				prefix = append(prefix, p)
			}
		}
		truth := curve[len(curve)-1].Value
		ecPred, err := ec.PredictFinal(prefix, bench.MaxTrialSteps)
		if err != nil {
			ecPred = math.NaN()
		}
		slaqPred, err := slaq.PredictFinal(prefix, bench.MaxTrialSteps)
		if err != nil {
			slaqPred = math.NaN()
		}
		row := Fig11Row{
			Config:    hp.ID,
			Truth:     truth,
			EarlyPred: ecPred,
			SLAQPred:  slaqPred,
			EarlyErr:  math.Abs(ecPred - truth),
			SLAQErr:   math.Abs(slaqPred - truth),
		}
		res.Rows = append(res.Rows, row)
		if gap := row.SLAQErr - row.EarlyErr; !math.IsNaN(gap) && gap > bestGap {
			bestGap = gap
			res.Example = row
			res.ExampleObserved = prefix
			res.ExampleTruthCurve = curve
		}
	}
	return res, nil
}

// ---------------------------------------------------------------- Fig. 12

// Fig12Row is one workload's checkpoint-restore overhead share.
type Fig12Row struct {
	Workload     string
	Overhead     time.Duration
	JCT          time.Duration
	OverheadFrac float64
}

// Fig12 derives checkpoint-restore overhead from Fig. 7's θ=0.7 reports.
func Fig12(rows []Fig7Row) []Fig12Row {
	var out []Fig12Row
	for _, r := range rows {
		if r.Approach != ApproachSpotTune07 {
			continue
		}
		rep := r.Report
		out = append(out, Fig12Row{
			Workload:     r.Workload,
			Overhead:     rep.CheckpointTime + rep.RestoreTime,
			JCT:          rep.JCT,
			OverheadFrac: rep.OverheadFraction(),
		})
	}
	return out
}

// CheckpointSpeedRow is one §IV-F calibration point.
type CheckpointSpeedRow struct {
	CPUs           int
	SpeedMBps      float64
	MaxModelSizeGB float64
}

// CheckpointSpeeds reproduces the §IV-F throughput table.
func CheckpointSpeeds() []CheckpointSpeedRow {
	var out []CheckpointSpeedRow
	for _, cpus := range []int{1, 2, 4, 8, 16} {
		out = append(out, CheckpointSpeedRow{
			CPUs:           cpus,
			SpeedMBps:      cloudsim.UploadSpeedMBps(cpus),
			MaxModelSizeGB: cloudsim.MaxModelSizeMB(cpus) / 1024,
		})
	}
	return out
}
