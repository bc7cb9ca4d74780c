package main

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"spottune/internal/experiments"
	"spottune/internal/obs"
)

// writer persists CSV files into the output directory.
type writer struct {
	dir string
}

func (w *writer) csv(name string, header []string, rows [][]string) error {
	f, err := os.Create(filepath.Join(w.dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// bar renders a proportional ASCII bar.
func bar(value, max float64, width int) string {
	if max <= 0 {
		return ""
	}
	n := int(value / max * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

func f(v float64) string { return fmt.Sprintf("%.4f", v) }

func runFig1(opts experiments.Options, w *writer) error {
	res, err := experiments.Fig1(opts)
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(res.Records))
	maxP := 0.0
	for _, r := range res.Records {
		rows = append(rows, []string{r.At.Format("2006-01-02T15:04"), f(r.Price), f(res.OnDemand)})
		if r.Price > maxP {
			maxP = r.Price
		}
	}
	if err := w.csv("fig1_spot_prices.csv", []string{"time", "spot_price", "on_demand_price"}, rows); err != nil {
		return err
	}
	fmt.Printf("\n== Fig 1: %s spot prices over 11 days ==\n", res.TypeName)
	fmt.Printf("records=%d  on-demand=$%.3f/h  max spot=$%.3f/h (%.1fx on-demand)\n",
		len(res.Records), res.OnDemand, maxP, maxP/res.OnDemand)
	// Daily max sparkline.
	day := res.Records[0].At
	dmax := 0.0
	for _, r := range res.Records {
		if r.At.Sub(day) >= 24*60*60*1e9 {
			fmt.Printf("  %s  max $%.3f %s\n", day.Format("Jan 02"), dmax, bar(dmax, maxP, 40))
			day = day.Add(24 * 60 * 60 * 1e9)
			dmax = 0
		}
		if r.Price > dmax {
			dmax = r.Price
		}
	}
	return nil
}

func runFig5(ctx *experiments.Context, w *writer) error {
	res, err := experiments.Fig5(ctx)
	if err != nil {
		return err
	}
	var rows [][]string
	ids := make([]string, 0, len(res.LoR))
	for id := range res.LoR {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, p := range res.LoR[id] {
			rows = append(rows, []string{"LoR", id, fmt.Sprint(p.Step), f(p.Value)})
		}
	}
	for _, p := range res.ResNet {
		rows = append(rows, []string{"ResNet", res.ResHP, fmt.Sprint(p.Step), f(p.Value)})
	}
	if err := w.csv("fig5_loss_curves.csv", []string{"workload", "hp", "step", "val_loss"}, rows); err != nil {
		return err
	}
	fmt.Printf("\n== Fig 5: validation-loss curve examples ==\n")
	for _, id := range ids {
		c := res.LoR[id]
		fmt.Printf("  LoR %-45s %.4f -> %.4f over %d points\n", id, c[0].Value, c[len(c)-1].Value, len(c))
	}
	c := res.ResNet
	fmt.Printf("  ResNet %-42s %.4f -> %.4f (two-stage lr decay)\n", res.ResHP, c[0].Value, c[len(c)-1].Value)
	return nil
}

func runFig6(ctx *experiments.Context, w *writer) error {
	rows, err := experiments.Fig6(ctx)
	if err != nil {
		return err
	}
	var out [][]string
	maxS := 0.0
	for _, r := range rows {
		out = append(out, []string{r.TypeName, f(r.Price), f(r.SecPerStep), f(r.COV)})
		if r.SecPerStep > maxS {
			maxS = r.SecPerStep
		}
	}
	if err := w.csv("fig6_perf_profile.csv", []string{"instance", "od_price", "sec_per_step", "cov"}, out); err != nil {
		return err
	}
	fmt.Printf("\n== Fig 6: ResNet per-step time by instance (price ascending) ==\n")
	for _, r := range rows {
		fmt.Printf("  %-11s $%.3f/h  %6.2f s/step (COV %.3f) %s\n",
			r.TypeName, r.Price, r.SecPerStep, r.COV, bar(r.SecPerStep, maxS, 30))
	}
	fmt.Println("  shape target: speed is NOT monotone in price; COV < 0.1 everywhere")
	return nil
}

func runFig7(rows []experiments.Fig7Row, w *writer) error {
	pcr := experiments.PCRNormalized(rows)
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Workload, r.Approach, f(r.Cost), f(r.JCTHours), f(pcr[r.Workload][r.Approach]),
			f(r.Report.FreeStepFraction()), f(r.Report.RefundFraction()),
		})
	}
	if err := w.csv("fig7_cost_jct_pcr.csv",
		[]string{"workload", "approach", "cost_usd", "jct_hours", "pcr_norm", "free_step_frac", "refund_frac"},
		out); err != nil {
		return err
	}
	fmt.Printf("\n== Fig 7: cost / JCT / PCR, four approaches ==\n")
	byWl := map[string][]experiments.Fig7Row{}
	var wls []string
	for _, r := range rows {
		if len(byWl[r.Workload]) == 0 {
			wls = append(wls, r.Workload)
		}
		byWl[r.Workload] = append(byWl[r.Workload], r)
	}
	for _, wl := range wls {
		fmt.Printf("  %s:\n", wl)
		maxC, maxJ := 0.0, 0.0
		for _, r := range byWl[wl] {
			if r.Cost > maxC {
				maxC = r.Cost
			}
			if r.JCTHours > maxJ {
				maxJ = r.JCTHours
			}
		}
		for _, r := range byWl[wl] {
			fmt.Printf("    %-22s cost $%7.3f %-20s JCT %6.2fh %-20s PCR %.2f\n",
				r.Approach, r.Cost, bar(r.Cost, maxC, 20), r.JCTHours, bar(r.JCTHours, maxJ, 20),
				pcr[wl][r.Approach])
		}
	}
	// §IV-B headline aggregate ratios.
	agg := map[string]struct{ cost, jct, pcr float64 }{}
	for _, r := range rows {
		a := agg[r.Approach]
		a.cost += r.Cost
		a.jct += r.JCTHours
		a.pcr += pcr[r.Workload][r.Approach]
		agg[r.Approach] = a
	}
	st10, cheap, fast := agg[experiments.ApproachSpotTune10], agg[experiments.ApproachCheapest], agg[experiments.ApproachFastest]
	st07 := agg[experiments.ApproachSpotTune07]
	n := float64(len(byWl))
	fmt.Printf("  headline (paper: θ=1.0 saves 41.5%%/86.04%%; θ=0.7 saves 75.64%%/94.18%%):\n")
	fmt.Printf("    SpotTune(θ=1.0) vs cheapest: saves %5.1f%%   vs fastest: saves %5.1f%%\n",
		100*(1-st10.cost/cheap.cost), 100*(1-st10.cost/fast.cost))
	fmt.Printf("    SpotTune(θ=0.7) vs cheapest: saves %5.1f%%   vs fastest: saves %5.1f%%\n",
		100*(1-st07.cost/cheap.cost), 100*(1-st07.cost/fast.cost))
	fmt.Printf("    mean normalized PCR: st07=%.2f st10=%.2f cheapest=%.2f fastest=%.2f\n",
		st07.pcr/n, st10.pcr/n, cheap.pcr/n, fast.pcr/n)
	fmt.Printf("    mean JCT hours:      st07=%.2f st10=%.2f cheapest=%.2f fastest=%.2f\n",
		st07.jct/n, st10.jct/n, cheap.jct/n, fast.jct/n)
	return nil
}

func runFig8(ctx *experiments.Context, w *writer) error {
	rows, acc, err := experiments.Fig8(ctx)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{f(r.Theta), r.Workload, f(r.Cost), f(r.JCTHours),
			fmt.Sprint(r.Top1), fmt.Sprint(r.Top3)})
	}
	if err := w.csv("fig8_theta_sweep.csv",
		[]string{"theta", "workload", "cost_usd", "jct_hours", "top1", "top3"}, out); err != nil {
		return err
	}
	var accOut [][]string
	for _, a := range acc {
		accOut = append(accOut, []string{f(a.Theta), f(a.Top1), f(a.Top3)})
	}
	if err := w.csv("fig8_accuracy.csv", []string{"theta", "top1_acc", "top3_acc"}, accOut); err != nil {
		return err
	}
	fmt.Printf("\n== Fig 8: θ sensitivity ==\n")
	for _, a := range acc {
		fmt.Printf("  θ=%.1f  top1=%.2f %-10s top3=%.2f %s\n",
			a.Theta, a.Top1, bar(a.Top1, 1, 10), a.Top3, bar(a.Top3, 1, 10))
	}
	fmt.Println("  shape target: cost and JCT grow ~linearly with θ; top-3 accuracy 100% for θ >= 0.7")
	return nil
}

func runFig9(rows []experiments.Fig7Row, w *writer) error {
	f9 := experiments.Fig9(rows)
	var out [][]string
	for _, r := range f9 {
		out = append(out, []string{r.Workload, fmt.Sprint(r.FreeSteps), fmt.Sprint(r.ChargedSteps),
			f(r.FreeFraction), f(r.GrossCost), f(r.Refund), f(r.RefundFrac)})
	}
	if err := w.csv("fig9_refund_contribution.csv",
		[]string{"workload", "free_steps", "charged_steps", "free_frac", "gross_cost", "refund", "refund_frac"},
		out); err != nil {
		return err
	}
	fmt.Printf("\n== Fig 9: refunded (free) resource contribution at θ=0.7 ==\n")
	sum := 0.0
	for _, r := range f9 {
		fmt.Printf("  %-8s free steps %5.1f%% %-20s refund %5.1f%% of gross\n",
			r.Workload, 100*r.FreeFraction, bar(r.FreeFraction, 1, 20), 100*r.RefundFrac)
		sum += r.FreeFraction
	}
	fmt.Printf("  mean free-step contribution %.1f%% (paper: 77.5%%)\n", 100*sum/float64(len(f9)))
	return nil
}

func runFig10(ctx *experiments.Context, w *writer) error {
	res, err := experiments.Fig10(ctx)
	if err != nil {
		return err
	}
	var out [][]string
	for _, m := range res.PerMarket {
		out = append(out, []string{m.Market,
			f(m.RevPred.Accuracy()), f(m.RevPred.F1()),
			f(m.Tributary.Accuracy()), f(m.Tributary.F1()),
			f(m.LogReg.Accuracy()), f(m.LogReg.F1())})
	}
	if err := w.csv("fig10_predictor_scores.csv",
		[]string{"market", "revpred_acc", "revpred_f1", "tributary_acc", "tributary_f1", "logreg_acc", "logreg_f1"},
		out); err != nil {
		return err
	}
	var cOut [][]string
	for _, r := range res.CostRows {
		cOut = append(cOut, []string{r.Workload, f(r.CostRevPred), f(r.CostTributary),
			f(r.PCRRevPred), f(r.PCRTributary)})
	}
	if err := w.csv("fig10c_predictor_campaigns.csv",
		[]string{"workload", "cost_revpred", "cost_tributary", "pcr_revpred", "pcr_tributary"}, cOut); err != nil {
		return err
	}
	fmt.Printf("\n== Fig 10: revocation predictor comparison ==\n")
	fmt.Printf("  aggregate  accuracy            F1\n")
	fmt.Printf("  RevPred    %.3f %-12s %.3f %s\n", res.RevPred.Accuracy(),
		bar(res.RevPred.Accuracy(), 1, 12), res.RevPred.F1(), bar(res.RevPred.F1(), 1, 12))
	fmt.Printf("  Tributary  %.3f %-12s %.3f %s\n", res.Tributary.Accuracy(),
		bar(res.Tributary.Accuracy(), 1, 12), res.Tributary.F1(), bar(res.Tributary.F1(), 1, 12))
	fmt.Printf("  LogReg     %.3f %-12s %.3f %s\n", res.LogReg.Accuracy(),
		bar(res.LogReg.Accuracy(), 1, 12), res.LogReg.F1(), bar(res.LogReg.F1(), 1, 12))
	fmt.Println("  shape target: RevPred >= Tributary >= LogReg (paper: +20.32% acc, +34.03% F1 over Tributary)")
	if len(res.CostRows) > 0 {
		var dc, dp float64
		for _, r := range res.CostRows {
			if r.CostTributary > 0 {
				dc += 1 - r.CostRevPred/r.CostTributary
			}
			dp += 1 - r.PCRTributary
		}
		n := float64(len(res.CostRows))
		fmt.Printf("  10c: RevPred-driven campaigns cost %.1f%% less, PCR %.1f%% higher (paper: ~25%% / ~24%%)\n",
			100*dc/n, 100*dp/n)
	}
	return nil
}

func runFig11(ctx *experiments.Context, w *writer) error {
	res, err := experiments.Fig11(ctx)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range res.Rows {
		out = append(out, []string{r.Config, f(r.Truth), f(r.EarlyPred), f(r.SLAQPred),
			f(r.EarlyErr), f(r.SLAQErr)})
	}
	if err := w.csv("fig11_trend_errors.csv",
		[]string{"config", "truth", "earlycurve_pred", "slaq_pred", "earlycurve_err", "slaq_err"}, out); err != nil {
		return err
	}
	var ex [][]string
	for _, p := range res.ExampleTruthCurve {
		ex = append(ex, []string{fmt.Sprint(p.Step), f(p.Value)})
	}
	if err := w.csv("fig11a_example_curve.csv", []string{"step", "val_loss"}, ex); err != nil {
		return err
	}
	fmt.Printf("\n== Fig 11: EarlyCurve vs SLAQ on 16 ResNet configs ==\n")
	var ecSum, slaqSum float64
	maxErr := 0.0
	for _, r := range res.Rows {
		if r.SLAQErr > maxErr {
			maxErr = r.SLAQErr
		}
	}
	for i, r := range res.Rows {
		ecSum += r.EarlyErr
		slaqSum += r.SLAQErr
		fmt.Printf("  cfg%02d  EC %.4f %-15s SLAQ %.4f %s\n",
			i, r.EarlyErr, bar(r.EarlyErr, maxErr, 15), r.SLAQErr, bar(r.SLAQErr, maxErr, 15))
	}
	n := float64(len(res.Rows))
	fmt.Printf("  mean error: EarlyCurve %.4f vs SLAQ %.4f\n", ecSum/n, slaqSum/n)
	fmt.Printf("  example config (largest gap): %s\n", res.Example.Config)
	return nil
}

func runFig12(rows []experiments.Fig7Row, w *writer) error {
	f12 := experiments.Fig12(rows)
	var out [][]string
	for _, r := range f12 {
		out = append(out, []string{r.Workload, f(r.Overhead.Seconds()), f(r.JCT.Seconds()), f(r.OverheadFrac)})
	}
	if err := w.csv("fig12_checkpoint_overhead.csv",
		[]string{"workload", "overhead_sec", "jct_sec", "overhead_frac"}, out); err != nil {
		return err
	}
	fmt.Printf("\n== Fig 12: checkpoint-restore overhead at θ=0.7 ==\n")
	sum := 0.0
	for _, r := range f12 {
		fmt.Printf("  %-8s %5.2f%% of JCT %s\n", r.Workload, 100*r.OverheadFrac, bar(r.OverheadFrac, 0.2, 30))
		sum += r.OverheadFrac
	}
	fmt.Printf("  mean %.2f%% (paper: <10%% on average)\n", 100*sum/float64(len(f12)))
	fmt.Printf("  §IV-F throughput calibration:\n")
	for _, r := range experiments.CheckpointSpeeds() {
		fmt.Printf("    %2d cores: %.2f MB/s, max model %.2f GB\n", r.CPUs, r.SpeedMBps, r.MaxModelSizeGB)
	}
	return nil
}

func runAblation(ctx *experiments.Context, w *writer) error {
	rows, err := experiments.PredictorAblation(ctx)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Predictor, r.Workload, f(r.Cost), f(r.JCTHours), f(r.FreeFrac), f(r.Refund)})
	}
	if err := w.csv("ablation_predictors.csv",
		[]string{"predictor", "workload", "cost_usd", "jct_hours", "free_frac", "refund_usd"}, out); err != nil {
		return err
	}
	fmt.Printf("\n== Ablation: Eq. 2 with p=0, trained predictor, and oracle ==\n")
	for _, r := range rows {
		fmt.Printf("  %-9s %-8s cost $%7.3f  JCT %6.2fh  free %5.1f%%  refund $%.3f\n",
			r.Predictor, r.Workload, r.Cost, r.JCTHours, 100*r.FreeFrac, r.Refund)
	}
	return nil
}

// runPolicyStudy executes the cross-policy comparison (every registered
// provisioning policy on one Table II workload through campaign.Sweep),
// writes policy.csv, prints the ASCII comparison, and — when jsonPath is
// non-empty — emits the rows as JSON (the CI benchmark-smoke artifact).
// When tracePath is non-empty the study runs with the flight recorder on
// and writes one recording per policy row to that path; tracing is purely
// observational, so the rows (and the JSON artifact) are byte-identical to
// an untraced study.
func runPolicyStudy(ctx *experiments.Context, w *writer, jsonPath, tracePath, traceFormat string) error {
	var rows []experiments.CrossPolicyRow
	var err error
	if tracePath != "" {
		var recs []*obs.Recording
		rows, recs, err = experiments.CrossPolicyTraced(ctx)
		if err != nil {
			return err
		}
		tf, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer tf.Close()
		if err := obs.WriteTrace(tf, traceFormat, recs...); err != nil {
			return err
		}
		if err := tf.Close(); err != nil {
			return err
		}
		fmt.Printf("cross-policy trace written to %s (format %s)\n", tracePath, traceFormat)
	} else {
		rows, err = experiments.CrossPolicy(ctx)
		if err != nil {
			return err
		}
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Policy, r.Workload, f(r.Cost), f(r.JCTHours), f(r.RefundFrac),
			fmt.Sprintf("%d", r.Deployments), fmt.Sprintf("%d", r.OnDemandDeployments),
			fmt.Sprintf("%d", r.Notices),
		})
	}
	if err := w.csv("policy.csv",
		[]string{"policy", "workload", "cost_usd", "jct_hours", "refund_frac",
			"deployments", "on_demand_deployments", "notices"}, out); err != nil {
		return err
	}
	maxCost := 0.0
	for _, r := range rows {
		if r.Cost > maxCost {
			maxCost = r.Cost
		}
	}
	fmt.Printf("\n== Cross-policy study: %d provisioning policies on %s ==\n", len(rows), rows[0].Workload)
	for _, r := range rows {
		fmt.Printf("  %-17s cost $%7.3f %-24s JCT %6.2fh  refund %5.1f%%  od %d/%d\n",
			r.Policy, r.Cost, bar(r.Cost, maxCost, 24), r.JCTHours,
			100*r.RefundFrac, r.OnDemandDeployments, r.Deployments)
	}
	if jsonPath == "" {
		return nil
	}
	type jsonRow struct {
		Policy              string  `json:"policy"`
		Workload            string  `json:"workload"`
		CostUSD             float64 `json:"cost_usd"`
		JCTHours            float64 `json:"jct_hours"`
		RefundFrac          float64 `json:"refund_frac"`
		Deployments         int     `json:"deployments"`
		OnDemandDeployments int     `json:"on_demand_deployments"`
		Notices             int     `json:"notices"`
	}
	jrows := make([]jsonRow, 0, len(rows))
	for _, r := range rows {
		jrows = append(jrows, jsonRow{
			Policy:              r.Policy,
			Workload:            r.Workload,
			CostUSD:             r.Cost,
			JCTHours:            r.JCTHours,
			RefundFrac:          r.RefundFrac,
			Deployments:         r.Deployments,
			OnDemandDeployments: r.OnDemandDeployments,
			Notices:             r.Notices,
		})
	}
	blob, err := json.MarshalIndent(jrows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(blob, '\n'), 0o644)
}

// runTunerStudy executes the cross-tuner comparison (every registered
// search strategy on one Table II workload under the spottune provisioning
// policy through campaign.Sweep), writes tuner.csv, prints the ASCII
// comparison, and — when jsonPath is non-empty — emits the rows as JSON
// (the CI benchmark-smoke artifact BENCH_tuner.json).
func runTunerStudy(ctx *experiments.Context, w *writer, jsonPath string) error {
	rows, err := experiments.CrossTuner(ctx)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Tuner, r.Policy, r.Workload, f(r.Cost), f(r.JCTHours), f(r.RefundFrac),
			fmt.Sprintf("%d", r.Deployments), fmt.Sprintf("%d", r.Notices),
			fmt.Sprintf("%d", r.Revocations), r.Best,
		})
	}
	if err := w.csv("tuner.csv",
		[]string{"tuner", "policy", "workload", "cost_usd", "jct_hours", "refund_frac",
			"deployments", "notices", "revocations", "best"}, out); err != nil {
		return err
	}
	maxCost := 0.0
	for _, r := range rows {
		if r.Cost > maxCost {
			maxCost = r.Cost
		}
	}
	fmt.Printf("\n== Cross-tuner study: %d search strategies on %s ==\n", len(rows), rows[0].Workload)
	for _, r := range rows {
		fmt.Printf("  %-19s cost $%7.3f %-24s JCT %6.2fh  refund %5.1f%%  notices %3d  best %s\n",
			r.Tuner, r.Cost, bar(r.Cost, maxCost, 24), r.JCTHours,
			100*r.RefundFrac, r.Notices, r.Best)
	}
	if jsonPath == "" {
		return nil
	}
	type jsonRow struct {
		Tuner       string  `json:"tuner"`
		Policy      string  `json:"policy"`
		Workload    string  `json:"workload"`
		CostUSD     float64 `json:"cost_usd"`
		JCTHours    float64 `json:"jct_hours"`
		RefundFrac  float64 `json:"refund_frac"`
		Deployments int     `json:"deployments"`
		Notices     int     `json:"notices"`
		Revocations int     `json:"revocations"`
		Best        string  `json:"best"`
	}
	jrows := make([]jsonRow, 0, len(rows))
	for _, r := range rows {
		jrows = append(jrows, jsonRow{
			Tuner:       r.Tuner,
			Policy:      r.Policy,
			Workload:    r.Workload,
			CostUSD:     r.Cost,
			JCTHours:    r.JCTHours,
			RefundFrac:  r.RefundFrac,
			Deployments: r.Deployments,
			Notices:     r.Notices,
			Revocations: r.Revocations,
			Best:        r.Best,
		})
	}
	blob, err := json.MarshalIndent(jrows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(blob, '\n'), 0o644)
}
