// Command spottune runs one simulated hyper-parameter-tuning campaign and
// prints its report: SpotTune itself or any registered provisioning policy,
// over any of the paper's Table II workloads. The §IV-A4 Single-Spot
// baselines are policies run at θ=1: cheapest-spot, and fastest-spot
// anchored to m4.4xlarge.
//
// Usage:
//
//	spottune -workload ResNet -theta 0.7
//	spottune -workload SVM -policy spot-od-fallback
//	spottune -workload LoR -policy diversified-spot -basetype r4.xlarge -alloc capacity-optimized
//	spottune -workload LoR -tuner hyperband
//	spottune -workload LoR -policy cheapest-spot -theta 1
//	spottune -workload LoR -policy fastest-spot -theta 1 -basetype m4.4xlarge
//	spottune -workload GBTR -theta 0.5 -pred oracle -real
//	spottune -workload LoR -trace campaign.jsonl          # flight recorder + cost attribution
//	spottune -workload LoR -resilience adaptive -deadline 24h  # recovery strategy + degradation ladder
//
// Run with -help to see the registered policies and tuners. Multi-tenant
// service batteries run through `scenarios -tenants`.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"spottune/internal/campaign"
	"spottune/internal/core"
	"spottune/internal/obs"
	"spottune/internal/policy"
	"spottune/internal/resilience"
	"spottune/internal/search"
	"spottune/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spottune:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		wl      = flag.String("workload", "LoR", "Table II workload: LoR, SVM, GBTR, LiR, AlexNet, ResNet")
		theta   = flag.Float64("theta", 0.7, "early-shutdown rate θ in (0, 1]")
		mcnt    = flag.Int("mcnt", 3, "models continued to full training")
		conc    = flag.Int("concurrent", 1, "max concurrently deployed trials")
		polName = flag.String("policy", policy.SpotTuneName,
			"provisioning policy: "+strings.Join(policy.Names(), ", "))
		tunName = flag.String("tuner", search.SpotTuneName,
			"search strategy: "+strings.Join(search.Names(), ", "))
		eta      = flag.Int("eta", 0, "halving factor η for successive-halving/hyperband (0 = default 3)")
		pred     = flag.String("pred", "constant", "revocation predictor: revpred, tributary, logreg, oracle, constant, none")
		seed     = flag.Uint64("seed", 1, "seed for markets, noise, and bids")
		scale    = flag.Float64("scale", 0.5, "workload scale")
		real     = flag.Bool("real", false, "record curves with real pure-Go training (slower) instead of synthetic curves")
		days     = flag.Int("days", 8, "days of market history to generate")
		train    = flag.Int("train", 2, "days of history used to train predictors")
		trace    = flag.String("trace", "", "flight-recorder output path; turns tracing on and prints the per-trial cost attribution")
		traceFmt = flag.String("trace-format", "jsonl", "trace format: jsonl or chrome")
		resName  = flag.String("resilience", resilience.FixedName,
			"recovery strategy: "+strings.Join(resilience.Names(), ", "))
		deadline = flag.Duration("deadline", 0, "campaign completion deadline; 0 disables the degradation ladder")
		budget   = flag.Float64("budget", 0, "campaign spend cap in USD for ladder decisions; 0 = unconstrained")
		baseType = flag.String("basetype", "", "catalog compatibility anchor: narrow the fleet to types at least as powerful as this one (\"\" = whole catalog)")
		alloc    = flag.String("alloc", "", "diversified-spot allocation strategy: "+strings.Join(policy.AllocationNames(), ", ")+" (\"\" = lowest-price)")
	)
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintf(out, "\nRegistered provisioning policies:\n")
		for _, info := range policy.Infos() {
			fmt.Fprintf(out, "  %-18s %s\n", info.Name, info.Doc)
		}
		fmt.Fprintf(out, "\nRegistered tuners (search strategies):\n")
		for _, info := range search.Infos() {
			fmt.Fprintf(out, "  %-18s %s\n", info.Name, info.Doc)
		}
		fmt.Fprintf(out, "\nRegistered recovery strategies:\n")
		for _, info := range resilience.Infos() {
			fmt.Fprintf(out, "  %-18s %s\n", info.Name, info.Doc)
		}
	}
	flag.Parse()
	if !(*theta > 0 && *theta <= 1) {
		return fmt.Errorf("-theta %v is outside (0, 1]", *theta)
	}
	if !slices.Contains(obs.TraceFormats, *traceFmt) {
		return fmt.Errorf("-trace-format %q: want %s", *traceFmt, strings.Join(obs.TraceFormats, " or "))
	}

	bench, err := workload.SuiteByName(*wl, workload.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		return err
	}
	fmt.Printf("workload %s: %d HP settings, max_trial_steps=%d, checkpoint=%.0fMB\n",
		bench.Name, len(bench.HPs), bench.MaxTrialSteps, bench.CheckpointMB)

	var curves workload.Curves
	if *real {
		fmt.Println("recording curves with real training ...")
		curves, err = bench.RecordCurves()
		if err != nil {
			return err
		}
	} else {
		curves = bench.SyntheticCurves(*seed)
	}

	fmt.Printf("assembling environment (predictor=%s) ...\n", *pred)
	env, err := campaign.NewEnvironment(campaign.EnvOptions{
		Seed:      *seed,
		Days:      *days,
		TrainDays: *train,
		Predictor: campaign.PredictorKind(*pred),
	})
	if err != nil {
		return err
	}

	var rec *obs.Recording
	rep, err := env.RunPolicy(bench, curves, campaign.Options{
		Theta:         *theta,
		MCnt:          *mcnt,
		MaxConcurrent: *conc,
		Seed:          *seed,
		Policy:        *polName,
		Tuner:         *tunName,
		TunerParams:   search.Params{Eta: *eta},
		Resilience:    *resName,
		Deadline:      *deadline,
		Budget:        *budget,
		BaseType:      *baseType,
		PolicyParams:  policy.Params{Allocation: *alloc},
		Trace:         *trace != "",
		Inspect: func(d *campaign.RunDetail) error {
			rec = d.Trace
			return nil
		},
	})
	if err != nil {
		return err
	}
	printReport(rep, bench, curves)
	if rec != nil {
		f, err := os.Create(*trace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := obs.WriteTrace(f, *traceFmt, rec); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\ntrace (%d events) written to %s (format %s)\n", rec.Len(), *trace, *traceFmt)
		fmt.Println("\nper-trial cost attribution (trace-derived, ledger-reconciled):")
		if err := obs.Attribute(rec).WriteTable(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func printReport(rep *core.Report, bench *workload.Benchmark, curves workload.Curves) {
	fmt.Printf("\n=== %s (θ=%.1f) ===\n", rep.Approach, rep.Theta)
	if rep.Tuner != "" {
		fmt.Printf("tuner          %s\n", rep.Tuner)
	}
	fmt.Printf("JCT            %v\n", rep.JCT.Round(time.Second))
	fmt.Printf("cost           $%.4f (gross $%.4f, refunded $%.4f = %.1f%%)\n",
		rep.NetCost, rep.GrossCost, rep.Refund, 100*rep.RefundFraction())
	fmt.Printf("steps          %d total, %d free (%.1f%%)\n",
		rep.TotalSteps, rep.FreeSteps, 100*rep.FreeStepFraction())
	fmt.Printf("deployments    %d (%d on-demand, %d notices, %d revocations)\n",
		rep.Deployments, rep.OnDemandDeployments, rep.Notices, rep.Revocations)
	fmt.Printf("ckpt/restore   %v / %v (%.2f%% of JCT)\n",
		rep.CheckpointTime.Round(time.Second), rep.RestoreTime.Round(time.Second),
		100*rep.OverheadFraction())
	if rep.Resilience != resilience.FixedName || rep.LostSteps > 0 ||
		rep.Migrations > 0 || len(rep.BlackoutRetries) > 0 || rep.Deadline > 0 {
		retries := 0
		for _, n := range rep.BlackoutRetries {
			retries += n
		}
		fmt.Printf("resilience     %s (lost %d steps, %d migrations, %d blackout retries, %d gave up)\n",
			rep.Resilience, rep.LostSteps, rep.Migrations, retries, len(rep.GaveUp))
		if rep.Deadline > 0 {
			met := "met"
			if rep.DeadlineMissed {
				met = "MISSED"
			}
			fmt.Printf("deadline       %v (%s; degradation level %d after %d transitions)\n",
				rep.Deadline, met, rep.DegradationLevel, rep.DegradationTransitions)
		}
	}
	fmt.Printf("best HP        %s\n", rep.Best)

	finals, trueBest, err := campaign.TrueFinals(bench, curves)
	if err == nil {
		marker := "MISS"
		if rep.Best == trueBest {
			marker = "HIT"
		}
		fmt.Printf("true best      %s (%s)\n", trueBest, marker)
		type kv struct {
			id   string
			pred float64
		}
		var rows []kv
		for id, v := range rep.PredictedFinals {
			rows = append(rows, kv{id, v})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].pred < rows[j].pred })
		fmt.Println("ranking (predicted vs true final metric):")
		for i, r := range rows {
			if i == 5 {
				fmt.Printf("  ... %d more\n", len(rows)-5)
				break
			}
			fmt.Printf("  %2d. %-46s pred %.4f  true %.4f\n", i+1, r.id, r.pred, finals[r.id])
		}
	}
}
