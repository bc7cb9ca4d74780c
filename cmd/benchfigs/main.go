// Command benchfigs regenerates every table and figure of the SpotTune
// paper's evaluation (§IV) against the simulated substrates, writing CSVs to
// an output directory and printing ASCII summaries with the paper's
// shape-targets alongside.
//
// Usage:
//
//	benchfigs -fig all -out results
//	benchfigs -fig 7,9,12 -quick
//	benchfigs -fig 10 -seed 3
//	benchfigs -fig none -quick -policy                         # cross-policy study only
//	benchfigs -fig none -quick -policyjson BENCH_policy.json   # + JSON artifact
//	benchfigs -fig none -quick -tunerjson BENCH_tuner.json     # cross-tuner study + artifact
//
// The scenario x policy matrix runs through `scenarios`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"spottune/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchfigs:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		figFlag  = flag.String("fig", "all", "comma-separated figure numbers (1,5,6,7,8,9,10,11,12) or 'all'")
		outDir   = flag.String("out", "results", "output directory for CSV files")
		seed     = flag.Uint64("seed", 1, "experiment seed")
		scale    = flag.Float64("scale", 1.0, "workload scale (dataset sizes and horizons)")
		quick    = flag.Bool("quick", false, "fast mode: synthetic curves, tiny predictors, short traces")
		ablation = flag.Bool("ablation", false, "also run the predictor ablation (none vs trained vs oracle)")
		policyS  = flag.Bool("policy", false, "also run the cross-policy provisioning study")
		policyJS = flag.String("policyjson", "", "write the cross-policy study rows as JSON to this path (implies -policy)")
		tunerS   = flag.Bool("tuner", false, "also run the cross-tuner search-strategy study")
		tunerJS  = flag.String("tunerjson", "", "write the cross-tuner study rows as JSON to this path (implies -tuner)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with `go tool pprof`)")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file")
		trace    = flag.String("trace", "", "flight-recorder output path for the cross-policy study (implies -policy; one recording per policy row)")
		traceFmt = flag.String("trace-format", "jsonl", "trace format: jsonl or chrome")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchfigs: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchfigs: memprofile:", err)
			}
		}()
	}

	want, err := parseFigs(*figFlag)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	opts := experiments.Options{Seed: *seed, Scale: *scale, Quick: *quick}
	ctx := experiments.NewContext(opts)
	w := &writer{dir: *outDir}

	if want[1] {
		if err := runFig1(opts, w); err != nil {
			return fmt.Errorf("fig 1: %w", err)
		}
	}
	if want[5] {
		if err := runFig5(ctx, w); err != nil {
			return fmt.Errorf("fig 5: %w", err)
		}
	}
	if want[6] {
		if err := runFig6(ctx, w); err != nil {
			return fmt.Errorf("fig 6: %w", err)
		}
	}
	var fig7rows []experiments.Fig7Row
	if want[7] || want[9] || want[12] {
		fig7rows, err = experiments.Fig7(ctx)
		if err != nil {
			return fmt.Errorf("fig 7: %w", err)
		}
	}
	if want[7] {
		if err := runFig7(fig7rows, w); err != nil {
			return fmt.Errorf("fig 7: %w", err)
		}
	}
	if want[8] {
		if err := runFig8(ctx, w); err != nil {
			return fmt.Errorf("fig 8: %w", err)
		}
	}
	if want[9] {
		if err := runFig9(fig7rows, w); err != nil {
			return fmt.Errorf("fig 9: %w", err)
		}
	}
	if want[10] {
		if err := runFig10(ctx, w); err != nil {
			return fmt.Errorf("fig 10: %w", err)
		}
	}
	if want[11] {
		if err := runFig11(ctx, w); err != nil {
			return fmt.Errorf("fig 11: %w", err)
		}
	}
	if want[12] {
		if err := runFig12(fig7rows, w); err != nil {
			return fmt.Errorf("fig 12: %w", err)
		}
	}
	if *ablation {
		if err := runAblation(ctx, w); err != nil {
			return fmt.Errorf("ablation: %w", err)
		}
	}
	if *policyS || *policyJS != "" || *trace != "" {
		if err := runPolicyStudy(ctx, w, *policyJS, *trace, *traceFmt); err != nil {
			return fmt.Errorf("policy study: %w", err)
		}
	}
	if *tunerS || *tunerJS != "" {
		if err := runTunerStudy(ctx, w, *tunerJS); err != nil {
			return fmt.Errorf("tuner study: %w", err)
		}
	}
	fmt.Printf("\nCSV outputs written to %s/\n", *outDir)
	return nil
}

func parseFigs(s string) (map[int]bool, error) {
	all := []int{1, 5, 6, 7, 8, 9, 10, 11, 12}
	out := make(map[int]bool)
	if s == "none" {
		return out, nil
	}
	if s == "all" {
		for _, f := range all {
			out[f] = true
		}
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		var n int
		if _, err := fmt.Sscanf(part, "%d", &n); err != nil {
			return nil, fmt.Errorf("bad figure %q", part)
		}
		valid := false
		for _, f := range all {
			if f == n {
				valid = true
			}
		}
		if !valid {
			return nil, fmt.Errorf("figure %d is not part of the paper's evaluation", n)
		}
		out[n] = true
	}
	return out, nil
}
