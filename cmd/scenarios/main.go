// Command scenarios runs the scenario × policy matrix: named market regimes
// and fault-injection scenarios crossed with every registered provisioning
// policy, each cell a full simulated HPT campaign audited by the simulator
// invariant checker. Results land as a per-cell CSV plus an ASCII table;
// any invariant violation makes the command exit non-zero.
//
// Usage:
//
//	scenarios -quick                          # full battery, quick fidelity
//	scenarios -quick -scenarios calm,crunch -policies spottune,on-demand
//	scenarios -quick -tuners all              # cross-tuner lane: every search strategy per cell
//	scenarios -quick -replicates 100 -stream  # large grid: live progress + aggregate percentiles
//	scenarios -quick -storm all -strategies all -chaos-seed 1 \
//	          -resiliencejson results/BENCH_resilience.json
//	                                          # chaos battery: seeded storms × every recovery strategy
//	scenarios -quick -tenants 1000 -shards 8  # service mode: multi-tenant battery on shared markets
//	scenarios -quick -tenants 100 -trace-tenant t-00042 -trace t42.jsonl
//	                                          # explain-this-tenant: flight-record one tenant's campaign
//	scenarios -list                           # what's available
//	scenarios -seed 7 -out results            # full fidelity (slow: trains predictors per scenario)
//
// Every matrix run goes through the streaming matrix runner: cells are
// written to the CSV as they finish, so memory stays flat no matter how many
// replicates. -stream swaps the per-cell table for a live progress line plus
// quantile summaries; there the per-cell CSV is opt-in via -percell.
//
// -tenants switches to service mode, the command's second engine. Each mode
// rejects the flags only the other one reads, before anything runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"spottune/internal/campaign"
	"spottune/internal/core"
	"spottune/internal/market"
	"spottune/internal/obs"
	"spottune/internal/policy"
	"spottune/internal/resilience"
	"spottune/internal/scenario"
	"spottune/internal/search"
	"spottune/internal/service"
	"spottune/internal/stats"
	"spottune/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scenarios:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		list      = flag.Bool("list", false, "list available scenarios, regimes, and policies, then exit")
		names     = flag.String("scenarios", "all", "comma-separated scenario names from the default battery, or 'all'")
		policies  = flag.String("policies", "all", "comma-separated provisioning policy names, or 'all'")
		tuners    = flag.String("tuners", search.SpotTuneName, "comma-separated tuner (search strategy) names, or 'all' for every registered tuner")
		workloadF = flag.String("workload", "LoR", "Table II workload for every cell")
		seed      = flag.Uint64("seed", 1, "matrix seed; same seed, bit-identical CSV")
		quick     = flag.Bool("quick", false, "fast mode: synthetic curves, constant revocation predictor, short traces")
		theta     = flag.Float64("theta", 0.7, "early-shutdown rate θ for every cell")
		outDir    = flag.String("out", "results", "output directory for scenarios.csv")
		reps      = flag.Int("replicates", 1, "seed-axis replicates per scenario (each with a derived campaign seed)")
		stream    = flag.Bool("stream", false, "summary mode: live progress + aggregate percentiles instead of the per-cell table")
		percell   = flag.Bool("percell", false, "with -stream, still write the per-cell CSV (it is always written otherwise)")
		stormF    = flag.String("storm", "", "chaos battery: replace -scenarios with seeded storm specs for this regime (see -list), or 'all'")
		chaosSeed = flag.Uint64("chaos-seed", 1, "seed for the -storm schedule generator; same (regime, seed), bit-identical storm")
		stratsF   = flag.String("strategies", resilience.FixedName, "comma-separated recovery strategy names, or 'all' for every registered strategy")
		resJSON   = flag.String("resiliencejson", "", "write battery-wide resilience metrics (survival rate, lost-work percentiles, degradation transitions) to this JSON file")
		trace     = flag.String("trace", "", "flight-recorder output path; turns tracing on (same seed, byte-identical file)")
		traceFmt  = flag.String("trace-format", "jsonl", "trace format: jsonl, chrome, or (matrix mode only) all, which writes chrome next to -trace with a .trace.json suffix")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with `go tool pprof`)")
		memProf   = flag.String("memprofile", "", "write a heap profile at exit to this file")

		tenants   = flag.Int("tenants", 0, "service mode: run this many multi-tenant campaigns through the sharded world engine instead of the scenario matrix (0 = off)")
		shards    = flag.Int("shards", 4, "service mode: number of world shards")
		inflight  = flag.Int("inflight", 8, "service mode: max in-flight campaigns per shard")
		admission = flag.String("admission", service.AdmissionFIFO, "service mode: admission policy: "+strings.Join(service.AdmissionNames(), ", "))
		capacity  = flag.Int("capacity", 4, "service mode: shared spot capacity per instance type (0 = uncontended private markets)")
		surge     = flag.Float64("surge", 0.5, "service mode: demand surge slope — price multiplier slope at full utilization")
		maxBudget = flag.Float64("max-budget", 0, "service mode: admission budget cap in USD; tenant budgets cycle around the cap so admission control has texture (0 = admit all)")
		traceTen  = flag.String("trace-tenant", "", "service mode: flight-record exactly this tenant's campaign and write it to -trace (the explain-this-tenant workflow)")
	)
	flag.Parse()

	// Reject what the run would ignore or fail on at the end before any
	// output file or environment exists.
	serviceMode := *tenants > 0
	if err := checkModeFlags(serviceMode); err != nil {
		return err
	}
	if !slices.Contains(obs.TraceFormats, *traceFmt) && (serviceMode || *traceFmt != "all") {
		return fmt.Errorf("-trace-format %q: want jsonl, chrome, or (matrix mode only) all", *traceFmt)
	}
	var battery []service.Tenant
	if serviceMode {
		battery = service.DefaultBattery(*tenants, *seed)
	}
	if *traceTen != "" && *trace == "" {
		return fmt.Errorf("-trace-tenant needs -trace for the recording")
	}
	if *traceTen != "" && !slices.ContainsFunc(battery, func(t service.Tenant) bool { return t.ID == *traceTen }) {
		return fmt.Errorf("-trace-tenant %q: no such tenant in the %d-tenant battery", *traceTen, len(battery))
	}

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
				fmt.Fprintln(os.Stderr, "scenarios: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "scenarios: memprofile:", err)
			}
		}()
	}

	if *list {
		printInventory()
		return nil
	}

	if serviceMode {
		return runServiceMode(battery, serviceArgs{
			workload: *workloadF, seed: *seed, quick: *quick,
			shards: *shards, inflight: *inflight,
			admission: *admission, capacity: *capacity, surge: *surge,
			maxBudget: *maxBudget, traceTenant: *traceTen,
			tracePath: *trace, traceFmt: *traceFmt,
		})
	}

	if *theta <= 0 || *theta > 1 {
		// The library clamps silently (zero value = default); at the CLI
		// boundary a typo must not run a different experiment than asked.
		return fmt.Errorf("-theta %v outside (0, 1]", *theta)
	}
	var specs []scenario.Spec
	var err error
	if *stormF != "" {
		// The chaos battery replaces the named battery wholesale — mixing
		// the two would silently drop one, so an explicit -scenarios
		// alongside -storm is a contradiction, not a union.
		if *names != "all" {
			return fmt.Errorf("-storm and -scenarios are mutually exclusive")
		}
		specs, err = scenario.StormSpecs(*stormF, *chaosSeed)
	} else {
		specs, err = scenario.SpecsByName(splitArg(*names))
	}
	if err != nil {
		return err
	}
	var pols []string
	if p := splitArg(*policies); p != nil {
		pols = p
	}
	tuns := splitArg(*tuners)
	if tuns == nil {
		// "all" fans the full tuner axis; the scenario library's own
		// default is spottune-only, so expand explicitly here.
		tuns = search.Names()
	}
	strats := splitArg(*stratsF)
	if strats == nil {
		strats = resilience.Names()
	}

	opt := scenario.Options{
		Seed:       *seed,
		Quick:      *quick,
		Workload:   *workloadF,
		Theta:      *theta,
		Policies:   pols,
		Tuners:     tuns,
		Strategies: strats,
		Trace:      *trace != "",
	}
	sopt := scenario.StreamOptions{Options: opt, Replicates: *reps}

	// Trace sinks stream cell by cell in grid order, so the files are
	// byte-identical for a given seed regardless of worker count and the
	// recordings never accumulate in memory.
	var (
		jsonlF  *os.File
		chromeF *os.File
		chromeW *obs.ChromeWriter
	)
	if *trace != "" {
		wantJSONL, wantChrome := *traceFmt != "chrome", *traceFmt != "jsonl"
		if dir := filepath.Dir(*trace); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		if wantJSONL {
			if jsonlF, err = os.Create(*trace); err != nil {
				return err
			}
			defer jsonlF.Close()
		}
		if wantChrome {
			path := *trace
			if wantJSONL {
				path += ".trace.json"
			}
			if chromeF, err = os.Create(path); err != nil {
				return err
			}
			defer chromeF.Close()
			chromeW = obs.NewChromeWriter(chromeF)
		}
	}

	// Cells stream straight into the CSV as they finish; the full cell table
	// never exists in memory, so the footprint is flat in the grid size.
	var (
		cw   *scenario.CellWriter
		f    *os.File
		path string
	)
	if !*stream || *percell {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		path = filepath.Join(*outDir, "scenarios.csv")
		f, err = os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		cw, err = scenario.NewCellWriter(f)
		if err != nil {
			return err
		}
	}

	// Resilience aggregates accumulate cell by cell, per strategy — the
	// whole-battery JSON is rendered from them after the stream drains.
	var (
		resPer map[string]*resAgg
		resAll *resAgg
	)
	if *resJSON != "" {
		resPer = map[string]*resAgg{}
		resAll = newResAgg()
	}

	tab := tablePrinter{replicates: *reps, quiet: *stream}
	sopt.OnCell = func(c scenario.Cell) error {
		if cw != nil {
			if err := cw.Write(c); err != nil {
				return err
			}
		}
		if resPer != nil {
			a := resPer[c.Strategy]
			if a == nil {
				a = newResAgg()
				resPer[c.Strategy] = a
			}
			a.add(c.Report)
			resAll.add(c.Report)
		}
		if c.Trace != nil {
			if jsonlF != nil {
				if err := obs.WriteTrace(jsonlF, "jsonl", c.Trace); err != nil {
					return err
				}
			}
			if chromeW != nil {
				if err := chromeW.Add(c.Trace); err != nil {
					return err
				}
			}
		}
		tab.cell(c)
		for _, v := range c.Violations {
			fmt.Fprintf(os.Stderr, "%s/%s/%s: invariant violated: %v\n", c.Scenario, c.Tuner, c.Policy, v)
			printViolationEvents(os.Stderr, v.Events)
		}
		return nil
	}
	if *stream {
		sopt.Progress = os.Stderr
	}
	sum, err := scenario.Matrix{Specs: specs}.Stream(sopt)
	if err != nil {
		return err
	}
	if cw != nil {
		if err := cw.Flush(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nper-cell CSV written to %s\n", path)
	}
	if chromeW != nil {
		if err := chromeW.Close(); err != nil {
			return err
		}
	}
	if jsonlF != nil {
		if err := jsonlF.Close(); err != nil {
			return err
		}
	}
	if *trace != "" {
		fmt.Printf("flight-recorder trace written to %s (format %s)\n", *trace, *traceFmt)
	}
	if *resJSON != "" {
		if err := writeResilienceJSON(*resJSON, *stormF, *chaosSeed, resAll, resPer); err != nil {
			return err
		}
		fmt.Printf("resilience metrics written to %s\n", *resJSON)
	}
	if *stream {
		printSummary(sum)
	}
	if sum.Metrics != nil {
		printMetrics(sum.Metrics)
	}

	if sum.Violations > 0 {
		return fmt.Errorf("%d invariant violations across the matrix", sum.Violations)
	}
	fmt.Println("invariant audit: every cell sound")
	return nil
}

// matrixOnly and serviceOnly name the flags only one mode reads.
var (
	matrixOnly = []string{"scenarios", "policies", "tuners", "theta", "out", "replicates",
		"stream", "percell", "storm", "chaos-seed", "strategies", "resiliencejson"}
	serviceOnly = []string{"shards", "inflight", "admission", "capacity", "surge",
		"max-budget", "trace-tenant"}
)

// checkModeFlags rejects every explicitly set flag the chosen mode does not
// read, naming them all in one error: a flag the run would silently ignore
// is a different experiment than the one asked for.
func checkModeFlags(serviceMode bool) error {
	mode, foreign := "matrix mode", serviceOnly
	if serviceMode {
		mode, foreign = "service mode (-tenants)", matrixOnly
	}
	var bad []string
	flag.Visit(func(f *flag.Flag) {
		if slices.Contains(foreign, f.Name) {
			bad = append(bad, "-"+f.Name)
		}
	})
	if len(bad) > 0 {
		return fmt.Errorf("%s does not read %s", mode, strings.Join(bad, ", "))
	}
	return nil
}

// serviceArgs carries the service-mode flag values.
type serviceArgs struct {
	workload         string
	seed             uint64
	quick            bool
	shards, inflight int
	admission        string
	capacity         int
	surge, maxBudget float64
	traceTenant      string
	tracePath        string
	traceFmt         string
}

// runServiceMode runs the sharded multi-tenant world engine instead of the
// scenario matrix: a deterministic tenant battery admitted under the chosen
// policy, spread round-robin over world shards, optionally contending for
// shared per-type spot capacity with demand-surge pricing. Any capacity
// oversubscription, per-campaign invariant violation, or failed campaign
// makes the command exit non-zero — the same audit contract as the matrix.
func runServiceMode(battery []service.Tenant, a serviceArgs) error {
	scale := 0.5
	envOpt := campaign.EnvOptions{Seed: a.seed, Days: 8, TrainDays: 2}
	if a.quick {
		scale = 0.2
		envOpt = campaign.EnvOptions{Seed: a.seed, Days: 5, TrainDays: 2, Predictor: campaign.PredictorConstant}
	}
	bench, err := workload.SuiteByName(a.workload, workload.Config{Seed: a.seed, Scale: scale})
	if err != nil {
		return err
	}
	env, err := campaign.NewEnvironment(envOpt)
	if err != nil {
		return err
	}
	curves := bench.SyntheticCurves(a.seed)

	if a.maxBudget > 0 {
		// The default battery leaves budgets unconstrained, which a capped
		// region rejects wholesale; cycle budgets around the cap instead so
		// the admission decision has texture (every third tenant is over).
		for i := range battery {
			battery[i].Budget = a.maxBudget * []float64{0.5, 0.9, 1.5}[i%3]
		}
	}
	cfg := service.Config{
		Shards:      a.shards,
		MaxInFlight: a.inflight,
		Admission:   a.admission,
		MaxBudget:   a.maxBudget,
		Contention:  a.capacity > 0,
		Capacity:    a.capacity,
		SurgeSlope:  a.surge,
		Trace:       true,
		TraceTenant: a.traceTenant,
	}
	mode := "uncontended private markets"
	if cfg.Contention {
		mode = fmt.Sprintf("shared capacity %d/type, surge slope %.2f", a.capacity, a.surge)
	}
	fmt.Printf("service: %d tenants on %d shards (in-flight %d, admission %s, %s)\n",
		len(battery), a.shards, a.inflight, a.admission, mode)

	var tenantTrace *obs.Recording
	if a.traceTenant != "" {
		cfg.OnResult = func(r service.Result) {
			if r.Trace != nil {
				tenantTrace = r.Trace
			}
		}
	}
	start := time.Now()
	sum, err := service.Run(env, bench, curves, battery, cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("\nadmitted %d, rejected %d, failed %d across %d waves (%.0f campaigns/s)\n",
		sum.Admitted, sum.Rejected, sum.Failed, sum.Waves,
		float64(sum.Admitted)/elapsed.Seconds())
	fmt.Printf("%-12s %10s %10s %10s %10s\n", "metric", "p50", "p90", "p99", "max")
	for _, row := range []struct {
		name string
		s    *stats.QuantileSketch
	}{{"cost_usd", sum.Cost}, {"jct_hours", sum.JCTHours}, {"refund_frac", sum.RefundFrac}} {
		fmt.Printf("%-12s %10.4f %10.4f %10.4f %10.4f\n",
			row.name, row.s.Quantile(0.5), row.s.Quantile(0.9), row.s.Quantile(0.99), row.s.Max())
	}
	fmt.Printf("total spend $%.2f, cost gini %.3f\n", sum.TotalCost, sum.CostGini)
	if len(battery) <= 32 {
		fmt.Println("\nper-tenant attribution (trace-derived):")
		if err := obs.AttributeTenants(sum.Trace).WriteTable(os.Stdout); err != nil {
			return err
		}
	}

	if a.tracePath != "" {
		rec := sum.Trace
		what := "service-level trace"
		if a.traceTenant != "" {
			if tenantTrace == nil {
				return fmt.Errorf("-trace-tenant %q: the tenant was rejected at admission or its campaign failed", a.traceTenant)
			}
			rec = tenantTrace
			what = "tenant " + a.traceTenant + " campaign trace"
		}
		if dir := filepath.Dir(a.tracePath); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		f, err := os.Create(a.tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := obs.WriteTrace(f, a.traceFmt, rec); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("%s (%d events) written to %s (format %s)\n", what, rec.Len(), a.tracePath, a.traceFmt)
	}

	for _, v := range sum.Capacity {
		fmt.Fprintf(os.Stderr, "capacity audit: %s: %s\n", v.Code, v.Detail)
	}
	switch {
	case len(sum.Capacity) > 0:
		return fmt.Errorf("%d capacity-oversubscription violations", len(sum.Capacity))
	case sum.Violations > 0:
		return fmt.Errorf("%d per-campaign invariant violations", sum.Violations)
	case sum.Failed > 0:
		return fmt.Errorf("%d campaigns failed", sum.Failed)
	}
	fmt.Println("invariant audit: every tenant sound")
	return nil
}

func splitArg(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func printInventory() {
	fmt.Println("scenarios (default battery):")
	for _, s := range scenario.DefaultSpecs() {
		extra := ""
		if len(s.Faults) > 0 {
			kinds := make([]string, 0, len(s.Faults))
			for _, f := range s.Faults {
				kinds = append(kinds, string(f.Kind))
			}
			extra = " + " + strings.Join(kinds, ", ")
		}
		fmt.Printf("  %-22s regime %q%s\n", s.Name, s.Regime, extra)
	}
	fmt.Println("\nmarket regimes:")
	for _, r := range market.RegimeInfos() {
		fmt.Printf("  %-12s %s\n", r.Name, r.Doc)
	}
	fmt.Println("\nprovisioning policies:")
	for _, p := range policy.Infos() {
		fmt.Printf("  %-17s %s\n", p.Name, p.Doc)
	}
	fmt.Println("\ntuners (search strategies):")
	for _, t := range search.Infos() {
		fmt.Printf("  %-18s %s\n", t.Name, t.Doc)
	}
	fmt.Println("\nrecovery strategies (-strategies):")
	for _, r := range resilience.Infos() {
		fmt.Printf("  %-10s %s\n", r.Name, r.Doc)
	}
	fmt.Println("\nstorm regimes (-storm, chaos battery):")
	for _, s := range scenario.StormInfos() {
		fmt.Printf("  %-11s %s\n", s.Name, s.Doc)
	}
	fmt.Println("\nadmission policies (-admission, service mode via -tenants):")
	fmt.Printf("  %-14s admit and start tenants in submission order\n", service.AdmissionFIFO)
	fmt.Printf("  %-14s order tenants by descending fair-share weight before sharding\n", service.AdmissionWeightedFair)
}

// resAgg accumulates resilience outcomes across cells for one recovery
// strategy; BENCH_resilience.json is rendered from these after the stream
// drains. Lost work is sketched per cell, so the p99 stays exact in memory
// no matter how many replicates the grid fans out.
type resAgg struct {
	cells, trials, gaveUp int
	lostTotal, migrations int
	retries, transitions  int
	missed                int
	lost                  *stats.QuantileSketch
}

func newResAgg() *resAgg { return &resAgg{lost: stats.NewQuantileSketch(0.01)} }

func (a *resAgg) add(rep *core.Report) {
	if rep == nil {
		return
	}
	a.cells++
	// A trial "survived" unless the retry budget abandoned it. The trial
	// census is segments ∪ gave-up: every trial that ran a step has a
	// segment, and a trial abandoned before its first step only appears in
	// GaveUp.
	seen := map[string]bool{}
	for _, s := range rep.Segments {
		seen[s.TrialID] = true
	}
	trials := len(seen)
	for _, id := range rep.GaveUp {
		if !seen[id] {
			trials++
		}
	}
	a.trials += trials
	a.gaveUp += len(rep.GaveUp)
	a.lostTotal += rep.LostSteps
	a.lost.Add(float64(rep.LostSteps))
	a.migrations += rep.Migrations
	for _, n := range rep.BlackoutRetries {
		a.retries += n
	}
	a.transitions += rep.DegradationTransitions
	if rep.DeadlineMissed {
		a.missed++
	}
}

// resSummary is the serialized form of one aggregate.
type resSummary struct {
	Cells                  int     `json:"cells"`
	Trials                 int     `json:"trials"`
	GaveUpTrials           int     `json:"gave_up_trials"`
	SurvivalRate           float64 `json:"survival_rate"`
	LostStepsTotal         int     `json:"lost_steps_total"`
	LostStepsP50           float64 `json:"lost_steps_p50"`
	LostStepsP99           float64 `json:"lost_steps_p99"`
	LostStepsMax           float64 `json:"lost_steps_max"`
	Migrations             int     `json:"migrations"`
	BlackoutRetries        int     `json:"blackout_retries"`
	DegradationTransitions int     `json:"degradation_transitions"`
	DeadlineMissedCells    int     `json:"deadline_missed_cells"`
}

func (a *resAgg) summary() resSummary {
	surv := 1.0
	if a.trials > 0 {
		surv = float64(a.trials-a.gaveUp) / float64(a.trials)
	}
	return resSummary{
		Cells:                  a.cells,
		Trials:                 a.trials,
		GaveUpTrials:           a.gaveUp,
		SurvivalRate:           surv,
		LostStepsTotal:         a.lostTotal,
		LostStepsP50:           a.lost.Quantile(0.5),
		LostStepsP99:           a.lost.Quantile(0.99),
		LostStepsMax:           a.lost.Max(),
		Migrations:             a.migrations,
		BlackoutRetries:        a.retries,
		DegradationTransitions: a.transitions,
		DeadlineMissedCells:    a.missed,
	}
}

func writeResilienceJSON(path, storm string, chaosSeed uint64, overall *resAgg, per map[string]*resAgg) error {
	out := struct {
		Storm      string                `json:"storm,omitempty"`
		ChaosSeed  uint64                `json:"chaos_seed"`
		Overall    resSummary            `json:"overall"`
		Strategies map[string]resSummary `json:"strategies"`
	}{Storm: storm, ChaosSeed: chaosSeed, Overall: overall.summary(), Strategies: map[string]resSummary{}}
	for name, a := range per {
		out.Strategies[name] = a.summary()
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// tablePrinter renders the matrix table incrementally as cells stream in,
// grouped by (scenario, replicate, tuner) in emission order — the streamed
// equivalent of the old whole-result table.
type tablePrinter struct {
	replicates int
	quiet      bool
	last       string
}

func (t *tablePrinter) cell(c scenario.Cell) {
	if t.quiet {
		return
	}
	if group := fmt.Sprintf("%s/%d/%s", c.Scenario, c.Replicate, c.Tuner); group != t.last {
		rep := ""
		if t.replicates > 1 {
			rep = fmt.Sprintf(", replicate %d", c.Replicate)
		}
		fmt.Printf("\n== %s (regime %s, tuner %s, workload %s%s) ==\n", c.Scenario, c.Regime, c.Tuner, c.Workload, rep)
		t.last = group
	}
	flag := ""
	if len(c.Violations) > 0 {
		flag = fmt.Sprintf("  !! %d VIOLATIONS", len(c.Violations))
	}
	fmt.Printf("  %-17s cost $%8.3f  JCT %7.2fh  refund %5.1f%%  notices %3d  od %d/%d%s\n",
		c.Policy, c.Cost, c.JCTHours, 100*c.RefundFrac, c.Notices,
		c.OnDemandDeployments, c.Deployments, flag)
}

// printViolationEvents renders a violation's attached flight-recorder
// context (the last few events relevant to its subject), one line per event.
func printViolationEvents(w *os.File, events []obs.Event) {
	for _, e := range events {
		subject := e.Trial
		if e.Inst != "" {
			subject += "@" + e.Inst
		}
		fmt.Fprintf(w, "    #%-5d %s %-14s %-24s %-12s a=%-12g b=%-12g n=%d\n",
			e.Seq, e.VT.UTC().Format(time.RFC3339), e.Kind, subject, e.Label, e.A, e.B, e.N)
	}
}

// printMetrics renders the battery-wide flight-recorder aggregate: exact
// event counters plus sketch percentiles per histogram.
func printMetrics(m *obs.Metrics) {
	fmt.Println("\nflight-recorder metrics (battery-wide):")
	for _, name := range m.CounterNames() {
		fmt.Printf("  %-22s %d\n", name, m.Counter(name))
	}
	hists := m.HistogramNames()
	if len(hists) == 0 {
		return
	}
	fmt.Printf("  %-22s %8s %10s %10s %10s %10s\n", "histogram", "n", "mean", "p50", "p99", "max")
	for _, name := range hists {
		s := m.Histogram(name)
		fmt.Printf("  %-22s %8d %10.4f %10.4f %10.4f %10.4f\n",
			name, s.Count(), s.Mean(), s.Quantile(0.5), s.Quantile(0.99), s.Max())
	}
}

// printSummary renders the streamed aggregate: exact counts plus sketch
// percentiles per headline metric.
func printSummary(sum *scenario.StreamSummary) {
	fmt.Printf("\nstreamed %d cells, %d violations\n", sum.Cells, sum.Violations)
	fmt.Printf("%-12s %10s %10s %10s %10s %10s\n", "metric", "mean", "p50", "p90", "p99", "max")
	row := func(name string, s *stats.QuantileSketch) {
		fmt.Printf("%-12s %10.4f %10.4f %10.4f %10.4f %10.4f\n",
			name, s.Mean(), s.Quantile(0.5), s.Quantile(0.9), s.Quantile(0.99), s.Max())
	}
	row("cost_usd", sum.Cost)
	row("jct_hours", sum.JCTHours)
	row("refund_frac", sum.RefundFrac)
}
