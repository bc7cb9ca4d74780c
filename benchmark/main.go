// Command spottune-bench is the repository benchmark: it runs one named
// workload through the simulator's public entry points for a fixed time,
// checks every result, and prints its metrics, the last line being one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//	bash benchmark/run.sh --workload tenants-contended --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run. With
// --trace 1 it replays a fixed set of rounds untraced and then through the
// timing wrappers (probe.go), checks that both produce bit-identical
// simulated results, and reports the per-layer metrics. README.md explains
// the workloads and which layer metric should move which end-to-end one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options is one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sz       sizes
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced replay")
	flag.Parse()
	o.trace, o.sz = trace == 1, fullSizes
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "spottune-bench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spottune-bench:", err)
		os.Exit(1)
	}
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// run executes one invocation, prints the metric lines, the run metadata
// and the result line to w, and returns the result.
func run(o options, w io.Writer) (*result, error) {
	if _, err := newWorkload(o.workload, o.seed, o.sz); err != nil {
		return nil, err
	}
	var res *result
	var notes []string
	var err error
	if o.trace {
		res, notes, err = runTraced(o)
	} else {
		res, notes, err = runUntraced(o)
	}
	if err != nil {
		return nil, err
	}
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	meta, err := json.Marshal(map[string]any{"meta": runMeta(o)})
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n%s\n", meta, line)
	return res, nil
}

// tally accumulates rounds.
type tally struct {
	attempted, failed int
	problems          []string
	campaigns         int
	wall              time.Duration
	rates             []float64 // per-round campaigns per second
	latencyMS         []float64
	setups            []float64
	runNS             int64
	waves, findings   int
	counts            fingerprint // summed event counts
}

func (t *tally) add(r roundResult) {
	t.attempted += r.attempted
	t.failed += r.failed
	t.problems = append(t.problems, r.problems...)
	t.campaigns += len(r.prints)
	t.wall += r.wall
	if r.wall > 0 {
		t.rates = append(t.rates, float64(len(r.prints))/r.wall.Seconds())
	}
	t.latencyMS = append(t.latencyMS, r.latencyMS...)
	if r.setup > 0 {
		t.setups = append(t.setups, r.setup.Seconds())
	}
	t.runNS += r.runNS
	t.waves += r.waves
	t.findings += r.findings
	for _, p := range r.prints {
		t.counts.loopIters += p.loopIters
		t.counts.deployments += p.deployments
		t.counts.odDeployments += p.odDeployments
		t.counts.notices += p.notices
		t.counts.revocations += p.revocations
		t.counts.spotRejects += p.spotRejects
		t.counts.steps += p.steps
	}
}

func (t *tally) perSecond() float64 {
	if t.wall <= 0 {
		return 0
	}
	return float64(t.campaigns) / t.wall.Seconds()
}

// timedSetups builds the workload at least sz.setups times and for at
// least sz.setupSecs, and returns the last build with every set-up time.
func timedSetups(o options) (runner, []float64, error) {
	var wl runner
	var times []float64
	for total := 0.0; len(times) < o.sz.setups || total < o.sz.setupSecs; total += times[len(times)-1] {
		start := time.Now()
		var err error
		if wl, err = newWorkload(o.workload, o.seed, o.sz); err == nil {
			err = wl.setup()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("setting up %s: %w", o.workload, err)
		}
		times = append(times, time.Since(start).Seconds())
		runtime.GC()
		if _, ok := wl.(*streamWorkload); ok {
			break // Stream builds its worlds inside each round; rounds time it
		}
	}
	return wl, times, nil
}

// runUntraced measures the end-to-end metrics: whole rounds until the time
// is up, with round 0 the reference for the simulated metrics.
func runUntraced(o options) (*result, []string, error) {
	wl, setups, err := timedSetups(o)
	if err != nil {
		return nil, nil, err
	}
	var t tally
	var first roundResult
	heap := startHeapSampler()
	start, cpuStart := time.Now(), cpuSeconds()
	for r := 0; r == 0 || time.Since(start).Seconds() < o.seconds; r++ {
		rr := wl.round(r, false)
		if r == 0 {
			first = rr
		}
		t.add(rr)
	}
	peak := heap.stop()
	cpu := cpuSeconds() - cpuStart
	if len(t.setups) > 0 {
		setups = t.setups // Stream builds its worlds inside the timed call
	}
	cost, jct := 0.0, 0.0
	for _, p := range first.prints {
		cost += p.netCost
		jct += p.jct.Hours()
	}
	if n := float64(len(first.prints)); n > 0 {
		cost, jct = cost/n, jct/n
	}
	p50, p95 := quantile(t.latencyMS, 0.50), quantile(t.latencyMS, 0.95)
	res := &result{
		Correct:   t.failed == 0 && t.campaigns > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":           {median(setups), "s"},
			"campaigns_per_s":   {median(t.rates), "1/s"},
			"campaign_ms_p50":   {p50, "ms"},
			"campaign_ms_p95":   {p95, "ms"},
			"peak_live_heap_mb": {float64(peak) / (1 << 20), "MB"},
			"success_frac":      {float64(t.attempted-t.failed) / float64(t.attempted), "ratio"},
			"sim_cost_usd_mean": {cost, "usd"},
			"sim_jct_h_mean":    {jct, "h"},
		},
	}
	notes := []string{
		fmt.Sprintf("# %s: %d campaigns in %d rounds (%.2fs, %.2fs CPU), %d set-ups, %d latency samples, sim means over %d round-0 campaigns",
			o.workload, t.campaigns, len(t.rates), t.wall.Seconds(), cpu, len(setups), len(t.latencyMS), len(first.prints)),
	}
	notes = append(notes, fmt.Sprintf("# campaigns/s by round: %.0f", t.rates))
	for _, p := range t.problems {
		notes = append(notes, "# FAILURE: "+p)
	}
	return res, notes, nil
}

// traceRoundSeconds is the wall time of one untraced plus one traced round
// of each workload on the 2-core machine the benchmark was sized on. The
// traced run replays seconds/traceRoundSeconds rounds, a count that depends
// only on --seconds, so its event counts repeat exactly for a given seed.
var traceRoundSeconds = map[string]float64{
	"tenants-contended": 4,
	"battery-stream":    6,
	"solo-revpred":      5,
}

// runTraced replays a fixed number of rounds twice, untraced then through
// the timing wrappers, round by round, checks the two agree bit for bit and
// reports the per-layer metrics.
func runTraced(o options) (*result, []string, error) {
	registerTracers(allPolicies, allTuners, allStrategies)
	prb.reset()
	wl, err := newWorkload(o.workload, o.seed, o.sz)
	if err == nil {
		err = wl.setup()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("setting up %s: %w", o.workload, err)
	}
	rounds := int(o.seconds / traceRoundSeconds[o.workload])
	if rounds < 1 {
		rounds = 1
	}
	var plain, probed tally
	var plainRT, probedRT rtDelta
	var plainCPU, probedCPU float64
	mismatch := 0
	for r := 0; r < rounds; r++ {
		ur := measureRound(wl, r, false, &plainRT, &plainCPU)
		tr := measureRound(wl, r, true, &probedRT, &probedCPU)
		plain.add(ur)
		probed.add(tr)
		if len(ur.prints) != len(tr.prints) {
			mismatch++
			continue
		}
		for i := range ur.prints {
			if ur.prints[i] != tr.prints[i] {
				mismatch++
			}
		}
	}
	layers := prb.snapshot()
	var coreSelf float64
	if probed.runNS > 0 {
		coreSelf = float64(probed.runNS)/1e9 - layers.sum()
	} else {
		coreSelf = probedRT.userCPU - layers.sum()
	}
	decides := float64(prb.decide.calls.Load())
	perDeploy := 0.0
	if probed.counts.deployments > 0 {
		perDeploy = decides / float64(probed.counts.deployments)
	}
	nsPerEvent := 0.0
	if plain.counts.loopIters > 0 {
		nsPerEvent = plainCPU * 1e9 / float64(plain.counts.loopIters)
	}
	failed := plain.failed + probed.failed + mismatch
	attempted := plain.attempted + probed.attempted
	if failed > attempted {
		failed = attempted
	}
	c := probed.counts
	res := &result{
		Correct:   failed == 0 && probed.campaigns > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"policy.decide_calls":         {decides, "count"},
			"policy.decide_s":             {layers.decideSelf, "s"},
			"policy.decides_per_deploy":   {perDeploy, "ratio"},
			"market.quote_calls":          {float64(prb.quote.calls.Load()), "count"},
			"market.quote_s":              {layers.quote, "s"},
			"perf.lookup_calls":           {float64(prb.lookup.calls.Load()), "count"},
			"perf.lookup_s":               {layers.lookup, "s"},
			"revpred.predict_calls":       {float64(prb.predict.calls.Load()), "count"},
			"revpred.predict_s":           {layers.predict, "s"},
			"search.tuner_calls":          {float64(prb.tuner.calls.Load()), "count"},
			"search.tuner_s":              {layers.tuner, "s"},
			"resilience.calls":            {float64(prb.strategy.calls.Load()), "count"},
			"resilience.s":                {layers.strategy, "s"},
			"resilience.retry_calls":      {float64(prb.retries.Load()), "count"},
			"invariants.check_calls":      {float64(prb.check.calls.Load()), "count"},
			"invariants.check_s":          {layers.check, "s"},
			"core.self_s":                 {coreSelf, "s"},
			"core.loop_iters":             {float64(c.loopIters), "count"},
			"cloudsim.deployments":        {float64(c.deployments), "count"},
			"cloudsim.od_deployments":     {float64(c.odDeployments), "count"},
			"cloudsim.notices":            {float64(c.notices), "count"},
			"cloudsim.revocations":        {float64(c.revocations), "count"},
			"cloudsim.spot_rejects":       {float64(c.spotRejects), "count"},
			"trial.steps":                 {float64(c.steps), "count"},
			"service.waves":               {float64(probed.waves), "count"},
			"service.capacity_findings":   {float64(probed.findings), "count"},
			"runtime.gc_cpu_s":            {plainRT.gcCPU, "s"},
			"runtime.idle_cpu_s":          {plainRT.idleCPU, "s"},
			"runtime.user_cpu_s":          {plainRT.userCPU, "s"},
			"runtime.alloc_mb":            {plainRT.allocBytes / (1 << 20), "MB"},
			"runtime.gc_cycles":           {plainRT.gcCycles, "count"},
			"host.ns_per_event":           {nsPerEvent, "ns"},
			"trace.campaigns_per_s_plain": {plain.perSecond(), "1/s"},
			"trace.campaigns_per_s":       {probed.perSecond(), "1/s"},
			"trace.slowdown":              {plain.perSecond() / probed.perSecond(), "ratio"},
			"trace.layer_cpu_share":       {layers.sum() / probedCPU, "ratio"},
		},
	}
	notes := []string{
		fmt.Sprintf("# %s traced replay: %d rounds, %d campaigns each way, %d mismatched campaigns, layers %.3fs of %.3fs CPU",
			o.workload, rounds, probed.campaigns, mismatch, layers.sum(), probedCPU),
	}
	if layers.sum() > probedCPU {
		notes = append(notes, "# WARNING: layer busy times exceed the traced rounds' CPU time")
	}
	for _, p := range append(plain.problems, probed.problems...) {
		notes = append(notes, "# FAILURE: "+p)
	}
	return res, notes, nil
}

// measureRound runs one round between garbage collections, adding its
// runtime deltas to rt and its process CPU time to cpu.
func measureRound(wl runner, r int, traced bool, rt *rtDelta, cpu *float64) roundResult {
	runtime.GC()
	rt.start()
	start := cpuSeconds()
	rr := wl.round(r, traced)
	*cpu += cpuSeconds() - start
	rt.end()
	return rr
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// rtDelta accumulates runtime/metrics deltas over bracketed sections. The
// CPU classes only advance at garbage collections, so sections are
// bracketed by runtime.GC.
type rtDelta struct {
	gcCPU, idleCPU, userCPU, allocBytes, gcCycles float64
	base                                          [5]float64
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/cpu/classes/user:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() [5]float64 {
	metrics.Read(rtSamples)
	var out [5]float64
	for i, s := range rtSamples {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		}
	}
	return out
}

func (d *rtDelta) start() { d.base = readRuntime() }

func (d *rtDelta) end() {
	runtime.GC()
	now := readRuntime()
	d.gcCPU += now[0] - d.base[0]
	d.idleCPU += now[1] - d.base[1]
	d.userCPU += now[2] - d.base[2]
	d.allocBytes += now[3] - d.base[3]
	d.gcCycles += now[4] - d.base[4]
}

// heapSampler tracks the peak of /gc/heap/live:bytes while a run measures.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak once the sampler has exited.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// runMeta identifies the machine and build a result came from.
func runMeta(o options) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+dirty"
			}
		}
	}
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
		"lanes":      lanes,
	}
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
