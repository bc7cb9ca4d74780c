package main

import (
	"fmt"
	"time"

	"spottune/internal/campaign"
	"spottune/internal/core"
	"spottune/internal/invariants"
	"spottune/internal/policy"
	"spottune/internal/resilience"
	"spottune/internal/revpred"
	"spottune/internal/scenario"
	"spottune/internal/search"
	"spottune/internal/service"
	"spottune/internal/workload"
)

// lanes is the parallelism of the concurrent workloads: service shards and
// stream workers. It is a constant equal to the 2-core machine the benchmark
// was sized on, never read from the host, so simulated outputs do not depend
// on where the benchmark runs.
const lanes = 2

// The axes every workload names explicitly, so no registry default (and no
// timing wrapper) is picked up implicitly.
var (
	allPolicies = []string{
		policy.CheapestName, policy.DiversifiedSpotName, policy.FastestName, policy.MixedFleetName,
		policy.OnDemandName, policy.FallbackName, policy.SpotTuneName,
	}
	allTuners     = []string{search.FullTrainName, search.HyperbandName, search.SpotTuneName, search.HalvingName}
	allStrategies = []string{resilience.AdaptiveName, resilience.FixedName}
)

// sizes fixes the work in one round of each workload. A round is the unit
// that is replayed under tracing and whose simulated results are compared.
type sizes struct {
	tenants    int     // tenants-contended: tenants per service.Run
	replicates int     // battery-stream: replicates per Matrix.Stream
	solo       int     // solo-revpred: campaigns per round
	setups     int     // minimum set-ups timed per run (setup_s is their median)
	setupSecs  float64 // ... and the minimum time they take together
	chunk      int     // tenants-contended: results per latency sample
	cellChunk  int     // battery-stream: results per latency sample
}

var fullSizes = sizes{tenants: 1024, replicates: 8, solo: 64, setups: 5, setupSecs: 1, chunk: 32, cellChunk: 256}

// fingerprint is the part of one campaign's report that must repeat bit for
// bit: simulated cost and JCT plus every event count.
type fingerprint struct {
	netCost       float64
	jct           time.Duration
	loopIters     int
	deployments   int
	odDeployments int
	notices       int
	revocations   int
	spotRejects   int
	steps         int
}

func fingerprintOf(rep *core.Report) fingerprint {
	rejects := 0
	for _, n := range rep.BlackoutRetries {
		rejects += n
	}
	return fingerprint{
		netCost:       rep.NetCost,
		jct:           rep.JCT,
		loopIters:     rep.LoopIterations,
		deployments:   rep.Deployments,
		odDeployments: rep.OnDemandDeployments,
		notices:       rep.Notices,
		revocations:   rep.Revocations,
		spotRejects:   rejects,
		steps:         rep.TotalSteps,
	}
}

// roundResult is what one round delivered and how long it took.
type roundResult struct {
	prints    []fingerprint // completed campaigns, in submission or grid order
	attempted int
	failed    int
	problems  []string
	wall      time.Duration // timed part of the round
	setup     time.Duration // battery-stream: Stream call to first cell
	latencyMS []float64     // campaign latency samples
	runNS     int64         // solo-revpred: summed RunPolicy wall time
	waves     int
	findings  int // cross-tenant capacity-oversubscription findings
}

func (r *roundResult) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// runner is one named benchmark workload. setup builds everything the
// timed part reads; round runs round r of the seeded battery, through the
// timing wrappers when traced.
type runner interface {
	setup() error
	round(r int, traced bool) roundResult
}

func newWorkload(name string, seed uint64, sz sizes) (runner, error) {
	switch name {
	case "tenants-contended":
		return &tenantsWorkload{seed: seed, sz: sz}, nil
	case "battery-stream":
		return &streamWorkload{seed: seed, sz: sz}, nil
	case "solo-revpred":
		return &soloWorkload{seed: seed, sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have tenants-contended, battery-stream, solo-revpred)", name)
}

var workloadNames = []string{"tenants-contended", "battery-stream", "solo-revpred"}

// regionSeed fixes the simulated region every workload runs in (market
// traces, trained predictors), so figures from different seeds measure the
// same region. The run seed draws each round's campaign seeds, except on
// battery-stream, whose campaign seeds derive from the spec seeds that also
// generate its markets: there it draws each round's tuning job instead.
const regionSeed = 1

// roundSeed derives round r's battery seed from the run seed (splitmix64).
func roundSeed(seed uint64, r int) uint64 {
	z := seed + uint64(r+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// names returns the registry names a round asks for.
func names(traced bool, policyName, tunerName, strategyName string) (string, string, string) {
	if traced {
		return wrapName(policyName), wrapName(tunerName), wrapName(strategyName)
	}
	return policyName, tunerName, strategyName
}

// latencySampler turns an in-order result stream into per-campaign service
// times: every chunk results, the chunk's wall time × lanes / chunk.
type latencySampler struct {
	chunk int
	n     int
	last  time.Time
	out   []float64
}

func (s *latencySampler) start(t time.Time) { s.last = t }

func (s *latencySampler) observe(t time.Time) {
	s.n++
	if s.n%s.chunk == 0 {
		ms := float64(t.Sub(s.last)) / 1e6 * lanes / float64(s.chunk)
		s.out = append(s.out, ms)
		s.last = t
	}
}

// tenantsWorkload is service.Run over DefaultBattery on a contended shared
// market with the invariant audit on and the constant predictor.
type tenantsWorkload struct {
	seed           uint64
	sz             sizes
	env, tracedEnv *campaign.Environment
	bench          *workload.Benchmark
	curves         workload.Curves
}

func (w *tenantsWorkload) setup() error {
	env, err := campaign.NewEnvironment(campaign.EnvOptions{
		Seed: regionSeed, Days: 2, TrainDays: 1, Predictor: campaign.PredictorConstant,
	})
	if err != nil {
		return err
	}
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: regionSeed, Scale: 0.2})
	if err != nil {
		return err
	}
	w.env, w.bench, w.curves = env, bench, bench.SyntheticCurves(regionSeed)
	w.tracedEnv, err = env.WithPredictors(tracePredictors(env.Predictors))
	return err
}

func (w *tenantsWorkload) round(r int, traced bool) roundResult {
	tenants := service.DefaultBattery(w.sz.tenants, roundSeed(w.seed, r))
	pol, tun, strat := names(traced, policy.SpotTuneName, search.SpotTuneName, resilience.FixedName)
	env := w.env
	if traced {
		env = w.tracedEnv
	}
	for i := range tenants {
		tenants[i].Policy, tenants[i].Tuner, tenants[i].Resilience = pol, tun, strat
	}
	res := roundResult{attempted: len(tenants), prints: make([]fingerprint, 0, len(tenants))}
	lat := latencySampler{chunk: w.sz.chunk}
	next := 0
	cfg := service.Config{
		Shards:      lanes,
		MaxInFlight: 8,
		Admission:   service.AdmissionFIFO,
		Contention:  true,
		Capacity:    4,
		SurgeSlope:  0.5,
		OnResult: func(t service.Result) {
			lat.observe(time.Now())
			if t.Index != next {
				res.fail("tenant %s delivered at position %d, submitted at %d", t.Tenant.ID, next, t.Index)
			}
			next++
			switch {
			case !t.Admitted:
				res.fail("tenant %s rejected: %s", t.Tenant.ID, t.Reason)
			case t.Err != nil:
				res.fail("tenant %s: %v", t.Tenant.ID, t.Err)
			case len(t.Violations) > 0:
				res.fail("tenant %s: %d invariant violations, first: %v", t.Tenant.ID, len(t.Violations), t.Violations[0])
			case t.Report == nil:
				res.fail("tenant %s: no report", t.Tenant.ID)
			default:
				res.prints = append(res.prints, fingerprintOf(t.Report))
			}
		},
	}
	start := time.Now()
	lat.start(start)
	sum, err := service.Run(env, w.bench, w.curves, tenants, cfg)
	res.wall = time.Since(start)
	res.latencyMS = lat.out
	if err != nil {
		res.failed = res.attempted
		res.problems = append(res.problems, err.Error())
		return res
	}
	res.waves, res.findings = sum.Waves, len(sum.Capacity)
	if sum.Admitted+sum.Rejected+sum.Failed != sum.Tenants || sum.Tenants != len(tenants) {
		res.fail("summary admitted %d + rejected %d + failed %d != tenants %d (submitted %d)",
			sum.Admitted, sum.Rejected, sum.Failed, sum.Tenants, len(tenants))
	}
	if next != len(tenants) {
		res.fail("%d results delivered for %d tenants", next, len(tenants))
	}
	for _, v := range sum.Capacity {
		res.fail("capacity oversubscription: %v", v)
	}
	if res.failed > res.attempted {
		res.failed = res.attempted
	}
	return res
}

// streamWorkload is the default scenario battery through Matrix.Stream at
// quick fidelity, every tuner × strategy × policy, with the audit on.
type streamWorkload struct {
	seed uint64
	sz   sizes
}

func (w *streamWorkload) setup() error { return nil } // Stream builds its worlds itself

// gridCell is one expected cell coordinate, in emission order.
type gridCell struct {
	scenario, tuner, strategy, policy string
	replicate                         int
}

// expectedGrid enumerates the grid Stream must emit: spec-major, then
// replicate, tuner, strategy and policy, with spec pins replacing an axis.
func expectedGrid(specs []scenario.Spec, reps int, tuners, strategies, policies []string) []gridCell {
	var out []gridCell
	for _, s := range specs {
		ts, ss := tuners, strategies
		if s.Tuner != "" {
			ts = []string{s.Tuner}
		}
		if s.Resilience != "" {
			ss = []string{s.Resilience}
		}
		for r := 0; r < reps; r++ {
			for _, t := range ts {
				for _, st := range ss {
					for _, p := range policies {
						out = append(out, gridCell{scenario: s.Name, replicate: r, tuner: t, strategy: st, policy: p})
					}
				}
			}
		}
	}
	return out
}

// tracedAxis maps an axis to the wrapper names.
func tracedAxis(axis []string) []string {
	out := make([]string, len(axis))
	for i, n := range axis {
		out[i] = wrapName(n)
	}
	return out
}

func (w *streamWorkload) round(r int, traced bool) roundResult {
	specs := scenario.DefaultSpecs()
	for i := range specs {
		specs[i].Seed = regionSeed
	}
	pols, tuns, strats := allPolicies, allTuners, allStrategies
	if traced {
		pols, tuns, strats = tracedAxis(pols), tracedAxis(tuns), tracedAxis(strats)
		for i := range specs {
			if specs[i].Tuner != "" {
				specs[i].Tuner = wrapName(specs[i].Tuner)
			}
			if specs[i].Resilience != "" {
				specs[i].Resilience = wrapName(specs[i].Resilience)
			}
		}
	}
	want := expectedGrid(specs, w.sz.replicates, tuns, strats, pols)
	res := roundResult{attempted: len(want), prints: make([]fingerprint, 0, len(want))}
	lat := latencySampler{chunk: w.sz.cellChunk}
	next := 0
	var start time.Time
	opt := scenario.StreamOptions{
		Options: scenario.Options{
			Seed:       roundSeed(w.seed, r),
			Quick:      true,
			Workload:   "LoR",
			Scale:      0.2,
			Policies:   pols,
			Tuners:     tuns,
			Strategies: strats,
		},
		Replicates: w.sz.replicates,
		Workers:    lanes,
		OnCell: func(c scenario.Cell) error {
			now := time.Now()
			if next == 0 {
				res.setup = now.Sub(start)
				lat.start(now)
			} else {
				lat.observe(now)
			}
			got := gridCell{scenario: c.Scenario, replicate: c.Replicate, tuner: c.Tuner, strategy: c.Strategy, policy: c.Policy}
			switch {
			case next >= len(want):
				res.fail("extra cell %+v", got)
			case got != want[next]:
				res.fail("cell %d is %+v, want %+v", next, got, want[next])
			case len(c.Violations) > 0:
				res.fail("cell %+v: %d invariant violations, first: %v", got, len(c.Violations), c.Violations[0])
			case c.Report == nil:
				res.fail("cell %+v: no report", got)
			default:
				res.prints = append(res.prints, fingerprintOf(c.Report))
			}
			next++
			return nil
		},
	}
	start = time.Now()
	sum, err := scenario.Matrix{Specs: specs}.Stream(opt)
	res.wall = time.Since(start) - res.setup
	res.latencyMS = lat.out
	if err != nil {
		res.failed = res.attempted
		res.problems = append(res.problems, err.Error())
		return res
	}
	if sum.Cells != len(want) || next != len(want) {
		res.fail("streamed %d cells (delivered %d), want %d", sum.Cells, next, len(want))
	}
	if sum.Violations != 0 {
		res.fail("stream summary counts %d invariant violations", sum.Violations)
	}
	if res.failed > res.attempted {
		res.failed = res.attempted
	}
	return res
}

// soloWorkload runs sequential single-user campaigns (spottune policy and
// tuner) on an environment with trained RevPred LSTM predictors, auditing
// each campaign in Inspect.
type soloWorkload struct {
	seed           uint64
	sz             sizes
	env, tracedEnv *campaign.Environment
	bench          *workload.Benchmark
	curves         workload.Curves
}

func (w *soloWorkload) setup() error {
	env, err := campaign.NewEnvironment(campaign.EnvOptions{
		Seed: regionSeed, Days: 4, TrainDays: 2, Predictor: campaign.PredictorRevPred,
		RevPred: revpred.Config{Hidden: 12, Depth: 2, Epochs: 1, Stride: 8, Seed: regionSeed},
	})
	if err != nil {
		return err
	}
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: regionSeed, Scale: 0.2})
	if err != nil {
		return err
	}
	w.env, w.bench, w.curves = env, bench, bench.SyntheticCurves(regionSeed)
	w.tracedEnv, err = env.WithPredictors(tracePredictors(env.Predictors))
	return err
}

func (w *soloWorkload) round(r int, traced bool) roundResult {
	pol, tun, strat := names(traced, policy.SpotTuneName, search.SpotTuneName, resilience.FixedName)
	env := w.env
	if traced {
		env = w.tracedEnv
	}
	res := roundResult{attempted: w.sz.solo, prints: make([]fingerprint, 0, w.sz.solo)}
	seed := roundSeed(w.seed, r)
	var violations []invariants.Violation
	opt := campaign.Options{
		Theta:      0.7,
		Policy:     pol,
		Tuner:      tun,
		Resilience: strat,
		Inspect: func(d *campaign.RunDetail) error {
			start := time.Now()
			violations = invariants.Check(scenario.StateFor(d))
			if traced {
				prb.check.add(1, int64(time.Since(start)))
			}
			return nil
		},
	}
	start := time.Now()
	for i := 0; i < w.sz.solo; i++ {
		opt.Seed = scenario.ReplicateSeed(seed, i)
		violations = nil
		t0 := time.Now()
		rep, err := env.RunPolicy(w.bench, w.curves, opt)
		d := time.Since(t0)
		res.runNS += int64(d)
		res.latencyMS = append(res.latencyMS, float64(d)/1e6)
		switch {
		case err != nil:
			res.fail("campaign %d: %v", i, err)
		case len(violations) > 0:
			res.fail("campaign %d: %d invariant violations, first: %v", i, len(violations), violations[0])
		case rep.Best == "":
			res.fail("campaign %d selected no model", i)
		default:
			res.prints = append(res.prints, fingerprintOf(rep))
		}
	}
	res.wall = time.Since(start)
	return res
}
