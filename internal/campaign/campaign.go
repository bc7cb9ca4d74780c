// Package campaign assembles complete simulated HPT environments — markets,
// grids, trained revocation predictors — and runs SpotTune or baseline
// campaigns against them. The public spottune package and the experiment
// harness both build on it.
package campaign

import (
	"errors"
	"fmt"
	"time"

	"spottune/internal/cloudsim"
	"spottune/internal/core"
	"spottune/internal/earlycurve"
	"spottune/internal/market"
	"spottune/internal/obs"
	"spottune/internal/policy"
	"spottune/internal/resilience"
	"spottune/internal/revpred"
	"spottune/internal/search"
	"spottune/internal/simclock"
	"spottune/internal/trial"
	"spottune/internal/workload"
)

// PredictorKind selects the revocation predictor wired into provisioning.
type PredictorKind string

// Supported predictor kinds.
const (
	PredictorRevPred   PredictorKind = "revpred"
	PredictorTributary PredictorKind = "tributary"
	PredictorLogReg    PredictorKind = "logreg"
	PredictorOracle    PredictorKind = "oracle"
	PredictorConstant  PredictorKind = "constant"
	PredictorNone      PredictorKind = "none"
)

// DefaultStart is the first timestamp of generated traces — the Kaggle
// dataset's first day (2017-04-26, §IV-A1 of the paper).
func DefaultStart() time.Time {
	return time.Date(2017, 4, 26, 0, 0, 0, 0, time.UTC)
}

// EnvOptions configures environment assembly.
type EnvOptions struct {
	Seed      uint64
	Days      int // synthetic trace length (default 14)
	TrainDays int // predictor training split (default 8)
	Predictor PredictorKind
	RevPred   revpred.Config
	Pool      []string
	// Regime names the market regime traces are generated under
	// (market.GenerateRegime); empty selects the paper's baseline
	// personalities.
	Regime string
}

func (o EnvOptions) withDefaults() EnvOptions {
	if o.Days <= 0 {
		o.Days = 14
	}
	if o.TrainDays <= 0 {
		o.TrainDays = 8
	}
	if o.TrainDays >= o.Days {
		o.TrainDays = o.Days - 1
	}
	if o.Predictor == "" {
		o.Predictor = PredictorRevPred
	}
	if o.RevPred.Hidden == 0 {
		o.RevPred = revpred.Config{Hidden: 12, Depth: 2, Epochs: 2, Stride: 4, Seed: o.Seed}
	}
	return o
}

// Environment is an assembled simulated cloud. Build once with
// NewEnvironment; every campaign run gets a fresh cluster over the same
// deterministic markets.
type Environment struct {
	Catalog *market.Catalog
	// Store is the environment's markets, packed once from the generated
	// traces (which are not kept) and shared read-only by every cluster,
	// grid and sweep worker assembled from it: the only raw copy of the
	// environment's prices.
	Store *market.Store
	// markets resolves Catalog against Store once per environment; every
	// cluster built outside a catalog-overriding World quotes through it.
	markets *cloudsim.Markets
	// Grids are the pool markets' per-minute views over Store. A grid
	// builds its arrays when a predictor first reads its features
	// (training one does), so feature-free predictors never pay for them.
	Grids      map[string]*market.Grid
	Predictors map[string]revpred.Predictor
	// revProb pairs Grids with Predictors once per environment; every
	// policy NewPolicy builds predicts through it.
	revProb policy.RevProbSource
	// fits is the stage-fit memo every campaign RunPolicy runs with the
	// default EarlyCurve predictor shares. Copies made by WithPredictors
	// share it too: a stage fit depends only on its segment.
	fits *earlycurve.FitMemo
	Pool []string

	Start, End    time.Time
	CampaignStart time.Time

	// ClusterHooks run on every fresh cluster NewClusterIn assembles, in
	// order — scenario specs install deterministic fault injections
	// (blackout windows, scheduled mass preemptions) through them, so each
	// campaign run replays the same faults on its own cluster.
	ClusterHooks []func(*cloudsim.Cluster) error
}

// NewEnvironment generates markets and trains predictors per the options.
// The generated traces are validated and packed into Store, and no
// reference to them is kept.
func NewEnvironment(opts EnvOptions) (*Environment, error) {
	opts = opts.withDefaults()
	catalog := market.DefaultCatalog()
	start := DefaultStart()
	end := start.Add(time.Duration(opts.Days) * 24 * time.Hour)
	traces, err := opts.generate(catalog, start, end)
	if err != nil {
		return nil, err
	}
	if err := traces.Validate(); err != nil {
		return nil, err
	}
	pool := opts.Pool
	if len(pool) == 0 {
		pool = catalog.Names()
	}
	env := &Environment{
		Catalog:       catalog,
		Store:         market.NewStore(traces),
		Grids:         make(map[string]*market.Grid, len(pool)),
		Predictors:    make(map[string]revpred.Predictor, len(pool)),
		fits:          earlycurve.NewFitMemo(),
		Pool:          pool,
		Start:         start,
		End:           end,
		CampaignStart: start.Add(time.Duration(opts.TrainDays) * 24 * time.Hour),
	}
	if env.markets, err = cloudsim.NewMarkets(catalog, env.Store); err != nil {
		return nil, err
	}
	for _, name := range pool {
		it, ok := catalog.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("campaign: unknown pool instance %q", name)
		}
		g, err := market.NewStoreGrid(it, env.Store, start, end)
		if err != nil {
			return nil, err
		}
		env.Grids[name] = g
		pred, err := buildPredictor(g, opts)
		if err != nil {
			return nil, fmt.Errorf("campaign: predictor for %q: %w", name, err)
		}
		env.Predictors[name] = pred
	}
	env.revProb = core.GridRevProb(env.Grids, env.Predictors)
	return env, nil
}

// generate builds the options' synthetic trace set over [start, end): the
// regime's markets when one is named, the paper's baseline personalities
// otherwise.
func (o EnvOptions) generate(cat *market.Catalog, start, end time.Time) (market.TraceSet, error) {
	if o.Regime != "" {
		return market.GenerateRegime(o.Regime, cat, start, end, o.Seed)
	}
	specs, err := market.DefaultSpecs(cat)
	if err != nil {
		return nil, err
	}
	return market.GenerateSet(specs, start, end, o.Seed)
}

func buildPredictor(g *market.Grid, opts EnvOptions) (revpred.Predictor, error) {
	trainTo := opts.TrainDays * 24 * 60
	switch opts.Predictor {
	case PredictorRevPred:
		return revpred.Train(g, revpred.HistorySteps, trainTo, opts.RevPred)
	case PredictorTributary:
		return revpred.TrainTributary(g, revpred.HistorySteps, trainTo, opts.RevPred)
	case PredictorLogReg:
		return revpred.TrainLogReg(g, revpred.HistorySteps, trainTo, opts.RevPred)
	case PredictorOracle:
		return revpred.Oracle{}, nil
	case PredictorConstant:
		return revpred.ConstantPredictor(0.3), nil
	case PredictorNone:
		return revpred.ConstantPredictor(0), nil
	default:
		return nil, fmt.Errorf("campaign: unknown predictor kind %q", opts.Predictor)
	}
}

// WithPredictors returns a shallow copy of the environment using different
// per-market predictors (the Fig. 10c RevPred-vs-Tributary swap).
func (e *Environment) WithPredictors(preds map[string]revpred.Predictor) (*Environment, error) {
	for _, name := range e.Pool {
		if _, ok := preds[name]; !ok {
			return nil, fmt.Errorf("campaign: missing predictor for %q", name)
		}
	}
	cp := *e
	cp.Predictors = preds
	cp.revProb = core.GridRevProb(cp.Grids, preds)
	return &cp, nil
}

// Markets resolves a catalog against the environment's store: the table a
// World shares across every cluster built in it. Resolve once per world,
// not per cluster. A nil catalog (or the environment's own) returns the
// environment's table.
func (e *Environment) Markets(cat *market.Catalog) (*cloudsim.Markets, error) {
	if cat == nil || cat == e.Catalog {
		return e.markets, nil
	}
	return cloudsim.NewMarkets(cat, e.Store)
}

// World is a simulated region campaigns run inside: one virtual clock they
// cooperatively advance, an optional catalog override (typically
// market.Catalog.WithCapacity for a finite region), and an optional
// capacity domain coupling their spot fleets. A campaign run without one
// gets a private World: its own clock at the campaign start, the
// environment's catalog and no capacity domain.
type World struct {
	// Clock is the region's virtual time. A clock has one owner, so
	// campaigns in the same world take turns on one goroutine: a service
	// shard steps whichever campaign's next clock advance is earliest.
	Clock *simclock.Virtual
	// Markets, when non-nil, is the catalog override, resolved once
	// (Environment.Markets) and shared by every cluster in the world: its
	// catalog replaces the environment's for the cluster and the
	// provisioning policy. Nil keeps the environment's catalog.
	Markets *cloudsim.Markets
	// Domain, when non-nil, makes co-resident fleets contend: shared
	// per-type capacity and demand-pressure surge pricing.
	Domain *cloudsim.CapacityDomain
}

// NewClusterIn builds a fresh cluster inside a world: on the world's clock,
// under its catalog override, attached to its capacity domain, with the
// environment's fault hooks applied.
func (e *Environment) NewClusterIn(w *World) (*cloudsim.Cluster, error) {
	if w == nil || w.Clock == nil {
		return nil, errors.New("campaign: world without a clock")
	}
	m := w.Markets
	if m == nil {
		m = e.markets
	}
	cluster, err := cloudsim.NewClusterOn(w.Clock, m)
	if err != nil {
		return nil, err
	}
	if err := cluster.SetCapacityDomain(w.Domain); err != nil {
		return nil, err
	}
	for _, hook := range e.ClusterHooks {
		if err := hook(cluster); err != nil {
			return nil, fmt.Errorf("campaign: cluster hook: %w", err)
		}
	}
	return cluster, nil
}

// Options tunes one campaign run.
type Options struct {
	Theta         float64
	MCnt          int
	MaxConcurrent int
	Seed          uint64
	// Trend predicts final metrics from partial curves. Nil selects
	// EarlyCurve on the environment's shared stage-fit memo.
	Trend earlycurve.TrendPredictor
	// Policy is the provisioning policy's registry name (default
	// policy.SpotTuneName — the paper's Eq. 1–2 provisioner).
	Policy string
	// Tuner is the search strategy's registry name (default
	// search.SpotTuneName — the paper's Algorithm 1 schedule). A fresh
	// tuner instance is constructed per run, so the same Options value is
	// safe to reuse across concurrent sweep tasks.
	Tuner string
	// TunerParams tunes tuner construction beyond the campaign defaults
	// (the halving factor η for successive-halving/hyperband). Theta and
	// MCnt are always supplied from the fields above and override these.
	TunerParams search.Params
	// PolicyParams tunes policy construction beyond the environment
	// defaults (fallback thresholds, bid deltas). Pool, Seed, and RevProb
	// are always supplied by the environment and override these fields.
	PolicyParams policy.Params
	// Inspect, when set, receives the final simulator state after the
	// report is built and may veto the run by returning an error. The
	// scenario matrix routes every cell through invariants.Check with it.
	// Called from whatever goroutine runs the campaign (sweeps run many
	// concurrently), so implementations must be safe for concurrent use.
	Inspect func(*RunDetail) error
	// Trace turns on the flight recorder: each run gets its own fresh
	// obs.Recording (so the same Options value stays safe across concurrent
	// sweep tasks) and hands it back through RunDetail.Trace. Off by
	// default — the no-op tracer adds zero allocations to the event loop.
	Trace bool
	// Resilience is the recovery strategy's registry name (default
	// resilience.FixedName — the historical fixed cadence / poll-grid
	// retry behavior, bit-identical to pre-resilience campaigns). A fresh
	// strategy instance is constructed per run.
	Resilience string
	// Deadline/Budget are the campaign's completion target and spend cap,
	// forwarded to core.Config (zero = unconstrained).
	Deadline time.Duration
	Budget   float64
	// BaseType is the campaign's compatibility anchor: when set, the
	// instance pool is narrowed to catalog types at least as powerful as
	// this type before any policy sees it — every policy obeys the
	// compatibility predicate, not just catalog-aware ones — and the
	// constraint is echoed into the report for the invariant checker.
	BaseType string
	// World, when set, runs the campaign inside a shared region (the
	// multi-tenant service's shard) instead of a private one: the cluster
	// is built on the world's clock, catalog, and capacity domain. Campaigns
	// sharing a world must never execute concurrently; they are built with
	// NewRun and stepped in turn on one goroutine. Nil runs the campaign in
	// a private World of its own.
	World *World
}

// RunDetail is one campaign run's final simulator state: everything an
// invariant checker needs beyond the report itself. The cluster, store, and
// trials are private to the run (each RunPolicy call builds fresh ones), so
// the holder may inspect them freely after the run completes.
type RunDetail struct {
	Policy  string
	Tuner   string
	Report  *core.Report
	Cluster *cloudsim.Cluster
	Store   *cloudsim.ObjectStore
	Trials  []*trial.Replay
	// Trace is the run's flight recording (nil unless Options.Trace). The
	// invariant checker reconciles it against the ledger and attaches
	// event context to violations; exporters turn it into JSONL/Chrome
	// timelines.
	Trace *obs.Recording
}

// CompatiblePool narrows the environment's pool to types at least as
// powerful as baseType (catalog compatibility predicate), preserving pool
// order so spot choosers keep their deterministic iteration sequence. An
// unknown base or a pool with no compatible member is an error.
func (e *Environment) CompatiblePool(baseType string) ([]string, error) {
	compat, err := e.Catalog.CompatibleWith(baseType)
	if err != nil {
		return nil, err
	}
	ok := make(map[string]bool, len(compat))
	for _, n := range compat {
		ok[n] = true
	}
	var pool []string
	for _, n := range e.Pool {
		if ok[n] {
			pool = append(pool, n)
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("campaign: no pool member is compatible with base type %q", baseType)
	}
	return pool, nil
}

// NewPolicy constructs a registered provisioning policy bound to this
// environment's pool and trained revocation predictors. When base.BaseType
// is set, the pool handed to the policy is pre-narrowed to compatible types.
func (e *Environment) NewPolicy(name string, seed uint64, base policy.Params) (policy.Policy, error) {
	if name == "" {
		name = policy.SpotTuneName
	}
	// Fail fast on incomplete assembly (a missing grid or predictor would
	// otherwise bias Eq. 2 instead of erroring).
	if err := core.ValidatePoolWiring(e.Pool, e.Grids, e.Predictors); err != nil {
		return nil, err
	}
	base.Pool = e.Pool
	if base.BaseType != "" {
		pool, err := e.CompatiblePool(base.BaseType)
		if err != nil {
			return nil, err
		}
		base.Pool = pool
	}
	base.Seed = seed
	base.RevProb = e.revProb
	if base.Catalog == nil {
		base.Catalog = e.Catalog
	}
	return policy.New(name, base)
}

// RunSpotTune executes one SpotTune campaign (the "spottune" policy).
func (e *Environment) RunSpotTune(b *workload.Benchmark, curves workload.Curves, opt Options) (*core.Report, error) {
	opt.Policy = policy.SpotTuneName
	return e.RunPolicy(b, curves, opt)
}

// RunPolicy executes one campaign under the provisioning policy named by
// opt.Policy. Everything else — markets, trials, the Algorithm 1
// orchestrator with checkpointing, restarts, and EarlyCurve shutdown — is
// shared, so per-policy reports are directly comparable. It is NewRun, the
// campaign stepped to completion on its own clock, and Finish.
func (e *Environment) RunPolicy(b *workload.Benchmark, curves workload.Curves, opt Options) (*core.Report, error) {
	run, err := e.NewRun(b, curves, opt)
	if err != nil {
		return nil, err
	}
	if _, err := run.orch.Run(); err != nil {
		return nil, err
	}
	return run.Finish()
}

// Run is one campaign in flight. NewRun assembles it, Step advances it from
// one clock advance to the next (core.Orchestrator.Step), and Finish hands
// back its report once Step reports done.
type Run struct {
	orch    *core.Orchestrator
	detail  RunDetail
	inspect func(*RunDetail) error
}

// NewRun assembles one campaign under the provisioning policy named by
// opt.Policy without running it: a fresh cluster (in opt.World, or in a
// private world when that is nil), object store, trials, policy, tuner,
// recovery strategy and orchestrator. The campaign starts at its first
// Step.
func (e *Environment) NewRun(b *workload.Benchmark, curves workload.Curves, opt Options) (*Run, error) {
	return e.newRun(b, curves, opt, nil)
}

// newRun is NewRun with the run's policy passed through wrap, when wrap is
// not nil, before the orchestrator sees it.
func (e *Environment) newRun(b *workload.Benchmark, curves workload.Curves, opt Options, wrap func(policy.Policy) policy.Policy) (*Run, error) {
	if b == nil {
		return nil, errors.New("campaign: nil benchmark")
	}
	world := opt.World
	if world == nil {
		world = &World{Clock: simclock.NewVirtual(e.CampaignStart)}
	}
	// The policy must quote and rank under the world's (possibly
	// capacity-capped) catalog, not the environment default.
	if world.Markets != nil && opt.PolicyParams.Catalog == nil {
		opt.PolicyParams.Catalog = world.Markets.Catalog()
	}
	cluster, err := e.NewClusterIn(world)
	if err != nil {
		return nil, err
	}
	store := cloudsim.NewObjectStore()
	trials, err := b.Trials(curves, opt.Seed+0xbead)
	if err != nil {
		return nil, err
	}
	// The compatibility constraint narrows the pool before any policy (or
	// the orchestrator's degradation ladder) sees it, so even catalog-blind
	// policies obey the predicate.
	pool := e.Pool
	if opt.BaseType != "" {
		pool, err = e.CompatiblePool(opt.BaseType)
		if err != nil {
			return nil, err
		}
		opt.PolicyParams.BaseType = opt.BaseType
	}
	// Seed offset matches the pre-policy provisioner wiring so the
	// spottune policy reproduces historical RunSpotTune reports.
	pol, err := e.NewPolicy(opt.Policy, opt.Seed+0x51d, opt.PolicyParams)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		pol = wrap(pol)
	}
	// Tuners are stateful and single-use: construct a fresh instance per
	// run with the same θ/MCnt clamping the orchestrator config applies,
	// so the tuner and the report always agree on the schedule knobs.
	tp := opt.TunerParams
	tp.Theta, tp.MCnt = opt.Theta, opt.MCnt
	tun, err := search.New(opt.Tuner, tp)
	if err != nil {
		return nil, err
	}
	// Strategies may be stateful (adaptive cadence learns revocation
	// rates), so each run constructs a fresh instance; the jitter seed is
	// derived from the run seed so replays are exact.
	res, err := resilience.New(opt.Resilience, resilience.Params{Seed: opt.Seed + 0x5e5})
	if err != nil {
		return nil, err
	}
	trend := opt.Trend
	if trend == nil {
		trend = &earlycurve.Predictor{Memo: e.fits}
	}
	cfg := core.Config{
		Theta:         opt.Theta,
		MCnt:          opt.MCnt,
		MaxConcurrent: opt.MaxConcurrent,
		Trend:         trend,
		Tuner:         tun,
		Resilience:    res,
		Deadline:      opt.Deadline,
		Budget:        opt.Budget,
		BaseType:      opt.BaseType,
	}
	// A fresh recording per run: a shared one would interleave concurrent
	// sweep tasks. Assign the concrete type only when tracing is on — a
	// nil *Recording stored into the Tracer interface would be non-nil.
	var rec *obs.Recording
	if opt.Trace {
		meta := obs.Meta{
			Tuner:    tun.Name(),
			Policy:   pol.Name(),
			Workload: b.Name,
			Seed:     opt.Seed,
		}
		if res.Name() != resilience.FixedName {
			// Only stamped when non-default so fixed-strategy traces stay
			// byte-identical to pre-resilience recordings.
			meta.Resilience = res.Name()
		}
		rec = obs.NewRecording(meta)
		cfg.Tracer = rec
	}
	orch, err := core.NewPolicyOrchestrator(cluster, store, pol, pool, trials, cfg)
	if err != nil {
		return nil, err
	}
	return &Run{
		orch: orch,
		detail: RunDetail{
			Policy:  pol.Name(),
			Tuner:   tun.Name(),
			Cluster: cluster,
			Store:   store,
			Trials:  trials,
			Trace:   rec,
		},
		inspect: opt.Inspect,
	}, nil
}

// Step runs the campaign until it needs its clock past the current instant
// and returns that instant; the caller advances the clock there before the
// next Step. done reports that the campaign has finished.
func (r *Run) Step() (next time.Time, done bool, err error) { return r.orch.Step() }

// Cluster is the campaign's simulated cloud.
func (r *Run) Cluster() *cloudsim.Cluster { return r.detail.Cluster }

// Finish returns the report of a campaign Step has reported done, after
// Options.Inspect has seen the final state.
func (r *Run) Finish() (*core.Report, error) {
	rep := r.orch.Report()
	if rep == nil {
		return nil, errors.New("campaign: Finish before the campaign is done")
	}
	if r.inspect != nil {
		r.detail.Report = rep
		if err := r.inspect(&r.detail); err != nil {
			return nil, fmt.Errorf("campaign: inspecting %s run: %w", r.detail.Policy, err)
		}
	}
	return rep, nil
}

// TrueFinals exposes ground-truth final metrics and the true best HP.
func TrueFinals(b *workload.Benchmark, curves workload.Curves) (map[string]float64, string, error) {
	trials, err := b.Trials(curves, 0)
	if err != nil {
		return nil, "", err
	}
	finals := core.TrueFinals(trials)
	best, _ := core.TrueBest(trials)
	return finals, best, nil
}
