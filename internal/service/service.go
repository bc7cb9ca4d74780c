// Package service is the sharded multi-tenant world engine: it schedules
// thousands of concurrent tenant campaigns onto a small number of world
// shards, each shard owning one discrete-event clock, one shared spot-market
// capacity domain, and a run queue advanced cooperatively in next-event
// order.
//
// The shape deliberately inverts campaign.Sweep. A sweep runs independent
// campaigns in parallel, each inside its own private universe; the service
// runs co-resident campaigns inside one universe per shard, serialized by an
// arbiter token so their fleets can share — and contend for — the same
// per-type spot capacity and demand-priced market (cloudsim.CapacityDomain).
// With contention disabled the worlds decouple exactly, and per-tenant
// results are bit-identical to solo campaign runs for any shard count: the
// metamorphic pin the tests enforce.
//
// Memory is bounded per shard, not per tenant: one event-node pool and one
// curve-fit memo per shard, one ground-truth perf cache per in-flight slot,
// and results stream out through an in-order emitter exactly like the
// scenario matrix runner — a 10k-tenant day holds shard-count × in-flight
// state, never 10k campaign states.
package service

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"spottune/internal/campaign"
	"spottune/internal/cloudsim"
	"spottune/internal/core"
	"spottune/internal/earlycurve"
	"spottune/internal/invariants"
	"spottune/internal/obs"
	"spottune/internal/scenario"
	"spottune/internal/simclock"
	"spottune/internal/stats"
	"spottune/internal/trial"
	"spottune/internal/workload"
)

// Tenant is one customer's campaign request: identity, fair-share weight,
// and the campaign knobs the service forwards verbatim.
type Tenant struct {
	// ID names the tenant in results, traces, and admission events. Empty
	// defaults to "t-<submission index>".
	ID string
	// Weight is the fair-share weight (default 1): weighted-fair admission
	// orders tenants by ascending 1/Weight, so heavier tenants start
	// earlier within the same arrival batch.
	Weight float64
	// Theta is the campaign's cost/time knob (default 0.7).
	Theta float64
	// Seed drives the tenant's private trial and market randomness.
	Seed uint64
	// Policy/Tuner/Resilience are registry names, empty for defaults.
	Policy     string
	Tuner      string
	Resilience string
	// Deadline/Budget are the tenant's completion target and spend cap
	// (zero = unconstrained). Admission caps (Config.MaxBudget,
	// Config.MaxDeadline) audit these before the campaign ever runs.
	Deadline time.Duration
	Budget   float64
	// BaseType is the compatibility anchor forwarded to the campaign.
	BaseType string
}

// Admission policy names.
const (
	// AdmissionFIFO admits and starts tenants in submission order.
	AdmissionFIFO = "fifo"
	// AdmissionWeightedFair orders tenants by ascending 1/Weight (stride
	// virtual finish time), ties by submission order, before sharding.
	AdmissionWeightedFair = "weighted-fair"
)

// AdmissionNames lists the admission policies, sorted.
func AdmissionNames() []string { return []string{AdmissionFIFO, AdmissionWeightedFair} }

// Rejection reasons stamped on Result.Reason and tenant-reject events.
const (
	ReasonBudgetCap   = "budget-cap"
	ReasonDeadlineCap = "deadline-cap"
)

// Config tunes one service run.
type Config struct {
	// Shards is the number of independent world shards (default 1). Each
	// shard owns its own clock epoch, capacity domain, node pool, and fit
	// memo; tenants are assigned round-robin in admission order.
	Shards int
	// MaxInFlight caps concurrently-open campaigns per shard (default 8):
	// a shard runs its tenants in waves of this size, each wave sharing
	// one virtual clock epoch and one capacity domain.
	MaxInFlight int
	// Admission selects the ordering policy (default AdmissionFIFO).
	Admission string
	// MaxBudget, when positive, rejects tenants with no budget or a budget
	// above the cap (reason "budget-cap") — unconstrained tenants cannot
	// starve a capped region. MaxDeadline is the analogous deadline cap.
	MaxBudget   float64
	MaxDeadline time.Duration
	// Contention couples co-resident fleets: the shard's catalog is capped
	// at Capacity spot instances per type (default 4) and aggregate demand
	// lifts prices by SurgeSlope at full utilization. Off, every tenant
	// sees the environment's unlimited private market.
	Contention bool
	Capacity   int
	SurgeSlope float64
	// SkipInvariants disables the per-campaign invariant audit (the
	// throughput benchmark skips it; batteries keep it on).
	SkipInvariants bool
	// Trace records service-level admission/start/done events into
	// Summary.Trace, in deterministic submission order.
	Trace bool
	// TraceTenant names one tenant whose campaign runs fully flight-
	// recorded; its recording is attached to that tenant's Result — the
	// explain-this-tenant workflow.
	TraceTenant string
	// OnResult streams each tenant's Result in admission order (identical
	// to submission order under FIFO) from a single goroutine. Results are
	// not retained by the service; this is the only way to observe
	// per-tenant reports.
	OnResult func(Result)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.Admission == "" {
		c.Admission = AdmissionFIFO
	}
	if c.Contention && c.Capacity <= 0 {
		c.Capacity = 4
	}
	return c
}

// Result is one tenant's outcome, delivered in admission order (which is
// submission order under FIFO admission).
type Result struct {
	Tenant Tenant
	// Index is the tenant's submission position.
	Index int
	// Shard/Wave locate the run (rejected tenants carry the shard that
	// would have hosted them and Wave -1).
	Shard int
	Wave  int
	// Admitted is false when admission control refused the tenant; Reason
	// says why. Rejected tenants never construct a cluster, so they post
	// zero ledger entries by construction.
	Admitted bool
	Reason   string
	// Report is the campaign outcome (nil when rejected or failed).
	Report *core.Report
	// Violations are the tenant campaign's invariant-audit findings.
	Violations []invariants.Violation
	// Trace is the tenant's campaign flight recording (TraceTenant only).
	Trace *obs.Recording
	// Err is the campaign error, nil on success.
	Err error

	emit int // admission position: the emitter's ordering key
}

// Summary aggregates a service run without retaining per-tenant state.
type Summary struct {
	Tenants  int
	Admitted int
	Rejected int
	Failed   int
	Waves    int
	// Violations counts per-campaign invariant findings across tenants;
	// Capacity holds the cross-tenant capacity-oversubscription audit's
	// findings (one sweep per contended wave).
	Violations int
	Capacity   []invariants.Violation
	// Cost/JCTHours/RefundFrac sketch the per-tenant distributions.
	Cost       *stats.QuantileSketch
	JCTHours   *stats.QuantileSketch
	RefundFrac *stats.QuantileSketch
	// TotalCost sums net spend in submission order; CostGini is the
	// fairness of that spend across admitted, completed tenants.
	TotalCost float64
	CostGini  float64
	// Trace is the service-level recording (Config.Trace).
	Trace *obs.Recording
}

// pendingTenant is one admitted tenant scheduled onto a shard.
type pendingTenant struct {
	t     Tenant
	index int // submission index
	emit  int // admission position: the emitter's ordering key
	rank  int // admitted-only rank: the backpressure key
	wave  int
	slot  int // in-wave slot = per-shard PerfCache identity
}

// flow is the emitter-side backpressure valve: shards may not open a wave
// whose last admitted rank runs more than a window ahead of the admitted
// results already delivered, so the reorder buffer of campaign reports is
// bounded by the window instead of growing with cross-shard completion
// skew. Ranks stripe round-robin across shards, so the wave holding the
// minimum undelivered rank spans at most shards×in-flight ranks; the
// window is 2× that — it never deadlocks and rarely even blocks.
type flow struct {
	mu        sync.Mutex
	cond      *sync.Cond
	delivered int
}

func newFlow() *flow {
	f := &flow{}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// advance publishes the delivery high-water mark (admitted results emitted).
func (f *flow) advance(n int) {
	f.mu.Lock()
	f.delivered = n
	f.mu.Unlock()
	f.cond.Broadcast()
}

// wait blocks until maxRank is within window of the delivery mark.
func (f *flow) wait(maxRank, window int) {
	f.mu.Lock()
	for maxRank-f.delivered >= window {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// shardState is the per-shard bounded working set: the event-node pool and
// fit memo persist across the shard's whole run; perf caches are per
// in-flight slot because ground-truth curves are world-keyed (a slot hosts
// one tenant per wave, so its cache is never shared mid-campaign).
type shardState struct {
	idx   int
	queue []pendingTenant
	pool  *simclock.NodePool
	memo  *earlycurve.FitMemo
	perf  []*trial.PerfCache
}

// Run executes the tenant battery against the environment and streams
// per-tenant results through cfg.OnResult in submission order.
func Run(env *campaign.Environment, bench *workload.Benchmark, curves workload.Curves, tenants []Tenant, cfg Config) (*Summary, error) {
	cfg = cfg.withDefaults()
	if env == nil || bench == nil {
		return nil, fmt.Errorf("service: nil environment or benchmark")
	}
	switch cfg.Admission {
	case AdmissionFIFO, AdmissionWeightedFair:
	default:
		return nil, fmt.Errorf("service: unknown admission policy %q (have %v)", cfg.Admission, AdmissionNames())
	}

	// Normalize tenant identities once so events, results, and traces agree.
	tens := make([]Tenant, len(tenants))
	copy(tens, tenants)
	for i := range tens {
		if tens[i].ID == "" {
			tens[i].ID = fmt.Sprintf("t-%d", i)
		}
		if tens[i].Weight <= 0 {
			tens[i].Weight = 1
		}
		if tens[i].Theta == 0 {
			tens[i].Theta = 0.7
		}
	}

	// Admission order: FIFO is submission order; weighted-fair sorts by
	// stride virtual finish time 1/Weight, ties by submission order, so
	// heavier tenants land in earlier waves.
	order := make([]int, len(tens))
	for i := range order {
		order[i] = i
	}
	if cfg.Admission == AdmissionWeightedFair {
		sort.SliceStable(order, func(a, b int) bool {
			fa, fb := 1/tens[order[a]].Weight, 1/tens[order[b]].Weight
			if fa != fb {
				return fa < fb
			}
			return order[a] < order[b]
		})
	}

	// Admission caps, shard assignment, and wave layout.
	shards := make([]*shardState, cfg.Shards)
	for s := range shards {
		shards[s] = &shardState{
			idx:  s,
			pool: simclock.NewNodePool(),
			memo: earlycurve.NewFitMemo(),
			perf: make([]*trial.PerfCache, cfg.MaxInFlight),
		}
		for k := range shards[s].perf {
			shards[s].perf[k] = trial.NewPerfCache()
		}
	}
	type decision struct {
		admitted bool
		reason   string
		shard    int
		wave     int
		emit     int // admission position: deterministic emission order
	}
	decisions := make([]decision, len(tens))
	next := 0 // admitted counter: shard round-robin position
	for pos, i := range order {
		t := tens[i]
		d := decision{shard: next % cfg.Shards, wave: -1, emit: pos}
		switch {
		case cfg.MaxBudget > 0 && (t.Budget <= 0 || t.Budget > cfg.MaxBudget):
			d.reason = ReasonBudgetCap
		case cfg.MaxDeadline > 0 && (t.Deadline <= 0 || t.Deadline > cfg.MaxDeadline):
			d.reason = ReasonDeadlineCap
		default:
			d.admitted = true
			sh := shards[d.shard]
			qpos := len(sh.queue)
			d.wave = qpos / cfg.MaxInFlight
			sh.queue = append(sh.queue, pendingTenant{
				t: t, index: i, emit: pos, rank: next, wave: d.wave, slot: qpos % cfg.MaxInFlight,
			})
			next++
		}
		decisions[i] = d
	}

	var rec *obs.Recording
	if cfg.Trace {
		rec = obs.NewRecording(obs.Meta{Scenario: "service", Workload: bench.Name})
		// Admission events in submission order: the decision set is a pure
		// function of (tenants, config), so the trace prefix is stable for
		// any shard count.
		for i, d := range decisions {
			if d.admitted {
				rec.Emit(obs.Event{VT: env.CampaignStart, Kind: obs.KindTenantAdmit,
					Trial: tens[i].ID, Label: cfg.Admission, A: tens[i].Weight, N: int64(d.shard)})
			} else {
				rec.Emit(obs.Event{VT: env.CampaignStart, Kind: obs.KindTenantReject,
					Trial: tens[i].ID, Label: d.reason, N: int64(d.shard)})
			}
		}
	}

	// The contended region: one capacity-capped catalog, resolved once and
	// shared read-only by every shard; each wave gets its own fresh demand
	// domain.
	var capMarkets *cloudsim.Markets
	if cfg.Contention {
		var err error
		if capMarkets, err = env.Markets(env.Catalog.WithCapacity(cfg.Capacity)); err != nil {
			return nil, err
		}
	}

	sum := &Summary{
		Tenants:    len(tens),
		Cost:       stats.NewQuantileSketch(stats.DefaultSketchAlpha),
		JCTHours:   stats.NewQuantileSketch(stats.DefaultSketchAlpha),
		RefundFrac: stats.NewQuantileSketch(stats.DefaultSketchAlpha),
		Trace:      rec,
	}
	var capMu sync.Mutex // guards sum.Capacity and sum.Waves (shard goroutines)

	// In-order emitter: results arrive from any shard, are parked by
	// admission position, and are delivered (callback, aggregation, service
	// trace) strictly in admission order from this one goroutine. The flow
	// valve keeps the reorder buffer bounded: no shard opens a wave more
	// than a window of emissions ahead of the delivery mark.
	fl := newFlow()
	window := 2 * cfg.Shards * cfg.MaxInFlight
	results := make(chan Result, 64)
	emitterDone := make(chan struct{})
	var costs []float64
	go func() {
		defer close(emitterDone)
		pending := make(map[int]Result)
		nextIdx := 0
		deliver := func(r Result) {
			switch {
			case !r.Admitted:
				sum.Rejected++
			case r.Err != nil:
				sum.Failed++
			case r.Report != nil:
				sum.Admitted++
				sum.Cost.Add(r.Report.NetCost)
				sum.JCTHours.Add(r.Report.JCT.Hours())
				if r.Report.GrossCost > 0 {
					sum.RefundFrac.Add(r.Report.Refund / r.Report.GrossCost)
				}
				sum.TotalCost += r.Report.NetCost
				costs = append(costs, r.Report.NetCost)
				if rec != nil {
					rec.Emit(obs.Event{VT: env.CampaignStart, Kind: obs.KindTenantStart,
						Trial: r.Tenant.ID, N: int64(r.Shard)})
					rec.Emit(obs.Event{VT: env.CampaignStart.Add(r.Report.JCT), Kind: obs.KindTenantDone,
						Trial: r.Tenant.ID, A: r.Report.NetCost, B: r.Report.JCT.Hours(), N: int64(r.Shard)})
				}
			}
			sum.Violations += len(r.Violations)
			if cfg.OnResult != nil {
				cfg.OnResult(r)
			}
		}
		admittedOut := 0
		for r := range results {
			pending[r.emit] = r
			for {
				r, ok := pending[nextIdx]
				if !ok {
					break
				}
				delete(pending, nextIdx)
				nextIdx++
				if r.Admitted {
					admittedOut++
				}
				deliver(r)
			}
			fl.advance(admittedOut)
		}
	}()

	// Rejected tenants resolve immediately — no cluster, no ledger.
	for i, d := range decisions {
		if !d.admitted {
			results <- Result{Tenant: tens[i], Index: i, Shard: d.shard, Wave: -1, Reason: d.reason, emit: d.emit}
		}
	}

	var wg sync.WaitGroup
	for _, sh := range shards {
		if len(sh.queue) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh *shardState) {
			defer wg.Done()
			for lo := 0; lo < len(sh.queue); lo += cfg.MaxInFlight {
				hi := lo + cfg.MaxInFlight
				if hi > len(sh.queue) {
					hi = len(sh.queue)
				}
				fl.wait(sh.queue[hi-1].rank, window)
				caps := runWave(env, bench, curves, sh, sh.queue[lo:hi], capMarkets, cfg, results)
				capMu.Lock()
				sum.Waves++
				sum.Capacity = append(sum.Capacity, caps...)
				capMu.Unlock()
			}
		}(sh)
	}
	wg.Wait()
	close(results)
	<-emitterDone

	sum.CostGini = stats.Gini(costs)
	return sum, nil
}

// runWave executes one shard wave: a fresh clock epoch at the campaign
// start, a fresh capacity domain, and one goroutine per tenant serialized by
// the arbiter token in next-event order. Returns the wave's cross-tenant
// capacity audit findings (contention mode only).
func runWave(env *campaign.Environment, bench *workload.Benchmark, curves workload.Curves,
	sh *shardState, wave []pendingTenant, capMarkets *cloudsim.Markets, cfg Config, results chan<- Result) []invariants.Violation {

	clk := simclock.NewVirtual(env.CampaignStart)
	clk.SetNodePool(sh.pool)
	world := &campaign.World{Clock: clk}
	if capMarkets != nil {
		world.Markets = capMarkets
		world.Domain = cloudsim.NewCapacityDomain(cfg.SurgeSlope)
	}
	arb := newArbiter(len(wave), env.CampaignStart.UnixNano())
	clk.SetAdvanceGate(arb.gate)

	ledgers := make([]*cloudsim.Ledger, len(wave))
	var wg sync.WaitGroup
	for k := range wave {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			p := wave[k]
			arb.acquire(k)
			res := runTenant(env, bench, curves, sh, p, world, cfg, &ledgers[k])
			arb.finish(k)
			results <- res
		}(k)
	}
	arb.kick()
	wg.Wait()
	// Reclaim event nodes the wave scheduled but never fired (pending
	// revocations past campaign end) so the next wave reuses the slab.
	clk.SetAdvanceGate(nil)
	clk.ReleaseNodes()

	if capMarkets == nil {
		return nil
	}
	return invariants.CheckCapacity(capMarkets.Catalog(), ledgers)
}

// runTenant executes one tenant campaign inside the wave's shared world.
// It runs entirely under the arbiter token (yielding at every clock
// advance), so the shard's memo, the slot's perf cache, and the shared
// cluster state are never touched concurrently.
func runTenant(env *campaign.Environment, bench *workload.Benchmark, curves workload.Curves,
	sh *shardState, p pendingTenant, world *campaign.World, cfg Config, ledger **cloudsim.Ledger) Result {

	res := Result{Tenant: p.t, Index: p.index, Shard: sh.idx, Wave: p.wave, Admitted: true, emit: p.emit}
	opt := campaign.Options{
		Theta:      p.t.Theta,
		Seed:       p.t.Seed,
		Policy:     p.t.Policy,
		Tuner:      p.t.Tuner,
		Resilience: p.t.Resilience,
		Deadline:   p.t.Deadline,
		Budget:     p.t.Budget,
		BaseType:   p.t.BaseType,
		Trend:      &earlycurve.Predictor{Memo: sh.memo},
		PerfCache:  sh.perf[p.slot],
		World:      world,
		Trace:      cfg.TraceTenant != "" && cfg.TraceTenant == p.t.ID,
	}
	opt.Inspect = func(d *campaign.RunDetail) error {
		*ledger = d.Cluster.Ledger()
		if res.Trace = d.Trace; res.Trace != nil {
			res.Trace.Meta.Scenario = "service"
			res.Trace.Meta.Replicate = p.index
		}
		if !cfg.SkipInvariants {
			res.Violations = invariants.Check(scenario.StateFor(d))
		}
		return nil
	}
	res.Report, res.Err = env.RunPolicy(bench, curves, opt)
	return res
}

// DefaultBattery builds a deterministic n-tenant battery on the matrix
// runner's replicate-seed stream: thetas and fair-share weights cycle so
// admission and contention have texture, budgets and deadlines stay
// unconstrained. Tenant i is identical for every (n ≥ i, seed) pair, so
// batteries of different sizes share a prefix.
func DefaultBattery(n int, seed uint64) []Tenant {
	thetas := []float64{0.5, 0.7, 0.9}
	weights := []float64{1, 2, 4}
	out := make([]Tenant, n)
	for i := range out {
		out[i] = Tenant{
			ID:     fmt.Sprintf("t-%05d", i),
			Weight: weights[i%len(weights)],
			Theta:  thetas[i%len(thetas)],
			Seed:   scenario.ReplicateSeed(seed, i),
		}
	}
	return out
}
