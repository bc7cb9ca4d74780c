// Package service is the sharded multi-tenant world engine: it schedules
// thousands of concurrent tenant campaigns onto a small number of world
// shards, each shard owning one discrete-event clock, one shared spot-market
// capacity domain, and a run queue advanced cooperatively in next-event
// order.
//
// The shape deliberately inverts campaign.Sweep. A sweep runs independent
// campaigns in parallel, each inside its own private universe; the service
// runs co-resident campaigns inside one universe per shard, taking turns on
// the shard's one goroutine in order of their next clock advance, so their
// fleets can share — and contend for — the same per-type spot capacity and
// demand-priced market (cloudsim.CapacityDomain). With contention disabled
// the worlds decouple exactly, and per-tenant results are bit-identical to
// solo campaign runs for any shard count: the metamorphic pin the tests
// enforce.
//
// A tenant whose campaign panics fails alone: its Result carries
// ErrTenantPanicked, its running instances are terminated, and the rest of
// its wave runs on.
//
// Memory is bounded per shard, not per tenant: one clock per shard, reset
// and reused by every wave, and results stream out through an in-order
// emitter exactly like the scenario matrix runner — a 10k-tenant day holds
// shard-count × in-flight state, never 10k campaign states. Shards own no caches: every
// tenant has its own seed, so per-shard ground-truth caches would never
// hit, and tenants solve their EarlyCurve fits on the environment's shared
// stage-fit memo.
package service

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"spottune/internal/campaign"
	"spottune/internal/cloudsim"
	"spottune/internal/core"
	"spottune/internal/invariants"
	"spottune/internal/obs"
	"spottune/internal/scenario"
	"spottune/internal/simclock"
	"spottune/internal/stats"
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

// ErrTenantPanicked is matched (errors.Is) by the Result.Err of a tenant
// whose campaign panicked; the error names the tenant and the panic value.
var ErrTenantPanicked = errors.New("service: tenant panicked")

// Config tunes one service run.
type Config struct {
	// Shards is the number of independent world shards (default 1). Each
	// shard runs its waves in turn on one goroutine and owns one clock but
	// no caches; every wave resets the clock to the campaign start and gets
	// its own capacity domain. Tenants are assigned round-robin in
	// admission order.
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
	// sees the environment's unlimited private market. With contention on,
	// SurgeSlope must be finite and non-negative.
	Contention bool
	Capacity   int
	SurgeSlope float64
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
	// Err is the campaign error, nil on success; it matches
	// ErrTenantPanicked when the campaign panicked.
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

// battery is the caller's tenant slice, read in place, and its admission
// order: order[pos] is the submission index of the tenant at admission
// position pos (nil under FIFO, where the two coincide).
type battery struct {
	tenants []Tenant
	order   []int32
}

// at is the submission index of the tenant at admission position pos.
func (b *battery) at(pos int) int {
	if b.order == nil {
		return pos
	}
	return int(b.order[pos])
}

// tenant is tenant i with its defaults applied: ID "t-<i>", weight 1 and
// θ 0.7, so events, results and traces agree on them.
func (b *battery) tenant(i int) Tenant {
	t := b.tenants[i]
	if t.ID == "" {
		t.ID = fmt.Sprintf("t-%d", i)
	}
	t.Weight = b.weight(i)
	if t.Theta == 0 {
		t.Theta = 0.7
	}
	return t
}

// weight is tenant i's fair-share weight, 1 when it sets none.
func (b *battery) weight(i int) float64 {
	if w := b.tenants[i].Weight; w > 0 {
		return w
	}
	return 1
}

// refusal is the admission cap a tenant fails ("" when it is admitted).
func (c Config) refusal(t Tenant) string {
	switch {
	case c.MaxBudget > 0 && (t.Budget <= 0 || t.Budget > c.MaxBudget):
		return ReasonBudgetCap
	case c.MaxDeadline > 0 && (t.Deadline <= 0 || t.Deadline > c.MaxDeadline):
		return ReasonDeadlineCap
	}
	return ""
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

// shardState is the per-shard bounded working set: the clock persists
// across the shard's whole run, and each wave reuses the event slots the
// waves before it freed. queue holds the admission positions of the
// shard's tenants, in order: the k-th is admitted rank k·shards + idx and
// runs in wave k / MaxInFlight.
type shardState struct {
	idx   int
	queue []int32
	clk   *simclock.Virtual
}

// Run executes the tenant battery against the environment and streams
// per-tenant results through cfg.OnResult in admission order. It reads
// tenants in place, so the caller must not change the slice while Run
// runs; what Run keeps per tenant is its admission position, so a battery
// of any size costs a few bytes a tenant beyond the caller's own slice.
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
	if cfg.Contention && (cfg.SurgeSlope < 0 || math.IsNaN(cfg.SurgeSlope) || math.IsInf(cfg.SurgeSlope, 0)) {
		return nil, fmt.Errorf("service: surge slope %v must be finite and non-negative", cfg.SurgeSlope)
	}

	bat := &battery{tenants: tenants}
	// Admission order: FIFO is submission order; weighted-fair sorts by
	// stride virtual finish time 1/Weight, ties by submission order, so
	// heavier tenants land in earlier waves.
	if cfg.Admission == AdmissionWeightedFair {
		bat.order = make([]int32, len(tenants))
		for i := range bat.order {
			bat.order[i] = int32(i)
		}
		sort.SliceStable(bat.order, func(a, b int) bool {
			ia, ib := int(bat.order[a]), int(bat.order[b])
			fa, fb := 1/bat.weight(ia), 1/bat.weight(ib)
			if fa != fb {
				return fa < fb
			}
			return ia < ib
		})
	}

	// Admission caps and shard assignment: admitted tenants go round-robin
	// over the shards in admission order. A rejected tenant is stamped
	// with the shard the next admitted one goes to. The decisions are a
	// pure function of (tenants, config), so later passes replay them.
	shards := make([]*shardState, cfg.Shards)
	for s := range shards {
		shards[s] = &shardState{idx: s, clk: simclock.NewVirtual(env.CampaignStart)}
	}
	next := 0 // admitted counter: shard round-robin position
	var shardOf []int32
	if cfg.Trace {
		shardOf = make([]int32, len(tenants))
	}
	for pos := range tenants {
		i := bat.at(pos)
		if shardOf != nil {
			shardOf[i] = int32(next % cfg.Shards)
		}
		if cfg.refusal(tenants[i]) == "" {
			sh := shards[next%cfg.Shards]
			sh.queue = append(sh.queue, int32(pos))
			next++
		}
	}

	var rec *obs.Recording
	if cfg.Trace {
		rec = obs.NewRecording(obs.Meta{Scenario: "service", Workload: bench.Name})
		// Admission events in submission order: the decision set is a pure
		// function of (tenants, config), so the trace prefix is stable for
		// any shard count.
		for i := range tenants {
			t := bat.tenant(i)
			if reason := cfg.refusal(t); reason == "" {
				rec.Emit(obs.Event{VT: env.CampaignStart, Kind: obs.KindTenantAdmit,
					Trial: t.ID, Label: cfg.Admission, A: t.Weight, N: int64(shardOf[i])})
			} else {
				rec.Emit(obs.Event{VT: env.CampaignStart, Kind: obs.KindTenantReject,
					Trial: t.ID, Label: reason, N: int64(shardOf[i])})
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
		Tenants:    len(tenants),
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
	admitted := 0
	for pos := range tenants {
		i := bat.at(pos)
		if reason := cfg.refusal(tenants[i]); reason != "" {
			results <- Result{Tenant: bat.tenant(i), Index: i, Shard: admitted % cfg.Shards, Wave: -1, Reason: reason, emit: pos}
		} else {
			admitted++
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
				fl.wait((hi-1)*cfg.Shards+sh.idx, window)
				caps := runWave(env, bench, curves, bat, sh, lo, hi, capMarkets, cfg, results)
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

// runWave executes one shard wave, the shard's queue[lo:hi], on the calling
// goroutine: the shard's clock at the campaign start, a fresh capacity
// domain, and the wave's campaigns taking turns in next-event order. Returns the wave's
// cross-tenant capacity audit findings (contention mode only).
//
// The turn order is conservative discrete-event co-simulation. A min-heap
// keyed by (next clock advance, wave slot) gives the turn to the campaign
// whose next advance is earliest, so the shared clock never runs backward
// and every tenant's events fire at their exact virtual due times. Every
// campaign waits at the epoch before its first turn, so setups run in slot
// order before any virtual time passes.
func runWave(env *campaign.Environment, bench *workload.Benchmark, curves workload.Curves,
	bat *battery, sh *shardState, lo, hi int, capMarkets *cloudsim.Markets, cfg Config, results chan<- Result) []invariants.Violation {

	w := &waveWorld{env: env, bench: bench, curves: curves, cfg: cfg,
		world: &campaign.World{Clock: sh.clk}}
	if capMarkets != nil {
		w.world.Markets = capMarkets
		w.world.Domain = cloudsim.NewCapacityDomain(cfg.SurgeSlope)
	}
	n := hi - lo
	slots := make([]tenantRun, n)
	q := make(turnQueue, n) // equal keys in slot order: already a heap
	for k := range slots {
		pos := int(sh.queue[lo+k])
		i := bat.at(pos)
		slots[k] = tenantRun{res: Result{
			Tenant: bat.tenant(i), Index: i, Shard: sh.idx, Wave: lo / cfg.MaxInFlight, Admitted: true, emit: pos,
		}}
		q[k] = turnKey{at: env.CampaignStart.UnixNano(), slot: k}
	}
	ledgers := make([]*cloudsim.Ledger, n)
	for len(q) > 0 {
		k := q[0].slot
		tr := &slots[k]
		if w.turn(tr) {
			q.pop()
			if tr.run != nil {
				// The audit needs only the records. Copying the ledger
				// lets the cluster, which reaches the whole campaign
				// through its instances, go as soon as the campaign ends.
				led := *tr.run.Cluster().Ledger()
				ledgers[k] = &led
				tr.run = nil
			}
			results <- tr.res
			// Give up the P once per finished campaign, to the emitter the
			// send has woken and to the GC's background mark worker.
			// Otherwise the shard can run a whole wave without entering the
			// scheduler, marking waits for a preemption, and the GC cycle
			// spans far more allocation, all of which it must keep as live.
			runtime.Gosched()
		} else {
			q[0].at = tr.next.UnixNano()
			q.down(0)
		}
	}
	// Drop the events the wave scheduled but never fired (pending
	// revocations past campaign end) and rewind to the campaign start, so
	// the next wave starts clean and reuses their slots.
	sh.clk.Reset(env.CampaignStart)

	if capMarkets == nil {
		return nil
	}
	return invariants.CheckCapacity(capMarkets.Catalog(), ledgers)
}

// waveWorld is what every campaign of one shard wave shares.
type waveWorld struct {
	env    *campaign.Environment
	bench  *workload.Benchmark
	curves workload.Curves
	world  *campaign.World
	cfg    Config
}

// tenantRun is one wave slot: its campaign once started, the clock advance
// its next turn begins with, and the result it delivers, which names the
// tenant.
type tenantRun struct {
	run  *campaign.Run
	next time.Time
	res  Result
}

// turn gives the slot one turn and reports whether its campaign is over.
// The first turn assembles the campaign and steps it; every later one
// advances the shared clock to the slot's target first. A panic anywhere in
// the turn fails this tenant alone: its running instances are terminated,
// so none of its notices or revocations fire in later turns.
func (w *waveWorld) turn(tr *tenantRun) (over bool) {
	defer func() {
		if v := recover(); v != nil {
			tr.res.Err = fmt.Errorf("%w: %s: %v", ErrTenantPanicked, tr.res.Tenant.ID, v)
			if tr.run != nil {
				c := tr.run.Cluster()
				for _, inst := range c.RunningInstances() {
					_ = c.Terminate(inst.ID) // running, so it cannot fail
				}
			}
			over = true
		}
	}()
	if tr.run == nil {
		run, err := w.start(tr)
		if err != nil {
			tr.res.Err = err
			return true
		}
		tr.run = run
	} else {
		w.world.Clock.AdvanceTo(tr.next)
	}
	next, done, err := tr.run.Step()
	switch {
	case err != nil:
		tr.res.Err = err
	case done:
		tr.res.Report, tr.res.Err = tr.run.Finish()
	default:
		tr.next = next
		return false
	}
	return true
}

// start assembles the slot's campaign inside the wave's shared world.
func (w *waveWorld) start(tr *tenantRun) (*campaign.Run, error) {
	t := &tr.res.Tenant
	opt := campaign.Options{
		Theta:      t.Theta,
		Seed:       t.Seed,
		Policy:     t.Policy,
		Tuner:      t.Tuner,
		Resilience: t.Resilience,
		Deadline:   t.Deadline,
		Budget:     t.Budget,
		World:      w.world,
		Trace:      w.cfg.TraceTenant != "" && w.cfg.TraceTenant == t.ID,
	}
	opt.Inspect = func(d *campaign.RunDetail) error {
		if tr.res.Trace = d.Trace; tr.res.Trace != nil {
			tr.res.Trace.Meta.Scenario = "service"
			tr.res.Trace.Meta.Replicate = tr.res.Index
		}
		tr.res.Violations = invariants.Check(scenario.StateFor(d))
		return nil
	}
	return w.env.NewRun(w.bench, w.curves, opt)
}

// turnKey orders a wave's campaigns for their next turn: by the clock
// advance the turn begins with (unix nanos), ties by wave slot.
type turnKey struct {
	at   int64
	slot int
}

// turnQueue is a binary min-heap of turn keys.
type turnQueue []turnKey

func (q turnQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].slot < q[j].slot
}

// down restores heap order below i after q[i]'s key grew.
func (q turnQueue) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(q) {
			return
		}
		if r := c + 1; r < len(q) && q.less(r, c) {
			c = r
		}
		if !q.less(c, i) {
			return
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
}

// pop removes the minimum key.
func (q *turnQueue) pop() {
	n := len(*q) - 1
	(*q)[0] = (*q)[n]
	*q = (*q)[:n]
	q.down(0)
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
