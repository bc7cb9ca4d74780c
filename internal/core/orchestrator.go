package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"spottune/internal/cloudsim"
	"spottune/internal/earlycurve"
	"spottune/internal/market"
	"spottune/internal/obs"
	"spottune/internal/policy"
	"spottune/internal/resilience"
	"spottune/internal/search"
	"spottune/internal/trial"
)

// Fixed orchestrator settings.
const (
	// restartAfter is the proactive restart horizon: the refund-window
	// boundary of Fig. 4.
	restartAfter = time.Hour
	// c0 initializes the performance matrix to c0/CPUs seconds per step.
	c0 = 16
	// checkpointSetupTime/restoreSetupTime are fixed per-event costs beyond
	// raw transfer time: snapshotting the training process, remounting the
	// object store, restarting the runtime. These dominate Fig. 12 for
	// small-model workloads, matching the paper's nonzero overhead on
	// linear models.
	checkpointSetupTime = 15 * time.Second
	restoreSetupTime    = 30 * time.Second
	// convergeWindow/convergeTol detect plateaued trials (§III-C). The
	// tolerance is tight enough that plateau noise on near-tied configs
	// does not truncate observation before the ranking that depends on it.
	convergeWindow = 8
	convergeTol    = 5e-4
	// pollInterval is the event loop's retry quantum, the sleep of the
	// paper's Algorithm 1. A trial noticed at the current instant waits one
	// interval before it redeploys, the fixed resilience strategy retries
	// blackout-rejected spot requests on this grid, and the campaign-start
	// trace event carries it as its B payload.
	pollInterval = 10 * time.Second
	// startupDelay models instance boot time before training can begin.
	startupDelay = time.Minute
	// periodicCheckpoint is the default cadence for trials whose checkpoint
	// is too large to upload inside the two-minute revocation notice
	// (§IV-F's max-model-size limit). Such trials checkpoint on a schedule
	// instead of at notice time, losing at most one period of work per
	// revocation — the "periodically checkpointing" extension the paper
	// leaves as future work. The resilience strategy receives it as
	// CadenceContext.Default and may tighten it per assignment.
	periodicCheckpoint = 10 * time.Minute
)

// Config tunes the orchestrator. Zero values select the paper's settings.
type Config struct {
	// Theta is the early-shutdown rate θ ∈ (0, 1] (Table I).
	Theta float64
	// MCnt is how many top-ranked models to continue training from
	// checkpoints after the prediction phase (Table I; default 3).
	MCnt int
	// MaxConcurrent caps simultaneously deployed trials. The paper's
	// evaluation processes trials one at a time (default 1); higher
	// values exercise the elastic fan-out Algorithm 1 permits.
	MaxConcurrent int
	// Trend predicts final metrics from partial curves (default
	// EarlyCurve with paper constants).
	Trend earlycurve.TrendPredictor
	// Tuner owns the trial lifecycle: which trials (re)activate each
	// round, their step budgets, when the search stops, and the final
	// ranking/selection. Nil selects the paper's Algorithm 1 schedule
	// ("spottune": θ-truncated explore, EarlyCurve prediction, continue
	// top-MCnt) derived from Theta and MCnt. Tuners are stateful and
	// single-use — each Run consumes one; construct a fresh instance
	// (search.New) per campaign.
	Tuner search.Tuner
	// Resilience is the recovery strategy consulted at the three moments
	// that decide survival: the periodic checkpoint cadence per
	// assignment, the action inside a revocation notice window, and the
	// retry pacing (and give-up budget) under capacity blackouts. Nil
	// selects resilience.Default() — the fixed strategy, which reproduces
	// the historical hardcoded behavior bit for bit. Strategies may be
	// stateful; construct a fresh instance per campaign.
	Resilience resilience.Strategy
	// Deadline is the campaign completion target measured from campaign
	// start (0 = unconstrained). With a deadline set, the orchestrator
	// tracks projected slack at every deployment decision and escalates
	// the degradation ladder — spot → diversified spot → on-demand — as
	// the projection slips (resilience.SlackTracker).
	Deadline time.Duration
	// Budget caps degradation-ladder escalation: once the campaign's net
	// spend reaches it, the ladder will not force on-demand capacity the
	// campaign cannot pay for (0 = unbounded). Only meaningful together
	// with Deadline.
	Budget float64
	// Tracer is the campaign's flight recorder (internal/obs): every
	// deploy, notice, checkpoint, restore, round, elimination, ranking,
	// and ledger posting lands in it with virtual timestamps and monotonic
	// sequence numbers. Nil selects obs.Nop — tracing off, zero overhead.
	// The orchestrator installs the same tracer on the cluster so billing
	// settlements share the recording.
	Tracer obs.Tracer
	// BaseType is the campaign's compatibility anchor: the instance type
	// the workload was sized for. It does not constrain decisions here —
	// campaign assembly narrows the pool to catalog-compatible types before
	// the orchestrator sees it — but it is echoed into the Report so
	// invariant checkers can audit that every rented instance satisfied the
	// compatibility predicate. Empty means unconstrained.
	BaseType string
}

func (c Config) withDefaults() Config {
	if c.Theta <= 0 || c.Theta > 1 {
		c.Theta = 0.7
	}
	if c.MCnt <= 0 {
		c.MCnt = 3
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 1
	}
	if c.Trend == nil {
		c.Trend = &earlycurve.Predictor{}
	}
	if c.Tracer == nil {
		c.Tracer = obs.Nop{}
	}
	if c.Resilience == nil {
		c.Resilience = resilience.Default()
	}
	if c.Deadline < 0 {
		c.Deadline = 0
	}
	if c.Budget < 0 {
		c.Budget = 0
	}
	return c
}

// assignment is one live (trial, instance) pairing.
type assignment struct {
	st          *trialState
	tr          *trial.Replay
	inst        *cloudsim.Instance // set at deploy, never nil
	deployedAt  time.Time
	busyAt      time.Time // boot + restore complete
	lastAdvance time.Time
	stepsBefore int  // trial steps when deployed
	dead        bool // noticed or terminated; awaiting redeploy

	// oversized marks trials whose checkpoint cannot finish inside the
	// revocation notice on this instance; they checkpoint periodically.
	oversized  bool
	lastCkptAt time.Time
	// cadence is the periodic-checkpoint interval the resilience strategy
	// chose for this assignment (fixed: periodicCheckpoint;
	// adaptive: Young/Daly from the market's observed revocation rate).
	// Decided once at deploy so the schedule is stable for the segment.
	cadence time.Duration
	// lastCkptSteps is the trial's step count at its most recent durable
	// checkpoint — the rewind point a revocation loses work back to.
	lastCkptSteps int

	// obsTime/obsSteps accumulate this segment's compute and fractional
	// step progress. The seconds-per-step sample (line 36 of Algorithm 1)
	// is folded into the performance matrix once per segment: per-slice
	// ratios with whole-step counts are biased whenever a scheduler slice
	// is shorter than a step, and slice lengths depend on which unrelated
	// events happen to wake the loop.
	obsTime  time.Duration
	obsSteps float64
}

// oversizedFor reports whether a checkpoint of the given size cannot be
// uploaded within the notice lead time on the given instance.
func oversizedFor(ckptMB float64, cpus int) bool {
	return ckptMB > cloudsim.MaxModelSizeMB(cpus)
}

// trialState is one submitted trial's orchestration state. The orchestrator
// keeps one per trial in a slice in submission order, so the deploy path
// reaches a trial's state by pointer rather than by name, and every sweep
// over trials (triggers, wakeups, the slack projection) runs in submission
// order.
type trialState struct {
	tr   *trial.Replay
	id   string
	ckpt string // object-store key of the trial's checkpoint
	idx  int    // submission index
	col  int    // performance-matrix column

	// limit is the active round's step cap; inRound marks the trials the
	// round directed (limit is 0 for the others).
	limit   int
	inRound bool
	// finished marks a trial done for now: round budget reached, plateaued,
	// or abandoned. A later round's directive clears it.
	finished bool
	// active is the trial's assignment, from deploy until the scheduler
	// turn after it ends (dead assignments are reaped in handleTriggers).
	// It points at seg, the one assignment value every deployment of the
	// trial reuses: a trial has at most one assignment at a time, and a
	// dead one is never read once the trial redeploys.
	active *assignment
	seg    assignment

	// deployments/spotFailures feed policy.TrialInfo: total deployments,
	// and the consecutive spot misfortunes — segments that ended in a
	// revocation notice plus blackout-rejected spot requests — (cleared
	// when a spot segment ends cleanly — completion or proactive restart —
	// but not by on-demand segments, which say nothing about the spot
	// market).
	deployments  int
	spotFailures int

	// noticedAt is the trial's most recent termination notice (zero when
	// none, or after the trial leaves the waiting/active cycle). A trial
	// noticed at the current instant is not redeployed until one
	// pollInterval later: an instance bought inside its market's doom window
	// is noticed the moment it launches, and without this spacing the event
	// loop would deploy-notice-requeue forever at one instant.
	noticedAt time.Time

	// blackoutRetryAt paces blackout-rejected spot requests onto the retry
	// schedule the resilience strategy chose (the fixed strategy picks the
	// pollInterval grid; zero when no retry is pending). The rejection count
	// feeds the policy-visible spot-failure streak, so the attempt cadence
	// must come from the strategy alone: without this gate the event loop
	// would retry at every interesting instant (price ticks, other trials'
	// triggers), and the streak a fallback policy sees would depend on
	// unrelated events.
	blackoutRetryAt time.Time
	// blackoutRetries counts every blackout-rejected spot request across
	// the whole campaign (reported); blackoutStreak counts the consecutive
	// rejections since the last successful deploy (the resilience
	// strategy's retry attempt number — reset on deploy, give-up, and
	// finish).
	blackoutRetries int
	blackoutStreak  int

	// held is the trial's last capacity-refused spot request (zero TypeName
	// when none), passed to the policy as TrialInfo.Held. The hold starts at
	// a refusal made while none was held and lasts until the first attempt
	// at or after heldUntil, the cluster's next interesting instant over the
	// pool at that refusal (zero when the cluster was quiescent: no instant
	// ends it), or until the degradation ladder leaves heldLevel. A deploy,
	// a price miss, a give-up or a finish drops it.
	held      policy.Request
	heldUntil time.Time
	heldLevel int

	// gaveUp marks a trial abandoned by the resilience strategy's retry
	// budget (cleared if a later round deploys it successfully).
	gaveUp bool

	// migrating marks a trial in its notice window that the resilience
	// strategy chose to redeploy immediately (migration-on-notice);
	// migrateExclude is the market to exclude from the replacement decision
	// ("" = no exclusion). Migration bypasses the noticedAt redeploy spacing
	// so the restore overlaps the remaining notice lead time.
	migrating      bool
	migrateExclude string

	// lastNoticed is the market that most recently revoked the trial; under
	// diversified-spot degradation the next decision excludes it.
	lastNoticed string

	// secPerStep is the trial's performance-matrix row M[·][hp] handed to
	// every policy decision; onNotice routes the cluster's termination
	// notices to the trial's live assignment. Both are built once per trial.
	secPerStep func(typeName string) float64
	onNotice   cloudsim.NoticeFunc
}

// forgetRecoveryState drops the per-trial recovery state once a trial
// leaves the waiting/active cycle (finish or give-up). Stale entries were
// harmless for scheduling — past instants never gate — but a later round
// re-activating the trial must start with a clean streak.
func (t *trialState) forgetRecoveryState() {
	t.noticedAt = time.Time{}
	t.blackoutRetryAt = time.Time{}
	t.blackoutStreak = 0
	t.migrating, t.migrateExclude = false, ""
	t.held = policy.Request{}
}

// Orchestrator drives one HPT campaign per Algorithm 1. Deployment
// decisions are delegated to a provisioning policy (internal/policy): the
// paper's Eq. 1–2 provisioner by default, or any registered alternative —
// including policies that rent reliable on-demand capacity alongside (or
// instead of) revocable spot instances.
type Orchestrator struct {
	cfg      Config
	cluster  *cloudsim.Cluster
	store    *cloudsim.ObjectStore
	pol      policy.Policy
	pool     []string
	odPool   *policy.Pool // pool, quoted for the degradation ladder's on-demand choice
	approach string
	perf     *PerfMatrix

	// ts is the per-trial state in submission order; byID resolves the
	// trial IDs tuners name, and order lists them (the tuner's TrialIDs).
	ts    []*trialState
	byID  map[string]*trialState
	order []string
	// waiting queues trials for deployment; nActive counts the trials with
	// an assignment (live, or dead but not yet reaped); pending counts the
	// round's directed trials not yet finished.
	waiting []*trialState
	nActive int
	pending int

	// segments records the steps run on each instance so refunds can be
	// attributed; the report takes the slice as its Segments.
	segments      []SegmentRecord
	deployments   int
	odDeployments int
	notices       int
	iterations    int // scheduler loop turns across all phases

	// res is the recovery strategy (Config.Resilience; never nil). rates
	// feeds its adaptive cadence with per-market revocation-rate
	// estimates; slack drives the degradation ladder (nil without a
	// deadline).
	res   resilience.Strategy
	rates *resilience.RateEstimator
	slack *resilience.SlackTracker
	// revRate is rates.RevocationsPerHour, bound once for policy contexts.
	revRate func(typeName string) float64

	// lostSteps/migrations accumulate campaign-level resilience outcomes
	// for the report: steps rewound at revocations (oversized trials
	// losing work back to their last periodic checkpoint) and
	// migration-on-notice redeployments.
	lostSteps  int
	migrations int

	// ckptSetup/restoreSetup accumulate the fixed per-event costs that
	// transfers alone do not capture (Fig. 12 accounting).
	ckptSetup    time.Duration
	restoreSetup time.Duration

	// ckptBuf is the reusable checkpoint-encode buffer (the store copies
	// blobs on PutSized, so one buffer serves every write).
	ckptBuf []byte

	// incumbent memoizes incumbentBest while incumbentOK. A trial's last
	// point is a function of its completed-step count, which only advance
	// (RunFor) and the deploy-time Restore change, so those two clear it.
	incumbent   int
	incumbentOK bool

	// unboundedWakeup prices every step trigger as far as its assignment's
	// horizon, ignoring nextWakeup's bound: the reference tests step the
	// bounded computation against.
	unboundedWakeup bool

	// tuner drives the round loop (Config.Tuner, or the default spottune
	// schedule); trialState.limit holds the active round's step caps.
	tuner search.Tuner

	// trc is the flight recorder (Config.Tracer; never nil — obs.Nop when
	// tracing is off). Also installed on the cluster, so the recording
	// interleaves orchestration and billing events in true emission order.
	trc obs.Tracer

	// Where Step resumes. view is nil before the first Step, which sets
	// start, the campaign's first instant. round is the tuner round in
	// flight while inRound, and turns counts its scheduler turns. settling
	// marks the final advance, after the tuner's outcome is taken; report
	// is set once the campaign is done.
	view     *tunerView
	start    time.Time
	round    search.Round
	inRound  bool
	turns    int
	settling bool
	outcome  search.Outcome
	report   *Report
}

// NewPolicyOrchestrator wires a campaign whose deployment decisions come
// from the given provisioning policy over the given instance pool.
func NewPolicyOrchestrator(
	cluster *cloudsim.Cluster,
	store *cloudsim.ObjectStore,
	pol policy.Policy,
	pool []string,
	trials []*trial.Replay,
	cfg Config,
) (*Orchestrator, error) {
	if cluster == nil || store == nil || pol == nil {
		return nil, errors.New("core: orchestrator needs a cluster, store, and policy")
	}
	if len(pool) == 0 {
		return nil, errors.New("core: empty instance pool")
	}
	if len(trials) == 0 {
		return nil, errors.New("core: no trials submitted")
	}
	approach := "Policy(" + pol.Name() + ")"
	if pol.Name() == policy.SpotTuneName {
		// The spottune policy is SpotTune — keep the paper's label.
		approach = "SpotTune"
	}
	o := &Orchestrator{
		cfg:      cfg.withDefaults(),
		cluster:  cluster,
		store:    store,
		pol:      pol,
		pool:     append([]string(nil), pool...),
		odPool:   policy.NewPool(pool),
		approach: approach,
		perf:     NewPerfMatrix(cluster.Catalog(), c0),
		ts:       make([]*trialState, 0, len(trials)),
		byID:     make(map[string]*trialState, len(trials)),
		order:    make([]string, 0, len(trials)),
		rates:    resilience.NewRateEstimator(),
	}
	o.res = o.cfg.Resilience
	o.revRate = o.rates.RevocationsPerHour
	for _, tr := range trials {
		id := tr.ID()
		if _, dup := o.byID[id]; dup {
			return nil, fmt.Errorf("core: duplicate trial %q", id)
		}
		t := &trialState{tr: tr, id: id, ckpt: ckptKey(id), idx: len(o.ts), col: o.perf.column(id)}
		t.secPerStep = func(tn string) float64 { return o.perf.get(tn, t.col) }
		t.onNotice = func(inst *cloudsim.Instance, at time.Time) {
			// Only a trial's live instance is ever noticed; the check keeps
			// a notice from reaching any other assignment.
			if a := t.active; a != nil && a.inst == inst {
				o.onNotice(a, at)
			}
		}
		o.ts = append(o.ts, t)
		o.byID[id] = t
		o.order = append(o.order, id)
	}
	o.tuner = o.cfg.Tuner
	if o.tuner == nil {
		o.tuner = search.Default(o.cfg.Theta, o.cfg.MCnt)
	}
	o.trc = o.cfg.Tracer
	cluster.SetTracer(o.trc)
	return o, nil
}

// ckptKey is the object-store key for a trial's checkpoint.
func ckptKey(trialID string) string { return "ckpt/" + trialID }

// Run executes the full campaign as a generic round loop: the tuner emits
// rounds (per-trial step budgets), each round runs against the simulated
// cloud, and the tuner's Finish supplies the selection outputs. Under the
// default spottune tuner this is exactly Algorithm 1 lines 15–53: the
// θ-bounded exploration phase, the EarlyCurve ranking, and the top-mcnt
// continuation phase. It steps the campaign to completion on its own clock
// and returns the campaign report.
func (o *Orchestrator) Run() (*Report, error) {
	clk := o.cluster.Clock()
	for {
		next, done, err := o.Step()
		if err != nil {
			return nil, err
		}
		if done {
			return o.report, nil
		}
		clk.AdvanceTo(next)
	}
}

// Step runs the campaign from where the previous Step returned until it
// needs the clock past the current instant, and returns that instant: the
// caller advances the clock there (Virtual.AdvanceTo) and calls Step again.
// Advances to the current instant run inline. The campaign advances time in
// two places, the event loop's hop to its next wakeup and the settle before
// the report reads the bill, so those are where Step returns. Campaigns that
// share one clock interleave by stepping whichever has the earliest target.
//
// The first Step starts the campaign at the clock's current instant. done
// reports that the campaign has finished and Report holds its report; an
// error ends the campaign.
func (o *Orchestrator) Step() (next time.Time, done bool, err error) {
	if o.report != nil {
		return time.Time{}, true, nil
	}
	if o.view == nil {
		o.begin()
	}
	clk := o.cluster.Clock()
	for {
		switch {
		case o.settling:
			o.report = o.buildReport()
			return time.Time{}, true, nil
		case o.inRound:
			next, closed, err := o.turn()
			switch {
			case err != nil:
				return time.Time{}, false, err
			case closed:
				o.closeRound()
			case next.After(clk.Now()):
				return next, false, nil
			default:
				clk.AdvanceTo(next)
			}
		default:
			round, ok := o.tuner.Next(o.view)
			o.emitEliminations(round)
			if !ok || len(round.Directives) == 0 {
				// A tuner with nothing left to schedule is done whether it
				// says so (ok=false) or hands back an empty round — the
				// engine must not livelock on a Next that never declines.
				o.outcome = o.tuner.Finish(o.view)
				o.settling = true
				return clk.Now().Add(settleTime), false, nil
			}
			if err := o.openRound(round); err != nil {
				return time.Time{}, false, err
			}
		}
	}
}

// Report returns the campaign report once Step has reported done, nil
// before.
func (o *Orchestrator) Report() *Report { return o.report }

// begin starts the campaign at the clock's current instant.
func (o *Orchestrator) begin() {
	o.start = o.cluster.Clock().Now()
	if o.cfg.Deadline > 0 {
		o.slack = resilience.NewSlackTracker(o.start, o.cfg.Deadline, o.cfg.Budget)
	}
	o.trc.Emit(obs.Event{
		VT:    o.start,
		Kind:  obs.KindCampaignStart,
		Type:  o.tuner.Name(),
		Label: o.approach,
		A:     o.cfg.Theta,
		B:     pollInterval.Seconds(),
		N:     int64(len(o.order)),
	})
	o.view = &tunerView{o: o}
}

// emitEliminations records the trials a round dropped. Eliminations can
// ride on any round, including the final declined one, so they are handled
// before the round is executed (or the loop breaks).
func (o *Orchestrator) emitEliminations(round search.Round) {
	if len(round.Eliminated) == 0 || !o.trc.Enabled() {
		return
	}
	now := o.cluster.Clock().Now()
	for _, id := range round.Eliminated {
		o.trc.Emit(obs.Event{VT: now, Kind: obs.KindEliminate, Trial: id, Label: round.Label})
	}
}

// tunerView implements search.State over live orchestrator state.
type tunerView struct{ o *Orchestrator }

func (v *tunerView) TrialIDs() []string { return v.o.order }

func (v *tunerView) Status(id string) search.TrialStatus {
	t, ok := v.o.byID[id]
	if !ok {
		return search.TrialStatus{ID: id}
	}
	tr := t.tr
	st := search.TrialStatus{
		ID:             id,
		CompletedSteps: tr.CompletedSteps(),
		MaxSteps:       tr.MaxSteps(),
		Plateaued:      tr.Plateaued(convergeWindow, convergeTol),
	}
	if p, ok := tr.LastPoint(); ok {
		st.HasPoint, st.LastValue = true, p.Value
	}
	return st
}

func (v *tunerView) Points(id string) []earlycurve.MetricPoint {
	t, ok := v.o.byID[id]
	if !ok {
		return nil
	}
	return t.tr.Points()
}

func (v *tunerView) Trend(string) earlycurve.TrendPredictor { return v.o.cfg.Trend }

// openRound starts one tuner round: every directed trial is (re)activated
// — cleared from the finished set and queued in directive order — and is
// then processed, turn by turn, until it reaches its round budget or
// plateaus, handling revocation notices, hourly restarts, and
// (re)deployments. A round that queues no trial is over at once and leaves
// no trace.
func (o *Orchestrator) openRound(round search.Round) error {
	for _, t := range o.ts {
		t.limit, t.inRound, t.active = 0, false, nil
	}
	o.nActive = 0
	o.waiting = o.waiting[:0]
	for _, d := range round.Directives {
		t, ok := o.byID[d.TrialID]
		if !ok {
			return fmt.Errorf("core: tuner %s directed unknown trial %q", o.tuner.Name(), d.TrialID)
		}
		if t.inRound {
			return fmt.Errorf("core: tuner %s directed trial %q twice in one round", o.tuner.Name(), d.TrialID)
		}
		lim := d.StepLimit
		if lim <= 0 || lim > t.tr.MaxSteps() {
			lim = t.tr.MaxSteps()
		}
		t.limit, t.inRound, t.finished = lim, true, false
		o.waiting = append(o.waiting, t)
	}
	if len(o.waiting) == 0 {
		return nil
	}
	if o.trc.Enabled() {
		now := o.cluster.Clock().Now()
		o.trc.Emit(obs.Event{
			VT:    now,
			Kind:  obs.KindRoundOpen,
			Label: round.Label,
			N:     int64(len(round.Directives)),
		})
		for _, d := range round.Directives {
			o.trc.Emit(obs.Event{
				VT:    now,
				Kind:  obs.KindBudget,
				Trial: d.TrialID,
				Label: round.Label,
				N:     int64(o.byID[d.TrialID].limit),
			})
		}
	}
	o.round, o.inRound = round, true
	o.pending, o.turns = len(o.waiting), 0
	return nil
}

// closeRound ends the round in flight once every directed trial finished.
func (o *Orchestrator) closeRound() {
	o.inRound = false
	o.trc.Emit(obs.Event{
		VT:    o.cluster.Clock().Now(),
		Kind:  obs.KindRoundClose,
		Label: o.round.Label,
		N:     int64(len(o.round.Directives)),
	})
}

// turn is one scheduler turn of Algorithm 1 as a discrete-event loop: it
// handles everything due now, then returns the next instant at which any
// trigger or cluster event can fire — trigger-step completion, θ-shutdown
// point, proactive-restart horizon, periodic-checkpoint tick, plateau step,
// notice, revocation, or price tick — or closed once every directed trial
// has finished. The turn count is the number of real events, not
// campaign-duration/pollInterval. While a held request waits with nothing
// live the turn is a turn-free retry instead (retryHeld).
func (o *Orchestrator) turn() (next time.Time, closed bool, err error) {
	// 5M turns in one round means livelock (e.g. a trial that can never
	// recover past its checkpoint). Turn-free retries count too.
	if o.turns > 5_000_000 {
		return time.Time{}, false, errors.New("core: orchestrator did not converge (runaway loop)")
	}
	o.turns++
	now := o.cluster.Clock().Now()
	if o.retrying() {
		return o.retryHeld(now)
	}
	o.iterations++
	o.handleTriggers(now)
	if o.pending == 0 {
		return time.Time{}, true, nil
	}
	retryAt, blocked, err := o.deployWaiting(now)
	if err != nil {
		return time.Time{}, false, err
	}
	return o.endTurn(now, retryAt, blocked)
}

// fullTurnsOnly turns the turn-free retries off, so every retry instant
// runs a full turn: the reference the exactness tests step the turn-free
// retries against. Only tests set it, while no campaign runs.
var fullTurnsOnly bool

// retrying reports whether the next turn may be a turn-free retry: no
// assignment exists (live, or dead and not yet reaped), the campaign has no
// deadline ladder, and the head waiting trial holds a capacity-refused
// request. A full turn would then find nothing for handleTriggers to
// advance or reap and nothing for assessDegradation to assess, and the
// only wakeups nextWakeup could put before the head's retry instant are
// clock events. None of them reaches this campaign: with no assignment it
// has no instance a notice or preemption could reach, and the revocation of
// one already noticed settles at its own instant whenever it fires. Events
// of other campaigns on a shared clock fire before any turn at or after
// their instants either way. So the head's attempts at its retry instants
// alone make the calls, and leave the state, that the full turns make.
func (o *Orchestrator) retrying() bool {
	return !fullTurnsOnly && o.nActive == 0 && o.slack == nil &&
		len(o.waiting) > 0 && o.waiting[0].held.TypeName != ""
}

// retryHeld is a turn-free retry: the head waiting trial's deploy attempt
// and nothing else. Another refusal returns the next retry instant at once;
// any other outcome goes on as the rest of a full turn at this instant, so
// it counts as one in Report.LoopIterations.
func (o *Orchestrator) retryHeld(now time.Time) (next time.Time, closed bool, err error) {
	incumbent := o.incumbentBest()
	retryAt, blocked, wait, err := o.attempt(o.waiting[0], now, incumbent)
	if err != nil {
		return time.Time{}, false, err
	}
	if wait && !blocked {
		return retryAt, false, nil
	}
	o.iterations++
	if !wait {
		if retryAt, blocked, err = o.deployQueue(now, incumbent); err != nil {
			return time.Time{}, false, err
		}
	}
	return o.endTurn(now, retryAt, blocked)
}

// endTurn closes the round once every directed trial has finished, and
// otherwise returns the turn's wakeup: the earlier of the deploy retry
// instant and nextWakeup's answer, or the retry instant alone when the next
// turn will be a turn-free retry (see retrying for why nothing earlier can
// matter then).
func (o *Orchestrator) endTurn(now, retryAt time.Time, blocked bool) (next time.Time, closed bool, err error) {
	if o.pending == 0 {
		return time.Time{}, true, nil
	}
	if !blocked && o.retrying() {
		// The head is waiting with a slot free, so retryAt is its pacing.
		return retryAt, false, nil
	}
	next, ok := o.nextWakeup(now, blocked, retryAt)
	if !retryAt.IsZero() && (!ok || retryAt.Before(next)) {
		next, ok = retryAt, true
	}
	if !ok {
		return time.Time{}, false, errors.New("core: stalled with no future trigger (market quiescent while trials wait)")
	}
	// Advancing fires any notice/revocation events in (now, next], so the
	// loop never skips past a cluster state change: nextWakeup bounds the
	// hop by the clock's earliest scheduled event.
	return next, false, nil
}

// handleTriggers advances every live assignment to now and applies Algorithm
// 1's per-trial triggers, in submission order for determinism.
func (o *Orchestrator) handleTriggers(now time.Time) {
	for _, t := range o.ts {
		a := t.active
		if a == nil || a.dead {
			continue
		}
		o.advance(a, now)
		tr := a.tr
		lim := t.limit
		// Plateaued is the engine-wide convergence verdict (the memoized
		// minimal-prefix precheck plus the exact re-check) — the same call
		// the tuner-visible TrialStatus goes through, so the round executor
		// and the tuner can never disagree about a trial's plateau.
		converged := tr.Plateaued(convergeWindow, convergeTol)
		switch {
		case tr.CompletedSteps() >= lim || converged:
			// Early shutdown / completion (lines 27–30).
			o.checkpoint(a)
			o.endAssignment(a)
			t.finished = true
			t.forgetRecoveryState()
			o.pending--
		case !a.inst.OnDemand && now.Sub(a.deployedAt) >= restartAfter:
			// Hourly refund-farming restart (lines 31–34). Spot only:
			// on-demand instances are never refunded, so restarting them
			// would buy nothing but checkpoint/redeploy overhead — they
			// run until their trial-side trigger instead.
			o.checkpoint(a)
			o.endAssignment(a)
			o.waiting = append(o.waiting, t)
		case a.oversized && now.Sub(a.lastCkptAt) >= a.cadence:
			// Periodic checkpointing: this trial's state cannot be
			// saved inside the revocation notice, so snapshot on a
			// schedule and accept losing at most one period.
			o.checkpoint(a)
		}
	}
	// Reap dead assignments.
	for _, t := range o.ts {
		if t.active != nil && t.active.dead {
			t.active = nil
			o.nActive--
		}
	}
}

// assessDegradation advances the deadline-degradation ladder (spot →
// diversified spot → on-demand) from the current slack projection: remaining
// work priced at each trial's best pool-member rate, serialized over the
// concurrency budget. Emitted once per transition; the ladder never
// de-escalates.
func (o *Orchestrator) assessDegradation(now time.Time) {
	if o.slack == nil {
		return
	}
	remaining := o.remainingSecs()
	level, changed := o.slack.Assess(now, remaining, o.cluster.Ledger().TotalNet())
	if changed {
		o.trc.Emit(obs.Event{
			VT:    now,
			Kind:  obs.KindDegradation,
			Label: resilience.LevelName(level),
			A:     o.slack.Slack(now, remaining).Seconds(),
			N:     int64(level),
		})
	}
}

// remainingSecs estimates the compute seconds left in the active round:
// each unfinished trial's remaining steps at its best (fastest-known)
// pool-member rate, divided across the concurrency budget. An optimistic
// lower bound — real schedules add restarts and restores — which is the
// right bias for a ladder that must not escalate early. Trials are summed
// in submission order, so the projection is the same to the last bit on
// every call over the same state.
func (o *Orchestrator) remainingSecs() float64 {
	total := 0.0
	for _, t := range o.ts {
		if !t.inRound || t.finished {
			continue
		}
		rem := t.limit - t.tr.CompletedSteps()
		if rem <= 0 {
			continue
		}
		best := math.Inf(1)
		for _, tn := range o.pool {
			if s := t.secPerStep(tn); s < best {
				best = s
			}
		}
		if math.IsInf(best, 1) || best <= 0 {
			continue
		}
		total += float64(rem) * best
	}
	return total / float64(o.cfg.MaxConcurrent)
}

// familyOf resolves an instance type's family through the cluster catalog
// (name-prefix fallback for types outside it); "" stays "", so an empty
// exclusion never widens to a family exclusion.
func (o *Orchestrator) familyOf(typeName string) string {
	if typeName == "" {
		return ""
	}
	if it, ok := o.cluster.Catalog().Lookup(typeName); ok {
		return it.Family
	}
	return market.FamilyOf(typeName)
}

// deployWaiting deploys waiting trials into free slots (lines 38–44). It
// reports blocked=true when the spot market rejected a request (maximum
// price below market), in which case the caller should retry after the next
// price tick; a non-zero retryAt asks the caller to try again at that
// instant (a trial noticed at the current instant is spaced out by one
// pollInterval — unless the resilience strategy asked for
// migration-on-notice, which deploys the replacement inside the notice
// window). Trials whose retry budget the resilience strategy exhausts are
// abandoned here (give-up), decrementing pending.
func (o *Orchestrator) deployWaiting(now time.Time) (retryAt time.Time, blocked bool, err error) {
	if len(o.waiting) == 0 {
		return time.Time{}, false, nil
	}
	incumbent := o.incumbentBest()
	o.assessDegradation(now)
	return o.deployQueue(now, incumbent)
}

// deployQueue makes deploy attempts for the head of the waiting queue, with
// the turn's incumbent, until the queue is empty, the concurrency budget is
// spent or an attempt has to wait, whose retryAt and blocked it returns.
func (o *Orchestrator) deployQueue(now time.Time, incumbent int) (retryAt time.Time, blocked bool, err error) {
	for len(o.waiting) > 0 && o.nActive < o.cfg.MaxConcurrent {
		retryAt, blocked, wait, err := o.attempt(o.waiting[0], now, incumbent)
		if err != nil || wait {
			return retryAt, blocked, err
		}
	}
	return time.Time{}, false, nil
}

// attempt is one deploy attempt for t, the head of the waiting queue. wait
// reports that the queue has to wait: until retryAt (a redeploy spacing, a
// retry pacing or a capacity refusal) or, when blocked, until the market's
// next change (a price miss). Otherwise t has left the queue, deployed or
// given up.
func (o *Orchestrator) attempt(t *trialState, now time.Time, incumbent int) (retryAt time.Time, blocked, wait bool, err error) {
	// A zero noticedAt/blackoutRetryAt (none pending) lies before every
	// instant, so neither gate holds.
	if !t.migrating && !t.noticedAt.Before(now) {
		return now.Add(pollInterval), false, true, nil
	}
	if now.Before(t.blackoutRetryAt) {
		return t.blackoutRetryAt, false, true, nil
	}
	req, err := o.decide(t, now, incumbent)
	if err != nil {
		return time.Time{}, false, false, fmt.Errorf("core: provisioning %s: %w", t.id, err)
	}
	var inst *cloudsim.Instance
	if req.OnDemand {
		inst, err = o.cluster.RequestOnDemand(req.TypeName)
		if err != nil {
			// On-demand requests only fail on unknown types — a policy
			// configuration error, not market state.
			return time.Time{}, false, false, fmt.Errorf("core: provisioning %s: %w", t.id, err)
		}
		o.odDeployments++
	} else {
		inst, err = o.cluster.RequestSpot(req.TypeName, req.MaxPrice, t.onNotice)
		switch cloudsim.MissOf(err) {
		case cloudsim.PriceMiss:
			// Market moved against us inside this tick; retry later.
			t.held = policy.Request{}
			return time.Time{}, true, true, nil
		case cloudsim.CapacityMiss:
			retryAt, wait = o.refused(t, now, req)
			return retryAt, false, wait, nil
		}
		if err != nil {
			// Anything else (unknown type from a custom policy) is a
			// configuration error — surface it instead of spinning.
			return time.Time{}, false, false, fmt.Errorf("core: provisioning %s: %w", t.id, err)
		}
	}
	return time.Time{}, false, false, o.deploy(t, now, req, inst)
}

// decide asks the policy for t's request, or, at the degradation ladder's
// top, takes the cheapest on-demand type without it. The resilience layer
// narrows the policy's choice: a migrating trial avoids the market that just
// revoked it, and under diversified-spot degradation every redeploy avoids
// the trial's last revoker. A hold that has expired or outlived its ladder
// level is dropped first; a live one rides along as TrialInfo.Held.
func (o *Orchestrator) decide(t *trialState, now time.Time, incumbent int) (policy.Request, error) {
	level := o.slack.Level()
	if t.held.TypeName != "" && (!t.heldUntil.IsZero() && !now.Before(t.heldUntil) || level != t.heldLevel) {
		t.held = policy.Request{}
	}
	exclude := t.migrateExclude
	if exclude == "" && level >= resilience.LevelDiversified {
		exclude = t.lastNoticed
	}
	tr := t.tr
	ctx := policy.Context{
		Market: o.cluster,
		Trial: policy.TrialInfo{
			ID:             t.id,
			CompletedSteps: tr.CompletedSteps(),
			MaxSteps:       tr.MaxSteps(),
			Deployments:    t.deployments,
			SpotFailures:   t.spotFailures,
			Incumbent:      t.idx == incumbent,
			Exclude:        exclude,
			ExcludeFamily:  o.familyOf(exclude),
			LastRevoked:    t.lastNoticed,
			Held:           t.held,
		},
		ActiveOnDemand: o.activeOnDemand(),
		SecPerStep:     t.secPerStep,
		RevRate:        o.revRate,
		Tracer:         o.trc,
	}
	if level >= resilience.LevelOnDemand {
		return o.odPool.CheapestOnDemand(ctx)
	}
	return o.pol.Decide(ctx)
}

// refused handles a capacity refusal of t's spot request (a full type, a
// full shared domain or a blackout): retriable market state, but unlike a
// price rejection the failed API call is evidence the market is hostile, so
// it counts toward the trial's spot-failure streak and fallback policies
// can swap to on-demand instead of waiting the window out. The retry pacing
// comes from the resilience strategy: the fixed strategy keeps the
// pollInterval grid; adaptive strategies back off exponentially and may
// exhaust the trial's retry budget, abandoning it (give-up, wait=false)
// rather than spinning through a blackout the deadline cannot absorb.
// Otherwise t holds req until its next attempt at or after the pool's next
// interesting instant, and waits until retryAt.
func (o *Orchestrator) refused(t *trialState, now time.Time, req policy.Request) (retryAt time.Time, wait bool) {
	t.spotFailures++
	t.blackoutRetries++
	t.blackoutStreak++
	attempt := t.blackoutStreak
	if o.trc.Enabled() {
		o.trc.Emit(obs.Event{
			VT:    now,
			Kind:  obs.KindBlackoutRetry,
			Trial: t.id,
			Type:  req.TypeName,
			N:     int64(t.spotFailures),
		})
	}
	dec := o.res.Retry(resilience.RetryContext{
		TrialID:      t.id,
		Attempt:      attempt,
		PollInterval: pollInterval,
	})
	if dec.GiveUp {
		o.trc.Emit(obs.Event{
			VT:    now,
			Kind:  obs.KindGiveUp,
			Trial: t.id,
			Type:  req.TypeName,
			N:     int64(attempt),
		})
		t.gaveUp = true
		t.finished = true
		t.forgetRecoveryState()
		o.waiting = o.waiting[1:]
		o.pending--
		return time.Time{}, false
	}
	delay := dec.Delay
	if delay <= 0 {
		delay = pollInterval
	}
	if o.trc.Enabled() {
		o.trc.Emit(obs.Event{
			VT:    now,
			Kind:  obs.KindBackoff,
			Trial: t.id,
			Type:  req.TypeName,
			A:     delay.Seconds(),
			N:     int64(attempt),
		})
	}
	t.blackoutRetryAt = now.Add(delay)
	if t.held.TypeName == "" {
		// Eq. 1–2 sees no capacity, and the trace prices it reads stand
		// still until the pool's next price tick, so the spot chooser
		// repeats the refused request until then, or until a blackout edge
		// or instance event. A quiescent cluster answers the zero instant,
		// which never ends the hold.
		t.heldUntil, _ = o.cluster.NextInterestingAt(o.pool)
		t.heldLevel = o.slack.Level()
	}
	t.held = req
	return t.blackoutRetryAt, true
}

// deploy starts t's assignment on the instance its request launched:
// periodic-checkpoint cadence, restore from the trial's checkpoint when one
// exists, and boot delay. t leaves the waiting queue.
func (o *Orchestrator) deploy(t *trialState, now time.Time, req policy.Request, inst *cloudsim.Instance) error {
	id, tr := t.id, t.tr
	o.deployments++
	t.deployments++
	t.blackoutRetryAt = time.Time{}
	t.blackoutStreak = 0
	t.migrating, t.migrateExclude = false, ""
	t.gaveUp = false
	t.held = policy.Request{}
	a := &t.seg
	*a = assignment{
		st:            t,
		tr:            tr,
		inst:          inst,
		deployedAt:    now,
		lastCkptAt:    now,
		stepsBefore:   tr.CompletedSteps(),
		lastCkptSteps: tr.CompletedSteps(),
	}
	a.oversized = oversizedFor(tr.CheckpointMB(), inst.Type.CPUs)
	// The resilience strategy decides this assignment's periodic
	// checkpoint cadence from the checkpoint's write cost and the
	// market's observed revocation rate (fixed: periodicCheckpoint;
	// adaptive: Young/Daly, at most periodicCheckpoint).
	ckptSecs := checkpointSetupTime.Seconds() +
		tr.CheckpointMB()/cloudsim.UploadSpeedMBps(inst.Type.CPUs)
	a.cadence = o.res.CheckpointInterval(resilience.CadenceContext{
		TrialID:            id,
		TypeName:           inst.Type.Name,
		CheckpointSecs:     ckptSecs,
		RevocationsPerHour: o.rates.RevocationsPerHour(inst.Type.Name),
		Default:            periodicCheckpoint,
	})
	if a.cadence <= 0 {
		a.cadence = periodicCheckpoint
	}
	deployLabel, deployPrice := "spot", req.MaxPrice
	if req.OnDemand {
		deployLabel, deployPrice = "on-demand", inst.Type.OnDemandPrice
	}
	o.trc.Emit(obs.Event{
		VT:    now,
		Kind:  obs.KindDeploy,
		Trial: id,
		Inst:  inst.ID,
		Type:  inst.Type.Name,
		Label: deployLabel,
		A:     deployPrice,
		N:     int64(tr.CompletedSteps()),
	})
	busy := now.Add(startupDelay)
	// Oversized trials need a baseline recovery point before
	// any revocation can strike: without it, a notice arriving
	// before the first periodic snapshot would have nothing to
	// rewind to.
	if a.oversized && !o.store.Exists(t.ckpt) {
		o.checkpoint(a)
	}
	// Restore from checkpoint when one exists (line 41 deploys
	// either a fresh job or a checkpointed one).
	if o.store.Exists(t.ckpt) {
		blob, d, err := o.store.Get(t.ckpt, inst.Type.CPUs)
		if err != nil {
			return fmt.Errorf("core: restoring %s: %w", id, err)
		}
		if err := tr.Restore(blob); err != nil {
			return fmt.Errorf("core: restoring %s: %w", id, err)
		}
		o.incumbentOK = false
		a.stepsBefore = tr.CompletedSteps()
		a.lastCkptSteps = tr.CompletedSteps()
		busy = busy.Add(d + restoreSetupTime)
		o.restoreSetup += restoreSetupTime
		o.trc.Emit(obs.Event{
			VT:    now,
			Kind:  obs.KindRestore,
			Trial: id,
			Inst:  inst.ID,
			A:     (d + restoreSetupTime).Seconds(),
			N:     int64(tr.CompletedSteps()),
		})
	}
	a.busyAt = busy
	a.lastAdvance = busy
	if t.active == nil {
		o.nActive++
	}
	t.active = a
	o.waiting = o.waiting[1:]
	return nil
}

// stepTarget is the whole-step count at which the trial stops in this
// phase: the phase limit, or the precomputed plateau step if that comes
// first (§III-C's convergence special case).
func (o *Orchestrator) stepTarget(t *trialState) int {
	target := t.limit
	if cs, ok := t.tr.ConvergeStep(convergeWindow, convergeTol); ok && cs < target {
		target = cs
	}
	return target
}

// horizon is the earlier of the assignment's proactive-restart horizon
// (spot only — on-demand instances have no refund to farm) and, for
// oversized trials, its next periodic-checkpoint tick; zero when it has
// neither.
func (a *assignment) horizon() time.Time {
	var next time.Time
	if !a.inst.OnDemand {
		next = a.deployedAt.Add(restartAfter)
	}
	if a.oversized {
		if p := a.lastCkptAt.Add(a.cadence); next.IsZero() || p.Before(next) {
			next = p
		}
	}
	return next
}

// assignmentTrigger computes the next instant at which the assignment needs
// attention: its horizon, or trigger-step completion (or plateau) if that
// comes first. Completion is only priced out as far as the earlier of the
// horizon and bound (when set), so the trial draws step times only as far
// as its actual progress can reach. A completion the bound cuts off lies
// after the bound, which the caller guarantees is no earlier than its
// answer; see nextWakeup.
func (o *Orchestrator) assignmentTrigger(a *assignment, bound time.Time) time.Time {
	next := a.horizon()
	from := a.lastAdvance
	if from.Before(a.busyAt) {
		from = a.busyAt
	}
	limit := time.Duration(math.MaxInt64)
	if !next.IsZero() {
		limit = next.Sub(from)
	}
	if !bound.IsZero() {
		limit = min(limit, bound.Sub(from))
	}
	if limit >= 0 {
		if need, ok := a.tr.TimeToReach(a.inst.Type, o.stepTarget(a.st), limit); ok {
			if t := from.Add(need); next.IsZero() || t.Before(next) {
				next = t
			}
		}
	}
	return next
}

// nextWakeup returns the earliest instant at which anything can happen: an
// assignment trigger, a scheduled cluster event (notice/revocation), or —
// when deployment is blocked on the market — the next price tick. retryAt
// (zero when none) is the caller's deploy retry instant, which it weighs
// against the answer.
//
// Step triggers are priced only up to a bound B: the earliest of retryAt,
// the clock's next event and every live assignment's horizon. Each of those
// is itself a candidate, here or in the caller, so the answer is at most
// B. A trigger priced in full gets the same bits it would unbounded, and
// one the bound cuts off lies about a microsecond after B, so it can
// neither be the minimum nor tie it: the answer, down to which tied time.Time
// wins, is the unbounded one. How far a prefix was built never changes a
// result, because RunFor clamps against cum[stepLimit].
func (o *Orchestrator) nextWakeup(now time.Time, blocked bool, retryAt time.Time) (time.Time, bool) {
	var best time.Time
	found := false
	consider := func(at time.Time) {
		if at.IsZero() {
			return
		}
		if !found || at.Before(best) {
			best, found = at, true
		}
	}
	clockAt, clockOK := o.cluster.Clock().NextEventTime()
	var bound time.Time
	if !o.unboundedWakeup {
		bound = retryAt
		if clockOK && (bound.IsZero() || clockAt.Before(bound)) {
			bound = clockAt
		}
		for _, t := range o.ts {
			if a := t.active; a != nil && !a.dead {
				if h := a.horizon(); !h.IsZero() && (bound.IsZero() || h.Before(bound)) {
					bound = h
				}
			}
		}
	}
	for _, t := range o.ts {
		if a := t.active; a != nil && !a.dead {
			consider(o.assignmentTrigger(a, bound))
		}
	}
	if clockOK {
		consider(clockAt)
	}
	if blocked {
		// A rejected spot request can only succeed once the cluster's
		// observable state changes: the next price tick in a pool market,
		// a pending notice/revocation, or a refund-window boundary.
		if at, ok := o.cluster.NextInterestingAt(o.pool); ok {
			consider(at)
		}
	}
	if found && best.Before(now) {
		best = now
	}
	return best, found
}

// advance runs the trial for the compute time elapsed since the last
// advance, accumulating throughput for the per-segment observation.
func (o *Orchestrator) advance(a *assignment, now time.Time) {
	if a.dead || now.Before(a.busyAt) {
		return
	}
	from := a.lastAdvance
	if from.Before(a.busyAt) {
		from = a.busyAt
	}
	budget := now.Sub(from)
	if budget <= 0 {
		return
	}
	before := a.tr.Progress()
	steps, used := a.tr.RunFor(a.inst.Type, budget, a.st.limit)
	if steps > 0 {
		o.incumbentOK = false
	}
	a.lastAdvance = now
	a.obsTime += used
	a.obsSteps += a.tr.Progress() - before
}

// observeSegment folds the finished segment's measured seconds-per-step
// into the performance matrix (line 36 of Algorithm 1).
func (o *Orchestrator) observeSegment(a *assignment) {
	if a.obsSteps > 1e-9 && a.obsTime > 0 {
		o.perf.observe(a.inst.Type.Name, a.st.col, a.obsTime.Seconds()/a.obsSteps)
	}
	a.obsTime, a.obsSteps = 0, 0
}

// onNotice handles a termination notice (lines 24–26): bring the trial up to
// date and checkpoint it inside the two-minute window — unless the
// checkpoint is too large to fit, in which case the most recent periodic
// checkpoint already in object storage is the recovery point and the work
// since then is lost. The resilience strategy then decides whether to
// migrate: request a replacement in a (policy-chosen, possibly different)
// market immediately, overlapping the restore with the remaining notice
// lead time instead of waiting out the redeploy spacing.
func (o *Orchestrator) onNotice(a *assignment, at time.Time) {
	if a.dead {
		return
	}
	t := a.st
	id := t.id
	o.notices++
	t.spotFailures++
	o.advance(a, at)
	lost := 0
	if a.oversized {
		// Work past the last periodic snapshot rewinds at restore time.
		lost = a.tr.CompletedSteps() - a.lastCkptSteps
		if lost < 0 {
			lost = 0
		}
		o.lostSteps += lost
	}
	o.trc.Emit(obs.Event{
		VT:    at,
		Kind:  obs.KindNotice,
		Trial: id,
		Inst:  a.inst.ID,
		Type:  a.inst.Type.Name,
		B:     float64(lost),
		N:     int64(t.spotFailures),
	})
	if !a.oversized {
		o.checkpoint(a)
	}
	// Feed the revocation-rate estimate: this segment's spot exposure
	// ended in a revocation.
	o.rates.ObserveExposure(a.inst.Type.Name, at.Sub(a.deployedAt))
	o.rates.ObserveRevocation(a.inst.Type.Name)
	o.recordSegment(a)
	a.dead = true
	// The cluster revokes the instance itself two minutes later.
	t.noticedAt = at
	t.lastNoticed = a.inst.Type.Name
	if t.finished {
		return
	}
	o.waiting = append(o.waiting, t)
	act := o.res.OnNotice(resilience.NoticeContext{
		TrialID:  id,
		TypeName: a.inst.Type.Name,
		PoolSize: len(o.pool),
		// A notice at the deploy instant means the market is in a doom
		// window; immediate redeploy there would livelock, so migration
		// is only offered for notices that arrive mid-segment.
		Immediate: !at.After(a.deployedAt),
	})
	if act.Migrate {
		t.migrating, t.migrateExclude = true, act.ExcludeType
		o.migrations++
		o.trc.Emit(obs.Event{
			VT:    at,
			Kind:  obs.KindMigration,
			Trial: id,
			Inst:  a.inst.ID,
			Type:  a.inst.Type.Name,
			Label: act.ExcludeType,
			A:     cloudsim.NoticeLeadTime.Seconds(),
		})
	}
}

// checkpoint writes the trial's state to object storage. The encode reuses
// one orchestrator-owned buffer across the campaign (the store copies on
// PutSized), so checkpointing never allocates in steady state.
func (o *Orchestrator) checkpoint(a *assignment) {
	o.ckptBuf = a.tr.AppendCheckpoint(o.ckptBuf[:0])
	o.store.PutSized(a.st.ckpt, o.ckptBuf, a.tr.CheckpointMB(), a.inst.Type.CPUs)
	o.ckptSetup += checkpointSetupTime
	a.lastCkptAt = o.cluster.Clock().Now()
	a.lastCkptSteps = a.tr.CompletedSteps()
	o.trc.Emit(obs.Event{
		VT:    a.lastCkptAt,
		Kind:  obs.KindCheckpoint,
		Trial: a.tr.ID(),
		Inst:  a.inst.ID,
		A:     a.tr.CheckpointMB(),
		B:     a.cadence.Seconds(),
		N:     int64(a.tr.CompletedSteps()),
	})
}

// endAssignment terminates the instance (user-initiated) and records the
// step segment.
func (o *Orchestrator) endAssignment(a *assignment) {
	if a.dead {
		return
	}
	o.recordSegment(a)
	a.dead = true
	if !a.inst.OnDemand {
		// Survived spot time drives the revocation-rate denominator just
		// like revoked time does — without it the estimator would see
		// only doomed segments and overshoot the rate.
		o.rates.ObserveExposure(a.inst.Type.Name, o.cluster.Clock().Now().Sub(a.deployedAt))
		// A spot segment that ended without a notice is evidence the
		// market is livable; clear the trial's failure streak.
		if n := a.st.spotFailures; n > 0 {
			o.trc.Emit(obs.Event{
				VT:    o.cluster.Clock().Now(),
				Kind:  obs.KindStreakClear,
				Trial: a.st.id,
				N:     int64(n),
			})
		}
		a.st.spotFailures = 0
	}
	if a.inst.Running() {
		// Termination failures would mean double bookkeeping bugs.
		if err := o.cluster.Terminate(a.inst.ID); err != nil {
			panic(fmt.Sprintf("core: terminating %s: %v", a.inst.ID, err))
		}
	}
}

func (o *Orchestrator) recordSegment(a *assignment) {
	o.observeSegment(a)
	steps := a.tr.CompletedSteps() - a.stepsBefore
	if steps < 0 {
		steps = 0
	}
	o.segments = append(o.segments, SegmentRecord{InstanceID: a.inst.ID, TrialID: a.tr.ID(), Steps: steps})
	o.trc.Emit(obs.Event{
		VT:    o.cluster.Clock().Now(),
		Kind:  obs.KindSegment,
		Trial: a.tr.ID(),
		Inst:  a.inst.ID,
		N:     int64(steps),
	})
}

// activeOnDemand counts live assignments on on-demand capacity (fed to
// policies so fleet-level pins stay bounded).
func (o *Orchestrator) activeOnDemand() int {
	n := 0
	for _, t := range o.ts {
		if a := t.active; a != nil && !a.dead && a.inst.OnDemand {
			n++
		}
	}
	return n
}

// incumbentBest returns the submission index of the trial whose last
// observed metric currently leads the campaign, or -1 before any trial has
// reported a point. MixedFleet-style policies pin it on reliable capacity.
// Delegates to the engine-wide leaderboard rule (search.BestIndexByLast)
// through the memoized LastPoint accessor — this runs at every deployment
// decision, so it must not pay for the full tuner-facing status snapshot —
// and rescans only after some trial's completed-step count changed: a
// capacity spin retries many times with no trial moving.
func (o *Orchestrator) incumbentBest() int {
	if !o.incumbentOK {
		o.incumbent = search.BestIndexByLast(len(o.ts), func(i int) (float64, bool) {
			p, ok := o.ts[i].tr.LastPoint()
			return p.Value, ok
		})
		o.incumbentOK = true
	}
	return o.incumbent
}
