package core

import (
	"math"
	"testing"
	"time"

	"spottune/internal/cloudsim"
	"spottune/internal/market"
	"spottune/internal/obs"
	"spottune/internal/resilience"
	"spottune/internal/simclock"
	"spottune/internal/trial"
)

// runTraced runs one campaign with a flight recorder attached and returns
// the report plus the recording.
func runTraced(t *testing.T, w *testWorld, trials []*trial.Replay, cfg Config, pool []string) (*Report, *obs.Recording) {
	t.Helper()
	rec := obs.NewRecording(obs.Meta{Tuner: "spottune", Policy: "test", Workload: "synthetic", Seed: 1})
	cfg.Tracer = rec
	rep, err := w.orchestrator(t, pool, 7, trials, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep, rec
}

// TestFixedStrategyMatchesDefault pins the compat contract behind the whole
// resilience layer: a campaign configured with an explicit "fixed" strategy
// is event-for-event identical — same kinds, same virtual instants, same
// payloads, same sequence numbers — to one with no strategy configured at
// all. This is the bit-for-bit guarantee the golden suites lean on.
func TestFixedStrategyMatchesDefault(t *testing.T) {
	run := func(res resilience.Strategy) *obs.Recording {
		w := newWorld(t, true) // spiky: exercise the notice path too
		trials := mkTrials(t, w, 3, 400, 25)
		cfg := orchCfg(0.7)
		cfg.Resilience = res
		_, rec := runTraced(t, w, trials, cfg, []string{"slow", "fast"})
		return rec
	}
	def := run(nil).Events()
	fix := run(resilience.Default()).Events()
	if len(def) != len(fix) {
		t.Fatalf("default trace has %d events, fixed has %d", len(def), len(fix))
	}
	for i := range def {
		if def[i] != fix[i] {
			t.Fatalf("traces diverge at event %d:\n  default: %+v\n  fixed:   %+v", i, def[i], fix[i])
		}
	}
}

// TestBlackoutRetryBookkeeping covers the retry ledger end to end: a
// campaign opening under a region-wide blackout must report per-trial retry
// counts that reconcile exactly with the trace, and every trial's pacing
// state must drain once trials deploy or finish.
func TestBlackoutRetryBookkeeping(t *testing.T) {
	w := newWorld(t, false)
	if err := w.cluster.AddBlackout(cloudsim.Blackout{
		From: t0,
		To:   t0.Add(20 * time.Minute),
	}); err != nil {
		t.Fatal(err)
	}
	trials := mkTrials(t, w, 2, 100, 10)
	rec := obs.NewRecording(obs.Meta{Tuner: "spottune", Policy: "test", Workload: "synthetic", Seed: 1})
	cfg := orchCfg(1.0)
	cfg.Tracer = rec
	orch := w.orchestrator(t, []string{"slow", "fast"}, 7, trials, cfg)
	rep, err := orch.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BlackoutRetries) == 0 {
		t.Fatal("opening blackout produced no reported retries")
	}
	ids := map[string]bool{}
	for _, tr := range trials {
		ids[tr.ID()] = true
	}
	fromTrace := map[string]int{}
	for _, e := range rec.Events() {
		if e.Kind == obs.KindBlackoutRetry {
			fromTrace[e.Trial]++
		}
	}
	for id, n := range rep.BlackoutRetries {
		if !ids[id] {
			t.Errorf("retries reported for unknown trial %q", id)
		}
		if fromTrace[id] != n {
			t.Errorf("trial %s: report says %d retries, trace shows %d", id, n, fromTrace[id])
		}
	}
	for id, n := range fromTrace {
		if rep.BlackoutRetries[id] != n {
			t.Errorf("trial %s: trace shows %d retries, report says %d", id, n, rep.BlackoutRetries[id])
		}
	}
	// The fixed strategy never gives up.
	if len(rep.GaveUp) != 0 {
		t.Errorf("fixed strategy gave up on %v", rep.GaveUp)
	}
	// Pacing state is bounded: every trial's recovery state drains once the
	// campaign settles.
	retryAt, streak, migrate := 0, 0, 0
	for _, st := range orch.ts {
		if !st.blackoutRetryAt.IsZero() {
			retryAt++
		}
		if st.blackoutStreak != 0 {
			streak++
		}
		if st.migrating {
			migrate++
		}
	}
	if retryAt != 0 {
		t.Errorf("blackoutRetryAt leaked %d entries", retryAt)
	}
	if streak != 0 {
		t.Errorf("blackoutStreak leaked %d entries", streak)
	}
	if migrate != 0 {
		t.Errorf("migrate leaked %d entries", migrate)
	}
}

// TestAdaptiveGiveUpUnderBlackout: with a blackout far longer than the
// retry budget's backoff can outlast, the adaptive strategy must abandon
// trials through the explicit give-up path — visible in the trace with
// attempt counts equal to the budget — rather than spin.
func TestAdaptiveGiveUpUnderBlackout(t *testing.T) {
	w := newWorld(t, false)
	if err := w.cluster.AddBlackout(cloudsim.Blackout{
		From: t0,
		To:   t0.Add(3 * time.Hour),
	}); err != nil {
		t.Fatal(err)
	}
	budget := resilience.RetryBudget
	res, err := resilience.New(resilience.AdaptiveName, resilience.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	trials := mkTrials(t, w, 2, 100, 10)
	cfg := orchCfg(1.0)
	cfg.Resilience = res
	rep, rec := runTraced(t, w, trials, cfg, []string{"slow", "fast"})
	giveUps := 0
	for _, e := range rec.Events() {
		switch e.Kind {
		case obs.KindGiveUp:
			giveUps++
			if e.N != int64(budget) {
				t.Errorf("give-up for %s claims %d attempts, budget is %d", e.Trial, e.N, budget)
			}
		case obs.KindBackoff:
			if e.A <= 0 {
				t.Errorf("backoff event with non-positive delay: %+v", e)
			}
		}
	}
	if giveUps == 0 {
		t.Fatalf("no give-up events despite a 3h blackout and a %d-attempt budget", budget)
	}
	// Give-ups surface in the report: every trial the campaign ended on a
	// give-up is listed.
	for _, id := range rep.GaveUp {
		if rep.BlackoutRetries[id] < budget {
			t.Errorf("gave-up trial %s has only %d retries, budget is %d", id, rep.BlackoutRetries[id], budget)
		}
	}
}

// TestAdaptiveMigratesOnNotice: under the adaptive strategy, a revocation
// notice on a multi-market pool triggers migration — a replacement deploy
// requested inside the notice window, excluding the dying market — and the
// campaign still completes every trial.
func TestAdaptiveMigratesOnNotice(t *testing.T) {
	// A dedicated price cliff: "slow" is flat-cheap through t0 — so the
	// Eq. 1 trailing-average provisioner starts there — then jumps to 1.0
	// ten minutes in and stays up for hours. The first deployment is
	// guaranteed a notice, with "fast" available as the migration target.
	w := newWorld(t, false)
	gridStart := t0.Add(-2 * time.Hour)
	cliff := &market.Trace{Type: "slow", Records: []market.Record{
		{At: gridStart, Price: 0.02},
		{At: t0.Add(10 * time.Minute), Price: 1.0},
		{At: t0.Add(3 * time.Hour), Price: 0.02},
	}}
	fast := &market.Trace{Type: "fast", Records: []market.Record{{At: gridStart, Price: 0.2}}}
	traces := market.TraceSet{"slow": cliff, "fast": fast}
	if err := traces.Validate(); err != nil {
		t.Fatal(err)
	}
	clk := simclock.NewVirtual(t0)
	cluster, err := cloudsim.NewCluster(clk, w.cat, traces)
	if err != nil {
		t.Fatal(err)
	}
	w.clk, w.cluster, w.store = clk, cluster, cloudsim.NewObjectStore()
	for _, name := range []string{"slow", "fast"} {
		it, _ := w.cat.Lookup(name)
		g, err := market.NewGrid(it, traces[name], gridStart, t0.Add(72*time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		w.grids[name] = g
	}
	res, err := resilience.New(resilience.AdaptiveName, resilience.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	trials := mkTrials(t, w, 2, 600, 50)
	cfg := orchCfg(1.0)
	cfg.Resilience = res
	rep, rec := runTraced(t, w, trials, cfg, []string{"slow", "fast"})
	if rep.Notices == 0 {
		t.Fatal("price cliff produced no notices; fixture broken")
	}
	if rep.Migrations == 0 {
		t.Fatal("adaptive strategy never migrated despite notices")
	}
	for _, tr := range trials {
		if tr.CompletedSteps() != tr.MaxSteps() {
			t.Fatalf("trial %s stalled at %d/%d", tr.ID(), tr.CompletedSteps(), tr.MaxSteps())
		}
	}
	// Each migration's replacement deploy honors the exclusion: the next
	// deploy of that trial lands on a different market.
	evs := rec.Events()
	migrations := 0
	for i, e := range evs {
		if e.Kind != obs.KindMigration {
			continue
		}
		migrations++
		for _, f := range evs[i+1:] {
			if f.Kind == obs.KindDeploy && f.Trial == e.Trial {
				if e.Label != "" && f.Type == e.Label {
					t.Errorf("trial %s migrated away from %s but redeployed there", e.Trial, e.Label)
				}
				break
			}
		}
	}
	if migrations != rep.Migrations {
		t.Errorf("trace holds %d migrations, report says %d", migrations, rep.Migrations)
	}
}

// TestDeadlineDegradationEscalatesToOnDemand: a deadline the spot plan
// cannot possibly meet forces the ladder to on-demand before the first
// deployment, so the whole campaign runs on reliable capacity and the
// report records the missed deadline honestly.
func TestDeadlineDegradationEscalatesToOnDemand(t *testing.T) {
	w := newWorld(t, false)
	trials := mkTrials(t, w, 2, 200, 20)
	cfg := orchCfg(1.0)
	cfg.Deadline = time.Minute // ~27min of work: hopeless from the start
	rep, rec := runTraced(t, w, trials, cfg, []string{"slow", "fast"})
	if rep.DegradationLevel != resilience.LevelOnDemand {
		t.Fatalf("degradation level %d, want on-demand (%d)", rep.DegradationLevel, resilience.LevelOnDemand)
	}
	if rep.DegradationTransitions == 0 {
		t.Fatal("no degradation transitions recorded")
	}
	if !rep.DeadlineMissed {
		t.Fatal("an impossible deadline was reported as met")
	}
	if rep.OnDemandDeployments != rep.Deployments {
		t.Errorf("%d of %d deployments on-demand, want all once the ladder hit the top",
			rep.OnDemandDeployments, rep.Deployments)
	}
	// Ladder events in the trace are strictly increasing and match the
	// report.
	last := int64(-1)
	count := 0
	for _, e := range rec.Events() {
		if e.Kind != obs.KindDegradation {
			continue
		}
		count++
		if e.N <= last {
			t.Errorf("ladder went from %d to %d", last, e.N)
		}
		last = e.N
	}
	if count != rep.DegradationTransitions || last != int64(rep.DegradationLevel) {
		t.Errorf("trace ladder (%d events, final %d) vs report (%d transitions, level %d)",
			count, last, rep.DegradationTransitions, rep.DegradationLevel)
	}
	// No deadline, no ladder: the same campaign unconstrained stays at spot.
	w2 := newWorld(t, false)
	trials2 := mkTrials(t, w2, 2, 200, 20)
	rep2, _ := runTraced(t, w2, trials2, orchCfg(1.0), []string{"slow", "fast"})
	if rep2.DegradationLevel != resilience.LevelSpot || rep2.DegradationTransitions != 0 {
		t.Errorf("unconstrained campaign degraded: level %d, %d transitions",
			rep2.DegradationLevel, rep2.DegradationTransitions)
	}
	if rep2.DeadlineMissed {
		t.Error("unconstrained campaign reported a missed deadline")
	}
}

// TestAdaptiveCadenceBoundsLostWork is the core-level metamorphic check:
// on a revocation-heavy market, every step lost at a notice is bounded by
// the work an active cadence window can hold, and the campaign-level lost
// total reconciles with the per-notice trace payloads. The spiky fixture
// revokes the oversized trial mid-cadence, so at least one lossy notice
// reaches the bound.
func TestAdaptiveCadenceBoundsLostWork(t *testing.T) {
	w := newWorld(t, true)
	big := mkBigTrial(t, w, 1200, 50)
	res, err := resilience.New(resilience.AdaptiveName, resilience.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := orchCfg(1.0)
	cfg.Resilience = cadenceStrategy{res, 5 * time.Minute}
	rep, rec := runTraced(t, w, []*trial.Replay{big}, cfg, []string{"slow"})
	if big.CompletedSteps() != big.MaxSteps() {
		t.Fatalf("oversized trial stalled at %d/%d", big.CompletedSteps(), big.MaxSteps())
	}
	if rep.Notices == 0 {
		t.Fatal("spiky market produced no notices")
	}
	// Replay the trace: at each lossy notice, the exposure since the last
	// protection point fits the active cadence plus one poll tick.
	var pollSecs float64
	lastProtect := map[string]time.Time{}
	cadence := map[string]float64{}
	lost, checked := 0, 0
	for _, e := range rec.Events() {
		switch e.Kind {
		case obs.KindCampaignStart:
			pollSecs = e.B
		case obs.KindDeploy, obs.KindRestore:
			lastProtect[e.Trial] = e.VT
		case obs.KindCheckpoint:
			lastProtect[e.Trial] = e.VT
			if e.B > 0 {
				cadence[e.Trial] = e.B
			}
		case obs.KindNotice:
			if e.B <= 0 {
				continue
			}
			lost += int(e.B)
			cad := cadence[e.Trial]
			if cad <= 0 {
				continue
			}
			checked++
			if exposed := e.VT.Sub(lastProtect[e.Trial]).Seconds(); exposed > cad+pollSecs+1e-6 {
				t.Errorf("notice at %v lost %d steps after %.0fs unprotected (cadence %.0fs)",
					e.VT, int(e.B), exposed, cad)
			}
		}
	}
	if pollSecs <= 0 {
		t.Fatal("campaign-start event carries no poll-interval payload")
	}
	if checked == 0 {
		t.Fatal("no notice lost work under an active cadence; the exposure bound never ran")
	}
	if lost != rep.LostSteps {
		t.Errorf("trace notices lost %d steps, report says %d", lost, rep.LostSteps)
	}
}

// TestRemainingSecsBitStable pins the deadline ladder's slack projection to
// one value per state: the per-trial terms are summed in submission order,
// so repeated calls over the same state agree to the last bit. The terms mix
// magnitudes so that any other summation order rounds differently.
func TestRemainingSecsBitStable(t *testing.T) {
	w := newWorld(t, false)
	trials := mkTrials(t, w, 24, 400, 20)
	orch := w.orchestrator(t, []string{"slow", "fast"}, 7, trials, orchCfg(0.7))
	for i, st := range orch.ts {
		st.inRound, st.limit = true, 50+17*i
		orch.perf.observe("fast", st.col, 0.1+math.Pow(3.7, float64(i%9))*1e-3/float64(i+1))
	}
	orch.ts[5].finished = true
	want := orch.remainingSecs()
	if want <= 0 {
		t.Fatalf("projection %v, want positive", want)
	}
	for k := 0; k < 500; k++ {
		if got := orch.remainingSecs(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: %x, first call %x", k, math.Float64bits(got), math.Float64bits(want))
		}
	}
}
