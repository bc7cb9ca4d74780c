package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"spottune/internal/cloudsim"
	"spottune/internal/earlycurve"
	"spottune/internal/market"
	"spottune/internal/policy"
	"spottune/internal/revpred"
	"spottune/internal/search"
	"spottune/internal/simclock"
	"spottune/internal/trial"
)

var t0 = time.Date(2017, 5, 4, 0, 0, 0, 0, time.UTC)

// constPerf is a noise-free perf model with per-instance speed.
type constPerf map[string]float64

func (p constPerf) Steps(it market.InstanceType, _ string) trial.StepTimes {
	d := time.Duration(p[it.Name] * float64(time.Second))
	return func(int) time.Duration { return d }
}

// testWorld is a deterministic two-market fixture: "slow" (cheap, flat at
// 0.02) and "fast" (pricier, flat at 0.2, 4x faster). The optional spiky
// flag gives "slow" a 1.0 spike for 5 of every 25 minutes, so near-market
// bids get revoked regularly.
type testWorld struct {
	clk     *simclock.Virtual
	cluster *cloudsim.Cluster
	store   *cloudsim.ObjectStore
	grids   map[string]*market.Grid
	preds   map[string]revpred.Predictor
	perf    constPerf
	cat     *market.Catalog
}

func newWorld(t *testing.T, spiky bool) *testWorld {
	t.Helper()
	return newWorldAt(t, spiky, t0)
}

// newWorldAt is newWorld with the clock started at start, t0 in any zone:
// the markets stay in UTC.
func newWorldAt(t *testing.T, spiky bool, start time.Time) *testWorld {
	t.Helper()
	cat := market.MustNewCatalog([]market.InstanceType{
		{Name: "slow", CPUs: 2, MemoryGB: 8, OnDemandPrice: 0.1},
		{Name: "fast", CPUs: 16, MemoryGB: 64, OnDemandPrice: 0.8},
	})
	gridStart := t0.Add(-2 * time.Hour)
	end := t0.Add(72 * time.Hour)

	slowRecs := []market.Record{{At: gridStart, Price: 0.02}}
	if spiky {
		for cycle := gridStart; cycle.Before(end); cycle = cycle.Add(25 * time.Minute) {
			slowRecs = append(slowRecs,
				market.Record{At: cycle.Add(20 * time.Minute), Price: 1.0},
				market.Record{At: cycle.Add(25*time.Minute - time.Minute), Price: 0.02},
			)
		}
		slowRecs = dedupeSorted(slowRecs)
	}
	slow := &market.Trace{Type: "slow", Records: slowRecs}
	fast := &market.Trace{Type: "fast", Records: []market.Record{{At: gridStart, Price: 0.2}}}
	traces := market.TraceSet{"slow": slow, "fast": fast}
	if err := traces.Validate(); err != nil {
		t.Fatal(err)
	}

	clk := simclock.NewVirtual(start)
	cluster, err := cloudsim.NewCluster(clk, cat, traces)
	if err != nil {
		t.Fatal(err)
	}
	grids := map[string]*market.Grid{}
	for _, name := range []string{"slow", "fast"} {
		it, _ := cat.Lookup(name)
		g, err := market.NewGrid(it, traces[name], gridStart, end)
		if err != nil {
			t.Fatal(err)
		}
		grids[name] = g
	}
	return &testWorld{
		clk:     clk,
		cluster: cluster,
		store:   cloudsim.NewObjectStore(),
		grids:   grids,
		preds: map[string]revpred.Predictor{
			"slow": revpred.ConstantPredictor(0),
			"fast": revpred.ConstantPredictor(0),
		},
		perf: constPerf{"slow": 4.0, "fast": 1.0},
		cat:  cat,
	}
}

func dedupeSorted(recs []market.Record) []market.Record {
	out := recs[:1]
	for _, r := range recs[1:] {
		if r.At.After(out[len(out)-1].At) {
			out = append(out, r)
		}
	}
	return out
}

// mkTrials builds n synthetic trials with distinct final metrics; trial i's
// final is 0.1·(i+1), so trial 0 is the true best.
func mkTrials(t *testing.T, w *testWorld, n, maxSteps, every int) []*trial.Replay {
	t.Helper()
	var out []*trial.Replay
	for i := 0; i < n; i++ {
		var pts []earlycurve.MetricPoint
		plateau := 0.1 * float64(i+1)
		for s := every; s <= maxSteps; s += every {
			pts = append(pts, earlycurve.MetricPoint{
				Step:  s,
				Value: 1/(0.05*float64(s)+1.2) + plateau,
			})
		}
		tr, err := trial.NewReplay(
			idFor(i), maxSteps, pts, w.perf, 10)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

func idFor(i int) string { return string(rune('a'+i)) + "-hp" }

// orchestrator wires a campaign over the world with the paper's Eq. 1–2
// provisioner: the spottune policy over the world's grids and predictors.
func (w *testWorld) orchestrator(t *testing.T, pool []string, seed uint64, trials []*trial.Replay, cfg Config) *Orchestrator {
	t.Helper()
	orch, err := NewPolicyOrchestrator(w.cluster, w.store,
		worldPolicy(t, w, policy.SpotTuneName, pool, seed), pool, trials, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return orch
}

func TestPerfMatrixInitAndObserve(t *testing.T) {
	w := newWorld(t, false)
	m := NewPerfMatrix(w.cat, 16, []string{"hp"})
	hp := 0
	if got := m.get("slow", hp); got != 8 { // 16/2 cpus
		t.Fatalf("init M[slow] = %v, want 8", got)
	}
	if got := m.get("fast", hp); got != 1 { // 16/16
		t.Fatalf("init M[fast] = %v, want 1", got)
	}
	m.observe("slow", hp, 4.0)
	if got := m.get("slow", hp); got != 4.0 {
		t.Fatalf("first observation M = %v, want 4", got)
	}
	m.observe("slow", hp, 2.0)
	if got := m.get("slow", hp); got != 3.0 { // EWMA 0.5
		t.Fatalf("EWMA M = %v, want 3", got)
	}
	m.observe("slow", hp, math.NaN())
	if got := m.get("slow", hp); got != 3.0 {
		t.Fatal("NaN observation was folded in")
	}
	if len(m.Snapshot()) != 1 {
		t.Fatalf("snapshot size %d", len(m.Snapshot()))
	}
}

func TestValidatePoolWiring(t *testing.T) {
	w := newWorld(t, false)
	if err := ValidatePoolWiring([]string{"slow", "fast"}, w.grids, w.preds); err != nil {
		t.Errorf("complete wiring rejected: %v", err)
	}
	if err := ValidatePoolWiring([]string{"nope"}, w.grids, w.preds); err == nil {
		t.Error("missing grid accepted")
	}
	delete(w.preds, "fast")
	if err := ValidatePoolWiring([]string{"slow", "fast"}, w.grids, w.preds); err == nil {
		t.Error("missing predictor accepted")
	}
}

func orchCfg(theta float64) Config {
	return Config{
		Theta:         theta,
		MCnt:          2,
		MaxConcurrent: 1,
	}
}

func TestOrchestratorFullTheta(t *testing.T) {
	w := newWorld(t, false)
	trials := mkTrials(t, w, 4, 100, 10)
	rep, err := w.orchestrator(t, []string{"slow", "fast"}, 7, trials, orchCfg(1.0)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best != idFor(0) {
		t.Fatalf("best = %q, want %q", rep.Best, idFor(0))
	}
	for _, tr := range trials {
		if tr.CompletedSteps() != tr.MaxSteps() {
			t.Fatalf("trial %s stopped at %d/%d", tr.ID(), tr.CompletedSteps(), tr.MaxSteps())
		}
	}
	// Flat cheap market with near-market bids never revokes here.
	if rep.Notices != 0 || rep.Revocations != 0 {
		t.Fatalf("unexpected revocations: %d notices %d revocations", rep.Notices, rep.Revocations)
	}
	if rep.NetCost <= 0 {
		t.Fatal("campaign cost not positive")
	}
	if rep.TotalSteps != 4*100 {
		t.Fatalf("total steps %d, want 400", rep.TotalSteps)
	}
}

func TestOrchestratorEarlyShutdownSavesSteps(t *testing.T) {
	w := newWorld(t, false)
	trials := mkTrials(t, w, 4, 100, 10)
	rep, err := w.orchestrator(t, []string{"slow", "fast"}, 7, trials, orchCfg(0.5)).Run()
	if err != nil {
		t.Fatal(err)
	}
	// MCnt=2: the two best continue to 100, the rest stop at 50.
	full, partial := 0, 0
	for _, tr := range trials {
		switch tr.CompletedSteps() {
		case 100:
			full++
		case 50:
			partial++
		default:
			t.Fatalf("trial %s at unexpected %d steps", tr.ID(), tr.CompletedSteps())
		}
	}
	if full != 2 || partial != 2 {
		t.Fatalf("full=%d partial=%d, want 2/2", full, partial)
	}
	if rep.TotalSteps != 2*100+2*50 {
		t.Fatalf("total steps %d", rep.TotalSteps)
	}
	if rep.Best != idFor(0) {
		t.Fatalf("best = %q", rep.Best)
	}
	// The curves are synthetic members of the EarlyCurve family, so the
	// ranking must be exact.
	if rep.Ranked[0] != idFor(0) || rep.Ranked[1] != idFor(1) {
		t.Fatalf("ranking %v", rep.Ranked)
	}
}

func TestOrchestratorHourlyRestart(t *testing.T) {
	w := newWorld(t, false)
	// One long trial: 4 s/step × 2000 steps ≈ 2.2h on slow.
	trials := mkTrials(t, w, 1, 2000, 100)
	rep, err := w.orchestrator(t, []string{"slow", "fast"}, 7, trials, orchCfg(1.0)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deployments < 3 {
		t.Fatalf("deployments = %d, want >= 3 (hourly restarts)", rep.Deployments)
	}
	if rep.CheckpointTime <= 0 || rep.RestoreTime <= 0 {
		t.Fatalf("transfer times %v/%v", rep.CheckpointTime, rep.RestoreTime)
	}
	if trials[0].CompletedSteps() != 2000 {
		t.Fatalf("trial at %d steps", trials[0].CompletedSteps())
	}
	// User-terminated hourly restarts never refund.
	if rep.Refund != 0 || rep.FreeSteps != 0 {
		t.Fatalf("unexpected refunds on flat market: %v, %d", rep.Refund, rep.FreeSteps)
	}
}

func TestOrchestratorSurvivesRevocations(t *testing.T) {
	w := newWorld(t, true) // spiky cheap market
	trials := mkTrials(t, w, 2, 900, 50)
	// Pool restricted to the spiky market so near-market bids must face
	// the periodic spike.
	rep, err := w.orchestrator(t, []string{"slow"}, 7, trials, orchCfg(1.0)).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		if tr.CompletedSteps() != tr.MaxSteps() {
			t.Fatalf("trial %s incomplete at %d", tr.ID(), tr.CompletedSteps())
		}
	}
	if rep.Notices == 0 || rep.Revocations == 0 {
		t.Fatalf("spiky market produced no revocations (notices=%d)", rep.Notices)
	}
	if rep.FreeSteps == 0 {
		t.Fatal("no free steps despite first-hour revocations")
	}
	if rep.Refund <= 0 {
		t.Fatal("no refund despite first-hour revocations")
	}
	if rep.FreeSteps > rep.TotalSteps {
		t.Fatalf("free steps %d > total %d", rep.FreeSteps, rep.TotalSteps)
	}
	if rep.RefundFraction() < 0 || rep.RefundFraction() > 1 {
		t.Fatalf("refund fraction %v", rep.RefundFraction())
	}
	if rep.Best != idFor(0) {
		t.Fatalf("best = %q", rep.Best)
	}
}

// TestIncumbentMemoMatchesScan steps a revocation-heavy campaign and checks
// after every Step that the memoized incumbent is what a fresh scan of
// every trial's last point returns. Two trials share the spiky market: an
// oversized one, which rewinds to its last periodic checkpoint at every
// restore after a notice, with a metric that alternates between 0.4 and
// 0.6 from step to step, and a small one whose metric holds at 0.5. A
// restore that rewinds the oversized trial by an odd number of steps hands
// the lead over with no trial advancing, so the memo must be cleared there
// as well as after every advance.
func TestIncumbentMemoMatchesScan(t *testing.T) {
	w := newWorld(t, true)
	const steps = 1200
	var zigzag, flat []earlycurve.MetricPoint
	for s := 1; s <= steps; s++ {
		zigzag = append(zigzag, earlycurve.MetricPoint{Step: s, Value: 0.4 + 0.2*float64(s%2)})
		flat = append(flat, earlycurve.MetricPoint{Step: s, Value: 0.5})
	}
	big, err := trial.NewReplay("big-hp", steps, zigzag, w.perf, 12*1024)
	if err != nil {
		t.Fatal(err)
	}
	small, err := trial.NewReplay("small-hp", steps, flat, w.perf, 10)
	if err != nil {
		t.Fatal(err)
	}
	trials := []*trial.Replay{big, small}
	cfg := orchCfg(1.0)
	cfg.MaxConcurrent = 2
	orch := w.orchestrator(t, []string{"slow"}, 7, trials, cfg)
	fresh := func() int {
		return search.BestIndexByLast(len(trials), func(i int) (float64, bool) {
			p, ok := trials[i].LastPoint()
			return p.Value, ok
		})
	}
	handovers, prev := 0, -1
	for step := 0; ; step++ {
		next, done, err := orch.Step()
		if err != nil {
			t.Fatal(err)
		}
		got, want := orch.incumbentBest(), fresh()
		if got != want {
			t.Fatalf("step %d: memoized incumbent %d, scan says %d", step, got, want)
		}
		if got != prev {
			handovers++
			prev = got
		}
		if done {
			break
		}
		w.clk.AdvanceTo(next)
	}
	if rep := orch.Report(); rep.LostSteps == 0 || handovers < 3 {
		t.Fatalf("%d steps rewound at restores and %d changes of lead; the fixture no longer moves the memo", rep.LostSteps, handovers)
	}
}

// TestOrchestratorValidation covers the constructor's cluster and trial
// inputs: a campaign needs a cluster and at least one trial, each once.
func TestOrchestratorValidation(t *testing.T) {
	w := newWorld(t, false)
	pool := []string{"slow", "fast"}
	trials := mkTrials(t, w, 2, 100, 10)
	pol := worldPolicy(t, w, policy.SpotTuneName, pool, 7)
	if _, err := NewPolicyOrchestrator(nil, w.store, pol, pool, trials, Config{}); err == nil {
		t.Error("nil cluster accepted")
	}
	if _, err := NewPolicyOrchestrator(w.cluster, w.store, pol, pool, nil, Config{}); err == nil {
		t.Error("no trials accepted")
	}
	dup := []*trial.Replay{trials[0], trials[0]}
	if _, err := NewPolicyOrchestrator(w.cluster, w.store, pol, pool, dup, Config{}); err == nil {
		t.Error("duplicate trials accepted")
	}
}

func TestReportDerivedMetrics(t *testing.T) {
	r := &Report{
		JCT:            2 * time.Hour,
		GrossCost:      1.0,
		Refund:         0.4,
		NetCost:        0.6,
		TotalSteps:     100,
		FreeSteps:      40,
		CheckpointTime: 3 * time.Minute,
		RestoreTime:    3 * time.Minute,
	}
	if got := r.FreeStepFraction(); got != 0.4 {
		t.Errorf("FreeStepFraction = %v", got)
	}
	if got := r.RefundFraction(); got != 0.4 {
		t.Errorf("RefundFraction = %v", got)
	}
	if got := r.OverheadFraction(); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("OverheadFraction = %v", got)
	}
	if got := r.PCR(); math.Abs(got-1/(2*0.6)) > 1e-12 {
		t.Errorf("PCR = %v", got)
	}
	empty := &Report{}
	if empty.FreeStepFraction() != 0 || empty.RefundFraction() != 0 ||
		empty.OverheadFraction() != 0 || empty.PCR() != 0 {
		t.Error("zero-value report not all-zero")
	}
}

func TestTrueBestAndFinals(t *testing.T) {
	w := newWorld(t, false)
	trials := mkTrials(t, w, 3, 100, 10)
	best, val := TrueBest(trials)
	if best != idFor(0) {
		t.Fatalf("TrueBest = %s", best)
	}
	finals := TrueFinals(trials)
	if len(finals) != 3 || finals[best] != val {
		t.Fatalf("TrueFinals = %v", finals)
	}
}

// TestStepMatchesRun pins the resumable campaign: stepped by hand, with the
// clock advanced to each returned target, a campaign on the spiky market
// (notices and revocations fire during the advances) produces the report
// Run does. Every target lies after the clock's instant, the report appears
// only once Step reports done, and a finished campaign stays done.
func TestStepMatchesRun(t *testing.T) {
	cfg := orchCfg(0.5)
	wa := newWorld(t, true)
	want, err := wa.orchestrator(t, []string{"slow"}, 7, mkTrials(t, wa, 3, 900, 50), cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if want.Notices == 0 {
		t.Fatal("fixture produced no notices; the advances would fire nothing")
	}

	wb := newWorld(t, true)
	orch := wb.orchestrator(t, []string{"slow"}, 7, mkTrials(t, wb, 3, 900, 50), cfg)
	steps := 0
	for {
		next, done, err := orch.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		steps++
		if orch.Report() != nil {
			t.Fatalf("step %d: report before the campaign is done", steps)
		}
		if !next.After(wb.clk.Now()) {
			t.Fatalf("step %d: target %v not after the clock's %v", steps, next, wb.clk.Now())
		}
		wb.clk.AdvanceTo(next)
	}
	// One return per turn that advanced time, plus the settle.
	if steps < 2 || steps > want.LoopIterations+1 {
		t.Fatalf("%d steps for %d loop turns", steps, want.LoopIterations)
	}
	if got := orch.Report(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stepped report differs from Run's:\n got %+v\nwant %+v", got, want)
	}
	if next, done, err := orch.Step(); !done || err != nil || !next.IsZero() {
		t.Fatalf("Step after done = (%v, %v, %v), want (zero, true, nil)", next, done, err)
	}
}
