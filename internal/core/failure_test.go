package core

import (
	"testing"
	"time"

	"spottune/internal/cloudsim"
	"spottune/internal/earlycurve"
	"spottune/internal/market"
	"spottune/internal/resilience"
	"spottune/internal/revpred"
	"spottune/internal/simclock"
	"spottune/internal/trial"
)

// cadenceStrategy runs a campaign at a periodic-checkpoint cadence other
// than the orchestrator's: it hands the wrapped strategy every as
// CadenceContext.Default, and the wrapped strategy decides as usual.
type cadenceStrategy struct {
	resilience.Strategy
	every time.Duration
}

func (s cadenceStrategy) CheckpointInterval(ctx resilience.CadenceContext) time.Duration {
	ctx.Default = s.every
	return s.Strategy.CheckpointInterval(ctx)
}

// mkBigTrial builds one trial whose checkpoint exceeds every Table III
// instance's two-minute upload capacity, forcing periodic checkpointing.
func mkBigTrial(t *testing.T, w *testWorld, maxSteps, every int) *trial.Replay {
	t.Helper()
	var pts []earlycurve.MetricPoint
	for s := every; s <= maxSteps; s += every {
		pts = append(pts, earlycurve.MetricPoint{Step: s, Value: 1/(0.05*float64(s)+1.2) + 0.2})
	}
	// 12 GB: above MaxModelSizeMB for every Table III instance (7.4-15.7
	// GB at 1-16 cores; the fixture's types have 2 and 16 cores, so the
	// 2-core "slow" pool member cannot checkpoint this inside a notice),
	// yet restorable in a few minutes.
	tr, err := trial.NewReplay("huge-hp", maxSteps, pts, w.perf, 12*1024)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestOversizedTrialSurvivesRevocationsViaPeriodicCheckpoints(t *testing.T) {
	w := newWorld(t, true) // spiky market: revocations guaranteed
	big := mkBigTrial(t, w, 1200, 50)
	cfg := orchCfg(1.0)
	cfg.Resilience = cadenceStrategy{resilience.Default(), 5 * time.Minute}
	rep, err := w.orchestrator(t, []string{"slow"}, 3, []*trial.Replay{big}, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if big.CompletedSteps() != big.MaxSteps() {
		t.Fatalf("oversized trial stalled at %d/%d", big.CompletedSteps(), big.MaxSteps())
	}
	if rep.Notices == 0 {
		t.Fatal("spiky market produced no revocations; test fixture broken")
	}
	// Periodic snapshots must be happening: with notice-time checkpoints
	// disabled for this trial, progress can only persist through them.
	stats := w.store.Stats()
	if stats.PutOps < 5 {
		t.Fatalf("only %d checkpoints written; periodic checkpointing inactive", stats.PutOps)
	}
	// Work is lost on revocation (steps re-run), so total step-work
	// strictly exceeds the trial's length.
	if rep.TotalSteps <= big.MaxSteps() {
		t.Fatalf("total steps %d do not show any lost work (max %d)", rep.TotalSteps, big.MaxSteps())
	}
}

func TestOversizedCheckpointSkippedAtNotice(t *testing.T) {
	// On a calm market with a single spike, an oversized trial must not
	// attempt a notice-time checkpoint (it cannot fit); the recovery
	// point is the baseline snapshot.
	w := newWorld(t, true)
	big := mkBigTrial(t, w, 300, 25)
	cfg := orchCfg(1.0)
	cfg.Resilience = cadenceStrategy{resilience.Default(), 2 * time.Hour} // effectively never: baseline only
	if _, err := w.orchestrator(t, []string{"slow"}, 4, []*trial.Replay{big}, cfg).Run(); err != nil {
		t.Fatal(err)
	}
	if big.CompletedSteps() != big.MaxSteps() {
		t.Fatalf("trial incomplete: %d", big.CompletedSteps())
	}
}

func TestMaxConcurrentFanOut(t *testing.T) {
	// Algorithm 1's elastic mode: four trials, four concurrent slots.
	// Everything completes, and the campaign is faster than sequential.
	w1 := newWorld(t, false)
	trialsSeq := mkTrials(t, w1, 4, 200, 20)
	seqCfg := orchCfg(1.0)
	seqRep, err := w1.orchestrator(t, []string{"slow", "fast"}, 7, trialsSeq, seqCfg).Run()
	if err != nil {
		t.Fatal(err)
	}

	w2 := newWorld(t, false)
	trialsPar := mkTrials(t, w2, 4, 200, 20)
	parCfg := orchCfg(1.0)
	parCfg.MaxConcurrent = 4
	parRep, err := w2.orchestrator(t, []string{"slow", "fast"}, 7, trialsPar, parCfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trialsPar {
		if tr.CompletedSteps() != tr.MaxSteps() {
			t.Fatalf("parallel trial %s incomplete", tr.ID())
		}
	}
	if parRep.JCT >= seqRep.JCT {
		t.Fatalf("parallel JCT %v not below sequential %v", parRep.JCT, seqRep.JCT)
	}
	if parRep.TotalSteps != seqRep.TotalSteps {
		t.Fatalf("parallel did different work: %d vs %d", parRep.TotalSteps, seqRep.TotalSteps)
	}
}

func TestOrchestratorWithOraclePredictorFarmsRefunds(t *testing.T) {
	w := newWorld(t, true)
	w.preds["slow"] = revpred.Oracle{}
	w.preds["fast"] = revpred.Oracle{}
	trials := mkTrials(t, w, 2, 600, 50)
	rep, err := w.orchestrator(t, []string{"slow", "fast"}, 7, trials, orchCfg(1.0)).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		if tr.CompletedSteps() != tr.MaxSteps() {
			t.Fatalf("trial %s incomplete", tr.ID())
		}
	}
	// The oracle steers into the spiky market when revocation (and hence
	// a refund) is certain, so some work must come back free.
	if rep.Refund <= 0 || rep.FreeSteps == 0 {
		t.Fatalf("oracle-driven campaign earned no refunds: %+v", rep)
	}
}

func TestSLAQTrendIntegration(t *testing.T) {
	w := newWorld(t, false)
	trials := mkTrials(t, w, 4, 100, 10)
	cfg := orchCfg(0.5)
	cfg.Trend = earlycurve.SLAQ{}
	rep, err := w.orchestrator(t, []string{"slow", "fast"}, 7, trials, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best == "" {
		t.Fatal("SLAQ-driven campaign selected nothing")
	}
}

// stormWorld swaps the spiky "slow" market for one that spikes every
// `period` minutes for `spikeLen`, so near-market bids die within minutes.
func stormWorld(t *testing.T, period, spikeLen time.Duration) *testWorld {
	t.Helper()
	w := newWorld(t, false)
	gridStart := t0.Add(-2 * time.Hour)
	end := t0.Add(72 * time.Hour)
	recs := []market.Record{{At: gridStart, Price: 0.02}}
	for cycle := gridStart; cycle.Before(end); cycle = cycle.Add(period) {
		up := cycle.Add(period - spikeLen)
		down := cycle.Add(period - time.Minute)
		if up.After(recs[len(recs)-1].At) {
			recs = append(recs, market.Record{At: up, Price: 1.0})
		}
		if down.After(up) {
			recs = append(recs, market.Record{At: down, Price: 0.02})
		}
	}
	tr := &market.Trace{Type: "slow", Records: recs}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	clk := simclock.NewVirtual(t0)
	fast := &market.Trace{Type: "fast", Records: []market.Record{{At: gridStart, Price: 0.2}}}
	traces := market.TraceSet{"slow": tr, "fast": fast}
	cluster, err := cloudsim.NewCluster(clk, w.cat, traces)
	if err != nil {
		t.Fatal(err)
	}
	w.clk = clk
	w.cluster = cluster
	w.store = cloudsim.NewObjectStore()
	it, _ := w.cat.Lookup("slow")
	g, err := market.NewGrid(it, tr, gridStart, end)
	if err != nil {
		t.Fatal(err)
	}
	w.grids["slow"] = g
	return w
}

func TestRevocationStorm(t *testing.T) {
	// A market that spikes every 8 minutes: deployments die almost
	// immediately and repeatedly. The orchestrator must still finish.
	w := stormWorld(t, 8*time.Minute, 5*time.Minute)
	trials := mkTrials(t, w, 2, 300, 25)
	rep, err := w.orchestrator(t, []string{"slow"}, 5, trials, orchCfg(1.0)).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		if tr.CompletedSteps() != tr.MaxSteps() {
			t.Fatalf("storm stalled trial %s at %d", tr.ID(), tr.CompletedSteps())
		}
	}
	if rep.Notices < 5 {
		t.Fatalf("storm produced only %d notices", rep.Notices)
	}
	// Revoked-in-first-hour segments are all refunded.
	if rep.Refund <= 0 {
		t.Fatal("storm refunded nothing")
	}
}
