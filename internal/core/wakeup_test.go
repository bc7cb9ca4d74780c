package core

import (
	"reflect"
	"testing"
	"time"

	"spottune/internal/cloudsim"
	"spottune/internal/earlycurve"
	"spottune/internal/market"
	"spottune/internal/resilience"
	"spottune/internal/trial"
)

// countingPerf is constPerf that counts its step-time draws.
type countingPerf struct {
	constPerf
	n *drawCounts
}

// drawCounts are a countingPerf's tallies: every draw, the draws of a step
// behind the trial's completed steps, and the (trial, type) pairs first
// priced after the trial had completed steps elsewhere: type switches.
// trials maps IDs to the trials drawing.
type drawCounts struct {
	draws, behind, switches int
	trials                  map[string]*trial.Replay
}

func (p countingPerf) Steps(it market.InstanceType, hp string) trial.StepTimes {
	steps, tr := p.constPerf.Steps(it, hp), p.n.trials[hp]
	if tr.CompletedSteps() > 0 {
		p.n.switches++
	}
	return func(k int) time.Duration {
		p.n.draws++
		if k < tr.CompletedSteps() {
			p.n.behind++
		}
		return steps(k)
	}
}

// TestBoundedWakeupMatchesUnbounded pins nextWakeup's bound: pricing step
// triggers only up to the earliest retry, clock event or assignment horizon
// moves no Step target. Twin campaigns on twin worlds, one priced to every
// assignment's horizon, step in lockstep on revocation-heavy markets, with
// oversized trials on periodic checkpoints, an opening blackout whose
// retries land on the poll grid, and a clock started in +08:00 (so UTC
// price ticks tie with local instants). Every returned instant must be the
// same time.Time, value and location, and the reports must match. The
// bounded twin must also have drawn fewer step times, or the bound cut
// nothing and the case shows nothing; the tie case instead checks that its
// first wakeup is the tie. Neither twin may draw a step behind the drawing
// trial's progress, and some trial must move to a new type after running
// steps, or that check shows nothing.
func TestBoundedWakeupMatchesUnbounded(t *testing.T) {
	east := time.FixedZone("UTC+8", 8*60*60)
	type campaign struct {
		orch *Orchestrator
		w    *testWorld
		n    drawCounts
	}
	switches := 0
	for _, tc := range []struct {
		name     string
		start    time.Time
		blackout bool
		big      bool
		pool     []string
		theta    float64
		tie      bool
	}{
		{name: "spiky", start: t0, pool: []string{"slow", "fast"}, theta: 0.7},
		{name: "oversized", start: t0, big: true, pool: []string{"slow", "fast"}, theta: 1},
		{name: "blackout", start: t0, blackout: true, big: true, pool: []string{"slow", "fast"}, theta: 0.5},
		{name: "+08:00", start: t0.In(east), blackout: true, big: true, pool: []string{"slow", "fast"}, theta: 0.7},
		// One 660-step trial on "fast" from t0+1m completes at t0+12m, the
		// instant of its notice (UTC) before the t0+14m spike: a tie the
		// trigger (+08:00) wins only if it is priced.
		{name: "+08:00 tie", start: t0.In(east), pool: []string{"fast"}, theta: 1, tie: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(unbounded bool) *campaign {
				c := &campaign{w: spikyPairWorld(t, tc.start)}
				if tc.blackout {
					err := c.w.cluster.AddBlackout(cloudsim.Blackout{From: tc.start, To: tc.start.Add(20 * time.Minute)})
					if err != nil {
						t.Fatal(err)
					}
				}
				perf := countingPerf{c.w.perf, &c.n}
				var trials []*trial.Replay
				for i := 0; i < 3 && !tc.tie; i++ {
					trials = append(trials, mkTrial(t, idFor(i), 4000, 100, 0.1*float64(i+1), perf, 10))
				}
				if tc.tie {
					trials = append(trials, mkTrial(t, idFor(0), 660, 60, 0.1, perf, 10))
				}
				if tc.big {
					trials = append(trials, mkTrial(t, "huge-hp", 3000, 100, 0.2, perf, 16*1024))
				}
				c.n.trials = map[string]*trial.Replay{}
				for _, tr := range trials {
					c.n.trials[tr.ID()] = tr
				}
				cfg := orchCfg(tc.theta)
				cfg.MaxConcurrent = 2
				cfg.Resilience = cadenceStrategy{resilience.Default(), 5 * time.Minute}
				c.orch = c.w.orchestrator(t, tc.pool, 7, trials, cfg)
				c.orch.unboundedWakeup = unbounded
				return c
			}
			bounded, ref := build(false), build(true)
			steps, periodic := 0, false
			var first time.Time
			for {
				for _, st := range ref.orch.ts {
					periodic = periodic || st.active != nil && !st.active.dead && st.active.oversized
				}
				nb, db, eb := bounded.orch.Step()
				nr, dr, er := ref.orch.Step()
				if eb != nil || er != nil {
					t.Fatalf("step %d: errors %v (bounded), %v (unbounded)", steps, eb, er)
				}
				if nb != nr || db != dr {
					t.Fatalf("step %d: bounded Step = (%v %v, %v), unbounded (%v %v, %v)",
						steps, nb, nb.Location(), db, nr, nr.Location(), dr)
				}
				if db {
					break
				}
				if steps == 0 {
					first = nr
				}
				steps++
				bounded.w.clk.AdvanceTo(nb)
				ref.w.clk.AdvanceTo(nr)
			}
			got, want := bounded.orch.Report(), ref.orch.Report()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("bounded report differs:\n got %+v\nwant %+v", got, want)
			}
			if want.Notices == 0 {
				t.Fatal("no notices: the fixture is not revocation-heavy")
			}
			if tc.blackout && len(want.BlackoutRetries) == 0 {
				t.Fatal("the opening blackout produced no retries")
			}
			if tie := t0.Add(12 * time.Minute); tc.tie && (!first.Equal(tie) || first.Location() != east) {
				t.Fatalf("first wakeup %v, want the trigger's %v in %v", first, tie, east)
			}
			if tc.big && !periodic {
				t.Fatal("no oversized assignment was live: nothing checkpointed periodically")
			}
			if !tc.tie && bounded.n.draws >= ref.n.draws {
				t.Fatalf("bounded pricing drew %d step times, unbounded %d: the bound cut nothing", bounded.n.draws, ref.n.draws)
			}
			for _, c := range []*campaign{bounded, ref} {
				if c.n.behind != 0 {
					t.Fatalf("%d of %d draws lay behind the drawing trial's progress", c.n.behind, c.n.draws)
				}
			}
			switches += ref.n.switches
			t.Logf("%d steps, %d notices, %d type switches; step-time draws %d bounded, %d unbounded",
				steps, want.Notices, ref.n.switches, bounded.n.draws, ref.n.draws)
		})
	}
	if switches == 0 {
		t.Fatal("no trial moved to a new type after running steps")
	}
}

// TestClusterEventsAreClockEventsInPrivateWorld pins what makes own-event
// wakes free in a private world: there the cluster's next event is the
// clock's, the same time.Time to the location, before and after every Step
// of a revocation-heavy campaign started in +08:00, with an opening blackout
// and two mass preemptions (so notices, revocations, preemptions and their
// revocations all sit on the clock, in UTC and in +08:00).
func TestClusterEventsAreClockEventsInPrivateWorld(t *testing.T) {
	east := time.FixedZone("UTC+8", 8*60*60)
	start := t0.In(east)
	w := spikyPairWorld(t, start)
	if err := w.cluster.AddBlackout(cloudsim.Blackout{From: start, To: start.Add(20 * time.Minute)}); err != nil {
		t.Fatal(err)
	}
	for _, at := range []time.Duration{50 * time.Minute, 3 * time.Hour} {
		if err := w.cluster.SchedulePreemption(start.Add(at), ""); err != nil {
			t.Fatal(err)
		}
	}
	var trials []*trial.Replay
	for i := 0; i < 3; i++ {
		trials = append(trials, mkTrial(t, idFor(i), 4000, 100, 0.1*float64(i+1), w.perf, 10))
	}
	cfg := orchCfg(0.7)
	cfg.MaxConcurrent = 2
	orch := w.orchestrator(t, []string{"slow", "fast"}, 7, trials, cfg)
	steps, pending := 0, 0
	check := func(when string) {
		t.Helper()
		got, gotOK := w.cluster.NextEventTime()
		want, wantOK := w.clk.NextEventTime()
		if got != want || gotOK != wantOK {
			t.Fatalf("step %d, %s: cluster's next event %v in %v (ok=%v), clock's %v in %v (ok=%v)",
				steps, when, got, got.Location(), gotOK, want, want.Location(), wantOK)
		}
		if gotOK {
			pending++
		}
	}
	for {
		check("before")
		next, done, err := orch.Step()
		if err != nil {
			t.Fatal(err)
		}
		check("after")
		if done {
			break
		}
		steps++
		w.clk.AdvanceTo(next)
	}
	rep := orch.Report()
	if rep.Notices < 3 || rep.Revocations == 0 || len(rep.BlackoutRetries) == 0 || pending == 0 {
		t.Fatalf("%d notices, %d revocations, %d blackout-refused trials, %d checks with an event pending: the case shows nothing",
			rep.Notices, rep.Revocations, len(rep.BlackoutRetries), pending)
	}
	t.Logf("%d steps, %d notices, %d revocations, %d checks with an event pending", steps, rep.Notices, rep.Revocations, pending)
}

// mkTrial builds one trial in mkTrials' curve family, final metric plateau,
// on the given perf model with a checkpoint of ckptMB.
func mkTrial(t *testing.T, id string, maxSteps, every int, plateau float64, perf trial.PerfModel, ckptMB float64) *trial.Replay {
	t.Helper()
	var pts []earlycurve.MetricPoint
	for s := every; s <= maxSteps; s += every {
		pts = append(pts, earlycurve.MetricPoint{Step: s, Value: 1/(0.05*float64(s)+1.2) + plateau})
	}
	tr, err := trial.NewReplay(id, maxSteps, pts, perf, ckptMB)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// spikyPairWorld is newWorldAt(t, false, start) with "slow" spiking from
// 0.02 to 1.0 for 10 of every 120 minutes and "fast" from 0.2 to 1.5 for 5
// of every 35. Near-market bids die in both; for the hour after a slow
// spike its trailing-hour price makes "fast" the cheaper member, and
// outside that hour "slow" is, so trials move between them.
func spikyPairWorld(t *testing.T, start time.Time) *testWorld {
	t.Helper()
	w := newWorldAt(t, false, start)
	gridStart, end := t0.Add(-2*time.Hour), t0.Add(72*time.Hour)
	spiky := func(name string, base, peak float64, period, offset, length time.Duration) *market.Trace {
		recs := []market.Record{{At: gridStart, Price: base}}
		for cycle := gridStart; cycle.Before(end); cycle = cycle.Add(period) {
			recs = append(recs,
				market.Record{At: cycle.Add(offset), Price: peak},
				market.Record{At: cycle.Add(offset + length), Price: base})
		}
		return &market.Trace{Type: name, Records: recs}
	}
	traces := market.TraceSet{
		"slow": spiky("slow", 0.02, 1.0, 2*time.Hour, 30*time.Minute, 10*time.Minute),
		"fast": spiky("fast", 0.2, 1.5, 35*time.Minute, 29*time.Minute, 5*time.Minute),
	}
	cluster, err := cloudsim.NewCluster(w.clk, w.cat, traces)
	if err != nil {
		t.Fatal(err)
	}
	w.cluster = cluster
	for name, tr := range traces {
		it, _ := w.cat.Lookup(name)
		if w.grids[name], err = market.NewGrid(it, tr, gridStart, end); err != nil {
			t.Fatal(err)
		}
	}
	return w
}
