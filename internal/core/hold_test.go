package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"spottune/internal/cloudsim"
	"spottune/internal/obs"
	"spottune/internal/policy"
	"spottune/internal/resilience"
	"spottune/internal/trial"
)

// reportDiff describes how two reports differ beyond LoopIterations, the
// one field the turn-free retries move ("" when they do not).
func reportDiff(free, full *Report) string {
	x, y := *free, *full
	x.LoopIterations, y.LoopIterations = 0, 0
	if reflect.DeepEqual(x, y) {
		return ""
	}
	return fmt.Sprintf("turn-free %+v\nfull turns %+v", free, full)
}

// eventsDiff describes the first difference between two flight recordings
// other than the campaign-end event's iteration count ("" when none).
func eventsDiff(free, full *obs.Recording) string {
	ea, eb := free.Events(), full.Events()
	if len(ea) != len(eb) {
		return fmt.Sprintf("%d events with turn-free retries, %d with full turns", len(ea), len(eb))
	}
	for i := range ea {
		x, y := ea[i], eb[i]
		if x.Kind == obs.KindCampaignEnd && y.Kind == obs.KindCampaignEnd {
			x.N, y.N = 0, 0
		}
		same := x.Seq == y.Seq && x.VT == y.VT && x.Kind == y.Kind && x.Trial == y.Trial &&
			x.Inst == y.Inst && x.Type == y.Type && x.Label == y.Label && x.N == y.N &&
			math.Float64bits(x.A) == math.Float64bits(y.A) && math.Float64bits(x.B) == math.Float64bits(y.B)
		if !same {
			return fmt.Sprintf("event %d: turn-free %+v, full turns %+v", i, ea[i], eb[i])
		}
	}
	return ""
}

// refusals totals a report's capacity refusals.
func refusals(r *Report) int {
	n := 0
	for _, k := range r.BlackoutRetries {
		n += k
	}
	return n
}

// TestTurnFreeRetriesMatchFullTurns pins the turn-free retries against full
// turns on the core fixtures, where the three conditions of retrying each
// bind: two trials run at once, so one is refused during a blackout while
// the other is live (advanced, noticed and restarted by handleTriggers);
// a deadline ladder climbs during a blackout (assessDegradation); the
// adaptive strategy gives up; and a held trial waits at its step limit.
// Each case runs every spot-chooser policy and
// diversified-spot with full turns only and with turn-free retries. The
// reports must match but for LoopIterations, the flight recordings but for
// the campaign-end iteration count, and only the no-ladder cases may save
// turns.
func TestTurnFreeRetriesMatchFullTurns(t *testing.T) {
	type setup struct {
		name     string
		world    func(t *testing.T) *testWorld
		blackout cloudsim.Blackout
		deadline time.Duration
		adaptive bool
		trials   func(t *testing.T, w *testWorld) []*trial.Replay
		pool     []string // default slow and fast
		theta    float64  // default 0.7
	}
	cases := []setup{
		{
			name:     "fan-out",
			world:    func(t *testing.T) *testWorld { return spikyPairWorld(t, t0) },
			blackout: cloudsim.Blackout{From: t0.Add(90 * time.Minute), To: t0.Add(150 * time.Minute)},
			trials: func(t *testing.T, w *testWorld) []*trial.Replay {
				var out []*trial.Replay
				for i := 0; i < 4; i++ {
					out = append(out, mkTrial(t, idFor(i), 4000, 100, 0.1*float64(i+1), w.perf, 10))
				}
				return out
			},
		},
		{
			name:     "deadline",
			world:    func(t *testing.T) *testWorld { return newWorld(t, false) },
			blackout: cloudsim.Blackout{From: t0, To: t0.Add(2 * time.Hour)},
			deadline: 90 * time.Minute,
			trials:   func(t *testing.T, w *testWorld) []*trial.Replay { return mkTrials(t, w, 2, 200, 20) },
		},
		{
			name:     "give-up",
			world:    func(t *testing.T) *testWorld { return newWorld(t, false) },
			blackout: cloudsim.Blackout{From: t0, To: t0.Add(3 * time.Hour)},
			adaptive: true,
			trials:   func(t *testing.T, w *testWorld) []*trial.Replay { return mkTrials(t, w, 2, 100, 10) },
		},
		{
			// TestBoundedWakeupMatchesUnbounded's tie: the trial completes at
			// the instant of its notice, so it waits at its step limit, and
			// the blackout holds its redeploy. The full turn that finally
			// deploys it ran handleTriggers before the deploy, so the
			// assignment must not be finished at the deploy instant.
			name:     "tie",
			world:    func(t *testing.T) *testWorld { return spikyPairWorld(t, t0) },
			blackout: cloudsim.Blackout{From: t0.Add(12 * time.Minute), To: t0.Add(30 * time.Minute)},
			trials: func(t *testing.T, w *testWorld) []*trial.Replay {
				return []*trial.Replay{mkTrial(t, idFor(0), 660, 60, 0.1, w.perf, 10)}
			},
			pool:  []string{"fast"},
			theta: 1,
		},
	}
	for _, tc := range cases {
		pool, theta := tc.pool, tc.theta
		if pool == nil {
			pool, theta = []string{"slow", "fast"}, 0.7
		}
		refused, saved := 0, 0
		for _, name := range []string{policy.SpotTuneName, policy.FallbackName, policy.MixedFleetName, policy.DiversifiedSpotName} {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				run := func(full bool) (*Report, *obs.Recording) {
					w := tc.world(t)
					if err := w.cluster.AddBlackout(tc.blackout); err != nil {
						t.Fatal(err)
					}
					rec := obs.NewRecording(obs.Meta{Policy: name})
					cfg := orchCfg(theta)
					cfg.MaxConcurrent = 2
					cfg.Deadline = tc.deadline
					cfg.Tracer = rec
					if tc.adaptive {
						res, err := resilience.New(resilience.AdaptiveName, resilience.Params{Seed: 1})
						if err != nil {
							t.Fatal(err)
						}
						cfg.Resilience = res
					}
					orch, err := NewPolicyOrchestrator(w.cluster, w.store, worldPolicy(t, w, name, pool, 7), pool, tc.trials(t, w), cfg)
					if err != nil {
						t.Fatal(err)
					}
					was := fullTurnsOnly
					fullTurnsOnly = full
					defer func() { fullTurnsOnly = was }()
					rep, err := orch.Run()
					if err != nil {
						t.Fatal(err)
					}
					return rep, rec
				}
				free, freeRec := run(false)
				full, fullRec := run(true)
				if d := reportDiff(free, full); d != "" {
					t.Fatalf("reports differ:\n%s", d)
				}
				if d := eventsDiff(freeRec, fullRec); d != "" {
					t.Fatal(d)
				}
				if tc.deadline > 0 && free.LoopIterations != full.LoopIterations {
					t.Fatalf("%d loop turns with turn-free retries, %d without, under a deadline ladder", free.LoopIterations, full.LoopIterations)
				}
				if tc.deadline > 0 && full.DegradationTransitions == 0 {
					t.Fatal("the ladder never moved: the deadline case shows nothing")
				}
				if tc.adaptive && len(full.GaveUp) == 0 {
					t.Fatal("no trial gave up: the give-up case shows nothing")
				}
				refused += refusals(full)
				saved += full.LoopIterations - free.LoopIterations
			})
		}
		if refused == 0 || tc.deadline == 0 && saved <= 0 {
			t.Errorf("%s: %d capacity refusals, %d loop turns saved: the case shows nothing", tc.name, refused, saved)
		}
	}
}

// heldLog is a policy that logs the instant and TrialInfo.Held of every
// decision before it delegates.
type heldLog struct {
	policy.Policy
	at   []time.Time
	held []policy.Request
}

func (p *heldLog) Decide(ctx policy.Context) (policy.Request, error) {
	p.at = append(p.at, ctx.Market.Now())
	p.held = append(p.held, ctx.Trial.Held)
	return p.Policy.Decide(ctx)
}

// TestHoldExpiresAtNextInterestingInstant pins the hold's two expiries in
// blackouts, where every spot request is refused. Each refusal of a fresh
// decision holds its request: the policy gets it at every retry before the
// cluster's next interesting instant over the pool taken at that refusal (a
// price tick or the blackout's end), the first retry at or after it decides
// afresh, and so does the first retry after the deadline ladder moves.
func TestHoldExpiresAtNextInterestingInstant(t *testing.T) {
	pool := []string{"slow", "fast"}
	run := func(w *testWorld, blackout cloudsim.Blackout, cfg Config) (*heldLog, *Report, *obs.Recording) {
		if err := w.cluster.AddBlackout(blackout); err != nil {
			t.Fatal(err)
		}
		log := &heldLog{Policy: worldPolicy(t, w, policy.SpotTuneName, pool, 7)}
		rec := obs.NewRecording(obs.Meta{Policy: "held-log"})
		cfg.Tracer = rec
		orch, err := NewPolicyOrchestrator(w.cluster, w.store, log, pool, mkTrials(t, w, 2, 200, 20), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := orch.Run()
		if err != nil {
			t.Fatal(err)
		}
		return log, rep, rec
	}

	t.Run("price ticks", func(t *testing.T) {
		blackout := cloudsim.Blackout{From: t0, To: t0.Add(90 * time.Minute)}
		log, _, _ := run(spikyPairWorld(t, t0), blackout, orchCfg(0.7))
		// A twin world answers NextInterestingAt at each fresh refusal; no
		// instance runs during the blackout, so only ticks and its end count.
		probe := spikyPairWorld(t, t0)
		if err := probe.cluster.AddBlackout(blackout); err != nil {
			t.Fatal(err)
		}
		var until time.Time
		holds, fresh := 0, 0
		for i, at := range log.at {
			if i > 0 && !log.at[i-1].Before(blackout.To) {
				break // the first decision after the blackout was the last refusable one
			}
			switch h := log.held[i]; {
			case at.Before(until):
				if h.TypeName == "" {
					t.Fatalf("decision %d at %v: no held request before its hold ends at %v", i, at, until)
				}
				holds++
			case h.TypeName != "":
				t.Fatalf("decision %d at %v: held request past the hold's end at %v", i, at, until)
			default:
				fresh++
				probe.clk.AdvanceTo(at)
				var ok bool
				if until, ok = probe.cluster.NextInterestingAt(pool); !ok {
					t.Fatalf("decision %d at %v: quiescent cluster", i, at)
				}
			}
		}
		if fresh < 3 || holds == 0 {
			t.Fatalf("%d fresh and %d held decisions in the blackout: the case shows nothing", fresh, holds)
		}
	})

	t.Run("ladder", func(t *testing.T) {
		// Flat markets never tick, so only the blackout's end or the
		// ladder ends a hold; the deadline diversifies the ladder at about
		// 47 minutes, inside the blackout, and forces on-demand at 53.
		cfg := orchCfg(1)
		cfg.Deadline = time.Hour
		log, rep, rec := run(newWorld(t, false), cloudsim.Blackout{From: t0, To: t0.Add(2 * time.Hour)}, cfg)
		var moved time.Time
		for _, e := range rec.Events() {
			if e.Kind == obs.KindDegradation && e.N == resilience.LevelDiversified {
				moved = e.VT
			}
		}
		if moved.IsZero() || rep.DegradationLevel != resilience.LevelOnDemand {
			t.Fatalf("ladder diversified at %v and ended at level %d: the case shows nothing", moved, rep.DegradationLevel)
		}
		fresh := 0
		for i, at := range log.at {
			if want := i > 0 && !at.Equal(moved); (log.held[i].TypeName != "") != want {
				t.Fatalf("decision %d at %v (ladder moved at %v): held %+v", i, at, moved, log.held[i])
			}
			if log.held[i].TypeName == "" {
				fresh++
			}
		}
		if fresh != 2 {
			t.Fatalf("%d fresh decisions, want the first and the one at the ladder's move", fresh)
		}
	})
}
