package core

import (
	"testing"
	"time"

	"spottune/internal/cloudsim"
	"spottune/internal/obs"
	"spottune/internal/policy"
	"spottune/internal/resilience"
)

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
