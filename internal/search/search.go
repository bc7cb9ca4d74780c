// Package search is the pluggable tuner engine: every way of answering
// "which trials train next, to what step budget, and which model wins?" is a
// Tuner behind one interface, indexed by name in a registry — the
// search-strategy analogue of internal/policy's provisioning registry.
//
// A Tuner owns the trial lifecycle of one campaign: it emits Rounds (ordered
// per-trial step budgets) that the orchestrator executes against the
// simulated cloud, observes the resulting metric curves between rounds, and
// finally produces the campaign's selection outputs (predicted finals,
// ranking, continued set, best model). The orchestrator stays a generic
// round executor — checkpointing, revocation handling, hourly refund
// restarts, and provisioning policy are shared across every tuner, so
// cost/JCT differences between tuners measure the search schedule alone.
//
// The registry ships the paper's Algorithm 1 schedule ("spottune": one
// θ-truncated exploration round, an EarlyCurve prediction pass, then
// continue-top-MCnt), the Hyperband family ("successive-halving" and
// "hyperband", geometric rung budgets that stress checkpoint/restore far
// harder per virtual hour), and the cost ceiling ("full-train": every trial
// to max steps, no early shutdown).
package search

import (
	"math"
	"sort"

	"spottune/internal/earlycurve"
)

// Directive is one trial's marching order for a round: (re)activate the
// trial and train it until it completes StepLimit whole steps (or plateaus,
// which the engine treats as reaching any remaining budget — §III-C's
// convergence special case applies to every tuner identically).
type Directive struct {
	TrialID string
	// StepLimit is the absolute whole-step target for this round. Values
	// outside (0, MaxSteps] are clamped to MaxSteps by the engine.
	StepLimit int
}

// Round is one batch of directives. Directive order is the deployment-queue
// order, so it is part of a tuner's determinism contract.
type Round struct {
	// Label names the round in diagnostics ("explore", "rung 2/3").
	Label      string
	Directives []Directive
	// Eliminated lists the trials the tuner dropped while deciding this
	// round (successive-halving cuts, spottune's below-top-MCnt tail), in
	// elimination order. Purely observational — the engine emits them to
	// the flight recorder; directives alone drive execution. A tuner may
	// attach eliminations to its final ok=false round too.
	Eliminated []string
}

// TrialStatus is the tuner-visible snapshot of one trial between rounds.
type TrialStatus struct {
	ID             string
	CompletedSteps int
	MaxSteps       int
	// Plateaued is the engine's authoritative convergence verdict for the
	// observed prefix (trial.Plateaued) — the same verdict the round
	// executor uses to stop a trial early, so a tuner can never disagree
	// with the engine about whether a trial has converged.
	Plateaued bool
	// LastValue is the most recent observed metric (HasPoint=false before
	// the first observation).
	LastValue float64
	HasPoint  bool
}

// State is what a tuner can observe about the campaign between rounds. The
// orchestrator implements it over live trial state.
type State interface {
	// TrialIDs lists every submitted trial in submission order.
	TrialIDs() []string
	// Status snapshots one trial.
	Status(id string) TrialStatus
	// Points returns the trial's observed metric prefix (curve points at or
	// below the completed step count), in increasing step order. The slice
	// is read-only: it may view the trial's curve, which other campaigns
	// share. Its capacity ends at its length, so appending to it copies.
	Points(id string) []earlycurve.MetricPoint
	// Trend returns the trend predictor for one trial: the campaign's
	// configured TrendPredictor, the same for every trial. In production
	// that is EarlyCurve on the environment's shared stage-fit memo.
	Trend(id string) earlycurve.TrendPredictor
}

// Outcome is a tuner's final selection output. The engine copies it into the
// campaign report, where the invariant checker audits it: Ranked must be a
// permutation of Predicted's keys in ascending predicted order, and Best and
// every Top entry must appear in Ranked.
type Outcome struct {
	// Predicted is the final-metric estimate per trial ID.
	Predicted map[string]float64
	// Ranked is every trial ID ascending by prediction (ties by ID).
	Ranked []string
	// Top is the final continued/survivor set, best first.
	Top []string
	// Best is the selected model ("" when nothing observed a metric).
	Best string
}

// Tuner owns trial-lifecycle decisions for one campaign run. Implementations
// are stateful and single-use: the engine calls Next until ok=false, running
// each returned round to completion before the next call, then calls Finish
// exactly once. Determinism contract: given the same State observations, a
// tuner must emit the same rounds and outcome — no map iteration, no clocks,
// no unseeded randomness.
type Tuner interface {
	// Name is the registry name the tuner was constructed under.
	Name() string
	// Next returns the next round, or ok=false when the search is over.
	// Returning an empty round (no directives) also ends the search.
	Next(s State) (round Round, ok bool)
	// Finish computes the final selection outputs after the last round.
	Finish(s State) Outcome
}

// RankByValue returns the IDs of vals ascending by value, with exactly-equal
// values tie-broken by ID. This is the engine-wide ranking rule: map
// iteration order never leaks into the result, so rankings are reproducible
// across runs and Go versions. (Regression-pinned in search_test.go.)
func RankByValue(vals map[string]float64) []string {
	ids := make([]string, 0, len(vals))
	for id := range vals {
		ids = append(ids, id)
	}
	sort.SliceStable(ids, func(i, j int) bool {
		if vals[ids[i]] != vals[ids[j]] {
			return vals[ids[i]] < vals[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids
}

// BestByLast returns the id among ids whose last observed metric is lowest,
// ties broken by list order, or "" when none has reported a point. This is
// THE campaign leaderboard rule — tuner final selection and the
// orchestrator's incumbent pin both delegate here, so the two can never
// drift apart. The accessor indirection lets hot paths supply a cheap
// last-point lookup instead of a full TrialStatus snapshot.
func BestByLast(ids []string, last func(id string) (val float64, ok bool)) string {
	if i := BestIndexByLast(len(ids), func(i int) (float64, bool) { return last(ids[i]) }); i >= 0 {
		return ids[i]
	}
	return ""
}

// BestIndexByLast is BestByLast over positions 0..n-1: the index whose last
// observed metric is lowest, ties broken by position, or -1 when none has
// reported a point. Callers that keep trials in a slice use it directly.
func BestIndexByLast(n int, last func(i int) (val float64, ok bool)) int {
	best := -1
	bestVal := math.Inf(1)
	for i := 0; i < n; i++ {
		val, ok := last(i)
		if !ok {
			continue
		}
		if val < bestVal {
			best, bestVal = i, val
		}
	}
	return best
}

// BestByLastValue is BestByLast over a State — the form tuners use.
func BestByLastValue(s State, ids []string) string {
	return BestByLast(ids, func(id string) (float64, bool) {
		st := s.Status(id)
		return st.LastValue, st.HasPoint
	})
}

// lastValues maps each id to its last observed metric, +Inf when the trial
// has not reported a point yet (sorting it last under RankByValue).
func lastValues(s State, ids []string) map[string]float64 {
	out := make(map[string]float64, len(ids))
	for _, id := range ids {
		st := s.Status(id)
		if st.HasPoint {
			out[id] = st.LastValue
		} else {
			out[id] = math.Inf(1)
		}
	}
	return out
}

// keepTop ranks ids by last observed value (ties by ID) and returns the best
// k in rank order.
func keepTop(s State, ids []string, k int) []string {
	ranked := RankByValue(lastValues(s, ids))
	if k < len(ranked) {
		ranked = ranked[:k]
	}
	return ranked
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
