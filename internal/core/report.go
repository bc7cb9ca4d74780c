package core

import (
	"math"
	"sort"
	"time"

	"spottune/internal/cloudsim"
	"spottune/internal/obs"
	"spottune/internal/trial"
)

// Report summarizes one HPT campaign — every quantity the paper's evaluation
// plots is derivable from it.
type Report struct {
	Approach string // "SpotTune", "Policy(<policy name>)"
	// Tuner is the search strategy that drove the trial lifecycle
	// ("spottune", "hyperband", ...).
	Tuner string
	Theta float64

	// JCT is the job completion time: submission to final model selection
	// (Fig. 7b).
	JCT time.Duration
	// GrossCost/Refund/NetCost decompose spend (Fig. 7a, Fig. 9b).
	GrossCost float64
	Refund    float64
	NetCost   float64

	// TotalSteps/FreeSteps attribute work to charged vs refunded
	// instance time (Fig. 9a).
	TotalSteps int
	FreeSteps  int

	// CheckpointTime/RestoreTime accumulate object-store transfers
	// (Fig. 12).
	CheckpointTime time.Duration
	RestoreTime    time.Duration

	// Deployments/Notices/Revocations count orchestration events.
	// OnDemandDeployments is the subset of Deployments that rented
	// reliable on-demand capacity (mixed-fleet and fallback policies).
	Deployments         int
	OnDemandDeployments int
	Notices             int
	Revocations         int

	// LoopIterations counts the event loop's scheduler turns across all
	// phases: one per real scheduling event, not one per pollInterval of
	// virtual time.
	LoopIterations int

	// Resilience is the recovery strategy that governed checkpoints,
	// notice-window actions, and blackout retries ("fixed", "adaptive").
	Resilience string
	// BaseType is the campaign's compatibility anchor (Config.BaseType):
	// when non-empty, every instance the campaign rented must have been at
	// least as powerful as this type — the invariant checker audits the
	// billing ledger against it. Empty means unconstrained.
	BaseType string
	// BlackoutRetries counts blackout-rejected spot requests per trial
	// across the campaign (nil when none occurred). GaveUp lists, in
	// sorted order, the trials the strategy's retry budget abandoned and
	// that never subsequently completed.
	BlackoutRetries map[string]int
	GaveUp          []string
	// LostSteps totals the work rewound at revocations: steps an
	// oversized trial had run past its last periodic checkpoint when the
	// notice arrived. Bounded per revocation by the assignment's active
	// checkpoint cadence (an invariant the chaos harness audits).
	LostSteps int
	// Migrations counts notice-window migrations: replacements requested
	// inside the two-minute lead instead of after the redeploy spacing.
	Migrations int
	// DegradationLevel/DegradationTransitions report the deadline ladder:
	// the final level (0 spot, 1 diversified spot, 2 on-demand) and how
	// many one-way escalations occurred. Both zero without a deadline.
	DegradationLevel       int
	DegradationTransitions int
	// Deadline/Budget echo the campaign's constraints; DeadlineMissed is
	// JCT > Deadline (always false when unconstrained).
	Deadline       time.Duration
	Budget         float64
	DeadlineMissed bool

	// PredictedFinals is the trend-predictor's final-metric estimate per
	// HP; Ranked is ascending by prediction; Top the continued set; Best
	// the finally selected HP (Fig. 8c feeds on these).
	PredictedFinals map[string]float64
	Ranked          []string
	Top             []string
	Best            string

	// PerfObservations snapshots the online performance matrix (Fig. 6).
	PerfObservations []PerfEntry

	// Segments attributes step progress to the instances that ran it, in
	// the order segments ended. Invariant checkers audit it against the
	// billing ledger: every step must have been run by an instance that
	// actually lived, and FreeSteps must equal the steps on refunded ones.
	Segments []SegmentRecord
}

// SegmentRecord is one (instance, trial) pairing's step attribution.
type SegmentRecord struct {
	InstanceID string
	TrialID    string
	Steps      int
}

// FreeStepFraction is FreeSteps/TotalSteps (Fig. 9a's headline number).
func (r *Report) FreeStepFraction() float64 {
	if r.TotalSteps == 0 {
		return 0
	}
	return float64(r.FreeSteps) / float64(r.TotalSteps)
}

// RefundFraction is Refund/GrossCost (Fig. 9b).
func (r *Report) RefundFraction() float64 {
	if r.GrossCost == 0 {
		return 0
	}
	return r.Refund / r.GrossCost
}

// OverheadFraction is transfer time over total campaign time (Fig. 12).
func (r *Report) OverheadFraction() float64 {
	if r.JCT <= 0 {
		return 0
	}
	return (r.CheckpointTime + r.RestoreTime).Seconds() / r.JCT.Seconds()
}

// PCR is the performance-cost rate α/(JCT·cost) of Fig. 7c; α=1 here and
// callers normalize.
func (r *Report) PCR() float64 {
	den := r.JCT.Hours() * r.NetCost
	if den <= 0 {
		return 0
	}
	return 1 / den
}

// settleTime is how long a finished campaign lets in-flight revocations
// (notices within the final two minutes) settle before it reads the bill.
// The report's JCT leaves it out.
const settleTime = cloudsim.NoticeLeadTime + time.Minute

// buildReport assembles the report from the tuner's final selection outputs
// once the campaign has settled.
func (o *Orchestrator) buildReport() *Report {
	clk := o.cluster.Clock()
	out := o.outcome
	led := o.cluster.Ledger()
	refunded := make(map[string]struct{})
	revocations := 0
	for _, u := range led.Records {
		if u.Refunded > 0 {
			refunded[u.InstanceID] = struct{}{}
		}
		if u.End == cloudsim.EndRevoked {
			revocations++
		}
	}
	total, free := 0, 0
	for _, seg := range o.segments {
		total += seg.Steps
		if _, ok := refunded[seg.InstanceID]; ok {
			free += seg.Steps
		}
	}
	stats := o.store.Stats()
	rep := &Report{
		Approach:            o.approach,
		Tuner:               o.tuner.Name(),
		Theta:               o.cfg.Theta,
		JCT:                 clk.Now().Sub(o.start) - settleTime,
		GrossCost:           led.TotalGross(),
		Refund:              led.TotalRefunded(),
		NetCost:             led.TotalNet(),
		TotalSteps:          total,
		FreeSteps:           free,
		CheckpointTime:      stats.PutTime + o.ckptSetup,
		RestoreTime:         stats.GetTime + o.restoreSetup,
		Deployments:         o.deployments,
		OnDemandDeployments: o.odDeployments,
		Notices:             o.notices,
		Revocations:         revocations,
		LoopIterations:      o.iterations,
		PredictedFinals:     out.Predicted,
		Ranked:              out.Ranked,
		Top:                 out.Top,
		Best:                out.Best,
		PerfObservations:    o.perf.Snapshot(),
		Segments:            o.segments,
		Resilience:          o.res.Name(),
		BaseType:            o.cfg.BaseType,
		LostSteps:           o.lostSteps,
		Migrations:          o.migrations,
		DegradationLevel:    o.slack.Level(),
		Deadline:            o.cfg.Deadline,
		Budget:              o.cfg.Budget,
	}
	rep.DegradationTransitions = o.slack.Transitions()
	rep.DeadlineMissed = o.cfg.Deadline > 0 && rep.JCT > o.cfg.Deadline
	for _, t := range o.ts {
		if t.blackoutRetries > 0 {
			if rep.BlackoutRetries == nil {
				rep.BlackoutRetries = make(map[string]int)
			}
			rep.BlackoutRetries[t.id] = t.blackoutRetries
		}
		if t.gaveUp {
			rep.GaveUp = append(rep.GaveUp, t.id)
		}
	}
	sort.Strings(rep.GaveUp)
	if o.trc.Enabled() {
		now := clk.Now()
		for i, id := range rep.Ranked {
			v, ok := rep.PredictedFinals[id]
			if !ok {
				v = math.Inf(1)
			}
			o.trc.Emit(obs.Event{VT: now, Kind: obs.KindRank, Trial: id, A: v, N: int64(i + 1)})
		}
		if rep.Best != "" {
			o.trc.Emit(obs.Event{VT: now, Kind: obs.KindSelect, Trial: rep.Best, N: int64(len(rep.Top))})
		}
		o.trc.Emit(obs.Event{
			VT:   now,
			Kind: obs.KindCampaignEnd,
			A:    rep.NetCost,
			B:    rep.JCT.Hours(),
			N:    int64(rep.LoopIterations),
		})
	}
	return rep
}

// TrueBest returns the trial ID with the lowest ground-truth final metric —
// the reference for Fig. 8c accuracy.
func TrueBest(trials []*trial.Replay) (string, float64) {
	best, val := "", math.Inf(1)
	for _, tr := range trials {
		if f := tr.TrueFinal(); f < val {
			best, val = tr.ID(), f
		}
	}
	return best, val
}

// TrueFinals maps every trial to its ground-truth final metric.
func TrueFinals(trials []*trial.Replay) map[string]float64 {
	out := make(map[string]float64, len(trials))
	for _, tr := range trials {
		out[tr.ID()] = tr.TrueFinal()
	}
	return out
}
