// Package invariants validates cross-cutting simulator properties on the
// final state of a campaign run. Every scenario-matrix cell passes through
// Check, turning the whole matrix into a self-verifying test bed: a policy
// or fault-injection change that breaks the economics (a double refund, a
// refund outside the first hour, steps attributed to an instance that never
// ran) fails loudly instead of silently skewing a figure.
//
// Each violated property yields a Violation with a distinct Code, so tests
// can assert not just that a corrupted state is rejected but that it is
// rejected for the right reason. When the run carried a flight recording
// (State.Trace), every violation additionally carries the last few trace
// events relevant to its subject — the simulator's own account of what led
// up to the broken state.
package invariants

import (
	"fmt"
	"math"

	"spottune/internal/cloudsim"
	"spottune/internal/core"
	"spottune/internal/market"
	"spottune/internal/obs"
	"spottune/internal/trial"
)

// Code identifies one invariant class.
type Code string

// Invariant codes. Grouped by the simulator property they guard.
const (
	// Ledger conservation (per-record billing arithmetic).
	CodeNegativeGross      Code = "negative-gross"       // GrossCost < 0
	CodeRefundExceedsGross Code = "refund-exceeds-gross" // Refunded > GrossCost (double refund)
	CodeNegativeRefund     Code = "negative-refund"      // Refunded < 0
	CodePartialRefund      Code = "partial-refund"       // 0 < Refunded < GrossCost (rule is all-or-nothing)
	CodeLateRefund         Code = "late-refund"          // refund outside the first instance hour
	CodeRefundNotRevoked   Code = "refund-not-revoked"   // refund on a user-terminated instance
	CodeRefundOnDemand     Code = "refund-on-demand"     // refund on reliable capacity
	CodeTimeTravel         Code = "ends-before-launch"   // Ended before Launched
	CodeOnDemandBilling    Code = "on-demand-billing"    // gross deviates from catalog price x lifetime

	// Report/ledger reconciliation (campaign accounting).
	CodeLedgerMismatch     Code = "ledger-report-mismatch" // report totals disagree with the ledger
	CodeDeploymentMismatch Code = "deployment-mismatch"    // deployments != ledger instances
	CodeRevocationMismatch Code = "revocation-mismatch"    // report revocations != ledger revocations
	CodeNoticeDeficit      Code = "notice-deficit"         // revocation without a preceding notice

	// Step attribution (no ghost progress).
	CodeGhostProgress    Code = "ghost-progress"       // steps on an instance the ledger never saw
	CodeStepMismatch     Code = "step-accounting"      // segment steps do not sum to TotalSteps
	CodeFreeStepMismatch Code = "free-step-accounting" // FreeSteps != steps on refunded instances
	CodeNegativeSteps    Code = "negative-steps"       // a segment with negative step count

	// Checkpoint-restore monotonicity.
	CodeCheckpointAhead   Code = "checkpoint-ahead-of-trial" // stored progress exceeds live progress
	CodeCheckpointForeign Code = "checkpoint-foreign"        // blob names a different trial than its key
	CodeCheckpointCorrupt Code = "checkpoint-corrupt"        // blob fails to decode
	CodeProgressOverrun   Code = "progress-overrun"          // trial beyond its MaxSteps

	// Policy accounting consistency (selection outputs).
	CodeRankingCorrupt Code = "ranking-corrupt" // ranking is not a permutation ordered by prediction
	CodeBestNotRanked  Code = "best-not-ranked" // selected best absent from the ranking

	// Catalog compatibility (diversified fleets). Only audited when the
	// report names a base type and the state carries the catalog.
	CodeIncompatibleReplacement Code = "incompatible-replacement" // a rented type weaker than the campaign's base type

	// Trace/ledger reconciliation (flight-recorder accounting). Only
	// audited when the run carried a recording.
	CodeTraceLedgerMismatch Code = "trace-ledger-mismatch" // trace-attributed totals not bit-identical to the ledger
	CodeTraceUnattributed   Code = "trace-unattributed"    // a posting's instance has no deploy event
	CodeTraceIncomplete     Code = "trace-incomplete"      // trace is missing settlement or lifecycle events

	// Resilience accounting (recovery-strategy bookkeeping). The trace
	// halves only fire on recordings that carry the resilience payloads
	// (campaign-start B = poll seconds > 0).
	CodeLostWorkBound      Code = "lost-work-bound"           // work lost at a revocation exceeds the active checkpoint cadence
	CodeRetryConservation  Code = "retry-budget-conservation" // blackout retries / give-ups disagree between trace and report
	CodeDeadlineAccounting Code = "deadline-accounting"       // deadline, ladder, or migration bookkeeping inconsistent
)

// Violation is one broken invariant. Trial and Instance, when non-empty,
// name the simulated entities the violation is about; Events, when the run
// carried a flight recording, holds the last few trace events relevant to
// that subject (chronological, ending at the campaign's final event).
type Violation struct {
	Code     Code
	Detail   string
	Trial    string
	Instance string
	Events   []obs.Event
}

// Error renders the violation as "code: detail".
func (v Violation) Error() string { return fmt.Sprintf("%s: %s", v.Code, v.Detail) }

// State is the final simulator state of one campaign run. Ledger and Report
// are required; the remaining fields widen coverage when present:
// Checkpoints enables the checkpoint-monotonicity audit (keys are
// object-store keys "ckpt/<trial>"), Trials enables progress bounds, Catalog
// enables on-demand billing cross-checks, and Trace enables the
// flight-recorder reconciliation audit plus per-violation event context.
type State struct {
	Ledger      *cloudsim.Ledger
	Report      *core.Report
	Trials      []*trial.Replay
	Catalog     *market.Catalog
	Checkpoints map[string][]byte
	Trace       *obs.Recording
}

// costTol absorbs float dust in USD sums; billing is exact arithmetic over
// trace integrals, so anything beyond dust is a real conservation failure.
const costTol = 1e-6

// violationContextK is how many trailing trace events attach to each
// violation — enough to see the deploy/notice/posting run-up without
// ballooning cell output.
const violationContextK = 8

// Check validates every invariant the state's fields allow and returns all
// violations found (nil when the state is sound).
func Check(st State) []Violation {
	c := &collector{}
	if st.Ledger == nil || st.Report == nil {
		c.add(CodeLedgerMismatch, "state needs both a ledger and a report")
		return c.out
	}

	checkLedger(st, c)
	checkReconciliation(st, c)
	checkSegments(st, c)
	checkCheckpoints(st, c)
	checkSelection(st, c)
	checkCompatibility(st, c)
	checkTrace(st, c)
	checkResilience(st, c)
	if st.Trace != nil && len(c.out) > 0 {
		q := obs.NewTraceQuery(st.Trace)
		for i := range c.out {
			v := &c.out[i]
			v.Events = q.LastK(v.Trial, v.Instance, violationContextK)
		}
	}
	return c.out
}

// collector accumulates violations. add records a campaign-level violation;
// addFor additionally names the trial and/or instance the violation is
// about, which is what the trace-context attachment keys on.
type collector struct{ out []Violation }

func (c *collector) add(code Code, format string, args ...any) {
	c.addFor(code, "", "", format, args...)
}

func (c *collector) addFor(code Code, trialID, instID string, format string, args ...any) {
	c.out = append(c.out, Violation{
		Code:     code,
		Detail:   fmt.Sprintf(format, args...),
		Trial:    trialID,
		Instance: instID,
	})
}

// checkLedger audits per-record billing arithmetic: net = gross − refunds,
// and refunds exist only on first-hour spot revocations, in full.
func checkLedger(st State, c *collector) {
	for _, u := range st.Ledger.Records {
		if u.Ended.Before(u.Launched) {
			c.addFor(CodeTimeTravel, "", u.InstanceID, "instance %s ended %v before launch %v", u.InstanceID, u.Ended, u.Launched)
		}
		if u.GrossCost < 0 {
			c.addFor(CodeNegativeGross, "", u.InstanceID, "instance %s gross %v", u.InstanceID, u.GrossCost)
		}
		if u.Refunded < 0 {
			c.addFor(CodeNegativeRefund, "", u.InstanceID, "instance %s refund %v", u.InstanceID, u.Refunded)
			continue
		}
		if u.Refunded == 0 {
			continue
		}
		if u.Refunded > u.GrossCost+costTol {
			c.addFor(CodeRefundExceedsGross, "", u.InstanceID, "instance %s refunded %v of gross %v", u.InstanceID, u.Refunded, u.GrossCost)
			continue
		}
		// The first-hour rule is all-or-nothing.
		if u.Refunded < u.GrossCost-costTol {
			c.addFor(CodePartialRefund, "", u.InstanceID, "instance %s refunded %v of gross %v", u.InstanceID, u.Refunded, u.GrossCost)
		}
		if u.OnDemand {
			c.addFor(CodeRefundOnDemand, "", u.InstanceID, "instance %s is on-demand yet refunded %v", u.InstanceID, u.Refunded)
		}
		if u.End != cloudsim.EndRevoked {
			c.addFor(CodeRefundNotRevoked, "", u.InstanceID, "instance %s refunded but ended %v", u.InstanceID, u.End)
		}
		if u.Duration() > cloudsim.RefundWindow {
			c.addFor(CodeLateRefund, "", u.InstanceID, "instance %s refunded after %v of life (window %v)",
				u.InstanceID, u.Duration(), cloudsim.RefundWindow)
		}
	}
	if st.Catalog != nil {
		for _, u := range st.Ledger.Records {
			if !u.OnDemand {
				continue
			}
			it, ok := st.Catalog.Lookup(u.TypeName)
			if !ok {
				continue
			}
			want := it.OnDemandPrice * u.Duration().Hours()
			if math.Abs(u.GrossCost-want) > costTol+1e-9*want {
				c.addFor(CodeOnDemandBilling, "", u.InstanceID, "instance %s gross %v, want %v (%v for %v)",
					u.InstanceID, u.GrossCost, want, it.OnDemandPrice, u.Duration())
			}
		}
	}
}

// checkReconciliation ties the report's campaign totals back to the ledger.
func checkReconciliation(st State, c *collector) {
	led, rep := st.Ledger, st.Report
	if d := math.Abs(rep.GrossCost - led.TotalGross()); d > costTol {
		c.add(CodeLedgerMismatch, "report gross %v vs ledger %v", rep.GrossCost, led.TotalGross())
	}
	if d := math.Abs(rep.Refund - led.TotalRefunded()); d > costTol {
		c.add(CodeLedgerMismatch, "report refund %v vs ledger %v", rep.Refund, led.TotalRefunded())
	}
	if d := math.Abs(rep.NetCost - (rep.GrossCost - rep.Refund)); d > costTol {
		c.add(CodeLedgerMismatch, "report net %v vs gross-refund %v", rep.NetCost, rep.GrossCost-rep.Refund)
	}
	revoked, onDemand := 0, 0
	for _, u := range led.Records {
		if u.End == cloudsim.EndRevoked {
			revoked++
		}
		if u.OnDemand {
			onDemand++
		}
	}
	if rep.Deployments != len(led.Records) {
		// Every deployment rents exactly one instance, and a settled
		// campaign has ended them all — a zeroed counter against a
		// non-empty ledger is exactly the corruption this catches.
		c.add(CodeDeploymentMismatch, "report deployments %d vs ledger instances %d", rep.Deployments, len(led.Records))
	}
	if rep.OnDemandDeployments != onDemand {
		c.add(CodeDeploymentMismatch, "report on-demand deployments %d vs ledger %d", rep.OnDemandDeployments, onDemand)
	}
	if rep.Revocations != revoked {
		c.add(CodeRevocationMismatch, "report revocations %d vs ledger %d", rep.Revocations, revoked)
	}
	if rep.Revocations > rep.Notices {
		// Both market revocations and injected mass preemptions deliver
		// the two-minute notice first.
		c.add(CodeNoticeDeficit, "%d revocations but only %d notices", rep.Revocations, rep.Notices)
	}
}

// checkSegments audits step attribution: all progress ran on instances the
// ledger saw alive, and the free-step split matches the refund split.
func checkSegments(st State, c *collector) {
	rep := st.Report
	usage := make(map[string]int, len(st.Ledger.Records)) // ledger index per instance
	for i, u := range st.Ledger.Records {
		usage[u.InstanceID] = i
	}
	total, free := 0, 0
	for _, seg := range rep.Segments {
		if seg.Steps < 0 {
			c.addFor(CodeNegativeSteps, seg.TrialID, seg.InstanceID, "segment %s/%s has %d steps", seg.InstanceID, seg.TrialID, seg.Steps)
			continue
		}
		total += seg.Steps
		ui, ok := usage[seg.InstanceID]
		if !ok {
			if seg.Steps > 0 {
				c.addFor(CodeGhostProgress, seg.TrialID, seg.InstanceID, "segment %s/%s ran %d steps on an instance the ledger never saw",
					seg.InstanceID, seg.TrialID, seg.Steps)
			}
			continue
		}
		u := &st.Ledger.Records[ui]
		if seg.Steps > 0 && !u.Ended.After(u.Launched) {
			c.addFor(CodeGhostProgress, seg.TrialID, seg.InstanceID, "segment %s/%s ran %d steps on an instance with zero lifetime",
				seg.InstanceID, seg.TrialID, seg.Steps)
		}
		if u.Refunded > 0 {
			free += seg.Steps
		}
	}
	if total != rep.TotalSteps {
		c.add(CodeStepMismatch, "segments sum to %d steps, report says %d", total, rep.TotalSteps)
	}
	if free != rep.FreeSteps {
		c.add(CodeFreeStepMismatch, "refunded segments sum to %d steps, report says %d", free, rep.FreeSteps)
	}
}

// checkCheckpoints audits checkpoint-restore monotonicity: every persisted
// blob decodes, names the trial its key claims, and holds progress at or
// behind the live trial (a checkpoint is a photograph of the past).
func checkCheckpoints(st State, c *collector) {
	// Progress bounds need only the trials — they must not hide behind the
	// optional checkpoint snapshot. (Replay trials clamp RunFor/Restore at
	// MaxSteps, so this is unreachable for them; it guards future trial
	// implementations without that property.)
	for _, tr := range st.Trials {
		if tr.Progress() > float64(tr.MaxSteps())+1e-9 {
			c.addFor(CodeProgressOverrun, tr.ID(), "", "trial %s at %v of max %d steps", tr.ID(), tr.Progress(), tr.MaxSteps())
		}
	}
	if st.Checkpoints == nil {
		return
	}
	byID := make(map[string]*trial.Replay, len(st.Trials))
	for _, tr := range st.Trials {
		byID[tr.ID()] = tr
	}
	for key, blob := range st.Checkpoints {
		id, progress, err := trial.DecodeCheckpoint(blob)
		if err != nil {
			c.add(CodeCheckpointCorrupt, "key %s: %v", key, err)
			continue
		}
		if want := "ckpt/" + id; key != want {
			c.addFor(CodeCheckpointForeign, id, "", "key %s holds a checkpoint for trial %q", key, id)
			continue
		}
		tr, ok := byID[id]
		if !ok {
			continue // a trial outside this run's set; nothing to compare
		}
		if progress > tr.Progress()+1e-9 {
			c.addFor(CodeCheckpointAhead, id, "", "trial %s stored progress %v ahead of live %v", id, progress, tr.Progress())
		}
		if progress < 0 || math.IsNaN(progress) || progress > float64(tr.MaxSteps()) {
			c.addFor(CodeCheckpointCorrupt, id, "", "trial %s stored progress %v outside [0, %d]", id, progress, tr.MaxSteps())
		}
	}
}

// checkSelection audits the policy-facing outputs: the ranking is a
// permutation of the predicted set ordered by predicted value, and the
// selected best was actually ranked.
func checkSelection(st State, c *collector) {
	rep := st.Report
	if len(rep.Ranked) == 0 {
		// An empty ranking is legitimate only on a report with no
		// selection outputs at all; a wiped ranking alongside surviving
		// predictions or a selected best is a selection bug.
		if len(rep.PredictedFinals) > 0 || rep.Best != "" || len(rep.Top) > 0 {
			c.add(CodeRankingCorrupt, "empty ranking with %d predictions, best %q, %d top",
				len(rep.PredictedFinals), rep.Best, len(rep.Top))
		}
		return
	}
	if len(rep.Ranked) != len(rep.PredictedFinals) {
		c.add(CodeRankingCorrupt, "%d ranked vs %d predictions", len(rep.Ranked), len(rep.PredictedFinals))
		return
	}
	seen := make(map[string]bool, len(rep.Ranked))
	for i, id := range rep.Ranked {
		if seen[id] {
			c.addFor(CodeRankingCorrupt, id, "", "trial %s ranked twice", id)
			return
		}
		seen[id] = true
		v, ok := rep.PredictedFinals[id]
		if !ok {
			c.addFor(CodeRankingCorrupt, id, "", "ranked trial %s has no prediction", id)
			return
		}
		if i > 0 {
			prev := rep.PredictedFinals[rep.Ranked[i-1]]
			if v < prev {
				c.addFor(CodeRankingCorrupt, id, "", "ranking not ascending at %s (%v after %v)", id, v, prev)
				return
			}
		}
	}
	if rep.Best != "" && !seen[rep.Best] {
		c.addFor(CodeBestNotRanked, rep.Best, "", "best %q absent from ranking", rep.Best)
	}
	for _, id := range rep.Top {
		if !seen[id] {
			c.addFor(CodeBestNotRanked, id, "", "top trial %q absent from ranking", id)
		}
	}
}

// checkCompatibility audits the catalog's compatibility predicate: when the
// campaign declared a base type, every instance the ledger saw rented — spot
// replacement or on-demand fallback alike — must be at least as powerful as
// it. A weaker replacement would silently slow the very trials diversified
// provisioning exists to protect. Needs both the base type and the catalog;
// a base type the catalog does not know is itself a violation.
func checkCompatibility(st State, c *collector) {
	rep := st.Report
	if rep.BaseType == "" || st.Catalog == nil {
		return
	}
	base, ok := st.Catalog.Lookup(rep.BaseType)
	if !ok {
		c.add(CodeIncompatibleReplacement, "base type %q not in the catalog", rep.BaseType)
		return
	}
	for _, u := range st.Ledger.Records {
		it, ok := st.Catalog.Lookup(u.TypeName)
		if !ok {
			c.addFor(CodeIncompatibleReplacement, "", u.InstanceID,
				"instance %s rented type %q outside the catalog under base type %q", u.InstanceID, u.TypeName, rep.BaseType)
			continue
		}
		if !it.AtLeastAsPowerful(base) {
			c.addFor(CodeIncompatibleReplacement, "", u.InstanceID,
				"instance %s rented %s (%d CPUs, %gGB, %g eff. cores), weaker than base %s (%d CPUs, %gGB, %g eff. cores)",
				u.InstanceID, it.Name, it.CPUs, it.MemoryGB, it.EffectiveCPUs(),
				base.Name, base.CPUs, base.MemoryGB, base.EffectiveCPUs())
		}
	}
}

// checkTrace reconciles the flight recording against the ledger and report.
// Posting events are emitted at the exact moment the cluster appends each
// ledger record, so the trace-attributed grand totals must equal the ledger
// totals bit for bit — same values summed in the same order — not merely
// within tolerance. Skipped when the run carried no recording.
func checkTrace(st State, c *collector) {
	if st.Trace == nil {
		return
	}
	led, rep := st.Ledger, st.Report
	att := obs.Attribute(st.Trace)
	if att.Postings != len(led.Records) {
		c.add(CodeTraceIncomplete, "trace settled %d postings, ledger holds %d records", att.Postings, len(led.Records))
	}
	if math.Float64bits(att.Gross) != math.Float64bits(led.TotalGross()) {
		c.add(CodeTraceLedgerMismatch, "trace gross %v (bits %016x) vs ledger %v (bits %016x)",
			att.Gross, math.Float64bits(att.Gross), led.TotalGross(), math.Float64bits(led.TotalGross()))
	}
	if math.Float64bits(att.Refunded) != math.Float64bits(led.TotalRefunded()) {
		c.add(CodeTraceLedgerMismatch, "trace refunded %v (bits %016x) vs ledger %v (bits %016x)",
			att.Refunded, math.Float64bits(att.Refunded), led.TotalRefunded(), math.Float64bits(led.TotalRefunded()))
	}
	if math.Float64bits(att.Net) != math.Float64bits(led.TotalNet()) {
		c.add(CodeTraceLedgerMismatch, "trace net %v (bits %016x) vs ledger %v (bits %016x)",
			att.Net, math.Float64bits(att.Net), led.TotalNet(), math.Float64bits(led.TotalNet()))
	}
	if att.UnattributedPostings > 0 {
		c.add(CodeTraceUnattributed, "%d postings ($%v gross) on instances with no deploy event",
			att.UnattributedPostings, att.Unattributed)
	}
	deploys, ends := 0, 0
	for _, e := range st.Trace.Events() {
		switch e.Kind {
		case obs.KindDeploy:
			deploys++
		case obs.KindCampaignEnd:
			ends++
		}
	}
	if deploys != rep.Deployments {
		c.add(CodeTraceIncomplete, "trace recorded %d deploys, report says %d", deploys, rep.Deployments)
	}
	if ends != 1 {
		c.add(CodeTraceIncomplete, "trace holds %d campaign-end events, want exactly 1", ends)
	}
}

// checkResilience audits the recovery-strategy bookkeeping. The report-only
// deadline consistency checks always run (they are vacuous on legacy
// reports); the trace-replaying halves — lost-work bounds, retry-budget
// conservation, ladder monotonicity — need a recording whose campaign-start
// event carries the poll-interval payload (B > 0), the marker of a trace
// that records resilience events at all.
func checkResilience(st State, c *collector) {
	rep := st.Report

	// Deadline accounting is pure report arithmetic.
	missed := rep.Deadline > 0 && rep.JCT > rep.Deadline
	if rep.DeadlineMissed != missed {
		c.add(CodeDeadlineAccounting, "report says deadline missed=%v, but JCT %v vs deadline %v says %v",
			rep.DeadlineMissed, rep.JCT, rep.Deadline, missed)
	}
	if rep.Deadline <= 0 && (rep.DegradationLevel != 0 || rep.DegradationTransitions != 0) {
		c.add(CodeDeadlineAccounting, "no deadline set, yet degradation level %d after %d transitions",
			rep.DegradationLevel, rep.DegradationTransitions)
	}
	if rep.DegradationLevel > rep.DegradationTransitions {
		// The ladder starts at level 0 and each transition climbs exactly
		// one rung, so the final level can never exceed the climb count.
		c.add(CodeDeadlineAccounting, "degradation level %d exceeds its %d transitions",
			rep.DegradationLevel, rep.DegradationTransitions)
	}

	if st.Trace == nil {
		return
	}
	// Replay the recording once, tracking per trial: the protection anchor
	// (the virtual time of the latest checkpoint/restore/deploy — the point
	// work after which is at risk), the active checkpoint cadence (B of the
	// latest checkpoint event), and the blackout-retry streak since the last
	// deploy (what a give-up's attempt count must equal).
	var pollSecs float64
	anchor := map[string]struct {
		vt  obs.Event
		set bool
	}{}
	cadence := map[string]float64{}
	streak := map[string]int{}
	retries := map[string]int{}
	giveUps := map[string]int{}
	migrations, degradations := 0, 0
	lostTotal := 0
	lastLevel := int64(-1)
	for _, e := range st.Trace.Events() {
		switch e.Kind {
		case obs.KindCampaignStart:
			pollSecs = e.B
		case obs.KindDeploy:
			anchor[e.Trial] = struct {
				vt  obs.Event
				set bool
			}{e, true}
			streak[e.Trial] = 0
		case obs.KindRestore, obs.KindCheckpoint:
			anchor[e.Trial] = struct {
				vt  obs.Event
				set bool
			}{e, true}
			if e.Kind == obs.KindCheckpoint && e.B > 0 {
				cadence[e.Trial] = e.B
			}
		case obs.KindNotice:
			if e.B <= 0 {
				continue
			}
			lostTotal += int(e.B)
			cad, an := cadence[e.Trial], anchor[e.Trial]
			if pollSecs <= 0 || cad <= 0 || !an.set {
				continue
			}
			// Work is unprotected for at most one cadence plus one poll
			// interval between checkpoints; a notice that finds more than
			// that exposed means the strategy's schedule was not honored.
			// The poll-interval slop is unverified for the event loop.
			if exposed := e.VT.Sub(an.vt.VT).Seconds(); exposed > cad+pollSecs+costTol {
				c.addFor(CodeLostWorkBound, e.Trial, e.Inst,
					"trial %s lost %d steps after %.0fs unprotected; active cadence %.0fs (+%.0fs poll slop)",
					e.Trial, int(e.B), exposed, cad, pollSecs)
			}
		case obs.KindBlackoutRetry:
			retries[e.Trial]++
			streak[e.Trial]++
		case obs.KindGiveUp:
			giveUps[e.Trial]++
			if int(e.N) != streak[e.Trial] {
				c.addFor(CodeRetryConservation, e.Trial, "",
					"give-up on %s claims %d attempts, trace shows %d blackout retries since its last deploy",
					e.Trial, e.N, streak[e.Trial])
			}
			streak[e.Trial] = 0
		case obs.KindMigration:
			migrations++
		case obs.KindDegradation:
			degradations++
			if e.N <= lastLevel {
				c.add(CodeDeadlineAccounting, "degradation ladder moved from level %d to %d (one-way, strictly up)",
					lastLevel, e.N)
			}
			lastLevel = e.N
		}
	}
	if pollSecs <= 0 {
		return // recording predates the resilience payloads
	}
	if lostTotal != rep.LostSteps {
		c.add(CodeLostWorkBound, "trace notices lost %d steps total, report says %d", lostTotal, rep.LostSteps)
	}
	for id, n := range retries {
		if got := rep.BlackoutRetries[id]; got != n {
			c.addFor(CodeRetryConservation, id, "",
				"trial %s: trace shows %d blackout retries, report says %d", id, n, got)
		}
	}
	for id, n := range rep.BlackoutRetries {
		if retries[id] != n {
			c.addFor(CodeRetryConservation, id, "",
				"trial %s: report claims %d blackout retries, trace shows %d", id, n, retries[id])
		}
	}
	for _, id := range rep.GaveUp {
		if giveUps[id] == 0 {
			c.addFor(CodeRetryConservation, id, "",
				"report says trial %s gave up, but the trace holds no give-up event for it", id)
		}
	}
	if migrations != rep.Migrations {
		c.add(CodeDeadlineAccounting, "trace holds %d migration events, report says %d", migrations, rep.Migrations)
	}
	if degradations != rep.DegradationTransitions {
		c.add(CodeDeadlineAccounting, "trace holds %d degradation events, report says %d transitions",
			degradations, rep.DegradationTransitions)
	}
	if degradations > 0 && lastLevel != int64(rep.DegradationLevel) {
		c.add(CodeDeadlineAccounting, "trace ends at degradation level %d, report says %d", lastLevel, rep.DegradationLevel)
	}
}
