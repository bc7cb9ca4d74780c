// Package obs is the engine's flight recorder: a deterministic,
// allocation-conscious tracing and metrics layer threaded from the cloud
// simulator through the orchestrator to the streaming matrix runner.
//
// Every interesting simulation action — deploys, revocation notices,
// refunds, checkpoint save/restore, blackout retries, fallback transitions,
// tuner rounds with budgets and eliminations, prediction/ranking outcomes,
// ledger postings — is a typed Event stamped with virtual time and a
// monotonic per-recording sequence number. Campaigns are single-goroutine
// discrete-event runs, so same-seed campaigns emit byte-identical traces;
// the scenario streamer observes per-cell recordings in deterministic grid
// order regardless of worker count, so whole-battery traces are
// byte-identical too.
//
// The default Tracer is Nop: a zero-size value whose Emit compiles to
// nothing the allocator can see. Tracing is opt-in per campaign and costs
// zero allocations when disabled (pinned by an AllocsPerRun guard).
package obs

import "time"

// Kind is the event type. The numeric values are internal; traces identify
// kinds by their String() names, which are part of the trace schema
// (see Schema) and stable across releases.
type Kind uint8

// Event kinds. One campaign emits exactly one CampaignStart and one
// CampaignEnd; everything between is ordered by Seq.
const (
	KindUnknown Kind = iota
	// KindCampaignStart opens a recording: Label=approach, Type=tuner name,
	// A=theta, B=the orchestrator's poll interval in seconds (the trigger
	// detection slop auditors allow on cadence bounds), N=trial count.
	KindCampaignStart
	// KindRoundOpen begins a tuner round: Label=round label, N=directive
	// count.
	KindRoundOpen
	// KindBudget is one round directive: Trial, N=absolute step budget for
	// the round, Label=round label.
	KindBudget
	// KindEliminate marks a trial the tuner dropped when closing a round
	// (successive-halving cuts, spottune's below-top-mcnt tail): Trial,
	// Label=round label.
	KindEliminate
	// KindRoundClose ends a tuner round: Label=round label, N=trials that
	// reached their budget or plateaued.
	KindRoundClose
	// KindDeploy is an instance launch serving a trial: Trial, Inst,
	// Type=instance type, Label="spot"|"on-demand", A=max price (spot) or
	// the fixed hourly price (on-demand), N=trial steps already completed.
	KindDeploy
	// KindRestore is a checkpoint restore onto a fresh instance: Trial,
	// Inst, A=restored seconds of transfer+setup overhead, N=restored steps.
	KindRestore
	// KindCheckpoint is a checkpoint save: Trial, Inst (empty before first
	// deploy), A=checkpoint MB, B=the assignment's active periodic cadence
	// in seconds (the recovery strategy's lost-work bound; 0 for saves
	// outside an assignment), N=trial steps captured.
	KindCheckpoint
	// KindNotice is a revocation notice (two minutes before the kill):
	// Trial, Inst, Type, B=training steps lost at this notice (work since
	// the last durable checkpoint; 0 when the in-notice save captured
	// everything), N=the trial's spot-failure streak after counting
	// this notice.
	KindNotice
	// KindBlackoutRetry is a spot request rejected by a capacity blackout:
	// Trial, Type=requested type, N=the failure streak after counting it.
	KindBlackoutRetry
	// KindStreakClear marks a trial's spot-failure streak reset by a
	// cleanly ended spot segment: Trial, N=the streak length cleared.
	KindStreakClear
	// KindFallback is a fallback-policy transition: Trial,
	// Label="doomed"|"streak"|"spot-return", A=the triggering signal
	// (revocation probability or calm-market price ratio), N=failure streak.
	KindFallback
	// KindSegment closes one (trial, instance) work segment: Trial, Inst,
	// N=whole steps the segment ran.
	KindSegment
	// KindPosting is a ledger posting at instance settlement: Inst, Type,
	// Label=end reason ("revoked"|"user-terminated"), A=gross USD,
	// B=refunded USD, N=1 for on-demand capacity.
	KindPosting
	// KindRefund highlights the first-hour all-or-nothing refund subset of
	// postings: Inst, Type, A=refunded USD.
	KindRefund
	// KindRank is one trial's prediction outcome at selection time: Trial,
	// A=predicted final metric (+Inf when unobservable), N=1-based rank.
	KindRank
	// KindSelect is the final selection: Trial=best, N=size of the
	// continued top set.
	KindSelect
	// KindCampaignEnd closes a recording: A=net cost USD, B=JCT hours,
	// N=scheduler loop iterations.
	KindCampaignEnd
	// KindMigration is a notice-window migration: the recovery strategy
	// answered a termination notice by requesting an immediate replacement
	// in a different market, overlapping its boot/restore with the
	// remaining notice lead time. Trial, Inst=the dying instance,
	// Type=its market, Label=the market excluded on the replacement deploy
	// ("" when none), A=remaining notice lead seconds.
	KindMigration
	// KindBackoff is a blackout-retry delay decision: Trial,
	// Type=requested market, A=the chosen delay in seconds, N=the
	// consecutive-attempt count the delay answers.
	KindBackoff
	// KindGiveUp marks a trial abandoned by its retry budget: Trial,
	// Type=the market last requested, A=the configured retry budget,
	// N=attempts spent when giving up.
	KindGiveUp
	// KindDegradation is an upward move on the deadline-slack degradation
	// ladder: Label=the new level's name ("diversified"|"on-demand"),
	// A=projected slack in seconds at the transition (negative when the
	// projection has slipped past the deadline), N=the new level.
	KindDegradation
	// KindDiversify is a diversified-spot family decorrelation: the policy
	// redirected a deployment away from an avoided instance family. Trial,
	// Type=the chosen market, Label=the avoided family, A=the chosen
	// candidate's allocation score, N=candidates considered after the
	// family filter.
	KindDiversify
	// KindTenantAdmit is a service-level admission grant: Trial=tenant ID,
	// Label=admission policy name, A=the tenant's fair-share weight,
	// N=shard index the tenant was assigned to.
	KindTenantAdmit
	// KindTenantReject is a service-level admission refusal: Trial=tenant
	// ID, Label=the rejection reason ("budget-cap"|"deadline-cap"),
	// N=shard index that would have hosted it. Rejected tenants never run,
	// so no ledger entries follow.
	KindTenantReject
	// KindTenantStart marks a tenant campaign beginning execution on its
	// shard: Trial=tenant ID, N=shard index.
	KindTenantStart
	// KindTenantDone closes a tenant campaign: Trial=tenant ID, A=net cost
	// USD, B=JCT hours, N=shard index.
	KindTenantDone

	numKinds // sentinel; keep last
)

var kindNames = [numKinds]string{
	KindUnknown:       "unknown",
	KindCampaignStart: "campaign-start",
	KindRoundOpen:     "round-open",
	KindBudget:        "budget",
	KindEliminate:     "eliminate",
	KindRoundClose:    "round-close",
	KindDeploy:        "deploy",
	KindRestore:       "restore",
	KindCheckpoint:    "checkpoint",
	KindNotice:        "notice",
	KindBlackoutRetry: "blackout-retry",
	KindStreakClear:   "streak-clear",
	KindFallback:      "fallback",
	KindSegment:       "segment",
	KindPosting:       "posting",
	KindRefund:        "refund",
	KindRank:          "rank",
	KindSelect:        "select",
	KindCampaignEnd:   "campaign-end",
	KindMigration:     "migration",
	KindBackoff:       "backoff",
	KindGiveUp:        "give-up",
	KindDegradation:   "degradation",
	KindDiversify:     "diversify",
	KindTenantAdmit:   "tenant-admit",
	KindTenantReject:  "tenant-reject",
	KindTenantStart:   "tenant-start",
	KindTenantDone:    "tenant-done",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one flight-recorder record. It is a flat value — no pointers, no
// per-kind payload types — so constructing one on the emit path never
// touches the heap and a disabled tracer costs nothing. Field meaning is
// per-kind (see the Kind constants); unused fields are zero.
type Event struct {
	// Seq is the monotonic per-recording sequence number (1-based),
	// assigned by the Recording. Same-seed campaigns assign identical
	// sequences: the engine is a single-goroutine discrete-event loop.
	Seq uint64
	// VT is the virtual (simulated) instant of the event.
	VT time.Time
	// Kind selects the payload interpretation.
	Kind Kind
	// Trial/Inst/Type identify the subject: trial ID, instance ID,
	// instance-type name. Empty when not applicable.
	Trial string
	Inst  string
	Type  string
	// Label is a per-kind discriminator ("spot"/"on-demand", round labels,
	// end reasons, fallback transition names).
	Label string
	// A and B are per-kind numeric payloads (prices, dollars, MB, ...).
	A float64
	B float64
	// N is a per-kind integer payload (steps, streaks, counts, ranks).
	N int64
}

// Tracer receives events. Implementations must not retain the Event past
// Emit (it is a value; retaining is safe but copying is the contract) and
// must be cheap enough to call from the scheduler's hot loop.
//
// The engine always calls Emit unconditionally for rare events (deploys,
// notices, postings) and guards only loops that would do extra work to
// build events (per-trial rank dumps) behind Enabled.
type Tracer interface {
	// Emit records one event. The tracer assigns Seq.
	Emit(Event)
	// Enabled reports whether events are being kept. Nop returns false so
	// call sites can skip event-construction loops entirely.
	Enabled() bool
}

// Nop is the default tracer: a zero-size value whose methods do nothing.
// Emitting through it adds zero allocations to the event loop (pinned by
// TestNopTracerAddsNoAllocs).
type Nop struct{}

// Emit discards the event.
func (Nop) Emit(Event) {}

// Enabled reports false.
func (Nop) Enabled() bool { return false }

// Meta identifies what a recording captured — the cell coordinates in a
// matrix run, or just the approach for a single campaign. It is written as
// the JSONL header line and into Chrome process names.
type Meta struct {
	Scenario string `json:"scenario,omitempty"`
	Tuner    string `json:"tuner,omitempty"`
	Policy   string `json:"policy,omitempty"`
	// Resilience is the recovery strategy the campaign ran under (omitted
	// for the default fixed strategy, keeping pre-resilience traces
	// byte-stable).
	Resilience string `json:"resilience,omitempty"`
	Workload   string `json:"workload,omitempty"`
	Replicate  int    `json:"replicate,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
}

// Recording is the in-memory Tracer: it stamps each event with the next
// sequence number and appends it to a growing slice. One Recording serves
// one campaign; the scenario streamer makes one per traced cell.
//
// A nil *Recording is a valid no-op tracer, but prefer passing Nop (or
// leaving Config.Tracer nil) when tracing is off: a nil *Recording stored
// in a Tracer interface is non-nil as an interface value, which is exactly
// the kind of bug the nil-receiver guards here exist to survive.
type Recording struct {
	// Meta is the cell/campaign identity, set by the owner before export.
	Meta Meta

	events []Event
	seq    uint64
}

// NewRecording returns an empty recording with the given identity.
func NewRecording(meta Meta) *Recording {
	return &Recording{Meta: meta}
}

// Emit stamps and appends one event.
func (r *Recording) Emit(e Event) {
	if r == nil {
		return
	}
	r.seq++
	e.Seq = r.seq
	r.events = append(r.events, e)
}

// Enabled reports whether events are kept (false only for a nil receiver).
func (r *Recording) Enabled() bool { return r != nil }

// Events returns the recorded events in emission order. The slice is the
// recording's backing store — callers must not mutate it.
func (r *Recording) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Len is the number of recorded events.
func (r *Recording) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}
