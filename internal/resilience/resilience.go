// Package resilience is the pluggable recovery-strategy layer: every way of
// answering the three questions that decide whether a campaign survives a
// hostile spot market — when do we checkpoint, what do we do inside the
// two-minute revocation notice, and how long do we keep retrying through a
// capacity blackout — is a Strategy behind one interface, indexed by name in
// a registry, and the orchestrator consults it at each of those moments.
//
// Two strategies ship built in. "fixed" reproduces the orchestrator's
// historical behavior bit for bit: the orchestrator's fixed periodic
// checkpoint cadence, passive post-notice re-queueing spaced by one poll
// interval, and blackout retries paced on the poll-interval grid forever.
// "adaptive" makes all three decisions from observed market state: a
// Young/Daly-style checkpoint cadence driven by an online per-market
// revocation-rate estimate, migration-on-notice into a different market
// with the restore overlapping the remaining notice lead time, and capped
// exponential backoff with deterministic jitter under a per-trial retry
// budget that ends in an explicit give-up.
//
// Strategies must be deterministic given their construction Params and the
// sequence of calls — they may not read wall clocks or draw from global
// randomness (the jitter in "adaptive" is a pure hash of seed, trial, and
// attempt). This is what keeps same-seed campaigns byte-identical at the
// trace level regardless of host scheduling.
package resilience

import "time"

// CadenceContext carries the inputs to one when-to-checkpoint decision,
// made per assignment at deploy time (the segment's market and instance are
// fixed from then on, so the cadence is too).
type CadenceContext struct {
	// TrialID/TypeName identify the assignment.
	TrialID  string
	TypeName string
	// CheckpointSecs is the modeled wall cost of one checkpoint on this
	// instance: fixed setup plus upload at the instance's modeled
	// bandwidth. The Young/Daly δ.
	CheckpointSecs float64
	// RevocationsPerHour is the online estimate of this market's
	// revocation rate (revocations per spot instance-hour observed so
	// far; 0 before any evidence).
	RevocationsPerHour float64
	// Default is the orchestrator's fixed cadence (10 minutes) — the
	// fallback when there is no evidence and the upper clamp when there
	// is.
	Default time.Duration
}

// NoticeContext carries the inputs to one inside-the-notice-window decision.
type NoticeContext struct {
	// TrialID/TypeName identify the noticed assignment and the market the
	// notice came from.
	TrialID  string
	TypeName string
	// PoolSize is how many markets the campaign can choose from — with
	// one, there is nowhere to migrate to.
	PoolSize int
	// Immediate marks a notice that arrived at the very instant the
	// instance deployed: the market pair is inside a doom window, and an
	// immediate replacement at the same instant could be doomed the same
	// way. Strategies should fall back to paced re-queueing here, or the
	// event loop would deploy-notice-migrate forever at one instant.
	Immediate bool
}

// NoticeAction is the strategy's answer to a termination notice. The
// orchestrator has already advanced and checkpointed the trial (that part is
// not optional — losing the window loses the work); the action decides what
// happens next.
type NoticeAction struct {
	// Migrate requests an immediate replacement deployment at the notice
	// instant, overlapping the replacement's boot and restore with the
	// remaining notice lead time instead of waiting out the PollInterval
	// spacing. False means today's passive re-queue.
	Migrate bool
	// ExcludeType asks the provisioning policy to avoid one market on the
	// replacement deploy — normally the market that just issued the
	// notice. Empty excludes nothing.
	ExcludeType string
}

// RetryContext carries the inputs to one blackout-retry decision, made each
// time a spot request is rejected for lack of capacity.
type RetryContext struct {
	TrialID string
	// Attempt is the trial's consecutive blackout-rejection count,
	// 1-based and including the rejection being decided; it resets when a
	// deployment succeeds.
	Attempt int
	// PollInterval is the orchestrator's poll grid (10 seconds) — the
	// historical retry pace and the natural delay unit.
	PollInterval time.Duration
}

// RetryDecision is the strategy's answer to a blackout rejection.
type RetryDecision struct {
	// Delay is how long to wait before the next spot attempt.
	Delay time.Duration
	// GiveUp abandons the trial for this round instead of retrying: the
	// orchestrator marks it given-up, surfaces it in Report.GaveUp, and
	// moves on. A later tuner round may direct the trial again (markets
	// recover), which restarts the attempt count.
	GiveUp bool
}

// Strategy is one recovery policy. Implementations must be deterministic
// given their construction Params and the call sequence.
type Strategy interface {
	// Name is the registry name the strategy was constructed under.
	Name() string
	// CheckpointInterval picks the periodic checkpoint cadence for one
	// assignment. Returning ctx.Default preserves the orchestrator's fixed
	// cadence.
	CheckpointInterval(ctx CadenceContext) time.Duration
	// OnNotice decides what to do inside the two-minute notice window.
	OnNotice(ctx NoticeContext) NoticeAction
	// Retry decides whether and when to retry after a blackout rejection.
	Retry(ctx RetryContext) RetryDecision
}

// Params configures strategy construction.
type Params struct {
	// Seed drives the deterministic backoff jitter.
	Seed uint64
}

// The adaptive strategy's fixed limits.
const (
	// RetryBudget is the consecutive blackout rejections a trial may accrue
	// before the adaptive strategy gives up (the fixed strategy never gives
	// up).
	RetryBudget = 8
	// maxBackoff caps the adaptive strategy's exponential retry delay.
	maxBackoff = 5 * time.Minute
	// minCadence floors the adaptive checkpoint interval so a noisy early
	// rate estimate cannot drive checkpoint thrash.
	minCadence = time.Minute
)
