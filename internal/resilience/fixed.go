package resilience

import "time"

func init() {
	Register(FixedName,
		"compat default: configured periodic cadence, passive post-notice re-queue, poll-grid blackout retries forever",
		func(Params) (Strategy, error) { return fixed{}, nil })
}

// fixed is the orchestrator's historical recovery behavior, extracted
// unchanged: every answer it gives is exactly what the pre-resilience code
// hardcoded, so campaigns running under it are bit-for-bit identical to the
// golden baselines (pinned by TestFixedStrategyMatchesDefault and the
// scenarios.csv byte-identity gate).
type fixed struct{}

func (fixed) Name() string { return FixedName }

// CheckpointInterval keeps the orchestrator's fixed cadence.
func (fixed) CheckpointInterval(ctx CadenceContext) time.Duration { return ctx.Default }

// OnNotice re-queues passively; the orchestrator's poll-interval spacing
// applies as it always has.
func (fixed) OnNotice(NoticeContext) NoticeAction { return NoticeAction{} }

// Retry paces every blackout rejection onto the poll grid and never gives
// up — the loop-mode-equivalence pacing the blackout streak semantics
// depend on.
func (fixed) Retry(ctx RetryContext) RetryDecision {
	return RetryDecision{Delay: ctx.PollInterval}
}
