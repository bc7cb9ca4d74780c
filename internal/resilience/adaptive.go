package resilience

import (
	"math"
	"time"
)

func init() {
	Register(AdaptiveName,
		"Young/Daly cadence from online revocation rates, migration-on-notice, budgeted exponential backoff with give-up",
		func(p Params) (Strategy, error) { return &adaptive{seed: p.Seed}, nil })
}

// adaptive makes all three recovery decisions from observed market state.
type adaptive struct {
	seed uint64 // drives the backoff jitter
}

func (a *adaptive) Name() string { return AdaptiveName }

// CheckpointInterval is the Young/Daly first-order optimum τ = √(2·δ·MTBF):
// δ is the modeled checkpoint cost on this instance and MTBF the inverse of
// the market's observed revocation rate. With no evidence yet ctx.Default
// stands; with evidence the result is clamped to [minCadence, Default] —
// the estimate can only ever tighten the cadence, never relax it past the
// orchestrator's bound (which is what keeps the lost-work invariant's
// per-notice bound monotone in the default).
func (a *adaptive) CheckpointInterval(ctx CadenceContext) time.Duration {
	if ctx.RevocationsPerHour <= 0 || ctx.CheckpointSecs <= 0 {
		return ctx.Default
	}
	mtbfSecs := 3600 / ctx.RevocationsPerHour
	tau := time.Duration(math.Sqrt(2*ctx.CheckpointSecs*mtbfSecs) * float64(time.Second))
	if tau > ctx.Default {
		tau = ctx.Default
	}
	if tau < minCadence {
		tau = minCadence
	}
	return tau
}

// OnNotice migrates: request a replacement immediately in a different
// market, so its boot and restore overlap the two minutes the dying
// instance has left, instead of idling through the passive re-queue
// spacing. Immediate (doom-window) notices fall back to the paced re-queue
// — a same-instant replacement could be noticed the same way, and the event
// loop must not ping-pong markets forever inside one virtual instant.
func (a *adaptive) OnNotice(ctx NoticeContext) NoticeAction {
	if ctx.Immediate {
		return NoticeAction{}
	}
	act := NoticeAction{Migrate: true}
	if ctx.PoolSize > 1 {
		act.ExcludeType = ctx.TypeName
	}
	return act
}

// Retry gives up once the attempt count reaches RetryBudget, and otherwise
// waits the backoff.
func (a *adaptive) Retry(ctx RetryContext) RetryDecision {
	if ctx.Attempt >= RetryBudget {
		return RetryDecision{GiveUp: true}
	}
	return RetryDecision{Delay: backoff(a.seed, ctx)}
}

// backoff is the adaptive retry delay: PollInterval · 2^(attempt−1), capped
// at maxBackoff, plus a deterministic jitter in [0, PollInterval) hashed
// from (seed, trial, attempt) so synchronized trials spread out without any
// shared randomness.
func backoff(seed uint64, ctx RetryContext) time.Duration {
	shift := ctx.Attempt - 1
	if shift < 0 {
		shift = 0
	} else if shift > 16 {
		shift = 16 // past maxBackoff for any sane PollInterval; avoid overflow
	}
	delay := ctx.PollInterval << uint(shift)
	if delay > maxBackoff || delay <= 0 {
		delay = maxBackoff
	}
	return delay + time.Duration(jitterFrac(seed, ctx.TrialID, ctx.Attempt)*float64(ctx.PollInterval))
}

// jitterFrac maps (seed, trial, attempt) to a uniform fraction in [0, 1)
// via FNV-style mixing and a splitmix64 finalizer — a pure function, so the
// same rejection always jitters the same way regardless of loop mode,
// worker scheduling, or host.
func jitterFrac(seed uint64, trialID string, attempt int) float64 {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(trialID); i++ {
		h ^= uint64(trialID[i])
		h *= 0x100000001b3
	}
	h ^= uint64(attempt)
	h += 0x9E3779B97F4A7C15
	z := h
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
