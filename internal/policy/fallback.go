package policy

import "spottune/internal/obs"

func init() {
	Register(FallbackName,
		"AutoSpotting-style: Eq. 2 spot until K failures or a doom window, then on-demand; back to spot when calm",
		func(p Params) (Policy, error) {
			return &fallback{spotChooser: newSpotChooser(p)}, nil
		})
}

// The fallback policy's thresholds: the consecutive spot-failure count
// after which it swaps to on-demand, the predicted revocation probability
// at or above which a market is a doom window, and the probability at or
// below which a market is calm again.
const (
	fallbackAfter = 2
	doomProb      = 0.6
	calmProb      = 0.3
)

// fallback rides spot capacity (chosen like SpotTune's Eq. 2) until the
// market turns hostile — the trial has accumulated fallbackAfter
// consecutive noticed spot segments, or the predicted revocation
// probability of the best spot candidate is inside the doom window — then
// swaps the trial to on-demand via the cluster's RequestOnDemand path. It
// swaps back to spot once the market looks calm again: the predicted
// probability is at or below calmProb and the candidate's current price is
// not spiking above its trailing-hour average (the observable signal that
// works even under an uninformative predictor). The failure streak only
// clears when a spot segment survives, so a failed retry swaps straight
// back. A held request (TrialInfo.Held) comes back as it is only while the
// streak is below fallbackAfter and the probability predicted for it is
// outside the doom window, so the policy still swaps at the same streak
// count; at or past the streak it decides afresh.
type fallback struct {
	spotChooser
}

func (f *fallback) Name() string { return FallbackName }

func (f *fallback) Decide(ctx Context) (Request, error) {
	if h, ok := f.held(ctx.Trial); ok && ctx.Trial.SpotFailures < fallbackAfter && h.RevProb < doomProb {
		return h, nil
	}
	q := f.pool.on(ctx.Market)
	spot, k, err := f.bestSpot(ctx, q)
	if err != nil {
		return Request{}, err
	}
	cur, err := q.currentPrice(k)
	if err != nil {
		return Request{}, err
	}
	calm := spot.RevProb <= calmProb && cur <= spot.AvgPrice*1.01
	doomed := spot.RevProb >= doomProb
	trapped := ctx.Trial.SpotFailures >= fallbackAfter && !calm
	if doomed || trapped {
		if ctx.Tracer != nil {
			label := "streak"
			if doomed {
				label = "doomed"
			}
			ctx.Tracer.Emit(obs.Event{
				VT:    ctx.Market.Now(),
				Kind:  obs.KindFallback,
				Trial: ctx.Trial.ID,
				Label: label,
				A:     spot.RevProb,
				N:     int64(ctx.Trial.SpotFailures),
			})
		}
		return f.pool.CheapestOnDemand(ctx)
	}
	if ctx.Tracer != nil && ctx.Trial.SpotFailures >= fallbackAfter && calm {
		// The streak alone would have trapped us on on-demand; the calm
		// market is what sends the trial back to spot.
		ctx.Tracer.Emit(obs.Event{
			VT:    ctx.Market.Now(),
			Kind:  obs.KindFallback,
			Trial: ctx.Trial.ID,
			Label: "spot-return",
			A:     spot.RevProb,
			N:     int64(ctx.Trial.SpotFailures),
		})
	}
	return spot, nil
}
