// Package policy is the pluggable provisioning-policy engine: every way of
// answering "which instance do we rent for this trial right now?" is a
// Policy behind one interface, indexed by name in a registry, and the
// orchestrator consults it at every deployment decision (initial deploy,
// post-notice redeploy, hourly-restart redeploy).
//
// SpotTune's Eq. 1–2 provisioner is one policy among several; the §IV-A4
// Single-Spot baselines, a pure on-demand strategy, an AutoSpotting-style
// spot-with-on-demand-fallback, and a DeepVM-style mixed spot/on-demand
// fleet are the others. Policies may request revocable spot capacity (with a
// maximum price) or reliable on-demand capacity; the decision context
// exposes market state (spot quotes, trailing averages, on-demand quotes),
// the online performance-matrix estimate for the trial being deployed, and
// the trial's deployment history (consecutive spot failures, incumbent-best
// status).
package policy

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"spottune/internal/market"
	"spottune/internal/obs"
)

// Default bid-delta interval (Algorithm 1 line 4): a spot maximum price is
// the current market price plus a uniform delta from this range, in USD.
const (
	DefaultDeltaLow  = 0.00001
	DefaultDeltaHigh = 0.2
)

// DefaultMaxPriceFactor is the §IV-A4 baseline bid: the on-demand price
// multiplied so high the instance is effectively never revoked.
const DefaultMaxPriceFactor = 1000

// MarketView is what a policy can observe about the cloud at decision time.
// *cloudsim.Cluster implements it directly.
type MarketView interface {
	// Now is the current (virtual) instant.
	Now() time.Time
	// CurrentPrice is the spot market price of a type right now.
	CurrentPrice(typeName string) (float64, error)
	// AvgPriceLastHour is the trailing-hour average spot price (Eq. 1).
	AvgPriceLastHour(typeName string) (float64, error)
	// OnDemandPrice is the fixed hourly on-demand quote for a type.
	OnDemandPrice(typeName string) (float64, error)
}

// TrialInfo describes the trial being (re)deployed.
type TrialInfo struct {
	ID             string
	CompletedSteps int
	MaxSteps       int
	// Deployments counts how many times this trial has been deployed.
	Deployments int
	// SpotFailures counts consecutive spot misfortunes for this trial:
	// segments that ended in a revocation notice plus spot requests the
	// provider rejected during a capacity blackout (reset when a spot
	// segment ends cleanly). Fallback policies key off it.
	SpotFailures int
	// Incumbent marks the trial whose last observed metric is currently
	// the best in the campaign. MixedFleet pins it on on-demand.
	Incumbent bool
	// Exclude names one market to avoid for this decision, when the pool
	// offers an alternative — set by the resilience layer on
	// notice-window migrations (the market that just revoked the trial)
	// and under diversified-spot degradation. Spot choosers honor it by
	// skipping the named market's candidacy while still drawing its bid
	// delta, so the rng stream stays aligned with the unexcluded decision
	// sequence.
	Exclude string
	// ExcludeFamily widens an exclusion to a whole instance family: the
	// resilience layer sets it (via the catalog) alongside Exclude when
	// replacements should decorrelate at family granularity. Only
	// catalog-aware policies (diversified-spot) honor it; like Exclude it
	// binds only while an alternative outside the family exists.
	ExcludeFamily string
	// LastRevoked names the market that most recently revoked this trial
	// (empty before any notice). Unlike Exclude it is always populated, so
	// policies can decorrelate on their own even when the resilience layer
	// requests nothing: diversified-spot avoids the family of LastRevoked
	// while the failure streak is alive.
	LastRevoked string
}

// Context carries one deployment decision's inputs.
type Context struct {
	Market MarketView
	Trial  TrialInfo
	// ActiveOnDemand is how many of the campaign's currently live
	// assignments run on on-demand capacity. MixedFleet uses it to keep
	// at most one trial pinned at a time.
	ActiveOnDemand int
	// SecPerStep is the performance matrix row M[·][hp] for this trial.
	SecPerStep func(typeName string) float64
	// RevRate is the observed revocation rate of a market (revocations per
	// spot instance-hour so far; 0 before any evidence), fed from the
	// orchestrator's online stats.ExposureRate estimators. Nil means no
	// evidence for any market — capacity-optimized allocation degrades to
	// lowest-price.
	RevRate func(typeName string) float64
	// Tracer receives policy-side events (fallback tier transitions). The
	// orchestrator always supplies one (obs.Nop when tracing is off);
	// custom callers may leave it nil, so policies must nil-check before
	// emitting.
	Tracer obs.Tracer
}

// Request is a provisioning decision: rent this type, spot or on-demand.
type Request struct {
	TypeName string
	// OnDemand requests reliable capacity at the fixed catalog price;
	// MaxPrice is ignored.
	OnDemand bool
	// MaxPrice is the spot bid (current price + delta, or the baseline
	// never-revoked multiple).
	MaxPrice float64

	// Diagnostics (zero when not applicable).
	RevProb  float64 // predicted revocation probability within the hour
	AvgPrice float64 // trailing-hour average market price (Eq. 1)
	StepCost float64 // Eq. 2 expected cost per step (relative units)
}

// Policy decides deployments. Implementations must be deterministic given
// their construction seed and the sequence of Decide calls.
type Policy interface {
	// Name is the registry name the policy was constructed under.
	Name() string
	// Decide picks the instance for one (re)deployment.
	Decide(ctx Context) (Request, error)
}

// RevProbFunc predicts the revocation probability within the hour for a bid
// of maxPrice on typeName's market at the given instant.
type RevProbFunc func(typeName string, at time.Time, maxPrice float64) float64

// Params configures policy construction. Zero values select defaults.
type Params struct {
	// Pool is the candidate instance-type set (required).
	Pool []string
	// Seed drives bid-delta sampling.
	Seed uint64
	// RevProb supplies revocation predictions (nil means always 0).
	RevProb RevProbFunc
	// DeltaLow/DeltaHigh bound the spot bid delta (defaults to the
	// paper's interval when DeltaHigh <= 0).
	DeltaLow, DeltaHigh float64
	// FallbackAfter is the consecutive spot-failure count after which the
	// fallback policy swaps to on-demand (default 2).
	FallbackAfter int
	// DoomProb is the predicted revocation probability at or above which
	// the fallback policy treats the market as a doom window (default 0.6).
	DoomProb float64
	// CalmProb is the probability at or below which the fallback policy
	// considers the market calm again and retries spot (default 0.3).
	CalmProb float64
	// Catalog supplies instance-type metadata (family, AZ, shape) for
	// catalog-aware policies. Nil degrades gracefully: families derive
	// from name prefixes and compatibility constraints cannot be applied.
	Catalog *market.Catalog
	// BaseType is the campaign's compatibility anchor: when set,
	// catalog-aware policies only consider pool members at least as
	// powerful as this type (market.InstanceType.AtLeastAsPowerful).
	// Requires Catalog.
	BaseType string
	// Allocation names the diversified-spot allocation strategy
	// ("lowest-price", "capacity-optimized"; empty selects lowest-price).
	Allocation string
}

func (p Params) withDefaults() Params {
	if p.DeltaHigh <= 0 {
		p.DeltaLow, p.DeltaHigh = DefaultDeltaLow, DefaultDeltaHigh
	}
	if p.FallbackAfter <= 0 {
		p.FallbackAfter = 2
	}
	if p.DoomProb <= 0 {
		p.DoomProb = 0.6
	}
	if p.CalmProb <= 0 {
		p.CalmProb = 0.3
	}
	if p.RevProb == nil {
		p.RevProb = func(string, time.Time, float64) float64 { return 0 }
	}
	return p
}

func (p Params) validate() error {
	if len(p.Pool) == 0 {
		return errors.New("policy: empty instance pool")
	}
	if p.DeltaLow < 0 || p.DeltaLow >= p.DeltaHigh {
		return fmt.Errorf("policy: invalid delta interval [%v, %v]", p.DeltaLow, p.DeltaHigh)
	}
	return nil
}

// newRNG is the shared bid-delta stream constructor. The PCG tag is part of
// the committed goldens: changing it changes every spot bid.
func newRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e0715))
}

// spotChooser is the shared Eq. 1–2 spot-selection state: every policy that
// bids on the spot market embeds one, so the pool copy, predictor hook, bid
// deltas, and rng stream are defined exactly once.
type spotChooser struct {
	pool      []string
	revProb   RevProbFunc
	deltaLow  float64
	deltaHigh float64
	rng       *rand.Rand
}

func newSpotChooser(p Params) spotChooser {
	return spotChooser{
		pool:      append([]string(nil), p.Pool...),
		revProb:   p.RevProb,
		deltaLow:  p.DeltaLow,
		deltaHigh: p.DeltaHigh,
		rng:       newRNG(p.Seed),
	}
}

// bestSpot is Eq. 1–2 over the pool: for each member, bid the current price
// plus a uniform delta, predict the revocation probability at that bid, and
// score the expected per-step cost E[sCost] = M[inst][hp]·(1−p)·price over
// the trailing-hour average price — plus a small undamped term so
// near-certain revocations (p → 1, expected cost → 0) still tie-break toward
// the cheap-and-fast choice instead of argmin order. Exactly one delta is
// drawn per pool member per call, in pool order (determinism contract).
func (s *spotChooser) bestSpot(ctx Context) (Request, error) {
	now := ctx.Market.Now()
	// An exclusion only binds when the pool offers an alternative: with a
	// single-market pool there is nowhere else to go, so the request
	// proceeds as if unexcluded.
	exclude := ctx.Trial.Exclude
	if len(s.pool) < 2 {
		exclude = ""
	}
	best := Request{StepCost: math.Inf(1)}
	for _, name := range s.pool {
		cur, err := ctx.Market.CurrentPrice(name)
		if err != nil {
			return Request{}, err
		}
		delta := s.deltaLow + s.rng.Float64()*(s.deltaHigh-s.deltaLow)
		if name == exclude {
			// The delta is drawn (one draw per pool member per call —
			// the stream-alignment contract) but the market is not a
			// candidate this time.
			continue
		}
		maxPrice := cur + delta
		prob := s.revProb(name, now, maxPrice)
		if prob < 0 {
			prob = 0
		} else if prob > 1 {
			prob = 1
		}
		avg, err := ctx.Market.AvgPriceLastHour(name)
		if err != nil {
			return Request{}, err
		}
		raw := ctx.SecPerStep(name) * avg
		sCost := raw*(1-prob) + 0.02*raw
		if sCost < best.StepCost {
			best = Request{
				TypeName: name,
				MaxPrice: maxPrice,
				RevProb:  prob,
				AvgPrice: avg,
				StepCost: sCost,
			}
		}
	}
	if math.IsInf(best.StepCost, 1) {
		return Request{}, errors.New("policy: no viable instance in pool")
	}
	return best, nil
}

// CheapestOnDemand picks the pool member with the least expected on-demand
// cost per step for the context's trial — the choice every policy's
// on-demand path makes, exported so the orchestrator's degradation ladder
// can force reliable capacity without bypassing the shared selection rule
// (and without touching any policy's rng stream: on-demand selection draws
// nothing).
func CheapestOnDemand(ctx Context, pool []string) (Request, error) {
	return bestOnDemand(ctx, pool)
}

// bestOnDemand picks the pool member with the least expected on-demand cost
// per step (M[inst][hp] · on-demand price), ties broken by pool order.
func bestOnDemand(ctx Context, pool []string) (Request, error) {
	best := Request{OnDemand: true, StepCost: math.Inf(1)}
	for _, name := range pool {
		od, err := ctx.Market.OnDemandPrice(name)
		if err != nil {
			return Request{}, err
		}
		if sCost := ctx.SecPerStep(name) * od; sCost < best.StepCost {
			best.TypeName = name
			best.StepCost = sCost
		}
	}
	if math.IsInf(best.StepCost, 1) {
		return Request{}, errors.New("policy: no viable instance in pool")
	}
	return best, nil
}
