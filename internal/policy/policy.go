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
	"math"
	"math/rand/v2"
	"time"

	"spottune/internal/market"
	"spottune/internal/obs"
)

// The bid-delta interval (Algorithm 1 line 4): a spot maximum price is the
// current market price plus a uniform delta from this range, in USD.
const (
	deltaLow  = 0.00001
	deltaHigh = 0.2
)

// DefaultMaxPriceFactor is the §IV-A4 baseline bid: the on-demand price
// multiplied so high the instance is effectively never revoked.
const DefaultMaxPriceFactor = 1000

// MarketView is what a policy can observe about the cloud at decision time.
// *cloudsim.Cluster implements it directly, and its SlotMarket upgrade.
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

// SlotMarket is the slot-keyed upgrade of a MarketView. A policy that finds
// it on Context.Market resolves each pool member's name to a slot once per
// view and quotes every later decision by slot, with no name lookup; a view
// without it is quoted by name (see Pool). *cloudsim.Cluster implements it.
// Policies key the resolved slots by the view, so an implementation must be
// comparable (a pointer) and must keep its slots for as long as it is used.
type SlotMarket interface {
	MarketView
	// Slot resolves a type name to its slot; ok is false for a market the
	// view does not know.
	Slot(typeName string) (slot int, ok bool)
	// CurrentPriceBySlot, AvgPriceLastHourBySlot and OnDemandPriceBySlot
	// return what CurrentPrice, AvgPriceLastHour and OnDemandPrice return
	// for the name the slot was resolved from, bit for bit.
	CurrentPriceBySlot(slot int) (float64, error)
	AvgPriceLastHourBySlot(slot int) (float64, error)
	OnDemandPriceBySlot(slot int) (float64, error)
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
// of maxPrice on one market at the given instant.
type RevProbFunc func(at time.Time, maxPrice float64) float64

// RevProbSource resolves a market's RevProbFunc by type name; nil means the
// market has no predictor and predicts 0. Policies resolve every pool member
// once, when they are built, so a decision looks up no name to predict.
type RevProbSource func(typeName string) RevProbFunc

// Params configures policy construction. Zero values select defaults.
type Params struct {
	// Pool is the candidate instance-type set (required).
	Pool []string
	// Seed drives bid-delta sampling.
	Seed uint64
	// RevProb supplies each pool member's revocation predictions (nil
	// means always 0).
	RevProb RevProbSource
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

func (p Params) validate() error {
	if len(p.Pool) == 0 {
		return errors.New("policy: empty instance pool")
	}
	return nil
}

// newRNG is the shared bid-delta stream constructor. The PCG tag is part of
// the committed goldens: changing it changes every spot bid.
func newRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e0715))
}

// spotChooser is the shared Eq. 1–2 spot-selection state: every policy that
// bids on the spot market embeds one, so the pool, predictor hooks, bid
// deltas, and rng stream are defined exactly once.
type spotChooser struct {
	pool Pool
	// revProb is each pool member's predictor, resolved at construction.
	revProb []RevProbFunc
	rng     *rand.Rand
}

func newSpotChooser(p Params) spotChooser {
	pool := newPool(p.Pool)
	return spotChooser{
		pool:    pool,
		revProb: resolveRevProb(p.RevProb, pool.names),
		rng:     newRNG(p.Seed),
	}
}

// resolveRevProb resolves each named market's predictor from src; a nil
// source or a market it does not know predicts 0.
func resolveRevProb(src RevProbSource, names []string) []RevProbFunc {
	out := make([]RevProbFunc, len(names))
	for k, name := range names {
		if src != nil {
			out[k] = src(name)
		}
		if out[k] == nil {
			out[k] = noRevProb
		}
	}
	return out
}

func noRevProb(time.Time, float64) float64 { return 0 }

// clampProb bounds a predicted probability to [0, 1].
func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	} else if p > 1 {
		return 1
	}
	return p
}

// errNoViable is the decision error when no pool member scores below +Inf.
var errNoViable = errors.New("policy: no viable instance in pool")

// bestSpot is Eq. 1–2 over the pool: for each member, bid the current price
// plus a uniform delta, predict the revocation probability at that bid, and
// score the expected per-step cost E[sCost] = M[inst][hp]·(1−p)·price over
// the trailing-hour average price — plus a small undamped term so
// near-certain revocations (p → 1, expected cost → 0) still tie-break toward
// the cheap-and-fast choice instead of argmin order. Exactly one delta is
// drawn per pool member per call, in pool order (determinism contract). It
// quotes through q, the pool's quotes on ctx.Market, and returns the chosen
// member's index beside its request.
func (s *spotChooser) bestSpot(ctx Context, q quotes) (Request, int, error) {
	now := ctx.Market.Now()
	// An exclusion only binds when the pool offers an alternative: with a
	// single-market pool there is nowhere else to go, so the request
	// proceeds as if unexcluded.
	exclude := ctx.Trial.Exclude
	if len(s.pool.names) < 2 {
		exclude = ""
	}
	best, bestK := Request{StepCost: math.Inf(1)}, -1
	for k, name := range s.pool.names {
		cur, err := q.currentPrice(k)
		if err != nil {
			return Request{}, -1, err
		}
		delta := deltaLow + s.rng.Float64()*(deltaHigh-deltaLow)
		if name == exclude {
			// The delta is drawn (one draw per pool member per call —
			// the stream-alignment contract) but the market is not a
			// candidate this time.
			continue
		}
		maxPrice := cur + delta
		prob := clampProb(s.revProb[k](now, maxPrice))
		avg, err := q.avgPriceLastHour(k)
		if err != nil {
			return Request{}, -1, err
		}
		raw := ctx.SecPerStep(name) * avg
		sCost := raw*(1-prob) + 0.02*raw
		if sCost < best.StepCost {
			best, bestK = Request{
				TypeName: name,
				MaxPrice: maxPrice,
				RevProb:  prob,
				AvgPrice: avg,
				StepCost: sCost,
			}, k
		}
	}
	if bestK < 0 {
		return Request{}, -1, errNoViable
	}
	return best, bestK, nil
}
