package policy

import "math"

// The §IV-A4 Single-Spot baselines as policies over the shared orchestrator:
// pick one instance type by a static criterion and bid so far above the
// on-demand price that the instance is effectively never revoked. Run at
// θ=1 they are the paper's Cheapest and Fastest baselines, measured by the
// same machinery as SpotTune: boot, checkpoint, restore and hourly-restart
// overheads, per-segment throughput observations, and the plateau stop.
// fastest-spot ranks by the live perf estimate, so a campaign that must
// stay on m4.4xlarge anchors it with BaseType "m4.4xlarge".

func init() {
	Register(CheapestName,
		"Single-Spot baseline: cheapest type by on-demand price, never-revoked bid",
		func(p Params) (Policy, error) {
			return &singleSpot{name: CheapestName, pool: newPool(p.Pool), pick: pickCheapest}, nil
		})
	Register(FastestName,
		"Single-Spot baseline: fastest type by current perf estimate, never-revoked bid",
		func(p Params) (Policy, error) {
			return &singleSpot{name: FastestName, pool: newPool(p.Pool), pick: pickFastest}, nil
		})
	Register(OnDemandName,
		"on-demand only: reliable capacity at the fixed quote, min cost per step",
		func(p Params) (Policy, error) {
			return &onDemandOnly{pool: newPool(p.Pool)}, nil
		})
}

// singleSpot rents one statically chosen type on spot with a bid of
// DefaultMaxPriceFactor × its on-demand price (the paper's no-preemption
// setup).
type singleSpot struct {
	name string
	pool Pool
	// pick returns the index of the chosen member, or -1 when none ranks
	// below +Inf.
	pick func(ctx Context, q quotes, names []string) (int, error)
}

func (s *singleSpot) Name() string { return s.name }

func (s *singleSpot) Decide(ctx Context) (Request, error) {
	q := s.pool.on(ctx.Market)
	k, err := s.pick(ctx, q, s.pool.names)
	if err != nil {
		return Request{}, err
	}
	if k < 0 {
		return Request{}, errNoViable
	}
	od, err := q.onDemandPrice(k)
	if err != nil {
		return Request{}, err
	}
	avg, err := q.avgPriceLastHour(k)
	if err != nil {
		return Request{}, err
	}
	name := s.pool.names[k]
	return Request{
		TypeName: name,
		MaxPrice: od * DefaultMaxPriceFactor,
		AvgPrice: avg,
		StepCost: ctx.SecPerStep(name) * avg,
	}, nil
}

// pickCheapest ranks by on-demand catalog price (the paper's "Cheapest" is
// r4.large, the lowest-priced Table III type), ties by pool order.
func pickCheapest(_ Context, q quotes, names []string) (int, error) {
	best, bestPrice := -1, math.Inf(1)
	for k := range names {
		od, err := q.onDemandPrice(k)
		if err != nil {
			return -1, err
		}
		if od < bestPrice {
			best, bestPrice = k, od
		}
	}
	return best, nil
}

// pickFastest ranks by the current seconds-per-step estimate (the paper's
// "Fastest" is m4.4xlarge, the most-core type), ties by pool order.
func pickFastest(ctx Context, _ quotes, names []string) (int, error) {
	best, bestSec := -1, math.Inf(1)
	for k, name := range names {
		if sec := ctx.SecPerStep(name); sec < bestSec {
			best, bestSec = k, sec
		}
	}
	return best, nil
}

// onDemandOnly never touches the spot market: every deployment is reliable
// on-demand capacity on the type with the least expected cost per step.
type onDemandOnly struct {
	pool Pool
}

func (o *onDemandOnly) Name() string { return OnDemandName }

func (o *onDemandOnly) Decide(ctx Context) (Request, error) {
	return o.pool.CheapestOnDemand(ctx)
}
