package main

import (
	"sync"
	"sync/atomic"
	"time"

	"spottune/internal/market"
	"spottune/internal/policy"
	"spottune/internal/resilience"
	"spottune/internal/revpred"
	"spottune/internal/search"
)

// The traced run measures each layer from outside the program: it registers
// timing wrappers around the public interfaces the campaign engine already
// accepts (provisioning policies with the market view and perf lookup they
// receive, tuners, recovery strategies, revocation predictors) and asks the
// engine for the wrapped names. Each wrapper's Name() returns the wrapped
// name, so report labels and every simulated result stay identical.

// wrapName is the benchmark-private registry name of name's wrapper.
func wrapName(name string) string { return "bench-traced:" + name }

// counter is one layer boundary's call count and busy time. Campaigns run
// concurrently (service shards, stream workers), so the totals are atomic.
type counter struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (c *counter) add(calls, ns int64) {
	c.calls.Add(calls)
	c.ns.Add(ns)
}

func (c *counter) seconds() float64 { return float64(c.ns.Load()) / 1e9 }

// probe holds the layer totals of one process. Decide time is inclusive of
// the quotes, perf lookups and predictions made inside it; snapshot
// subtracts them to get the policy's self time.
type probe struct {
	decide, quote, lookup, predict counter
	tuner, strategy, check         counter
	retries                        atomic.Int64
}

var prb probe

// reset zeroes the totals before a traced replay.
func (p *probe) reset() { *p = probe{} }

// layerSeconds is a snapshot of the layer busy times, each exclusive of the
// others so they add up.
type layerSeconds struct {
	decideSelf, quote, lookup, predict, tuner, strategy, check float64
}

func (p *probe) snapshot() layerSeconds {
	return layerSeconds{
		decideSelf: p.decide.seconds() - p.quote.seconds() - p.lookup.seconds() - p.predict.seconds(),
		quote:      p.quote.seconds(),
		lookup:     p.lookup.seconds(),
		predict:    p.predict.seconds(),
		tuner:      p.tuner.seconds(),
		strategy:   p.strategy.seconds(),
		check:      p.check.seconds(),
	}
}

func (l layerSeconds) sum() float64 {
	return l.decideSelf + l.quote + l.lookup + l.predict + l.tuner + l.strategy + l.check
}

var registerOnce sync.Once

// registerTracers registers a timing wrapper for each named policy, tuner
// and strategy. Only a traced run calls it, before any campaign runs; the
// registries refuse duplicates, so it registers at most once per process.
func registerTracers(policies, tuners, strategies []string) {
	registerOnce.Do(func() { register(policies, tuners, strategies) })
}

func register(policies, tuners, strategies []string) {
	for _, name := range policies {
		name := name
		policy.Register(wrapName(name), "benchmark timing wrapper", func(p policy.Params) (policy.Policy, error) {
			inner, err := policy.New(name, p)
			if err != nil {
				return nil, err
			}
			return newTracedPolicy(inner), nil
		})
	}
	for _, name := range tuners {
		name := name
		search.Register(wrapName(name), "benchmark timing wrapper", func(p search.Params) (search.Tuner, error) {
			inner, err := search.New(name, p)
			if err != nil {
				return nil, err
			}
			return &tracedTuner{inner: inner}, nil
		})
	}
	for _, name := range strategies {
		name := name
		resilience.Register(wrapName(name), "benchmark timing wrapper", func(p resilience.Params) (resilience.Strategy, error) {
			inner, err := resilience.New(name, p)
			if err != nil {
				return nil, err
			}
			return &tracedStrategy{inner: inner}, nil
		})
	}
}

// tracedPolicy times Decide and, through the view and lookup it substitutes
// into the decision context, every quote and perf lookup the policy makes.
// A policy instance belongs to one campaign, which runs on one goroutine,
// so the per-decision scratch needs no locking.
type tracedPolicy struct {
	inner   policy.Policy
	view    tracedView
	perStep func(string) float64
	lookup  func(string) float64 // p.secPerStep, bound once
}

func newTracedPolicy(inner policy.Policy) *tracedPolicy {
	p := &tracedPolicy{inner: inner}
	p.lookup = p.secPerStep
	return p
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Decide(ctx policy.Context) (policy.Request, error) {
	p.view = tracedView{inner: ctx.Market}
	ctx.Market = &p.view
	p.perStep = ctx.SecPerStep
	if ctx.SecPerStep != nil {
		ctx.SecPerStep = p.lookup
	}
	start := time.Now()
	req, err := p.inner.Decide(ctx)
	prb.decide.add(1, int64(time.Since(start)))
	prb.quote.add(p.view.quoteCalls, p.view.quoteNS)
	prb.lookup.add(p.view.lookupCalls, p.view.lookupNS)
	return req, err
}

func (p *tracedPolicy) secPerStep(typeName string) float64 {
	start := time.Now()
	v := p.perStep(typeName)
	p.view.lookupNS += int64(time.Since(start))
	p.view.lookupCalls++
	return v
}

// tracedView is the market view a traced policy sees: the quotes the
// provisioning rule is built on (CurrentPrice, AvgPriceLastHour) are timed.
type tracedView struct {
	inner                 policy.MarketView
	quoteCalls, quoteNS   int64
	lookupCalls, lookupNS int64
}

func (v *tracedView) Now() time.Time { return v.inner.Now() }

func (v *tracedView) CurrentPrice(typeName string) (float64, error) {
	start := time.Now()
	p, err := v.inner.CurrentPrice(typeName)
	v.quoteNS += int64(time.Since(start))
	v.quoteCalls++
	return p, err
}

func (v *tracedView) AvgPriceLastHour(typeName string) (float64, error) {
	start := time.Now()
	p, err := v.inner.AvgPriceLastHour(typeName)
	v.quoteNS += int64(time.Since(start))
	v.quoteCalls++
	return p, err
}

func (v *tracedView) OnDemandPrice(typeName string) (float64, error) {
	return v.inner.OnDemandPrice(typeName)
}

// tracedTuner times Next and Finish, including the EarlyCurve fits the
// tuner triggers through the campaign state.
type tracedTuner struct{ inner search.Tuner }

func (t *tracedTuner) Name() string { return t.inner.Name() }

func (t *tracedTuner) Next(s search.State) (search.Round, bool) {
	start := time.Now()
	r, ok := t.inner.Next(s)
	prb.tuner.add(1, int64(time.Since(start)))
	return r, ok
}

func (t *tracedTuner) Finish(s search.State) search.Outcome {
	start := time.Now()
	out := t.inner.Finish(s)
	prb.tuner.add(1, int64(time.Since(start)))
	return out
}

// tracedStrategy times the three recovery decisions and counts the
// blackout and capacity-miss retries among them.
type tracedStrategy struct{ inner resilience.Strategy }

func (s *tracedStrategy) Name() string { return s.inner.Name() }

func (s *tracedStrategy) CheckpointInterval(ctx resilience.CadenceContext) time.Duration {
	start := time.Now()
	d := s.inner.CheckpointInterval(ctx)
	prb.strategy.add(1, int64(time.Since(start)))
	return d
}

func (s *tracedStrategy) OnNotice(ctx resilience.NoticeContext) resilience.NoticeAction {
	start := time.Now()
	a := s.inner.OnNotice(ctx)
	prb.strategy.add(1, int64(time.Since(start)))
	return a
}

func (s *tracedStrategy) Retry(ctx resilience.RetryContext) resilience.RetryDecision {
	start := time.Now()
	d := s.inner.Retry(ctx)
	prb.strategy.add(1, int64(time.Since(start)))
	prb.retries.Add(1)
	return d
}

// tracedPredictor times revocation predictions. Predictors are shared by
// every campaign of an environment; they are only consulted from inside a
// policy's Decide, which is what lets decide self time subtract them.
type tracedPredictor struct{ inner revpred.Predictor }

func (p tracedPredictor) Predict(g *market.Grid, i int, maxPrice float64) float64 {
	start := time.Now()
	v := p.inner.Predict(g, i, maxPrice)
	prb.predict.add(1, int64(time.Since(start)))
	return v
}

// tracePredictors wraps every predictor of an environment's pool.
func tracePredictors(preds map[string]revpred.Predictor) map[string]revpred.Predictor {
	out := make(map[string]revpred.Predictor, len(preds))
	for name, p := range preds {
		out[name] = tracedPredictor{inner: p}
	}
	return out
}
