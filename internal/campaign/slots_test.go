package campaign

import (
	"reflect"
	"testing"

	"spottune/internal/cloudsim"
	"spottune/internal/core"
	"spottune/internal/policy"
	"spottune/internal/simclock"
	"spottune/internal/workload"
)

// nameView passes on a market view's MarketView methods only, so a policy
// deciding over it quotes by name.
type nameView struct{ policy.MarketView }

// nameQuoted substitutes a nameView for the decision's market view, as a
// timing wrapper that substitutes its own view does, and reports the
// wrapped policy's name. decisions counts the decisions it passed on.
type nameQuoted struct {
	inner     policy.Policy
	view      nameView
	decisions int
}

func (p *nameQuoted) Name() string { return p.inner.Name() }

func (p *nameQuoted) Decide(ctx policy.Context) (policy.Request, error) {
	p.decisions++
	p.view = nameView{ctx.Market}
	ctx.Market = &p.view
	return p.inner.Decide(ctx)
}

// TestNameQuotedRunsMatchSlotRuns runs every registered policy's campaign
// twice, once as RunPolicy runs it, quoting the cluster by slot, and once
// with the policy wrapped to hide the upgrade, in a private world and in a
// contended one (capacity 2 per type, surge slope 0.5); the reports must be
// deeply equal.
func TestNameQuotedRunsMatchSlotRuns(t *testing.T) {
	env := quickEnv(t, PredictorOracle)
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: 4, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	curves := bench.SyntheticCurves(4)
	capped, err := env.Markets(env.Catalog.WithCapacity(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range policy.Names() {
		for _, contended := range []bool{false, true} {
			options := func() Options {
				opt := Options{Theta: 0.7, Seed: 4, Policy: name}
				if contended {
					opt.World = &World{
						Clock:   simclock.NewVirtual(env.CampaignStart),
						Markets: capped,
						Domain:  cloudsim.NewCapacityDomain(0.5),
					}
				}
				return opt
			}
			slot, err := env.RunPolicy(bench, curves, options())
			if err != nil {
				t.Fatalf("%s (contended %v): %v", name, contended, err)
			}
			var wrapped *nameQuoted
			byName, err := runWrapped(env, bench, curves, options(), func(p policy.Policy) policy.Policy {
				wrapped = &nameQuoted{inner: p}
				return wrapped
			})
			if err != nil {
				t.Fatalf("%s (contended %v), name-quoted: %v", name, contended, err)
			}
			if wrapped == nil || wrapped.decisions == 0 {
				t.Fatalf("%s (contended %v): no decision went through the name-quoted wrapper", name, contended)
			}
			if !reflect.DeepEqual(slot, byName) {
				t.Errorf("%s (contended %v): slot-quoted run %v/$%.6f, name-quoted %v/$%.6f",
					name, contended, slot.JCT, slot.NetCost, byName.JCT, byName.NetCost)
			}
		}
	}
}

// runWrapped is RunPolicy with the run's policy passed through wrap.
func runWrapped(env *Environment, b *workload.Benchmark, curves workload.Curves, opt Options, wrap func(policy.Policy) policy.Policy) (*core.Report, error) {
	run, err := env.newRun(b, curves, opt, wrap)
	if err != nil {
		return nil, err
	}
	if _, err := run.orch.Run(); err != nil {
		return nil, err
	}
	return run.Finish()
}
