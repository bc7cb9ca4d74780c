package experiments

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"

	"spottune/internal/campaign"
	"spottune/internal/core"
	"spottune/internal/obs"
	"spottune/internal/policy"
)

// CrossPolicyRow is one provisioning policy's campaign outcome on the study
// workload — the cost/JCT comparison the policy engine exists for.
type CrossPolicyRow struct {
	Policy              string
	Workload            string
	Cost                float64
	JCTHours            float64
	RefundFrac          float64
	Deployments         int
	OnDemandDeployments int
	Notices             int
	Report              *core.Report
}

// CrossPolicy runs every registered provisioning policy (SpotTune, the
// Single-Spot baselines, on-demand only, spot-with-on-demand-fallback, and
// the DeepVM-style mixed fleet) on one Table II workload — the first of
// Options.Workloads — at θ=0.7, fanned out through the campaign.Sweep
// worker pool. Rows come back in registry-name order; everything is
// deterministic given the seed.
func CrossPolicy(ctx *Context) ([]CrossPolicyRow, error) {
	return crossPolicy(ctx, campaign.Options{Theta: 0.7, Seed: ctx.Opts.Seed})
}

// CrossPolicyTraced is CrossPolicy with the flight recorder on: the returned
// recordings parallel the rows (recs[i] is rows[i]'s campaign trace).
// Tracing is purely observational, so the rows are identical to an untraced
// study. The collection map is mutex-guarded because the sweep pool calls
// Inspect from worker goroutines; the returned order is row order, so output
// stays deterministic regardless of scheduling.
func CrossPolicyTraced(ctx *Context) ([]CrossPolicyRow, []*obs.Recording, error) {
	var mu sync.Mutex
	byPolicy := map[string]*obs.Recording{}
	rows, err := crossPolicy(ctx, campaign.Options{
		Theta: 0.7,
		Seed:  ctx.Opts.Seed,
		Trace: true,
		Inspect: func(d *campaign.RunDetail) error {
			if d.Trace != nil {
				mu.Lock()
				byPolicy[d.Trace.Meta.Policy] = d.Trace
				mu.Unlock()
			}
			return nil
		},
	})
	if err != nil {
		return nil, nil, err
	}
	recs := make([]*obs.Recording, len(rows))
	for i, r := range rows {
		recs[i] = byPolicy[r.Policy]
	}
	return rows, recs, nil
}

// crossPolicy runs every registered policy on the study workload under opt
// and maps the reports, in registry-name order, to study rows.
func crossPolicy(ctx *Context, opt campaign.Options) ([]CrossPolicyRow, error) {
	names := policy.Names()
	wl, reps, err := sweepAxis(ctx, "policy", names, opt,
		func(o *campaign.Options, name string) { o.Policy = name })
	if err != nil {
		return nil, err
	}
	rows := make([]CrossPolicyRow, len(reps))
	for i, rep := range reps {
		rows[i] = CrossPolicyRow{
			Policy:              names[i],
			Workload:            wl,
			Cost:                rep.NetCost,
			JCTHours:            rep.JCT.Hours(),
			RefundFrac:          rep.RefundFraction(),
			Deployments:         rep.Deployments,
			OnDemandDeployments: rep.OnDemandDeployments,
			Notices:             rep.Notices,
			Report:              rep,
		}
	}
	return rows, nil
}

// sweepAxis runs one campaign per name on the study workload — the first of
// Options.Workloads, on the default environment — fanned out through the
// campaign.Sweep worker pool. set writes a name into its campaign's options;
// axis names the axis in errors. It returns the workload's name and the
// reports in name order; opt.Seed seeds both the campaigns and the sweep's
// per-task rand streams.
func sweepAxis(ctx *Context, axis string, names []string, opt campaign.Options, set func(*campaign.Options, string)) (string, []*core.Report, error) {
	if len(ctx.Opts.Workloads) == 0 {
		return "", nil, errors.New("experiments: no study workload configured")
	}
	wl := ctx.Opts.Workloads[0]
	env, err := ctx.Env(ctx.defaultKind())
	if err != nil {
		return "", nil, err
	}
	bench, err := ctx.Bench(wl)
	if err != nil {
		return "", nil, err
	}
	curves, err := ctx.Curves(wl)
	if err != nil {
		return "", nil, err
	}
	tasks := make([]campaign.Task, len(names))
	for i, name := range names {
		o := opt
		set(&o, name)
		tasks[i] = campaign.Task{Key: name, Run: func(*rand.Rand) (*core.Report, error) {
			return env.RunPolicy(bench, curves, o)
		}}
	}
	results := campaign.Sweep(tasks, campaign.SweepOptions{Seed: opt.Seed})
	reps := make([]*core.Report, len(results))
	for i, res := range results {
		if res.Err != nil {
			return "", nil, fmt.Errorf("experiments: %s %s: %w", axis, res.Key, res.Err)
		}
		reps[i] = res.Report
	}
	return bench.Name, reps, nil
}
