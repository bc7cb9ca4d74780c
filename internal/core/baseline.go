package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"spottune/internal/cloudsim"
	"spottune/internal/search"
	"spottune/internal/trial"
)

// The Single-Spot Tune baseline of §IV-A4 bids singleSpotMaxPriceFactor ×
// the on-demand price — so high the instance is effectively never revoked,
// as the paper assumes — and advances the clock in singleSpotChunk slices.
const (
	singleSpotMaxPriceFactor = 1000
	singleSpotChunk          = 10 * time.Minute
)

// RunSingleSpot executes the Single-Spot Tune baseline of §IV-A4 and returns
// its report: all trials run to full max_trial_steps, one at a time, on one
// spot instance of the given type ("r4.large" for the Cheapest baseline,
// "m4.4xlarge" for the Fastest).
//
// Fig. 7, the quickstart and the CLI's -baseline flag report this loop. The
// same strategies run through the shared orchestrator as the
// "cheapest-spot" and "fastest-spot" policies, which add the orchestrator's
// per-deployment overheads (startup delay, restore, redeploy spacing), so
// the golden tests bound the gap between the two rather than pin equality.
func RunSingleSpot(cluster *cloudsim.Cluster, trials []*trial.Replay, typeName string) (*Report, error) {
	if len(trials) == 0 {
		return nil, errors.New("core: no trials submitted")
	}
	it, ok := cluster.Catalog().Lookup(typeName)
	if !ok {
		return nil, fmt.Errorf("core: unknown baseline instance type %q", typeName)
	}
	clk := cluster.Clock()
	start := clk.Now()

	inst, err := cluster.RequestSpot(typeName, it.OnDemandPrice*singleSpotMaxPriceFactor, nil)
	if err != nil {
		return nil, fmt.Errorf("core: baseline request: %w", err)
	}
	totalSteps := 0
	for _, tr := range trials {
		for tr.CompletedSteps() < tr.MaxSteps() {
			if !inst.Running() {
				return nil, fmt.Errorf("core: baseline instance %s was revoked despite max price factor %v",
					inst.ID, singleSpotMaxPriceFactor)
			}
			secs := singleSpotChunk.Seconds()
			steps, used := tr.RunFor(inst.Type, secs, tr.MaxSteps())
			totalSteps += steps
			if used < secs {
				// Trial finished mid-chunk; only bill the used time.
				clk.Sleep(time.Duration(used * float64(time.Second)))
				break
			}
			clk.Sleep(singleSpotChunk)
		}
	}
	if err := cluster.Terminate(inst.ID); err != nil {
		return nil, err
	}

	// θ=1 semantics: the observed finals are the predictions.
	finals := make(map[string]float64, len(trials))
	for _, tr := range trials {
		pts := tr.Points()
		if len(pts) == 0 {
			return nil, fmt.Errorf("core: baseline trial %s produced no metrics", tr.ID())
		}
		finals[tr.ID()] = pts[len(pts)-1].Value
	}
	ranked := search.RankByValue(finals)
	best := ranked[0]

	led := cluster.Ledger()
	return &Report{
		Approach:        fmt.Sprintf("SingleSpot(%s)", typeName),
		Theta:           1.0,
		JCT:             clk.Now().Sub(start),
		GrossCost:       led.TotalGross(),
		Refund:          led.TotalRefunded(),
		NetCost:         led.TotalNet(),
		TotalSteps:      totalSteps,
		FreeSteps:       0,
		Deployments:     1,
		PredictedFinals: finals,
		Ranked:          ranked,
		Top:             ranked[:minInt(3, len(ranked))],
		Best:            best,
	}, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TrueBest returns the trial ID with the lowest ground-truth final metric —
// the reference for Fig. 8c accuracy.
func TrueBest(trials []*trial.Replay) (string, float64) {
	best, val := "", math.Inf(1)
	for _, tr := range trials {
		if f := tr.TrueFinal(); f < val {
			best, val = tr.ID(), f
		}
	}
	return best, val
}

// TrueFinals maps every trial to its ground-truth final metric.
func TrueFinals(trials []*trial.Replay) map[string]float64 {
	out := make(map[string]float64, len(trials))
	for _, tr := range trials {
		out[tr.ID()] = tr.TrueFinal()
	}
	return out
}
