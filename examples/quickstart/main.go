// Quickstart: run one simulated SpotTune campaign end to end through the
// public API and compare it with the paper's two Single-Spot baselines, run
// as the cheapest-spot and fastest-spot policies on the same orchestrator.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"spottune"
)

func main() {
	// 1. Assemble a simulated transient cloud: six Table III spot markets
	//    over eight days, with the first two days used to train nothing —
	//    the constant predictor keeps this example fast. Swap in
	//    spottune.PredictorRevPred for the paper's learned model.
	env, err := spottune.NewEnvironment(spottune.EnvOptions{
		Seed:      42,
		Days:      8,
		TrainDays: 2,
		Predictor: spottune.PredictorConstant,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Pick a workload from Table II. Scale 0.4 shrinks the dataset and
	//    horizon so the whole example runs in a couple of seconds.
	bench, err := spottune.BenchmarkByName("LoR", spottune.WorkloadConfig{Seed: 42, Scale: 0.4})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Record the 16 hyper-parameter settings' validation curves with
	//    the real pure-Go trainer (SyntheticCurves(42) is the instant
	//    alternative).
	curves, err := bench.RecordCurves()
	if err != nil {
		log.Fatal(err)
	}

	// 4. Run SpotTune with early shutdown at θ=0.7 and both baselines:
	//    the Single-Spot policies train every trial to the end (θ=1) on
	//    one never-revoked spot type, r4.large or m4.4xlarge.
	st, err := env.RunSpotTune(bench, curves, spottune.CampaignOptions{Theta: 0.7, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	cheap, err := env.RunPolicy(bench, curves, spottune.CampaignOptions{
		Policy: spottune.PolicyCheapest, Theta: 1, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fast, err := env.RunPolicy(bench, curves, spottune.CampaignOptions{
		Policy: spottune.PolicyFastest, Theta: 1, Seed: 42, BaseType: "m4.4xlarge"})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-24s %10s %10s %8s\n", "approach", "cost", "JCT", "best HP found")
	for _, r := range []*spottune.Report{st, cheap, fast} {
		fmt.Printf("%-24s %9.4f$ %10v   %s\n",
			r.Approach, r.NetCost, r.JCT.Round(time.Minute), r.Best)
	}
	finals, trueBest, err := spottune.TrueFinals(bench, curves)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntrue best HP: %s (final loss %.4f)\n", trueBest, finals[trueBest])
	fmt.Printf("SpotTune's pick's true final loss: %.4f (gap %.4f — θ=0.7 trades a little\n",
		finals[st.Best], finals[st.Best]-finals[trueBest])
	fmt.Println("selection precision for 30% less compute; θ=1.0 never mispredicts)")
	fmt.Printf("SpotTune refunds: $%.4f of $%.4f gross (%.0f%% of steps ran free)\n",
		st.Refund, st.GrossCost, 100*st.FreeStepFraction())
}
