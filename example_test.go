package spottune_test

import (
	"fmt"
	"log"

	"spottune"
)

// Example runs a miniature SpotTune campaign end to end: synthetic markets,
// a scaled-down LoR workload with synthetic curves, early shutdown at
// θ=0.7, and the cheapest Single-Spot baseline (the cheapest-spot policy at
// θ=1) for comparison.
func Example() {
	env, err := spottune.NewEnvironment(spottune.EnvOptions{
		Seed:      7,
		Days:      6,
		TrainDays: 2,
		Predictor: spottune.PredictorConstant,
	})
	if err != nil {
		log.Fatal(err)
	}
	bench, err := spottune.BenchmarkByName("LoR", spottune.WorkloadConfig{Seed: 7, Scale: 0.2})
	if err != nil {
		log.Fatal(err)
	}
	curves := bench.SyntheticCurves(7)

	st, err := env.RunSpotTune(bench, curves, spottune.CampaignOptions{Theta: 0.7, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	base, err := env.RunPolicy(bench, curves, spottune.CampaignOptions{
		Policy: spottune.PolicyCheapest, Theta: 1, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("settings ranked: %d\n", len(st.Ranked))
	fmt.Printf("spottune cheaper than baseline: %v\n", st.NetCost < base.NetCost)
	fmt.Printf("spottune faster than baseline: %v\n", st.JCT < base.JCT)
	fmt.Printf("billing consistent: %v\n", st.NetCost == st.GrossCost-st.Refund)
	// Output:
	// settings ranked: 16
	// spottune cheaper than baseline: true
	// spottune faster than baseline: true
	// billing consistent: true
}

// ExampleBenchmarkByName shows the Table II workload catalog.
func ExampleBenchmarkByName() {
	for _, name := range []string{"LoR", "SVM", "GBTR", "LiR", "AlexNet", "ResNet"} {
		b, err := spottune.BenchmarkByName(name, spottune.WorkloadConfig{Seed: 1, Scale: 0.2})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s %2d HP settings, metric %s\n", b.Name, len(b.HPs), b.Metric)
	}
	// Output:
	// LoR     16 HP settings, metric cross-entropy
	// SVM     16 HP settings, metric hinge
	// GBTR    16 HP settings, metric MSE
	// LiR     16 HP settings, metric MSE
	// AlexNet 16 HP settings, metric cross-entropy
	// ResNet  16 HP settings, metric cross-entropy
}

// ExampleTrueFinals scores a campaign's selection against ground truth.
func ExampleTrueFinals() {
	bench, err := spottune.BenchmarkByName("ResNet", spottune.WorkloadConfig{Seed: 3, Scale: 0.2})
	if err != nil {
		log.Fatal(err)
	}
	curves := bench.SyntheticCurves(3)
	finals, best, err := spottune.TrueFinals(bench, curves)
	if err != nil {
		log.Fatal(err)
	}
	count := 0
	for _, v := range finals {
		if v > finals[best] {
			count++
		}
	}
	fmt.Printf("true best beats %d of %d rivals\n", count, len(finals)-1)
	// Output:
	// true best beats 15 of 15 rivals
}
