// Earlystop: train the ResNet stand-in (a residual MLP with step
// learning-rate decay) for real — in wall-clock time, no cloud simulation —
// and watch EarlyCurve extrapolate the final validation loss from the 70%
// prefix, exactly the judgment SpotTune uses to shut bad trials down early.
//
//	go run ./examples/earlystop
package main

import (
	"fmt"
	"log"
	"math"

	"spottune/internal/earlycurve"
	"spottune/internal/mltrain"
)

func main() {
	data := mltrain.SyntheticImages(400, 48, 8, 0.5, 7)
	train, val := data.Split(0.8)

	// Two candidate hyper-parameter settings: a good one (step decay at
	// the right time) and a bad one (learning rate too hot to converge).
	type candidate struct {
		name  string
		sched mltrain.Schedule
		lr    float64
	}
	spe := train.Len() / 32
	candidates := []candidate{
		{"good: lr=5e-3, decay@20ep", mltrain.EpochStepDecay{
			Base: 5e-3, Factor: 0.05, DecayEpochs: 20, StepsPerEpoch: spe}, 5e-3},
		{"bad:  lr=8e-2, no decay", mltrain.ConstLR(8e-2), 8e-2},
	}

	const maxSteps = 600
	const theta = 0.7
	ec := &earlycurve.Predictor{Memo: earlycurve.NewFitMemo()}

	fmt.Printf("training two ResNet-like configs to %.0f%% of %d steps, then extrapolating:\n\n",
		theta*100, maxSteps)
	finals := make([]float64, len(candidates))
	preds := make([]float64, len(candidates))
	for i, c := range candidates {
		model := mltrain.NewResMLPClassifier(48, 28, 3, 8, true, 11)
		tr, err := mltrain.NewTrainer(model, train, val, mltrain.TrainerConfig{
			Batch:         32,
			Schedule:      c.sched,
			ValidateEvery: 10,
			Seed:          3,
		})
		if err != nil {
			log.Fatal(err)
		}
		// Observe θ·maxSteps in streaming chunks, refitting as points
		// arrive. The stage-fit memo hands back every stage an earlier
		// refit already solved, so each refit solves only the stages that
		// changed. A campaign asks once per trial, at θ·max_trial_steps,
		// through its environment's shared memo.
		var pred float64
		target := int(theta * maxSteps)
		for done := 0; done < target; {
			chunk := 50
			if done+chunk > target {
				chunk = target - done
			}
			tr.RunSteps(chunk)
			done += chunk
			pred, err = ec.PredictFinal(tr.Curve(), maxSteps)
		}
		observed := tr.Curve()
		if err != nil {
			log.Fatal(err)
		}
		// Ground truth: keep training to the full horizon.
		tr.RunSteps(maxSteps - int(theta*maxSteps))
		full := tr.Curve()
		truth := full[len(full)-1].Value
		finals[i] = truth
		preds[i] = pred

		fmt.Printf("%s\n", c.name)
		fmt.Printf("  observed %d points to step %d, last value %.4f\n",
			len(observed), observed[len(observed)-1].Step, observed[len(observed)-1].Value)
		fmt.Printf("  EarlyCurve prediction at step %d: %.4f   (truth %.4f, error %.4f)\n",
			maxSteps, pred, truth, math.Abs(pred-truth))
		fmt.Printf("  accuracy after full training: %.1f%%\n\n", 100*model.Accuracy(val))
	}

	keep := 0
	if preds[1] < preds[0] {
		keep = 1
	}
	drop := 1 - keep
	fmt.Printf("EarlyCurve keeps %q and shuts down %q after %.0f%% of the steps —\n",
		candidates[keep].name, candidates[drop].name, theta*100)
	if (finals[keep] < finals[drop]) == (preds[keep] < preds[drop]) {
		fmt.Println("which matches the ground-truth ranking. 30% of the compute was saved for free.")
	} else {
		fmt.Println("which disagrees with ground truth on this run — raise θ for safety (§IV-B2).")
	}
}
