package campaign

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"spottune/internal/core"
	"spottune/internal/market"
	"spottune/internal/revpred"
	"spottune/internal/workload"
)

// prediction is one revocation probability a campaign was served, as bits.
type prediction struct {
	market      string
	minute      int
	bid, answer uint64
}

// predictionLog records every prediction an environment's campaigns are
// served. Reports only show a prediction when it changes a decision; the
// log shows every one.
type predictionLog struct {
	mu  sync.Mutex
	out []prediction
}

type loggedPredictor struct {
	inner revpred.Predictor
	log   *predictionLog
}

func (l loggedPredictor) Predict(g *market.Grid, i int, maxPrice float64) float64 {
	p := l.inner.Predict(g, i, maxPrice)
	l.log.mu.Lock()
	l.log.out = append(l.log.out, prediction{g.Type.Name, i, math.Float64bits(maxPrice), math.Float64bits(p)})
	l.log.mu.Unlock()
	return p
}

// revPredEnv builds a small environment with trained RevPred predictors,
// logging every prediction served through it.
func revPredEnv(t *testing.T) (*Environment, *predictionLog) {
	t.Helper()
	env, err := NewEnvironment(EnvOptions{
		Seed: 3, Days: 3, TrainDays: 1, Predictor: PredictorRevPred,
		RevPred: revpred.Config{Hidden: 6, Depth: 1, Epochs: 1, Stride: 8, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	log := &predictionLog{}
	preds := make(map[string]revpred.Predictor, len(env.Predictors))
	for name, p := range env.Predictors {
		preds[name] = loggedPredictor{inner: p, log: log}
	}
	logged, err := env.WithPredictors(preds)
	if err != nil {
		t.Fatal(err)
	}
	return logged, log
}

func sortedPredictions(ps []prediction) []prediction {
	out := slices.Clone(ps)
	slices.SortFunc(out, func(a, b prediction) int {
		return cmp.Or(strings.Compare(a.market, b.market), cmp.Compare(a.minute, b.minute),
			cmp.Compare(a.bid, b.bid), cmp.Compare(a.answer, b.answer))
	})
	return out
}

// TestSharedEnvironmentMatchesFreshEnvironments: campaigns that share one
// environment, and so its RevPred history memo and stage-fit memo, report
// exactly what the same campaigns report each on a fresh environment with
// cold memos, and are served the same predictions, whether they run one
// after another or in a 4-worker Sweep.
func TestSharedEnvironmentMatchesFreshEnvironments(t *testing.T) {
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: 3, Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	curves := bench.SyntheticCurves(3)
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	opt := func(seed uint64) Options { return Options{Theta: 0.7, Seed: seed} }

	fresh := make([]*core.Report, len(seeds))
	var freshLog []prediction
	for i, seed := range seeds {
		env, log := revPredEnv(t)
		rep, err := env.RunPolicy(bench, curves, opt(seed))
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = rep
		freshLog = append(freshLog, log.out...)
	}
	same := func(how string, got []*core.Report, log []prediction) {
		t.Helper()
		for i := range seeds {
			if !reflect.DeepEqual(got[i], fresh[i]) {
				t.Errorf("%s, seed %d: report differs from a fresh environment's:\n got %+v\nwant %+v",
					how, seeds[i], got[i], fresh[i])
			}
		}
		if !slices.Equal(log, freshLog) {
			t.Errorf("%s: the %d predictions served differ from the %d fresh environments served", how, len(log), len(freshLog))
		}
	}

	shared, sharedLog := revPredEnv(t)
	seq := make([]*core.Report, len(seeds))
	for i, seed := range seeds {
		if seq[i], err = shared.RunPolicy(bench, curves, opt(seed)); err != nil {
			t.Fatal(err)
		}
	}
	same("sequential on one environment", seq, sharedLog.out)

	swept, sweptLog := revPredEnv(t)
	tasks := make([]Task, len(seeds))
	for i, seed := range seeds {
		o := opt(seed)
		tasks[i] = Task{
			Key: fmt.Sprint(seed),
			Run: func() (*core.Report, error) { return swept.RunPolicy(bench, curves, o) },
		}
	}
	res := Sweep(tasks, SweepOptions{Workers: 4})
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Key, r.Err)
		}
	}
	got := make([]*core.Report, len(res))
	for i, r := range res {
		got[i] = r.Report
	}
	// Concurrent campaigns interleave their predictions, so the sweep is
	// compared as a multiset.
	freshLog = sortedPredictions(freshLog)
	same("4-worker sweep on one environment", got, sortedPredictions(sweptLog.out))
}
