package campaign

import (
	"bytes"
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
	"spottune/internal/obs"
	"spottune/internal/revpred"
	"spottune/internal/search"
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

// tracedRun is one campaign's report and its flight recording as JSONL.
type tracedRun struct {
	rep   *core.Report
	trace []byte
}

// runTraced runs one flight-recorded campaign.
func runTraced(env *Environment, bench *workload.Benchmark, curves workload.Curves, opt Options) (tracedRun, error) {
	var rec *obs.Recording
	opt.Trace = true
	opt.Inspect = func(d *RunDetail) error { rec = d.Trace; return nil }
	rep, err := env.RunPolicy(bench, curves, opt)
	if err != nil {
		return tracedRun{}, err
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, rec); err != nil {
		return tracedRun{}, err
	}
	return tracedRun{rep: rep, trace: buf.Bytes()}, nil
}

// TestWarmTemplatesMatchColdEnvironments: campaigns on an environment whose
// trial templates (plateau tables, EarlyCurve prediction memos) earlier
// campaigns already built report and flight-record, byte for byte, what
// the same campaigns do each on a fresh environment, under every tuner,
// whether the warm campaigns run one after another or in a 4-worker Sweep.
// The warm environment builds one template per HP and no more.
func TestWarmTemplatesMatchColdEnvironments(t *testing.T) {
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: 5, Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	curves := bench.SyntheticCurves(5)
	type job struct {
		tuner string
		seed  uint64
		theta float64
	}
	var jobs []job
	for _, tuner := range []string{search.SpotTuneName, search.HyperbandName, search.HalvingName, search.FullTrainName} {
		for _, seed := range []uint64{1, 2} {
			jobs = append(jobs, job{tuner, seed, 0.4 + 0.3*float64(seed)})
		}
	}
	opt := func(j job) Options { return Options{Theta: j.theta, Seed: j.seed, Tuner: j.tuner} }

	cold := make([]tracedRun, len(jobs))
	for i, j := range jobs {
		if cold[i], err = runTraced(quickEnv(t, PredictorConstant), bench, curves, opt(j)); err != nil {
			t.Fatal(err)
		}
	}
	same := func(how string, i int, got tracedRun) {
		t.Helper()
		if !reflect.DeepEqual(got.rep, cold[i].rep) {
			t.Errorf("%s, %+v: report differs from a fresh environment's:\n got %+v\nwant %+v", how, jobs[i], got.rep, cold[i].rep)
		}
		if !bytes.Equal(got.trace, cold[i].trace) {
			t.Errorf("%s, %+v: flight recording (%d bytes) differs from a fresh environment's (%d bytes)",
				how, jobs[i], len(got.trace), len(cold[i].trace))
		}
	}

	warm := quickEnv(t, PredictorConstant)
	for round := 0; round < 2; round++ { // the first round builds the templates
		for i, j := range jobs {
			got, err := runTraced(warm, bench, curves, opt(j))
			if err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("sequential round %d on one environment", round), i, got)
		}
	}
	if n := templateCount(warm); n != len(bench.HPs) {
		t.Errorf("the warm environment holds %d templates for %d HP curves", n, len(bench.HPs))
	}

	swept := quickEnv(t, PredictorConstant)
	for _, j := range jobs {
		if _, err := swept.RunPolicy(bench, curves, opt(j)); err != nil {
			t.Fatal(err)
		}
	}
	tasks := make([]Task, len(jobs))
	runs := make([]tracedRun, len(jobs))
	for i, j := range jobs {
		tasks[i] = Task{Key: fmt.Sprintf("%+v", j), Run: func() (*core.Report, error) {
			r, err := runTraced(swept, bench, curves, opt(j))
			runs[i] = r
			return r.rep, err
		}}
	}
	for i, r := range Sweep(tasks, SweepOptions{Workers: 4}) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Key, r.Err)
		}
		same("4-worker sweep on a warm environment", i, runs[i])
	}
}

// TestTemplatesFirstBuiltConcurrently: 8 goroutines start campaigns on one
// fresh environment at once, so its trial templates, their plateau tables
// and their prediction memos are first built under concurrency, and each
// campaign reports what it reports alone on a fresh environment. The race
// lane repeats it.
func TestTemplatesFirstBuiltConcurrently(t *testing.T) {
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: 7, Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	curves := bench.SyntheticCurves(7)
	tuners := search.Names()
	opts := make([]Options, 8)
	want := make([]*core.Report, len(opts))
	for i := range opts {
		opts[i] = Options{Theta: 0.7, Seed: uint64(i + 1), Tuner: tuners[i%len(tuners)]}
		if want[i], err = quickEnv(t, PredictorConstant).RunPolicy(bench, curves, opts[i]); err != nil {
			t.Fatal(err)
		}
	}
	env := quickEnv(t, PredictorConstant)
	got := make([]*core.Report, len(opts))
	errs := make([]error, len(opts))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range opts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = env.RunPolicy(bench, curves, opts[i])
		}()
	}
	close(start)
	wg.Wait()
	for i := range opts {
		if errs[i] != nil {
			t.Fatalf("%+v: %v", opts[i], errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%+v: report differs from a fresh environment's:\n got %+v\nwant %+v", opts[i], got[i], want[i])
		}
	}
	if n := templateCount(env); n != len(bench.HPs) {
		t.Errorf("the environment holds %d templates for %d HP curves", n, len(bench.HPs))
	}
}
