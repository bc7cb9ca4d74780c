package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"spottune/internal/core"
	"spottune/internal/workload"
)

func TestSweepDeterministicOrderAndStreams(t *testing.T) {
	// Results must land at their task's index however the workers pick the
	// tasks up, run after run.
	const n = 20
	run := func() []SweepResult {
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{
				Key: fmt.Sprintf("t%d", i),
				Run: func() (*core.Report, error) {
					return &core.Report{TotalSteps: i}, nil
				},
			}
		}
		return Sweep(tasks, SweepOptions{Workers: 4})
	}
	res1, res2 := run(), run()
	for i := 0; i < n; i++ {
		if res1[i].Err != nil {
			t.Fatal(res1[i].Err)
		}
		if res1[i].Key != fmt.Sprintf("t%d", i) || res1[i].Report.TotalSteps != i {
			t.Fatalf("result %d out of order: %+v", i, res1[i])
		}
		if res2[i].Report.TotalSteps != res1[i].Report.TotalSteps {
			t.Fatalf("re-run diverged at %d", i)
		}
	}
}

func TestSweepErrorAndPanicIsolation(t *testing.T) {
	boom := errors.New("boom")
	tasks := []Task{
		{Key: "ok", Run: func() (*core.Report, error) { return &core.Report{}, nil }},
		{Key: "fails", Run: func() (*core.Report, error) { return nil, boom }},
		{Key: "panics", Run: func() (*core.Report, error) { panic("kaput") }},
	}
	res := Sweep(tasks, SweepOptions{Workers: 3})
	if res[0].Err != nil || res[0].Report == nil {
		t.Fatalf("healthy task corrupted: %+v", res[0])
	}
	if !errors.Is(res[1].Err, boom) {
		t.Fatalf("error not propagated: %v", res[1].Err)
	}
	if res[2].Err == nil || res[2].Report != nil {
		t.Fatalf("panic not captured: %+v", res[2])
	}
	if got := len(Sweep(nil, SweepOptions{})); got != 0 {
		t.Fatalf("empty sweep returned %d results", got)
	}
}

// TestSweepMatchesSequentialCampaigns: running real campaigns through the
// worker pool must produce byte-identical reports to sequential execution —
// the environment is shared read-only and every run builds its own cluster.
func TestSweepMatchesSequentialCampaigns(t *testing.T) {
	env, err := NewEnvironment(EnvOptions{Seed: 11, Days: 5, TrainDays: 2, Predictor: PredictorConstant})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: 11, Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	curves := bench.SyntheticCurves(11)
	thetas := []float64{0.4, 0.7, 1.0}

	var seq []*core.Report
	for _, theta := range thetas {
		rep, err := env.RunSpotTune(bench, curves, Options{Theta: theta, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, rep)
	}

	var launched atomic.Int32
	tasks := make([]Task, len(thetas))
	for i, theta := range thetas {
		theta := theta
		tasks[i] = Task{
			Key: fmt.Sprintf("theta=%.1f", theta),
			Run: func() (*core.Report, error) {
				launched.Add(1)
				return env.RunSpotTune(bench, curves, Options{Theta: theta, Seed: 11})
			},
		}
	}
	res := Sweep(tasks, SweepOptions{Workers: 3})
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Key, r.Err)
		}
	}
	if launched.Load() != int32(len(thetas)) {
		t.Fatalf("launched %d tasks, want %d", launched.Load(), len(thetas))
	}
	for i := range thetas {
		got, want := res[i].Report, seq[i]
		if got.NetCost != want.NetCost || got.JCT != want.JCT ||
			got.TotalSteps != want.TotalSteps || got.Best != want.Best ||
			got.Deployments != want.Deployments {
			t.Errorf("theta=%.1f: parallel report diverged from sequential:\n got %+v\nwant %+v",
				thetas[i], got, want)
		}
		for j := range got.Ranked {
			if got.Ranked[j] != want.Ranked[j] {
				t.Errorf("theta=%.1f: ranking diverged", thetas[i])
				break
			}
		}
	}
}

// TestSweepCancelMidFlight cancels a 100-run sweep partway through and pins
// the drain contract: in-flight tasks complete, never-dispatched tasks
// report the context error with nil reports, and the call returns promptly.
// Run under -race this also exercises the dispatched-slot bookkeeping.
func TestSweepCancelMidFlight(t *testing.T) {
	const n = 100
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	release := make(chan struct{})
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{
			Key: fmt.Sprintf("t%d", i),
			Run: func() (*core.Report, error) {
				if started.Add(1) == 10 { // 16 workers guarantee 10 concurrent starts
					cancel() // cancel mid-flight from inside a worker
					close(release)
				}
				<-release // everyone blocks until the canceller fires
				return &core.Report{}, nil
			},
		}
	}
	res := Sweep(tasks, SweepOptions{Workers: 16, Context: ctx})
	ran, cancelled := 0, 0
	for i, r := range res {
		switch {
		case r.Report != nil && r.Err == nil:
			ran++
		case errors.Is(r.Err, context.Canceled):
			if r.Report != nil {
				t.Fatalf("slot %d has both a report and a cancel error", i)
			}
			cancelled++
		default:
			t.Fatalf("slot %d in impossible state: %+v", i, r)
		}
	}
	if ran+cancelled != n {
		t.Fatalf("accounted for %d results, want %d", ran+cancelled, n)
	}
	if ran < 10 {
		t.Fatalf("only %d tasks completed; at least the 10 started must drain", ran)
	}
	if cancelled == 0 {
		t.Fatal("cancellation dispatched every task; expected undispatched slots")
	}
}

// TestSweepFailFast pins first-error semantics: one failing task stops
// dispatch, its own error is preserved, and trailing slots report
// context.Canceled.
func TestSweepFailFast(t *testing.T) {
	boom := errors.New("boom")
	const n = 50
	tasks := make([]Task, n)
	for i := range tasks {
		i := i
		tasks[i] = Task{
			Key: fmt.Sprintf("t%d", i),
			Run: func() (*core.Report, error) {
				if i == 0 {
					return nil, boom
				}
				return &core.Report{}, nil
			},
		}
	}
	res := Sweep(tasks, SweepOptions{Workers: 1, FailFast: true})
	if !errors.Is(res[0].Err, boom) {
		t.Fatalf("failing slot holds %v, want boom", res[0].Err)
	}
	cancelled := 0
	for _, r := range res[1:] {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("fail-fast did not cancel any trailing task")
	}
}
