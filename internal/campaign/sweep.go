package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"spottune/internal/core"
)

// Task is one independent campaign run inside a Sweep: a label for the
// result row plus the closure that executes it. A campaign draws its
// randomness from its own options (Options.Seed), so a task's result does
// not depend on which worker picks it up or in what order.
type Task struct {
	Key string
	Run func() (*core.Report, error)
}

// SweepResult is one task's outcome, at the same index as its Task.
type SweepResult struct {
	Key    string
	Report *core.Report
	Err    error
}

// SweepOptions tunes Sweep execution.
type SweepOptions struct {
	// Workers caps concurrent campaigns (default GOMAXPROCS).
	Workers int
	// Context, when set, cancels the sweep: tasks not yet handed to a
	// worker stop dispatching, in-flight tasks run to completion (campaign
	// runs are not interruptible mid-simulation), and every undispatched
	// slot reports the context's error. Nil means never cancel.
	Context context.Context
	// FailFast cancels the remaining sweep on the first task error: later
	// undispatched tasks report context.Canceled instead of running. The
	// failing task's own result is preserved at its slot.
	FailFast bool
}

// Sweep runs the tasks on a worker pool and returns their results in task
// order, regardless of scheduling. Campaigns are independent simulations —
// each builds its own cluster, clock, and object store — so they parallelize
// without shared mutable state; environments (markets, grids, trained
// predictors) are read-only at run time and safe to share across workers.
// Their exact memos (RevPred history rows, EarlyCurve stage fits) are
// locked, and a memoized answer is the same bits as a recomputed one.
//
// Determinism: the i-th result slot always holds the i-th task's outcome.
// A sweep of seeded campaigns over a fixed environment is therefore
// reproducible run to run and identical to executing the tasks
// sequentially.
//
// Cancellation (SweepOptions.Context / FailFast) drains rather than aborts:
// workers finish the task in their hands, then Sweep returns with every
// never-dispatched slot holding the context error and a nil report.
func Sweep(tasks []Task, opt SweepOptions) []SweepResult {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	results := make([]SweepResult, len(tasks))
	if len(tasks) == 0 {
		return results
	}
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var cancel context.CancelFunc
	if opt.FailFast {
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	idx := make(chan int)
	dispatched := make([]bool, len(tasks))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				t := tasks[i]
				res := SweepResult{Key: t.Key}
				func() {
					defer func() {
						if r := recover(); r != nil {
							res.Err = fmt.Errorf("campaign: sweep task %q panicked: %v", t.Key, r)
						}
					}()
					res.Report, res.Err = t.Run()
				}()
				results[i] = res
				if res.Err != nil && cancel != nil {
					cancel()
				}
			}
		}()
	}
dispatch:
	for i := range tasks {
		select {
		case idx <- i:
			dispatched[i] = true
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	// Slots never handed to a worker report why the sweep stopped short.
	if err := ctx.Err(); err != nil {
		for i := range tasks {
			if !dispatched[i] {
				results[i] = SweepResult{Key: tasks[i].Key, Err: err}
			}
		}
	}
	return results
}
