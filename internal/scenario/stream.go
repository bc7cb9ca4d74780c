package scenario

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"spottune/internal/campaign"
	"spottune/internal/earlycurve"
	"spottune/internal/experiments"
	"spottune/internal/invariants"
	"spottune/internal/obs"
	"spottune/internal/policy"
	"spottune/internal/stats"
	"spottune/internal/workload"
)

// replicateStride derives replicate seeds from a spec seed (splitmix64's
// odd increment, so streams never collide for realistic replicate counts).
// Replicate 0 uses the spec seed unchanged, so a one-replicate stream runs
// each spec at its own seed.
const replicateStride = 0x9E3779B97F4A7C15

// ReplicateSeed is the campaign seed of replicate r of a spec — exported so
// the multi-tenant service derives tenant seeds on the same stream the
// matrix runner uses, keeping cross-harness results comparable.
func ReplicateSeed(specSeed uint64, r int) uint64 {
	return specSeed + uint64(r)*replicateStride
}

// StreamOptions tunes a streaming matrix run. The embedded Options carry the
// matrix axes; the streaming fields bound memory and wire the per-cell
// consumers.
type StreamOptions struct {
	Options

	// Replicates is the seed axis: each spec's cell block is repeated this
	// many times with derived campaign seeds (default 1).
	Replicates int
	// Workers caps concurrent cells (default GOMAXPROCS).
	Workers int
	// OnCell, when set, receives every finished cell in grid order
	// (spec-major, then replicate, tuner, strategy, policy). A returned error aborts
	// the run. Cells are not retained by the runner — this callback is the
	// only way to observe per-cell results, which is what keeps memory
	// independent of grid size.
	OnCell func(Cell) error
	// Progress, when set, receives a live single-line progress report
	// (carriage-return terminated) about 200 times across the grid.
	Progress io.Writer
}

// StreamSummary is the bounded-memory aggregate of a streamed grid: exact
// counts and order-independent quantile sketches per headline metric. Its
// size depends on the metric dynamic range, never on the cell count.
type StreamSummary struct {
	Cells      int
	Violations int

	// Cost/JCTHours/RefundFrac sketch the per-cell campaign outcomes
	// (stats.DefaultSketchAlpha relative accuracy; identical bits for any
	// worker scheduling — see stats.QuantileSketch).
	Cost       *stats.QuantileSketch
	JCTHours   *stats.QuantileSketch
	RefundFrac *stats.QuantileSketch

	// Metrics aggregates every cell's flight-recorder metrics (event
	// counters plus latency/size/cost histograms), merged in grid order by
	// the in-order emitter. Nil unless Options.Trace is on.
	Metrics *obs.Metrics
}

// cellOutcome carries one finished cell from a worker to the in-order
// emitter.
type cellOutcome struct {
	idx  int
	cell Cell
	err  error
}

// specBlock is the shared, read-only world for every cell of one spec:
// environment (traces, SoA store, predictors), benchmark, and curves.
type specBlock struct {
	spec       Spec
	env        *campaign.Environment
	bench      *workload.Benchmark
	curves     workload.Curves
	tuners     []string
	strategies []string
}

// cellJob locates one cell in the grid.
type cellJob struct {
	idx      int
	block    *specBlock
	rep      int
	tuner    string
	strategy string
	policy   string
}

// Stream executes the scenario × replicate × tuner × strategy × policy grid with
// bounded memory: environments are built once per spec and shared read-only,
// cells are sharded across a worker pool, each worker reuses one EarlyCurve
// fit memo (its SoA world) across every cell it runs, and results stream
// into quantile sketches plus the optional in-order OnCell callback instead
// of an in-memory cell table. The per-worker reuse is bit-identical to
// running every cell cold — pinned by the equivalence suite — and 10^5-cell
// grids run in the same footprint as the 216-cell battery.
func (m Matrix) Stream(opt StreamOptions) (*StreamSummary, error) {
	o := opt.Options.withDefaults()
	if len(m.Specs) == 0 {
		return nil, fmt.Errorf("scenario: matrix has no specs")
	}
	for _, t := range o.Tuners {
		if err := validTuner(t); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}
	for _, r := range o.Strategies {
		if err := validStrategy(r); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}
	seen := map[string]bool{}
	for _, s := range m.Specs {
		if seen[s.Name] {
			return nil, fmt.Errorf("scenario: duplicate spec name %q", s.Name)
		}
		seen[s.Name] = true
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	reps := opt.Replicates
	if reps <= 0 {
		reps = 1
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	blocks, err := m.buildBlocks(o)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, b := range blocks {
		total += reps * len(b.tuners) * len(b.strategies) * len(o.Policies)
	}
	progressEvery := max(total/200, 1)

	summary := &StreamSummary{
		Cost:       stats.NewQuantileSketch(stats.DefaultSketchAlpha),
		JCTHours:   stats.NewQuantileSketch(stats.DefaultSketchAlpha),
		RefundFrac: stats.NewQuantileSketch(stats.DefaultSketchAlpha),
	}
	if o.Trace {
		summary.Metrics = obs.NewMetrics()
	}

	jobs := make(chan cellJob)
	outcomes := make(chan cellOutcome, workers)
	stop := make(chan struct{}) // closed on first error: producers/workers drain
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One fit memo per worker: every campaign this worker runs
			// shares solved EarlyCurve stage fits (content-addressed and
			// size-capped, so reuse is bit-identical and bounded).
			memo := earlycurve.NewFitMemo()
			for job := range jobs {
				cell, err := runCell(job, o, memo)
				select {
				case outcomes <- cellOutcome{idx: job.idx, cell: cell, err: err}:
				case <-stop:
					return
				}
			}
		}()
	}

	// Producer: enumerate the grid in emission order.
	go func() {
		defer close(jobs)
		idx := 0
		for _, b := range blocks {
			for r := 0; r < reps; r++ {
				for _, tname := range b.tuners {
					for _, rname := range b.strategies {
						for _, pname := range o.Policies {
							select {
							case jobs <- cellJob{idx: idx, block: b, rep: r, tuner: tname, strategy: rname, policy: pname}:
							case <-stop:
								return
							}
							idx++
						}
					}
				}
			}
		}
	}()
	go func() {
		wg.Wait()
		close(outcomes)
	}()

	// In-order emitter: workers finish cells out of order; a small pending
	// buffer (bounded by the scheduling skew, not the grid) re-sequences
	// them so OnCell observes the deterministic grid order.
	pending := map[int]cellOutcome{}
	next := 0
	var firstErr error
	for out := range outcomes {
		if firstErr != nil {
			continue // drain
		}
		pending[out.idx] = out
		for {
			o2, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if o2.err != nil {
				firstErr = o2.err
				close(stop)
				break
			}
			summary.Cells++
			summary.Violations += len(o2.cell.Violations)
			summary.Cost.Add(o2.cell.Cost)
			summary.JCTHours.Add(o2.cell.JCTHours)
			summary.RefundFrac.Add(o2.cell.RefundFrac)
			if summary.Metrics != nil && o2.cell.Trace != nil {
				// Counters add and sketches merge order-independently, so
				// the aggregate is worker-count invariant like the cells.
				summary.Metrics.Merge(obs.CampaignMetrics(o2.cell.Trace))
			}
			if opt.OnCell != nil {
				if err := opt.OnCell(o2.cell); err != nil {
					firstErr = fmt.Errorf("scenario: cell %s/%s/%s: %w",
						o2.cell.Scenario, o2.cell.Tuner, o2.cell.Policy, err)
					close(stop)
					break
				}
			}
			if opt.Progress != nil && (summary.Cells%progressEvery == 0 || summary.Cells == total) {
				fmt.Fprintf(opt.Progress, "\rstream: %d/%d cells, %d violations",
					summary.Cells, total, summary.Violations)
			}
		}
	}
	if opt.Progress != nil && firstErr == nil {
		fmt.Fprintln(opt.Progress)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return summary, nil
}

// buildBlocks assembles the per-spec shared worlds. Environments are the
// expensive part (trace generation and predictor training), so specs that
// differ only in faults share one fault-free base environment, onto a copy
// of which withFaults layers each spec's hooks.
func (m Matrix) buildBlocks(o Options) ([]*specBlock, error) {
	baseEnvs := map[envKey]*campaign.Environment{}
	benches := map[string]*workload.Benchmark{}
	curves := map[string]workload.Curves{}
	blocks := make([]*specBlock, 0, len(m.Specs))
	for _, raw := range m.Specs {
		s := raw.withDefaults(o)
		base, ok := baseEnvs[s.key()]
		if !ok {
			bare := s
			bare.Faults = nil
			var err error
			base, err = bare.Environment(o)
			if err != nil {
				return nil, err
			}
			baseEnvs[s.key()] = base
		}
		env, err := s.withFaults(base)
		if err != nil {
			return nil, err
		}
		bench, ok := benches[s.Workload]
		if !ok {
			bench, err = workload.SuiteByName(s.Workload, workload.Config{Seed: o.Seed, Scale: o.Scale})
			if err != nil {
				return nil, fmt.Errorf("scenario: %s: %w", s.Name, err)
			}
			benches[s.Workload] = bench
		}
		cv, ok := curves[s.Workload]
		if !ok {
			if o.Quick {
				cv = bench.SyntheticCurves(o.Seed)
			} else {
				cv, err = bench.RecordCurves()
				if err != nil {
					return nil, fmt.Errorf("scenario: %s: recording curves: %w", s.Name, err)
				}
			}
			curves[s.Workload] = cv
		}
		tuners := o.Tuners
		if s.Tuner != "" {
			tuners = []string{s.Tuner}
		}
		strategies := o.Strategies
		if s.Resilience != "" {
			strategies = []string{s.Resilience}
		}
		blocks = append(blocks, &specBlock{spec: s, env: env, bench: bench, curves: cv, tuners: tuners, strategies: strategies})
	}
	return blocks, nil
}

// runCell executes one campaign cell against its spec's shared world,
// auditing the final simulator state in place (no state is retained past the
// returned Cell).
func runCell(job cellJob, o Options, memo *earlycurve.FitMemo) (Cell, error) {
	b := job.block
	var violations []invariants.Violation
	var rec *obs.Recording
	copt := campaign.Options{
		Theta:      o.Theta,
		Seed:       ReplicateSeed(b.spec.Seed, job.rep),
		Tuner:      job.tuner,
		Policy:     job.policy,
		Resilience: job.strategy,
		Deadline:   b.spec.Deadline,
		BaseType:   b.spec.BaseType,
		PolicyParams: policy.Params{
			Allocation: b.spec.Allocation,
		},
		Trace: o.Trace,
		// The worker's shared fit memo rides in on the trend predictor;
		// its reuse is bit-identical to cold fits, so this changes
		// wall-clock only.
		Trend: &earlycurve.Predictor{Memo: memo},
	}
	copt.Inspect = func(d *campaign.RunDetail) error {
		if rec = d.Trace; rec != nil {
			// The campaign stamped tuner/policy/workload/seed; the cell
			// coordinates are the scenario layer's to add.
			rec.Meta.Scenario = b.spec.Name
			rec.Meta.Replicate = job.rep
		}
		violations = append(violations, invariants.Check(StateFor(d))...)
		return nil
	}
	rep, err := b.env.RunPolicy(b.bench, b.curves, copt)
	if err != nil {
		return Cell{}, fmt.Errorf("scenario: %s/%s/%s (replicate %d): %w",
			b.spec.Name, job.tuner, job.policy, job.rep, err)
	}
	return Cell{
		Scenario:  b.spec.Name,
		Regime:    b.spec.Regime,
		Tuner:     job.tuner,
		Strategy:  job.strategy,
		Replicate: job.rep,
		CrossPolicyRow: experiments.CrossPolicyRow{
			Policy:              job.policy,
			Workload:            b.bench.Name,
			Cost:                rep.NetCost,
			JCTHours:            rep.JCT.Hours(),
			RefundFrac:          rep.RefundFraction(),
			Deployments:         rep.Deployments,
			OnDemandDeployments: rep.OnDemandDeployments,
			Notices:             rep.Notices,
			Report:              rep,
		},
		Violations: violations,
		Trace:      rec,
	}, nil
}
