package trial

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"spottune/internal/earlycurve"
	"spottune/internal/market"
	"spottune/internal/stats"
)

var (
	small = market.InstanceType{Name: "small", CPUs: 2, OnDemandPrice: 0.1}
	big   = market.InstanceType{Name: "big", CPUs: 16, OnDemandPrice: 0.8}
)

// constPerf runs steps at a fixed rate per instance, in seconds.
type constPerf map[string]float64

func (p constPerf) Steps(it market.InstanceType, _ string) StepTimes {
	d := secs(p[it.Name])
	return func(int) time.Duration { return d }
}

// secs converts seconds to a Duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func mkCurve(maxSteps, every int) []earlycurve.MetricPoint {
	var out []earlycurve.MetricPoint
	for s := every; s <= maxSteps; s += every {
		out = append(out, earlycurve.MetricPoint{Step: s, Value: 1 / float64(s)})
	}
	return out
}

func mkReplay(t *testing.T) *Replay {
	t.Helper()
	perf := constPerf{"small": 2.0, "big": 0.5}
	r, err := NewReplay("hp1", 100, mkCurve(100, 10), perf, 50)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewReplayValidation(t *testing.T) {
	perf := constPerf{"small": 1}
	if _, err := NewReplay("x", 100, nil, perf, 1); err == nil {
		t.Error("empty curve accepted")
	}
	bad := []earlycurve.MetricPoint{{Step: 10, Value: 1}, {Step: 10, Value: 2}}
	if _, err := NewReplay("x", 10, bad, perf, 1); err == nil {
		t.Error("non-increasing curve accepted")
	}
	trunc := mkCurve(90, 10)
	if _, err := NewReplay("x", 100, trunc, perf, 1); err == nil {
		t.Error("curve not reaching maxSteps accepted")
	}
	if _, err := NewReplay("x", 100, mkCurve(100, 10), nil, 1); err == nil {
		t.Error("nil perf accepted")
	}
}

func TestRunForAdvancesByTime(t *testing.T) {
	r := mkReplay(t)
	steps, used := r.RunFor(small, secs(20), 0) // 2 s/step -> 10 steps
	if steps != 10 || used != secs(20) {
		t.Fatalf("RunFor = %d steps, %v used", steps, used)
	}
	if r.CompletedSteps() != 10 {
		t.Fatalf("CompletedSteps = %d", r.CompletedSteps())
	}
	// Faster instance.
	steps, _ = r.RunFor(big, secs(10), 0) // 0.5 s/step -> 20 steps
	if steps != 20 {
		t.Fatalf("big RunFor = %d steps", steps)
	}
}

func TestRunForFractionalProgress(t *testing.T) {
	r := mkReplay(t)
	r.RunFor(small, secs(3), 0) // 1.5 steps
	if r.CompletedSteps() != 1 {
		t.Fatalf("CompletedSteps = %d, want 1", r.CompletedSteps())
	}
	r.RunFor(small, secs(1), 0) // completes step 2
	if r.CompletedSteps() != 2 {
		t.Fatalf("CompletedSteps = %d, want 2", r.CompletedSteps())
	}
}

func TestRunForStopsAtLimit(t *testing.T) {
	r := mkReplay(t)
	steps, used := r.RunFor(small, secs(1e9), 30)
	if steps != 30 {
		t.Fatalf("steps = %d, want 30", steps)
	}
	if used != secs(60) {
		t.Fatalf("used = %v, want 60s", used)
	}
	// Already at limit: no movement.
	steps, used = r.RunFor(small, secs(100), 30)
	if steps != 0 || used != 0 {
		t.Fatalf("at-limit RunFor = %d, %v", steps, used)
	}
	// Limit beyond maxSteps clamps to maxSteps.
	steps, _ = r.RunFor(small, secs(1e9), 1000)
	if r.CompletedSteps() != 100 {
		t.Fatalf("CompletedSteps = %d, want 100", r.CompletedSteps())
	}
	_ = steps
}

func TestPointsVisibility(t *testing.T) {
	r := mkReplay(t)
	if got := r.Points(); len(got) != 0 {
		t.Fatalf("fresh trial has %d points", len(got))
	}
	r.RunFor(small, secs(50), 0) // 25 steps
	pts := r.Points()
	if len(pts) != 2 { // steps 10, 20
		t.Fatalf("points after 25 steps = %d, want 2", len(pts))
	}
	if pts[1].Step != 20 {
		t.Fatalf("last visible point at %d", pts[1].Step)
	}
}

// TestPointsIsAllocationFreeReadOnlyView pins Points at zero allocations
// and checks that its result cannot be used to change the curve: an append
// must copy, never write past the observed prefix.
func TestPointsIsAllocationFreeReadOnlyView(t *testing.T) {
	r := mkReplay(t)
	r.RunFor(small, secs(50), 0) // 25 steps: points at steps 10 and 20
	if avg := testing.AllocsPerRun(100, func() { _ = r.Points() }); avg != 0 {
		t.Errorf("Points allocates %.1f times per call, want 0", avg)
	}
	pts := r.Points()
	if len(pts) != 2 || cap(pts) != len(pts) {
		t.Fatalf("Points = %d points with capacity %d, want 2 and 2", len(pts), cap(pts))
	}
	grown := append(pts, earlycurve.MetricPoint{Step: 25, Value: -1})
	grown[0].Value = -1
	r.RunFor(small, secs(1e9), 0)
	all := r.Points()
	if len(all) != 10 || all[0].Value != 1.0/10 || all[2].Step != 30 || all[2].Value != 1.0/30 {
		t.Fatalf("appending to Points changed the curve: %+v", all)
	}
}

func TestTrueFinalAndMetricAt(t *testing.T) {
	r := mkReplay(t)
	if got := r.TrueFinal(); got != 0.01 {
		t.Fatalf("TrueFinal = %v", got)
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	r := mkReplay(t)
	r.RunFor(small, secs(31), 0) // 15.5 steps
	blob := r.AppendCheckpoint(nil)
	r2 := mkReplay(t)
	if err := r2.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if r2.CompletedSteps() != r.CompletedSteps() {
		t.Fatalf("restored steps %d, want %d", r2.CompletedSteps(), r.CompletedSteps())
	}
	// Restoring into a different trial is rejected.
	perf := constPerf{"small": 1}
	other, err := NewReplay("other", 100, mkCurve(100, 10), perf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(blob); err == nil {
		t.Fatal("cross-trial restore accepted")
	}
}

func TestRestoreRejectsMalformedBlobs(t *testing.T) {
	r := mkReplay(t)
	good := r.AppendCheckpoint(nil)
	bad := [][]byte{
		nil,
		{0x00},
		{0x51},             // header only
		good[:len(good)-1], // truncated float
		append([]byte{0x51}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), // 10-byte uvarint, no payload
		// Uvarint length near 2^64: an additive bound check overflows and
		// panics on the slice; Restore must return an error instead.
		append(append([]byte{0x51}, 0xf8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), make([]byte, 16)...),
	}
	for i, blob := range bad {
		if err := r.Restore(blob); err == nil {
			t.Errorf("malformed blob %d accepted", i)
		}
	}
}

func TestRestoreRewindsProgress(t *testing.T) {
	// An instance dying WITHOUT checkpoint loses work since the last one.
	r := mkReplay(t)
	r.RunFor(small, secs(40), 0) // 20 steps
	blob := r.AppendCheckpoint(nil)
	r.RunFor(small, secs(40), 0) // 40 steps now
	if err := r.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if got := r.CompletedSteps(); got != 20 {
		t.Fatalf("progress after rewind = %d, want 20", got)
	}
}

func TestConvergedDetection(t *testing.T) {
	perf := constPerf{"small": 1}
	flat := []earlycurve.MetricPoint{}
	for s := 10; s <= 100; s += 10 {
		flat = append(flat, earlycurve.MetricPoint{Step: s, Value: 0.5})
	}
	r, err := NewReplay("flat", 100, flat, perf, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.RunFor(small, secs(80), 0)
	if !r.Converged(5, 0.01) {
		t.Error("flat curve not converged")
	}
	r2 := mkReplay(t)
	r2.RunFor(small, secs(80), 0)
	if r2.Converged(5, 0.01) {
		t.Error("1/x curve wrongly converged early")
	}
}

// TestNoisyPerfCOV checks the draw's distribution on every catalog type
// (the paper's §IV-A5 profile has COV < 0.1): over 20,000 steps the mean is
// within 1% of the base, the COV within 0.05 ± 0.005, and no step falls
// below the 0.5 floor. A redraw gives the same bits, and zero COV passes
// the base through.
func TestNoisyPerfCOV(t *testing.T) {
	base := func(it market.InstanceType, _ string) float64 { return 16 / float64(it.CPUs) }
	p := &NoisyPerf{Base: base, COV: 0.05, Seed: 7}
	for _, it := range market.DefaultCatalog().Types() {
		steps := p.Steps(it, "hp1")
		want := base(it, "hp1")
		xs := make([]float64, 20000)
		for k := range xs {
			xs[k] = steps(k).Seconds()
			if xs[k] < 0.5*want {
				t.Fatalf("%s step %d: %v s below the floor %v s", it.Name, k, xs[k], 0.5*want)
			}
		}
		if m := stats.Mean(xs); math.Abs(m/want-1) > 0.01 {
			t.Errorf("%s: mean %v s, want within 1%% of %v s", it.Name, m, want)
		}
		if cov := stats.COV(xs); math.Abs(cov-0.05) > 0.005 {
			t.Errorf("%s: COV %v, want 0.05 ± 0.005", it.Name, cov)
		}
		if again := p.Steps(it, "hp1")(42); again != steps(42) {
			t.Fatalf("%s: step 42 redrawn as %v, first %v", it.Name, again, steps(42))
		}
	}
	// Zero COV passes base through.
	p0 := &NoisyPerf{Base: base}
	if got := p0.Steps(big, "hp")(0); got != time.Second {
		t.Fatalf("zero-COV step = %v, want 1s", got)
	}
}

// Property: RunFor conserves time — used <= given, and total steps advance
// monotonically regardless of slice sizes.
func TestRunForConservationProperty(t *testing.T) {
	f := func(slices []uint8) bool {
		r, err := NewReplay("p", 50, mkCurve(50, 5), constPerf{"small": 1.5}, 1)
		if err != nil {
			return false
		}
		prev := 0
		for _, s := range slices {
			sec := secs(float64(s%40) / 3)
			steps, used := r.RunFor(small, sec, 0)
			if used > sec || steps < 0 {
				return false
			}
			if r.CompletedSteps() < prev {
				return false
			}
			prev = r.CompletedSteps()
		}
		return r.CompletedSteps() <= 50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: splitting a time budget into pieces yields the same progress as
// spending it at once (determinism of fractional bookkeeping, no noise).
func TestRunForSplitEquivalenceProperty(t *testing.T) {
	f := func(aRaw, bRaw uint8) bool {
		a := secs(float64(aRaw%60) / 4)
		b := secs(float64(bRaw%60) / 4)
		one, err := NewReplay("p", 50, mkCurve(50, 5), constPerf{"small": 1.5}, 1)
		if err != nil {
			return false
		}
		two, err := NewReplay("p", 50, mkCurve(50, 5), constPerf{"small": 1.5}, 1)
		if err != nil {
			return false
		}
		one.RunFor(small, a+b, 0)
		two.RunFor(small, a, 0)
		two.RunFor(small, b, 0)
		return one.CompletedSteps() == two.CompletedSteps()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPlateauedAgreesWithExactConverged pins the consolidated convergence
// verdict: at every whole-step progress point of several curve shapes,
// Plateaued (the fast prechecked path every engine consumer uses) must
// equal the exact Converged test on the observed prefix — the two can never
// disagree, which is the whole point of funneling both the round executor
// and the tuner-visible status through one call site.
func TestPlateauedAgreesWithExactConverged(t *testing.T) {
	perf := constPerf{"small": 1}
	mk := func(name string, vals []float64) *Replay {
		var pts []earlycurve.MetricPoint
		for i, v := range vals {
			pts = append(pts, earlycurve.MetricPoint{Step: 5 * (i + 1), Value: v})
		}
		r, err := NewReplay(name, 5*len(vals), pts, perf, 1)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	curves := map[string]*Replay{
		// Plateaus at 0.5, then drops again — the shape where the minimal
		// converging prefix and the current-prefix verdict differ, i.e.
		// where a naive "reached ConvergeStep ⇒ converged" would be wrong.
		"plateau-then-drop": mk("ptd", []float64{1, 0.9, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.2, 0.1, 0.1, 0.1}),
		"flat":              mk("flat", []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}),
		"never":             mk("never", []float64{1, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4}),
	}
	const window, tol = 4, 0.01
	for name, r := range curves {
		for step := 0; step <= r.MaxSteps(); step++ {
			r.progress = float64(step)
			exact := len(r.Points()) > 0 && r.Converged(window, tol)
			if got := r.Plateaued(window, tol); got != exact {
				t.Fatalf("%s at step %d: Plateaued=%v, exact Converged=%v", name, step, got, exact)
			}
		}
	}
}

// TestAppendCheckpointMatchesCheckpoint pins the encoder to the checkpoint
// wire format byte for byte (magic, uvarint ID length, ID, big-endian
// progress bits), and to zero steady-state allocations when the destination
// has capacity (the orchestrator reuses one buffer across every hourly
// restart and revocation write).
func TestAppendCheckpointMatchesCheckpoint(t *testing.T) {
	r := mkReplay(t)
	for _, p := range []float64{0, 0.5, 17.25, 100} {
		r.progress = p
		want := append([]byte{ckptMagic, byte(len(r.ID()))}, r.ID()...)
		want = binary.BigEndian.AppendUint64(want, math.Float64bits(p))
		got := r.AppendCheckpoint(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("progress %v: append form %x, checkpoint %x", p, got, want)
		}
		// Append semantics: existing bytes are preserved.
		withPrefix := r.AppendCheckpoint([]byte{0xAA, 0xBB})
		if !bytes.Equal(withPrefix[:2], []byte{0xAA, 0xBB}) || !bytes.Equal(withPrefix[2:], want) {
			t.Fatalf("progress %v: prefix not preserved: %x", p, withPrefix)
		}
	}
	buf := r.AppendCheckpoint(nil)
	if avg := testing.AllocsPerRun(100, func() {
		buf = r.AppendCheckpoint(buf[:0])
	}); avg > 0 {
		t.Errorf("AppendCheckpoint into a warm buffer allocates %.1f times, want 0", avg)
	}
}

// TestLastPointMemoFollowsProgress pins the memoized leaderboard accessor to
// the plain search through forward progress, repeated calls, and rewinds.
func TestLastPointMemoFollowsProgress(t *testing.T) {
	r := mkReplay(t)
	ref := func() (earlycurve.MetricPoint, bool) {
		var last earlycurve.MetricPoint
		found := false
		for _, p := range r.curve {
			if p.Step > r.CompletedSteps() {
				break
			}
			last, found = p, true
		}
		return last, found
	}
	for _, p := range []float64{0, 9.5, 10, 10, 35, 100, 20, 0, 55.5, 99} {
		r.progress = p
		for k := 0; k < 2; k++ {
			got, gok := r.LastPoint()
			want, wok := ref()
			if got != want || gok != wok {
				t.Fatalf("progress %v: LastPoint = %v,%v want %v,%v", p, got, gok, want, wok)
			}
		}
	}
}

// noisyReplay returns a 400-step noisy trial. A warm one has its step-time
// prefix on small already built over every step, as a long earlier run on
// that type leaves it; a cold one draws its prefixes as slices need them.
func noisyReplay(t *testing.T, warm bool) *Replay {
	t.Helper()
	perf := &NoisyPerf{
		Base: func(it market.InstanceType, _ string) float64 { return 16 / float64(it.CPUs) },
		COV:  0.05,
		Seed: 9,
	}
	r, err := NewReplay("hp-warm", 400, mkCurve(400, 10), perf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		r.prefixFor(small, 0).extend(400, math.MaxInt64)
	}
	return r
}

// TestRunForWarmCacheMatchesCold pins that a slice run on a step-time prefix
// built past the step limit ends exactly like the same slice on a cold
// prefix: same steps, same time used, same progress bits. The budgets
// straddle the exact time to the limit by a nanosecond or two, where a
// clamp that depends on the prefix's length would split the two.
func TestRunForWarmCacheMatchesCold(t *testing.T) {
	for _, limit := range []int{1, 7, 50, 123, 399} {
		probe := noisyReplay(t, false)
		need, _ := probe.TimeToReach(small, limit, math.MaxInt64)
		next, _ := probe.TimeToReach(small, limit+1, math.MaxInt64)
		step := next - need
		for _, off := range []time.Duration{-step / 2, -2, -1, 0, 1, 2, step / 2, 3 * step} {
			budget := need + off
			cold := noisyReplay(t, false)
			warm := noisyReplay(t, true)
			cs, cu := cold.RunFor(small, budget, limit)
			ws, wu := warm.RunFor(small, budget, limit)
			if cs != ws || cu != wu || math.Float64bits(cold.Progress()) != math.Float64bits(warm.Progress()) {
				t.Fatalf("limit %d, budget need%+v: cold (%d steps, %v used, progress %v), warm (%d steps, %v used, progress %v)",
					limit, off, cs, cu, cold.Progress(), ws, wu, warm.Progress())
			}
		}
	}
}

// TestSecondsToReachCappedWarmCacheMatchesCold pins the capped reach query,
// TimeToReach with a limit, to the same answer on a warm prefix as on a
// cold one, from several starting points and with limits on both sides of
// the need.
func TestSecondsToReachCappedWarmCacheMatchesCold(t *testing.T) {
	for _, start := range []time.Duration{0, secs(3.25), secs(40)} {
		for _, target := range []int{5, 60, 250, 400} {
			probe := noisyReplay(t, false)
			probe.RunFor(small, start, 0)
			need, _ := probe.TimeToReach(small, target, math.MaxInt64)
			for _, limit := range []time.Duration{-1, 0, need / 2, need - 1, need, need + 1, need * 2} {
				cold := noisyReplay(t, false)
				warm := noisyReplay(t, true)
				cold.RunFor(small, start, 0)
				warm.RunFor(small, start, 0)
				cn, cok := cold.TimeToReach(small, target, limit)
				wn, wok := warm.TimeToReach(small, target, limit)
				if cok != wok || cn != wn || cok && cn != need {
					t.Fatalf("start %v, target %d, limit %v: cold (%v, %v), warm (%v, %v), need %v",
						start, target, limit, cn, cok, wn, wok, need)
				}
			}
		}
	}
}

// aheadPerf wraps a perf model and fails the test when a draw lies behind
// the trial's completed steps: a type switch may draw only steps ahead.
type aheadPerf struct {
	PerfModel
	t *testing.T
	r *Replay
}

func (p *aheadPerf) Steps(it market.InstanceType, hp string) StepTimes {
	steps := p.PerfModel.Steps(it, hp)
	return func(k int) time.Duration {
		if done := p.r.CompletedSteps(); k < done {
			p.t.Fatalf("%s drew step %d with %d steps done", it.Name, k, done)
		}
		return steps(k)
	}
}

// TestPrefixStartAndLengthDoNotChangeResults drives three replays of one
// noisy trial through the same random operations: slices with random
// budgets and step limits on random types (some budgets exactly the time to
// a step), reach queries with limits on both sides of the need, and Restore
// rewinds to earlier checkpoints. The first replay builds its prefixes as a
// campaign does, from where the trial is, and must never draw a step behind
// it; before every operation the second has each type's prefix start at
// step 0 and cover the in-flight step, and the third has it built to
// MaxSteps. Every result must agree bit for bit. A fourth replay spends
// each slice's budget in two random parts and must end on the same
// progress bits, steps and time used.
func TestPrefixStartAndLengthDoNotChangeResults(t *testing.T) {
	const maxSteps = 300
	types := []market.InstanceType{small, big, {Name: "mid", CPUs: 5}}
	rng := rand.New(rand.NewPCG(28, 1))
	for run := 0; run < 100; run++ {
		perf := &NoisyPerf{
			Base: func(it market.InstanceType, _ string) float64 { return 16 / float64(it.CPUs) },
			COV:  []float64{0.05, 3}[run%2],
			Seed: rng.Uint64(),
		}
		mk := func(pm PerfModel) *Replay {
			r, err := NewReplay("hp-prop", maxSteps, mkCurve(maxSteps, 10), pm, 1)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		ahead := &aheadPerf{PerfModel: perf, t: t}
		natural, origin, far, split := mk(ahead), mk(perf), mk(perf), mk(perf)
		ahead.r = natural
		prep := func(r *Replay, upto int) {
			if cur := int(r.progress); cur < maxSteps {
				for _, it := range types {
					r.prefixFor(it, 0).extend(max(upto, cur+1), math.MaxInt64)
				}
			}
		}
		var ckpts [][]byte
		for op := 0; op < 60; op++ {
			prep(origin, 0)
			prep(far, maxSteps)
			it := types[rng.IntN(len(types))]
			target := rng.IntN(maxSteps + 3)
			switch rng.IntN(4) {
			case 0, 1:
				budget := time.Duration(rng.Int64N(int64(40 * time.Second)))
				limit := rng.IntN(maxSteps + 10)
				landing := -1 // the whole step an exact budget must land on
				if rng.IntN(3) == 0 {
					budget, _ = natural.TimeToReach(it, target, math.MaxInt64)
					if lim := min(maxSteps, limit); limit > 0 && target <= lim && budget > 0 {
						landing = target
					}
				}
				s0, u0 := natural.RunFor(it, budget, limit)
				if landing >= 0 && natural.progress != float64(landing) {
					t.Fatalf("run %d op %d: a budget of exactly the time to step %d left progress %v", run, op, landing, natural.progress)
				}
				s1, u1 := origin.RunFor(it, budget, limit)
				s2, u2 := far.RunFor(it, budget, limit)
				part := time.Duration(rng.Int64N(int64(budget) + 1))
				sa, ua := split.RunFor(it, part, limit)
				sb, ub := split.RunFor(it, budget-part, limit)
				if sa+sb != s0 || ua+ub != u0 || math.Float64bits(split.progress) != math.Float64bits(natural.progress) {
					t.Fatalf("run %d op %d: RunFor(%s, %v, %d) = (%d, %v, progress %v), in parts of %v: (%d, %v, %v)",
						run, op, it.Name, budget, limit, s0, u0, natural.progress, part, sa+sb, ua+ub, split.progress)
				}
				if s0 != s1 || s0 != s2 || u0 != u1 || u0 != u2 ||
					math.Float64bits(natural.progress) != math.Float64bits(origin.progress) ||
					math.Float64bits(natural.progress) != math.Float64bits(far.progress) {
					t.Fatalf("run %d op %d: RunFor(%s, %v, %d) = (%d, %v, progress %v), (%d, %v, %v), (%d, %v, %v)",
						run, op, it.Name, budget, limit, s0, u0, natural.progress, s1, u1, origin.progress, s2, u2, far.progress)
				}
				if rng.IntN(2) == 0 {
					ckpts = append(ckpts, natural.AppendCheckpoint(nil))
				}
			case 2:
				need, _ := natural.TimeToReach(it, target, math.MaxInt64)
				reached := natural.progress >= float64(min(target, maxSteps))
				for _, limit := range []time.Duration{-1, 0, need / 2, need - 1, need, need + 1, math.MaxInt64} {
					n0, ok0 := natural.TimeToReach(it, target, limit)
					n1, ok1 := origin.TimeToReach(it, target, limit)
					n2, ok2 := far.TimeToReach(it, target, limit)
					if n0 != n1 || n0 != n2 || ok0 != ok1 || ok0 != ok2 || ok0 != (reached || limit >= need) || ok0 && n0 != need {
						t.Fatalf("run %d op %d: TimeToReach(%s, %d, %v) = (%v, %v), (%v, %v), (%v, %v), need %v",
							run, op, it.Name, target, limit, n0, ok0, n1, ok1, n2, ok2, need)
					}
				}
			case 3:
				if len(ckpts) == 0 {
					continue
				}
				blob := ckpts[rng.IntN(len(ckpts))]
				for _, r := range []*Replay{natural, origin, far, split} {
					if err := r.Restore(blob); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}
