package trial

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"spottune/internal/earlycurve"
	"spottune/internal/market"
	"spottune/internal/stats"
)

var (
	small = market.InstanceType{Name: "small", CPUs: 2, OnDemandPrice: 0.1}
	big   = market.InstanceType{Name: "big", CPUs: 16, OnDemandPrice: 0.8}
)

// constPerf runs steps at a fixed rate per instance.
type constPerf map[string]float64

func (p constPerf) StepSeconds(it market.InstanceType, _ string, _ int) float64 {
	return p[it.Name]
}

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
	steps, used := r.RunFor(small, 20, 0) // 2 s/step -> 10 steps
	if steps != 10 || used != 20 {
		t.Fatalf("RunFor = %d steps, %v used", steps, used)
	}
	if r.CompletedSteps() != 10 {
		t.Fatalf("CompletedSteps = %d", r.CompletedSteps())
	}
	// Faster instance.
	steps, _ = r.RunFor(big, 10, 0) // 0.5 s/step -> 20 steps
	if steps != 20 {
		t.Fatalf("big RunFor = %d steps", steps)
	}
}

func TestRunForFractionalProgress(t *testing.T) {
	r := mkReplay(t)
	r.RunFor(small, 3, 0) // 1.5 steps
	if r.CompletedSteps() != 1 {
		t.Fatalf("CompletedSteps = %d, want 1", r.CompletedSteps())
	}
	r.RunFor(small, 1, 0) // completes step 2
	if r.CompletedSteps() != 2 {
		t.Fatalf("CompletedSteps = %d, want 2", r.CompletedSteps())
	}
}

func TestRunForStopsAtLimit(t *testing.T) {
	r := mkReplay(t)
	steps, used := r.RunFor(small, 1e9, 30)
	if steps != 30 {
		t.Fatalf("steps = %d, want 30", steps)
	}
	if used >= 1e9 || used < 59 {
		t.Fatalf("used = %v, want ~60", used)
	}
	// Already at limit: no movement.
	steps, used = r.RunFor(small, 100, 30)
	if steps != 0 || used != 0 {
		t.Fatalf("at-limit RunFor = %d, %v", steps, used)
	}
	// Limit beyond maxSteps clamps to maxSteps.
	steps, _ = r.RunFor(small, 1e9, 1000)
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
	r.RunFor(small, 50, 0) // 25 steps
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
	r.RunFor(small, 50, 0) // 25 steps: points at steps 10 and 20
	if avg := testing.AllocsPerRun(100, func() { _ = r.Points() }); avg != 0 {
		t.Errorf("Points allocates %.1f times per call, want 0", avg)
	}
	pts := r.Points()
	if len(pts) != 2 || cap(pts) != len(pts) {
		t.Fatalf("Points = %d points with capacity %d, want 2 and 2", len(pts), cap(pts))
	}
	grown := append(pts, earlycurve.MetricPoint{Step: 25, Value: -1})
	grown[0].Value = -1
	r.RunFor(small, 1e9, 0)
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
	v, ok := r.MetricAtOrBefore(35)
	if !ok || v != 1.0/30 {
		t.Fatalf("MetricAtOrBefore(35) = %v, %v", v, ok)
	}
	if _, ok := r.MetricAtOrBefore(5); ok {
		t.Fatal("MetricAtOrBefore(5) found a point")
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	r := mkReplay(t)
	r.RunFor(small, 31, 0) // 15.5 steps
	blob, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
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
	good, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
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
	r.RunFor(small, 40, 0) // 20 steps
	blob, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r.RunFor(small, 40, 0) // 40 steps now
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
	r.RunFor(small, 80, 0)
	if !r.Converged(5, 0.01) {
		t.Error("flat curve not converged")
	}
	r2 := mkReplay(t)
	r2.RunFor(small, 80, 0)
	if r2.Converged(5, 0.01) {
		t.Error("1/x curve wrongly converged early")
	}
}

func TestNoisyPerfCOV(t *testing.T) {
	base := func(it market.InstanceType, _ string) float64 {
		if it.Name == "big" {
			return 0.5
		}
		return 2.0
	}
	p := &NoisyPerf{Base: base, COV: 0.05, Seed: 7}
	var xs []float64
	for step := 0; step < 500; step++ {
		xs = append(xs, p.StepSeconds(small, "hp1", step))
	}
	cov := stats.COV(xs)
	if cov <= 0 || cov > 0.1 {
		t.Fatalf("observed COV %v, want (0, 0.1] per §IV-A5", cov)
	}
	if m := stats.Mean(xs); math.Abs(m-2.0) > 0.05 {
		t.Fatalf("noisy mean %v, want ~2.0", m)
	}
	// Deterministic.
	again := p.StepSeconds(small, "hp1", 42)
	if again != xs[42] {
		t.Fatal("NoisyPerf not deterministic")
	}
	// Zero COV passes base through.
	p0 := &NoisyPerf{Base: base}
	if got := p0.StepSeconds(big, "hp", 0); got != 0.5 {
		t.Fatalf("zero-COV StepSeconds = %v", got)
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
			sec := float64(s%40) / 3
			steps, used := r.RunFor(small, sec, 0)
			if used > sec+1e-9 || steps < 0 {
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
		a := float64(aRaw%60) / 4
		b := float64(bRaw%60) / 4
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

// TestAppendCheckpointMatchesCheckpoint pins the append-form encoder to the
// allocating one byte for byte, and to zero steady-state allocations when
// the destination has capacity (the orchestrator reuses one buffer across
// every hourly restart and revocation write).
func TestAppendCheckpointMatchesCheckpoint(t *testing.T) {
	r := mkReplay(t)
	for _, p := range []float64{0, 0.5, 17.25, 100} {
		r.progress = p
		want, err := r.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
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

// noisyReplay builds a replay over a noisy perf model, optionally routed
// through a shared step-time cache.
func noisyReplay(t *testing.T, cache *PerfCache) *Replay {
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
	if cache != nil {
		cache.Use(9, "bench")
		r.SharePerfCache(cache)
	}
	return r
}

// warmCache returns a cache whose prefix for (small, hp-warm) covers every
// step — what an earlier campaign on the same worker leaves behind.
func warmCache(t *testing.T) *PerfCache {
	t.Helper()
	cache := NewPerfCache()
	noisyReplay(t, cache).RunFor(small, 1e9, 0)
	return cache
}

// TestRunForWarmCacheMatchesCold pins that a slice run on a step-time prefix
// an earlier campaign extended past the step limit ends exactly like the
// same slice on a cold prefix: same progress, same seconds used, bit for
// bit. The budgets straddle the limit by amounts inside the 1e-9 progress
// snap, where a prefix-length-dependent clamp used to report the whole
// budget as used on the warm path only.
func TestRunForWarmCacheMatchesCold(t *testing.T) {
	cache := warmCache(t)
	for _, limit := range []int{1, 7, 50, 123, 399} {
		probe := noisyReplay(t, nil)
		need := probe.SecondsToReach(small, limit)
		step := probe.SecondsToReach(small, limit+1) - need
		for _, frac := range []float64{-1e-3, -1e-10, 0, 1e-12, 1e-10, 5e-10, 1e-9, 2e-9, 1e-3, 0.5, 3} {
			secs := need + frac*step
			cold := noisyReplay(t, nil)
			warm := noisyReplay(t, cache)
			cs, cu := cold.RunFor(small, secs, limit)
			ws, wu := warm.RunFor(small, secs, limit)
			if cs != ws || math.Float64bits(cu) != math.Float64bits(wu) ||
				math.Float64bits(cold.Progress()) != math.Float64bits(warm.Progress()) {
				t.Fatalf("limit %d, budget need%+g·step: cold (%d steps, %x used, progress %v), warm (%d steps, %x used, progress %v)",
					limit, frac, cs, math.Float64bits(cu), cold.Progress(), ws, math.Float64bits(wu), warm.Progress())
			}
		}
	}
}

// TestSecondsToReachCappedWarmCacheMatchesCold pins the capped horizon query
// to the same length independence: caps on both sides of the exact need give
// the same verdict and seconds on a cold and on a fully built prefix.
func TestSecondsToReachCappedWarmCacheMatchesCold(t *testing.T) {
	cache := warmCache(t)
	for _, start := range []float64{0, 3.25, 40} {
		for _, target := range []int{5, 60, 250, 400} {
			probe := noisyReplay(t, nil)
			probe.RunFor(small, start, 0)
			need := probe.SecondsToReach(small, target)
			for _, capSecs := range []float64{-1, 0, need / 2, need * (1 - 1e-15), need, need * (1 + 1e-15), need * 2} {
				cold := noisyReplay(t, nil)
				warm := noisyReplay(t, cache)
				cold.RunFor(small, start, 0)
				warm.RunFor(small, start, 0)
				cn, cok := cold.SecondsToReachCapped(small, target, capSecs)
				wn, wok := warm.SecondsToReachCapped(small, target, capSecs)
				if cok != wok || math.Float64bits(cn) != math.Float64bits(wn) {
					t.Fatalf("start %v, target %d, cap %v: cold (%v, %v), warm (%v, %v)",
						start, target, capSecs, cn, cok, wn, wok)
				}
			}
		}
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
