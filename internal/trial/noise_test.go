package trial_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"spottune/internal/market"
	"spottune/internal/trial"
	"spottune/internal/workload"
)

// fnvPrefix is the byte-wise FNV-1a fold of two strings into a seeded state.
func fnvPrefix(seed uint64, a, b string) uint64 {
	return trial.FNVFold(trial.FNVFold(trial.FNVOffset^seed, a), b)
}

// hashGaussPre is the byte-wise reference for NoisyPerf's noise draw: a
// Box–Muller transform over two hash-derived uniforms, with pre the (seed,
// inst, hp) prefix and the second pass folding hp and inst byte by byte.
func hashGaussPre(pre uint64, inst, hp string, step int) float64 {
	h := trial.FNVTail(pre, uint64(step))
	u1 := float64(h>>11) / float64(1<<53)
	h2 := trial.FNVTail(fnvPrefix(h, hp, inst), uint64(step)*2654435761)
	u2 := float64(h2>>11) / float64(1<<53)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// refStepSeconds is NoisyPerf.StepSeconds through the byte-wise reference.
func refStepSeconds(base, cov float64, seed uint64, inst, hp string, step int) float64 {
	f := 1 + cov*hashGaussPre(fnvPrefix(seed, inst, hp), inst, hp, step)
	if f < 0.5 {
		f = 0.5
	}
	return base * f
}

// suiteHPIDs returns every built-in suite's HP IDs.
func suiteHPIDs() []string {
	var ids []string
	for _, b := range workload.Suite(workload.Config{Scale: 0.05}) {
		for _, hp := range b.HPs {
			ids = append(ids, hp.ID)
		}
	}
	return ids
}

// catalogNames returns every DefaultCatalog type name.
func catalogNames() []string { return market.DefaultCatalog().Names() }

// TestFNVTableMatchesByteFold pins the table identity
// f_s(h) = h·P^len(s) + T_s[h&0xff] against the byte-wise fold, for every
// built-in HP ID and catalog type name, the empty string and every one-byte
// string, at every low byte and at random states.
func TestFNVTableMatchesByteFold(t *testing.T) {
	strs := append(suiteHPIDs(), catalogNames()...)
	strs = append(strs, "")
	for b := 0; b < 256; b++ {
		strs = append(strs, string([]byte{byte(b)}))
	}
	rng := rand.New(rand.NewPCG(18, 0xf17))
	states := []uint64{0, math.MaxUint64, trial.FNVOffset}
	for x := uint64(0); x < 256; x++ {
		states = append(states, x, x<<56|x, rng.Uint64()&^0xff|x)
	}
	for i := 0; i < 256; i++ {
		states = append(states, rng.Uint64())
	}
	for _, s := range strs {
		for _, h := range states {
			if got, want := trial.FNVTableFold(s, h), trial.FNVFold(h, s); got != want {
				t.Fatalf("fold(%q, %#x) = %#x, byte-wise %#x", s, h, got, want)
			}
		}
	}
}

// noisePairs crosses some catalog types with some suite HP IDs, so a walk
// over them switches pair, type and HP between calls.
func noisePairs(t *testing.T) (types []market.InstanceType, hps []string) {
	t.Helper()
	cat := market.DefaultCatalog()
	for _, name := range catalogNames()[:4] {
		it, _ := cat.Lookup(name)
		types = append(types, it)
	}
	ids := suiteHPIDs()
	return types, []string{ids[0], ids[len(ids)/2], ids[len(ids)-1], ""}
}

func baseSeconds(it market.InstanceType, hp string) float64 {
	return 2/float64(it.CPUs) + float64(len(hp))/100
}

// TestStepSecondsMatchesByteWiseReference pins NoisyPerf.StepSeconds bit
// for bit to the byte-wise reference, walking steps one pair at a time (as
// Replay.cumFor does) and switching pair on every call.
func TestStepSecondsMatchesByteWiseReference(t *testing.T) {
	types, hps := noisePairs(t)
	rng := rand.New(rand.NewPCG(18, 0x5eed))
	for _, seed := range []uint64{0, 1, 7, math.MaxUint64} {
		for _, cov := range []float64{0.05, 3} {
			p := &trial.NoisyPerf{Base: baseSeconds, COV: cov, Seed: seed}
			check := func(it market.InstanceType, hp string, step int) {
				t.Helper()
				got := p.StepSeconds(it, hp, step)
				want := refStepSeconds(baseSeconds(it, hp), cov, seed, it.Name, hp, step)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d cov %v %s/%q step %d: %v, byte-wise %v",
						seed, cov, it.Name, hp, step, got, want)
				}
			}
			for _, it := range types {
				for _, hp := range hps {
					for step := 0; step < 300; step++ {
						check(it, hp, step)
					}
				}
			}
			for i := 0; i < 2000; i++ {
				check(types[rng.IntN(len(types))], hps[rng.IntN(len(hps))], rng.IntN(1<<20))
			}
		}
	}
}

// TestStepSecondsZeroAllocs pins that, once the names' tables exist, a draw
// allocates nothing, even when every call switches pair.
func TestStepSecondsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments sync.Map, so the count would measure the detector")
	}
	types, hps := noisePairs(t)
	p := &trial.NoisyPerf{Base: baseSeconds, COV: 0.05, Seed: 3}
	for _, it := range types {
		for _, hp := range hps {
			p.StepSeconds(it, hp, 0)
		}
	}
	step := 0
	if avg := testing.AllocsPerRun(200, func() {
		step++
		p.StepSeconds(types[step%len(types)], hps[step%len(hps)], step)
		p.StepSeconds(types[0], hps[0], step)
	}); avg != 0 {
		t.Errorf("StepSeconds allocates %.1f times a run, want 0", avg)
	}
}

// TestFNVTablesConcurrentFirstUse races 8 goroutines on names no other test
// uses, so their tables are built under contention. Every goroutine must
// draw the byte-wise reference's bits.
func TestFNVTablesConcurrentFirstUse(t *testing.T) {
	const workers, steps = 8, 64
	cat := market.DefaultCatalog()
	it, _ := cat.Lookup(catalogNames()[0])
	it.Name = "first-use.xlarge"
	hps := make([]string, 4)
	for i := range hps {
		hps[i] = fmt.Sprintf("first-use-hp=%d", i)
	}
	want := make([]uint64, 0, len(hps)*steps)
	for _, hp := range hps {
		for step := 0; step < steps; step++ {
			want = append(want, math.Float64bits(refStepSeconds(baseSeconds(it, hp), 0.05, 11, it.Name, hp, step)))
		}
	}
	got := make([][]uint64, workers)
	var start, done sync.WaitGroup
	start.Add(1)
	for w := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			p := &trial.NoisyPerf{Base: baseSeconds, COV: 0.05, Seed: 11}
			start.Wait()
			for _, hp := range hps {
				for step := 0; step < steps; step++ {
					got[w] = append(got[w], math.Float64bits(p.StepSeconds(it, hp, step)))
				}
			}
		}()
	}
	start.Done()
	done.Wait()
	for w := range got {
		for i := range want {
			if got[w][i] != want[i] {
				t.Fatalf("worker %d draw %d = %#x, byte-wise %#x", w, i, got[w][i], want[i])
			}
		}
	}
}
