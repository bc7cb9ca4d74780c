package trial

import (
	"testing"
	"time"

	"spottune/internal/market"
)

// TestStepTimesPinned pins the draw to literal values, so a change to the
// mixer, the key derivation or the normal table fails here and not only in
// the goldens: the mixer against SplitMix64's published first output for
// seed 0, the table at its middle and edge knots, and a few step times,
// one keyed by names longer than the eight bytes hashName folds at once.
func TestStepTimesPinned(t *testing.T) {
	if got := mix64(golden); got != 0xe220a8397b1dcdaf {
		t.Fatalf("mix64(γ) = %#x, want SplitMix64's 0xe220a8397b1dcdaf", got)
	}
	if got := normal(1 << 63); got != 0 {
		t.Fatalf("normal at the median = %v, want 0", got)
	}
	if lo, hi := normal(0), normal(1<<64-1); lo != -hi || lo > -3.6 || lo < -3.7 {
		t.Fatalf("normal at the edges = %v, %v, want ∓3.6…3.7 and odd-symmetric", lo, hi)
	}
	p := &NoisyPerf{Base: func(it market.InstanceType, _ string) float64 { return 16 / float64(it.CPUs) }, COV: 0.05, Seed: 7}
	for _, c := range []struct {
		inst market.InstanceType
		hp   string
		step int
		want time.Duration
	}{
		{small, "hp1", 0, 8275663891},
		{small, "hp1", 1, 7957432902},
		{small, "hp2", 0, 8498506125},
		{big, "hp1", 0, 949876706},
		{big, "hp1", 1 << 20, 1034171932},
		{market.InstanceType{Name: "m4.2xlarge", CPUs: 8}, "bs=128,dr=0.95,ds=2000,lr=0.01", 7, 2072704015},
	} {
		if got := p.Steps(c.inst, c.hp)(c.step); got != c.want {
			t.Errorf("%s/%s step %d = %d ns, want %d", c.inst.Name, c.hp, c.step, got, c.want)
		}
	}
}

// TestStepSecondsZeroAllocs pins that a step-time draw allocates nothing.
func TestStepSecondsZeroAllocs(t *testing.T) {
	p := &NoisyPerf{Base: func(market.InstanceType, string) float64 { return 2 }, COV: 0.05, Seed: 3}
	steps := p.Steps(small, "hp1")
	k := 0
	if avg := testing.AllocsPerRun(200, func() {
		k++
		_ = steps(k)
	}); avg != 0 {
		t.Errorf("a draw allocates %.1f times, want 0", avg)
	}
}
