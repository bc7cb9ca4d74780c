package trial

import (
	"encoding/binary"
	"math"
	"time"

	"spottune/internal/market"
)

// NoisyPerf is a PerfModel with deterministic per-(instance, hp, step)
// multiplicative noise around a base model, keeping COV small (<0.1) as the
// paper measures.
type NoisyPerf struct {
	// Base returns noise-free seconds per step.
	Base func(it market.InstanceType, hpID string) float64
	// COV is the coefficient of variation of the noise (e.g. 0.05).
	COV float64
	// Seed decorrelates campaigns.
	Seed uint64
}

var _ PerfModel = (*NoisyPerf)(nil)

// Steps implements PerfModel. Step k of the pair takes
// base·max(1 + COV·z, 0.5), rounded to the nanosecond, where z is a
// standard normal draw: the inverse normal CDF, by table, of
// mix64(key + k·γ). The key hashes the seed, the HP ID and the type name
// once here, so a draw depends on what it describes and on nothing else:
// not on catalog order, not on other pairs' draws, not on which steps were
// drawn before (DESIGN.md, "Step-noise identity").
func (n *NoisyPerf) Steps(it market.InstanceType, hpID string) StepTimes {
	base := float64(n.Base(it, hpID) * float64(time.Second))
	if n.COV <= 0 {
		d := time.Duration(base + 0.5)
		return func(int) time.Duration { return d }
	}
	s := noisySteps{
		key:   hashName(hashName(n.Seed, hpID), it.Name),
		base:  base,
		sd:    base * n.COV,
		floor: 0.5 * base,
	}
	return s.at
}

// noisySteps is one (trial, type) pair's draw: its key and its base,
// standard deviation and floor in nanoseconds.
type noisySteps struct {
	key             uint64
	base, sd, floor float64
}

// at is the pair's step time at step k. The float64 conversions here and in
// Steps and normal keep products unfused, so every architecture rounds
// them alike.
func (s noisySteps) at(k int) time.Duration {
	ns := s.base + float64(s.sd*normal(mix64(s.key+uint64(k)*golden)))
	if ns < s.floor {
		ns = s.floor
	}
	return time.Duration(ns + 0.5)
}

// golden is SplitMix64's increment, 2^64/φ rounded to odd.
const golden = 0x9e3779b97f4a7c15

// mix64 is the SplitMix64 finaliser: a bijection on uint64 whose every
// output bit depends on every input bit.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// hashName folds s into h through the mixer, eight little-endian bytes at
// a time, then its length, so names that differ only by trailing zero
// bytes still differ.
func hashName(h uint64, s string) uint64 {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		h = mix64(h ^ binary.LittleEndian.Uint64([]byte(s[i:i+8])))
	}
	if i < len(s) {
		var w uint64
		for j := len(s) - 1; j >= i; j-- {
			w = w<<8 | uint64(s[j])
		}
		h = mix64(h ^ w)
	}
	return mix64(h ^ uint64(len(s)))
}

// A draw's top normalBits bits pick one of the normalCells
// equal-probability cells the inverse normal CDF table splits [0, 1) into,
// and its low fracBits bits the point inside that cell.
const (
	normalBits  = 10
	normalCells = 1 << normalBits
	fracBits    = 64 - normalBits
)

// normalKnots[j] is the inverse normal CDF at j/normalCells for
// 0 < j < normalCells. The two edge knots, where the CDF's inverse is
// infinite, are set so that interpolating across an edge cell gives that
// tail's conditional mean. The table is odd-symmetric about its middle knot,
// 0, so the draws have mean exactly zero over the cells.
var normalKnots = func() (q [normalCells + 1]float64) {
	for j := 1; j < normalCells/2; j++ {
		q[j] = math.Sqrt2 * math.Erfinv(float64(2*j-normalCells)/normalCells)
	}
	// E[z | z < a] = −φ(a)/Φ(a), with Φ(a) = 1/normalCells.
	a := q[1]
	tail := -math.Exp(-a*a/2) / math.Sqrt(2*math.Pi) * normalCells
	q[0] = float64(2*tail) - a
	for j := 0; j < normalCells/2; j++ {
		q[normalCells-j] = -q[j]
	}
	return q
}()

// normal maps a uniform 64-bit draw to a standard normal one: the top
// normalBits bits pick a cell, and the rest interpolate linearly between
// its knots.
func normal(u uint64) float64 {
	i := u >> fracBits
	f := float64(int64(u&(1<<fracBits-1))) * (1.0 / (1 << fracBits))
	lo := normalKnots[i]
	return lo + float64(f*(normalKnots[i+1]-lo))
}
