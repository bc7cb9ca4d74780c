// Package workload defines the paper's benchmark suite (Table II): six ML
// algorithms, each with a 16-point hyper-parameter grid, their synthetic
// datasets, training-speed ground truth per instance type (the Fig. 6
// profile), checkpoint sizes, and the machinery to record real validation
// curves once and replay them in simulated campaigns.
//
// Horizon scaling: the paper trains to max_trial_steps values like 1000 with
// schedule HPs (ds, de) sized for those horizons. Our pure-Go workloads use
// shorter horizons, so schedule hyper-parameters scale proportionally (e.g.
// ds ∈ {1000, 2000} keeps its 1:2 ratio). The GBTR "nt" hyper-parameter
// (total trees) maps to trees-added-per-boosting-round {1, 2} because the
// boosting round is our step axis. Both substitutions are listed in
// DESIGN.md.
package workload

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"spottune/internal/earlycurve"
	"spottune/internal/market"
	"spottune/internal/mltrain"
	"spottune/internal/trial"
)

// HP is one hyper-parameter setting: numeric values plus string-valued
// choices (e.g. kernel). Its ID is stable and human-readable.
type HP struct {
	ID  string
	Num map[string]float64
	Str map[string]string
}

func hpID(num map[string]float64, str map[string]string) string {
	keys := make([]string, 0, len(num)+len(str))
	for k := range num {
		keys = append(keys, k)
	}
	for k := range str {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		if v, ok := num[k]; ok {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		} else {
			parts = append(parts, fmt.Sprintf("%s=%s", k, str[k]))
		}
	}
	return strings.Join(parts, ",")
}

// axis is one grid dimension.
type axis struct {
	name string
	nums []float64
	strs []string
}

// grid builds the cartesian product of axes.
func grid(axes []axis) []HP {
	hps := []HP{{Num: map[string]float64{}, Str: map[string]string{}}}
	for _, ax := range axes {
		var next []HP
		for _, base := range hps {
			if len(ax.nums) > 0 {
				for _, v := range ax.nums {
					num := make(map[string]float64, len(base.Num)+1)
					for k, x := range base.Num {
						num[k] = x
					}
					num[ax.name] = v
					next = append(next, HP{Num: num, Str: base.Str})
				}
			} else {
				for _, s := range ax.strs {
					str := make(map[string]string, len(base.Str)+1)
					for k, x := range base.Str {
						str[k] = x
					}
					str[ax.name] = s
					next = append(next, HP{Num: base.Num, Str: str})
				}
			}
		}
		hps = next
	}
	for i := range hps {
		hps[i].ID = hpID(hps[i].Num, hps[i].Str)
	}
	return hps
}

// Config controls dataset/horizon sizing. Scale < 1 shrinks datasets and
// horizons proportionally for fast tests and benchmarks.
type Config struct {
	Seed  uint64
	Scale float64
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

func (c Config) scaled(n int) int {
	v := int(math.Round(float64(n) * c.Scale))
	if v < 1 {
		v = 1
	}
	return v
}

// Benchmark is one Table II workload.
type Benchmark struct {
	Name          string
	Metric        string // metric name for reports
	MaxTrialSteps int
	ValidateEvery int
	CheckpointMB  float64
	// BaseStepSeconds is the noise-free seconds per step on the reference
	// instance (r4.large) for a unit time-factor HP.
	BaseStepSeconds float64
	HPs             []HP

	cfg Config
	// newTrainer builds the real pure-Go trainer for one HP setting.
	newTrainer func(hp HP) (*mltrain.Trainer, error)
	// timeFactor is the HP-dependent multiplier on per-step time (bigger
	// batches, deeper models and RBF feature maps cost more per step).
	timeFactor func(hp HP) float64
}

// HPByID finds a hyper-parameter setting.
func (b *Benchmark) HPByID(id string) (HP, bool) {
	for _, hp := range b.HPs {
		if hp.ID == id {
			return hp, true
		}
	}
	return HP{}, false
}

// InstanceSpeedup is the ground-truth training speedup of each Table III
// instance relative to r4.large. Deliberately non-monotone in price — the
// Fig. 6 observation that pricier instances are not uniformly faster — which
// is what makes fine-grained provisioning profitable. The catalog's family
// performance factor scales the result linearly (newer silicon runs every
// step proportionally faster); Table III types carry factor 1, so their
// ground truth is bit-identical to the pre-catalog table.
func InstanceSpeedup(it market.InstanceType) float64 {
	var base float64
	switch it.Name {
	case "r4.large":
		base = 1.0
	case "r3.xlarge":
		base = 1.7
	case "r4.xlarge":
		base = 1.9
	case "m4.2xlarge":
		base = 2.9
	case "r4.2xlarge":
		base = 2.6
	case "m4.4xlarge":
		base = 3.6
	default:
		// Unknown types: sublinear in cores relative to the 2-core ref.
		base = math.Sqrt(float64(it.CPUs) / 2)
	}
	pf := it.PerfFactor
	if pf == 0 {
		// Raw literals outside a catalog keep the normalized default.
		pf = 1
	}
	return base * pf
}

// StepSeconds is the noise-free per-step time of one HP on one instance.
func (b *Benchmark) StepSeconds(it market.InstanceType, hpID string) float64 {
	hp, ok := b.HPByID(hpID)
	factor := 1.0
	if ok {
		factor = b.timeFactor(hp)
	}
	return b.BaseStepSeconds * factor / InstanceSpeedup(it)
}

// PerfModel returns the noisy ground-truth performance model for campaign
// simulation (COV < 0.1 per §IV-A5).
func (b *Benchmark) PerfModel(seed uint64) trial.PerfModel {
	return &trial.NoisyPerf{
		Base: func(it market.InstanceType, hpID string) float64 {
			return b.StepSeconds(it, hpID)
		},
		COV:  0.05,
		Seed: seed,
	}
}

// Curves maps HP IDs to full recorded metric trajectories.
type Curves map[string][]earlycurve.MetricPoint

// RecordCurves trains every HP setting to MaxTrialSteps with the real
// pure-Go trainer and returns the validation curves. This is the expensive
// one-time step behind simulated campaigns.
func (b *Benchmark) RecordCurves() (Curves, error) {
	out := make(Curves, len(b.HPs))
	for _, hp := range b.HPs {
		tr, err := b.newTrainer(hp)
		if err != nil {
			return nil, fmt.Errorf("workload: %s/%s: %w", b.Name, hp.ID, err)
		}
		tr.RunSteps(b.MaxTrialSteps)
		curve := tr.Curve()
		if len(curve) == 0 || curve[len(curve)-1].Step != b.MaxTrialSteps {
			return nil, fmt.Errorf("workload: %s/%s produced a truncated curve", b.Name, hp.ID)
		}
		out[hp.ID] = curve
	}
	return out, nil
}

// SyntheticCurves generates plausible curves from a parametric family
// instead of real training — for fast tests and micro-benchmarks. Curves
// are HP-dependent and deterministic; neural workloads get a two-stage
// shape.
func (b *Benchmark) SyntheticCurves(seed uint64) Curves {
	out := make(Curves, len(b.HPs))
	twoStage := b.Name == "AlexNet" || b.Name == "ResNet"
	for i, hp := range b.HPs {
		h := fnvMix(seed, b.Name, hp.ID)
		plateau := 0.15 + 0.5*unit(h)
		rate := 0.02 + 0.2*unit(h>>17)
		jumpAt := b.MaxTrialSteps / 2
		drop := 0.3 + 0.4*unit(h>>31)
		var pts []earlycurve.MetricPoint
		for s := b.ValidateEvery; s <= b.MaxTrialSteps; s += b.ValidateEvery {
			k := float64(s)
			v := 1/(rate*k+1.3) + plateau
			if twoStage && s >= jumpAt {
				kl := float64(s - jumpAt + 1)
				v = (1/(rate*float64(jumpAt)+1.3)+plateau)*(1-drop) + drop*plateau*0.6/(0.05*kl+1)
			}
			pts = append(pts, earlycurve.MetricPoint{Step: s, Value: v})
		}
		out[hp.ID] = pts
		_ = i
	}
	return out
}

// Trials builds one Replay trial per HP from recorded (or synthetic) curves.
func (b *Benchmark) Trials(curves Curves, perfSeed uint64) ([]*trial.Replay, error) {
	perf := b.PerfModel(perfSeed)
	out := make([]*trial.Replay, 0, len(b.HPs))
	for _, hp := range b.HPs {
		curve, ok := curves[hp.ID]
		if !ok {
			return nil, fmt.Errorf("workload: no curve for %s/%s", b.Name, hp.ID)
		}
		r, err := trial.NewReplay(hp.ID, b.MaxTrialSteps, curve, perf, b.CheckpointMB)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func unit(h uint64) float64 { return float64(h%100003) / 100003 }

func fnvMix(seed uint64, a, b string) uint64 {
	h := uint64(1469598103934665603) ^ seed
	for i := 0; i < len(a); i++ {
		h ^= uint64(a[i])
		h *= 1099511628211
	}
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}
