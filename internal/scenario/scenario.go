// Package scenario is the declarative scenario engine: named market regimes,
// fault injections, fleet variations, and workload choices compose into
// reproducible seeded Specs, and a Matrix fans scenario × policy
// combinations through campaign.Sweep / experiments.CrossPolicy into
// per-cell cost/JCT/refund tables. Every cell's final simulator state passes
// through invariants.Check, so the matrix is a self-verifying test bed: the
// paper's claims are exercised not just on the one replayed us-east-1 market
// but across every market pathology the regime vocabulary can express.
package scenario

import (
	"fmt"
	"time"

	"spottune/internal/campaign"
	"spottune/internal/cloudsim"
	"spottune/internal/market"
	"spottune/internal/policy"
	"spottune/internal/resilience"
	"spottune/internal/search"
)

// FaultKind names one fault-injection primitive.
type FaultKind string

// Supported fault kinds.
const (
	// FaultMassPreemption revokes every running spot instance (of TypeName
	// when set) at one instant: notice immediately, revocation two minutes
	// later, first-hour refunds applied.
	FaultMassPreemption FaultKind = "mass-preemption"
	// FaultBlackout makes spot requests for TypeName (every market when
	// empty) fail for Duration — capacity drought, independent of price.
	FaultBlackout FaultKind = "blackout"
)

// Fault is one deterministic fault injection, anchored relative to the
// campaign start so the same spec works across trace lengths and splits.
type Fault struct {
	Kind FaultKind
	// After offsets the fault from the campaign start.
	After time.Duration
	// Duration is the blackout length (blackout only).
	Duration time.Duration
	// TypeName restricts the fault to one market ("" = all).
	TypeName string
}

func (f Fault) validate() error {
	switch f.Kind {
	case FaultMassPreemption:
		if f.Duration != 0 {
			return fmt.Errorf("scenario: mass preemption is instantaneous; got duration %v", f.Duration)
		}
	case FaultBlackout:
		if f.Duration <= 0 {
			return fmt.Errorf("scenario: blackout needs a positive duration, got %v", f.Duration)
		}
	default:
		return fmt.Errorf("scenario: unknown fault kind %q", f.Kind)
	}
	if f.After < 0 {
		return fmt.Errorf("scenario: fault offset %v before campaign start", f.After)
	}
	return nil
}

// Spec declares one reproducible scenario: which market regime the region
// runs under, which faults strike it, which instance fleet and workload the
// campaign uses, and the seed everything derives from. Zero values select
// defaults, so the minimal spec is just a Name and a Regime.
type Spec struct {
	// Name labels the scenario in tables and CSVs (required, unique
	// within a matrix).
	Name string
	// Regime is a market.GenerateRegime name ("" = baseline).
	Regime string
	// Seed drives trace generation, trial perf noise, and policy bid
	// streams. Zero inherits the matrix seed.
	Seed uint64
	// Days/TrainDays control trace length and the predictor split (zero =
	// fidelity-dependent defaults).
	Days, TrainDays int
	// Pool restricts the instance fleet (nil = whole catalog).
	Pool []string
	// Workload names the Table II benchmark ("" = matrix default).
	Workload string
	// Predictor overrides the revocation predictor kind ("" = RevPred at
	// full fidelity, the constant predictor in quick mode).
	Predictor campaign.PredictorKind
	// Tuner pins this scenario to one search strategy (a search registry
	// name); "" follows the matrix's tuner axis (Options.Tuners).
	Tuner string
	// Resilience pins this scenario to one recovery strategy (a
	// resilience registry name); "" follows the matrix's strategy axis
	// (Options.Strategies).
	Resilience string
	// Deadline constrains every campaign of this scenario: the completion
	// target that drives the degradation ladder (zero = unconstrained).
	Deadline time.Duration
	// BaseType anchors the catalog compatibility constraint: every cell's
	// instance pool is narrowed to types at least as powerful as this one
	// before any policy sees it ("" = unconstrained).
	BaseType string
	// Allocation selects the diversified-spot allocation strategy for this
	// scenario's cells ("" = lowest-price). Catalog-blind policies ignore
	// it.
	Allocation string
	// Faults strike the simulated region during the campaign.
	Faults []Fault
}

// Validate checks the spec against the regime and fault vocabularies.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if s.Regime != "" {
		found := false
		for _, r := range market.RegimeNames() {
			if r == s.Regime {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("scenario: %s: unknown regime %q (available: %v)", s.Name, s.Regime, market.RegimeNames())
		}
	}
	if s.Tuner != "" {
		if err := validTuner(s.Tuner); err != nil {
			return fmt.Errorf("scenario: %s: %w", s.Name, err)
		}
	}
	if s.Resilience != "" {
		if err := validStrategy(s.Resilience); err != nil {
			return fmt.Errorf("scenario: %s: %w", s.Name, err)
		}
	}
	if s.Deadline < 0 {
		return fmt.Errorf("scenario: %s: negative deadline %v", s.Name, s.Deadline)
	}
	if s.BaseType != "" {
		if _, ok := market.DefaultCatalog().Lookup(s.BaseType); !ok {
			return fmt.Errorf("scenario: %s: unknown base type %q (available: %v)", s.Name, s.BaseType, market.DefaultCatalog().Names())
		}
	}
	if s.Allocation != "" {
		found := false
		for _, a := range policy.AllocationNames() {
			if a == s.Allocation {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("scenario: %s: unknown allocation %q (available: %v)", s.Name, s.Allocation, policy.AllocationNames())
		}
	}
	for _, f := range s.Faults {
		if err := f.validate(); err != nil {
			return fmt.Errorf("scenario: %s: %w", s.Name, err)
		}
	}
	if s.TrainDays >= s.Days && s.Days > 0 && s.TrainDays > 0 {
		return fmt.Errorf("scenario: %s: train days %d >= days %d", s.Name, s.TrainDays, s.Days)
	}
	return nil
}

// withDefaults resolves fidelity-dependent fields against the matrix
// options.
func (s Spec) withDefaults(opt Options) Spec {
	if s.Seed == 0 {
		s.Seed = opt.Seed
	}
	if s.Days <= 0 {
		if opt.Quick {
			s.Days = 5
		} else {
			s.Days = 14
		}
	}
	if s.TrainDays <= 0 {
		if opt.Quick {
			s.TrainDays = 2
		} else {
			s.TrainDays = 8
		}
	}
	if s.Workload == "" {
		s.Workload = opt.Workload
	}
	if s.Predictor == "" {
		if opt.Quick {
			s.Predictor = campaign.PredictorConstant
		} else {
			s.Predictor = campaign.PredictorRevPred
		}
	}
	return s
}

// validTuner checks a tuner name against the search registry.
func validTuner(name string) error {
	for _, t := range search.Names() {
		if t == name {
			return nil
		}
	}
	return fmt.Errorf("unknown tuner %q (available: %v)", name, search.Names())
}

// validStrategy checks a recovery-strategy name against the resilience
// registry.
func validStrategy(name string) error {
	for _, r := range resilience.Names() {
		if r == name {
			return nil
		}
	}
	return fmt.Errorf("unknown resilience strategy %q (available: %v)", name, resilience.Names())
}

// envKey identifies the shareable part of an environment build: specs that
// differ only in faults (which live in per-run cluster hooks) reuse one
// generated region and one trained predictor set.
type envKey struct {
	regime    string
	seed      uint64
	days      int
	trainDays int
	pool      string
	predictor campaign.PredictorKind
}

func (s Spec) key() envKey {
	pool := ""
	for _, p := range s.Pool {
		pool += p + ","
	}
	return envKey{
		regime:    s.Regime,
		seed:      s.Seed,
		days:      s.Days,
		trainDays: s.TrainDays,
		pool:      pool,
		predictor: s.Predictor,
	}
}

// Environment assembles the spec's campaign environment: regime traces,
// trained predictors, and fault hooks that replay this spec's injections on
// every fresh cluster. The spec must already be resolved (withDefaults).
func (s Spec) Environment(opt Options) (*campaign.Environment, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	env, err := campaign.NewEnvironment(campaign.EnvOptions{
		Seed:      s.Seed,
		Days:      s.Days,
		TrainDays: s.TrainDays,
		Predictor: s.Predictor,
		RevPred:   opt.revPredConfig(s.Seed),
		Pool:      append([]string(nil), s.Pool...),
		Regime:    s.Regime,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", s.Name, err)
	}
	return s.withFaults(env)
}

// withFaults returns a copy of env whose clusters replay this spec's fault
// injections (the base env, possibly shared across specs, is not mutated).
func (s Spec) withFaults(env *campaign.Environment) (*campaign.Environment, error) {
	cp := *env
	cp.ClusterHooks = nil
	start := env.CampaignStart
	for _, f := range s.Faults {
		f := f
		switch f.Kind {
		case FaultMassPreemption:
			cp.ClusterHooks = append(cp.ClusterHooks, func(c *cloudsim.Cluster) error {
				return c.SchedulePreemption(start.Add(f.After), f.TypeName)
			})
		case FaultBlackout:
			cp.ClusterHooks = append(cp.ClusterHooks, func(c *cloudsim.Cluster) error {
				return c.AddBlackout(cloudsim.Blackout{
					TypeName: f.TypeName,
					From:     start.Add(f.After),
					To:       start.Add(f.After + f.Duration),
				})
			})
		default:
			return nil, fmt.Errorf("scenario: %s: unknown fault kind %q", s.Name, f.Kind)
		}
	}
	return &cp, nil
}

// DefaultSpecs is the standard scenario battery: every market regime as-is,
// plus fault-injection scenarios layered on the regimes they stress most —
// a correlated double mass-preemption on the calm market (the reclaim no
// price signal predicts), a region-wide capacity blackout on the baseline
// market, and a compatibility-constrained capacity-optimized fleet under
// the cross-family crunch (the cell where diversification pays).
func DefaultSpecs() []Spec {
	specs := []Spec{}
	for _, name := range market.RegimeNames() {
		specs = append(specs, Spec{Name: name, Regime: name})
	}
	specs = append(specs,
		Spec{
			Name:   "calm+mass-preemption",
			Regime: "calm",
			Faults: []Fault{
				{Kind: FaultMassPreemption, After: 5 * time.Hour},
				{Kind: FaultMassPreemption, After: 29 * time.Hour},
			},
		},
		Spec{
			Name:   "baseline+blackout",
			Regime: "baseline",
			Faults: []Fault{
				{Kind: FaultBlackout, After: 3 * time.Hour, Duration: 6 * time.Hour},
			},
		},
		Spec{
			Name:       "family-crunch+diversified",
			Regime:     "family-crunch",
			BaseType:   "r4.xlarge",
			Allocation: policy.AllocCapacityOptimized,
		},
	)
	return specs
}
