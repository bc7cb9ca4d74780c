// Package spottune is a reproduction of "SpotTune: Leveraging Transient
// Resources for Cost-efficient Hyper-parameter Tuning in the Public Cloud"
// (Li et al., ICDCS 2020) as a self-contained Go library.
//
// SpotTune orchestrates hyper-parameter tuning (HPT) on revocable spot
// instances. It combines three ideas:
//
//   - Fine-grained cost-aware provisioning: deploy each trial on the
//     instance minimizing the expected per-step cost
//     E[sCost] = M[inst][hp]·(1−p)·price, where p is a learned revocation
//     probability and M an online-profiled performance matrix (Eq. 2).
//   - RevPred: a per-market LSTM revocation predictor trained on price
//     history with fluctuation-derived maximum prices (§III-B).
//   - EarlyCurve: staged training-curve extrapolation that shuts down
//     unpromising trials after θ·max_trial_steps steps (§III-C).
//
// This package is the public facade over the internal substrates: a
// simulated transient cloud (synthetic spot markets, EC2-like
// revocation/refund semantics, on-demand capacity, an S3-like object
// store), the Table II workload suite backed by real pure-Go trainers, and
// one campaign runner for SpotTune and every baseline. Provisioning is a
// pluggable policy engine: Eq. 1–2 is the "spottune" policy, and the
// registry also ships the paper's Single-Spot baselines (PolicyCheapest,
// and PolicyFastest anchored with BaseType "m4.4xlarge", both at θ=1), a
// pure on-demand strategy, an AutoSpotting-style spot-with-on-demand
// fallback, and a DeepVM-style mixed fleet — all runnable through the same
// orchestrator and comparable via Environment.RunPolicy or
// policy-dimension sweeps. The search strategy is
// equally pluggable: the trial lifecycle (round budgets, early shutdown,
// final ranking) is owned by a tuner from the search registry — the paper's
// Algorithm 1 schedule ("spottune", the default), successive halving,
// hyperband, and a full-train cost ceiling — selected per campaign via
// CampaignOptions.Tuner. The simulation core is
// discrete-event end to end — the orchestrator advances the virtual clock
// directly to each next trigger instead of polling, and Sweep fans
// independent campaigns across a worker pool — so multi-day campaigns and
// many-campaign studies replay in milliseconds. Everything is deterministic
// given a seed. See DESIGN.md for the system inventory and EXPERIMENTS.md
// for how to regenerate the paper's evaluation.
//
// Quickstart:
//
//	env, err := spottune.NewEnvironment(spottune.EnvOptions{Seed: 1})
//	bench, err := spottune.BenchmarkByName("LoR", spottune.WorkloadConfig{Seed: 1, Scale: 0.5})
//	curves, err := bench.RecordCurves() // or bench.SyntheticCurves(1) for a fast dry run
//	report, err := env.RunSpotTune(bench, curves, spottune.CampaignOptions{Theta: 0.7})
//	fmt.Printf("cost $%.3f in %v, best HP %s\n", report.NetCost, report.JCT, report.Best)
package spottune

import (
	"spottune/internal/campaign"
	"spottune/internal/core"
	"spottune/internal/earlycurve"
	"spottune/internal/market"
	"spottune/internal/policy"
	"spottune/internal/revpred"
	"spottune/internal/search"
	"spottune/internal/workload"
	"time"
)

// Re-exported types so downstream users need only this package.
type (
	// Report is a campaign summary (cost, JCT, refunds, rankings).
	Report = core.Report
	// Benchmark is one Table II workload with its HP grid.
	Benchmark = workload.Benchmark
	// Curves maps HP IDs to recorded metric trajectories.
	Curves = workload.Curves
	// WorkloadConfig scales benchmark datasets and horizons.
	WorkloadConfig = workload.Config
	// InstanceType describes one catalog entry (Table III).
	InstanceType = market.InstanceType
	// RevPredConfig tunes revocation-predictor training.
	RevPredConfig = revpred.Config
	// PredictorKind selects the provisioning-time revocation model.
	PredictorKind = campaign.PredictorKind
	// EnvOptions configures environment assembly.
	EnvOptions = campaign.EnvOptions
	// Environment is an assembled simulated cloud.
	Environment = campaign.Environment
	// CampaignOptions tunes one campaign run.
	CampaignOptions = campaign.Options
	// TrendPredictor extrapolates final metrics from partial curves.
	TrendPredictor = earlycurve.TrendPredictor
	// SweepTask is one independent campaign inside a Sweep.
	SweepTask = campaign.Task
	// SweepResult is one Sweep outcome, in task order.
	SweepResult = campaign.SweepResult
	// SweepOptions tunes Sweep parallelism and cancellation.
	SweepOptions = campaign.SweepOptions
	// ProvisioningPolicy decides deployments: spot (with a maximum price)
	// or on-demand, per trial, given market state and the perf matrix.
	ProvisioningPolicy = policy.Policy
	// PolicyParams tunes provisioning-policy construction.
	PolicyParams = policy.Params
	// PolicyInfo names one registered policy with its one-line doc.
	PolicyInfo = policy.Info
	// Tuner owns trial-lifecycle decisions: which trials run each round,
	// their step budgets, when the search stops, and the final ranking.
	Tuner = search.Tuner
	// TunerParams tunes search-strategy construction (θ, MCnt, η).
	TunerParams = search.Params
	// TunerInfo names one registered tuner with its one-line doc.
	TunerInfo = search.Info
	// TunerRound is one batch of per-trial step budgets a Tuner emits.
	TunerRound = search.Round
	// TunerDirective is one trial's step budget within a round.
	TunerDirective = search.Directive
	// TunerState is what a Tuner observes between rounds.
	TunerState = search.State
	// TunerOutcome is a Tuner's final selection output.
	TunerOutcome = search.Outcome
)

// Predictor kinds (see the campaign package for semantics).
const (
	PredictorRevPred   = campaign.PredictorRevPred
	PredictorTributary = campaign.PredictorTributary
	PredictorLogReg    = campaign.PredictorLogReg
	PredictorOracle    = campaign.PredictorOracle
	PredictorConstant  = campaign.PredictorConstant
	PredictorNone      = campaign.PredictorNone
)

// Registered provisioning-policy names (Environment.RunPolicy /
// CampaignOptions.Policy). PolicySpotTune is the paper's Eq. 1–2
// provisioner and the default. PolicyCheapest and PolicyFastest at Theta 1
// are the §IV-A4 Single-Spot baselines; Fig. 7 anchors PolicyFastest with
// BaseType "m4.4xlarge" so it never leaves that type.
const (
	PolicySpotTune   = policy.SpotTuneName
	PolicyCheapest   = policy.CheapestName
	PolicyFastest    = policy.FastestName
	PolicyOnDemand   = policy.OnDemandName
	PolicyFallback   = policy.FallbackName
	PolicyMixedFleet = policy.MixedFleetName
)

// Registered tuner (search strategy) names (CampaignOptions.Tuner).
// TunerSpotTune is the paper's Algorithm 1 schedule and the default.
const (
	TunerSpotTune  = search.SpotTuneName
	TunerHalving   = search.HalvingName
	TunerHyperband = search.HyperbandName
	TunerFullTrain = search.FullTrainName
)

// Policies lists registered provisioning-policy names, sorted.
func Policies() []string { return policy.Names() }

// PolicyInfos lists registered policies with their one-line docs.
func PolicyInfos() []PolicyInfo { return policy.Infos() }

// Tuners lists registered tuner (search strategy) names, sorted.
func Tuners() []string { return search.Names() }

// TunerInfos lists registered tuners with their one-line docs.
func TunerInfos() []TunerInfo { return search.Infos() }

// RegisterTuner adds a custom search strategy to the registry under a
// unique name, making it available to CampaignOptions.Tuner, tuner sweeps,
// and the cross-tuner study. Factories must return a fresh instance per
// call — tuners are stateful and single-use.
func RegisterTuner(name, doc string, factory func(TunerParams) (Tuner, error)) {
	search.Register(name, doc, factory)
}

// RegisterPolicy adds a custom provisioning policy to the registry under a
// unique name, making it available to RunPolicy, policy sweeps, and the
// cross-policy study.
func RegisterPolicy(name, doc string, factory func(PolicyParams) (ProvisioningPolicy, error)) {
	policy.Register(name, doc, factory)
}

// DefaultStart is the first timestamp of generated traces — the Kaggle
// dataset's first day (2017-04-26, §IV-A1).
func DefaultStart() time.Time { return campaign.DefaultStart() }

// NewEnvironment generates markets and trains predictors per the options.
func NewEnvironment(opts EnvOptions) (*Environment, error) {
	return campaign.NewEnvironment(opts)
}

// TrueFinals exposes ground-truth final metrics for accuracy scoring
// (Fig. 8c) plus the true best HP.
func TrueFinals(b *Benchmark, curves Curves) (map[string]float64, string, error) {
	return campaign.TrueFinals(b, curves)
}

// Suite returns all six Table II benchmarks.
func Suite(cfg WorkloadConfig) []*Benchmark { return workload.Suite(cfg) }

// BenchmarkByName returns one Table II benchmark by name
// (LoR, SVM, GBTR, LiR, AlexNet, ResNet).
func BenchmarkByName(name string, cfg WorkloadConfig) (*Benchmark, error) {
	return workload.SuiteByName(name, cfg)
}

// Sweep runs independent campaigns on a worker pool with deterministic
// result ordering (see DESIGN.md).
func Sweep(tasks []SweepTask, opt SweepOptions) []SweepResult {
	return campaign.Sweep(tasks, opt)
}

// EarlyCurvePredictor returns the paper's staged trend predictor.
func EarlyCurvePredictor() TrendPredictor { return &earlycurve.Predictor{} }

// SLAQPredictor returns the single-stage SLAQ baseline predictor (Fig. 11).
func SLAQPredictor() TrendPredictor { return earlycurve.SLAQ{} }
