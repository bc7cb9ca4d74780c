package search

import "spottune/internal/registry"

// Registered built-in tuner names.
const (
	SpotTuneName  = "spottune"
	HalvingName   = "successive-halving"
	HyperbandName = "hyperband"
	FullTrainName = "full-train"
)

// Params configures tuner construction. Zero values select the paper's
// defaults, with the same clamping rules as core.Config so a tuner and the
// report it feeds always agree on θ and MCnt.
type Params struct {
	// Theta is the spottune exploration fraction θ ∈ (0, 1] (default 0.7).
	Theta float64
	// MCnt is how many top-ranked models spottune (and full-train's
	// ranking) continues/reports (default 3).
	MCnt int
	// Eta is the halving factor η ≥ 2 for successive-halving and hyperband
	// rung budgets (default 3).
	Eta int
}

func (p Params) withDefaults() Params {
	if p.Theta <= 0 || p.Theta > 1 {
		p.Theta = 0.7
	}
	if p.MCnt <= 0 {
		p.MCnt = 3
	}
	if p.Eta < 2 {
		p.Eta = 3
	}
	return p
}

// Factory constructs a fresh tuner from params. Tuners are stateful and
// single-use, so factories must return a new instance per call.
type Factory func(Params) (Tuner, error)

// Info describes one registered tuner for help text and study labels.
type Info = registry.Info

var tuners = registry.New[Factory]("search", "tuner")

// Register adds a tuner factory under a unique name. Built-ins register in
// init(); external packages may add their own before campaign assembly.
func Register(name, doc string, f Factory) { tuners.Register(name, doc, f) }

// New constructs a registered tuner by name ("" selects spottune, the
// paper's Algorithm 1 schedule).
func New(name string, p Params) (Tuner, error) {
	if name == "" {
		name = SpotTuneName
	}
	f, err := tuners.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(p.withDefaults())
}

// Default returns the paper's spottune tuner for the given θ and MCnt — the
// engine's fallback when no tuner is configured.
func Default(theta float64, mcnt int) Tuner {
	return newSpotTune(Params{Theta: theta, MCnt: mcnt}.withDefaults())
}

// Names lists registered tuner names, sorted.
func Names() []string { return tuners.Names() }

// Infos lists registered tuners with their one-line docs, sorted by name.
func Infos() []Info { return tuners.Infos() }
