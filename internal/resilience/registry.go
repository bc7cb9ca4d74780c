package resilience

import (
	"fmt"

	"spottune/internal/registry"
)

// Registered built-in strategy names.
const (
	FixedName    = "fixed"
	AdaptiveName = "adaptive"
)

// Factory constructs a strategy from params.
type Factory func(Params) (Strategy, error)

// Info describes one registered strategy for help text and study labels.
type Info = registry.Info

var strategies = registry.New[Factory]("resilience", "strategy")

// Register adds a strategy factory under a unique name. Built-ins register
// in init(); external packages may add their own before campaign assembly.
func Register(name, doc string, f Factory) { strategies.Register(name, doc, f) }

// New constructs a registered strategy by name ("" selects the default
// fixed strategy).
func New(name string, p Params) (Strategy, error) {
	if name == "" {
		name = FixedName
	}
	f, err := strategies.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(p)
}

// Default is the compatibility strategy: the fixed cadence/pacing the
// orchestrator has always used, pinned bit for bit by the golden suites.
func Default() Strategy {
	s, err := New(FixedName, Params{})
	if err != nil {
		panic(fmt.Sprintf("resilience: default strategy: %v", err))
	}
	return s
}

// Names lists registered strategy names, sorted.
func Names() []string { return strategies.Names() }

// Infos lists registered strategies with their one-line docs, sorted by name.
func Infos() []Info { return strategies.Infos() }
