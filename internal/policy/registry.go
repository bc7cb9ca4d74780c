package policy

import "spottune/internal/registry"

// Registered built-in policy names.
const (
	SpotTuneName   = "spottune"
	CheapestName   = "cheapest-spot"
	FastestName    = "fastest-spot"
	OnDemandName   = "on-demand"
	FallbackName   = "spot-od-fallback"
	MixedFleetName = "mixed-fleet"
)

// Factory constructs a policy from params.
type Factory func(Params) (Policy, error)

// Info describes one registered policy for help text and study labels.
type Info = registry.Info

var policies = registry.New[Factory]("policy", "policy")

// Register adds a policy factory under a unique name. Built-ins register in
// init(); external packages may add their own before campaign assembly.
func Register(name, doc string, f Factory) { policies.Register(name, doc, f) }

// New constructs a registered policy by name.
func New(name string, p Params) (Policy, error) {
	f, err := policies.Lookup(name)
	if err != nil {
		return nil, err
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return f(p)
}

// Names lists registered policy names, sorted.
func Names() []string { return policies.Names() }

// Infos lists registered policies with their one-line docs, sorted by name.
func Infos() []Info { return policies.Infos() }
