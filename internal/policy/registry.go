package policy

import (
	"fmt"
	"sort"
	"sync"
)

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
type Info struct {
	Name string
	Doc  string
}

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
	docs     = map[string]string{}
)

// Register adds a policy factory under a unique name. Built-ins register in
// init(); external packages may add their own before campaign assembly.
func Register(name, doc string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("policy: duplicate registration of %q", name))
	}
	registry[name] = f
	docs[name] = doc
}

// New constructs a registered policy by name.
func New(name string, p Params) (Policy, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (registered: %v)", name, Names())
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return f(p)
}

// Names lists registered policy names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Infos lists registered policies with their one-line docs, sorted by name.
func Infos() []Info {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Info, 0, len(registry))
	for name := range registry {
		out = append(out, Info{Name: name, Doc: docs[name]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
