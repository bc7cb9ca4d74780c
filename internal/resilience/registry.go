package resilience

import (
	"fmt"
	"sort"
	"sync"
)

// Registered built-in strategy names.
const (
	FixedName    = "fixed"
	AdaptiveName = "adaptive"
)

// Factory constructs a strategy from params.
type Factory func(Params) (Strategy, error)

// Info describes one registered strategy for help text and study labels.
type Info struct {
	Name string
	Doc  string
}

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
	docs     = map[string]string{}
)

// Register adds a strategy factory under a unique name. Built-ins register
// in init(); external packages may add their own before campaign assembly.
func Register(name, doc string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("resilience: duplicate registration of %q", name))
	}
	registry[name] = f
	docs[name] = doc
}

// New constructs a registered strategy by name ("" selects the default
// fixed strategy).
func New(name string, p Params) (Strategy, error) {
	if name == "" {
		name = FixedName
	}
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("resilience: unknown strategy %q (registered: %v)", name, Names())
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

// Infos lists registered strategies with their one-line docs, sorted by name.
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
