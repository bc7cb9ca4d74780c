// Package registry is the name-to-factory table behind each pluggable
// engine: provisioning policies (internal/policy), tuners (internal/search)
// and recovery strategies (internal/resilience). Each of those packages
// keeps one Registry of its own factory type and exports Register, New,
// Names and Infos over it.
package registry

import (
	"fmt"
	"sort"
	"sync"
)

// Info describes one registered entry for help text and study labels.
type Info struct {
	Name string
	Doc  string
}

// Registry maps unique names to factories of type F, each with a one-line
// doc. It is safe for concurrent use: built-ins register in init(), and
// other packages may add their own before campaign assembly.
type Registry[F any] struct {
	pkg, kind string // error prefix and noun, as in "policy: unknown policy"

	mu      sync.RWMutex
	entries map[string]entry[F]
}

type entry[F any] struct {
	f   F
	doc string
}

// New returns an empty registry whose messages read
// "<pkg>: duplicate registration of ..." and "<pkg>: unknown <kind> ...".
func New[F any](pkg, kind string) *Registry[F] {
	return &Registry[F]{pkg: pkg, kind: kind, entries: map[string]entry[F]{}}
}

// Register adds a factory under a unique name; a second registration of a
// name panics.
func (r *Registry[F]) Register(name, doc string, f F) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		panic(fmt.Sprintf("%s: duplicate registration of %q", r.pkg, name))
	}
	r.entries[name] = entry[F]{f: f, doc: doc}
}

// Lookup returns the factory registered under name, or an error naming
// every registered entry.
func (r *Registry[F]) Lookup(name string) (F, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return e.f, fmt.Errorf("%s: unknown %s %q (registered: %v)", r.pkg, r.kind, name, r.Names())
	}
	return e.f, nil
}

// Names lists the registered names, sorted.
func (r *Registry[F]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Infos lists the registered entries with their docs, sorted by name.
func (r *Registry[F]) Infos() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Info, 0, len(r.entries))
	for name, e := range r.entries {
		out = append(out, Info{Name: name, Doc: e.doc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
