// Package market models public-cloud spot markets: the instance catalog
// (Table III of the paper), spot price traces, the 1-minute interpolation
// preprocessing (§IV-A1), a seeded synthetic trace generator standing in for
// the Kaggle "AWS Spot Pricing Market" dataset, the six engineered features
// RevPred consumes (§III-B), and the Algorithm 2 maximum-price generator.
package market

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// DefaultAZ is the availability zone assumed for instance types that do not
// declare one. A single-zone catalog behaves exactly like the pre-catalog
// flat table: every type shares the zone, so zone decorrelation is a no-op.
const DefaultAZ = "zone-a"

// InstanceType describes one purchasable VM type and its reliable-tier price.
//
// Family, AZ, PerfFactor, and Capacity are catalog metadata used by
// diversified provisioning: zero values are normalized by NewCatalog (family
// derived from the name, DefaultAZ, performance factor 1, unlimited
// capacity), so flat name→price tables keep working unchanged.
type InstanceType struct {
	Name          string  // e.g. "r3.xlarge"
	CPUs          int     // virtual cores
	MemoryGB      float64 // RAM in GiB
	OnDemandPrice float64 // USD per hour for the on-demand (reliable) tier

	// Family is the hardware generation the type belongs to ("r4", "m4").
	// Capacity crunches correlate within a family — the same underlying
	// host pools back every size — so diversified fleets spread across
	// families. Empty is normalized to the name's prefix before the first
	// '.' (the whole name when there is no dot).
	Family string
	// AZ is the availability zone the market lives in. Empty is normalized
	// to DefaultAZ.
	AZ string
	// PerfFactor is the relative per-core performance of the family's
	// hardware (1 = the reference generation). It scales modeled step
	// times: an 8-core type at factor 1.25 outruns an 8-core type at
	// factor 1. Zero is normalized to 1; negative or non-finite values are
	// rejected.
	PerfFactor float64
	// Capacity caps simultaneously running spot instances of this type in
	// the simulated region (0 = unlimited). Requests beyond it fail with
	// the same retriable capacity error as a blackout window.
	Capacity int
}

// perfFactor is PerfFactor with the zero-value default applied, for types
// constructed outside a catalog (tests, ad-hoc literals).
func (it InstanceType) perfFactor() float64 {
	if it.PerfFactor == 0 {
		return 1
	}
	return it.PerfFactor
}

// EffectiveCPUs is the type's modeled compute throughput: cores scaled by
// the family's per-core performance factor.
func (it InstanceType) EffectiveCPUs() float64 {
	return float64(it.CPUs) * it.perfFactor()
}

// AtLeastAsPowerful reports whether this type can stand in for base without
// slowing the campaign down or running out of room: at least as many cores,
// at least as much memory, and at least the same effective compute (cores ×
// performance factor). Every type is at least as powerful as itself.
func (it InstanceType) AtLeastAsPowerful(base InstanceType) bool {
	return it.CPUs >= base.CPUs &&
		it.MemoryGB >= base.MemoryGB &&
		it.EffectiveCPUs() >= base.EffectiveCPUs()
}

// FamilyOf derives the family from an instance-type name: the prefix before
// the first '.' ("r4.xlarge" → "r4"), or the whole name when there is none.
// A name starting with '.' has no usable prefix (found by FuzzCatalog) and
// falls back to the whole name too — families are never empty. It is the
// rule NewCatalog applies when an InstanceType leaves Family zero, exported
// so catalog-less policy paths derive the same families.
func FamilyOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// Catalog is an immutable set of instance types keyed by name.
type Catalog struct {
	types []InstanceType
	byKey map[string]int
	// names holds the type names in index order, for Index's scan.
	names []string
}

// NewCatalog builds a catalog from the given types, normalizing metadata
// zero values (family from the name, DefaultAZ, performance factor 1).
// Duplicate names, non-positive shapes or prices, and invalid performance
// factors or capacities are errors.
func NewCatalog(types []InstanceType) (*Catalog, error) {
	c := &Catalog{byKey: make(map[string]int, len(types))}
	for _, it := range types {
		if it.Name == "" {
			return nil, fmt.Errorf("market: instance type with empty name")
		}
		if it.CPUs <= 0 || !(it.OnDemandPrice > 0) || math.IsInf(it.OnDemandPrice, 0) {
			return nil, fmt.Errorf("market: instance %q has non-positive CPUs or price", it.Name)
		}
		if !(it.MemoryGB > 0) || math.IsInf(it.MemoryGB, 0) {
			return nil, fmt.Errorf("market: instance %q has non-positive memory", it.Name)
		}
		if it.PerfFactor < 0 || math.IsNaN(it.PerfFactor) || math.IsInf(it.PerfFactor, 0) {
			return nil, fmt.Errorf("market: instance %q has invalid performance factor %v", it.Name, it.PerfFactor)
		}
		if it.Capacity < 0 {
			return nil, fmt.Errorf("market: instance %q has negative capacity %d", it.Name, it.Capacity)
		}
		if _, dup := c.byKey[it.Name]; dup {
			return nil, fmt.Errorf("market: duplicate instance type %q", it.Name)
		}
		if it.Family == "" {
			it.Family = FamilyOf(it.Name)
		}
		if it.AZ == "" {
			it.AZ = DefaultAZ
		}
		if it.PerfFactor == 0 {
			it.PerfFactor = 1
		}
		c.byKey[it.Name] = len(c.types)
		c.types = append(c.types, it)
		c.names = append(c.names, it.Name)
	}
	return c, nil
}

// MustNewCatalog is NewCatalog that panics on error, for static tables.
func MustNewCatalog(types []InstanceType) *Catalog {
	c, err := NewCatalog(types)
	if err != nil {
		panic(err)
	}
	return c
}

// Lookup returns the instance type with the given name.
func (c *Catalog) Lookup(name string) (InstanceType, bool) {
	i, ok := c.byKey[name]
	if !ok {
		return InstanceType{}, false
	}
	return c.types[i], true
}

// Index resolves a type name to its dense catalog index in [0, Len()), the
// key of every catalog-indexed table (cluster markets, capacity counters,
// performance priors). Indices follow construction order and never change.
//
// It scans the names, so it is linear in the catalog's size. Every catalog
// the program builds has the default's six types, and a caller's name
// usually shares its bytes with the catalog's (pools are built from catalog
// names), so each compare stops at the length or the pointer: about half a
// map lookup's time there, a third less for names with bytes of their own.
func (c *Catalog) Index(name string) (int, bool) {
	for i, n := range c.names {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// TypeAt returns the instance type at a catalog index from Index.
func (c *Catalog) TypeAt(i int) InstanceType { return c.types[i] }

// Types returns all instance types sorted by name (a fresh copy).
func (c *Catalog) Types() []InstanceType {
	out := append([]InstanceType(nil), c.types...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns all instance-type names sorted alphabetically.
func (c *Catalog) Names() []string {
	ts := c.Types()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}

// Len returns the number of instance types.
func (c *Catalog) Len() int { return len(c.types) }

// Families returns the distinct instance families in the catalog, sorted
// alphabetically.
func (c *Catalog) Families() []string {
	seen := map[string]bool{}
	var out []string
	for _, it := range c.types {
		if !seen[it.Family] {
			seen[it.Family] = true
			out = append(out, it.Family)
		}
	}
	sort.Strings(out)
	return out
}

// Compatible returns every catalog type at least as powerful as base (always
// including base itself when it is in the catalog), sorted by name so every
// consumer iterates candidates in the same deterministic order.
func (c *Catalog) Compatible(base InstanceType) []InstanceType {
	var out []InstanceType
	for _, it := range c.Types() {
		if it.AtLeastAsPowerful(base) {
			out = append(out, it)
		}
	}
	return out
}

// CompatibleWith resolves a base type by name and returns the names of every
// compatible catalog type, sorted. Unknown base names are an error — a
// compatibility constraint against a type that does not exist is a
// configuration bug, not an empty result.
func (c *Catalog) CompatibleWith(baseName string) ([]string, error) {
	base, ok := c.Lookup(baseName)
	if !ok {
		return nil, fmt.Errorf("market: unknown base instance type %q", baseName)
	}
	var out []string
	for _, it := range c.Compatible(base) {
		out = append(out, it.Name)
	}
	return out, nil
}

// WithCapacity returns a copy of the catalog whose every type's spot
// Capacity is set to n (n <= 0 returns an identical copy). The default
// catalog is uncapped — this is how a multi-tenant service turns it into a
// finite region whose co-resident fleets actually contend for room. Types
// that already declare a tighter cap keep it.
func (c *Catalog) WithCapacity(n int) *Catalog {
	types := make([]InstanceType, len(c.types))
	copy(types, c.types)
	if n > 0 {
		for i := range types {
			if types[i].Capacity == 0 || types[i].Capacity > n {
				types[i].Capacity = n
			}
		}
	}
	return MustNewCatalog(types)
}

// DefaultCatalog reproduces Table III: the six-instance experimental pool,
// annotated with the family/zone layout diversified fleets spread across.
// Every performance factor is 1 — the catalog metadata changes no modeled
// step time for the paper's pool.
func DefaultCatalog() *Catalog {
	return MustNewCatalog([]InstanceType{
		{Name: "r4.large", CPUs: 2, MemoryGB: 15.25, OnDemandPrice: 0.133, Family: "r4", AZ: "zone-a", PerfFactor: 1},
		{Name: "r3.xlarge", CPUs: 4, MemoryGB: 30, OnDemandPrice: 0.33, Family: "r3", AZ: "zone-a", PerfFactor: 1},
		{Name: "r4.xlarge", CPUs: 4, MemoryGB: 30.5, OnDemandPrice: 0.266, Family: "r4", AZ: "zone-b", PerfFactor: 1},
		{Name: "m4.2xlarge", CPUs: 8, MemoryGB: 32, OnDemandPrice: 0.4, Family: "m4", AZ: "zone-a", PerfFactor: 1},
		{Name: "r4.2xlarge", CPUs: 8, MemoryGB: 61, OnDemandPrice: 0.532, Family: "r4", AZ: "zone-c", PerfFactor: 1},
		{Name: "m4.4xlarge", CPUs: 16, MemoryGB: 64, OnDemandPrice: 0.8, Family: "m4", AZ: "zone-b", PerfFactor: 1},
	})
}
