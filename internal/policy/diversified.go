package policy

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"

	"spottune/internal/market"
	"spottune/internal/obs"
)

// DiversifiedSpotName is the registry name of the catalog-aware fleet policy.
const DiversifiedSpotName = "diversified-spot"

// Allocation strategy names for the diversified-spot policy.
const (
	// AllocLowestPrice scores candidates by expected dollar cost per step
	// alone (trailing-hour average price × seconds per step) — the EC2
	// fleet "lowest-price" strategy.
	AllocLowestPrice = "lowest-price"
	// AllocCapacityOptimized additionally penalizes markets by their
	// observed revocation rate — a lightweight capacity-optimized strategy
	// scored from recent revocation exposure rather than a provider-side
	// capacity oracle.
	AllocCapacityOptimized = "capacity-optimized"
)

// AllocationNames lists the diversified-spot allocation strategies, sorted.
func AllocationNames() []string {
	return []string{AllocCapacityOptimized, AllocLowestPrice}
}

func init() {
	Register(DiversifiedSpotName,
		"diversified fleet: compatibility-constrained candidates spread across de-correlated families, lowest-price or capacity-optimized allocation",
		newDiversifiedSpot)
}

// diversifiedSpot spreads a campaign's deployments across de-correlated
// instance families. Candidates are the pool narrowed (when a catalog and
// base type are configured) to types at least as powerful as the base; each
// decision avoids the families the resilience layer excluded and the family
// that most recently revoked the trial — but only while an alternative
// outside those families exists, so a homogeneous pool degrades to plain
// lowest-cost selection rather than failing.
type diversifiedSpot struct {
	candidates Pool     // sorted; iteration order pins lexicographic ties
	families   []string // each candidate's family
	allocation string
	revProb    []RevProbFunc // each candidate's predictor
	rng        *rand.Rand
}

func newDiversifiedSpot(p Params) (Policy, error) {
	alloc := p.Allocation
	if alloc == "" {
		alloc = AllocLowestPrice
	}
	if alloc != AllocLowestPrice && alloc != AllocCapacityOptimized {
		return nil, fmt.Errorf("policy: unknown allocation strategy %q (available: %v)", p.Allocation, AllocationNames())
	}
	cands := append([]string(nil), p.Pool...)
	sort.Strings(cands)
	if p.BaseType != "" {
		if p.Catalog == nil {
			return nil, errors.New("policy: base-type compatibility constraint requires a catalog")
		}
		compat, err := p.Catalog.CompatibleWith(p.BaseType)
		if err != nil {
			return nil, err
		}
		ok := make(map[string]bool, len(compat))
		for _, n := range compat {
			ok[n] = true
		}
		kept := cands[:0]
		for _, n := range cands {
			if ok[n] {
				kept = append(kept, n)
			}
		}
		if len(kept) == 0 {
			return nil, fmt.Errorf("policy: no pool member is compatible with base type %q", p.BaseType)
		}
		cands = kept
	}
	fams := make([]string, len(cands))
	for k, n := range cands {
		if p.Catalog != nil {
			if it, ok := p.Catalog.Lookup(n); ok {
				fams[k] = it.Family
				continue
			}
		}
		fams[k] = market.FamilyOf(n)
	}
	return &diversifiedSpot{
		candidates: newPool(cands),
		families:   fams,
		allocation: alloc,
		revProb:    resolveRevProb(p.RevProb, cands),
		rng:        newRNG(p.Seed),
	}, nil
}

func (d *diversifiedSpot) Name() string { return DiversifiedSpotName }

// familySet is a decision's avoid-set: at most two families.
type familySet struct {
	fams [2]string
	n    int
}

func (s *familySet) add(fam string) { s.fams[s.n], s.n = fam, s.n+1 }

func (s *familySet) has(fam string) bool { return slices.Contains(s.fams[:s.n], fam) }

// avoidedFamilies is the per-decision family avoid-set: the resilience
// layer's explicit exclusion plus — while the trial's spot-failure streak is
// alive — the family that last revoked it.
func (d *diversifiedSpot) avoidedFamilies(t TrialInfo) familySet {
	var avoid familySet
	if t.ExcludeFamily != "" {
		avoid.add(t.ExcludeFamily)
	}
	if t.SpotFailures > 0 && t.LastRevoked != "" {
		avoid.add(d.familyOf(t.LastRevoked))
	}
	return avoid
}

// familyOf is a type's family: a candidate's resolved family, else the one
// its name implies.
func (d *diversifiedSpot) familyOf(name string) string {
	names := d.candidates.names
	if k := sort.SearchStrings(names, name); k < len(names) && names[k] == name {
		return d.families[k]
	}
	return market.FamilyOf(name)
}

// Decide scores every candidate by the active allocation strategy and picks
// the minimum, preferring candidates outside the avoided families whenever
// one exists. Exactly one bid delta is drawn per candidate per call, in
// sorted-name order, whether or not the candidate survives the filters —
// the same stream-alignment contract bestSpot keeps — and ties break toward
// the lexicographically smaller name (strict < over sorted iteration).
func (d *diversifiedSpot) Decide(ctx Context) (Request, error) {
	now := ctx.Market.Now()
	q := d.candidates.on(ctx.Market)
	exclude := ctx.Trial.Exclude
	if len(d.candidates.names) < 2 {
		exclude = ""
	}
	avoid := d.avoidedFamilies(ctx.Trial)

	// best ranks all non-excluded candidates; bestDiv only those outside the
	// avoided families. When bestDiv exists the fleet decorrelates; when the
	// avoid-set covers every candidate, best is the graceful fallback.
	best, bestK := Request{StepCost: math.Inf(1)}, -1
	bestDiv := Request{StepCost: math.Inf(1)}
	divCount := 0
	for k, name := range d.candidates.names {
		cur, err := q.currentPrice(k)
		if err != nil {
			return Request{}, err
		}
		delta := deltaLow + d.rng.Float64()*(deltaHigh-deltaLow)
		if name == exclude {
			continue
		}
		maxPrice := cur + delta
		prob := clampProb(d.revProb[k](now, maxPrice))
		avg, err := q.avgPriceLastHour(k)
		if err != nil {
			return Request{}, err
		}
		score := ctx.SecPerStep(name) * avg
		if d.allocation == AllocCapacityOptimized && ctx.RevRate != nil {
			if rate := ctx.RevRate(name); rate > 0 {
				score *= 1 + rate
			}
		}
		req := Request{
			TypeName: name,
			MaxPrice: maxPrice,
			RevProb:  prob,
			AvgPrice: avg,
			StepCost: score,
		}
		if score < best.StepCost {
			best, bestK = req, k
		}
		if !avoid.has(d.families[k]) {
			divCount++
			if score < bestDiv.StepCost {
				bestDiv = req
			}
		}
	}
	if math.IsInf(best.StepCost, 1) {
		return Request{}, errNoViable
	}
	if math.IsInf(bestDiv.StepCost, 1) {
		// Every candidate sits in an avoided family: nothing to diversify
		// toward, so the constraint does not bind.
		return best, nil
	}
	if bestDiv.TypeName != best.TypeName && ctx.Tracer != nil {
		ctx.Tracer.Emit(obs.Event{
			Kind:  obs.KindDiversify,
			VT:    now,
			Trial: ctx.Trial.ID,
			Type:  bestDiv.TypeName,
			Label: d.families[bestK],
			A:     bestDiv.StepCost,
			N:     int64(divCount),
		})
	}
	return bestDiv, nil
}
