package market

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"
)

// A regime is a named market personality: a reproducible way of turning a
// catalog into a full TraceSet whose qualitative behavior stresses one
// corner of provisioning-policy design. The paper replays one us-east-1-like
// region; the scenario engine (internal/scenario) sweeps policies across
// every regime here, so the regime set is the scenario axis's market
// vocabulary.
//
// All regimes are deterministic: the same (name, catalog, window, seed)
// always yields bit-identical traces.

// RegimeInfo describes one named regime for help text and study labels.
type RegimeInfo struct {
	Name string
	Doc  string
}

// regimeBuilder turns the default spec set into the regime's traces.
type regimeBuilder func(c *Catalog, specs []MarketSpec, from, to time.Time, seed uint64) (TraceSet, error)

type regime struct {
	doc   string
	build regimeBuilder
}

// regimes is the static regime table. Adding an entry makes the regime
// available to every scenario spec and CLI by name.
var regimes = map[string]regime{
	"baseline": {
		doc: "the paper's replayed us-east-1 market personalities (Fig. 1)",
		build: func(c *Catalog, specs []MarketSpec, from, to time.Time, seed uint64) (TraceSet, error) {
			return GenerateSet(specs, from, to, seed)
		},
	},
	"calm": {
		doc:   "sparse small spikes, low volatility: spot is almost reliable",
		build: buildScaled(0.15, 0.5, 0.6, 0),
	},
	"volatile": {
		doc:   "dense tall spikes, doubled volatility: near-market bids rarely survive the hour",
		build: buildScaled(2.0, 2.0, 1.4, 0),
	},
	"diurnal": {
		doc:   "maximal workday/working-hour seasonality: markets breathe on a 24h cycle",
		build: buildScaled(1.5, 1.0, 1.0, 1.0),
	},
	"flash-crash": {
		doc:   "calm market punctuated by region-wide price detonations (correlated mass revocation)",
		build: buildFlashCrash,
	},
	"inversion": {
		doc:   "a sustained window where every spot price exceeds on-demand (spot is a trap)",
		build: buildInversion,
	},
	"crunch": {
		doc:   "capacity crunch: elevated bases plus frequent correlated cross-market spikes",
		build: buildCrunch,
	},
	"family-crunch": {
		doc:   "cross-family crunch: whole instance families crash together at staggered instants while other families stay calm",
		build: buildFamilyCrunch,
	},
}

// RegimeNames lists the available regimes, sorted.
func RegimeNames() []string {
	out := make([]string, 0, len(regimes))
	for name := range regimes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RegimeInfos lists regimes with their one-line docs, sorted by name.
func RegimeInfos() []RegimeInfo {
	out := make([]RegimeInfo, 0, len(regimes))
	for name, r := range regimes {
		out = append(out, RegimeInfo{Name: name, Doc: r.doc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// GenerateRegime builds the named regime's traces for every catalog type
// over [from, to). The empty name selects "baseline".
func GenerateRegime(name string, c *Catalog, from, to time.Time, seed uint64) (TraceSet, error) {
	if name == "" {
		name = "baseline"
	}
	r, ok := regimes[name]
	if !ok {
		return nil, fmt.Errorf("market: unknown regime %q (available: %v)", name, RegimeNames())
	}
	specs, err := DefaultSpecs(c)
	if err != nil {
		return nil, err
	}
	return r.build(c, specs, from, to, seed)
}

// buildScaled derives a regime by scaling the default personalities:
// spike density, OU volatility, spike amplitude, and (when seasonality > 0)
// a forced seasonality level.
func buildScaled(spikes, vol, scale, seasonality float64) regimeBuilder {
	return func(c *Catalog, specs []MarketSpec, from, to time.Time, seed uint64) (TraceSet, error) {
		out := make([]MarketSpec, len(specs))
		for i, s := range specs {
			s.SpikesPerDay *= spikes
			s.Volatility *= vol
			s.SpikeScale *= scale
			if seasonality > 0 {
				s.Seasonality = seasonality
			}
			out[i] = s
		}
		return GenerateSet(out, from, to, seed)
	}
}

// regimeRNG derives the regime-level event stream (shared spikes, inversion
// windows) from the run seed, independent of the per-market price streams.
func regimeRNG(seed uint64, tag uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0xc0ffee^tag))
}

// buildFlashCrash is a calm region hit by region-wide price detonations:
// one shared spike roughly every other day, tall enough (≥8x base) to clear
// every plausible maximum price, with a sharp attack and fast decay. Every
// market crashes at the same instants — the correlated mass-revocation event
// AutoSpotting-style fallback policies are designed around.
func buildFlashCrash(c *Catalog, specs []MarketSpec, from, to time.Time, seed uint64) (TraceSet, error) {
	calm := make([]MarketSpec, len(specs))
	for i, s := range specs {
		s.SpikesPerDay *= 0.15
		s.Volatility *= 0.5
		s.SpikeScale *= 0.6
		calm[i] = s
	}
	rng := regimeRNG(seed, 0xf1a5)
	days := int(to.Sub(from).Hours() / 24)
	n := days / 2
	if n < 1 {
		n = 1
	}
	shared := make([]SharedSpike, 0, n)
	span := to.Sub(from)
	for i := 0; i < n; i++ {
		// Spread events across the window with jitter so one always lands
		// inside the campaign split regardless of train-day configuration.
		frac := (float64(i) + 0.3 + 0.6*rng.Float64()) / float64(n)
		shared = append(shared, SharedSpike{
			At:        from.Add(time.Duration(frac * float64(span))).Truncate(time.Minute),
			Attack:    time.Duration(2+rng.IntN(3)) * time.Minute,
			HalfLife:  time.Duration(4+rng.IntN(5)) * time.Minute,
			Amplitude: 8 + 4*rng.Float64(),
		})
	}
	return GenerateSetShared(calm, from, to, seed, shared)
}

// buildCrunch is a sustained capacity crunch: every market's calm base is
// elevated, volatility is doubled, and frequent correlated spikes (several
// per day, minutes-to-tens-of-minutes long) ripple across all markets at
// once. Unlike flash-crash the pressure never fully releases.
func buildCrunch(c *Catalog, specs []MarketSpec, from, to time.Time, seed uint64) (TraceSet, error) {
	tight := make([]MarketSpec, len(specs))
	for i, s := range specs {
		s.BaseFraction *= 1.6
		s.Volatility *= 2
		tight[i] = s
	}
	rng := regimeRNG(seed, 0xc7c4)
	days := to.Sub(from).Hours() / 24
	n := int(days * 6)
	if n < 2 {
		n = 2
	}
	shared := make([]SharedSpike, 0, n)
	span := to.Sub(from)
	for i := 0; i < n; i++ {
		frac := (float64(i) + rng.Float64()) / float64(n)
		shared = append(shared, SharedSpike{
			At:        from.Add(time.Duration(frac * float64(span))).Truncate(time.Minute),
			Attack:    time.Duration(3+rng.IntN(6)) * time.Minute,
			HalfLife:  time.Duration(8+rng.IntN(18)) * time.Minute,
			Amplitude: 3 + 3*rng.Float64(),
		})
	}
	return GenerateSetShared(tight, from, to, seed, shared)
}

// buildFamilyCrunch is the cross-family capacity crunch: a calm region where
// every instance family periodically crashes as a unit — tall family-scoped
// spike trains (7-10x base, tens of minutes) hit each family's markets at the
// same instant while the other families keep trading calmly. Within a family
// failure is perfectly correlated (the same host pools back every size), so
// market-granular exclusion buys nothing; across families the crash slots are
// staggered, so a fleet that hops families after a revocation escapes the
// rest of the train. This is the regime diversified-spot's family
// decorrelation is judged on.
func buildFamilyCrunch(c *Catalog, specs []MarketSpec, from, to time.Time, seed uint64) (TraceSet, error) {
	calm := make([]MarketSpec, len(specs))
	for i, s := range specs {
		s.SpikesPerDay *= 0.3
		s.Volatility *= 0.7
		calm[i] = s
	}
	fams := c.Families()
	rng := regimeRNG(seed, 0xfc21)
	days := int(to.Sub(from).Hours() / 24)
	perFam := days
	if perFam < 2 {
		perFam = 2
	}
	span := to.Sub(from)
	shared := make([]SharedSpike, 0, perFam*len(fams))
	for fi, fam := range fams {
		for i := 0; i < perFam; i++ {
			// Each family owns one jittered slot per cycle, so family
			// crunches are staggered rather than coincident: frac stays
			// strictly inside [i/perFam, (i+1)/perFam).
			frac := (float64(i) + (float64(fi)+0.2+0.6*rng.Float64())/float64(len(fams))) / float64(perFam)
			shared = append(shared, SharedSpike{
				At:        from.Add(time.Duration(frac * float64(span))).Truncate(time.Minute),
				Attack:    time.Duration(2+rng.IntN(4)) * time.Minute,
				HalfLife:  time.Duration(10+rng.IntN(15)) * time.Minute,
				Amplitude: 7 + 3*rng.Float64(),
				Family:    fam,
			})
		}
	}
	return GenerateSetShared(calm, from, to, seed, shared)
}

// buildInversion superimposes a sustained price inversion on the calm
// regime: for one seeded half-day window, every market's spot price is
// pinned above its on-demand quote (DeepVM's motivating pathology — renting
// "discount" capacity at a premium). Policies that never compare against the
// reliable tier keep paying it.
func buildInversion(c *Catalog, specs []MarketSpec, from, to time.Time, seed uint64) (TraceSet, error) {
	calm := make([]MarketSpec, len(specs))
	for i, s := range specs {
		s.SpikesPerDay *= 0.3
		s.Volatility *= 0.7
		calm[i] = s
	}
	set, err := GenerateSet(calm, from, to, seed)
	if err != nil {
		return nil, err
	}
	start, end := InversionWindow(from, to, seed)
	for _, it := range c.Types() {
		tr := set[it.Name]
		raisePriceWindow(tr, start, end, 1.15*it.OnDemandPrice)
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	return set, nil
}

// InversionWindow reports the deterministic inversion window the "inversion"
// regime uses for the given generation parameters — tests and scenario
// builders use it to place probes inside the inverted span. The start draws
// from the last ~third of the span (fraction 0.62–0.92 of the latest
// feasible start), which keeps the whole window inside the campaign side of
// the standard train/test splits for every seed: ≥ day 8.3 of a 14/8 full
// run and ≥ day 2.7 of a 5/2 quick run. A window that fell inside the
// predictor-training days would leave the campaign replaying plain calm
// prices — an inversion scenario that stresses nothing.
func InversionWindow(from, to time.Time, seed uint64) (start, end time.Time) {
	span := to.Sub(from)
	winLen := 12 * time.Hour
	if winLen > span/2 {
		winLen = span / 2
	}
	rng := regimeRNG(seed, 0x1274)
	latest := span - winLen
	start = from.Add(time.Duration((0.62 + 0.30*rng.Float64()) * float64(latest))).Truncate(time.Minute)
	return start, start.Add(winLen)
}

// raisePriceWindow rewrites tr so that the effective price over [start, end)
// is at least floor, leaving the step function elsewhere untouched: a record
// at start lifts the held price onto the floor, in-window records are
// clamped up, and a record at end restores the price that would otherwise
// have been in effect. The floor is rounded onto the micro-dollar grid
// first, as the generator rounds every price.
func raisePriceWindow(tr *Trace, start, end time.Time, floor float64) {
	floor = onGrid(floor)
	atStart, _ := tr.PriceAt(start)
	atEnd, _ := tr.PriceAt(end) // pre-rewrite price effective at end
	var out []Record
	startDone, endDone := false, false
	emit := func(r Record) {
		if len(out) > 0 && !out[len(out)-1].At.Before(r.At) {
			// Collapse ties keeping the later write (window edges win).
			out[len(out)-1] = r
			return
		}
		out = append(out, r)
	}
	for _, r := range tr.Records {
		switch {
		case r.At.Before(start):
			emit(r)
		case r.At.Before(end):
			if !startDone {
				emit(Record{At: start, Price: max(atStart, floor)})
				startDone = true
			}
			emit(Record{At: r.At, Price: max(r.Price, floor)})
		default:
			if !startDone {
				emit(Record{At: start, Price: max(atStart, floor)})
				startDone = true
			}
			if !endDone {
				emit(Record{At: end, Price: atEnd})
				endDone = true
			}
			emit(r)
		}
	}
	if !startDone {
		emit(Record{At: start, Price: max(atStart, floor)})
	}
	if !endDone {
		emit(Record{At: end, Price: atEnd})
	}
	tr.Records = out
}
