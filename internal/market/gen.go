package market

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// MarketSpec parameterizes the synthetic price process of one spot market.
//
// The generator stands in for the Kaggle AWS spot-price dataset the paper
// uses (us-east-1, 2017-04-26 → 2017-05-08). It reproduces the dataset's
// qualitative structure, which is exactly what RevPred's six features key
// on: a mean-reverting base price far below on-demand, bursty spikes that
// can exceed the on-demand price (Fig. 1), volatility regimes that persist
// for hours, and workday/hour-of-day seasonality.
type MarketSpec struct {
	Type InstanceType

	// BaseFraction sets the calm-market price as a fraction of the
	// on-demand price (AWS spot discounts are 70-80%, so ~0.2-0.3).
	BaseFraction float64
	// Volatility is the per-minute OU noise scale relative to base price.
	Volatility float64
	// Reversion is the per-minute mean-reversion rate of the OU base.
	Reversion float64
	// SpikesPerDay is the average number of demand spikes per day in the
	// calm regime; the volatile regime triples it.
	SpikesPerDay float64
	// SpikeScale is the mean spike amplitude as a multiple of base price;
	// large values push spikes above on-demand like Fig. 1.
	SpikeScale float64
	// RegimeSwitchPerDay is the expected number of calm<->volatile regime
	// flips per day.
	RegimeSwitchPerDay float64
	// Seasonality in [0,1] scales how strongly workday/working-hour
	// demand modulates spike arrivals (0 = none).
	Seasonality float64
	// QuantumUSD is the price quantization step; a new record is emitted
	// only when the quantized price changes, which recreates the sparse
	// record layout of the real dataset.
	QuantumUSD float64
}

func (s MarketSpec) withDefaults() MarketSpec {
	if s.BaseFraction <= 0 {
		s.BaseFraction = 0.25
	}
	if s.Volatility <= 0 {
		s.Volatility = 0.015
	}
	if s.Reversion <= 0 {
		s.Reversion = 0.05
	}
	if s.SpikesPerDay <= 0 {
		s.SpikesPerDay = 4
	}
	if s.SpikeScale <= 0 {
		s.SpikeScale = 1.5
	}
	if s.RegimeSwitchPerDay <= 0 {
		s.RegimeSwitchPerDay = 3
	}
	if s.Seasonality < 0 || s.Seasonality > 1 {
		s.Seasonality = 0.6
	}
	if s.QuantumUSD <= 0 {
		s.QuantumUSD = 0.0001
	}
	return s
}

// DefaultSpecs assigns each Table III instance a market personality:
// r3.xlarge is the spiky market of Fig. 1; the r4 family is calm; the m4
// family sits in between. Values are hand-tuned so that aggressive
// near-market bidding is revoked within the hour reasonably often, which is
// the regime SpotTune's refund farming exploits.
func DefaultSpecs(c *Catalog) ([]MarketSpec, error) {
	// The 2017 Kaggle dataset's markets are extremely volatile (the
	// paper's Fig. 1 shows r3.xlarge spiking to 10x its base price
	// repeatedly): near-market bids are overtaken within the hour more
	// often than not, which is the regime where refund farming pays off
	// (the paper attributes 77.5% of steps to refunded instances).
	// Frequent short spikes reproduce that while keeping time-average
	// prices well below on-demand.
	tuning := map[string]MarketSpec{
		"r4.large":   {BaseFraction: 0.22, Volatility: 0.012, SpikesPerDay: 22, SpikeScale: 2.6, Seasonality: 0.5},
		"r3.xlarge":  {BaseFraction: 0.18, Volatility: 0.030, SpikesPerDay: 34, SpikeScale: 3.6, Seasonality: 0.8},
		"r4.xlarge":  {BaseFraction: 0.21, Volatility: 0.014, SpikesPerDay: 24, SpikeScale: 2.6, Seasonality: 0.5},
		"m4.2xlarge": {BaseFraction: 0.20, Volatility: 0.022, SpikesPerDay: 28, SpikeScale: 3.0, Seasonality: 0.7},
		"r4.2xlarge": {BaseFraction: 0.21, Volatility: 0.016, SpikesPerDay: 24, SpikeScale: 2.8, Seasonality: 0.6},
		"m4.4xlarge": {BaseFraction: 0.19, Volatility: 0.024, SpikesPerDay: 30, SpikeScale: 3.2, Seasonality: 0.7},
	}
	specs := make([]MarketSpec, 0, c.Len())
	for _, it := range c.Types() {
		spec, ok := tuning[it.Name]
		if !ok {
			spec = MarketSpec{}
		}
		spec.Type = it
		specs = append(specs, spec.withDefaults())
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("market: empty catalog")
	}
	return specs, nil
}

// spike is one in-flight demand burst with a linear attack and exponential
// decay envelope, giving the LSTM a short predictive on-ramp.
type spike struct {
	start     time.Time
	attack    time.Duration // ramp-up length
	halfLife  time.Duration // decay half-life after the peak
	amplitude float64       // peak multiple of base price
}

func (sp *spike) envelope(t time.Time) float64 {
	dt := t.Sub(sp.start)
	if dt < 0 {
		return 0
	}
	if dt <= sp.attack {
		return sp.amplitude * float64(dt) / float64(sp.attack)
	}
	decay := float64(dt-sp.attack) / float64(sp.halfLife)
	return sp.amplitude * math.Exp2(-decay)
}

func (sp *spike) dead(t time.Time) bool {
	return t.Sub(sp.start) > sp.attack+8*sp.halfLife
}

// SharedSpike is one cross-market demand event: a burst injected at the
// same instant into every market of a correlated generation run, scaled by
// each market's own base price. Capacity crunches and flash reclaims hit
// whole regions at once — independent per-market spike processes cannot
// express that correlation, and it is exactly what doom-window fallback
// policies are judged on.
type SharedSpike struct {
	At        time.Time
	Attack    time.Duration // ramp-up length
	HalfLife  time.Duration // decay half-life after the peak
	Amplitude float64       // peak multiple of each market's base price
	// Family scopes the event to one instance family: only markets whose
	// type belongs to it receive the burst. Empty (the zero value) keeps
	// the original region-wide semantics — every market crashes together.
	// Cross-family crunches are built from several family-scoped events at
	// de-correlated instants.
	Family string
}

// Generate synthesizes the spot-price trace of one market over [from, to)
// at 1-minute resolution, emitting records only on quantized price changes
// (sparse, like the real dataset). The same seed always yields the same
// trace.
func Generate(spec MarketSpec, from, to time.Time, seed uint64) (*Trace, error) {
	return generate(spec, from, to, seed, nil)
}

// generate is Generate plus an optional list of shared cross-market spikes
// superimposed on the market's own independent spike process.
func generate(spec MarketSpec, from, to time.Time, seed uint64, shared []SharedSpike) (*Trace, error) {
	spec = spec.withDefaults()
	if spec.Type.Name == "" || spec.Type.OnDemandPrice <= 0 {
		return nil, fmt.Errorf("market: Generate needs a valid instance type, got %+v", spec.Type)
	}
	if !from.Before(to) {
		return nil, fmt.Errorf("market: Generate with from %v >= to %v", from, to)
	}
	rng := rand.New(rand.NewPCG(seed, hashName(spec.Type.Name)))

	base := spec.Type.OnDemandPrice * spec.BaseFraction
	price := base * (1 + 0.1*rng.NormFloat64()*spec.Volatility/0.015)
	volatile := rng.Float64() < 0.3

	var (
		spikes  []*spike
		tr      = &Trace{Type: spec.Type.Name}
		lastRec = -1.0
	)
	pSwitch := spec.RegimeSwitchPerDay / (24 * 60)
	// Shared cross-market events enter as pre-seeded spikes: same envelope
	// machinery, correlated start instants. Family-scoped events only reach
	// markets of their family; the filter consumes no randomness, so adding
	// scoped events for other families never perturbs this market's stream.
	fam := spec.Type.Family
	if fam == "" {
		fam = FamilyOf(spec.Type.Name)
	}
	pending := make([]SharedSpike, 0, len(shared))
	for _, ev := range shared {
		if ev.Family == "" || ev.Family == fam {
			pending = append(pending, ev)
		}
	}

	for t := from; t.Before(to); t = t.Add(time.Minute) {
		for len(pending) > 0 && !pending[0].At.After(t) {
			ev := pending[0]
			pending = pending[1:]
			spikes = append(spikes, &spike{
				start:     ev.At,
				attack:    ev.Attack,
				halfLife:  ev.HalfLife,
				amplitude: ev.Amplitude,
			})
		}
		// Regime flips cluster volatility in time.
		if rng.Float64() < pSwitch {
			volatile = !volatile
		}
		// Seasonal demand: workdays and working hours spawn more spikes.
		season := 1.0
		if spec.Seasonality > 0 {
			s := 0.5
			if isWorkday(t) {
				s += 0.5
			}
			h := float64(t.Hour())
			// Smooth bump peaking at 14:00.
			s += 0.8 * math.Exp(-((h-14)*(h-14))/30)
			season = 1 + spec.Seasonality*(s-1)
		}
		lambda := spec.SpikesPerDay / (24 * 60) * season
		if volatile {
			lambda *= 3
		}
		if rng.Float64() < lambda {
			amp := spec.SpikeScale * (0.4 + rng.ExpFloat64())
			spikes = append(spikes, &spike{
				start:     t,
				attack:    time.Duration(2+rng.IntN(8)) * time.Minute,
				halfLife:  time.Duration(3+rng.IntN(10)) * time.Minute,
				amplitude: amp,
			})
		}
		// OU base step.
		sigma := spec.Volatility
		if volatile {
			sigma *= 2.5
		}
		price += spec.Reversion*(base-price) + sigma*base*rng.NormFloat64()
		if floor := 0.3 * base; price < floor {
			price = floor
		}
		// Superimpose spike envelopes.
		env := 0.0
		live := spikes[:0]
		for _, sp := range spikes {
			if sp.dead(t) {
				continue
			}
			env += sp.envelope(t)
			live = append(live, sp)
		}
		spikes = live

		p := quantize(price*(1+env), spec.QuantumUSD)
		if p != lastRec {
			tr.Records = append(tr.Records, Record{At: t, Price: p})
			lastRec = p
		}
	}
	if len(tr.Records) == 0 {
		tr.Records = append(tr.Records, Record{At: from, Price: quantize(price, spec.QuantumUSD)})
	}
	return tr, nil
}

// GenerateSet builds traces for every spec over [from, to); the per-market
// seeds are derived from the shared seed so the whole region is reproducible
// from one number.
func GenerateSet(specs []MarketSpec, from, to time.Time, seed uint64) (TraceSet, error) {
	return GenerateSetShared(specs, from, to, seed, nil)
}

// GenerateSetShared is GenerateSet with correlated cross-market events: each
// shared spike is injected into every market at the same instant (scaled by
// that market's base price), on top of the markets' independent processes.
// Events must fall inside [from, to).
func GenerateSetShared(specs []MarketSpec, from, to time.Time, seed uint64, shared []SharedSpike) (TraceSet, error) {
	shared = append([]SharedSpike(nil), shared...)
	sort.Slice(shared, func(i, j int) bool { return shared[i].At.Before(shared[j].At) })
	for _, ev := range shared {
		if ev.At.Before(from) || !ev.At.Before(to) {
			return nil, fmt.Errorf("market: shared spike at %v outside [%v, %v)", ev.At, from, to)
		}
		if ev.Attack <= 0 || ev.HalfLife <= 0 || ev.Amplitude <= 0 {
			return nil, fmt.Errorf("market: shared spike %+v needs positive attack, half-life, and amplitude", ev)
		}
		if ev.Family != "" {
			found := false
			for _, spec := range specs {
				fam := spec.Type.Family
				if fam == "" {
					fam = FamilyOf(spec.Type.Name)
				}
				if fam == ev.Family {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("market: shared spike scoped to unknown family %q", ev.Family)
			}
		}
	}
	set := make(TraceSet, len(specs))
	for _, spec := range specs {
		tr, err := generate(spec, from, to, seed, shared)
		if err != nil {
			return nil, fmt.Errorf("market: generating %q: %w", spec.Type.Name, err)
		}
		set[spec.Type.Name] = tr
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	return set, nil
}

// quantize rounds a price to the quantum, then onto the micro-dollar grid.
func quantize(p, quantum float64) float64 {
	return onGrid(math.Round(p/quantum) * quantum)
}

// onGrid rounds a price to the nearest whole micro-dollar, the grid
// Trace.Validate requires. It also clears the float dust quantum steps
// leave, so equal prices compare equal.
func onGrid(p float64) float64 { return math.Round(p*microPerUSD) / microPerUSD }

func isWorkday(t time.Time) bool {
	wd := t.Weekday()
	return wd != time.Saturday && wd != time.Sunday
}

// hashName gives each market an independent deterministic stream.
func hashName(name string) uint64 {
	var h uint64 = 1469598103934665603 // FNV offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}
