// Package trial models one hyper-parameter trial as the orchestrator sees
// it: a job that advances in steps whose duration depends on the instance
// type it runs on (the performance matrix M of Algorithm 1), emits a
// validation-metric curve, and checkpoints/restores through object storage.
//
// Simulated campaigns use Replay trials: the metric trajectory is recorded
// once from a real pure-Go trainer (or synthesized) and replayed in virtual
// time, so EarlyCurve is evaluated against genuine training dynamics while
// multi-day campaigns finish in milliseconds.
package trial

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"spottune/internal/earlycurve"
	"spottune/internal/market"
)

// PerfModel is the ground-truth cost of one training step: seconds to run
// one step of trial hp on the given instance type. Implementations add
// step-level noise with a small coefficient of variation (the paper
// validates COV < 0.1 in §IV-A5).
type PerfModel interface {
	StepSeconds(it market.InstanceType, hpID string, step int) float64
}

// Replay is a trial whose metric curve is precomputed. It tracks fractional
// step progress so arbitrary time slices advance it deterministically.
type Replay struct {
	id       string
	maxSteps int
	curve    []earlycurve.MetricPoint // ground truth, steps ascending
	perf     PerfModel
	sizeMB   float64 // modeled checkpoint size

	progress float64 // fractional completed steps

	// cumSecs caches, per instance type, prefix sums of per-step seconds
	// (cum[k] = seconds for steps [0, k)). The perf model is a pure
	// function of (type, hp, step), so the cache never invalidates; it
	// turns SecondsToReach into O(1) after one O(maxSteps) build. A trial
	// runs on a handful of types, so a slice scan finds the entry.
	cumSecs []typeCum
	// cache, when set, replaces cumSecs with a cross-campaign store so
	// replays of the same (seed, benchmark) world share one curve build.
	cache *PerfCache
	// convergeAt caches ConvergeStep results per (window, tol) — the
	// observed prefix is a pure function of the fixed curve. Campaigns ask
	// one or two (window, tol) pairs, so a slice scan finds the entry.
	convergeAt []convEntry
	// lastDone/lastIdx memoize observed: lastIdx curve points lie at or
	// below lastDone completed steps (valid once lastOK).
	lastDone, lastIdx int
	lastOK            bool
}

// typeCum is one instance type's step-time prefix sums.
type typeCum struct {
	name string
	cum  []float64
}

type convKey struct {
	window int
	tol    float64
}

type convVal struct {
	step int
	ok   bool
}

type convEntry struct {
	key convKey
	val convVal
}

// NewReplay builds a replay trial. The curve must be non-empty, strictly
// increasing in step, and its last point must be at maxSteps (the true final
// metric).
func NewReplay(id string, maxSteps int, curve []earlycurve.MetricPoint, perf PerfModel, checkpointMB float64) (*Replay, error) {
	if len(curve) == 0 {
		return nil, fmt.Errorf("trial: %s has an empty curve", id)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Step <= curve[i-1].Step {
			return nil, fmt.Errorf("trial: %s curve not increasing at %d", id, i)
		}
	}
	if curve[len(curve)-1].Step != maxSteps {
		return nil, fmt.Errorf("trial: %s curve ends at step %d, want maxSteps %d",
			id, curve[len(curve)-1].Step, maxSteps)
	}
	if perf == nil {
		return nil, fmt.Errorf("trial: %s has no perf model", id)
	}
	if checkpointMB <= 0 {
		checkpointMB = 1
	}
	return &Replay{id: id, maxSteps: maxSteps, curve: curve, perf: perf, sizeMB: checkpointMB}, nil
}

// ID returns the trial identifier (the HP setting's ID).
func (r *Replay) ID() string { return r.id }

// MaxSteps returns max_trial_steps.
func (r *Replay) MaxSteps() int { return r.maxSteps }

// CheckpointMB returns the modeled checkpoint size.
func (r *Replay) CheckpointMB() float64 { return r.sizeMB }

// CompletedSteps returns whole completed steps.
func (r *Replay) CompletedSteps() int { return int(r.progress) }

// Progress returns fractional completed steps. Throughput accounting uses
// it so partially completed steps are attributed to the compute that ran
// them (whole-step counting over short slices biases seconds-per-step).
func (r *Replay) Progress() float64 { return r.progress }

// cumFor returns the per-step-seconds prefix sums for the given instance
// type (cum[k] = seconds for steps [0, k)), extended on demand: the slice
// grows until it covers uptoStep, or — when capSecs >= 0 — until the
// cumulative total passes capSecs. The perf model is a pure function of
// (type, hp, step), so entries never invalidate and every extension is paid
// for once per (trial, type) across the whole campaign.
//
// Each prefix is allocated once, at its full maxSteps+1 capacity, so
// extending it never reallocates.
func (r *Replay) cumFor(it market.InstanceType, uptoStep int, capSecs float64) []float64 {
	if uptoStep > r.maxSteps {
		uptoStep = r.maxSteps
	}
	var cum []float64
	slot := -1
	if r.cache != nil {
		cum = r.cache.cum[perfCacheKey{inst: it.Name, hp: r.id}]
	} else {
		for i := range r.cumSecs {
			if r.cumSecs[i].name == it.Name {
				slot, cum = i, r.cumSecs[i].cum
				break
			}
		}
	}
	if cum == nil {
		cum = make([]float64, 1, r.maxSteps+1)
	}
	for k := len(cum) - 1; k < uptoStep; k++ {
		if capSecs >= 0 && cum[k] > capSecs {
			break
		}
		sec := r.perf.StepSeconds(it, r.id, k)
		if sec <= 0 {
			sec = 1e-6
		}
		cum = append(cum, cum[k]+sec)
	}
	switch {
	case r.cache != nil:
		r.cache.cum[perfCacheKey{inst: it.Name, hp: r.id}] = cum
	case slot >= 0:
		r.cumSecs[slot].cum = cum
	default:
		r.cumSecs = append(r.cumSecs, typeCum{name: it.Name, cum: cum})
	}
	return cum
}

// PerfCache shares ground-truth step-time prefix sums across campaigns that
// replay the same (perf seed, benchmark) world — e.g. every tuner × policy
// cell of one scenario replicate, which would otherwise rebuild identical
// curves from scratch. The cache is owned by a single goroutine (one stream
// worker); Use resets it whenever the world changes, so memory stays bounded
// by one world's curves no matter how many cells flow through.
type PerfCache struct {
	seed  uint64
	bench string
	valid bool
	cum   map[perfCacheKey][]float64
}

type perfCacheKey struct {
	inst, hp string
}

// NewPerfCache returns an empty cache.
func NewPerfCache() *PerfCache {
	return &PerfCache{cum: map[perfCacheKey][]float64{}}
}

// Use readies the cache for campaigns replaying the given perf seed and
// benchmark, dropping every stored curve when either changes. Curves are
// pure functions of (seed, benchmark, instance, hp, step), so reuse under a
// matching key is bit-identical to a cold rebuild.
func (c *PerfCache) Use(seed uint64, bench string) {
	if c.valid && c.seed == seed && c.bench == bench {
		return
	}
	c.seed, c.bench, c.valid = seed, bench, true
	clear(c.cum)
}

// SharePerfCache routes this replay's step-time prefix sums through a
// cross-campaign cache instead of the private per-replay store. The caller
// must have pointed the cache at this replay's world via PerfCache.Use and
// must not share it across concurrent campaigns.
func (r *Replay) SharePerfCache(c *PerfCache) { r.cache = c }

// elapsedAt maps fractional progress to cumulative compute seconds on the
// cum scale (linear interpolation inside the current step).
func elapsedAt(cum []float64, p float64) float64 {
	cur := int(p)
	if cur >= len(cum)-1 {
		return cum[len(cum)-1]
	}
	return cum[cur] + (p-float64(cur))*(cum[cur+1]-cum[cur])
}

// RunFor advances the trial on the given instance for at most seconds of
// compute, stopping at stepLimit (or MaxSteps, whichever is lower). It
// returns the whole steps completed in this slice and the seconds actually
// consumed. The advance is a binary search over the cached prefix sums —
// O(log steps) per call after the one-time cum build — instead of a walk
// over every step in the slice.
func (r *Replay) RunFor(it market.InstanceType, seconds float64, stepLimit int) (steps int, used float64) {
	if stepLimit <= 0 || stepLimit > r.maxSteps {
		stepLimit = r.maxSteps
	}
	if seconds <= 0 || r.progress >= float64(stepLimit) {
		return 0, 0
	}
	startWhole := int(r.progress)
	cur := int(r.progress)
	cum := r.cumFor(it, cur+1, -1) // cover the in-flight step
	base := elapsedAt(cum, r.progress)
	target := base + seconds
	cum = r.cumFor(it, stepLimit, target) // extend only within the budget

	var p float64
	used = seconds
	if len(cum) > stepLimit && target > cum[stepLimit] {
		// The budget outruns the step limit: the trial finishes the slice
		// early. Decided against cum[stepLimit] rather than the built length,
		// so a prefix some earlier caller extended past the limit (a shared
		// PerfCache) clamps exactly like a cold one that stopped there.
		p = float64(stepLimit)
		used = cum[stepLimit] - base
	} else if i := sort.SearchFloat64s(cum, target); cum[i] == target {
		p = float64(i)
	} else if i == 0 {
		p = 0
	} else {
		p = float64(i-1) + (target-cum[i-1])/(cum[i]-cum[i-1])
	}
	// Snap progress sitting within float dust of a whole step onto it, so
	// splitting a time budget across slices completes the same steps as
	// spending it at once.
	if sn := math.Round(p); sn != p && math.Abs(p-sn) < 1e-9 {
		p = sn
	}
	if p < r.progress {
		p = r.progress
	}
	r.progress = p
	if used > seconds {
		used = seconds
	} else if used < 0 {
		used = 0
	}
	return int(r.progress) - startWhole, used
}

// SecondsToReach returns the compute seconds needed on the given instance
// to advance from the current progress to targetSteps whole steps, without
// mutating the trial. It sums the same per-step costs RunFor consumes, so
// RunFor(it, SecondsToReach(it, n), limit>=n) lands on step n (up to float
// dust, which RunFor snaps over). A target at or below current progress
// costs zero. Amortized O(1) via cached per-type prefix sums.
func (r *Replay) SecondsToReach(it market.InstanceType, targetSteps int) float64 {
	if targetSteps > r.maxSteps {
		targetSteps = r.maxSteps
	}
	if r.progress >= float64(targetSteps) {
		return 0
	}
	cum := r.cumFor(it, targetSteps, -1)
	return cum[targetSteps] - elapsedAt(cum, r.progress)
}

// SecondsToReachCapped is SecondsToReach with an early exit: it reports
// ok=false as soon as the needed time provably exceeds capSecs, building
// prefix sums only that far. Schedulers use it to ask "does this trial
// finish before its restart horizon?" without pricing the whole trajectory.
func (r *Replay) SecondsToReachCapped(it market.InstanceType, targetSteps int, capSecs float64) (secs float64, ok bool) {
	if targetSteps > r.maxSteps {
		targetSteps = r.maxSteps
	}
	if r.progress >= float64(targetSteps) {
		return 0, true
	}
	if capSecs < 0 {
		return 0, false
	}
	cur := int(r.progress)
	cum := r.cumFor(it, cur+1, -1)
	base := elapsedAt(cum, r.progress)
	cum = r.cumFor(it, targetSteps, base+capSecs)
	if len(cum)-1 < targetSteps {
		return 0, false // ran past the cap before reaching the target
	}
	need := cum[targetSteps] - base
	if need > capSecs {
		return 0, false
	}
	return need, true
}

// ConvergeStep returns the smallest whole-step count at which the observed
// metric prefix satisfies Converged(window, tol), and whether any prefix
// does. Because the observed prefix is a pure function of the completed step
// count, this is precomputable: an event-driven orchestrator can treat the
// convergence point as a step target instead of re-testing the curve on a
// poll grid. Results are memoized per (window, tol).
func (r *Replay) ConvergeStep(window int, tol float64) (int, bool) {
	key := convKey{window: window, tol: tol}
	for _, e := range r.convergeAt {
		if e.key == key {
			return e.val.step, e.val.ok
		}
	}
	v := convVal{}
	for i, p := range r.curve {
		if earlycurve.Converged(r.curve[:i+1], window, tol) {
			v = convVal{step: p.Step, ok: true}
			break
		}
	}
	r.convergeAt = append(r.convergeAt, convEntry{key: key, val: v})
	return v.step, v.ok
}

// Points returns the metric points observed so far (curve entries at or
// below the completed step count). The result is a read-only view of the
// replay's curve, which every replay of the same benchmark curves shares:
// its capacity is clipped to its length, so an append copies instead of
// writing into the curve. Allocation-free.
func (r *Replay) Points() []earlycurve.MetricPoint {
	n := r.observed()
	return r.curve[:n:n]
}

// LastPoint returns the most recent observed metric point (ok=false before
// the first observation). Allocation-free, like Points — the leaderboard
// accessor schedulers call on every deployment decision.
func (r *Replay) LastPoint() (earlycurve.MetricPoint, bool) {
	n := r.observed()
	if n == 0 {
		return earlycurve.MetricPoint{}, false
	}
	return r.curve[n-1], true
}

// observed returns how many curve points lie at or below the completed
// step count, memoized on that count. Forward progress scans on from the
// memoized index; a rewind (restore) searches.
func (r *Replay) observed() int {
	if done := r.CompletedSteps(); !r.lastOK || done != r.lastDone {
		i := r.lastIdx
		if r.lastOK && done > r.lastDone {
			for i < len(r.curve) && r.curve[i].Step <= done {
				i++
			}
		} else {
			i = sort.Search(len(r.curve), func(i int) bool { return r.curve[i].Step > done })
		}
		r.lastDone, r.lastIdx, r.lastOK = done, i, true
	}
	return r.lastIdx
}

// TrueFinal returns the ground-truth final metric (the curve's last value).
func (r *Replay) TrueFinal() float64 { return r.curve[len(r.curve)-1].Value }

// MetricAtOrBefore returns the last ground-truth metric at or before step,
// or ok=false when the curve has no point that early.
func (r *Replay) MetricAtOrBefore(step int) (float64, bool) {
	var (
		val   float64
		found bool
	)
	for _, p := range r.curve {
		if p.Step > step {
			break
		}
		val, found = p.Value, true
	}
	return val, found
}

// ckptMagic guards the checkpoint wire format: a version byte, the trial ID
// (uvarint length prefix), and the progress float bits. Campaigns write a
// checkpoint every hourly restart and revocation notice, so the codec is
// hand-rolled — gob re-encodes type metadata on every call, which dominated
// the simulator's per-segment cost.
const ckptMagic = 0x51

// appendCheckpoint serializes one (id, progress) pair in the wire format,
// appending to dst.
func appendCheckpoint(dst []byte, id string, progress float64) []byte {
	dst = append(dst, ckptMagic)
	dst = binary.AppendUvarint(dst, uint64(len(id)))
	dst = append(dst, id...)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(progress))
	return dst
}

// encodeCheckpoint serializes one (id, progress) pair into a fresh buffer.
func encodeCheckpoint(id string, progress float64) []byte {
	return appendCheckpoint(make([]byte, 0, 1+binary.MaxVarintLen64+len(id)+8), id, progress)
}

// DecodeCheckpoint parses a checkpoint blob without applying it: the trial
// ID it was written for and the serialized progress. Restore layers the
// trial-identity and range checks on top; invariant checkers use the raw
// decode to audit every blob in object storage against live trial state.
func DecodeCheckpoint(data []byte) (id string, progress float64, err error) {
	if len(data) < 2 || data[0] != ckptMagic {
		return "", 0, errors.New("trial: bad checkpoint header")
	}
	rest := data[1:]
	n, k := binary.Uvarint(rest)
	if k <= 0 {
		return "", 0, errors.New("trial: truncated checkpoint")
	}
	if k > 1 && rest[k-1] == 0 {
		// Reject non-minimal varints (0x80… padding): only our encoder
		// writes blobs, and accepting them would give one checkpoint many
		// byte representations (decode∘encode must be the identity).
		return "", 0, errors.New("trial: non-canonical checkpoint length")
	}
	rest = rest[k:]
	// Compare against the remaining length without adding to n, which a
	// malformed blob can place near 2^64 to overflow the bound check.
	if n > uint64(len(rest)) || uint64(len(rest))-n < 8 {
		return "", 0, errors.New("trial: truncated checkpoint")
	}
	if uint64(len(rest))-n > 8 {
		return "", 0, errors.New("trial: trailing bytes after checkpoint")
	}
	id = string(rest[:n])
	progress = math.Float64frombits(binary.BigEndian.Uint64(rest[n : n+8]))
	return id, progress, nil
}

// Checkpoint serializes progress (SpotTune checkpoints on revocation
// notices, hourly restarts, and early shutdowns).
func (r *Replay) Checkpoint() ([]byte, error) {
	return encodeCheckpoint(r.id, r.progress), nil
}

// AppendCheckpoint is Checkpoint in append form: the blob is written onto
// dst and the extended slice returned, so a caller that checkpoints every
// hourly restart and revocation can reuse one buffer for the whole campaign
// (the object store copies blobs on Put). Byte-identical to Checkpoint.
func (r *Replay) AppendCheckpoint(dst []byte) []byte {
	return appendCheckpoint(dst, r.id, r.progress)
}

// StepsBehind reports how many whole completed steps the trial's live state
// is ahead of the given checkpoint blob — the work a revocation would lose
// by rewinding to it (0 when the blob is current or ahead). The resilience
// harness uses it to audit that lost work never exceeds the active
// checkpoint cadence's step bound.
func (r *Replay) StepsBehind(data []byte) (int, error) {
	id, progress, err := DecodeCheckpoint(data)
	if err != nil {
		return 0, err
	}
	if id != r.id {
		return 0, fmt.Errorf("trial: checkpoint for %q audited against %q", id, r.id)
	}
	behind := r.CompletedSteps() - int(progress)
	if behind < 0 {
		behind = 0
	}
	return behind, nil
}

// Restore loads a Checkpoint blob. Progress can only move backward if the
// checkpoint is older than current state — which is exactly what happens
// when an instance dies without a checkpoint and the trial resumes from an
// earlier one.
func (r *Replay) Restore(data []byte) error {
	id, progress, err := DecodeCheckpoint(data)
	if err != nil {
		return fmt.Errorf("trial: decoding %s: %w", r.id, err)
	}
	if id != r.id {
		return fmt.Errorf("trial: checkpoint for %q restored into %q", id, r.id)
	}
	if progress < 0 || progress > float64(r.maxSteps) || math.IsNaN(progress) {
		return fmt.Errorf("trial: checkpoint progress %v out of range", progress)
	}
	r.progress = progress
	return nil
}

// Plateaued is the single authoritative convergence verdict for the
// currently observed prefix (§III-C's plateau special case): the memoized
// minimal-converging-prefix precheck (ConvergeStep), then the exact
// Converged test on the observed values. The precheck is sound — no prefix
// shorter than the minimal converging one can satisfy Converged — so this
// is the plain Converged verdict at amortized O(1) until the trial actually
// reaches its plateau step. Every consumer of "has this trial converged
// right now?" (the orchestrator's round executor, the tuner-visible
// TrialStatus) goes through here, so schedulers and tuners can never
// observe disagreeing plateau verdicts for the same trial state.
func (r *Replay) Plateaued(window int, tol float64) bool {
	cs, ok := r.ConvergeStep(window, tol)
	if !ok || r.CompletedSteps() < cs {
		return false
	}
	return r.Converged(window, tol)
}

// Converged reports whether the observed curve has plateaued (the special
// case of §III-C: stop a trial that converges before θ·max_trial_steps).
// Exact but O(curve); callers on hot paths should use Plateaued, which
// prechecks via the memoized ConvergeStep before paying for this.
func (r *Replay) Converged(window int, tol float64) bool {
	return earlycurve.Converged(r.Points(), window, tol)
}

// NoisyPerf is a PerfModel with deterministic per-(instance, hp, step)
// multiplicative noise around a base model, keeping COV small (<0.1) as the
// paper measures.
type NoisyPerf struct {
	// Base returns noise-free seconds per step.
	Base func(it market.InstanceType, hpID string) float64
	// COV is the coefficient of variation of the noise (e.g. 0.05).
	COV float64
	// Seed decorrelates campaigns.
	Seed uint64

	// lastInst/lastHP memoize the step-invariant parts of the last
	// (instance, hp) pair scored: the base seconds and the hash prefix over
	// the identifying strings. Callers walk steps of one pair at a time
	// (Replay.cumFor), so a single entry removes the per-step base model
	// call and half the string hashing. One campaign owns one NoisyPerf on
	// one goroutine, so the memo needs no locking.
	lastInst, lastHP string
	lastBase         float64
	lastPre          uint64
}

var _ PerfModel = (*NoisyPerf)(nil)

// StepSeconds implements PerfModel.
func (n *NoisyPerf) StepSeconds(it market.InstanceType, hpID string, step int) float64 {
	if n.COV <= 0 {
		return n.Base(it, hpID)
	}
	if it.Name != n.lastInst || hpID != n.lastHP {
		n.lastInst, n.lastHP = it.Name, hpID
		n.lastBase = n.Base(it, hpID)
		n.lastPre = fnvPrefix(n.Seed, it.Name, hpID)
	}
	z := hashGaussPre(n.lastPre, it.Name, hpID, step)
	f := 1 + n.COV*z
	if f < 0.5 {
		f = 0.5
	}
	return n.lastBase * f
}

// hashGauss maps the tuple to a deterministic standard-normal-ish value via
// a Box–Muller transform over two hash-derived uniforms.
func hashGauss(seed uint64, inst, hp string, step int) float64 {
	return hashGaussPre(fnvPrefix(seed, inst, hp), inst, hp, step)
}

// hashGaussPre is hashGauss with the (seed, inst, hp) hash prefix already
// mixed — bit-identical, since FNV folds bytes strictly left to right.
func hashGaussPre(pre uint64, inst, hp string, step int) float64 {
	h := fnvTail(pre, uint64(step))
	u1 := float64(h>>11) / float64(1<<53)
	h2 := fnv64(h, hp, inst, uint64(step)*2654435761)
	u2 := float64(h2>>11) / float64(1<<53)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func fnv64(seed uint64, a, b string, c uint64) uint64 {
	return fnvTail(fnvPrefix(seed, a, b), c)
}

// fnvPrefix folds the two strings into the seeded FNV-1a state.
func fnvPrefix(seed uint64, a, b string) uint64 {
	h := uint64(1469598103934665603) ^ seed
	for i := 0; i < len(a); i++ {
		h ^= uint64(a[i])
		h *= 1099511628211
	}
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

// fnvTail folds the 8 little-endian bytes of c into the running state.
func fnvTail(h, c uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(c >> (8 * i)))
		h *= 1099511628211
	}
	return h
}
