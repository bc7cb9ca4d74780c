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
	"slices"
	"sort"
	"time"

	"spottune/internal/earlycurve"
	"spottune/internal/market"
)

// PerfModel is the ground-truth cost of training steps. Implementations add
// step-level noise with a small coefficient of variation (the paper
// validates COV < 0.1 in §IV-A5).
type PerfModel interface {
	// Steps returns trial hpID's step times on the given instance type.
	// Replay asks once per (trial, type) pair, when it first prices a step
	// there, so a model can resolve names to keys here.
	Steps(it market.InstanceType, hpID string) StepTimes
}

// StepTimes is one (trial, type) pair's ground truth: the duration of
// (zero-based) step k, a pure function of k.
type StepTimes func(k int) time.Duration

// Replay is a trial whose metric curve is precomputed. It tracks fractional
// step progress so arbitrary time slices advance it deterministically.
type Replay struct {
	id       string
	maxSteps int
	curve    []earlycurve.MetricPoint // ground truth, steps ascending
	perf     PerfModel
	sizeMB   float64 // modeled checkpoint size

	progress float64 // fractional completed steps

	// prefixes caches, per instance type, exact sums of step times from
	// the step where the trial first ran there (see prefix). A trial runs
	// on a handful of types, so a slice scan finds the entry.
	prefixes []prefix
	// convergeAt caches ConvergeStep results per (window, tol) — the
	// observed prefix is a pure function of the fixed curve. Campaigns ask
	// one or two (window, tol) pairs, so a slice scan finds the entry.
	convergeAt []convEntry
	// lastDone/lastIdx memoize observed: lastIdx curve points lie at or
	// below lastDone completed steps (valid once lastOK).
	lastDone, lastIdx int
	lastOK            bool
}

// prefix is one instance type's step-time prefix sums for one trial:
// cum[j] is the time of steps [start, start+j), so cum[0] = 0. The sums are
// exact int64 nanoseconds, and every answer Replay derives from a prefix
// is a difference of two of them, or a float taken on such a difference.
// So no answer depends on where the prefix starts or how far it was built,
// and a prefix may start wherever the trial is when it first needs it.
type prefix struct {
	name  string
	steps StepTimes
	start int
	cum   []int64
}

// end is the first step the prefix has not drawn.
func (p *prefix) end() int { return p.start + len(p.cum) - 1 }

// at is the prefix sum up to step k, for start ≤ k ≤ end.
func (p *prefix) at(k int) int64 { return p.cum[k-p.start] }

// extend draws steps until the prefix covers upto or its last sum passes
// limit. A step takes at least 1 ns, so the sums strictly increase.
func (p *prefix) extend(upto int, limit int64) {
	last := p.cum[len(p.cum)-1]
	for k := p.end(); k < upto && last <= limit; k++ {
		last += max(int64(p.steps(k)), 1)
		p.cum = append(p.cum, last)
	}
}

// prefixFor returns the trial's prefix on it, made to cover the in-flight
// step cur (cur < maxSteps). A new prefix starts at cur. One whose drawn
// steps all lie behind cur restarts there, so no step behind the trial's
// progress is ever drawn; one that starts after cur (a Restore rewound the
// trial) is extended backward, keeping the steps it holds ahead of cur.
// Prefixes are allocated at the capacity they can ever need from their
// start, so extending one forward never reallocates.
func (r *Replay) prefixFor(it market.InstanceType, cur int) *prefix {
	var p *prefix
	for i := range r.prefixes {
		if r.prefixes[i].name == it.Name {
			p = &r.prefixes[i]
			break
		}
	}
	switch {
	case p == nil:
		if r.prefixes == nil {
			r.prefixes = make([]prefix, 0, 4) // a trial runs on a handful of types
		}
		r.prefixes = append(r.prefixes, prefix{
			name:  it.Name,
			steps: r.perf.Steps(it, r.id),
			start: cur,
			cum:   make([]int64, 1, r.maxSteps-cur+1),
		})
		p = &r.prefixes[len(r.prefixes)-1]
	case cur > p.end():
		p.start, p.cum = cur, p.cum[:1]
	case cur < p.start:
		cum := make([]int64, p.start-cur+1, r.maxSteps-cur+1)
		for k := cur; k < p.start; k++ {
			cum[k-cur+1] = cum[k-cur] + max(int64(p.steps(k)), 1)
		}
		shift := cum[len(cum)-1]
		for _, c := range p.cum[1:] {
			cum = append(cum, shift+c)
		}
		p.start, p.cum = cur, cum
	}
	p.extend(cur+1, math.MaxInt64)
	return p
}

// position returns the trial's prefix on it and where the trial stands on
// that prefix's scale: the sum up to the current whole step plus the time
// already spent inside it, the fractional progress times that step's
// duration, rounded to the nanosecond. RunFor writes a fraction as such a
// time over the step's duration, so the rounding recovers it exactly
// unless the trial has run on the order of 2^52 ns (52 days) of steps.
func (r *Replay) position(it market.InstanceType) (*prefix, int64) {
	cur := int(r.progress)
	p := r.prefixFor(it, cur)
	at := p.at(cur)
	if frac := r.progress - float64(cur); frac > 0 {
		at += int64(math.Round(frac * float64(p.at(cur+1)-at)))
	}
	return p, at
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

// plus is base + d, saturating at the largest int64 rather than wrapping.
func plus(base int64, d time.Duration) int64 {
	if int64(d) > math.MaxInt64-base {
		return math.MaxInt64
	}
	return base + int64(d)
}

// RunFor advances the trial on the given instance for at most budget of
// compute, stopping at stepLimit (or MaxSteps, whichever is lower). It
// returns the whole steps completed in this slice and the time actually
// consumed. The advance is a binary search over the type's prefix sums,
// drawn only as far as the budget reaches. The slice's end is an integer
// nanosecond on the prefix, so a budget split across slices ends on the
// same progress as spent at once, and a slice that ends on a step boundary
// leaves the progress on that whole step.
func (r *Replay) RunFor(it market.InstanceType, budget time.Duration, stepLimit int) (steps int, used time.Duration) {
	if stepLimit <= 0 || stepLimit > r.maxSteps {
		stepLimit = r.maxSteps
	}
	if budget <= 0 || r.progress >= float64(stepLimit) {
		return 0, 0
	}
	startWhole := int(r.progress)
	pf, base := r.position(it)
	target := plus(base, budget)
	pf.extend(stepLimit, target)

	var p float64
	used = budget
	if pf.end() >= stepLimit && pf.at(stepLimit) <= target {
		// The budget reaches the step limit: the trial finishes the slice
		// there, early unless it lands on the limit exactly.
		p = float64(stepLimit)
		used = time.Duration(pf.at(stepLimit) - base)
	} else {
		// The sums strictly increase and cum[startWhole] ≤ base < target,
		// so one j has cum[j] ≤ target < cum[j+1]: step start+j is in
		// flight, or complete when the sum equals the target.
		lo, hi := startWhole-pf.start, min(pf.end(), stepLimit)-pf.start
		j, exact := slices.BinarySearch(pf.cum[lo:hi+1], target)
		if j += lo; exact {
			p = float64(pf.start + j)
		} else {
			j--
			p = float64(pf.start+j) + float64(target-pf.cum[j])/float64(pf.cum[j+1]-pf.cum[j])
		}
	}
	if p < r.progress {
		p = r.progress
	}
	r.progress = p
	return int(r.progress) - startWhole, used
}

// TimeToReach returns the compute time needed on the given instance to
// advance from the current progress to targetSteps whole steps, without
// mutating the trial: RunFor(it, need, limit ≥ targetSteps) lands on
// targetSteps exactly. A target at or below current progress costs zero.
// It reports ok=false as soon as the need provably exceeds limit, drawing
// steps only that far: schedulers use it to ask "does this trial finish
// before its restart horizon?" without pricing the whole trajectory.
func (r *Replay) TimeToReach(it market.InstanceType, targetSteps int, limit time.Duration) (need time.Duration, ok bool) {
	if targetSteps > r.maxSteps {
		targetSteps = r.maxSteps
	}
	if r.progress >= float64(targetSteps) {
		return 0, true
	}
	if limit < 0 {
		return 0, false
	}
	pf, base := r.position(it)
	pf.extend(targetSteps, plus(base, limit))
	if pf.end() < targetSteps {
		return 0, false // ran past the limit before reaching the target
	}
	if d := pf.at(targetSteps) - base; d <= int64(limit) {
		return time.Duration(d), true
	}
	return 0, false
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

// AppendCheckpoint serializes progress (SpotTune checkpoints on revocation
// notices, hourly restarts, and early shutdowns): the blob is written onto
// dst and the extended slice returned, so a caller that checkpoints every
// hourly restart and revocation can reuse one buffer for the whole campaign
// (the object store copies blobs on PutSized).
func (r *Replay) AppendCheckpoint(dst []byte) []byte {
	return appendCheckpoint(dst, r.id, r.progress)
}

// Restore loads an AppendCheckpoint blob. Progress can only move backward if the
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
