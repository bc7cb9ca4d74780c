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

// Replay is one campaign's run of a trial whose metric curve is
// precomputed. What the curve alone fixes lives in its Template, shared with
// every other replay of the curve; a Replay holds only the campaign's own
// state. It tracks fractional step progress so arbitrary time slices
// advance it deterministically.
type Replay struct {
	tpl  *Template
	perf PerfModel

	progress float64 // fractional completed steps

	// pf is the trial's one step-time prefix, on the type it last priced
	// a step on; a switch to another type redraws it there (see prefixFor),
	// reusing its buffer. steps holds each type's draws, fetched from perf
	// once per type the trial runs on: the first few inline, the rest in
	// more.
	pf    prefix
	steps [4]typeSteps
	more  []typeSteps
	// conv is the template's verdict table for the (window, tol) last
	// asked: campaigns ask one pair, so one comparison finds it.
	conv *convTable
	// lastDone/lastIdx memoize observed: lastIdx curve points lie at or
	// below lastDone completed steps (valid once lastOK).
	lastDone, lastIdx int
	lastOK            bool
}

// typeSteps is one instance type's step times for the trial.
type typeSteps struct {
	name  string
	steps StepTimes
}

// prefix is one instance type's step-time prefix sums for one trial:
// cum[j] is the time of steps [start, start+j), so cum[0] = 0. The sums are
// exact int64 nanoseconds, and every answer Replay derives from a prefix
// is a difference of two of them, or a float taken on such a difference.
// So no answer depends on where the prefix starts, how far it was built, or
// whether it was drawn before: a step time is a pure function of (trial,
// type, step), so a redraw is the same bits, and a prefix may start
// wherever the trial is when it needs one.
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

// stepsOn returns the trial's step times on it, asking the perf model the
// first time the trial prices a step there.
func (r *Replay) stepsOn(it market.InstanceType) StepTimes {
	for i := range r.steps {
		switch e := &r.steps[i]; {
		case e.steps == nil:
			e.name, e.steps = it.Name, r.perf.Steps(it, r.tpl.id)
			return e.steps
		case e.name == it.Name:
			return e.steps
		}
	}
	for _, e := range r.more {
		if e.name == it.Name {
			return e.steps
		}
	}
	s := r.perf.Steps(it, r.tpl.id)
	r.more = append(r.more, typeSteps{name: it.Name, steps: s})
	return s
}

// prefixFor returns the trial's prefix on it, made to cover the in-flight
// step cur (cur < maxSteps). A prefix on another type, or one whose drawn
// steps all lie behind cur, restarts at cur on it, so no step behind the
// trial's progress is ever drawn; one that starts after cur (a Restore
// rewound the trial) is extended backward in place, keeping the steps it
// holds ahead of cur. The buffer holds every step from 0 to maxSteps, so
// neither ever reallocates.
func (r *Replay) prefixFor(it market.InstanceType, cur int) *prefix {
	p := &r.pf
	switch {
	case p.steps == nil || p.name != it.Name:
		p.name, p.steps, p.start, p.cum = it.Name, r.stepsOn(it), cur, p.cum[:1]
	case cur > p.end():
		p.start, p.cum = cur, p.cum[:1]
	case cur < p.start:
		shift, n := p.start-cur, len(p.cum)
		p.cum = p.cum[:n+shift]
		copy(p.cum[shift:], p.cum[:n])
		for k := cur; k < p.start; k++ {
			p.cum[k-cur+1] = p.cum[k-cur] + max(int64(p.steps(k)), 1)
		}
		for j, front := shift+1, p.cum[shift]; j < n+shift; j++ {
			p.cum[j] += front
		}
		p.start = cur
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

// NewReplay builds a replay trial on a template of its own. The curve must
// be non-empty, strictly increasing in step, and its last point must be at
// maxSteps (the true final metric). Campaigns that replay one curve many
// times share its template instead (Replays).
func NewReplay(id string, maxSteps int, curve []earlycurve.MetricPoint, perf PerfModel, checkpointMB float64) (*Replay, error) {
	tpl, err := NewTemplate(id, maxSteps, curve, checkpointMB)
	if err != nil {
		return nil, err
	}
	rs, err := Replays([]*Template{tpl}, perf)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// Replays starts one campaign's replay of each template, all on perf: the
// replays in one slab, their step-time prefix buffers in another.
func Replays(tpls []*Template, perf PerfModel) ([]*Replay, error) {
	if perf == nil {
		return nil, errors.New("trial: no perf model")
	}
	n := 0
	for _, t := range tpls {
		n += t.maxSteps + 1
	}
	cums := make([]int64, n)
	slab := make([]Replay, len(tpls))
	out := make([]*Replay, len(tpls))
	for i, t := range tpls {
		slab[i] = Replay{tpl: t, perf: perf}
		slab[i].pf.cum, cums = cums[:1:t.maxSteps+1], cums[t.maxSteps+1:]
		out[i] = &slab[i]
	}
	return out, nil
}

// ID returns the trial identifier (the HP setting's ID).
func (r *Replay) ID() string { return r.tpl.id }

// MaxSteps returns max_trial_steps.
func (r *Replay) MaxSteps() int { return r.tpl.maxSteps }

// CheckpointMB returns the modeled checkpoint size.
func (r *Replay) CheckpointMB() float64 { return r.tpl.sizeMB }

// CheckpointKey is the object-store key of the trial's checkpoint.
func (r *Replay) CheckpointKey() string { return r.tpl.ckptKey }

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
	if stepLimit <= 0 || stepLimit > r.tpl.maxSteps {
		stepLimit = r.tpl.maxSteps
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
	if targetSteps > r.tpl.maxSteps {
		targetSteps = r.tpl.maxSteps
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
// poll grid. The template computes it once per (window, tol) for every
// replay of the curve.
func (r *Replay) ConvergeStep(window int, tol float64) (int, bool) {
	c := r.convergence(window, tol)
	return c.step, c.ok
}

// convergence is the template's verdict table for (window, tol), through
// the replay's one-entry cache.
func (r *Replay) convergence(window int, tol float64) *convTable {
	if c := r.conv; c != nil && c.window == window && c.tol == tol {
		return c
	}
	r.conv = r.tpl.convergence(window, tol)
	return r.conv
}

// Points returns the metric points observed so far (curve entries at or
// below the completed step count). The result is a read-only view of the
// replay's curve, which every replay of the same benchmark curves shares:
// its capacity is clipped to its length, so an append copies instead of
// writing into the curve. Allocation-free.
func (r *Replay) Points() []earlycurve.MetricPoint {
	n := r.observed()
	return r.tpl.curve[:n:n]
}

// LastPoint returns the most recent observed metric point (ok=false before
// the first observation). Allocation-free, like Points — the leaderboard
// accessor schedulers call on every deployment decision.
func (r *Replay) LastPoint() (earlycurve.MetricPoint, bool) {
	n := r.observed()
	if n == 0 {
		return earlycurve.MetricPoint{}, false
	}
	return r.tpl.curve[n-1], true
}

// observed returns how many curve points lie at or below the completed
// step count, memoized on that count. Forward progress scans on from the
// memoized index; a rewind (restore) searches.
func (r *Replay) observed() int {
	if done := r.CompletedSteps(); !r.lastOK || done != r.lastDone {
		curve, i := r.tpl.curve, r.lastIdx
		if r.lastOK && done > r.lastDone {
			for i < len(curve) && curve[i].Step <= done {
				i++
			}
		} else {
			i = sort.Search(len(curve), func(i int) bool { return curve[i].Step > done })
		}
		r.lastDone, r.lastIdx, r.lastOK = done, i, true
	}
	return r.lastIdx
}

// TrueFinal returns the ground-truth final metric (the curve's last value).
func (r *Replay) TrueFinal() float64 { return r.tpl.curve[len(r.tpl.curve)-1].Value }

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
	raw, progress, err := decodeCheckpoint(data)
	return string(raw), progress, err
}

// decodeCheckpoint is DecodeCheckpoint with the ID left in place: a view
// of data's bytes, so a restore checks it without allocating.
func decodeCheckpoint(data []byte) (id []byte, progress float64, err error) {
	if len(data) < 2 || data[0] != ckptMagic {
		return nil, 0, errors.New("trial: bad checkpoint header")
	}
	rest := data[1:]
	n, k := binary.Uvarint(rest)
	if k <= 0 {
		return nil, 0, errors.New("trial: truncated checkpoint")
	}
	if k > 1 && rest[k-1] == 0 {
		// Reject non-minimal varints (0x80… padding): only our encoder
		// writes blobs, and accepting them would give one checkpoint many
		// byte representations (decode∘encode must be the identity).
		return nil, 0, errors.New("trial: non-canonical checkpoint length")
	}
	rest = rest[k:]
	// Compare against the remaining length without adding to n, which a
	// malformed blob can place near 2^64 to overflow the bound check.
	if n > uint64(len(rest)) || uint64(len(rest))-n < 8 {
		return nil, 0, errors.New("trial: truncated checkpoint")
	}
	if uint64(len(rest))-n > 8 {
		return nil, 0, errors.New("trial: trailing bytes after checkpoint")
	}
	id = rest[:n:n]
	progress = math.Float64frombits(binary.BigEndian.Uint64(rest[n : n+8]))
	return id, progress, nil
}

// AppendCheckpoint serializes progress (SpotTune checkpoints on revocation
// notices, hourly restarts, and early shutdowns): the blob is written onto
// dst and the extended slice returned, so a caller that checkpoints every
// hourly restart and revocation can reuse one buffer for the whole campaign
// (the object store copies blobs on PutSized).
func (r *Replay) AppendCheckpoint(dst []byte) []byte {
	return appendCheckpoint(dst, r.tpl.id, r.progress)
}

// Restore loads an AppendCheckpoint blob. Progress can only move backward if the
// checkpoint is older than current state — which is exactly what happens
// when an instance dies without a checkpoint and the trial resumes from an
// earlier one. The blob is only read, during the call, so it may be a view
// of the store's copy.
func (r *Replay) Restore(data []byte) error {
	id, progress, err := decodeCheckpoint(data)
	if err != nil {
		return fmt.Errorf("trial: decoding %s: %w", r.tpl.id, err)
	}
	if string(id) != r.tpl.id {
		return fmt.Errorf("trial: checkpoint for %q restored into %q", id, r.tpl.id)
	}
	if progress < 0 || progress > float64(r.tpl.maxSteps) || math.IsNaN(progress) {
		return fmt.Errorf("trial: checkpoint progress %v out of range", progress)
	}
	r.progress = progress
	return nil
}

// Plateaued is the single authoritative convergence verdict for the
// currently observed prefix (§III-C's plateau special case): whether the
// observed curve has plateaued, earlycurve.Converged(Points(), window, tol),
// read from the template's verdict table for the observed point count.
// Every consumer of "has this trial converged right now?" (the
// orchestrator's round executor, the tuner-visible TrialStatus) goes
// through here, so schedulers and tuners can never observe disagreeing
// plateau verdicts for the same trial state.
func (r *Replay) Plateaued(window int, tol float64) bool {
	return r.convergence(window, tol).plateau[r.observed()]
}

// Trend returns the trial's trend predictor over inner: EarlyCurve
// predictions over a prefix view of this trial's curve (what Points
// returns) come from the template's memo, shared by every campaign that
// replays the curve; everything else goes to inner.
func (r *Replay) Trend(inner earlycurve.TrendPredictor) Trend {
	return Trend{tpl: r.tpl, inner: inner}
}
