package search

import "fmt"

func init() {
	Register(HalvingName,
		"successive halving: geometric rung budgets, keep the top 1/η per rung (heavy checkpoint churn)",
		func(p Params) (Tuner, error) { return &halving{sha: sha{eta: p.Eta}}, nil })
}

// rungCount is the number of successive-halving rungs needed to cut n
// candidates down to at most η by keeping ceil(m/η) per rung: 1 for n ≤ η,
// growing logarithmically. It is also the bracket count hyperband derives
// its schedule diversity from.
func rungCount(n, eta int) int {
	k := 1
	for m := n; m > eta; m = ceilDiv(m, eta) {
		k++
	}
	return k
}

// rungLimit is the absolute step budget of rung `rung` out of `rungs`:
// maxSteps/η^(rungs-1-rung), clamped to [1, maxSteps]. The final rung always
// trains to full steps; each earlier rung divides by another factor of η.
func rungLimit(maxSteps, eta, rung, rungs int) int {
	div := 1
	for i := rung; i < rungs-1; i++ {
		div *= eta
	}
	l := maxSteps / div
	if l < 1 {
		l = 1
	}
	if l > maxSteps {
		l = maxSteps
	}
	return l
}

// sha is one successive-halving run over a fixed candidate set: rung r
// trains the survivors to rungLimit(r) steps, then the worst (η−1)/η are
// eliminated by last observed metric. Survivor cuts happen between rounds,
// so each elimination sees the rung's full observations. Reused by both the
// standalone successive-halving tuner and each hyperband bracket.
type sha struct {
	eta     int
	rung    int
	rungs   int // 0 until start; hyperband pre-sets it per bracket
	started bool
	// issued marks that the current rung's round was handed out (or skipped
	// as settled), so the next call applies its elimination and advances.
	issued bool

	survivors []string
	// pendingElim accumulates trials cut since the last emitted round; the
	// next round (including the final ok=false one) carries them out as
	// Round.Eliminated.
	pendingElim []string
}

// start initializes the run over ids, deriving the rung count when the
// caller (the standalone tuner) did not pin one.
func (h *sha) start(ids []string) {
	h.started = true
	h.survivors = append([]string(nil), ids...)
	if h.rungs <= 0 {
		h.rungs = rungCount(len(ids), h.eta)
	}
}

// cut eliminates down to the top ceil(len/η) survivors by last observed
// value (unobserved trials rank last; exact ties break by trial ID). Cut
// trials queue on pendingElim in survivor order.
func (h *sha) cut(s State) {
	keep := keepTop(s, h.survivors, ceilDiv(len(h.survivors), h.eta))
	kept := make(map[string]bool, len(keep))
	for _, id := range keep {
		kept[id] = true
	}
	for _, id := range h.survivors {
		if !kept[id] {
			h.pendingElim = append(h.pendingElim, id)
		}
	}
	h.survivors = keep
}

// takeElim drains the pending eliminations.
func (h *sha) takeElim() []string {
	e := h.pendingElim
	h.pendingElim = nil
	return e
}

// next returns the next rung's round, or ok=false when every rung has run.
// Called once per engine round; the first call after a rung completes
// applies that rung's elimination. Survivors that already finished,
// plateaued, or sit at/above the rung budget are not redeployed — their last
// observation stands — so a rung whose survivors are all settled costs
// nothing and the run skips ahead.
func (h *sha) next(s State, label string) (Round, bool) {
	if !h.started {
		panic("search: sha.next before start")
	}
	for h.rung < h.rungs {
		if h.issued {
			// The rung's observations are in; eliminate before the next
			// rung — except after the final rung, whose survivor set is
			// the run's outcome.
			if h.rung < h.rungs-1 {
				h.cut(s)
			}
			h.rung++
			h.issued = false
			continue
		}
		ds := h.directives(s)
		h.issued = true
		if len(ds) > 0 {
			return Round{
				Label:      fmt.Sprintf("%srung %d/%d", label, h.rung+1, h.rungs),
				Directives: ds,
				Eliminated: h.takeElim(),
			}, true
		}
		// Every survivor is settled at this budget; the elimination runs on
		// what is already observed and the loop moves on.
	}
	return Round{Eliminated: h.takeElim()}, false
}

// directives builds the rung's marching orders, skipping survivors with
// nothing left to train at this budget.
func (h *sha) directives(s State) []Directive {
	var ds []Directive
	for _, id := range h.survivors {
		st := s.Status(id)
		target := rungLimit(st.MaxSteps, h.eta, h.rung, h.rungs)
		if st.CompletedSteps >= st.MaxSteps || st.Plateaued || st.CompletedSteps >= target {
			continue
		}
		ds = append(ds, Directive{TrialID: id, StepLimit: target})
	}
	return ds
}

// halving is the standalone successive-halving tuner.
type halving struct {
	sha
}

func (t *halving) Name() string { return HalvingName }

func (t *halving) Next(s State) (Round, bool) {
	if !t.started {
		t.start(s.TrialIDs())
	}
	return t.next(s, "")
}

func (t *halving) Finish(s State) Outcome {
	if !t.started {
		t.start(s.TrialIDs())
	}
	predicted := lastValues(s, s.TrialIDs())
	// Re-rank the survivors on their final-rung observations — the cut
	// order they carry is stale once the last rung trains them further —
	// so Top honors its best-first contract and Top[0] == Best.
	top := keepTop(s, t.survivors, len(t.survivors))
	return Outcome{
		Predicted: predicted,
		Ranked:    RankByValue(predicted),
		Top:       top,
		Best:      BestByLastValue(s, top),
	}
}
