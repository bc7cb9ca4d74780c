package obs

// TraceQuery answers "what happened to this trial / this instance?" over a
// finished recording: a trial's events are its own plus everything that
// happened on the instances that served it, and LastK extracts the last K
// of them before the end of the trace — the context internal/invariants
// attaches to violations so an audit code arrives with its story.
type TraceQuery struct {
	events    []Event
	instTrial map[string]string
}

// NewTraceQuery indexes a recording. The recording must not grow afterwards.
func NewTraceQuery(r *Recording) *TraceQuery {
	q := &TraceQuery{events: r.Events(), instTrial: map[string]string{}}
	for _, e := range q.events {
		if e.Kind == KindDeploy {
			q.instTrial[e.Inst] = e.Trial
		}
	}
	return q
}

// relevant reports whether an event belongs on the given trial's timeline:
// it names the trial directly, or it names an instance that served it.
func (q *TraceQuery) relevant(e Event, trial string) bool {
	if e.Trial == trial {
		return true
	}
	return e.Inst != "" && q.instTrial[e.Inst] == trial
}

// LastK returns the last k events relevant to the given subject, in
// sequence order. An empty trial with a non-empty inst resolves the trial
// through the deploy index; both empty means the whole campaign (the last k
// events outright). k <= 0 returns nil.
func (q *TraceQuery) LastK(trial, inst string, k int) []Event {
	if k <= 0 {
		return nil
	}
	if trial == "" && inst != "" {
		trial = q.instTrial[inst]
	}
	all := trial == "" && inst == ""
	picked := make([]Event, 0, k)
	for i := len(q.events) - 1; i >= 0 && len(picked) < k; i-- {
		e := q.events[i]
		if all || q.relevant(e, trial) || (inst != "" && e.Inst == inst) {
			picked = append(picked, e)
		}
	}
	for l, r := 0, len(picked)-1; l < r; l, r = l+1, r-1 {
		picked[l], picked[r] = picked[r], picked[l]
	}
	return picked
}
