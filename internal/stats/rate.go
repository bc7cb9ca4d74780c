package stats

// ExposureRate is an online events-per-unit-exposure estimator: feed it
// exposure (e.g. spot instance-hours on one market) and events (e.g.
// revocations observed on that market) in any order, and Rate reports the
// cumulative event rate. It is the minimal sufficient statistic for a
// homogeneous Poisson arrival process — exactly the model behind
// Young/Daly-style optimal checkpoint cadences, where the mean time between
// failures is 1/Rate — and, being two float adds, it is cheap enough to
// update from the orchestrator's event loop.
//
// The zero value is ready to use and reports a zero rate until it has seen
// positive exposure (no evidence, no estimate).
type ExposureRate struct {
	events   float64
	exposure float64
}

// AddExposure accumulates observation time (negative amounts are ignored —
// exposure cannot run backwards).
func (r *ExposureRate) AddExposure(amount float64) {
	if amount > 0 {
		r.exposure += amount
	}
}

// AddEvent counts one arrival.
func (r *ExposureRate) AddEvent() { r.events++ }

// Rate is events per unit exposure, or 0 before any exposure was observed.
func (r *ExposureRate) Rate() float64 {
	if r.exposure <= 0 {
		return 0
	}
	return r.events / r.exposure
}
