package core

// Hooks for the twin tests of package core_test, which run campaigns
// through the service and the scenario battery.

// SetFullTurnsOnly sets the switch that turns the turn-free retries off and
// returns its previous value. Call it only while no campaign runs.
func SetFullTurnsOnly(on bool) (was bool) {
	was, fullTurnsOnly = fullTurnsOnly, on
	return was
}

// ReportDiff, EventsDiff and Refusals are the twin tests' comparisons.
var (
	ReportDiff = reportDiff
	EventsDiff = eventsDiff
	Refusals   = refusals
)
