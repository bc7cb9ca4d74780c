package policy

func init() {
	Register(MixedFleetName,
		"DeepVM-style mixed fleet: incumbent-best trial pinned on on-demand, explorers on spot",
		func(p Params) (Policy, error) {
			return &mixedFleet{spotChooser: newSpotChooser(p)}, nil
		})
}

// mixedFleet splits the fleet by trial promise: the incumbent-best trial —
// the one whose last observed metric currently leads the campaign — runs on
// reliable on-demand capacity so the most valuable curve never loses work to
// a revocation, while every other trial explores on cheap Eq. 2 spot
// capacity. The pin follows the incumbent at deployment decisions, with at
// most one trial pinned at a time: a dethroned incumbent finishes its
// current segment on its reliable instance, and the new leader takes the
// pin at its next deployment once that segment drains. An explorer's held
// request (TrialInfo.Held) comes back as it is; the pin is checked first.
type mixedFleet struct {
	spotChooser
}

func (m *mixedFleet) Name() string { return MixedFleetName }

func (m *mixedFleet) Decide(ctx Context) (Request, error) {
	if ctx.Trial.Incumbent && ctx.ActiveOnDemand == 0 {
		return m.pool.CheapestOnDemand(ctx)
	}
	if h, ok := m.held(ctx.Trial); ok {
		return h, nil
	}
	req, _, err := m.bestSpot(ctx, m.pool.on(ctx.Market))
	return req, err
}
