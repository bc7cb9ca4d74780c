package policy

func init() {
	Register(SpotTuneName,
		"Eq. 1-2 cost-aware spot provisioning: min expected per-step cost M·(1-p)·price",
		func(p Params) (Policy, error) {
			return &spotTune{spotChooser: newSpotChooser(p)}, nil
		})
}

// spotTune is the paper's fine-grained cost-aware provisioner (Eq. 1–2):
// deploy on the spot instance minimizing
// E[sCost] = M[inst][hp]·(1−p)·price, bidding the current market price plus
// a uniform delta. It never requests on-demand capacity. A held request
// (TrialInfo.Held) comes back as it is.
type spotTune struct {
	spotChooser
}

func (s *spotTune) Name() string { return SpotTuneName }

func (s *spotTune) Decide(ctx Context) (Request, error) {
	if h, ok := s.held(ctx.Trial); ok {
		return h, nil
	}
	req, _, err := s.bestSpot(ctx, s.pool.on(ctx.Market))
	return req, err
}
