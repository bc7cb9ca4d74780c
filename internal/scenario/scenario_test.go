package scenario

import (
	"bytes"
	"testing"
	"time"

	"spottune/internal/campaign"
	"spottune/internal/invariants"
	"spottune/internal/policy"
	"spottune/internal/search"
	"spottune/internal/workload"
)

func quickOpts() Options {
	return Options{Seed: 1, Quick: true, Workload: "LoR"}
}

// cellsCSV renders cells through CellWriter, one row per cell in order.
func cellsCSV(t *testing.T, cells []Cell) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw, err := NewCellWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if err := cw.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMatrixQuickIsSelfVerifyingAndDeterministic is the engine's acceptance
// test: a ≥4-regime × ≥3-policy matrix runs in quick mode with zero
// invariant violations, and the rendered CSV is bit-identical across two
// runs with the same seed.
func TestMatrixQuickIsSelfVerifyingAndDeterministic(t *testing.T) {
	specs, err := SpecsByName([]string{"baseline", "calm", "volatile", "flash-crash"})
	if err != nil {
		t.Fatal(err)
	}
	opt := quickOpts()
	opt.Policies = []string{policy.SpotTuneName, policy.CheapestName, policy.FallbackName}
	run := func() ([]Cell, *StreamSummary, []byte) {
		cells, sum := streamAll(t, Matrix{Specs: specs}, StreamOptions{Options: opt})
		return cells, sum, cellsCSV(t, cells)
	}
	cells, sum, csv1 := run()
	if got, want := len(cells), len(specs)*len(opt.Policies); got != want {
		t.Fatalf("%d cells, want %d", got, want)
	}
	if n := sum.Violations; n != 0 {
		for _, c := range cells {
			for _, v := range c.Violations {
				t.Errorf("%s/%s: %v", c.Scenario, c.Policy, v)
			}
		}
		t.Fatalf("%d invariant violations in a healthy matrix", n)
	}
	for _, c := range cells {
		if c.Cost <= 0 || c.JCTHours <= 0 {
			t.Errorf("%s/%s: degenerate cost/JCT %v/%v", c.Scenario, c.Policy, c.Cost, c.JCTHours)
		}
	}
	_, _, csv2 := run()
	if !bytes.Equal(csv1, csv2) {
		t.Fatal("same seed produced different matrix CSVs")
	}
}

// TestMassPreemptionScenarioShowsUpInReports: the fault scenario must be
// observably different from its fault-free regime — the calm market alone
// produces few notices; two mass preemptions guarantee them (for every
// policy holding spot capacity at the strike instants).
func TestMassPreemptionScenarioShowsUpInReports(t *testing.T) {
	specs, err := SpecsByName([]string{"calm", "calm+mass-preemption"})
	if err != nil {
		t.Fatal(err)
	}
	opt := quickOpts()
	opt.Policies = []string{policy.CheapestName}
	cells, sum := streamAll(t, Matrix{Specs: specs}, StreamOptions{Options: opt})
	if n := sum.Violations; n != 0 {
		t.Fatalf("%d invariant violations", n)
	}
	calm, faulted := cells[0], cells[1]
	if faulted.Notices <= calm.Notices {
		t.Errorf("mass preemption produced %d notices vs calm %d — fault not observable",
			faulted.Notices, calm.Notices)
	}
	if faulted.Report.Revocations <= calm.Report.Revocations {
		t.Errorf("mass preemption produced %d revocations vs calm %d",
			faulted.Report.Revocations, calm.Report.Revocations)
	}
}

// TestBlackoutScenarioDrivesFallbackOnDemand: during a region-wide capacity
// blackout the fallback policy must actually fall back, while the pure spot
// policy just waits it out — both finishing with sound books.
func TestBlackoutScenarioDrivesFallbackOnDemand(t *testing.T) {
	spec := Spec{
		Name:   "early-blackout",
		Regime: "calm",
		Faults: []Fault{{Kind: FaultBlackout, After: 30 * time.Minute, Duration: 8 * time.Hour}},
	}
	opt := quickOpts()
	opt.Policies = []string{policy.CheapestName, policy.FallbackName}
	cells, sum := streamAll(t, Matrix{Specs: []Spec{spec}}, StreamOptions{Options: opt})
	if n := sum.Violations; n != 0 {
		t.Fatalf("%d invariant violations", n)
	}
	var cheapest, fallback Cell
	for _, c := range cells {
		switch c.Policy {
		case policy.CheapestName:
			cheapest = c
		case policy.FallbackName:
			fallback = c
		}
	}
	if fallback.OnDemandDeployments == 0 {
		t.Error("fallback policy never rented on-demand through an 8h blackout")
	}
	if cheapest.OnDemandDeployments != 0 {
		t.Errorf("pure spot policy rented %d on-demand instances", cheapest.OnDemandDeployments)
	}
	// Waiting out the blackout costs wall-clock: the fallback run must
	// finish sooner.
	if fallback.JCTHours >= cheapest.JCTHours {
		t.Errorf("fallback JCT %vh not faster than wait-it-out %vh", fallback.JCTHours, cheapest.JCTHours)
	}
}

// TestFamilyCrunchRewardsDiversification is the catalog layer's acceptance
// test: under the cross-family crunch — whole instance families crashing as
// units at staggered instants — the compatibility-constrained diversified
// fleet must never lose more steps than cheapest-spot and must beat it on
// both cost and completion time, with every book sound. Cheapest-spot is
// the §IV-A4 never-revoked baseline (1000× on-demand bid), so it cannot
// rewind steps at all — it pays for every family crash by riding the 7-10×
// spike price and sitting on the slowest compatible type, which is exactly
// where the diversified fleet wins. The default battery's
// family-crunch+diversified cell is this comparison.
func TestFamilyCrunchRewardsDiversification(t *testing.T) {
	specs, err := SpecsByName([]string{"family-crunch+diversified"})
	if err != nil {
		t.Fatal(err)
	}
	opt := quickOpts()
	opt.Policies = []string{policy.CheapestName, policy.DiversifiedSpotName}
	cells, sum := streamAll(t, Matrix{Specs: specs}, StreamOptions{Options: opt})
	if n := sum.Violations; n != 0 {
		for _, c := range cells {
			for _, v := range c.Violations {
				t.Errorf("%s/%s: %v", c.Scenario, c.Policy, v)
			}
		}
		t.Fatalf("%d invariant violations under family crunch", n)
	}
	var cheapest, div Cell
	for _, c := range cells {
		switch c.Policy {
		case policy.CheapestName:
			cheapest = c
		case policy.DiversifiedSpotName:
			div = c
		}
	}
	if cheapest.Report == nil || div.Report == nil {
		t.Fatalf("missing cells: %+v", cells)
	}
	// The compatibility anchor narrowed both fleets; the constraint is
	// echoed for the invariant audit.
	for _, c := range []Cell{cheapest, div} {
		if c.Report.BaseType != "r4.xlarge" {
			t.Errorf("%s report base type %q, want r4.xlarge", c.Policy, c.Report.BaseType)
		}
	}
	if div.Report.LostSteps > cheapest.Report.LostSteps {
		t.Errorf("diversified fleet lost %d steps vs cheapest-spot's %d — family decorrelation bought nothing",
			div.Report.LostSteps, cheapest.Report.LostSteps)
	}
	if div.Cost >= cheapest.Cost {
		t.Errorf("diversified fleet cost $%.3f vs cheapest-spot's $%.3f — riding family crashes was cheaper than hopping them",
			div.Cost, cheapest.Cost)
	}
	if div.JCTHours >= cheapest.JCTHours {
		t.Errorf("diversified fleet finished in %.2fh vs cheapest-spot's %.2fh",
			div.JCTHours, cheapest.JCTHours)
	}
}

// TestCorruptedRunFailsInvariants is the negative control for the
// self-verification loop: take a genuine healthy run, corrupt its final
// state the way a billing bug would, and the same Check that passed the
// matrix must reject it.
func TestCorruptedRunFailsInvariants(t *testing.T) {
	opt := quickOpts()
	s := Spec{Name: "probe", Regime: "volatile"}.withDefaults(opt)
	env, err := s.Environment(opt)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var detail *campaign.RunDetail
	_, err = env.RunPolicy(bench, bench.SyntheticCurves(1), campaign.Options{
		Theta:   0.7,
		Seed:    1,
		Policy:  policy.SpotTuneName,
		Inspect: func(d *campaign.RunDetail) error { detail = d; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	state := StateFor(detail)
	if vs := invariants.Check(state); len(vs) != 0 {
		t.Fatalf("healthy run rejected: %v", vs)
	}
	// A "double refund" slips into the ledger.
	for i, u := range state.Ledger.Records {
		if u.Refunded > 0 {
			state.Ledger.Records[i].Refunded = 2 * u.GrossCost
			break
		}
	}
	vs := invariants.Check(state)
	if len(vs) == 0 {
		t.Fatal("corrupted ledger passed the invariant audit")
	}
	found := false
	for _, v := range vs {
		if v.Code == invariants.CodeRefundExceedsGross {
			found = true
		}
	}
	if !found {
		t.Fatalf("double refund not identified: %v", vs)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []Spec{
		{},                          // no name
		{Name: "x", Regime: "nope"}, // unknown regime
		{Name: "x", Faults: []Fault{{Kind: "warp-core-breach"}}},
		{Name: "x", Faults: []Fault{{Kind: FaultBlackout}}},                            // no duration
		{Name: "x", Faults: []Fault{{Kind: FaultMassPreemption, Duration: time.Hour}}}, // spurious duration
		{Name: "x", Faults: []Fault{{Kind: FaultMassPreemption, After: -time.Hour}}},   // before start
		{Name: "x", Days: 3, TrainDays: 3},                                             // no campaign window
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d (%+v) accepted", i, s)
		}
	}
	if err := (Spec{Name: "ok", Regime: "calm"}).Validate(); err != nil {
		t.Errorf("minimal spec rejected: %v", err)
	}
}

func TestMatrixRejectsBadInput(t *testing.T) {
	if _, err := (Matrix{}).Stream(StreamOptions{Options: quickOpts()}); err == nil {
		t.Error("empty matrix accepted")
	}
	dup := []Spec{{Name: "a", Regime: "calm"}, {Name: "a", Regime: "volatile"}}
	if _, err := (Matrix{Specs: dup}).Stream(StreamOptions{Options: quickOpts()}); err == nil {
		t.Error("duplicate spec names accepted")
	}
	if _, err := SpecsByName([]string{"no-such-scenario"}); err == nil {
		t.Error("unknown scenario name accepted")
	}
	all, err := SpecsByName(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 8 {
		t.Errorf("default battery has only %d specs", len(all))
	}
}

// TestMatrixCrossTunerAxis is the tuner-dimension acceptance test: every
// registered tuner crosses a fault-heavy scenario subset (including the
// rung-heavy hyperband/successive-halving schedules whose checkpoint churn
// stresses restore monotonicity), every cell passes the invariant audit,
// and the rendered CSV is bit-identical across two runs with the same seed.
func TestMatrixCrossTunerAxis(t *testing.T) {
	specs, err := SpecsByName([]string{"volatile", "calm+mass-preemption", "baseline+blackout"})
	if err != nil {
		t.Fatal(err)
	}
	opt := quickOpts()
	opt.Policies = []string{policy.SpotTuneName, policy.FallbackName}
	opt.Tuners = search.Names()
	run := func() ([]Cell, *StreamSummary, []byte) {
		cells, sum := streamAll(t, Matrix{Specs: specs}, StreamOptions{Options: opt})
		return cells, sum, cellsCSV(t, cells)
	}
	cells, sum, csv1 := run()
	if got, want := len(cells), len(specs)*len(opt.Tuners)*len(opt.Policies); got != want {
		t.Fatalf("%d cells, want %d", got, want)
	}
	if n := sum.Violations; n != 0 {
		for _, c := range cells {
			for _, v := range c.Violations {
				t.Errorf("%s/%s/%s: %v", c.Scenario, c.Tuner, c.Policy, v)
			}
		}
		t.Fatalf("%d invariant violations under tuner churn", n)
	}
	seenTuner := map[string]bool{}
	for _, c := range cells {
		seenTuner[c.Tuner] = true
		if c.Cost <= 0 || c.JCTHours <= 0 {
			t.Errorf("%s/%s/%s: degenerate cost/JCT %v/%v", c.Scenario, c.Tuner, c.Policy, c.Cost, c.JCTHours)
		}
		if c.Report.Tuner != c.Tuner {
			t.Errorf("cell labeled %s ran tuner %q", c.Tuner, c.Report.Tuner)
		}
	}
	for _, name := range search.Names() {
		if !seenTuner[name] {
			t.Errorf("tuner %s missing from the matrix", name)
		}
	}
	_, _, csv2 := run()
	if !bytes.Equal(csv1, csv2) {
		t.Fatal("same seed produced different cross-tuner CSVs")
	}
}

// TestSpecTunerPinOverridesAxis: a spec with its own Tuner runs only that
// tuner regardless of the matrix axis, and unknown tuner names are rejected
// at validation time.
func TestSpecTunerPinOverridesAxis(t *testing.T) {
	specs, err := SpecsByName([]string{"calm"})
	if err != nil {
		t.Fatal(err)
	}
	specs[0].Tuner = search.FullTrainName
	opt := quickOpts()
	opt.Policies = []string{policy.SpotTuneName}
	opt.Tuners = search.Names()
	cells, _ := streamAll(t, Matrix{Specs: specs}, StreamOptions{Options: opt})
	if len(cells) != 1 || cells[0].Tuner != search.FullTrainName {
		t.Fatalf("pinned spec produced cells %+v", cells)
	}

	bad := Spec{Name: "x", Regime: "calm", Tuner: "nope"}
	if err := bad.Validate(); err == nil {
		t.Error("unknown tuner name accepted")
	}
	if _, err := (Matrix{Specs: specs}).Stream(StreamOptions{Options: Options{Seed: 1, Quick: true, Tuners: []string{"nope"}}}); err == nil {
		t.Error("unknown tuner axis accepted")
	}
}
