package resilience

import (
	"math"
	"testing"
	"time"
)

func TestRegistryRoundTrip(t *testing.T) {
	names := Names()
	if len(names) < 2 {
		t.Fatalf("expected at least fixed+adaptive registered, got %v", names)
	}
	for _, name := range names {
		s, err := New(name, Params{})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("strategy constructed as %q reports name %q", name, s.Name())
		}
	}
	if _, err := New("no-such-strategy", Params{}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	// "" selects the default fixed strategy.
	s, err := New("", Params{})
	if err != nil || s.Name() != FixedName {
		t.Fatalf("empty name resolved to (%v, %v), want fixed", s, err)
	}
	if Default().Name() != FixedName {
		t.Fatalf("Default() is %q, want %q", Default().Name(), FixedName)
	}
	infos := Infos()
	if len(infos) != len(names) {
		t.Fatalf("%d infos vs %d names", len(infos), len(names))
	}
	for _, in := range infos {
		if in.Doc == "" {
			t.Fatalf("strategy %q registered without a doc line", in.Name)
		}
	}
}

// TestFixedIsTheHistoricalBehavior pins every answer the compat strategy
// gives: configured cadence, passive re-queue, poll-grid retries, never a
// give-up. The golden byte-identity suites depend on exactly this.
func TestFixedIsTheHistoricalBehavior(t *testing.T) {
	s := Default()
	def := 30 * time.Minute
	if got := s.CheckpointInterval(CadenceContext{Default: def, RevocationsPerHour: 50, CheckpointSecs: 10}); got != def {
		t.Fatalf("fixed cadence %v, want configured %v", got, def)
	}
	if act := s.OnNotice(NoticeContext{PoolSize: 6}); act.Migrate || act.ExcludeType != "" {
		t.Fatalf("fixed strategy migrated: %+v", act)
	}
	poll := 30 * time.Second
	for attempt := 1; attempt <= 100; attempt++ {
		d := s.Retry(RetryContext{TrialID: "hp-1", Attempt: attempt, PollInterval: poll})
		if d.GiveUp {
			t.Fatalf("fixed strategy gave up at attempt %d", attempt)
		}
		if d.Delay != poll {
			t.Fatalf("fixed retry delay %v at attempt %d, want poll interval %v", d.Delay, attempt, poll)
		}
	}
}

func TestAdaptiveCadenceYoungDaly(t *testing.T) {
	s, err := New(AdaptiveName, Params{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	def := time.Hour

	// No evidence: the configured default stands.
	if got := s.CheckpointInterval(CadenceContext{Default: def, CheckpointSecs: 30}); got != def {
		t.Fatalf("no-evidence cadence %v, want default %v", got, def)
	}

	// δ=30s, rate 1/h → MTBF 3600s → τ = √(2·30·3600) ≈ 464.76s.
	got := s.CheckpointInterval(CadenceContext{Default: def, CheckpointSecs: 30, RevocationsPerHour: 1})
	want := math.Sqrt(2 * 30 * 3600)
	if math.Abs(got.Seconds()-want) > 1 {
		t.Fatalf("Young/Daly cadence %v, want ~%.0fs", got, want)
	}

	// A calm market must clamp at the configured default, never relax past
	// it (the lost-work bound is monotone in the configuration).
	calm := s.CheckpointInterval(CadenceContext{Default: 5 * time.Minute, CheckpointSecs: 30, RevocationsPerHour: 0.001})
	if calm != 5*time.Minute {
		t.Fatalf("calm-market cadence %v exceeds configured %v", calm, 5*time.Minute)
	}

	// A storm-swept market must floor at minCadence, not thrash.
	storm := s.CheckpointInterval(CadenceContext{Default: def, CheckpointSecs: 30, RevocationsPerHour: 10000})
	if storm != minCadence {
		t.Fatalf("storm cadence %v, want minCadence floor %v", storm, minCadence)
	}

	// More hostile markets never get a longer cadence.
	prev := time.Duration(math.MaxInt64)
	for _, rate := range []float64{0.1, 0.5, 1, 2, 5, 20, 100} {
		tau := s.CheckpointInterval(CadenceContext{Default: def, CheckpointSecs: 30, RevocationsPerHour: rate})
		if tau > prev {
			t.Fatalf("cadence not monotone in revocation rate: %v after %v at rate %v", tau, prev, rate)
		}
		prev = tau
	}
}

func TestAdaptiveMigratesExceptWhenDoomed(t *testing.T) {
	s, err := New(AdaptiveName, Params{})
	if err != nil {
		t.Fatal(err)
	}
	act := s.OnNotice(NoticeContext{TrialID: "hp-1", TypeName: "r4.large", PoolSize: 6})
	if !act.Migrate || act.ExcludeType != "r4.large" {
		t.Fatalf("notice action %+v, want migrate excluding the noticed market", act)
	}
	// A one-market pool has nowhere else to go: migrate, exclude nothing.
	act = s.OnNotice(NoticeContext{TrialID: "hp-1", TypeName: "r4.large", PoolSize: 1})
	if !act.Migrate || act.ExcludeType != "" {
		t.Fatalf("single-pool action %+v, want migrate without exclusion", act)
	}
	// Doom-window notices (same instant as the deploy) must fall back to
	// the paced re-queue or the event loop livelocks at one instant.
	act = s.OnNotice(NoticeContext{TrialID: "hp-1", TypeName: "r4.large", PoolSize: 6, Immediate: true})
	if act.Migrate {
		t.Fatalf("immediate notice still migrated: %+v", act)
	}
}

func TestAdaptiveBackoffShapeAndBudget(t *testing.T) {
	s, err := New(AdaptiveName, Params{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	poll := 30 * time.Second
	var prevBase time.Duration
	for attempt := 1; attempt < RetryBudget; attempt++ {
		d := s.Retry(RetryContext{TrialID: "hp-1", Attempt: attempt, PollInterval: poll})
		if d.GiveUp {
			t.Fatalf("gave up at attempt %d, budget is %d", attempt, RetryBudget)
		}
		base := poll << uint(attempt-1)
		if base > maxBackoff {
			base = maxBackoff
		}
		if d.Delay < base || d.Delay >= base+poll {
			t.Fatalf("attempt %d delay %v outside [%v, %v)", attempt, d.Delay, base, base+poll)
		}
		if base < prevBase {
			t.Fatalf("base delay shrank: %v after %v", base, prevBase)
		}
		prevBase = base
	}
	d := s.Retry(RetryContext{TrialID: "hp-1", Attempt: RetryBudget, PollInterval: poll})
	if !d.GiveUp {
		t.Fatalf("attempt %d did not give up, budget is %d", RetryBudget, RetryBudget)
	}
	// Huge attempt counts must not overflow into negative delays.
	if d := backoff(42, RetryContext{TrialID: "hp-1", Attempt: 60, PollInterval: poll}); d <= 0 || d > maxBackoff+poll {
		t.Fatalf("large-attempt delay %v", d)
	}
}

// TestJitterIsDeterministicAndSpread pins the jitter contract: a pure
// function of (seed, trial, attempt) — identical across calls, different
// across trials so synchronized rejections fan out.
func TestJitterIsDeterministicAndSpread(t *testing.T) {
	for _, tc := range []struct {
		seed    uint64
		trial   string
		attempt int
	}{{1, "hp-1", 1}, {1, "hp-1", 2}, {9, "hp-31", 7}} {
		a := jitterFrac(tc.seed, tc.trial, tc.attempt)
		b := jitterFrac(tc.seed, tc.trial, tc.attempt)
		if a != b {
			t.Fatalf("jitter not deterministic for %+v: %v vs %v", tc, a, b)
		}
		if a < 0 || a >= 1 {
			t.Fatalf("jitter %v outside [0,1) for %+v", a, tc)
		}
	}
	seen := map[float64]bool{}
	for i := 0; i < 32; i++ {
		seen[jitterFrac(1, string(rune('a'+i)), 1)] = true
	}
	if len(seen) < 30 {
		t.Fatalf("jitter collapsed: %d distinct values over 32 trials", len(seen))
	}
}

func TestRateEstimator(t *testing.T) {
	r := NewRateEstimator()
	if got := r.RevocationsPerHour("r4.large"); got != 0 {
		t.Fatalf("empty estimator rate %v", got)
	}
	r.ObserveExposure("r4.large", 2*time.Hour)
	r.ObserveRevocation("r4.large")
	r.ObserveRevocation("r4.large")
	if got := r.RevocationsPerHour("r4.large"); math.Abs(got-1) > 1e-12 {
		t.Fatalf("2 revocations over 2h → rate %v, want 1", got)
	}
	// Markets are independent.
	if got := r.RevocationsPerHour("m4.2xlarge"); got != 0 {
		t.Fatalf("untouched market has rate %v", got)
	}
	// Events without exposure yield no rate (no divide-by-zero blowup).
	r.ObserveRevocation("m4.2xlarge")
	if got := r.RevocationsPerHour("m4.2xlarge"); got != 0 {
		t.Fatalf("zero-exposure rate %v, want 0", got)
	}
}

func TestSlackTrackerLadder(t *testing.T) {
	start := time.Date(2017, 5, 4, 0, 0, 0, 0, time.UTC)

	// No deadline: the ladder never moves, even on a nil tracker.
	var nilTracker *SlackTracker
	if lvl, changed := nilTracker.Assess(start, 1e9, 0); lvl != LevelSpot || changed {
		t.Fatalf("nil tracker assessed (%d, %v)", lvl, changed)
	}
	if nilTracker.Level() != LevelSpot || nilTracker.Transitions() != 0 {
		t.Fatal("nil tracker reports non-zero state")
	}

	s := NewSlackTracker(start, 10*time.Hour, 0)
	// Plenty of slack: stay at spot.
	if lvl, changed := s.Assess(start, 3600, 0); lvl != LevelSpot || changed {
		t.Fatalf("comfortable slack escalated: (%d, %v)", lvl, changed)
	}
	// Inside the 10% margin (slack < 1h): diversify.
	now := start.Add(9 * time.Hour)
	if lvl, changed := s.Assess(now, 30*60, 0); lvl != LevelDiversified || !changed {
		t.Fatalf("thin slack gave (%d, %v), want diversified transition", lvl, changed)
	}
	// Re-assessing at the same level is not a new transition.
	if _, changed := s.Assess(now, 30*60, 0); changed {
		t.Fatal("same-level assessment counted as a transition")
	}
	// Projection past the deadline: force on-demand.
	if lvl, changed := s.Assess(now, 2*3600, 0); lvl != LevelOnDemand || !changed {
		t.Fatalf("blown deadline gave (%d, %v), want on-demand transition", lvl, changed)
	}
	// The ladder is one-way: recovered slack does not de-escalate.
	if lvl, changed := s.Assess(start.Add(time.Hour), 60, 0); lvl != LevelOnDemand || changed {
		t.Fatalf("ladder de-escalated: (%d, %v)", lvl, changed)
	}
	if s.Level() != LevelOnDemand || s.Transitions() != 2 {
		t.Fatalf("final level %d after %d transitions, want on-demand after 2", s.Level(), s.Transitions())
	}

	// A spent budget pins escalation at diversified: no forcing capacity
	// the campaign cannot pay for.
	b := NewSlackTracker(start, 10*time.Hour, 5.0)
	if lvl, _ := b.Assess(start.Add(11*time.Hour), 3600, 6.0); lvl != LevelDiversified {
		t.Fatalf("budget-exhausted escalation reached level %d, want diversified", lvl)
	}

	for _, tc := range []struct {
		level int
		want  string
	}{{LevelSpot, "spot"}, {LevelDiversified, "diversified"}, {LevelOnDemand, "on-demand"}, {99, "unknown"}} {
		if got := LevelName(tc.level); got != tc.want {
			t.Fatalf("LevelName(%d) = %q, want %q", tc.level, got, tc.want)
		}
	}
}
