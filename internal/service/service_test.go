package service

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"spottune/internal/campaign"
	"spottune/internal/cloudsim"
	"spottune/internal/core"
	"spottune/internal/obs"
	"spottune/internal/policy"
	"spottune/internal/resilience"
	"spottune/internal/workload"
)

// testWorld builds the small shared fixture: a 5-day calm market with a
// constant predictor and quick synthetic curves.
func testWorld(t testing.TB) (*campaign.Environment, *workload.Benchmark, workload.Curves) {
	return testWorldIn(t, "")
}

// testWorldIn is testWorld with its market generated under the named regime
// ("" is the paper's baseline).
func testWorldIn(t testing.TB, regime string) (*campaign.Environment, *workload.Benchmark, workload.Curves) {
	t.Helper()
	env, err := campaign.NewEnvironment(campaign.EnvOptions{
		Seed: 11, Days: 5, TrainDays: 2, Predictor: campaign.PredictorConstant, Regime: regime,
	})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: 11, Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	return env, bench, bench.SyntheticCurves(11)
}

// runService runs a battery collecting every result, failing the test on a
// service-level error.
func runService(t *testing.T, env *campaign.Environment, bench *workload.Benchmark, curves workload.Curves, tenants []Tenant, cfg Config) (*Summary, []Result) {
	t.Helper()
	var got []Result
	cfg.OnResult = func(r Result) { got = append(got, r) }
	sum, err := Run(env, bench, curves, tenants, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sum, got
}

// reportKey reduces a report to the economics the metamorphic pin compares
// bit-for-bit: cost decomposition, completion time, work, and selection.
func reportKey(r *core.Report) string {
	return fmt.Sprintf("%x/%x/%x/%v/%d/%d/%s",
		r.NetCost, r.GrossCost, r.Refund, r.JCT, r.TotalSteps, r.Deployments, r.Best)
}

// TestServiceMatchesSoloCampaigns is the metamorphic pin: with contention
// disabled, every tenant's economics are bit-identical across shard counts
// {1, 4, 8} and to legacy solo campaign.Sweep execution — sharing a clock
// changes scheduling, never results. The volatile mixed-fleet battery is
// the case co-tenants' events reach: its revocation-heavy market keeps
// notices and revocations of other tenants pending on the shared clock, and
// a campaign that woke at them would take its decisions at their instants
// rather than its own (t-00006 would redeploy at a co-tenant's event instead
// of one pollInterval after its own notice).
func TestServiceMatchesSoloCampaigns(t *testing.T) {
	mixedFleet := DefaultBattery(16, 11)
	for i := range mixedFleet {
		mixedFleet[i].Policy = policy.MixedFleetName
	}
	for _, tc := range []struct {
		name, regime string
		tenants      []Tenant
		configs      []Config
	}{
		{"calm", "", DefaultBattery(8, 11), []Config{
			{Shards: 1, MaxInFlight: 3}, {Shards: 4, MaxInFlight: 3}, {Shards: 8, MaxInFlight: 3},
		}},
		{"volatile/mixed-fleet", "volatile", mixedFleet, []Config{{Shards: 1, MaxInFlight: 8}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, bench, curves := testWorldIn(t, tc.regime)
			tenants := tc.tenants
			solo := make([]string, len(tenants))
			for i, ten := range tenants {
				rep, err := env.RunPolicy(bench, curves, campaign.Options{Theta: ten.Theta, Seed: ten.Seed, Policy: ten.Policy})
				if err != nil {
					t.Fatal(err)
				}
				solo[i] = reportKey(rep)
			}
			for _, cfg := range tc.configs {
				shards := cfg.Shards
				sum, got := runService(t, env, bench, curves, tenants, cfg)
				if sum.Admitted != len(tenants) || sum.Rejected != 0 || sum.Failed != 0 {
					t.Fatalf("shards=%d: summary %+v", shards, sum)
				}
				if len(got) != len(tenants) {
					t.Fatalf("shards=%d: %d results, want %d", shards, len(got), len(tenants))
				}
				for i, r := range got {
					if r.Index != i {
						t.Fatalf("shards=%d: results out of submission order at %d: %+v", shards, i, r)
					}
					if r.Err != nil {
						t.Fatalf("shards=%d tenant %s: %v", shards, r.Tenant.ID, r.Err)
					}
					if len(r.Violations) != 0 {
						t.Fatalf("shards=%d tenant %s: violations %v", shards, r.Tenant.ID, r.Violations)
					}
					if key := reportKey(r.Report); key != solo[i] {
						t.Errorf("shards=%d tenant %s diverged from solo run:\n service %s\n solo    %s",
							shards, r.Tenant.ID, key, solo[i])
					}
				}
			}
		})
	}
}

// TestServiceMatchesSweep pins the service against the legacy worker-pool
// path too: campaign.Sweep over the same options produces the same reports.
func TestServiceMatchesSweep(t *testing.T) {
	env, bench, curves := testWorld(t)
	tenants := DefaultBattery(4, 23)

	tasks := make([]campaign.Task, len(tenants))
	for i, ten := range tenants {
		opt := campaign.Options{Theta: ten.Theta, Seed: ten.Seed}
		tasks[i] = campaign.Task{Key: ten.ID, Run: func() (*core.Report, error) {
			return env.RunPolicy(bench, curves, opt)
		}}
	}
	res := campaign.Sweep(tasks, campaign.SweepOptions{Workers: 2})
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Key, r.Err)
		}
	}
	_, got := runService(t, env, bench, curves, tenants, Config{Shards: 2, MaxInFlight: 2})
	for i := range tenants {
		if a, b := reportKey(res[i].Report), reportKey(got[i].Report); a != b {
			t.Errorf("tenant %s: sweep %s vs service %s", tenants[i].ID, a, b)
		}
	}
}

// TestServiceContention pins the coupled mode: the capacity audit stays
// clean (enforcement never leaks), campaigns still complete, and demand
// pressure makes the contended region at least as expensive as the free one.
func TestServiceContention(t *testing.T) {
	env, bench, curves := testWorld(t)
	tenants := DefaultBattery(6, 31)

	free, _ := runService(t, env, bench, curves, tenants, Config{Shards: 1, MaxInFlight: 6})
	sum, got := runService(t, env, bench, curves, tenants, Config{
		Shards: 1, MaxInFlight: 6, Contention: true, Capacity: 2, SurgeSlope: 0.5,
	})
	if sum.Admitted != len(tenants) || sum.Failed != 0 {
		t.Fatalf("contended summary %+v", sum)
	}
	if len(sum.Capacity) != 0 {
		t.Fatalf("capacity oversubscription under enforcement: %v", sum.Capacity)
	}
	for _, r := range got {
		if r.Err != nil {
			t.Fatalf("tenant %s failed under contention: %v", r.Tenant.ID, r.Err)
		}
		for _, v := range r.Violations {
			t.Fatalf("tenant %s invariant violation under contention: %v", r.Tenant.ID, v)
		}
	}
	if sum.TotalCost < free.TotalCost {
		t.Errorf("surge pricing made the contended region cheaper: %.4f vs %.4f",
			sum.TotalCost, free.TotalCost)
	}
}

// TestServiceContendedDigest pins the contended interleaving to the bit. With
// contention on, the order in which co-resident campaigns take their turns
// decides who gets capacity and at what surge, so every tenant's economics,
// shard and wave are hashed and compared with digests recorded from the
// scheduler this test was written against. Each spot policy that holds a
// capacity-refused request (policy.TrialInfo.Held) runs under both recovery
// strategies, whose retry pacing decides how often a held request is tried.
func TestServiceContendedDigest(t *testing.T) {
	env, bench, curves := testWorld(t)
	configs := []struct{ shards, inFlight int }{{1, 6}, {2, 3}}
	for _, tc := range []struct {
		policy, strategy string
		want             [2]string // one per config
	}{
		{policy.SpotTuneName, resilience.FixedName, [2]string{
			"75a58a8cc8c810ad71a1537d55599d9577443d82da48da5fde48f564af8ff8bb",
			"30f959b6eb104fac8ab162eca8e3b34c28e4b15a9120fff71edf12f8b51551c9",
		}},
		{policy.SpotTuneName, resilience.AdaptiveName, [2]string{
			"fbebe4342ea1e5d8d5eaa1177a137dcca381604f08a91c755db3a7ddb4f30d9c",
			"9580d384abfcd18cd850071f985002c264cbc6ccd304b734006200ea0c42ceec",
		}},
		{policy.FallbackName, resilience.FixedName, [2]string{
			"f089191cdf4e58080ff5b885cbf739689f1705aad80fde954e6a8cfb0401c439",
			"be63fa773e3f91c13f26a98016270e723544e0302ba58b1953b56b3a2a13a8ac",
		}},
		{policy.FallbackName, resilience.AdaptiveName, [2]string{
			"8695ba819589944e79d160a6181238110046f104a024abcd0a41f0d11c090759",
			"9d94db5b2dd0425699843330f0deab70aabac3bea884169286b818c3631a9969",
		}},
		{policy.MixedFleetName, resilience.FixedName, [2]string{
			"31c51ee9190c3dd1a7515b111e0cb5ce0c922c5cd4f53ae307955242824dd5ac",
			"21f75afb7bb795b1bd517cd5f6f07326fee5be99836bad671e95dd9bae112960",
		}},
		{policy.MixedFleetName, resilience.AdaptiveName, [2]string{
			"a4b8c44b3e51441d98da11aae7027b02be22b7fd9c6f64760e384a6b6593c3ce",
			"600830d78a30219828d73e2ff3cefc3b23508bbb2b776a2556773ab7e8a7a44e",
		}},
	} {
		tenants := DefaultBattery(12, 31)
		for i := range tenants {
			tenants[i].Policy, tenants[i].Resilience = tc.policy, tc.strategy
		}
		for k, sc := range configs {
			sum, got := runService(t, env, bench, curves, tenants, Config{
				Shards: sc.shards, MaxInFlight: sc.inFlight, Contention: true, Capacity: 2, SurgeSlope: 0.5,
			})
			if sum.Admitted != len(tenants) || len(sum.Capacity) != 0 {
				t.Fatalf("%s/%s shards=%d: summary %+v", tc.policy, tc.strategy, sc.shards, sum)
			}
			h := sha256.New()
			for _, r := range got {
				if r.Err != nil {
					t.Fatalf("%s/%s shards=%d tenant %s: %v", tc.policy, tc.strategy, sc.shards, r.Tenant.ID, r.Err)
				}
				fmt.Fprintf(h, "%s %d %d %s\n", r.Tenant.ID, r.Shard, r.Wave, reportKey(r.Report))
			}
			if digest := hex.EncodeToString(h.Sum(nil)); digest != tc.want[k] {
				t.Errorf("%s/%s shards=%d in-flight=%d: digest %s, want %s",
					tc.policy, tc.strategy, sc.shards, sc.inFlight, digest, tc.want[k])
			}
		}
	}
}

// TestServiceAdmissionCaps pins rejection semantics: capped-out tenants get
// a reason and no report (they never run, so no ledger entries can exist),
// admitted ones are unaffected, and the service trace reconciles.
func TestServiceAdmissionCaps(t *testing.T) {
	env, bench, curves := testWorld(t)
	tenants := DefaultBattery(4, 47)
	tenants[1].Budget = 0  // no budget in a budget-capped region
	tenants[2].Budget = 99 // over the cap
	tenants[0].Budget = 5  // fine
	tenants[3].Budget = 5  // fine
	for i := range tenants {
		tenants[i].Deadline = 100 * time.Hour
	}

	sum, got := runService(t, env, bench, curves, tenants, Config{
		Shards: 2, MaxBudget: 10, MaxDeadline: 200 * time.Hour, Trace: true,
	})
	if sum.Admitted != 2 || sum.Rejected != 2 {
		t.Fatalf("admitted %d rejected %d, want 2/2", sum.Admitted, sum.Rejected)
	}
	for _, i := range []int{1, 2} {
		r := got[i]
		if r.Admitted || r.Reason != ReasonBudgetCap || r.Report != nil || r.Err != nil {
			t.Fatalf("tenant %s not cleanly rejected: %+v", r.Tenant.ID, r)
		}
	}
	for _, i := range []int{0, 3} {
		if r := got[i]; !r.Admitted || r.Report == nil {
			t.Fatalf("tenant %s should have run: %+v", r.Tenant.ID, r)
		}
	}
	ta := obs.AttributeTenants(sum.Trace)
	if ta.Admitted != 2 || ta.Rejected != 2 {
		t.Fatalf("trace attribution %+v", ta)
	}
	for _, row := range ta.Rows {
		if !row.Admitted && (row.NetCost != 0 || row.Done) {
			t.Fatalf("rejected tenant %s shows spend in the trace: %+v", row.Tenant, row)
		}
	}
	if ta.NetCost != sum.TotalCost {
		t.Fatalf("trace cost %.6f disagrees with summary %.6f", ta.NetCost, sum.TotalCost)
	}
}

// TestServiceWeightedFair pins the admission ordering: heavier tenants land
// in earlier waves, and results emit in admission order (descending weight,
// ties by submission).
func TestServiceWeightedFair(t *testing.T) {
	env, bench, curves := testWorld(t)
	// Weights 1,2,4,1,2,4 → weight-4 tenants (idx 2, 5) are admitted first.
	tenants := DefaultBattery(6, 53)
	_, got := runService(t, env, bench, curves, tenants, Config{
		Shards: 1, MaxInFlight: 2, Admission: AdmissionWeightedFair,
	})
	wantOrder := []int{2, 5, 1, 4, 0, 3}
	waveOf := map[string]int{}
	for i, r := range got {
		if r.Index != wantOrder[i] {
			t.Fatalf("results out of admission order at %d: got index %d, want %d", i, r.Index, wantOrder[i])
		}
		waveOf[r.Tenant.ID] = r.Wave
	}
	if waveOf["t-00002"] != 0 || waveOf["t-00005"] != 0 {
		t.Fatalf("weight-4 tenants not in wave 0: %v", waveOf)
	}
	if waveOf["t-00000"] != 2 || waveOf["t-00003"] != 2 {
		t.Fatalf("weight-1 tenants not in the last wave: %v", waveOf)
	}
}

// TestServiceTraceTenant pins the explain-this-tenant workflow: exactly the
// named tenant carries a full campaign flight recording.
func TestServiceTraceTenant(t *testing.T) {
	env, bench, curves := testWorld(t)
	tenants := DefaultBattery(3, 61)
	_, got := runService(t, env, bench, curves, tenants, Config{
		Shards: 2, TraceTenant: "t-00001",
	})
	for _, r := range got {
		if r.Tenant.ID == "t-00001" {
			if r.Trace == nil || r.Trace.Len() == 0 {
				t.Fatalf("traced tenant has no recording: %+v", r)
			}
			if r.Trace.Meta.Scenario != "service" || r.Trace.Meta.Replicate != 1 {
				t.Fatalf("trace meta not stamped: %+v", r.Trace.Meta)
			}
		} else if r.Trace != nil {
			t.Fatalf("untraced tenant %s has a recording", r.Tenant.ID)
		}
	}
}

// panicPolicyName is a test-registered policy that runs the spottune policy
// until a decision finds its tenant with an instance still running — one
// noticed and awaiting revocation — and then panics, recording the cluster
// and the instant.
const panicPolicyName = "test-panics-with-instance-running"

var panicked struct {
	cluster *cloudsim.Cluster
	at      time.Time
}

type panicPolicy struct{ policy.Policy }

func (p panicPolicy) Decide(ctx policy.Context) (policy.Request, error) {
	if c, ok := ctx.Market.(*cloudsim.Cluster); ok && len(c.RunningInstances()) > 0 {
		panicked.cluster, panicked.at = c, c.Now()
		panic("boom")
	}
	return p.Policy.Decide(ctx)
}

func init() {
	policy.Register(panicPolicyName, "test: panics in Decide while an instance runs",
		func(p policy.Params) (policy.Policy, error) {
			inner, err := policy.New(policy.SpotTuneName, p)
			return panicPolicy{inner}, err
		})
}

// TestServicePanicIsolation pins the panic contract: a tenant whose policy
// panics mid-campaign fails alone with ErrTenantPanicked, naming itself and
// the panic value; its running instances are terminated on the spot, so no
// notice or revocation of its fires in a later turn; and the five tenants
// sharing its wave still match their solo runs.
func TestServicePanicIsolation(t *testing.T) {
	env, bench, curves := testWorld(t)
	tenants := DefaultBattery(6, 71)
	const bad = 3
	tenants[bad].Policy = panicPolicyName

	solo := make([]string, len(tenants))
	for i, ten := range tenants {
		if i == bad {
			continue
		}
		rep, err := env.RunPolicy(bench, curves, campaign.Options{Theta: ten.Theta, Seed: ten.Seed})
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = reportKey(rep)
	}

	panicked.cluster = nil
	sum, got := runService(t, env, bench, curves, tenants, Config{Shards: 1, MaxInFlight: 6})
	if sum.Admitted+sum.Rejected+sum.Failed != len(tenants) || sum.Failed != 1 {
		t.Fatalf("summary admitted %d + rejected %d + failed %d, want %d tenants with 1 failed",
			sum.Admitted, sum.Rejected, sum.Failed, len(tenants))
	}
	for i, r := range got {
		if i != bad {
			if r.Err != nil {
				t.Fatalf("tenant %s: %v", r.Tenant.ID, r.Err)
			}
			if key := reportKey(r.Report); key != solo[i] {
				t.Errorf("tenant %s diverged from its solo run:\n service %s\n solo    %s", r.Tenant.ID, key, solo[i])
			}
			continue
		}
		if !errors.Is(r.Err, ErrTenantPanicked) || r.Report != nil {
			t.Fatalf("panicking tenant: err %v, report %v", r.Err, r.Report)
		}
		if msg := r.Err.Error(); !strings.Contains(msg, r.Tenant.ID) || !strings.Contains(msg, "boom") {
			t.Fatalf("panic error %q does not name the tenant and the panic value", msg)
		}
	}

	c := panicked.cluster
	if c == nil {
		t.Fatal("the test policy never panicked")
	}
	if n := len(c.RunningInstances()); n != 0 {
		t.Fatalf("%d instances of the panicked tenant still running", n)
	}
	terminated := 0
	for _, u := range c.Ledger().Records {
		if u.Ended.After(panicked.at) {
			t.Fatalf("instance %s of the panicked tenant ended at %v, after the panic at %v", u.InstanceID, u.Ended, panicked.at)
		}
		if u.Ended.Equal(panicked.at) && u.End == cloudsim.EndUserTerminated {
			terminated++
		}
	}
	if terminated == 0 {
		t.Fatal("no instance was terminated at the panic")
	}
}

// TestServiceRejectsBadSurgeSlope pins the contention guard: a negative or
// non-finite surge slope would price capacity below zero or at NaN, so Run
// refuses it before any tenant runs. Without contention the slope is unused.
func TestServiceRejectsBadSurgeSlope(t *testing.T) {
	env, bench, curves := testWorld(t)
	tenants := DefaultBattery(6, 31)
	for _, slope := range []float64{-1.5, math.NaN(), math.Inf(1)} {
		ran := 0
		_, err := Run(env, bench, curves, tenants, Config{
			Contention: true, Capacity: 2, SurgeSlope: slope,
			OnResult: func(Result) { ran++ },
		})
		if err == nil || !strings.Contains(err.Error(), "surge slope") || ran != 0 {
			t.Errorf("slope %v: err %v after %d results, want a surge-slope error before any", slope, err, ran)
		}
	}
	if _, got := runService(t, env, bench, curves, tenants[:1], Config{SurgeSlope: -1.5}); len(got) != 1 {
		t.Fatalf("uncontended run with an unused slope delivered %d results", len(got))
	}
}
