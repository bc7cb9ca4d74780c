package invariants

import (
	"testing"
	"time"

	"spottune/internal/cloudsim"
	"spottune/internal/core"
	"spottune/internal/earlycurve"
	"spottune/internal/market"
	"spottune/internal/trial"
)

var t0 = time.Date(2017, 5, 4, 0, 0, 0, 0, time.UTC)

type flatPerf struct{}

func (flatPerf) Steps(market.InstanceType, string) trial.StepTimes {
	return func(int) time.Duration { return time.Second }
}

func mkTrial(t *testing.T, id string, progress float64) *trial.Replay {
	t.Helper()
	tr, err := trial.NewReplay(id, 100, []earlycurve.MetricPoint{
		{Step: 50, Value: 0.5}, {Step: 100, Value: 0.4},
	}, flatPerf{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if progress > 0 {
		tr.RunFor(market.InstanceType{Name: "a", CPUs: 2}, time.Duration(progress*float64(time.Second)), 100)
	}
	return tr
}

func ckptBlob(t *testing.T, id string, progress float64) []byte {
	t.Helper()
	return mkTrial(t, id, progress).AppendCheckpoint(nil)
}

// soundState builds a minimal internally consistent campaign state: one
// refunded first-hour spot revocation, one paid spot segment, one on-demand
// segment, sane selection outputs, and checkpoints strictly behind live
// trial progress.
func soundState(t *testing.T) State {
	t.Helper()
	cat := market.MustNewCatalog([]market.InstanceType{
		{Name: "a", CPUs: 2, MemoryGB: 8, OnDemandPrice: 0.2},
	})
	ledger := &cloudsim.Ledger{Records: []cloudsim.Usage{
		{
			InstanceID: "i-000001", TypeName: "a",
			Launched: t0, Ended: t0.Add(30 * time.Minute),
			End: cloudsim.EndRevoked, GrossCost: 0.025, Refunded: 0.025,
		},
		{
			InstanceID: "i-000002", TypeName: "a",
			Launched: t0.Add(time.Hour), Ended: t0.Add(3 * time.Hour),
			End: cloudsim.EndUserTerminated, GrossCost: 0.11,
		},
		{
			InstanceID: "i-000003", TypeName: "a", OnDemand: true,
			Launched: t0.Add(3 * time.Hour), Ended: t0.Add(5 * time.Hour),
			End: cloudsim.EndUserTerminated, GrossCost: 0.4,
		},
	}}
	rep := &core.Report{
		Approach:            "SpotTune",
		GrossCost:           0.535,
		Refund:              0.025,
		NetCost:             0.51,
		TotalSteps:          90,
		FreeSteps:           10,
		Deployments:         3,
		OnDemandDeployments: 1,
		Notices:             1,
		Revocations:         1,
		Segments: []core.SegmentRecord{
			{InstanceID: "i-000001", TrialID: "hp-1", Steps: 10},
			{InstanceID: "i-000002", TrialID: "hp-1", Steps: 50},
			{InstanceID: "i-000003", TrialID: "hp-2", Steps: 30},
		},
		PredictedFinals: map[string]float64{"hp-1": 0.4, "hp-2": 0.6},
		Ranked:          []string{"hp-1", "hp-2"},
		Top:             []string{"hp-1"},
		Best:            "hp-1",
	}
	return State{
		Ledger:  ledger,
		Report:  rep,
		Catalog: cat,
		Trials:  []*trial.Replay{mkTrial(t, "hp-1", 60), mkTrial(t, "hp-2", 30)},
		Checkpoints: map[string][]byte{
			"ckpt/hp-1": ckptBlob(t, "hp-1", 60),
			"ckpt/hp-2": ckptBlob(t, "hp-2", 30),
		},
	}
}

func TestSoundStatePasses(t *testing.T) {
	if vs := Check(soundState(t)); len(vs) != 0 {
		t.Fatalf("sound state rejected: %v", vs)
	}
}

// corruption mutates a sound state and names the exact code that mutation
// must raise.
type corruption struct {
	name   string
	want   Code
	mutate func(t *testing.T, st *State)
}

func TestEachCorruptionRaisesItsOwnCode(t *testing.T) {
	cases := []corruption{
		{"double refund", CodeRefundExceedsGross, func(t *testing.T, st *State) {
			st.Ledger.Records[0].Refunded = 2 * st.Ledger.Records[0].GrossCost
			st.Report.Refund = st.Ledger.Records[0].Refunded
			st.Report.NetCost = st.Report.GrossCost - st.Report.Refund
		}},
		{"refund after first hour", CodeLateRefund, func(t *testing.T, st *State) {
			st.Ledger.Records[0].Ended = t0.Add(cloudsim.RefundWindow + time.Minute)
		}},
		{"negative gross", CodeNegativeGross, func(t *testing.T, st *State) {
			st.Ledger.Records[1].GrossCost = -0.11
			st.Report.GrossCost = 0.315
			st.Report.NetCost = 0.29
		}},
		{"negative refund", CodeNegativeRefund, func(t *testing.T, st *State) {
			st.Ledger.Records[1].Refunded = -0.01
			st.Report.Refund = 0.015
			st.Report.NetCost = st.Report.GrossCost - 0.015
		}},
		{"partial refund", CodePartialRefund, func(t *testing.T, st *State) {
			st.Ledger.Records[0].Refunded = 0.01
			st.Report.Refund = 0.01
			st.Report.NetCost = st.Report.GrossCost - 0.01
		}},
		{"refund without revocation", CodeRefundNotRevoked, func(t *testing.T, st *State) {
			st.Ledger.Records[0].End = cloudsim.EndUserTerminated
			st.Report.Revocations = 0
		}},
		{"refund on on-demand", CodeRefundOnDemand, func(t *testing.T, st *State) {
			st.Ledger.Records[0].OnDemand = true
			st.Report.OnDemandDeployments = 2
			// The on-demand billing cross-check would also fire; keep the
			// gross consistent with the catalog price so only the refund
			// invariant trips.
			st.Ledger.Records[0].GrossCost = 0.1
			st.Ledger.Records[0].Refunded = 0.1
			st.Report.GrossCost = 0.61
			st.Report.Refund = 0.1
			st.Report.NetCost = 0.51
		}},
		{"ends before launch", CodeTimeTravel, func(t *testing.T, st *State) {
			st.Ledger.Records[1].Ended = t0.Add(-time.Hour)
			// Zero lifetime with steps would also (correctly) flag ghost
			// progress; drop the steps to isolate the time violation.
			st.Report.Segments[1].Steps = 0
			st.Report.TotalSteps = 40
		}},
		{"on-demand billing drift", CodeOnDemandBilling, func(t *testing.T, st *State) {
			st.Ledger.Records[2].GrossCost = 0.9
			st.Report.GrossCost = 1.035
			st.Report.NetCost = 1.01
		}},
		{"report/ledger divergence", CodeLedgerMismatch, func(t *testing.T, st *State) {
			st.Report.NetCost = 0.1
		}},
		{"deployments vs instances", CodeDeploymentMismatch, func(t *testing.T, st *State) {
			st.Report.Deployments = 5
		}},
		{"deployment counter never incremented", CodeDeploymentMismatch, func(t *testing.T, st *State) {
			// A zeroed counter against a non-empty ledger must flag, not
			// be treated as "deployments unrecorded".
			st.Report.Deployments = 0
			st.Report.OnDemandDeployments = 0
		}},
		{"revocation count drift", CodeRevocationMismatch, func(t *testing.T, st *State) {
			st.Report.Revocations = 2
			st.Report.Notices = 2
		}},
		{"revocation without notice", CodeNoticeDeficit, func(t *testing.T, st *State) {
			st.Report.Notices = 0
		}},
		{"ghost progress", CodeGhostProgress, func(t *testing.T, st *State) {
			st.Report.Segments[0].InstanceID = "i-999999"
			// FreeSteps drop with the refunded instance's steps.
			st.Report.FreeSteps = 0
		}},
		{"step sum drift", CodeStepMismatch, func(t *testing.T, st *State) {
			st.Report.TotalSteps = 500
		}},
		{"nil segments", CodeStepMismatch, func(t *testing.T, st *State) {
			// Every report attributes its steps: progress without
			// segments is unaccounted work.
			st.Report.Segments = nil
		}},
		{"free step drift", CodeFreeStepMismatch, func(t *testing.T, st *State) {
			st.Report.FreeSteps = 33
		}},
		{"negative segment", CodeNegativeSteps, func(t *testing.T, st *State) {
			st.Report.Segments[2].Steps = -3
			st.Report.TotalSteps = 60
		}},
		{"checkpoint ahead of trial", CodeCheckpointAhead, func(t *testing.T, st *State) {
			st.Checkpoints["ckpt/hp-2"] = ckptBlob(t, "hp-2", 95)
		}},
		{"checkpoint under wrong key", CodeCheckpointForeign, func(t *testing.T, st *State) {
			st.Checkpoints["ckpt/hp-2"] = st.Checkpoints["ckpt/hp-1"]
		}},
		{"checkpoint garbage", CodeCheckpointCorrupt, func(t *testing.T, st *State) {
			st.Checkpoints["ckpt/hp-1"] = []byte{0xde, 0xad, 0xbe, 0xef}
		}},
		{"ranking not ascending", CodeRankingCorrupt, func(t *testing.T, st *State) {
			st.Report.Ranked = []string{"hp-2", "hp-1"}
		}},
		{"ranked trial without prediction", CodeRankingCorrupt, func(t *testing.T, st *State) {
			delete(st.Report.PredictedFinals, "hp-2")
			st.Report.Ranked = []string{"hp-1", "hp-3"}
		}},
		{"best outside ranking", CodeBestNotRanked, func(t *testing.T, st *State) {
			st.Report.Best = "hp-9"
		}},
		{"ranking wiped but selections survive", CodeRankingCorrupt, func(t *testing.T, st *State) {
			st.Report.Ranked = nil
		}},
		{"replacement weaker than base type", CodeIncompatibleReplacement, func(t *testing.T, st *State) {
			st.Catalog = market.MustNewCatalog([]market.InstanceType{
				{Name: "a", CPUs: 2, MemoryGB: 8, OnDemandPrice: 0.2},
				{Name: "weak", CPUs: 1, MemoryGB: 4, OnDemandPrice: 0.05},
			})
			st.Report.BaseType = "a"
			st.Ledger.Records[1].TypeName = "weak"
		}},
		{"base type outside the catalog", CodeIncompatibleReplacement, func(t *testing.T, st *State) {
			st.Report.BaseType = "zz"
		}},
		{"rented type outside the catalog under base", CodeIncompatibleReplacement, func(t *testing.T, st *State) {
			st.Report.BaseType = "a"
			st.Ledger.Records[1].TypeName = "mystery"
		}},
		{"checkpoint ahead without full snapshot elsewhere", CodeCheckpointAhead, func(t *testing.T, st *State) {
			// The checkpoint audit must not depend on every key being
			// present — a lone stale-future blob is enough.
			st.Checkpoints = map[string][]byte{"ckpt/hp-2": ckptBlob(t, "hp-2", 95)}
		}},
	}
	seen := map[Code]bool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := soundState(t)
			tc.mutate(t, &st)
			vs := Check(st)
			if len(vs) == 0 {
				t.Fatalf("corrupted state (%s) passed", tc.name)
			}
			found := false
			for _, v := range vs {
				if v.Code == tc.want {
					found = true
				}
			}
			if !found {
				t.Fatalf("want code %s, got %v", tc.want, vs)
			}
		})
		seen[tc.want] = true
	}
	// The suite must discriminate: distinct corruption classes map onto
	// distinct codes, not one catch-all.
	if len(seen) < 15 {
		t.Fatalf("only %d distinct codes exercised", len(seen))
	}
}

func TestNilStateRejected(t *testing.T) {
	if vs := Check(State{}); len(vs) == 0 {
		t.Fatal("empty state passed")
	}
}

func TestBaseTypeCompatibilityPasses(t *testing.T) {
	// A sound state where every rented type satisfies the predicate stays
	// sound once the base type is declared (reflexivity: a == base).
	st := soundState(t)
	st.Report.BaseType = "a"
	if vs := Check(st); len(vs) != 0 {
		t.Fatalf("compatible state rejected: %v", vs)
	}
}
