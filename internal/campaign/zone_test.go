package campaign

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"spottune/internal/cloudsim"
	"spottune/internal/core"
	"spottune/internal/market"
	"spottune/internal/obs"
	"spottune/internal/policy"
	"spottune/internal/simclock"
	"spottune/internal/workload"
)

// readCSVIn writes a trace set as CSV with every timestamp in loc and reads
// it back through market.ReadCSV.
func readCSVIn(t *testing.T, set market.TraceSet, names []string, loc *time.Location) market.TraceSet {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("timestamp,instance_type,price\n")
	for _, name := range names {
		for _, r := range set[name].Records {
			fmt.Fprintf(&buf, "%s,%s,%s\n", r.At.In(loc).Format(time.RFC3339), name,
				strconv.FormatFloat(r.Price, 'f', -1, 64))
		}
	}
	out, err := market.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// withTraces returns a copy of env over another trace set: its own store,
// markets, grids and revocation-probability table.
func withTraces(t *testing.T, env *Environment, traces market.TraceSet) *Environment {
	t.Helper()
	if err := traces.Validate(); err != nil {
		t.Fatal(err)
	}
	cp := *env
	cp.Store = market.NewStore(traces)
	var err error
	if cp.markets, err = cloudsim.NewMarkets(cp.Catalog, cp.Store); err != nil {
		t.Fatal(err)
	}
	cp.Grids = make(map[string]*market.Grid, len(cp.Pool))
	for _, name := range cp.Pool {
		it, _ := cp.Catalog.Lookup(name)
		if cp.Grids[name], err = market.NewStoreGrid(it, cp.Store, cp.Start, cp.End); err != nil {
			t.Fatal(err)
		}
	}
	cp.revProb = core.GridRevProb(cp.Grids, cp.Predictors)
	return &cp
}

// zoneRun is what one campaign leaves behind: its report, the revocation
// instants its cluster scheduled and booked, and its flight recording.
type zoneRun struct {
	report  *core.Report
	revokes []time.Time
	jsonl   []byte
}

func runZoned(t *testing.T, env *Environment, pol string) zoneRun {
	t.Helper()
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: 4, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var run zoneRun
	inspect := func(d *RunDetail) error {
		for _, u := range d.Cluster.Ledger().Records {
			inst, ok := d.Cluster.Instance(u.InstanceID)
			if !ok {
				return fmt.Errorf("ledger names unknown instance %s", u.InstanceID)
			}
			if u.End == cloudsim.EndRevoked {
				run.revokes = append(run.revokes, u.Ended)
			}
			if !inst.RevokeAt.IsZero() {
				run.revokes = append(run.revokes, inst.NoticeAt, inst.RevokeAt)
			}
		}
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, d.Trace); err != nil {
			return err
		}
		run.jsonl = buf.Bytes()
		return nil
	}
	run.report, err = env.RunPolicy(bench, bench.SyntheticCurves(4), Options{
		Policy: pol, Theta: 0.7, Seed: 4, Trace: true, Inspect: inspect,
	})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestNonUTCTracesMatchUTC pins that a trace set read with +08:00
// timestamps drives a campaign exactly like the same set in UTC: the same
// report, the same revocation instants and the same flight-recorder bytes,
// and the same next price tick at every hour of the campaign window. The
// packed store keeps Unix nanoseconds only, and FirstExceed and
// NextPriceTick return UTC instants, so a record's own zone must not reach
// the simulation. The environment keeps no traces, so the test regenerates
// them from its options and checks they pack to its store.
func TestNonUTCTracesMatchUTC(t *testing.T) {
	opts := EnvOptions{Seed: 11, Days: 5, TrainDays: 2, Predictor: PredictorConstant}
	env, err := NewEnvironment(opts)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := opts.generate(env.Catalog, env.Start, env.End)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(market.NewStore(traces), env.Store) {
		t.Fatal("regenerated traces do not pack to the environment's store")
	}
	names := env.Catalog.Names()
	utc := withTraces(t, env, readCSVIn(t, traces, names, time.UTC))
	plus8 := readCSVIn(t, traces, names, time.FixedZone("", 8*3600))
	if _, off := plus8[names[0]].Records[0].At.Zone(); off != 8*3600 {
		t.Fatalf("ReadCSV kept offset %ds, want +08:00", off)
	}
	zoned := withTraces(t, env, plus8)
	revoked := 0
	for _, pol := range []string{policy.SpotTuneName, policy.CheapestName} {
		a, b := runZoned(t, utc, pol), runZoned(t, zoned, pol)
		if !reflect.DeepEqual(a.report, b.report) {
			t.Fatalf("%s: reports differ:\nUTC    %+v\n+08:00 %+v", pol, a.report, b.report)
		}
		if len(a.revokes) != len(b.revokes) {
			t.Fatalf("%s: %d revocation instants in UTC, %d at +08:00", pol, len(a.revokes), len(b.revokes))
		}
		for i := range a.revokes {
			if !a.revokes[i].Equal(b.revokes[i]) {
				t.Fatalf("%s: revocation instant %d: %v in UTC, %v at +08:00", pol, i, a.revokes[i], b.revokes[i])
			}
		}
		if !bytes.Equal(a.jsonl, b.jsonl) {
			t.Fatalf("%s: flight recordings differ (%d vs %d bytes)", pol, len(a.jsonl), len(b.jsonl))
		}
		revoked += a.report.Revocations
	}
	if revoked == 0 {
		t.Fatal("no campaign saw a revocation: the pin would not reach FirstExceed's instants")
	}

	cu, err := utc.NewClusterIn(&World{Clock: simclock.NewVirtual(utc.CampaignStart)})
	if err != nil {
		t.Fatal(err)
	}
	cz, err := zoned.NewClusterIn(&World{Clock: simclock.NewVirtual(zoned.CampaignStart)})
	if err != nil {
		t.Fatal(err)
	}
	ticks := 0
	for at := env.CampaignStart; at.Before(env.End); at = at.Add(time.Hour) {
		cu.Clock().AdvanceTo(at)
		cz.Clock().AdvanceTo(at)
		a, aok := cu.NextMarketTick(env.Pool)
		b, bok := cz.NextMarketTick(env.Pool)
		if aok != bok || !a.Equal(b) {
			t.Fatalf("NextMarketTick at %v: %v,%v in UTC, %v,%v at +08:00", at, a, aok, b, bok)
		}
		if bok && b.Location() != time.UTC {
			t.Fatalf("NextMarketTick at %v returned %v, not a UTC instant", at, b)
		}
		if aok {
			ticks++
		}
	}
	if ticks == 0 {
		t.Fatal("no hour of the campaign window had a next price tick")
	}
}
