package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2017, 5, 4, 0, 0, 0, 0, time.UTC)

// sampleRecording is a small campaign: two trials, three instances (one
// revoked-and-refunded, one spot, one on-demand), settled postings, and the
// end-of-campaign selection events.
func sampleRecording() *Recording {
	r := NewRecording(Meta{
		Scenario: "calm", Tuner: "spottune", Policy: "spottune",
		Workload: "LoR", Replicate: 2, Seed: 7,
	})
	emit := func(e Event) { r.Emit(e) }
	emit(Event{VT: t0, Kind: KindCampaignStart, Type: "spottune", Label: "SpotTune", A: 0.7, N: 2})
	emit(Event{VT: t0, Kind: KindRoundOpen, Label: "explore", N: 2})
	emit(Event{VT: t0, Kind: KindDeploy, Trial: "hp-1", Inst: "i-000001", Type: "a", Label: "spot", A: 0.05})
	emit(Event{VT: t0, Kind: KindDeploy, Trial: "hp-2", Inst: "i-000002", Type: "a", Label: "spot", A: 0.05})
	emit(Event{VT: t0.Add(10 * time.Minute), Kind: KindCheckpoint, Trial: "hp-1", Inst: "i-000001", A: 5, N: 10})
	emit(Event{VT: t0.Add(28 * time.Minute), Kind: KindNotice, Trial: "hp-1", Inst: "i-000001", Type: "a", N: 1})
	emit(Event{VT: t0.Add(30 * time.Minute), Kind: KindSegment, Trial: "hp-1", Inst: "i-000001", N: 10})
	emit(Event{VT: t0.Add(30 * time.Minute), Kind: KindPosting, Inst: "i-000001", Type: "a", Label: "revoked", A: 0.025, B: 0.025})
	emit(Event{VT: t0.Add(30 * time.Minute), Kind: KindRefund, Inst: "i-000001", Type: "a", A: 0.025})
	emit(Event{VT: t0.Add(31 * time.Minute), Kind: KindDeploy, Trial: "hp-1", Inst: "i-000003", Type: "a", Label: "on-demand", A: 0.2, N: 10})
	emit(Event{VT: t0.Add(2 * time.Hour), Kind: KindSegment, Trial: "hp-2", Inst: "i-000002", N: 50})
	emit(Event{VT: t0.Add(2 * time.Hour), Kind: KindPosting, Inst: "i-000002", Type: "a", Label: "user-terminated", A: 0.11})
	emit(Event{VT: t0.Add(3 * time.Hour), Kind: KindPosting, Inst: "i-000003", Type: "a", Label: "user-terminated", A: 0.4, N: 1})
	emit(Event{VT: t0.Add(3 * time.Hour), Kind: KindRank, Trial: "hp-1", A: 0.4, N: 1})
	emit(Event{VT: t0.Add(3 * time.Hour), Kind: KindRank, Trial: "hp-2", A: math.Inf(1), N: 2})
	emit(Event{VT: t0.Add(3 * time.Hour), Kind: KindSelect, Trial: "hp-1", N: 1})
	emit(Event{VT: t0.Add(3 * time.Hour), Kind: KindCampaignEnd, A: 0.51, B: 3, N: 42})
	return r
}

func TestRecordingSeqMonotonic(t *testing.T) {
	r := sampleRecording()
	for i, e := range r.Events() {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
	}
	var nilRec *Recording
	if nilRec.Enabled() {
		t.Fatal("nil recording claims enabled")
	}
	nilRec.Emit(Event{Kind: KindDeploy}) // must not panic
	if nilRec.Len() != 0 || nilRec.Events() != nil {
		t.Fatal("nil recording holds events")
	}
}

// TestNopTracerZeroAlloc is the overhead guard: a disabled tracer on the hot
// event-emission path must cost zero allocations per emitted event.
func TestNopTracerZeroAlloc(t *testing.T) {
	var trc Tracer = Nop{}
	allocs := testing.AllocsPerRun(1000, func() {
		// The two shapes the orchestrator's pooled loops use: a guarded
		// emit (event construction skipped entirely) and a direct emit of
		// a stack-built flat event.
		if trc.Enabled() {
			trc.Emit(Event{VT: t0, Kind: KindSegment, Trial: "hp-1", Inst: "i-1", N: 280})
		}
		trc.Emit(Event{VT: t0, Kind: KindPosting, Inst: "i-1", A: 0.1})
	})
	if allocs != 0 {
		t.Fatalf("Nop tracer costs %v allocs per emit, want 0", allocs)
	}
}

func TestEveryKindHasNameAndDoc(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
		if k != KindUnknown && kindDocs[k] == "" {
			t.Errorf("kind %s has no doc", k)
		}
	}
	if got := Kind(200).String(); got != "unknown" {
		t.Errorf("out-of-range kind renders %q", got)
	}
}

func TestJSONLDeterministicAndInfSafe(t *testing.T) {
	r := sampleRecording()
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, r); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same recording serialized differently twice")
	}
	lines := strings.Split(strings.TrimRight(a.String(), "\n"), "\n")
	if want := r.Len() + 1; len(lines) != want {
		t.Fatalf("%d lines, want %d (meta + one per event)", len(lines), want)
	}
	// Every line must be valid JSON — including the rank event carrying +Inf,
	// which encoding/json cannot emit and the exporter encodes as "inf".
	sawInf := false
	for i, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, ln)
		}
		if obj["a"] == "inf" {
			sawInf = true
		}
	}
	if !sawInf {
		t.Fatal("no line carries the quoted \"inf\" payload")
	}
	var meta struct {
		Meta Meta `json:"meta"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Meta != r.Meta {
		t.Fatalf("meta header round-trips to %+v, want %+v", meta.Meta, r.Meta)
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, "chrome", sampleRecording(), sampleRecording()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace holds no events")
	}
	pids := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		for _, key := range []string{"ph", "pid", "name"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("trace event missing %q: %v", key, ev)
			}
		}
		pids[ev["pid"].(float64)] = true
	}
	if len(pids) != 2 {
		t.Fatalf("%d processes, want one per recording (2)", len(pids))
	}
}

func TestWriteTraceRejectsUnknownFormat(t *testing.T) {
	if err := WriteTrace(&bytes.Buffer{}, "xml", sampleRecording()); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestAttribute(t *testing.T) {
	ca := Attribute(sampleRecording())
	if ca.Postings != 3 || ca.UnattributedPostings != 0 {
		t.Fatalf("postings %d (unattributed %d), want 3 (0)", ca.Postings, ca.UnattributedPostings)
	}
	if got, want := ca.Gross, 0.025+0.11+0.4; got != want {
		t.Fatalf("gross %v, want %v", got, want)
	}
	if ca.Refunded != 0.025 || ca.Net != ca.Gross-ca.Refunded {
		t.Fatalf("refunded %v net %v", ca.Refunded, ca.Net)
	}
	if len(ca.Trials) != 2 || ca.Trials[0].Trial != "hp-1" || ca.Trials[1].Trial != "hp-2" {
		t.Fatalf("trials %+v, want hp-1, hp-2 ascending", ca.Trials)
	}
	hp1 := ca.Trials[0]
	if hp1.SpotGross != 0.025 || hp1.OnDemandGross != 0.4 || hp1.Refunded != 0.025 {
		t.Fatalf("hp-1 split %+v", hp1)
	}
	// i-000003 served hp-1 on-demand but retained zero segment steps: its
	// whole net spend is ghost-progress waste.
	if hp1.Wasted != 0.4 {
		t.Fatalf("hp-1 wasted %v, want 0.4", hp1.Wasted)
	}
	if hp1.Steps != 10 || ca.Trials[1].Steps != 50 {
		t.Fatalf("steps %d/%d, want 10/50", hp1.Steps, ca.Trials[1].Steps)
	}
	var tbl bytes.Buffer
	if err := ca.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "TOTAL") {
		t.Fatal("table missing TOTAL row")
	}
}

func TestAttributeUnattributedPosting(t *testing.T) {
	r := NewRecording(Meta{})
	r.Emit(Event{VT: t0, Kind: KindPosting, Inst: "i-ghost", A: 0.3})
	ca := Attribute(r)
	if ca.UnattributedPostings != 1 || ca.Unattributed != 0.3 {
		t.Fatalf("unattributed %d/$%v, want 1/$0.3", ca.UnattributedPostings, ca.Unattributed)
	}
}

func TestTraceQueryLastK(t *testing.T) {
	q := NewTraceQuery(sampleRecording())
	if got := q.instTrial["i-000003"]; got != "hp-1" {
		t.Fatalf("instance i-000003 served %q, want hp-1", got)
	}
	// Instance-only subject resolves to its trial's timeline: the posting
	// for i-000001 names no trial, but must appear for trial hp-1.
	last := q.LastK("hp-1", "", 100)
	sawPosting := false
	for _, e := range last {
		if e.Kind == KindPosting && e.Inst == "i-000001" {
			sawPosting = true
		}
		if e.Trial == "hp-2" || (e.Inst == "i-000002" && e.Trial == "") {
			t.Fatalf("hp-2 event leaked into hp-1 timeline: %+v", e)
		}
	}
	if !sawPosting {
		t.Fatal("hp-1 timeline missing its instance's posting")
	}
	// K truncates from the back and stays chronological.
	k2 := q.LastK("hp-1", "", 2)
	if len(k2) != 2 || k2[0].Seq >= k2[1].Seq {
		t.Fatalf("LastK(2) = %+v", k2)
	}
	full := q.LastK("hp-1", "", 100)
	if k2[1].Seq != full[len(full)-1].Seq {
		t.Fatal("LastK(2) does not end at the final relevant event")
	}
	// Empty subject = whole campaign.
	if got := q.LastK("", "", 3); len(got) != 3 {
		t.Fatalf("whole-campaign LastK(3) returned %d events", len(got))
	}
	// Instance subject alone resolves via the deploy mapping.
	byInst := q.LastK("", "i-000002", 100)
	if len(byInst) == 0 {
		t.Fatal("instance-only query returned nothing")
	}
	for _, e := range byInst {
		if e.Trial == "hp-1" || e.Inst == "i-000001" || e.Inst == "i-000003" {
			t.Fatalf("foreign event in i-000002 query: %+v", e)
		}
	}
}

func TestCampaignMetricsAndMerge(t *testing.T) {
	m := CampaignMetrics(sampleRecording())
	for name, want := range map[string]int64{
		"deploys":           3,
		"deploys.spot":      2,
		"deploys.on_demand": 1,
		"notices":           1,
		"revocations":       1,
		"refunds":           1,
		"checkpoints":       1,
		"segments":          2,
		"postings":          3,
		"rounds":            1,
	} {
		if got := m.Counter(name); got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if h := m.Histogram("cell_net_cost_usd"); h == nil || h.Count() != 1 || h.Max() != 0.51 {
		t.Errorf("cell_net_cost_usd histogram %+v, want one sample of 0.51", h)
	}
	if h := m.Histogram("posting_gross_usd"); h == nil || h.Count() != 3 {
		t.Errorf("posting_gross_usd histogram %+v", h)
	}

	// Merging two campaigns adds counters and merges sketches; merge order
	// must not matter for the battery-level aggregate.
	ab, ba := NewMetrics(), NewMetrics()
	for _, dst := range []*Metrics{ab, ba} {
		if err := dst.Merge(CampaignMetrics(sampleRecording())); err != nil {
			t.Fatal(err)
		}
	}
	if err := ab.Merge(CampaignMetrics(sampleRecording())); err != nil {
		t.Fatal(err)
	}
	if err := ba.Merge(CampaignMetrics(sampleRecording())); err != nil {
		t.Fatal(err)
	}
	if ab.Counter("deploys") != 6 {
		t.Fatalf("merged deploys = %d, want 6", ab.Counter("deploys"))
	}
	ha, hb := ab.Histogram("segment_steps"), ba.Histogram("segment_steps")
	if ha.Count() != hb.Count() || ha.Quantile(0.5) != hb.Quantile(0.5) {
		t.Fatal("histogram merge is order-dependent")
	}
}

// TestSchemaGolden pins the published event schema: any change to kinds,
// fields, or their docs must be deliberate — regenerate the fixture with
// SchemaJSON and update consumers of the trace format.
func TestSchemaGolden(t *testing.T) {
	got, err := SchemaJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/schema.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace schema drifted from testdata/schema.golden.json;\n"+
			"if intentional, regenerate the fixture.\ngot:\n%s", got)
	}
}
