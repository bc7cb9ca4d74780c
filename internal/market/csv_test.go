package market

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestCSVRoundTrip(t *testing.T) {
	it, _ := DefaultCatalog().Lookup("r3.xlarge")
	tr, err := Generate(MarketSpec{Type: it}, t0, t0.Add(6*time.Hour), 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSetCSV(&buf, TraceSet{"r3.xlarge": tr}); err != nil {
		t.Fatal(err)
	}
	set, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := set["r3.xlarge"]
	if !ok {
		t.Fatal("market missing after round trip")
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("round trip %d records, want %d", len(got.Records), len(tr.Records))
	}
	for i := range got.Records {
		if !got.Records[i].At.Equal(tr.Records[i].At) || got.Records[i].Price != tr.Records[i].Price {
			t.Fatalf("record %d differs: %+v vs %+v", i, got.Records[i], tr.Records[i])
		}
	}
}

func TestWriteSetCSVAndInterleavedRead(t *testing.T) {
	specs, err := DefaultSpecs(DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	set, err := GenerateSet(specs[:2], t0, t0.Add(3*time.Hour), 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSetCSV(&buf, set); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d markets, want 2", len(got))
	}
	for name, tr := range set {
		if len(got[name].Records) != len(tr.Records) {
			t.Errorf("%s: %d records, want %d", name, len(got[name].Records), len(tr.Records))
		}
	}
}

func TestReadCSVUnsortedAndDuplicates(t *testing.T) {
	in := strings.Join([]string{
		"timestamp,instance_type,price",
		"2017-04-26T02:00:00Z,x,0.3",
		"2017-04-26T00:00:00Z,x,0.1",
		"2017-04-26T01:00:00Z,x,0.2",
		"2017-04-26T01:00:00Z,x,0.25", // duplicate timestamp: last wins
	}, "\n")
	set, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	tr := set["x"]
	if len(tr.Records) != 3 {
		t.Fatalf("got %d records, want 3", len(tr.Records))
	}
	if tr.Records[1].Price != 0.25 {
		t.Fatalf("duplicate resolution kept %v, want 0.25", tr.Records[1].Price)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"short row":     "timestamp,instance_type,price\n2017-04-26T00:00:00Z,x",
		"bad timestamp": "not-a-time,x,0.3",
		"bad price":     "2017-04-26T00:00:00Z,x,abc",
		"bad value":     "2017-04-26T00:00:00Z,x,-1",
		"off-grid":      "2017-04-26T00:00:00Z,x,0.1\n2017-04-26T01:00:00Z,x,0.1234567",
		"above cap":     "2017-04-26T00:00:00Z,x,2147.483648",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestWriteCSVInvalidTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSetCSV(&buf, TraceSet{"x": {Type: "x"}}); err == nil {
		t.Error("empty trace written")
	}
}
