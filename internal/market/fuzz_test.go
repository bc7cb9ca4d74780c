package market

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// FuzzTraceCSVRoundTrip throws arbitrary CSV at ReadCSV. Inputs it rejects
// are fine; inputs it accepts must survive a write→read round trip with
// every record intact — the serialization layer must never silently corrupt
// a trace it claimed to parse.
func FuzzTraceCSVRoundTrip(f *testing.F) {
	// Seed corpus: a generated two-market set, a headerless single row,
	// interleaved + unsorted rows with a duplicate timestamp, and near-miss
	// malformed inputs.
	cat := DefaultCatalog()
	specs, err := DefaultSpecs(cat)
	if err != nil {
		f.Fatal(err)
	}
	from := time.Date(2017, 4, 26, 0, 0, 0, 0, time.UTC)
	set, err := GenerateSet(specs[:2], from, from.Add(6*time.Hour), 1)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSetCSV(&buf, set); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("2017-04-26T00:00:00Z,r3.xlarge,0.08\n")
	f.Add("timestamp,instance_type,price\n" +
		"2017-04-26T01:00:00Z,b,0.2\n" +
		"2017-04-26T00:00:00Z,a,0.1\n" +
		"2017-04-26T01:00:00Z,b,0.3\n" +
		"2017-04-26T02:00:00Z,a,0.15\n")
	f.Add("timestamp,instance_type,price\n2017-04-26T00:00:00Z,a,NaN\n")
	f.Add("timestamp,instance_type,price\n2017-04-26T00:00:00Z,a,-1\n")
	f.Add("2017-04-26T00:00:00Z,a\n")

	f.Fuzz(func(t *testing.T, input string) {
		set, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		for _, tr := range set {
			// Write formats timestamps as RFC3339 UTC with 4-digit years;
			// accepted inputs outside that representable range round-trip
			// through a lossy format and are excluded from the contract.
			if y := tr.Records[0].At.UTC().Year(); y < 1 || y > 9999 {
				return
			}
			if y := tr.Records[len(tr.Records)-1].At.UTC().Year(); y < 1 || y > 9999 {
				return
			}
		}
		var out bytes.Buffer
		if err := WriteSetCSV(&out, set); err != nil {
			t.Fatalf("accepted set failed to serialize: %v", err)
		}
		back, err := ReadCSV(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("serialized set failed to parse: %v\n%s", err, out.String())
		}
		if len(back) != len(set) {
			t.Fatalf("round trip changed market count: %d -> %d", len(set), len(back))
		}
		for name, tr := range set {
			tr2, ok := back[name]
			if !ok {
				t.Fatalf("market %q lost in round trip", name)
			}
			if len(tr2.Records) != len(tr.Records) {
				t.Fatalf("market %q: %d records -> %d", name, len(tr.Records), len(tr2.Records))
			}
			for i := range tr.Records {
				a, b := tr.Records[i], tr2.Records[i]
				if !a.At.Equal(b.At) || a.Price != b.Price {
					t.Fatalf("market %q record %d: (%v, %v) -> (%v, %v)",
						name, i, a.At, a.Price, b.At, b.Price)
				}
			}
		}
	})
}
