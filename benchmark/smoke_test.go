package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinySizes runs one short round of each workload.
var tinySizes = sizes{tenants: 16, replicates: 1, solo: 2, setups: 1, chunk: 4, cellChunk: 64}

// declared reads the metric names BENCHMARK.json declares for one mode.
func declared(t *testing.T, key string) []string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	return names
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks the result line: every declared metric present, nothing else, no
// failure.
func TestSmoke(t *testing.T) {
	for _, mode := range []struct {
		trace bool
		key   string
	}{{false, "end_to_end"}, {true, "per_layer"}} {
		want := declared(t, mode.key)
		for _, name := range workloadNames {
			var out bytes.Buffer
			res, err := run(options{workload: name, seed: 7, seconds: 0.01, trace: mode.trace, sz: tinySizes}, &out)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, mode.trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result: %v", name, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted == 0 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d\n%s",
					name, mode.trace, last.Correct, last.Attempted, last.Failed, out.String())
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, BENCHMARK.json declares %d", name, mode.trace, len(last.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := last.Metrics[m]; !ok {
					t.Errorf("%s (trace %v): metric %s missing", name, mode.trace, m)
				}
			}
			if !mode.trace && res.Metrics["success_frac"].Value != 1 {
				t.Errorf("%s: success_frac %v, want 1 (fail_frac 0)", name, res.Metrics["success_frac"].Value)
			}
		}
	}
}
