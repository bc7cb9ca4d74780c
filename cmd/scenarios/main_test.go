package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runArgs calls run as the command line args would, on a fresh flag set,
// with OUT in args standing for dir/out and TRACE for dir/trace.jsonl.
func runArgs(t *testing.T, dir string, args ...string) error {
	t.Helper()
	oldFlags, oldArgs := flag.CommandLine, os.Args
	t.Cleanup(func() { flag.CommandLine, os.Args = oldFlags, oldArgs })
	flag.CommandLine = flag.NewFlagSet("scenarios", flag.ContinueOnError)
	os.Args = []string{"scenarios"}
	for _, a := range args {
		switch a {
		case "OUT":
			a = filepath.Join(dir, "out")
		case "TRACE":
			a = filepath.Join(dir, "trace.jsonl")
		}
		os.Args = append(os.Args, a)
	}
	return run()
}

// TestRejectsBeforeRunning: a flag the chosen mode does not read, or an
// output argument the run would only fail on at the end, is rejected before
// the CPU profile, which run starts before anything else, is created, so
// before any environment is built. No output file is left.
func TestRejectsBeforeRunning(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-tenants", "4", "-policies", "on-demand", "-theta", "0.3", "-replicates", "9", "-out", "OUT"},
			"service mode (-tenants) does not read -out, -policies, -replicates, -theta"},
		{[]string{"-tenants", "4", "-storm", "all", "-scenarios", "all"},
			"service mode (-tenants) does not read -scenarios, -storm"},
		{[]string{"-scenarios", "calm", "-shards", "7", "-max-budget", "3", "-out", "OUT"},
			"matrix mode does not read -max-budget, -shards"},
		{[]string{"-trace-tenant", "t-00001", "-trace", "TRACE", "-out", "OUT"},
			"matrix mode does not read -trace-tenant"},
		{[]string{"-trace", "TRACE", "-trace-format", "bogus", "-out", "OUT"},
			`-trace-format "bogus"`},
		{[]string{"-tenants", "4", "-trace", "TRACE", "-trace-format", "all"},
			`-trace-format "all"`},
		{[]string{"-tenants", "4", "-trace-tenant", "t-00004", "-trace", "TRACE"},
			`-trace-tenant "t-00004": no such tenant in the 4-tenant battery`},
		{[]string{"-tenants", "4", "-trace-tenant", "t-00003"},
			"-trace-tenant needs -trace"},
	} {
		dir := t.TempDir()
		err := runArgs(t, dir, append([]string{"-quick", "-cpuprofile", filepath.Join(dir, "cpu.pprof")}, tc.args...)...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("%v: rejected run left %s", tc.args, left[0].Name())
		}
	}
}

// TestWritesOutputs: the explain-this-tenant smoke `make service` runs, and
// the matrix-only "all" trace format, write every file they name.
func TestWritesOutputs(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		files []string
	}{
		{[]string{"-tenants", "8", "-shards", "2", "-trace-tenant", "t-00003", "-trace", "TRACE"},
			[]string{"trace.jsonl"}},
		{[]string{"-scenarios", "calm", "-policies", "spottune", "-out", "OUT", "-trace", "TRACE", "-trace-format", "all"},
			[]string{"out/scenarios.csv", "trace.jsonl", "trace.jsonl.trace.json"}},
	} {
		dir := t.TempDir()
		if err := runArgs(t, dir, append([]string{"-quick"}, tc.args...)...); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		for _, f := range tc.files {
			if fi, err := os.Stat(filepath.Join(dir, f)); err != nil || fi.Size() == 0 {
				t.Errorf("%v: %s not written: %v", tc.args, f, err)
			}
		}
	}
}
