package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runArgs calls run as the command line args would, on a fresh flag set.
func runArgs(t *testing.T, args ...string) error {
	t.Helper()
	oldFlags, oldArgs := flag.CommandLine, os.Args
	t.Cleanup(func() { flag.CommandLine, os.Args = oldFlags, oldArgs })
	flag.CommandLine = flag.NewFlagSet("spottune", flag.ContinueOnError)
	os.Args = append([]string{"spottune"}, args...)
	return run()
}

// TestBadTraceFormatRejectedFirst: a bad -trace-format fails before the
// workload is looked up (-workload names none), so before any environment
// is built, and leaves no trace file.
func TestBadTraceFormatRejectedFirst(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.jsonl")
	err := runArgs(t, "-workload", "nope", "-trace", path, "-trace-format", "bogus")
	if err == nil || !strings.Contains(err.Error(), `-trace-format "bogus": want jsonl or chrome`) {
		t.Fatalf("error %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("rejected run left %s: %v", path, err)
	}
}

// TestTracedCampaign runs one small campaign with the flight recorder on.
func TestTracedCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	if err := runArgs(t, "-scale", "0.1", "-days", "4", "-trace", path); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("trace %s not written: %v", path, err)
	}
}
