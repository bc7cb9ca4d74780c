package scenario

import (
	"runtime"
	"testing"

	"spottune/internal/campaign"
	"spottune/internal/earlycurve"
	"spottune/internal/policy"
	"spottune/internal/search"
)

// allocsAndBytes returns what one call of f allocates on average over n
// calls, in objects (testing.AllocsPerRun) and bytes.
func allocsAndBytes(n int, f func()) (allocs float64, bytes uint64) {
	allocs = testing.AllocsPerRun(n, f)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestCampaignAndCellAllocationPins pins what one fixed campaign and one
// stream cell allocate once their environment is warm (trial templates,
// stage fits): a campaign allocates only its own state, so these figures
// move only when that state does. The bounds sit about a tenth above the
// measured figures; an increase past them is a regression to explain, a
// fall a reason to lower them.
func TestCampaignAndCellAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments every allocation, so the counts would measure the detector")
	}
	o := Options{Seed: 1, Quick: true, Workload: "LoR", Scale: 0.2,
		Tuners: []string{search.SpotTuneName}, Policies: []string{policy.SpotTuneName}}.withDefaults()
	blocks, err := Matrix{Specs: DefaultSpecs()[:1]}.buildBlocks(o)
	if err != nil {
		t.Fatal(err)
	}
	b := blocks[0]

	campaignOpt := campaign.Options{Theta: 0.7, Seed: 5}
	runCampaign := func() {
		if _, err := b.env.RunPolicy(b.bench, b.curves, campaignOpt); err != nil {
			t.Fatal(err)
		}
	}
	memo := earlycurve.NewFitMemo()
	job := cellJob{block: b, tuner: search.SpotTuneName, strategy: o.Strategies[0], policy: policy.SpotTuneName}
	runOneCell := func() {
		if _, err := runCell(job, o, memo); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name      string
		run       func()
		maxAllocs float64
		maxBytes  uint64
	}{
		{"campaign", runCampaign, 231, 68_200},   // measured 210 and 61,952
		{"stream cell", runOneCell, 316, 93_100}, // measured 287 and 84,633
	} {
		c.run() // warm the templates and the fit memo
		allocs, bytes := allocsAndBytes(10, c.run)
		t.Logf("%s: %.0f allocations, %d bytes", c.name, allocs, bytes)
		if allocs > c.maxAllocs {
			t.Errorf("%s allocates %.0f objects, pinned at most %.0f", c.name, allocs, c.maxAllocs)
		}
		if bytes > c.maxBytes {
			t.Errorf("%s allocates %d bytes, pinned at most %d", c.name, bytes, c.maxBytes)
		}
	}
}
