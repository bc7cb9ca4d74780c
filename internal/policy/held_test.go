package policy_test

import (
	"fmt"
	"testing"
	"time"

	"spottune/internal/market"
	"spottune/internal/policy"
)

// heldPolicies are the policies built on the shared spot chooser, the ones
// that return a held request as it is.
var heldPolicies = []string{policy.SpotTuneName, policy.MixedFleetName, policy.FallbackName}

// countingParams is slotParams with every prediction counted in *n.
func countingParams(pool []string, cat *market.Catalog, n *int) policy.Params {
	p := slotParams(pool, cat)
	src := p.RevProb
	p.RevProb = func(name string) policy.RevProbFunc {
		f := src(name)
		if f == nil {
			return nil
		}
		return func(at time.Time, maxPrice float64) float64 {
			*n++
			return f(at, maxPrice)
		}
	}
	return p
}

// TestHeldRequestReturnedAsIs pins each spot-chooser policy's rule for
// TrialInfo.Held over a call-logging SlotMarket. Below spot-od-fallback's
// streak of 2, a held request comes back unchanged with no quote, no
// prediction and no bid-delta draw: after any number of held decisions the
// next unheld one bids what a fresh twin's first decision bids. The hold is
// ignored, and the decision is the unheld twin's with the same quotes, when
// the trial excludes a market or the held type is not a pool member.
func TestHeldRequestReturnedAsIs(t *testing.T) {
	pool := market.DefaultCatalog().Names()
	for _, name := range heldPolicies {
		t.Run(name, func(t *testing.T) {
			clk, c := slotWorld(t)
			var predictions int
			p := countingParams(pool, c.Catalog(), &predictions)
			holder, _ := policy.New(name, p)
			fresh, _ := policy.New(name, p)
			view := &bySlot{nameOnly: nameOnly{c: c}, names: map[int]string{}}
			h := policy.Request{TypeName: pool[2], MaxPrice: 0.123, RevProb: 0.1, AvgPrice: 0.1, StepCost: 1}
			info := policy.TrialInfo{ID: "t", MaxSteps: 100, SpotFailures: 1, Held: h}
			for i := 0; i < 5; i++ {
				clk.AdvanceTo(clk.Now().Add(3 * time.Minute))
				view.log, predictions = view.log[:0], 0
				got, err := holder.Decide(slotCtx(view, info, 0))
				if err != nil || got != h {
					t.Fatalf("held decision %d = %+v, %v; want the held %+v", i, got, err, h)
				}
				if len(view.log) != 0 || predictions != 0 {
					t.Fatalf("held decision %d quoted %v and made %d predictions", i, view.log, predictions)
				}
			}
			unheld := policy.TrialInfo{ID: "t", MaxSteps: 100, SpotFailures: 1}
			want, wantErr := fresh.Decide(slotCtx(c, unheld, 0))
			got, err := holder.Decide(slotCtx(c, unheld, 0))
			if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("first unheld decision after holds %+v, %v; a fresh twin's first %+v, %v", got, err, want, wantErr)
			}

			for _, tc := range []struct {
				why  string
				info policy.TrialInfo
			}{
				{"excluded market", policy.TrialInfo{ID: "t", MaxSteps: 100, SpotFailures: 1, Held: h, Exclude: pool[0]}},
				{"held type outside the pool", policy.TrialInfo{ID: "t", MaxSteps: 100, SpotFailures: 1,
					Held: policy.Request{TypeName: "x9.off", MaxPrice: 0.123}}},
			} {
				held, _ := policy.New(name, p)
				twin, _ := policy.New(name, p)
				plain := tc.info
				plain.Held = policy.Request{}
				twinView := &bySlot{nameOnly: nameOnly{c: c}, names: map[int]string{}}
				view.log = view.log[:0]
				for i := 0; i < 3; i++ {
					clk.AdvanceTo(clk.Now().Add(3 * time.Minute))
					view.log, twinView.log = view.log[:0], twinView.log[:0]
					got, err := held.Decide(slotCtx(view, tc.info, 0))
					want, wantErr := twin.Decide(slotCtx(twinView, plain, 0))
					if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Fatalf("%s, decision %d: %+v, %v; the unheld twin's %+v, %v", tc.why, i, got, err, want, wantErr)
					}
					if len(view.log) == 0 || fmt.Sprint(view.log) != fmt.Sprint(twinView.log) {
						t.Fatalf("%s, decision %d: quoted %v, the unheld twin %v", tc.why, i, view.log, twinView.log)
					}
				}
			}
		})
	}
}

// TestHeldKeepsFallbackStreakAndMixedFleetPin pins what the hold must not
// change. spot-od-fallback, under a predictor that is neither calm nor
// doomed, swaps to on-demand at its second consecutive spot failure with or
// without a held request, and a held request predicted inside the doom
// window is decided afresh; mixed-fleet pins the incumbent on-demand even
// when it holds a spot request.
func TestHeldKeepsFallbackStreakAndMixedFleetPin(t *testing.T) {
	pool := market.DefaultCatalog().Names()
	_, c := slotWorld(t)
	p := policy.Params{
		Pool: pool, Seed: 5, Catalog: c.Catalog(),
		RevProb: func(string) policy.RevProbFunc {
			return func(time.Time, float64) float64 { return 0.45 }
		},
	}
	swapAt := func(hold bool) int {
		pol, _ := policy.New(policy.FallbackName, p)
		var held policy.Request
		for streak := 0; streak < 5; streak++ {
			info := policy.TrialInfo{ID: "t", MaxSteps: 100, SpotFailures: streak}
			if hold {
				info.Held = held
			}
			req, err := pol.Decide(slotCtx(c, info, 0))
			if err != nil {
				t.Fatal(err)
			}
			if req.OnDemand {
				return streak
			}
			held = req // refused for want of capacity
		}
		return -1
	}
	if held, plain := swapAt(true), swapAt(false); held != plain || held != 2 {
		t.Fatalf("spot-od-fallback swapped to on-demand at streak %d with holds, %d without; want 2", held, plain)
	}

	doomed := policy.Request{TypeName: pool[1], MaxPrice: 0.5, RevProb: 0.7}
	pol, _ := policy.New(policy.FallbackName, p)
	if req, err := pol.Decide(slotCtx(c, policy.TrialInfo{ID: "t", SpotFailures: 1, Held: doomed}, 0)); err != nil || req == doomed {
		t.Fatalf("spot-od-fallback returned a held request inside the doom window: %+v, %v", req, err)
	}

	mixed, _ := policy.New(policy.MixedFleetName, p)
	spot := policy.Request{TypeName: pool[1], MaxPrice: 0.5}
	req, err := mixed.Decide(slotCtx(c, policy.TrialInfo{ID: "t", Incumbent: true, Held: spot}, 0))
	if err != nil || !req.OnDemand {
		t.Fatalf("mixed-fleet's incumbent with a held spot request got %+v, %v; want the on-demand pin", req, err)
	}
	if req, err := mixed.Decide(slotCtx(c, policy.TrialInfo{ID: "t", Incumbent: true, Held: spot}, 1)); err != nil || req != spot {
		t.Fatalf("mixed-fleet's incumbent with the pin taken got %+v, %v; want its held request", req, err)
	}
}
