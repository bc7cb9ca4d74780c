package service

import (
	"errors"
	"math"
	"testing"
	"time"
)

// FuzzServiceConfig runs tiny batteries (at most 16 tenants, on one
// prebuilt constant-predictor environment) under fuzzed service configs:
// shard count, in-flight cap, admission policy, budget and deadline caps
// with per-tenant budgets and deadlines on either side of them, contention,
// capacity and surge slope. Run must never panic; with contention on, a
// negative or non-finite surge slope must be an error and anything else
// must run. A run must account for every tenant exactly once (admitted +
// rejected + failed = tenants), deliver no report for a rejected tenant,
// isolate no tenant panic, and pass the capacity audit.
func FuzzServiceConfig(f *testing.F) {
	env, bench, curves := testWorld(f)
	f.Add(uint8(4), uint64(7), uint8(2), uint8(3), uint8(0), 10.0, int64(200*time.Hour), uint64(0x1234), false, int8(0), 0.0)
	f.Add(uint8(16), uint64(31), uint8(1), uint8(6), uint8(1), 0.0, int64(0), uint64(0), true, int8(2), 0.5)
	f.Add(uint8(6), uint64(5), uint8(3), uint8(0), uint8(2), 5.0, int64(time.Hour), uint64(0xfedcba9876543210), true, int8(-3), 4.0)
	f.Add(uint8(3), uint64(9), uint8(1), uint8(1), uint8(0), 0.0, int64(0), uint64(0), true, int8(1), -1.0)
	f.Add(uint8(2), uint64(9), uint8(2), uint8(2), uint8(1), math.Inf(1), int64(-1), uint64(0xff), true, int8(1), math.NaN())
	f.Fuzz(func(t *testing.T, n uint8, seed uint64, shards, inFlight, admission uint8,
		maxBudget float64, maxDeadline int64, tenantCaps uint64,
		contention bool, capacity int8, surge float64) {
		tenants := DefaultBattery(int(n%17), seed)
		// Four bits a tenant pick its budget and deadline: none, half the
		// cap, twice the cap, or a fixed value.
		budgets := []float64{0, maxBudget / 2, maxBudget * 2, 5}
		deadlines := []time.Duration{0, time.Duration(maxDeadline / 2), time.Duration(maxDeadline) * 2, 100 * time.Hour}
		for i := range tenants {
			bits := tenantCaps >> (4 * (i % 16))
			tenants[i].Budget = budgets[bits&3]
			tenants[i].Deadline = deadlines[bits>>2&3]
		}
		cfg := Config{
			Shards:      int(shards % 9),
			MaxInFlight: int(inFlight % 17),
			Admission:   []string{"", AdmissionFIFO, AdmissionWeightedFair}[admission%3],
			MaxBudget:   maxBudget,
			MaxDeadline: time.Duration(maxDeadline),
			Contention:  contention,
			Capacity:    int(capacity),
			SurgeSlope:  surge,
		}
		delivered := 0
		cfg.OnResult = func(r Result) {
			delivered++
			if !r.Admitted && r.Report != nil {
				t.Errorf("rejected tenant %s (%s) carries a report", r.Tenant.ID, r.Reason)
			}
			if errors.Is(r.Err, ErrTenantPanicked) {
				t.Errorf("tenant %s panicked: %v", r.Tenant.ID, r.Err)
			}
		}
		sum, err := Run(env, bench, curves, tenants, cfg)
		badSlope := surge < 0 || math.IsNaN(surge) || math.IsInf(surge, 0)
		if contention && badSlope {
			if err == nil {
				t.Fatalf("contended run accepted surge slope %v", surge)
			}
			return
		}
		if err != nil {
			t.Fatalf("config %+v: %v", cfg, err)
		}
		if sum.Tenants != len(tenants) || delivered != len(tenants) {
			t.Fatalf("%d tenants, summary counts %d, %d results delivered", len(tenants), sum.Tenants, delivered)
		}
		if got := sum.Admitted + sum.Rejected + sum.Failed; got != len(tenants) {
			t.Fatalf("admitted %d + rejected %d + failed %d = %d, want %d tenants",
				sum.Admitted, sum.Rejected, sum.Failed, got, len(tenants))
		}
		if len(sum.Capacity) != 0 {
			t.Fatalf("capacity audit findings: %v", sum.Capacity)
		}
	})
}
