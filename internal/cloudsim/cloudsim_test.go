package cloudsim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"spottune/internal/market"
	"spottune/internal/simclock"
)

var t0 = time.Date(2017, 4, 26, 0, 0, 0, 0, time.UTC)

// fixture builds a cluster over a single hand-crafted market "r4.large":
// price 0.04 from t0, spikes to 0.5 at +90min, back to 0.04 at +100min.
func fixture(t *testing.T) (*Cluster, *simclock.Virtual) {
	t.Helper()
	cat := market.MustNewCatalog([]market.InstanceType{
		{Name: "r4.large", CPUs: 2, MemoryGB: 15.25, OnDemandPrice: 0.133},
	})
	tr := &market.Trace{Type: "r4.large", Records: []market.Record{
		{At: t0, Price: 0.04},
		{At: t0.Add(90 * time.Minute), Price: 0.5},
		{At: t0.Add(100 * time.Minute), Price: 0.04},
	}}
	clk := simclock.NewVirtual(t0)
	c, err := NewCluster(clk, cat, market.TraceSet{"r4.large": tr})
	if err != nil {
		t.Fatal(err)
	}
	return c, clk
}

func TestNewClusterValidation(t *testing.T) {
	cat := market.MustNewCatalog([]market.InstanceType{
		{Name: "a", CPUs: 1, MemoryGB: 4, OnDemandPrice: 1},
	})
	clk := simclock.NewVirtual(t0)
	if _, err := NewCluster(nil, cat, market.TraceSet{}); err == nil {
		t.Error("nil clock accepted")
	}
	if _, err := NewCluster(clk, cat, market.TraceSet{}); err == nil {
		t.Error("missing trace accepted")
	}
}

// TestRequestSpotRejectsLowMax: a bid under the market price fails with an
// error that matches ErrPriceAboveMax and reads as the quote it lost to.
// The rejection is a typed value that formats only when read, so it costs
// one allocation and no fmt call.
func TestRequestSpotRejectsLowMax(t *testing.T) {
	c, _ := fixture(t)
	_, err := c.RequestSpot("r4.large", 0.01, nil)
	if !errors.Is(err, ErrPriceAboveMax) {
		t.Fatalf("request below market: got %v, want ErrPriceAboveMax", err)
	}
	const want = "cloudsim: market price above requested maximum: r4.large at 0.0400 > max 0.0100"
	if err.Error() != want {
		t.Fatalf("message %q, want %q", err.Error(), want)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := c.RequestSpot("r4.large", 0.01, nil); err == nil {
			t.Fatal("request below market accepted")
		}
	}); avg != 1 {
		t.Errorf("a price rejection allocates %.1f times, want 1 (the error value)", avg)
	}
	if _, err := c.RequestSpot("nope", 1, nil); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestSpotLifetimeNoticeAndRevocation(t *testing.T) {
	c, clk := fixture(t)
	var noticeAt time.Time
	inst, err := c.RequestSpot("r4.large", 0.1, func(_ *Instance, now time.Time) {
		noticeAt = now
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Running() || inst.State != StateRunning {
		t.Fatalf("fresh instance state %v", inst.State)
	}
	// Price exceeds 0.1 at +90min; notice should fire at +88min.
	clk.AdvanceTo(t0.Add(89 * time.Minute))
	if want := t0.Add(88 * time.Minute); !noticeAt.Equal(want) {
		t.Fatalf("notice at %v, want %v", noticeAt, want)
	}
	if inst.State != StateNoticed {
		t.Fatalf("state after notice = %v", inst.State)
	}
	clk.AdvanceTo(t0.Add(91 * time.Minute))
	if inst.State != StateRevoked {
		t.Fatalf("state after revocation = %v", inst.State)
	}
	if want := t0.Add(90 * time.Minute); !inst.EndedAt.Equal(want) {
		t.Fatalf("ended at %v, want %v", inst.EndedAt, want)
	}
}

func TestRevocationWithinFirstHourRefunds(t *testing.T) {
	c, clk := fixture(t)
	// Revoked at +90min > 1h: NO refund.
	if _, err := c.RequestSpot("r4.large", 0.1, nil); err != nil {
		t.Fatal(err)
	}
	clk.AdvanceTo(t0.Add(2 * time.Hour))
	led := c.Ledger()
	if len(led.Records) != 1 {
		t.Fatalf("ledger has %d records", len(led.Records))
	}
	u := led.Records[0]
	if u.End != EndRevoked {
		t.Fatalf("end reason %v", u.End)
	}
	if u.Refunded != 0 {
		t.Fatalf("refund %v for revocation after first hour", u.Refunded)
	}
	wantGross := 0.04 * 1.5 // 90 minutes at 0.04/hr
	if math.Abs(u.GrossCost-wantGross) > 1e-9 {
		t.Fatalf("gross %v, want %v", u.GrossCost, wantGross)
	}
}

func TestRefundInsideFirstHour(t *testing.T) {
	cat := market.MustNewCatalog([]market.InstanceType{
		{Name: "x", CPUs: 1, MemoryGB: 4, OnDemandPrice: 0.1},
	})
	tr := &market.Trace{Type: "x", Records: []market.Record{
		{At: t0, Price: 0.02},
		{At: t0.Add(30 * time.Minute), Price: 0.9},
	}}
	clk := simclock.NewVirtual(t0)
	c, err := NewCluster(clk, cat, market.TraceSet{"x": tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RequestSpot("x", 0.05, nil); err != nil {
		t.Fatal(err)
	}
	clk.AdvanceTo(t0.Add(time.Hour))
	u := c.Ledger().Records[0]
	if u.End != EndRevoked {
		t.Fatalf("end %v", u.End)
	}
	if u.GrossCost <= 0 {
		t.Fatal("gross cost should be positive")
	}
	if u.Refunded != u.GrossCost {
		t.Fatalf("refund %v != gross %v inside first hour", u.Refunded, u.GrossCost)
	}
}

func TestUserTerminationNoRefund(t *testing.T) {
	cat := market.MustNewCatalog([]market.InstanceType{
		{Name: "x", CPUs: 1, MemoryGB: 4, OnDemandPrice: 0.1},
	})
	tr := &market.Trace{Type: "x", Records: []market.Record{
		{At: t0, Price: 0.02},
		{At: t0.Add(30 * time.Minute), Price: 0.9},
	}}
	clk := simclock.NewVirtual(t0)
	c, err := NewCluster(clk, cat, market.TraceSet{"x": tr})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := c.RequestSpot("x", 0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk.AdvanceTo(t0.Add(10 * time.Minute))
	if err := c.Terminate(inst.ID); err != nil {
		t.Fatal(err)
	}
	u := c.Ledger().Records[0]
	if u.End != EndUserTerminated || u.Refunded != 0 {
		t.Fatalf("usage %+v", u)
	}
	want := 0.02 * (10.0 / 60.0)
	if math.Abs(u.GrossCost-want) > 1e-9 {
		t.Fatalf("gross %v, want %v", u.GrossCost, want)
	}
	// No revocation events fire later for a terminated instance.
	clk.AdvanceTo(t0.Add(2 * time.Hour))
	if len(c.Ledger().Records) != 1 {
		t.Fatal("terminated instance settled twice")
	}
	if inst.State != StateTerminated {
		t.Fatalf("state %v", inst.State)
	}
}

func TestTerminateErrors(t *testing.T) {
	c, clk := fixture(t)
	if err := c.Terminate("i-999999"); err == nil {
		t.Error("unknown instance terminated")
	}
	inst, err := c.RequestSpot("r4.large", 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk.AdvanceTo(clk.Now().Add(time.Minute))
	if err := c.Terminate(inst.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Terminate(inst.ID); err == nil {
		t.Error("double terminate accepted")
	}
}

func TestHighMaxPriceNeverRevoked(t *testing.T) {
	c, clk := fixture(t)
	inst, err := c.RequestSpot("r4.large", 10.0, nil) // far above any spike
	if err != nil {
		t.Fatal(err)
	}
	clk.AdvanceTo(t0.Add(6 * time.Hour))
	if !inst.Running() {
		t.Fatalf("instance with high max revoked: %v", inst.State)
	}
}

func TestOnDemandBilling(t *testing.T) {
	c, clk := fixture(t)
	inst, err := c.RequestOnDemand("r4.large")
	if err != nil {
		t.Fatal(err)
	}
	clk.AdvanceTo(t0.Add(3 * time.Hour)) // outlives the spot spike
	if !inst.Running() {
		t.Fatal("on-demand instance revoked")
	}
	if err := c.Terminate(inst.ID); err != nil {
		t.Fatal(err)
	}
	u := c.Ledger().Records[0]
	want := 0.133 * 3
	if math.Abs(u.GrossCost-want) > 1e-9 {
		t.Fatalf("on-demand gross %v, want %v", u.GrossCost, want)
	}
	if u.Refunded != 0 {
		t.Fatal("on-demand got a refund")
	}
}

func TestCurrentAndAvgPrice(t *testing.T) {
	c, clk := fixture(t)
	p, err := c.CurrentPrice("r4.large")
	if err != nil || p != 0.04 {
		t.Fatalf("CurrentPrice = %v, %v", p, err)
	}
	clk.AdvanceTo(t0.Add(95 * time.Minute))
	p, _ = c.CurrentPrice("r4.large")
	if p != 0.5 {
		t.Fatalf("CurrentPrice during spike = %v", p)
	}
	// Average over the past hour at +95min: 55 min at 0.04, 5 min at 0.5.
	avg, err := c.AvgPriceLastHour("r4.large")
	if err != nil {
		t.Fatal(err)
	}
	want := (0.04*55 + 0.5*5) / 60
	if math.Abs(avg-want) > 1e-9 {
		t.Fatalf("AvgPriceLastHour = %v, want %v", avg, want)
	}
	if _, err := c.CurrentPrice("nope"); err == nil {
		t.Error("unknown market accepted")
	}
	if _, err := c.AvgPriceLastHour("nope"); err == nil {
		t.Error("unknown market accepted")
	}
}

func TestImmediateNoticeWhenExceedIsNear(t *testing.T) {
	cat := market.MustNewCatalog([]market.InstanceType{
		{Name: "x", CPUs: 1, MemoryGB: 4, OnDemandPrice: 0.1},
	})
	tr := &market.Trace{Type: "x", Records: []market.Record{
		{At: t0, Price: 0.02},
		{At: t0.Add(time.Minute), Price: 0.9}, // exceed in 1 min < lead time
	}}
	clk := simclock.NewVirtual(t0)
	c, err := NewCluster(clk, cat, market.TraceSet{"x": tr})
	if err != nil {
		t.Fatal(err)
	}
	var noticeAt time.Time
	if _, err := c.RequestSpot("x", 0.05, func(_ *Instance, now time.Time) { noticeAt = now }); err != nil {
		t.Fatal(err)
	}
	clk.AdvanceTo(t0.Add(2 * time.Minute))
	if !noticeAt.Equal(t0) {
		t.Fatalf("clamped notice at %v, want %v", noticeAt, t0)
	}
}

func TestRunningInstancesSorted(t *testing.T) {
	c, _ := fixture(t)
	for i := 0; i < 3; i++ {
		if _, err := c.RequestSpot("r4.large", 10, nil); err != nil {
			t.Fatal(err)
		}
	}
	insts := c.RunningInstances()
	if len(insts) != 3 {
		t.Fatalf("%d running", len(insts))
	}
	for i := 1; i < len(insts); i++ {
		if insts[i-1].ID >= insts[i].ID {
			t.Fatal("not sorted")
		}
	}
	if _, ok := c.Instance(insts[0].ID); !ok {
		t.Error("Instance lookup failed")
	}
}

func TestUploadSpeedCalibration(t *testing.T) {
	// §IV-F anchor points.
	if got := UploadSpeedMBps(1); math.Abs(got-62.83) > 0.01 {
		t.Errorf("speed(1 core) = %v, want 62.83", got)
	}
	if got := UploadSpeedMBps(16); math.Abs(got-134.22) > 0.01 {
		t.Errorf("speed(16 cores) = %v, want 134.22", got)
	}
	if got := UploadSpeedMBps(0); got != 62.83 {
		t.Errorf("speed(0) = %v, want clamp to 1 core", got)
	}
	// Max model sizes: 7.36 GB and 15.73 GB.
	if got := MaxModelSizeMB(1) / 1024; math.Abs(got-7.36) > 0.01 {
		t.Errorf("max model (1 core) = %vGB, want 7.36", got)
	}
	if got := MaxModelSizeMB(16) / 1024; math.Abs(got-15.73) > 0.01 {
		t.Errorf("max model (16 cores) = %vGB, want 15.73", got)
	}
}

func TestObjectStorePutGet(t *testing.T) {
	o := NewObjectStore()
	data := make([]byte, 1<<20) // 1 MB
	for i := range data {
		data[i] = byte(i)
	}
	d := o.PutSized("ckpt/1", data, 1, 16)
	wantSecs := 1.0 / 134.2175
	if math.Abs(d.Seconds()-wantSecs) > 1e-4 {
		t.Errorf("put duration %v, want ~%vs", d, wantSecs)
	}
	got, gd, err := o.Get("ckpt/1", 16)
	if err != nil {
		t.Fatal(err)
	}
	if gd <= 0 {
		t.Error("get duration not positive")
	}
	if len(got) != len(data) || got[12345] != data[12345] {
		t.Error("blob corrupted")
	}
	// Returned copy must not alias the stored blob.
	got[0] ^= 0xff
	again, _, _ := o.Get("ckpt/1", 1)
	if again[0] != data[0] {
		t.Error("Get returned aliased storage")
	}
	if !o.Exists("ckpt/1") || o.Exists("nope") {
		t.Error("Exists wrong")
	}
	if _, _, err := o.Get("nope", 1); err == nil {
		t.Error("Get of a missing key succeeded")
	}
}

func TestObjectStoreStats(t *testing.T) {
	o := NewObjectStore()
	o.PutSized("a", make([]byte, 2<<20), 2, 1)
	o.PutSized("b", make([]byte, 1<<20), 1, 1)
	if _, _, err := o.Get("a", 1); err != nil {
		t.Fatal(err)
	}
	s := o.Stats()
	if s.PutOps != 2 || s.GetOps != 1 {
		t.Fatalf("ops %d/%d", s.PutOps, s.GetOps)
	}
	if s.PutBytes != 3<<20 || s.GetBytes != 2<<20 {
		t.Fatalf("bytes %d/%d", s.PutBytes, s.GetBytes)
	}
}

// Property: for any spot lifetime, 0 <= refund <= gross, and refunds only on
// provider revocations within the first hour.
func TestBillingInvariantProperty(t *testing.T) {
	f := func(seed uint64, maxCents uint16, lifeMin uint16) bool {
		spec := market.MarketSpec{Type: market.InstanceType{
			Name: "x", CPUs: 4, MemoryGB: 8, OnDemandPrice: 0.4,
		}}
		tr, err := market.Generate(spec, t0, t0.Add(48*time.Hour), seed)
		if err != nil {
			return false
		}
		cat := market.MustNewCatalog([]market.InstanceType{spec.Type})
		clk := simclock.NewVirtual(t0)
		c, err := NewCluster(clk, cat, market.TraceSet{"x": tr})
		if err != nil {
			return false
		}
		maxPrice := 0.01 + float64(maxCents%200)/1000
		inst, err := c.RequestSpot("x", maxPrice, nil)
		if err != nil {
			return true // below market at t0: correctly rejected
		}
		// Let it run, then terminate if still alive.
		clk.AdvanceTo(t0.Add(time.Duration(1+lifeMin%2880) * time.Minute))
		if inst.Running() {
			if err := c.Terminate(inst.ID); err != nil {
				return false
			}
		}
		u := c.Ledger().Records[0]
		if u.GrossCost < 0 || u.Refunded < 0 || u.Refunded > u.GrossCost+1e-12 {
			return false
		}
		if u.Refunded > 0 {
			if u.End != EndRevoked || u.Duration() > RefundWindow {
				return false
			}
			if u.Refunded != u.GrossCost {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------- horizon

func TestNextPriceTick(t *testing.T) {
	c, clk := fixture(t)
	at, ok := c.NextPriceTick("r4.large")
	if !ok || !at.Equal(t0.Add(90*time.Minute)) {
		t.Fatalf("NextPriceTick = %v,%v, want +90m", at, ok)
	}
	clk.AdvanceTo(t0.Add(95 * time.Minute))
	at, ok = c.NextPriceTick("r4.large")
	if !ok || !at.Equal(t0.Add(100*time.Minute)) {
		t.Fatalf("NextPriceTick after spike = %v,%v, want +100m", at, ok)
	}
	clk.AdvanceTo(t0.Add(200 * time.Minute))
	if _, ok := c.NextPriceTick("r4.large"); ok {
		t.Fatal("flat-forever trace still reports a tick")
	}
	if _, ok := c.NextPriceTick("nope"); ok {
		t.Fatal("unknown market reported a tick")
	}
	if at, ok := c.NextMarketTick(nil); ok || !at.IsZero() {
		t.Fatal("NextMarketTick on quiescent markets reported a tick")
	}
}

func TestNextInstanceEventAndInterestingAt(t *testing.T) {
	c, clk := fixture(t)
	if _, ok := c.NextInstanceEvent(); ok {
		t.Fatal("no instances yet, but an instance event is pending")
	}
	inst, err := c.RequestSpot("r4.large", 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Price exceeds 0.1 at +90min, so the notice is due at +88min.
	at, ok := c.NextInstanceEvent()
	if !ok || !at.Equal(t0.Add(88*time.Minute)) {
		t.Fatalf("NextInstanceEvent = %v,%v, want notice at +88m", at, ok)
	}
	if dl := inst.RefundDeadline(); !dl.Equal(t0.Add(time.Hour)) {
		t.Fatalf("RefundDeadline = %v", dl)
	}
	// The overall horizon is the earliest of refund boundary (+60m),
	// notice (+88m), and price tick (+90m).
	at, ok = c.NextInterestingAt(nil)
	if !ok || !at.Equal(t0.Add(time.Hour)) {
		t.Fatalf("NextInterestingAt = %v,%v, want refund boundary", at, ok)
	}
	// After the notice fires the revocation remains the next instance event.
	clk.AdvanceTo(t0.Add(89 * time.Minute))
	at, ok = c.NextInstanceEvent()
	if !ok || !at.Equal(t0.Add(90*time.Minute)) {
		t.Fatalf("NextInstanceEvent after notice = %v,%v, want revoke at +90m", at, ok)
	}
	clk.AdvanceTo(t0.Add(91 * time.Minute))
	if _, ok := c.NextInstanceEvent(); ok {
		t.Fatal("revoked instance still reports pending events")
	}
}
