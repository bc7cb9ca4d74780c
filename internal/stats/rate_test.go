package stats

import "testing"

func TestExposureRate(t *testing.T) {
	var r ExposureRate
	if r.Rate() != 0 {
		t.Fatalf("zero-value rate %v, want 0 (no evidence, no estimate)", r.Rate())
	}
	// Events before exposure still yield no rate — never divide by zero.
	r.AddEvent()
	if r.Rate() != 0 {
		t.Fatalf("event-only rate %v, want 0", r.Rate())
	}
	r.AddExposure(2)
	r.AddEvent()
	if got := r.Rate(); got != 1 {
		t.Fatalf("2 events over 2 units → %v, want 1", got)
	}
	if r.events != 2 || r.exposure != 2 {
		t.Fatalf("(events, exposure) = (%v, %v), want (2, 2)", r.events, r.exposure)
	}
	// Negative exposure is ignored: observation time cannot run backwards.
	r.AddExposure(-100)
	if r.exposure != 2 {
		t.Fatalf("negative exposure accepted: %v", r.exposure)
	}
}
