// Package simclock provides virtual and wall clocks plus a deterministic
// discrete-event Engine for simulation.
//
// All SpotTune simulations run against a Clock interface so that an entire
// multi-day hyper-parameter-tuning campaign can be replayed in milliseconds
// of wall time while examples that drive real training use the wall clock
// unchanged. The Virtual clock is a thin facade over the Engine; simulation
// cores that know their next trigger time advance the Engine directly
// instead of sleeping in fixed-size polls.
package simclock

import (
	"time"
)

// Clock abstracts time for simulation. Wall is safe for concurrent use. A
// Virtual clock has one owner, like the Engine under it: the goroutine that
// advances it is the only one that may call it, and campaigns that share
// one take turns on that goroutine.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep advances the clock by d (virtual clocks) or blocks for d
	// (wall clocks).
	Sleep(d time.Duration)
}

// Wall is a Clock backed by the real system clock.
type Wall struct{}

var _ Clock = Wall{}

// Now implements Clock.
func (Wall) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Wall) Sleep(d time.Duration) { time.Sleep(d) }

// Virtual is a manually advanced clock over a discrete-event Engine.
// The zero value is not usable; construct with NewVirtual.
type Virtual struct {
	Engine
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock starting at the given instant.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{Engine: Engine{now: start}}
}

// Sleep advances the clock by d, firing any events scheduled in (now, now+d].
// Negative durations are ignored.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.RunUntil(v.Now().Add(d))
}

// AdvanceTo moves the clock to target, firing all pending events with
// At <= target in chronological (then insertion) order. If target is before
// the current time, it is a no-op.
func (v *Virtual) AdvanceTo(target time.Time) {
	v.RunUntil(target)
}

// NextEventTime returns the due time of the earliest pending event, or
// ok=false when the queue is empty.
func (v *Virtual) NextEventTime() (at time.Time, ok bool) {
	return v.Peek()
}
