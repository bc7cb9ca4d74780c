package simclock

// pendingEvents reports how many events are queued.
func (v *Virtual) pendingEvents() int { return len(v.events) }
