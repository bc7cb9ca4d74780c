//go:build race

package trial_test

// raceEnabled reports whether the race detector is on. It drops sync.Pool
// items at random and instruments sync.Map, so allocation guards skip
// under it.
const raceEnabled = true
