//go:build !race

package revpred

// raceEnabled reports whether the race detector is on. It drops sync.Pool
// items at random, so allocation guards on pooled paths skip under it.
const raceEnabled = false
