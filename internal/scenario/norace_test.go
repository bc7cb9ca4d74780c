//go:build !race

package scenario

// raceEnabled reports whether the race detector is on. It instruments
// every allocation, so allocation pins skip under it.
const raceEnabled = false
