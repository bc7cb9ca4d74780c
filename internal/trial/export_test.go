package trial

// Internals the external noise tests (noise_test.go, package trial_test)
// check. They live outside this package so they can read the built-in
// suites' HP IDs from package workload, which imports this one.
var (
	FNVFold = fnvFold
	FNVTail = fnvTail
)

// FNVOffset is the FNV-1a offset basis.
const FNVOffset = fnvOffset

// FNVTableFold is fnvFold(h, s) through the shared table for s.
func FNVTableFold(s string, h uint64) uint64 { return fnvStringOf(s).fold(h) }
