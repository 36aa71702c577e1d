//go:build race

package interp_test

// raceEnabled: under the race detector sync.Pool drops items at random,
// so a Program's pooled run sets come and go and the warm-run allocation
// bounds do not apply; `make allocs` runs them without it.
const raceEnabled = true
