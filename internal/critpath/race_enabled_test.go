//go:build race

package critpath_test

// raceEnabled: the race detector slows a run about tenfold, and the
// exactness sweeps drive one goroutine per run, so under it they check
// the sample (sweepPrograms).
const raceEnabled = true
