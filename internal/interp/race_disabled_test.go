//go:build !race

package interp_test

const raceEnabled = false
