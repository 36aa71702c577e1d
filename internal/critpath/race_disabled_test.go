//go:build !race

package critpath_test

const raceEnabled = false
