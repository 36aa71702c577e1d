//go:build race

package server

// raceEnabled: allocation counts vary under the race detector (sync.Pool,
// which fmt uses, drops items at random), so allocation bounds do not
// apply.
const raceEnabled = true
