//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put back, so byte-exact allocation ceilings do not hold.
const raceEnabled = true
