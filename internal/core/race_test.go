//go:build race

package core

// raceEnabled reports that the race detector is active. Under it sync.Pool
// drops what it is given at random, so an allocation count over pooled
// machinery is not exact.
const raceEnabled = true
