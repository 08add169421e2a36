//go:build !race

package core

// raceEnabled reports that the race detector is not active.
const raceEnabled = false
