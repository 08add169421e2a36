//go:build shapecensus

package bench

// wallClockShapes turns on the timing comparisons that lose to a busy
// machine: `make shape-census` builds with -tags shapecensus and runs them
// twenty times on their own.
const wallClockShapes = true
