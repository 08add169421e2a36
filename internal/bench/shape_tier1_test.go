//go:build !shapecensus

package bench

// wallClockShapes is off in the plain test run, where other packages' tests
// share the CPUs; see shape_census_test.go.
const wallClockShapes = false
