package admin

// SampleStats is the snapshot the package's own tests read and write, for
// the tests that drive it through a node and a client.
var SampleStats = sampleStats
