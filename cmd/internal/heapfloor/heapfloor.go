// Package heapfloor holds the one garbage-collector policy of the serving
// binaries, spiserver and spigateway. It is a package of the commands, not of
// the library: a program that embeds spi keeps the runtime's defaults unless
// it sets its own.
package heapfloor

import (
	"os"
	"runtime/debug"
)

// percent is the GC percent the serving binaries run at. The runtime's
// smallest heap goal is 4 MB × percent/100, and a loaded spiserver marks
// about 0.5 MB live, pooled buffers included: at the default 100 the heap
// fills to 4 MB with garbage between collections, and that garbage is most
// of the process's peak resident set. At 35 the goal is 1.4 MB, which takes
// about a quarter off each process's peak. GC runs about three times as
// often, at 2–6 % of a process's user CPU on small messages and about 19 % on
// 128 KiB ones (docs/PERFORMANCE.md, "The heap floor"). Of 25, 35 and 50,
// 35 is the largest that took the gateway workload's peak resident set 20 %
// under the default's.
const percent = 35

// Set puts the process at percent, unless the operator has set GOGC, whose
// value the runtime has already applied and which then stands. A GOMEMLIMIT
// in the environment is left to the runtime either way. Call it first in
// main, before the heap grows.
func Set() {
	if os.Getenv("GOGC") != "" {
		return
	}
	debug.SetGCPercent(percent)
}
