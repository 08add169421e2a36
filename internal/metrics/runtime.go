package metrics

import rtmetrics "runtime/metrics"

// RuntimeStats is a process's garbage collector at one instant, the
// "runtime" object of GET /spi/stats on servers and gateways alike: what a
// GC percent costs (cycles, CPU) beside what it buys (the heap goal against
// the live heap).
type RuntimeStats struct {
	// GCCycles counts completed GC cycles since the process started.
	GCCycles uint64 `json:"gc_cycles"`
	// GCCPUSeconds is the runtime's estimate of the CPU time spent on GC
	// since the process started, over all threads.
	GCCPUSeconds float64 `json:"gc_cpu_seconds"`
	// HeapGoalBytes is the heap size at which the next cycle starts.
	HeapGoalBytes uint64 `json:"heap_goal_bytes"`
	// HeapLiveBytes is the heap the last cycle marked live.
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
	// GCPercent is the GC percent in effect; -1 when GC is off.
	GCPercent int64 `json:"gc_percent"`
}

// runtimeMetrics names the runtime/metrics samples ReadRuntime takes, in the
// order it reads them.
var runtimeMetrics = [...]string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/goal:bytes",
	"/gc/heap/live:bytes",
	"/gc/gogc:percent",
}

// ReadRuntime samples the process's garbage collector.
func ReadRuntime() RuntimeStats {
	var samples [len(runtimeMetrics)]rtmetrics.Sample
	for i, name := range runtimeMetrics {
		samples[i].Name = name
	}
	rtmetrics.Read(samples[:])
	return RuntimeStats{
		GCCycles:      samples[0].Value.Uint64(),
		GCCPUSeconds:  samples[1].Value.Float64(),
		HeapGoalBytes: samples[2].Value.Uint64(),
		HeapLiveBytes: samples[3].Value.Uint64(),
		// The runtime reports an off GC as the percent -1 stored unsigned.
		GCPercent: int64(samples[4].Value.Uint64()),
	}
}
