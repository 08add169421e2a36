package metrics

import rtmetrics "runtime/metrics"

// RuntimeStats is a process's garbage collector and memory at one instant,
// the "runtime" object of GET /spi/stats on servers and gateways alike: what
// a GC percent costs (cycles, CPU) beside what it buys (the heap goal against
// the live heap), and where the runtime's share of the resident set goes
// (the runtime/metrics /memory/classes/* the process holds).
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

	// HeapObjectsBytes is the heap held by objects, live or not yet swept.
	HeapObjectsBytes uint64 `json:"heap_objects_bytes"`
	// HeapUnusedBytes is the heap in spans that hold objects but not in any
	// object: the fragmentation of in-use spans.
	HeapUnusedBytes uint64 `json:"heap_unused_bytes"`
	// HeapFreeBytes is the heap in free spans not yet returned to the OS.
	HeapFreeBytes uint64 `json:"heap_free_bytes"`
	// StacksBytes is goroutine stacks plus the OS threads' own stacks.
	StacksBytes uint64 `json:"stacks_bytes"`
	// MetadataBytes is the runtime's own bookkeeping: span and per-P cache
	// structures, GC and other metadata.
	MetadataBytes uint64 `json:"metadata_bytes"`
	// ProfilingBucketsBytes is the memory of the profiling buckets (the
	// heap, block and mutex profiles' stacks). Nearly all of it is the
	// runtime's fixed hash table of 179 999 slots, 1.44 MB mapped at start,
	// of which only the pages a profiled stack hashes to are resident.
	ProfilingBucketsBytes uint64 `json:"profiling_buckets_bytes"`
}

// runtimeMetrics names the runtime/metrics samples ReadRuntime takes, in the
// order it reads them.
var runtimeMetrics = [...]string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/goal:bytes",
	"/gc/heap/live:bytes",
	"/gc/gogc:percent",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/memory/classes/heap/free:bytes",
	"/memory/classes/heap/stacks:bytes",
	"/memory/classes/os-stacks:bytes",
	"/memory/classes/metadata/mcache/free:bytes",
	"/memory/classes/metadata/mcache/inuse:bytes",
	"/memory/classes/metadata/mspan/free:bytes",
	"/memory/classes/metadata/mspan/inuse:bytes",
	"/memory/classes/metadata/other:bytes",
	"/memory/classes/profiling/buckets:bytes",
}

// ReadRuntime samples the process's garbage collector and memory classes.
func ReadRuntime() RuntimeStats {
	var samples [len(runtimeMetrics)]rtmetrics.Sample
	for i, name := range runtimeMetrics {
		samples[i].Name = name
	}
	rtmetrics.Read(samples[:])
	u := func(i int) uint64 { return samples[i].Value.Uint64() }
	return RuntimeStats{
		GCCycles:      u(0),
		GCCPUSeconds:  samples[1].Value.Float64(),
		HeapGoalBytes: u(2),
		HeapLiveBytes: u(3),
		// The runtime reports an off GC as the percent -1 stored unsigned.
		GCPercent:             int64(u(4)),
		HeapObjectsBytes:      u(5),
		HeapUnusedBytes:       u(6),
		HeapFreeBytes:         u(7),
		StacksBytes:           u(8) + u(9),
		MetadataBytes:         u(10) + u(11) + u(12) + u(13) + u(14),
		ProfilingBucketsBytes: u(15),
	}
}
