package metrics

import (
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"testing"
)

func TestReadRuntime(t *testing.T) {
	before := ReadRuntime()
	runtime.GC()
	after := ReadRuntime()
	if after.GCCycles <= before.GCCycles {
		t.Errorf("GCCycles %d -> %d across runtime.GC()", before.GCCycles, after.GCCycles)
	}
	if after.GCCPUSeconds < before.GCCPUSeconds {
		t.Errorf("GCCPUSeconds went back: %v -> %v", before.GCCPUSeconds, after.GCCPUSeconds)
	}
	if after.HeapGoalBytes == 0 || after.HeapLiveBytes == 0 {
		t.Errorf("heap goal %d, live %d: want both above zero", after.HeapGoalBytes, after.HeapLiveBytes)
	}
	prev := debug.SetGCPercent(42)
	defer debug.SetGCPercent(prev)
	if got := ReadRuntime().GCPercent; got != 42 {
		t.Errorf("GCPercent = %d after SetGCPercent(42)", got)
	}
	debug.SetGCPercent(-1)
	if got := ReadRuntime().GCPercent; got != -1 {
		t.Errorf("GCPercent = %d with GC off, want -1", got)
	}
}

// TestReadRuntimeMemoryClasses checks each memory class ReadRuntime reports:
// the ones every running Go process holds are above zero, and together the
// six never exceed the runtime's total mapped memory.
func TestReadRuntimeMemoryClasses(t *testing.T) {
	keep := make([][]byte, 64)
	for i := range keep {
		keep[i] = make([]byte, 4<<10)
	}
	r := ReadRuntime()
	runtime.KeepAlive(keep)
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"HeapObjectsBytes", r.HeapObjectsBytes},
		{"StacksBytes", r.StacksBytes},
		{"MetadataBytes", r.MetadataBytes},
	} {
		if c.v == 0 {
			t.Errorf("%s = 0, want above zero", c.name)
		}
	}
	total := []rtmetrics.Sample{{Name: "/memory/classes/total:bytes"}}
	rtmetrics.Read(total)
	sum := r.HeapObjectsBytes + r.HeapUnusedBytes + r.HeapFreeBytes + r.StacksBytes + r.MetadataBytes + r.ProfilingBucketsBytes
	if sum > total[0].Value.Uint64() {
		t.Errorf("memory classes sum to %d bytes, above the runtime's total %d", sum, total[0].Value.Uint64())
	}
}
