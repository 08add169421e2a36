package metrics

import (
	"runtime"
	"runtime/debug"
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
