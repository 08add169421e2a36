package bench

import (
	"strings"
	"testing"
)

// TestFaultInjectionExperiment checks what the injection does, counted by
// each variant's client: the faulty serial runs retried, and so made more
// exchanges than the clean ones, while the clean runs retried nothing. The
// wall-clock cost of those retries is a timing shape, checked only where
// the shape census runs (wallClockShapes).
func TestFaultInjectionExperiment(t *testing.T) {
	skipTiming(t)
	r, err := RunFaultInjection(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
	var exchanges, retries [4]int64
	for i, row := range r.Rows {
		exchanges[i], retries[i] = row.client.Envelopes, row.client.Resilience.Retries
	}
	if retries[0] != 0 || retries[2] != 0 {
		t.Errorf("clean runs retried: serial %d, packed %d", retries[0], retries[2])
	}
	if retries[1] == 0 || exchanges[1] <= exchanges[0] {
		t.Errorf("faulty serial: %d exchanges, %d retries; want retries, and more exchanges than the clean serial's %d",
			exchanges[1], retries[1], exchanges[0])
	}
	serialClean, serialFaulty := r.Rows[0].Millis, r.Rows[1].Millis
	packedClean, packedFaulty := r.Rows[2].Millis, r.Rows[3].Millis
	// Faults plus backoff must cost the serial baseline something.
	if wallClockShapes && serialFaulty <= serialClean {
		t.Errorf("faulty serial %.2fms should exceed clean serial %.2fms", serialFaulty, serialClean)
	}
	// The packed approach keeps its Figure-5-shaped advantage under faults.
	if packedFaulty >= serialFaulty {
		t.Errorf("packed under faults %.2fms should beat serial under faults %.2fms", packedFaulty, serialFaulty)
	}
	if packedClean >= serialClean {
		t.Errorf("packed %.2fms should beat serial %.2fms on a clean link", packedClean, serialClean)
	}
}

func TestDeadlineDegradationExperiment(t *testing.T) {
	skipTiming(t)
	r, err := RunDeadlineDegradation(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(r.Rows))
	}
	// The run itself asserts the degradation semantics (fast entries all
	// resolve, the slow entry faults with Server.Timeout); here we check
	// the envelope came back around the budget, not after the slow op.
	if ms := r.Rows[0].Millis; ms < 20 || ms > 200 {
		t.Errorf("degraded round trip = %.2fms, want near the 40ms budget (not the 400ms op)", ms)
	}
	if !strings.Contains(r.Rows[0].Note, "degraded to Server.Timeout") {
		t.Errorf("note = %q", r.Rows[0].Note)
	}
}
