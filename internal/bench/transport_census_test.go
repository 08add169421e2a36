//go:build shapecensus

package bench

import "testing"

// TestTransportRows runs the transport figure once at reps 1. It takes about
// ten seconds, too long for the plain test run, so it is built only with
// -tags shapecensus and `make shape-census` runs it once on a line of its
// own. The pipelined row pays about one round trip of 120 ms per connection
// where the serial row pays eight, so it must come out ahead.
func TestTransportRows(t *testing.T) {
	skipTiming(t)
	r, err := RunTransport(1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "transport", printedAblation(r))
	if len(r.Rows) == 2 && r.Rows[1].Millis >= r.Rows[0].Millis {
		t.Errorf("pipelined %.2fms should beat serial keep-alive %.2fms", r.Rows[1].Millis, r.Rows[0].Millis)
	}
}
