package heapfloor

import (
	"runtime/debug"
	"testing"
)

// TestSetYieldsToGOGC checks that Set puts the process at percent when GOGC
// is unset and leaves the percent in effect alone when the operator has set
// it, to a number or to off.
func TestSetYieldsToGOGC(t *testing.T) {
	const sentinel = 123 // a percent neither the runtime nor Set would pick
	for _, tc := range []struct {
		name, gogc string
		want       int
	}{
		{"unset", "", percent},
		{"200", "200", sentinel},
		{"off", "off", sentinel},
	} {
		t.Run("GOGC="+tc.name, func(t *testing.T) {
			t.Setenv("GOGC", tc.gogc)
			prev := debug.SetGCPercent(sentinel)
			defer debug.SetGCPercent(prev)
			Set()
			if got := debug.SetGCPercent(sentinel); got != tc.want {
				t.Errorf("GC percent after Set = %d, want %d", got, tc.want)
			}
		})
	}
}
