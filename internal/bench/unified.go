package bench

import "fmt"

// RunUnifiedFastPath prices the server's entry-granular features on its one
// dispatch pipeline. The experiment runs the packed M=16 echo workload bare
// and with WS-Security, so the table shows what verification costs on top of
// bare streaming (target: within ~1.15× of bare).
func RunUnifiedFastPath(reps int) (*AblationResult, error) {
	const m = 16
	var c comparison
	defer c.close()
	for _, v := range []struct {
		name string
		opt  EnvOptions
		note string
	}{
		{"streaming, bare", EnvOptions{},
			"the fast path, no features"},
		{"streaming + WSSE", EnvOptions{WSSecurity: true},
			"entries decoded as they stream, executed once the signature verifies"},
	} {
		// 10 B payloads, the Figure 5 regime.
		if _, err := c.echo(v.name, v.note, v.opt, OurApproach, m, "aaaaaaaaaa"); err != nil {
			return nil, err
		}
	}
	return c.table(fmt.Sprintf(
		"Unified fast path: packed echo (M=%d, 10 B payloads), feature cost on the streaming pipeline", m), 1, reps)
}
