package bench

import "fmt"

// RunUnifiedFastPath prices the server's entry-granular features on its one
// dispatch pipeline. The experiment runs the packed M=16 echo workload bare
// and with WS-Security, so the table shows what verification costs on top of
// bare streaming (target: within ~1.15× of bare).
func RunUnifiedFastPath(reps int) (*AblationResult, error) {
	if reps <= 0 {
		reps = 5
	}
	const m = 16
	payload := "aaaaaaaaaa" // 10 B, the Figure 5 regime
	result := &AblationResult{Title: fmt.Sprintf(
		"Unified fast path: packed echo (M=%d, 10 B payloads), feature cost on the streaming pipeline", m)}

	type variant struct {
		name string
		opt  EnvOptions
		note string
	}
	variants := []variant{
		{"streaming, bare", EnvOptions{},
			"the fast path, no features"},
		{"streaming + WSSE", EnvOptions{WSSecurity: true},
			"entries decoded as they stream, executed once the signature verifies"},
	}

	for _, v := range variants {
		env, err := NewEnv(v.opt)
		if err != nil {
			return nil, err
		}
		ms, err := measure(1, reps, func() error {
			return packedRun(env.Client, m, payload)
		})
		env.Close()
		if err != nil {
			return nil, err
		}
		result.Rows = append(result.Rows, AblationRow{Name: v.name, Millis: ms, Note: v.note})
	}
	return result, nil
}
