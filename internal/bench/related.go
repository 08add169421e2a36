package bench

import (
	"fmt"

	"repro/internal/soapenc"
)

// RunRelatedWork measures a §2.2 related-work optimization against the
// paper's approach on the Figure-5 workload (M small requests). The paper
// argues those techniques "speed up the process of SOAP message parsing"
// while SPI "is designed to reduce the number of SOAP messages" — i.e.
// they attack per-message CPU, not per-message network overhead — and that
// the two are therefore orthogonal. This experiment makes that argument
// measurable:
//
//   - client template caching ([1] Devaram & Andresen / [3] differential
//     serialization) removes client serialization cost, but still sends M
//     messages, so connection setup and headers remain;
//   - packing removes the per-message overhead itself.
//
// Server-side differential deserialization ([4]/[11]) has no row: measured
// on this server it saved nothing, and it was deleted (docs/PERFORMANCE.md,
// "Knob ledger").
func RunRelatedWork(reps int) (*AblationResult, error) {
	if reps <= 0 {
		reps = 5
	}
	const m = 64
	payload := "aaaaaaaaaa" // 10 B, the Figure 5 regime
	result := &AblationResult{Title: fmt.Sprintf(
		"Related work (§2.2): per-message CPU optimizations vs packing (M=%d, 10 B payloads)", m)}

	type variant struct {
		name   string
		opt    EnvOptions
		packed bool
		note   string
	}
	variants := []variant{
		{"No Optimization", EnvOptions{}, false,
			"M messages, M connections"},
		{"+ client template cache [1,3]", EnvOptions{TemplateCache: true}, false,
			"serialization bypassed, M messages remain"},
		{"Our Approach (pack interface)", EnvOptions{}, true,
			"1 message, 1 connection"},
		{"Ours + template cache", EnvOptions{TemplateCache: true}, true,
			"orthogonal: packing and caching compose"},
	}

	for _, v := range variants {
		env, err := NewEnv(v.opt)
		if err != nil {
			return nil, err
		}
		ms, err := measure(1, reps, func() error {
			if v.packed {
				return packedRun(env.Client, m, payload)
			}
			for i := 0; i < m; i++ {
				if _, err := env.Client.Call("Echo", "echo", soapenc.F("data", payload)); err != nil {
					return err
				}
			}
			return nil
		})
		env.Close()
		if err != nil {
			return nil, err
		}
		result.Rows = append(result.Rows, AblationRow{Name: v.name, Millis: ms, Note: v.note})
	}
	return result, nil
}
