package bench

import "fmt"

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
	const m = 64
	var c comparison
	defer c.close()
	for _, v := range []struct {
		name     string
		opt      EnvOptions
		approach Approach
		note     string
	}{
		{"No Optimization", EnvOptions{}, NoOptimization,
			"M messages, M connections"},
		{"+ client template cache [1,3]", EnvOptions{TemplateCache: true}, NoOptimization,
			"serialization bypassed, M messages remain"},
		{"Our Approach (pack interface)", EnvOptions{}, OurApproach,
			"1 message, 1 connection"},
		{"Ours + template cache", EnvOptions{TemplateCache: true}, OurApproach,
			"orthogonal: packing and caching compose"},
	} {
		// 10 B payloads, the Figure 5 regime.
		if _, err := c.echo(v.name, v.note, v.opt, v.approach, m, "aaaaaaaaaa"); err != nil {
			return nil, err
		}
	}
	return c.table(fmt.Sprintf(
		"Related work (§2.2): per-message CPU optimizations vs packing (M=%d, 10 B payloads)", m), 1, reps)
}
