package bench

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/soapenc"
	"repro/internal/trace"
)

// BreakdownRow decomposes where server protocol-thread time goes for one
// strategy: SOAP parsing, dispatch + operation execution, response
// encoding — per envelope and total across the workload. The totals come
// from recorded spans (one per stage per envelope), the per-envelope figures
// from the server's own phase recorders, neither from wall-clock deltas
// around the whole exchange.
type BreakdownRow struct {
	Name      string
	Envelopes int64
	// Per-envelope medians: one preempted envelope out of a handful does
	// not move them, as it does a mean.
	ParseMs    float64
	DispatchMs float64
	EncodeMs   float64
	// Totals across the whole workload (what the client actually waits
	// behind, aggregated).
	TotalParseMs    float64
	TotalDispatchMs float64
	TotalEncodeMs   float64
}

// BreakdownResult is the completed experiment.
type BreakdownResult struct {
	M            int
	PayloadBytes int
	Rows         []BreakdownRow
}

// RunBreakdown measures the server-side cost composition for the serial
// baseline versus the packed approach on the same workload (M requests of
// payloadBytes each). It substantiates the paper's §4.2 explanation: the
// packed message does not reduce the *application* work (M operations
// still execute) — it reduces the number of protocol traversals (M parses
// and M encodes collapse into one bigger parse and encode) and, off-server,
// the per-message network overhead.
func RunBreakdown(m, payloadBytes, reps int) (*BreakdownResult, error) {
	if m <= 0 {
		m = 64
	}
	if payloadBytes <= 0 {
		payloadBytes = 10
	}
	if reps <= 0 {
		reps = 5
	}
	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = 'a'
	}
	arg := soapenc.F("data", string(payload))

	result := &BreakdownResult{M: m, PayloadBytes: payloadBytes}
	for _, packed := range []bool{false, true} {
		tr := trace.New(0)
		env, err := NewEnv(EnvOptions{Tracer: tr})
		if err != nil {
			return nil, err
		}
		for rep := 0; rep < reps; rep++ {
			if packed {
				b := env.Client.NewBatch()
				for i := 0; i < m; i++ {
					b.Add("Echo", "echo", arg)
				}
				if err := b.Send(); err != nil {
					env.Close()
					return nil, err
				}
			} else {
				for i := 0; i < m; i++ {
					if _, err := env.Client.Call("Echo", "echo", arg); err != nil {
						env.Close()
						return nil, err
					}
				}
			}
		}
		st := env.Server.Stats()
		stages := stageMap(tr.Stages())
		env.Close()

		name := "No Optimization"
		if packed {
			name = "Our Approach"
		}
		parse := stages[trace.StageProtocol].Service
		dispatch := stages[trace.StageDispatch].Service
		encode := stages[trace.StageAssemble].Service
		row := BreakdownRow{
			Name:       name,
			Envelopes:  st.Envelopes / int64(reps),
			ParseMs:    metrics.Millis(st.ParsePhase.P50),
			DispatchMs: metrics.Millis(st.DispatchPhase.P50),
			EncodeMs:   metrics.Millis(st.EncodePhase.P50),
		}
		row.TotalParseMs = metrics.Millis(parse.Sum) / float64(reps)
		row.TotalDispatchMs = metrics.Millis(dispatch.Sum) / float64(reps)
		row.TotalEncodeMs = metrics.Millis(encode.Sum) / float64(reps)
		result.Rows = append(result.Rows, row)
	}
	return result, nil
}

// stageMap indexes stage summaries by name (missing stages yield zero
// summaries, which render as zeros rather than panicking).
func stageMap(stages []trace.StageSummary) map[string]trace.StageSummary {
	out := make(map[string]trace.StageSummary, len(stages))
	for _, s := range stages {
		out[s.Stage] = s
	}
	return out
}

// Print renders the breakdown table.
func (r *BreakdownResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Server-side cost breakdown — M=%d requests of %d B (per run of M, from spans)\n",
		r.M, r.PayloadBytes)
	fmt.Fprintf(w, "%-18s %10s %12s %14s %12s\n",
		"strategy", "envelopes", "parse (ms)", "dispatch (ms)", "encode (ms)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-18s %10d %12.3f %14.3f %12.3f\n",
			row.Name, row.Envelopes, row.TotalParseMs, row.TotalDispatchMs, row.TotalEncodeMs)
	}
	fmt.Fprintln(w, "(dispatch includes operation execution; parse and encode are protocol-thread work)")
	fmt.Fprintln(w)
}
