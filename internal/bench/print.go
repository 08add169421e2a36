package bench

import (
	"fmt"
	"io"

	"repro/internal/metrics"
)

// PrintLatency renders a latency sweep as the paper's figures do: one row
// per M, one column per approach, run time in milliseconds, plus the
// NoOptimization/OurApproach speedup.
func PrintLatency(w io.Writer, r *LatencyResult) {
	fmt.Fprintf(w, "%s — Size of Each Service Request: %s (run time in ms)\n",
		r.Config.Label, humanBytes(r.Config.PayloadBytes))
	if r.Config.Env.WSSecurity {
		fmt.Fprintf(w, "WS-Security headers: enabled (signed and verified per message)\n")
	}
	fmt.Fprintf(w, "%-6s", "M")
	for _, a := range r.Config.Approaches {
		fmt.Fprintf(w, " %18s", a)
	}
	if hasSpeedup(r) {
		fmt.Fprintf(w, " %10s", "Speedup")
	}
	fmt.Fprintln(w)
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-6d", p.M)
		for _, a := range r.Config.Approaches {
			fmt.Fprintf(w, " %18.2f", p.Millis[a])
		}
		if hasSpeedup(r) {
			fmt.Fprintf(w, " %9.2fx", p.Speedup())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

func hasSpeedup(r *LatencyResult) bool {
	has := map[Approach]bool{}
	for _, a := range r.Config.Approaches {
		has[a] = true
	}
	return has[NoOptimization] && has[OurApproach]
}

// PrintTravel renders the §4.3 comparison.
func PrintTravel(w io.Writer, r *TravelResult) {
	fmt.Fprintf(w, "Travel agent service (§4.3) — %d runs, %d service invocations per run\n",
		r.Config.Repetitions, 11)
	fmt.Fprintf(w, "%-22s %12s %10s\n", "mode", "median (ms)", "messages")
	fmt.Fprintf(w, "%-22s %12.2f %10d\n", "without optimization",
		metrics.Millis(r.Unoptimized.P50), r.UnoptimizedMessages)
	fmt.Fprintf(w, "%-22s %12.2f %10d\n", "with optimization",
		metrics.Millis(r.Optimized.P50), r.OptimizedMessages)
	fmt.Fprintf(w, "improvement: %.1f%% (paper: 408 ms -> 301 ms, ~26%%)\n\n", r.ImprovementPct)
}

// PrintAblation renders one ablation table.
func PrintAblation(w io.Writer, r *AblationResult) {
	fmt.Fprintln(w, r.Title)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-40s %10.2f ms", row.Name, row.Millis)
		if row.Note != "" {
			fmt.Fprintf(w, "   (%s)", row.Note)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

func humanBytes(n int) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%dM bytes", n/1_000_000)
	case n >= 1000:
		return fmt.Sprintf("%dK bytes", n/1000)
	default:
		return fmt.Sprintf("%d bytes", n)
	}
}
