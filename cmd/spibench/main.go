// Command spibench regenerates every table and figure of the paper's
// evaluation and prints them in the paper's layout.
//
// Usage:
//
//	spibench                  # run everything (Figures 5-7, travel, WSS, ablations)
//	spibench -fig 5           # one figure: 5, 6, 7, wss, travel, ablation, ...
//	spibench -fig coalesce    # gateway cross-client coalescing on vs off
//	spibench -reps 10         # repetitions per point (default 5)
//	spibench -m 1,16,128      # restrict the M sweep
//
// The experiments run over the simulated 100 Mbit link (internal/netsim),
// so results are machine-independent up to scheduler noise.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "which experiment: 5, 6, 7, wss, wan, travel, throughput, breakdown, trace, micro, related, ablation, faults, gateway, coalesce, controlplane, transport, unified, all")
	reps := flag.Int("reps", 5, "repetitions per measured point")
	mlist := flag.String("m", "", "comma-separated M values (default: the paper's 1,2,4,...,128)")
	flag.Parse()

	var ms []int
	if *mlist != "" {
		for _, part := range strings.Split(*mlist, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "spibench: bad -m entry %q\n", part)
				os.Exit(2)
			}
			ms = append(ms, n)
		}
	}

	run := func(name string) bool { return *fig == "all" || *fig == name }
	ran := false

	latency := func(cfg bench.LatencyConfig) {
		cfg.Repetitions = *reps
		if ms != nil {
			cfg.MessageCounts = ms
		}
		r, err := bench.RunLatency(cfg)
		if err != nil {
			fatal(err)
		}
		bench.PrintLatency(os.Stdout, r)
	}

	if run("5") {
		latency(bench.Figure5())
		ran = true
	}
	if run("6") {
		latency(bench.Figure6())
		ran = true
	}
	if run("7") {
		latency(bench.Figure7())
		ran = true
	}
	if run("wss") {
		latency(bench.WSSecuritySweep())
		ran = true
	}
	if run("wan") {
		cfg := bench.WANSweep()
		cfg.Repetitions = minInt(*reps, 3) // WAN round trips are slow
		if ms != nil {
			cfg.MessageCounts = ms
		}
		r, err := bench.RunLatency(cfg)
		if err != nil {
			fatal(err)
		}
		bench.PrintLatency(os.Stdout, r)
		ran = true
	}
	if run("travel") {
		r, err := bench.RunTravel(bench.TravelConfig{
			Repetitions: maxInt(*reps, 10),
			WorkTime:    2_000_000, // 2ms of simulated vendor work per operation
		})
		if err != nil {
			fatal(err)
		}
		bench.PrintTravel(os.Stdout, r)
		ran = true
	}
	if run("micro") {
		for _, scale := range []int{10, 100, 1000} {
			r, err := bench.RunMicro(scale, 30)
			if err != nil {
				fatal(err)
			}
			r.Print(os.Stdout)
		}
		ran = true
	}
	if run("breakdown") {
		r, err := bench.RunBreakdown(64, 10, *reps)
		if err != nil {
			fatal(err)
		}
		r.Print(os.Stdout)
		ran = true
	}
	if run("trace") {
		m := 64
		if len(ms) > 0 {
			m = ms[0]
		}
		r, err := bench.RunTrace(m, 10, *reps)
		if err != nil {
			fatal(err)
		}
		r.Print(os.Stdout)
		ran = true
	}
	if run("throughput") {
		r, err := bench.RunThroughput(bench.ThroughputConfig{})
		if err != nil {
			fatal(err)
		}
		r.Print(os.Stdout)
		ran = true
	}
	if run("related") {
		r, err := bench.RunRelatedWork(*reps)
		if err != nil {
			fatal(err)
		}
		bench.PrintAblation(os.Stdout, r)
		ran = true
	}
	if run("ablation") {
		for _, f := range []func(int) (*bench.AblationResult, error){
			bench.RunStagedVsCoupled,
			bench.RunConnectionReuse,
			bench.RunPoolWidth,
			bench.RunAutoBatch,
		} {
			r, err := f(*reps)
			if err != nil {
				fatal(err)
			}
			bench.PrintAblation(os.Stdout, r)
		}
		ran = true
	}
	if run("faults") {
		for _, f := range []func(int) (*bench.AblationResult, error){
			bench.RunFaultInjection,
			bench.RunDeadlineDegradation,
		} {
			r, err := f(*reps)
			if err != nil {
				fatal(err)
			}
			bench.PrintAblation(os.Stdout, r)
		}
		ran = true
	}
	if run("gateway") {
		r, err := bench.RunGatewayScaling(*reps)
		if err != nil {
			fatal(err)
		}
		bench.PrintAblation(os.Stdout, r)
		ran = true
	}
	if run("coalesce") {
		r, err := bench.RunCoalesce(*reps)
		if err != nil {
			fatal(err)
		}
		bench.PrintAblation(os.Stdout, r)
		ran = true
	}
	if run("controlplane") {
		r, err := bench.RunControlPlane(*reps)
		if err != nil {
			fatal(err)
		}
		bench.PrintAblation(os.Stdout, r)
		ran = true
	}
	if run("transport") {
		r, err := bench.RunTransport(*reps)
		if err != nil {
			fatal(err)
		}
		bench.PrintAblation(os.Stdout, r)
		ran = true
	}
	if run("unified") {
		r, err := bench.RunUnifiedFastPath(*reps)
		if err != nil {
			fatal(err)
		}
		bench.PrintAblation(os.Stdout, r)
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "spibench: unknown -fig %q (want 5, 6, 7, wss, travel, related, ablation, faults, gateway, coalesce, controlplane, transport, unified or all)\n", *fig)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "spibench: %v\n", err)
	os.Exit(1)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
