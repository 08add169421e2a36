package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/soapenc"
)

// LatencyConfig parameterizes one Figure 5/6/7-style sweep.
type LatencyConfig struct {
	// Label names the experiment in the printed table (e.g. "Figure 5").
	Label string
	// PayloadBytes is N, the size of each service request's data.
	PayloadBytes int
	// MessageCounts lists the M values. Default 1,2,4,...,128 (the
	// paper's x-axis).
	MessageCounts []int
	// Repetitions is how many times each point is measured; the median is
	// reported. Default 5. ("The test in each case is repeated" — §4.3
	// uses 10; the latency figures report averaged runs.)
	Repetitions int
	// Warmup runs before measurement at each point (default 1).
	Warmup int
	// Env configures the environment the sweep runs in.
	Env EnvOptions
	// Approaches restricts which strategies run (default all three).
	Approaches []Approach
}

func (c *LatencyConfig) fillDefaults() {
	if len(c.MessageCounts) == 0 {
		c.MessageCounts = []int{1, 2, 4, 8, 16, 32, 64, 128}
	}
	if c.Repetitions <= 0 {
		c.Repetitions = 5
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	} else if c.Warmup == 0 {
		c.Warmup = 1
	}
	if len(c.Approaches) == 0 {
		c.Approaches = Approaches
	}
}

// LatencyPoint is one row of a latency table: the median run time of M
// service requests under each approach.
type LatencyPoint struct {
	M       int
	Millis  map[Approach]float64
	Samples map[Approach]metrics.Summary
}

// Speedup returns NoOptimization time divided by OurApproach time — the
// ratio behind the paper's "up to ten times faster" claim.
func (p *LatencyPoint) Speedup() float64 {
	ours, ok1 := p.Millis[OurApproach]
	noOpt, ok2 := p.Millis[NoOptimization]
	if !ok1 || !ok2 || ours <= 0 {
		return 0
	}
	return noOpt / ours
}

// LatencyResult is a completed sweep.
type LatencyResult struct {
	Config LatencyConfig
	Points []*LatencyPoint
}

// RunLatency performs the sweep: for each M and each approach, issue M echo
// requests of PayloadBytes each and measure the wall time until every
// response has arrived. At each M the approaches take turns on the one
// environment, and each cell is the approach's median.
func RunLatency(cfg LatencyConfig) (*LatencyResult, error) {
	cfg.fillDefaults()
	env, err := NewEnv(cfg.Env)
	if err != nil {
		return nil, err
	}
	defer env.Close()

	payload := strings.Repeat("a", cfg.PayloadBytes)
	result := &LatencyResult{Config: cfg}
	for _, m := range cfg.MessageCounts {
		var c comparison
		for _, a := range cfg.Approaches {
			c.add(a.String(), "", func() error { return runApproach(env.Client, a, m, payload) })
		}
		sums, err := c.run(cfg.Warmup, cfg.Repetitions)
		if err != nil {
			return nil, fmt.Errorf("%s: M=%d %w", cfg.Label, m, err)
		}
		point := &LatencyPoint{
			M:       m,
			Millis:  make(map[Approach]float64),
			Samples: make(map[Approach]metrics.Summary),
		}
		for i, a := range cfg.Approaches {
			point.Millis[a] = metrics.Millis(sums[i].P50)
			point.Samples[a] = sums[i]
		}
		result.Points = append(result.Points, point)
	}
	return result, nil
}

// runApproach sends m echo calls of payload on c under the given approach
// and waits for every response.
func runApproach(c *core.Client, approach Approach, m int, payload string) error {
	arg := soapenc.F("data", payload)
	switch approach {
	case NoOptimization:
		for i := 0; i < m; i++ {
			if _, err := c.Call("Echo", "echo", arg); err != nil {
				return err
			}
		}
		return nil
	case MultipleThreads:
		calls := make([]*core.Call, m)
		for i := range calls {
			calls[i] = c.Go("Echo", "echo", arg)
		}
		for _, call := range calls {
			if _, err := call.Wait(); err != nil {
				return err
			}
		}
		return nil
	case OurApproach:
		return packedRun(c, m, payload)
	default:
		return fmt.Errorf("bench: unknown approach %d", approach)
	}
}

// Figure5 is the paper's Figure 5 configuration: 10-byte payloads.
func Figure5() LatencyConfig {
	return LatencyConfig{Label: "Figure 5", PayloadBytes: 10}
}

// Figure6 is the paper's Figure 6 configuration: 1 KB payloads.
func Figure6() LatencyConfig {
	return LatencyConfig{Label: "Figure 6", PayloadBytes: 1000}
}

// Figure7 is the paper's Figure 7 configuration: 100 KB payloads.
func Figure7() LatencyConfig {
	return LatencyConfig{Label: "Figure 7", PayloadBytes: 100_000}
}

// WANSweep runs the Figure 5 workload over a wide-area link (10 Mbit/s,
// 40 ms RTT): the environment the paper's opening motivates. Per-message
// round trips dominate completely, so the packing win is amplified.
func WANSweep() LatencyConfig {
	cfg := Figure5()
	cfg.Label = "WAN (10 Mbit, 40 ms RTT)"
	cfg.Env.Network = netsim.WAN()
	// WAN round trips make serial sweeps slow; trim the tail.
	cfg.MessageCounts = []int{1, 2, 4, 8, 16, 32}
	cfg.Repetitions = 3
	return cfg
}

// WSSecuritySweep is the future-work experiment: Figure 5's sweep with
// WS-Security headers attached and verified, where packing amortizes the
// larger per-message header overhead.
func WSSecuritySweep() LatencyConfig {
	cfg := Figure5()
	cfg.Label = "WS-Security"
	cfg.Env.WSSecurity = true
	return cfg
}
