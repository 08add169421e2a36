package bench

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/services"
)

// TravelConfig parameterizes the §4.3 travel-agent experiment.
type TravelConfig struct {
	// Repetitions is how many times each mode runs (the paper: "The test
	// in each case is repeated 10 times").
	Repetitions int
	// Warmup runs before measurement (default 1).
	Warmup int
	// Env configures the environment. Travel services are always
	// deployed.
	Env EnvOptions
	// WorkTime simulates the vendors' backend work per operation.
	WorkTime time.Duration
}

// TravelResult reports the §4.3 comparison.
type TravelResult struct {
	Config TravelConfig

	Unoptimized metrics.Summary
	Optimized   metrics.Summary

	// Messages sent per run in each mode (11 vs 7).
	UnoptimizedMessages int
	OptimizedMessages   int

	// ImprovementPct is (unopt-opt)/unopt * 100 of the two medians — the
	// paper reports 26%.
	ImprovementPct float64
}

// RunTravel measures the travel-agent sequence with and without packing
// steps 1 and 3. The two modes take turns, each on an environment of its own
// so the reservation books stay disjoint, and each is reported by its median.
func RunTravel(cfg TravelConfig) (*TravelResult, error) {
	if cfg.Repetitions <= 0 {
		cfg.Repetitions = 10
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 1
	}
	cfg.Env.Travel = true
	if cfg.WorkTime > 0 {
		cfg.Env.WorkTime = cfg.WorkTime
	}

	result := &TravelResult{Config: cfg}
	messages := [2]*int{&result.UnoptimizedMessages, &result.OptimizedMessages}
	var c comparison
	defer c.close()
	for i, optimized := range []bool{false, true} {
		env, err := c.env(cfg.Env)
		if err != nil {
			return nil, err
		}
		c.add(fmt.Sprintf("travel agent (optimized=%v)", optimized), "", func() error {
			it, err := services.RunTravelAgent(env.Client, services.DefaultItinerary(), optimized)
			if err == nil {
				*messages[i] = it.Messages
			}
			return err
		})
	}
	sums, err := c.run(cfg.Warmup, cfg.Repetitions)
	if err != nil {
		return nil, err
	}
	result.Unoptimized, result.Optimized = sums[0], sums[1]
	u, o := metrics.Millis(result.Unoptimized.P50), metrics.Millis(result.Optimized.P50)
	if u > 0 {
		result.ImprovementPct = (u - o) / u * 100
	}
	return result, nil
}
