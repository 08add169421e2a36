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
// steps 1 and 3. The two modes take turns within each repetition, each on an
// environment of its own (so the reservation books stay disjoint), so a slow
// spell on a shared machine lands on both alike instead of on whichever was
// measuring; the medians then ignore the spell.
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

	var envs [2]*Env // by mode: unoptimized, optimized
	for i := range envs {
		env, err := NewEnv(cfg.Env)
		if err != nil {
			return nil, err
		}
		defer env.Close()
		envs[i] = env
	}
	result := &TravelResult{Config: cfg}
	var samples [2][]time.Duration
	messages := [2]*int{&result.UnoptimizedMessages, &result.OptimizedMessages}
	for rep := 0; rep < cfg.Warmup+cfg.Repetitions; rep++ {
		for i, env := range envs {
			optimized := i == 1
			start := time.Now()
			it, err := services.RunTravelAgent(env.Client, services.DefaultItinerary(), optimized)
			elapsed := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("travel agent (optimized=%v): %w", optimized, err)
			}
			if rep >= cfg.Warmup {
				samples[i] = append(samples[i], elapsed)
			}
			*messages[i] = it.Messages
		}
	}
	result.Unoptimized, result.Optimized = metrics.Summarize(samples[0]), metrics.Summarize(samples[1])
	u, o := metrics.Millis(result.Unoptimized.P50), metrics.Millis(result.Optimized.P50)
	if u > 0 {
		result.ImprovementPct = (u - o) / u * 100
	}
	return result, nil
}
