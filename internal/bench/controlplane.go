package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// RunControlPlane measures load-aware routing on a skewed fleet: four
// backends, one of them with 4× the per-operation service time — the
// degraded-node regime static policies cannot see. Concurrent workers push
// packed batches for a fixed count per policy and every batch's completion
// time is sampled; the table reports mean and tail latency. Round-robin
// keeps feeding the slow backend its full share, so every batch that lands
// an entry there pays the 4× tax. Least-loaded divides in-flight entries by
// each backend's effective weight, which shrinks with the execution time
// the backend states on its own replies — no backend runs an Admin service.
func RunControlPlane(reps int) (*AblationResult, error) {
	if reps <= 0 {
		reps = 5
	}
	const backends = 4
	const workers = 4
	const m = 16 // entries per packed batch
	const concurrency = 6
	baseWork := 1 * time.Millisecond
	slowWork := 4 * baseWork
	batches := 40 * reps
	payload := strings.Repeat("a", 64)

	result := &AblationResult{Title: fmt.Sprintf(
		"Control plane: %d backends (one at %v vs %v ops), %d-entry packed batches × %d workers",
		backends, slowWork, baseWork, m, concurrency)}

	for _, row := range []struct {
		name   string
		policy gateway.Policy
	}{
		{"round-robin (load-blind)", gateway.RoundRobin},
		{"least-loaded (load stated on replies)", gateway.LeastLoaded},
	} {
		env, err := NewGatewayEnv(GatewayOptions{
			Backends:   backends,
			Network:    netsim.Fast(),
			AppWorkers: workers,
			WorkTimes:  []time.Duration{baseWork, baseWork, baseWork, slowWork},
			Policy:     row.policy,
		})
		if err != nil {
			return nil, err
		}

		// An unmeasured warm-up lets pools open and drains the backlog the
		// slow backend took before its replies derated it.
		samples, err := controlPlaneLoad(env, concurrency, m, payload, 30, nil)
		if err == nil {
			samples, err = controlPlaneLoad(env, concurrency, m, payload, batches, samples[:0])
		}
		if err != nil {
			env.Close()
			return nil, err
		}
		sum := metrics.Summarize(samples)
		st := env.Gateway.Stats()
		env.Close()

		slowShare := 0.0
		var exch int64
		for _, bs := range st.Backends {
			exch += bs.Exchanges
		}
		if exch > 0 {
			slowShare = 100 * float64(st.Backends[backends-1].Exchanges) / float64(exch)
		}
		result.Rows = append(result.Rows, AblationRow{
			Name:   row.name,
			Millis: metrics.Millis(sum.Mean),
			Note: fmt.Sprintf("p50 %.1fms, p99 %.1fms; slow backend took %.0f%% of sub-batches",
				metrics.Millis(sum.P50), metrics.Millis(sum.P99), slowShare),
		})
	}
	return result, nil
}

// controlPlaneLoad runs total packed batches through the gateway from
// concurrency workers and appends each batch's completion time to samples.
func controlPlaneLoad(env *GatewayEnv, concurrency, m int, payload string, total int, samples []time.Duration) ([]time.Duration, error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan struct{}, total)
	for i := 0; i < total; i++ {
		next <- struct{}{}
	}
	close(next)
	errs := make([]error, concurrency)
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for range next {
				start := time.Now()
				if err := packedRun(env.Client, m, payload); err != nil {
					errs[w] = err
					return
				}
				d := time.Since(start)
				mu.Lock()
				samples = append(samples, d)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return samples, nil
}
