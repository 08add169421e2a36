package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/soapenc"
)

// ThroughputConfig parameterizes the sustained-load experiment. The
// paper's first design goal (§3.2) is "improving throughput of client
// side": packing "can greatly improve the throughput of whole application
// while at the same time may not increase the latency of every client
// invocation". This experiment drives fixed offered loads of concurrent
// callers for a fixed duration and reports completed requests per second
// plus per-call latency, with and without automatic packing.
//
// The interesting result is where packing pulls ahead: at low concurrency
// the two run close (a lone call's batch settles after one empty yield and
// goes out alone), while at high concurrency the per-message overhead of
// hundreds of concurrent small messages congests the link and the server,
// and packing wins — which is precisely the regime the paper's motivation
// describes.
type ThroughputConfig struct {
	// CallerCounts lists the offered concurrency levels
	// (default 4, 16, 64, 128 — mirroring the figures' M axis).
	CallerCounts []int
	// Duration is how long each point is driven (default 1s).
	Duration time.Duration
	// PayloadBytes is the request payload size (default 10, the Figure 5
	// regime).
	PayloadBytes int
}

// ThroughputPoint is one concurrency level's result for both strategies.
type ThroughputPoint struct {
	Callers int
	PerCall ThroughputRow
	Packed  ThroughputRow
}

// ThroughputRow is one strategy's sustained-load measurement.
type ThroughputRow struct {
	RequestsPS float64
	MeanMs     float64 // mean per-call latency
	Requests   int64
	Envelopes  int64 // SOAP messages used
}

// ThroughputResult is the completed experiment.
type ThroughputResult struct {
	Config ThroughputConfig
	Points []ThroughputPoint
}

// RunThroughput measures sustained requests/second for per-call messages
// versus auto-packed messages across offered concurrency levels.
func RunThroughput(cfg ThroughputConfig) (*ThroughputResult, error) {
	if len(cfg.CallerCounts) == 0 {
		cfg.CallerCounts = []int{4, 16, 64, 128}
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.PayloadBytes <= 0 {
		cfg.PayloadBytes = 10
	}
	payload := make([]byte, cfg.PayloadBytes)
	for i := range payload {
		payload[i] = 'a'
	}
	arg := soapenc.F("data", string(payload))

	result := &ThroughputResult{Config: cfg}
	for _, callers := range cfg.CallerCounts {
		point := ThroughputPoint{Callers: callers}
		for _, packed := range []bool{false, true} {
			row, err := runThroughputPoint(cfg, callers, packed, arg)
			if err != nil {
				return nil, err
			}
			if packed {
				point.Packed = row
			} else {
				point.PerCall = row
			}
		}
		result.Points = append(result.Points, point)
	}
	return result, nil
}

func runThroughputPoint(cfg ThroughputConfig, callers int, packed bool, arg soapenc.Field) (ThroughputRow, error) {
	env, err := NewEnv(EnvOptions{})
	if err != nil {
		return ThroughputRow{}, err
	}
	defer env.Close()
	var auto *core.AutoBatcher
	if packed {
		auto = core.NewAutoBatcher(env.Client, 256)
		defer auto.Close()
	}
	call := func() error {
		var err error
		if packed {
			_, err = auto.Call("Echo", "echo", arg)
		} else {
			_, err = env.Client.Call("Echo", "echo", arg)
		}
		return err
	}

	var completed atomic.Int64
	var totalLatency atomic.Int64 // nanoseconds
	var firstErr atomic.Value
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				if err := call(); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				totalLatency.Add(int64(time.Since(start)))
				completed.Add(1)
			}
		}()
	}
	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return ThroughputRow{}, fmt.Errorf("throughput (callers=%d, packed=%v): %w", callers, packed, err)
	}

	n := completed.Load()
	row := ThroughputRow{
		Requests:   n,
		Envelopes:  env.Client.Stats().Envelopes,
		RequestsPS: float64(n) / cfg.Duration.Seconds(),
	}
	if n > 0 {
		row.MeanMs = float64(totalLatency.Load()) / float64(n) / 1e6
	}
	return row, nil
}

// Print renders the sustained-load comparison, one row per concurrency
// level.
func (r *ThroughputResult) Print(w interface{ Write([]byte) (int, error) }) {
	fmt.Fprintf(w, "Throughput (§3.2 design goal) — %d B payloads, %v per point\n",
		r.Config.PayloadBytes, r.Config.Duration)
	fmt.Fprintf(w, "%-8s %16s %16s %14s %14s %12s\n",
		"callers", "per-call req/s", "packed req/s", "per-call ms", "packed ms", "msg ratio")
	for _, p := range r.Points {
		ratio := 0.0
		if p.Packed.Envelopes > 0 {
			ratio = float64(p.Packed.Requests) / float64(p.Packed.Envelopes)
		}
		fmt.Fprintf(w, "%-8d %16.0f %16.0f %14.3f %14.3f %11.1fx\n",
			p.Callers, p.PerCall.RequestsPS, p.Packed.RequestsPS,
			p.PerCall.MeanMs, p.Packed.MeanMs, ratio)
	}
	fmt.Fprintln(w)
}
