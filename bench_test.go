// Benchmarks regenerating every table and figure of the paper's
// evaluation (§4). Each sub-benchmark measures exactly what one point of a
// figure measures: the wall time to complete M service requests of N bytes
// under one of the three approaches, over the simulated 100 Mbit testbed
// link. ns/op therefore corresponds directly to the figures' y-axis
// (run time per M-request group); see internal/bench and cmd/spibench for
// the harness that prints the paper-style tables, and EXPERIMENTS.md for
// the recorded results.
//
//	Figure 5: payload 10 B    — packing wins, up to ~10x at M=128
//	Figure 6: payload 1 KB    — packing still wins
//	Figure 7: payload 100 KB  — packing loses (most time-consuming)
//	§4.3:     travel agent    — 11 messages vs 7, ~26% improvement
//	WSS:      future work     — header overhead amplifies the win
package spi_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	spi "repro"
	"repro/internal/bench"
	"repro/internal/services"
)

// paperM is the paper's x-axis: the number of service requests.
var paperM = []int{1, 2, 4, 8, 16, 32, 64, 128}

// benchEnv builds a fresh client/server pair over the simulated LAN.
func benchEnv(b *testing.B, opt bench.EnvOptions) *bench.Env {
	b.Helper()
	env, err := bench.NewEnv(opt)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(env.Close)
	return env
}

// runApproach performs one M-request group under the given approach.
func runApproach(b *testing.B, env *bench.Env, approach bench.Approach, m int, payload string) {
	b.Helper()
	arg := spi.F("data", payload)
	switch approach {
	case bench.NoOptimization:
		for i := 0; i < m; i++ {
			if _, err := env.Client.Call("Echo", "echo", arg); err != nil {
				b.Fatal(err)
			}
		}
	case bench.MultipleThreads:
		calls := make([]*spi.Call, m)
		for i := 0; i < m; i++ {
			calls[i] = env.Client.Go("Echo", "echo", arg)
		}
		for _, c := range calls {
			if _, err := c.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	case bench.OurApproach:
		batch := env.Client.NewBatch()
		for i := 0; i < m; i++ {
			batch.Add("Echo", "echo", arg)
		}
		if err := batch.Send(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFigure runs one full figure: every M, every approach.
func benchFigure(b *testing.B, payloadBytes int, ms []int, opt bench.EnvOptions) {
	payload := strings.Repeat("a", payloadBytes)
	for _, approach := range bench.Approaches {
		approach := approach
		b.Run(strings.ReplaceAll(approach.String(), " ", ""), func(b *testing.B) {
			for _, m := range ms {
				m := m
				b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
					env := benchEnv(b, opt)
					b.SetBytes(int64(m * payloadBytes))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						runApproach(b, env, approach, m, payload)
					}
				})
			}
		})
	}
}

// BenchmarkFigure5 regenerates Figure 5: 10-byte service requests.
func BenchmarkFigure5(b *testing.B) {
	benchFigure(b, 10, paperM, bench.EnvOptions{})
}

// BenchmarkFigure6 regenerates Figure 6: 1 KB service requests.
func BenchmarkFigure6(b *testing.B) {
	benchFigure(b, 1000, paperM, bench.EnvOptions{})
}

// BenchmarkFigure7 regenerates Figure 7: 100 KB service requests. The M
// range is thinned to keep the run affordable; cmd/spibench sweeps the
// full range.
func BenchmarkFigure7(b *testing.B) {
	benchFigure(b, 100_000, []int{1, 8, 32, 128}, bench.EnvOptions{})
}

// BenchmarkWSSecurity regenerates the future-work experiment: Figure 5's
// 10-byte sweep with WS-Security signing and verification per message.
func BenchmarkWSSecurity(b *testing.B) {
	benchFigure(b, 10, []int{1, 8, 32, 128}, bench.EnvOptions{WSSecurity: true})
}

// BenchmarkTravelAgent regenerates §4.3: the eleven-invocation travel
// agent, unoptimized (11 messages) versus optimized (steps 1 and 3 packed,
// 7 messages).
func BenchmarkTravelAgent(b *testing.B) {
	for _, optimized := range []bool{false, true} {
		optimized := optimized
		name := "WithoutOptimization"
		if optimized {
			name = "WithOptimization"
		}
		b.Run(name, func(b *testing.B) {
			env := benchEnv(b, bench.EnvOptions{Travel: true, WorkTime: 2 * time.Millisecond})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := services.RunTravelAgent(env.Client, services.DefaultItinerary(), optimized); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStagedVsCoupled regenerates the staged-pool ablation:
// a packed message of 16 working operations on the staged versus coupled
// server architecture.
func BenchmarkAblationStagedVsCoupled(b *testing.B) {
	for _, coupled := range []bool{false, true} {
		coupled := coupled
		name := "Staged"
		if coupled {
			name = "Coupled"
		}
		b.Run(name, func(b *testing.B) {
			env := benchEnv(b, bench.EnvOptions{Coupled: coupled, WorkTime: 2 * time.Millisecond})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := env.Client.NewBatch()
				for j := 0; j < 16; j++ {
					batch.Add("Echo", "echo", spi.F("data", "x"))
				}
				if err := batch.Send(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationConnectionReuse isolates the TCP-setup share of the
// per-message overhead: serial calls with and without keep-alive.
func BenchmarkAblationConnectionReuse(b *testing.B) {
	for _, keepAlive := range []bool{false, true} {
		keepAlive := keepAlive
		name := "DialPerMessage"
		if keepAlive {
			name = "KeepAlive"
		}
		b.Run(name, func(b *testing.B) {
			env := benchEnv(b, bench.EnvOptions{KeepAlive: keepAlive})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.Client.Call("Echo", "echo", spi.F("data", "aaaaaaaaaa")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPoolWidth sweeps the application-stage width for a
// packed message of 32 working operations.
func BenchmarkAblationPoolWidth(b *testing.B) {
	for _, workers := range []int{1, 4, 16, 32} {
		workers := workers
		b.Run(fmt.Sprintf("Workers=%d", workers), func(b *testing.B) {
			env := benchEnv(b, bench.EnvOptions{AppWorkers: workers, WorkTime: 2 * time.Millisecond})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := env.Client.NewBatch()
				for j := 0; j < 32; j++ {
					batch.Add("Echo", "echo", spi.F("data", "x"))
				}
				if err := batch.Send(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAutoBatch compares explicit batching, automatic
// batching and per-call messages for 32 concurrent client goroutines.
func BenchmarkAblationAutoBatch(b *testing.B) {
	const m = 32
	b.Run("AutoBatcher", func(b *testing.B) {
		env := benchEnv(b, bench.EnvOptions{})
		auto := spi.NewAutoBatcher(env.Client, m)
		defer auto.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for j := 0; j < m; j++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := auto.Call("Echo", "echo", spi.F("data", "aaaaaaaaaa")); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		}
	})
	b.Run("ExplicitBatch", func(b *testing.B) {
		env := benchEnv(b, bench.EnvOptions{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := env.Client.NewBatch()
			for j := 0; j < m; j++ {
				batch.Add("Echo", "echo", spi.F("data", "aaaaaaaaaa"))
			}
			if err := batch.Send(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRemoteExecution measures the SPI remote-execution interface
// (the suite member the paper names but does not publish): a four-step
// dependent pipeline as four round trips versus one execution plan.
func BenchmarkRemoteExecution(b *testing.B) {
	b.Run("FourCalls", func(b *testing.B) {
		env := benchEnv(b, bench.EnvOptions{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			prev := spi.Value(any("seed"))
			for j := 0; j < 4; j++ {
				res, err := env.Client.Call("Echo", "echo", spi.F("data", prev))
				if err != nil {
					b.Fatal(err)
				}
				prev = res[0].Value
			}
		}
	})
	b.Run("OnePlan", func(b *testing.B) {
		env := benchEnv(b, bench.EnvOptions{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan := env.Client.NewPlan()
			prev := plan.Add("Echo", "echo", spi.F("data", "seed"))
			for j := 0; j < 3; j++ {
				prev = plan.Add("Echo", "echo", spi.F("data", prev.Ref("data")))
			}
			if err := plan.Send(); err != nil {
				b.Fatal(err)
			}
			if _, err := prev.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkThroughput regenerates the §3.2 design-goal measurement:
// sustained requests per second at a fixed offered concurrency, per-call
// versus auto-packed. Throughput is the inverse of ns/op here (one op =
// one completed call under load); see cmd/spibench -fig throughput for
// the full sweep with req/s units.
func BenchmarkThroughput(b *testing.B) {
	for _, callers := range []int{16, 128} {
		callers := callers
		for _, packed := range []bool{false, true} {
			packed := packed
			name := fmt.Sprintf("Callers=%d/PerCall", callers)
			if packed {
				name = fmt.Sprintf("Callers=%d/AutoPacked", callers)
			}
			b.Run(name, func(b *testing.B) {
				env := benchEnv(b, bench.EnvOptions{})
				var auto *spi.AutoBatcher
				if packed {
					auto = spi.NewAutoBatcher(env.Client, 256)
					defer auto.Close()
				}
				arg := spi.F("data", "aaaaaaaaaa")
				var wg sync.WaitGroup
				work := make(chan struct{}, callers)
				for i := 0; i < callers; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for range work {
							var err error
							if packed {
								_, err = auto.Call("Echo", "echo", arg)
							} else {
								_, err = env.Client.Call("Echo", "echo", arg)
							}
							if err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					work <- struct{}{}
				}
				close(work)
				wg.Wait()
			})
		}
	}
}

// BenchmarkRelatedWork regenerates the §2.2 comparison: the related-work
// per-message CPU optimization (client template cache) versus packing, on the
// Figure-5 workload.
func BenchmarkRelatedWork(b *testing.B) {
	const m = 64
	payload := "aaaaaaaaaa"
	variants := []struct {
		name   string
		opt    bench.EnvOptions
		packed bool
	}{
		{"NoOptimization", bench.EnvOptions{}, false},
		{"TemplateCache", bench.EnvOptions{TemplateCache: true}, false},
		{"OurApproach", bench.EnvOptions{}, true},
		{"OursPlusTemplateCache", bench.EnvOptions{TemplateCache: true}, true},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			env := benchEnv(b, v.opt)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v.packed {
					batch := env.Client.NewBatch()
					for j := 0; j < m; j++ {
						batch.Add("Echo", "echo", spi.F("data", payload))
					}
					if err := batch.Send(); err != nil {
						b.Fatal(err)
					}
				} else {
					for j := 0; j < m; j++ {
						if _, err := env.Client.Call("Echo", "echo", spi.F("data", payload)); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// BenchmarkEnvelopeCodec measures the raw SOAP cost packing amortizes:
// encode+decode of an M-request packed envelope versus M singles.
func BenchmarkEnvelopeCodec(b *testing.B) {
	env := benchEnv(b, bench.EnvOptions{})
	payload := strings.Repeat("a", 100)
	b.Run("PackedM=32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			batch := env.Client.NewBatch()
			for j := 0; j < 32; j++ {
				batch.Add("Echo", "echo", spi.F("data", payload))
			}
			if err := batch.Send(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
