package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/soapenc"
)

// skipTiming skips shape tests in modes that distort timing ratios: the
// race detector slows CPU-bound code by an order of magnitude, shifting
// where the CPU/network balance sits, and -short skips sweeps entirely.
func skipTiming(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("timing-shape test in -short mode")
	}
	if raceEnabled {
		t.Skip("timing-shape test under the race detector")
	}
}

// quickSweep shrinks a figure config so tests stay fast while preserving
// the qualitative shape.
func quickSweep(cfg LatencyConfig, counts []int) LatencyConfig {
	cfg.MessageCounts = counts
	cfg.Repetitions = 2
	cfg.Warmup = 1
	return cfg
}

func TestFigure5Shape(t *testing.T) {
	skipTiming(t)
	cfg := quickSweep(Figure5(), []int{1, 32})
	cfg.Repetitions = 6
	r, err := RunLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1, p32 := r.Points[0], r.Points[1]

	// At M=1 packing costs extra: Our Approach must not beat No
	// Optimization ("the time consumption of Our Approach is more than
	// that of No Optimization"). The overhead is small at this scale, so
	// the assertion allows a noise band rather than a strict ordering.
	if p1.Millis[OurApproach] < p1.Millis[NoOptimization]*0.8 {
		t.Errorf("M=1: ours %.3fms vs noopt %.3fms — packing should not win at M=1",
			p1.Millis[OurApproach], p1.Millis[NoOptimization])
	}
	// At M=32 with 10-byte payloads packing must win clearly.
	if s := p32.Speedup(); s < 3 {
		t.Errorf("M=32 speedup = %.2fx, want >= 3x for small payloads", s)
	}
	// And beat the multi-threaded baseline too.
	if p32.Millis[OurApproach] >= p32.Millis[MultipleThreads] {
		t.Errorf("M=32: ours %.3fms vs threads %.3fms — packing should beat threads at 10 B",
			p32.Millis[OurApproach], p32.Millis[MultipleThreads])
	}
}

func TestFigure7Inversion(t *testing.T) {
	skipTiming(t)
	// At 100 KB payloads the packed approach loses its advantage
	// ("Our Approach becomes the most time consuming if the services
	// request data is huge").
	cfg := quickSweep(Figure7(), []int{8})
	cfg.Repetitions = 2
	r, err := RunLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := r.Points[0]
	if s := p.Speedup(); s > 1.5 {
		t.Errorf("100KB M=8 speedup = %.2fx; huge payloads should erase the packing win", s)
	}
	// Multiple threads should be at least as good as packing here
	// (full-duplex overlap vs fully serialized pack/transfer/unpack).
	if p.Millis[OurApproach] < p.Millis[MultipleThreads]*0.8 {
		t.Errorf("100KB: ours %.1fms clearly beats threads %.1fms, unlike Figure 7",
			p.Millis[OurApproach], p.Millis[MultipleThreads])
	}
}

func TestWSSecurityAmplifiesPacking(t *testing.T) {
	skipTiming(t)
	const m = 128
	plainCfg := quickSweep(Figure5(), []int{m})
	plainCfg.Repetitions = 5
	plain, err := RunLatency(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	securedCfg := quickSweep(WSSecuritySweep(), []int{m})
	securedCfg.Repetitions = 5
	secured, err := RunLatency(securedCfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claim is that per-message header overhead is amortized
	// by packing. Test the amortization directly with absolute medians
	// (speedup ratios are too noisy on shared boxes): the security cost
	// added to 128 serial messages must far exceed the cost added to one
	// packed message.
	ms := func(r *LatencyResult, a Approach) float64 {
		return metrics.Millis(r.Points[0].Samples[a].P50)
	}
	serialDelta := ms(secured, NoOptimization) - ms(plain, NoOptimization)
	packedDelta := ms(secured, OurApproach) - ms(plain, OurApproach)
	if serialDelta < 3 {
		// The expected signal is ~10-12 ms at M=128; if the measured delta
		// is inside the run-to-run noise band, the comparison is
		// meaningless this run.
		t.Skipf("noise: serial security delta %.3fms below the noise floor", serialDelta)
	}
	if packedDelta >= serialDelta/2 {
		t.Errorf("WSS cost: packed +%.3fms vs serial +%.3fms for M=%d — packing should amortize the header overhead",
			packedDelta, serialDelta, m)
	}
}

func TestWANAmplifiesPacking(t *testing.T) {
	skipTiming(t)
	cfg := WANSweep()
	cfg.MessageCounts = []int{8}
	cfg.Repetitions = 2
	cfg.Warmup = 1
	r, err := RunLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// On a 40 ms RTT link, 8 serial round trips vs 1 is ~8x minimum.
	if s := r.Points[0].Speedup(); s < 5 {
		t.Errorf("WAN M=8 speedup = %.2fx, want >= 5x", s)
	}
}

func TestTravelExperiment(t *testing.T) {
	skipTiming(t)
	r, err := RunTravel(TravelConfig{Repetitions: 3, WorkTime: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if r.UnoptimizedMessages != 11 || r.OptimizedMessages != 7 {
		t.Errorf("messages = %d/%d, want 11/7", r.UnoptimizedMessages, r.OptimizedMessages)
	}
	// The paper reports ~26%; we accept a generous band around the shape
	// (any solid improvement with the same semantics).
	if r.ImprovementPct < 10 {
		t.Errorf("improvement = %.1f%%, want >= 10%%", r.ImprovementPct)
	}
	if r.ImprovementPct > 70 {
		t.Errorf("improvement = %.1f%% is implausibly high", r.ImprovementPct)
	}
}

func TestStagedVsCoupledAblation(t *testing.T) {
	skipTiming(t)
	r, err := RunStagedVsCoupled(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	staged, coupled := r.Rows[0].Millis, r.Rows[1].Millis
	if staged >= coupled {
		t.Errorf("staged %.2fms should beat coupled %.2fms for working packed ops", staged, coupled)
	}
}

func TestConnectionReuseAblation(t *testing.T) {
	skipTiming(t)
	r, err := RunConnectionReuse(2)
	if err != nil {
		t.Fatal(err)
	}
	perConn, keepAlive, packed := r.Rows[0].Millis, r.Rows[1].Millis, r.Rows[2].Millis
	if keepAlive >= perConn {
		t.Errorf("keep-alive %.2fms should beat per-connection %.2fms", keepAlive, perConn)
	}
	if packed >= keepAlive {
		t.Errorf("packed %.2fms should beat keep-alive serial %.2fms", packed, keepAlive)
	}
}

func TestPoolWidthAblation(t *testing.T) {
	skipTiming(t)
	r, err := RunPoolWidth(2)
	if err != nil {
		t.Fatal(err)
	}
	first, last := r.Rows[0].Millis, r.Rows[len(r.Rows)-1].Millis
	if last >= first {
		t.Errorf("32 workers (%.2fms) should beat 1 worker (%.2fms) on working packed ops", last, first)
	}
}

func TestRelatedWorkExperiment(t *testing.T) {
	skipTiming(t)
	r, err := RunRelatedWork(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	noOpt, packed := r.Rows[0].Millis, r.Rows[2].Millis
	// The paper's positioning: CPU-side caches cannot close the gap to
	// packing on many-small-messages workloads, because the overhead is
	// per-message network cost. The template cache must still be much
	// slower than packing.
	cached := r.Rows[1].Millis
	if cached < packed*2 {
		t.Errorf("template cache (%.2fms) nearly matches packing (%.2fms); it should not on M=64 x 10 B", cached, packed)
	}
	if packed >= noOpt {
		t.Errorf("packing (%.2fms) did not beat the baseline (%.2fms)", packed, noOpt)
	}
}

func TestThroughputExperiment(t *testing.T) {
	skipTiming(t)
	r, err := RunThroughput(ThroughputConfig{
		CallerCounts: []int{8, 128},
		Duration:     500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatalf("points = %d", len(r.Points))
	}
	high := r.Points[1]
	// §3.2: packing improves whole-application throughput — the win must
	// show at high offered concurrency, where per-message overhead
	// congests the link.
	if high.Packed.RequestsPS <= high.PerCall.RequestsPS {
		t.Errorf("at %d callers, packed %.0f req/s should beat per-call %.0f req/s",
			high.Callers, high.Packed.RequestsPS, high.PerCall.RequestsPS)
	}
	// And it does so with far fewer messages.
	if high.Packed.Envelopes*4 > high.Packed.Requests {
		t.Errorf("auto-packing used %d envelopes for %d requests; expected heavy coalescing",
			high.Packed.Envelopes, high.Packed.Requests)
	}
	var b strings.Builder
	r.Print(&b)
	if !strings.Contains(b.String(), "req/s") {
		t.Errorf("print output: %s", b.String())
	}
}

// TestAutoBatcherLoneCallIsDirect: with one caller, a call through the
// AutoBatcher goes out alone once its batch settles, so on LAN100 it takes at
// most 1.25x a direct Client.Call (a fixed 1 ms flush window made it 2.5x).
// The two kinds of call alternate in one environment, and their medians are
// compared.
func TestAutoBatcherLoneCallIsDirect(t *testing.T) {
	skipTiming(t)
	env, err := NewEnv(EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	auto := core.NewAutoBatcher(env.Client, 256)
	defer auto.Close()
	arg := soapenc.F("data", "aaaaaaaaaa")
	const warmup, reps = 5, 60
	var direct, batched metrics.Recorder
	for i := 0; i < warmup+reps; i++ {
		start := time.Now()
		if _, err := env.Client.Call("Echo", "echo", arg); err != nil {
			t.Fatal(err)
		}
		mid := time.Now()
		if _, err := auto.Call("Echo", "echo", arg); err != nil {
			t.Fatal(err)
		}
		if i >= warmup {
			direct.Record(mid.Sub(start))
			batched.Record(time.Since(mid))
		}
	}
	d, b := direct.Snapshot().P50, batched.Snapshot().P50
	if float64(b) > 1.25*float64(d) {
		t.Errorf("a lone AutoBatcher call took %v (median), %.2fx a direct call's %v; want at most 1.25x",
			b, float64(b)/float64(d), d)
	}
	if st := env.Client.Stats(); st.Batches != warmup+reps {
		t.Errorf("%d lone calls went out in %d batches, want one each", warmup+reps, st.Batches)
	}
}

func TestAutoBatchAblation(t *testing.T) {
	skipTiming(t)
	r, err := RunAutoBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
}

func TestBreakdownExperiment(t *testing.T) {
	skipTiming(t)
	r, err := RunBreakdown(32, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	serial, packed := r.Rows[0], r.Rows[1]
	if serial.Envelopes != 32 || packed.Envelopes != 1 {
		t.Errorf("envelopes = %d / %d, want 32 / 1", serial.Envelopes, packed.Envelopes)
	}
	// Robust structural claims only (totals flutter with scheduler noise
	// at these microsecond scales; spibench reports the measured values):
	// the one packed message costs more to parse than one tiny message —
	// medians, the parse phase covering the body's decoding: two packed
	// samples against sixty-four, so a mean is one preemption's to decide...
	if packed.ParseMs <= serial.ParseMs {
		t.Errorf("median per-envelope parse: packed %.4fms <= serial %.4fms", packed.ParseMs, serial.ParseMs)
	}
	// ...but nowhere near 32x more (sub-linear in the number of packed
	// requests, which is what makes packing pay off CPU-wise too).
	if packed.TotalParseMs > serial.TotalParseMs*3 {
		t.Errorf("packed total parse %.3fms far exceeds serial %.3fms", packed.TotalParseMs, serial.TotalParseMs)
	}
	var b strings.Builder
	r.Print(&b)
	if !strings.Contains(b.String(), "parse (ms)") {
		t.Errorf("print output:\n%s", b.String())
	}
}

func TestMicroSuite(t *testing.T) {
	r, err := RunMicro(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Bytes <= 0 {
			t.Errorf("%s: zero envelope size", row.Shape)
		}
		if row.SerializeUs < 0 || row.ParseUs <= 0 {
			t.Errorf("%s: implausible timings %+v", row.Shape, row)
		}
	}
	var b strings.Builder
	r.Print(&b)
	if !strings.Contains(b.String(), "serialize") {
		t.Errorf("print:\n%s", b.String())
	}
}

func TestPrinters(t *testing.T) {
	r := &LatencyResult{Config: Figure5()}
	r.Config.fillDefaults()
	r.Points = []*LatencyPoint{{
		M: 1,
		Millis: map[Approach]float64{
			NoOptimization: 1.0, MultipleThreads: 0.9, OurApproach: 1.2,
		},
	}}
	var b strings.Builder
	PrintLatency(&b, r)
	out := b.String()
	for _, want := range []string{"Figure 5", "No Optimization", "Our Approach", "Speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("latency table missing %q:\n%s", want, out)
		}
	}

	b.Reset()
	PrintTravel(&b, &TravelResult{
		Config:              TravelConfig{Repetitions: 10},
		UnoptimizedMessages: 11, OptimizedMessages: 7, ImprovementPct: 26,
	})
	if !strings.Contains(b.String(), "improvement: 26.0%") {
		t.Errorf("travel table:\n%s", b.String())
	}

	b.Reset()
	PrintAblation(&b, &AblationResult{Title: "T", Rows: []AblationRow{{Name: "a", Millis: 1, Note: "n"}}})
	if !strings.Contains(b.String(), "T") || !strings.Contains(b.String(), "(n)") {
		t.Errorf("ablation table:\n%s", b.String())
	}
}

func TestApproachNames(t *testing.T) {
	if NoOptimization.String() != "No Optimization" ||
		MultipleThreads.String() != "Multiple Threads" ||
		OurApproach.String() != "Our Approach" {
		t.Error("approach legend names drifted from the paper")
	}
	if Approach(42).String() == "" {
		t.Error("unknown approach has empty name")
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int]string{10: "10 bytes", 1000: "1K bytes", 100_000: "100K bytes", 2_000_000: "2M bytes"}
	for n, want := range cases {
		if got := humanBytes(n); got != want {
			t.Errorf("humanBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestSpeedupEdgeCases(t *testing.T) {
	p := &LatencyPoint{Millis: map[Approach]float64{}}
	if p.Speedup() != 0 {
		t.Error("speedup without data should be 0")
	}
}
