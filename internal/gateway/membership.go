package gateway

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/admin"
	"repro/internal/soap"
)

// MembershipConfig tunes the control-plane poller. The zero value disables
// it; setting Enabled with everything else zero uses the defaults noted on
// each field.
type MembershipConfig struct {
	// Enabled starts the poller: every backend's Admin service is polled
	// for GetStats on a jittered interval and the snapshot drives the
	// Weighted policy's effective weights plus advertised drain state.
	// Backends without an Admin service keep their configured weight (the
	// poll fails, the stats stay stale, the fallback applies) — mixing
	// managed and unmanaged backends is fine.
	Enabled bool
	// PollInterval is the nominal poll period (default 250ms).
	PollInterval time.Duration
	// PollJitter is the uniform ± fraction applied to each wait (default
	// 0.2) so a fleet of gateways does not synchronize its polls against
	// the same backends.
	PollJitter float64
	// StaleAfter is how old a snapshot may grow before the backend's
	// effective weight falls back to its configured weight — turning the
	// Weighted policy into plain weighted-least-loaded for that backend
	// instead of routing on a stale picture (default 4×PollInterval).
	StaleAfter time.Duration
	// MinFactor floors the load-factor modulation (default 0.10): a
	// saturated backend keeps a sliver of weight so it is probed by real
	// traffic and recovers without operator action.
	MinFactor float64
	// Alpha is the EWMA smoothing applied to the load factor (default
	// 0.5); lower values smooth more.
	Alpha float64
	// Hysteresis is the minimum relative change (default 0.10 = 10%)
	// before a new effective weight is applied, so routing does not flap
	// on small load oscillations.
	Hysteresis float64
}

// withDefaults fills the zero fields.
func (mc MembershipConfig) withDefaults() MembershipConfig {
	if mc.PollInterval <= 0 {
		mc.PollInterval = 250 * time.Millisecond
	}
	if mc.PollJitter <= 0 {
		mc.PollJitter = 0.2
	}
	if mc.StaleAfter <= 0 {
		mc.StaleAfter = 4 * mc.PollInterval
	}
	if mc.MinFactor <= 0 {
		mc.MinFactor = 0.10
	}
	if mc.Alpha <= 0 {
		mc.Alpha = 0.5
	}
	if mc.Hysteresis <= 0 {
		mc.Hysteresis = 0.10
	}
	return mc
}

// membershipLoop polls every backend's Admin service on a jittered
// interval. Polls run concurrently (one slow backend must not starve the
// others' freshness) and each is bounded by the poll interval.
func (g *Gateway) membershipLoop() {
	defer g.memberWG.Done()
	mc := g.cfg.Membership
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	t := time.NewTimer(jittered(rng, mc.PollInterval, mc.PollJitter))
	defer t.Stop()
	for {
		select {
		case <-g.memberStop:
			return
		case <-t.C:
		}
		var wg sync.WaitGroup
		for _, b := range g.snapshot() {
			wg.Add(1)
			go func(b *backend) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), mc.PollInterval)
				g.pollBackend(ctx, b)
				cancel()
			}(b)
		}
		wg.Wait()
		now := time.Now()
		g.updateEffectiveWeights(now)
		for _, b := range g.snapshot() {
			g.applyStaleness(b, now)
		}
		t.Reset(jittered(rng, mc.PollInterval, mc.PollJitter))
	}
}

// jittered spreads a period uniformly over ±(frac/2) around its nominal
// value.
func jittered(rng *rand.Rand, d time.Duration, frac float64) time.Duration {
	if frac <= 0 {
		return d
	}
	spread := float64(d) * frac
	return time.Duration(float64(d) + spread*(rng.Float64()-0.5))
}

// pollBackend performs one GetStats exchange against a backend's Admin
// service and folds the result into routing state. Poll failures are
// deliberately silent: staleness is the signal (applyStaleness reverts the
// weight), and the data-plane circuit breaker already tracks reachability.
func (g *Gateway) pollBackend(ctx context.Context, b *backend) {
	resp, err := b.client.PostCtx(ctx, g.cfg.PathPrefix+admin.ServiceName,
		soap.V11.ContentType(), admin.GetStatsRequest(soap.V11), "SOAPAction", `""`)
	if err != nil {
		return
	}
	body := append([]byte(nil), resp.Body...)
	resp.Release()
	stats, err := admin.ParseStatsResponse(body)
	if err != nil {
		return
	}
	g.applyStats(b, stats, time.Now())
}

// applyStats folds one fresh snapshot into a backend's polled state — the
// smoothed occupancy factor and the raw stats the fleet pass reads — and
// applies an advertised drain-state change edge-triggered (so an operator
// acting directly on the gateway is not overridden by the backend's
// steady-state adverts). Effective weights are recomputed afterwards by
// updateEffectiveWeights, which needs the whole fleet's snapshots.
func (g *Gateway) applyStats(b *backend, stats admin.Stats, now time.Time) {
	mc := g.cfg.Membership
	factor := loadFactor(stats, mc.MinFactor)

	b.statsMu.Lock()
	if b.statsAt.IsZero() {
		b.ewmaFactor = factor // first sample: adopt, don't average with 0
	} else {
		b.ewmaFactor = mc.Alpha*factor + (1-mc.Alpha)*b.ewmaFactor
	}
	drainEdge := stats.Draining != b.advertDrain
	b.advertDrain = stats.Draining
	b.lastStats = stats
	b.statsAt = now
	b.statsMu.Unlock()

	if drainEdge {
		if stats.Draining {
			g.startDrain(b)
		} else {
			b.draining.Store(false)
		}
	}
}

// aggregateMeanUs is a node's mean service latency in microseconds across
// every operation it has executed, execution-count weighted. Zero when the
// node has not executed anything (or advertises no per-op summaries).
func aggregateMeanUs(s admin.Stats) int64 {
	var n, sum int64
	for _, op := range s.Ops {
		n += op.Count
		sum += op.Count * op.MeanUs
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// updateEffectiveWeights recomputes every polled backend's effective
// weight after a poll round: advertised weight × smoothed occupancy
// factor × fleet-relative speed factor, floored at MinFactor and applied
// with hysteresis.
//
// The speed factor is what keeps a degraded backend derated while idle.
// Occupancy alone oscillates: starve a slow backend and its queue drains,
// the next poll sees it idle, its weight recovers, a burst lands, the
// queue rebuilds. Service latency is intrinsic — a node running at 4× the
// fleet's best mean keeps ~1/4 weight whether its queue happens to be
// full or empty — so the ratio of the fleet-minimum aggregate latency to
// the node's own damps that cycle.
func (g *Gateway) updateEffectiveWeights(now time.Time) {
	mc := g.cfg.Membership
	backends := g.snapshot()

	// Fleet-minimum aggregate service latency across freshly-polled nodes.
	var minMean int64
	for _, b := range backends {
		b.statsMu.Lock()
		fresh := !b.statsAt.IsZero() && now.Sub(b.statsAt) <= mc.StaleAfter
		mean := aggregateMeanUs(b.lastStats)
		b.statsMu.Unlock()
		if fresh && mean > 0 && (minMean == 0 || mean < minMean) {
			minMean = mean
		}
	}

	for _, b := range backends {
		b.statsMu.Lock()
		fresh := !b.statsAt.IsZero() && now.Sub(b.statsAt) <= mc.StaleAfter
		occupancy := b.ewmaFactor
		weight := b.lastStats.Weight
		mean := aggregateMeanUs(b.lastStats)
		b.statsMu.Unlock()
		if !fresh {
			continue // never polled (fallback applies) or stale (applyStaleness reverts)
		}
		speed := 1.0
		if minMean > 0 && mean > 0 {
			speed = float64(minMean) / float64(mean)
		}
		factor := occupancy * speed
		if factor < mc.MinFactor {
			factor = mc.MinFactor
		}
		if factor > 1 {
			factor = 1
		}
		newEff := int64(float64(weight) * factor * effWeightScale)
		if newEff < 1 {
			newEff = 1
		}
		cur := b.effectiveWeight()
		delta := newEff - cur
		if delta < 0 {
			delta = -delta
		}
		if float64(delta) > float64(cur)*mc.Hysteresis {
			b.effWeight.Store(newEff)
		}
	}
}

// loadFactor maps a snapshot to the weight modulation f(busy/workers,
// queue/workers) ∈ [min, 1]: half a weight is lost at full worker
// occupancy, and queue backlog divides the rest — a backend with a queue as
// deep as its pool is worth less than half its nominal weight. Backends
// without an app stage (coupled) report zero workers and keep factor 1;
// their in-flight counts still differentiate them under Weighted's
// load-per-weight scoring.
func loadFactor(stats admin.Stats, min float64) float64 {
	if stats.Workers <= 0 {
		return 1
	}
	u := float64(stats.Busy) / float64(stats.Workers)
	q := float64(stats.QueueDepth) / float64(stats.Workers)
	f := (1 - u/2) / (1 + q)
	if f < min {
		f = min
	}
	if f > 1 {
		f = 1
	}
	return f
}

// applyStaleness reverts a backend whose stats have gone stale to its
// configured weight: routing on an old picture is worse than routing on
// none.
func (g *Gateway) applyStaleness(b *backend, now time.Time) {
	b.statsMu.Lock()
	stale := !b.statsAt.IsZero() && now.Sub(b.statsAt) > g.cfg.Membership.StaleAfter
	if stale {
		b.ewmaFactor = 0 // next fresh sample re-seeds the EWMA
	}
	b.statsMu.Unlock()
	if stale {
		b.effWeight.Store(b.weight * effWeightScale)
	}
}

// AddBackend joins a new backend to the live membership set; it becomes
// assignable immediately.
func (g *Gateway) AddBackend(bc BackendConfig) error {
	_, err := g.newBackend(bc)
	return err
}

// DrainBackend starts a graceful drain: the named backend stops receiving
// new shards and proxies at once, in-flight sub-batches run to completion,
// and once the last one finishes its keep-alive pool is released. The
// backend stays a member — ResumeBackend undoes the drain at any point.
func (g *Gateway) DrainBackend(name string) error {
	b, err := g.backendByName(name)
	if err != nil {
		return err
	}
	g.startDrain(b)
	return nil
}

// startDrain flags the backend and parks a waiter that releases the
// keep-alive pool once in-flight work hits zero. The waiter polls: drains
// are rare, operator-scale events, and a poll loop stays trivially correct
// against concurrent resume/re-drain cycles where a condition-variable
// handoff would need careful sequencing.
func (g *Gateway) startDrain(b *backend) {
	if b.draining.Swap(true) {
		return // already draining; the existing waiter is parked
	}
	g.drainWG.Add(1)
	go func() {
		defer g.drainWG.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.stopCh:
				return // gateway shutdown closes every pool anyway
			case <-t.C:
			}
			if !b.draining.Load() {
				return // resumed before the drain completed
			}
			if b.inflight.Load() == 0 {
				b.client.CloseIdle()
				g.drained.Inc()
				return
			}
		}
	}()
}

// ResumeBackend reverses a drain: the backend immediately rejoins
// assignment. Connections are re-dialed on demand (CloseIdle leaves the
// client usable).
func (g *Gateway) ResumeBackend(name string) error {
	b, err := g.backendByName(name)
	if err != nil {
		return err
	}
	b.draining.Store(false)
	return nil
}

// RemoveBackend takes a backend out of the membership set permanently: it
// vanishes from new snapshots at once (no new work), in-flight sub-batches
// finish against it, and its client closes once they have. Unlike a drain
// this is terminal — the closed client cannot be resumed.
func (g *Gateway) RemoveBackend(name string) error {
	g.bmu.Lock()
	var b *backend
	for i, cand := range g.backends {
		if cand.name == name {
			b = cand
			g.backends = append(g.backends[:i], g.backends[i+1:]...)
			break
		}
	}
	g.bmu.Unlock()
	if b == nil {
		return fmt.Errorf("gateway: no backend named %q", name)
	}
	b.draining.Store(true) // keeps failover from re-picking it via held snapshots
	g.drainWG.Add(1)
	go func() {
		defer g.drainWG.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.stopCh:
				b.client.Close()
				return
			case <-t.C:
			}
			if b.inflight.Load() == 0 {
				b.client.Close()
				g.drained.Inc()
				return
			}
		}
	}()
	return nil
}
