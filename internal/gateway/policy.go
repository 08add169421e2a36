package gateway

import (
	"hash/fnv"
	"time"

	"repro/internal/core"
)

// Policy selects how Parallel_Method entries map onto backends.
type Policy int

const (
	// RoundRobin spreads consecutive entries across backends in turn —
	// the default; maximizes parallelism for uniform work.
	RoundRobin Policy = iota
	// LeastLoaded assigns each entry to the backend with the fewest
	// packed entries in flight per unit of effective weight (counting this
	// request's own assignments). The effective weight is the backend's
	// weight times its speed relative to the fleet's fastest, taken from
	// the execution time each backend states on its sub-batch replies
	// (SPI-Load), so a slow backend accumulates less work. With equal
	// weights and no samples it compares in-flight entries alone. See
	// docs/CONTROL_PLANE.md.
	LeastLoaded
	// OpAffinity hashes (service, operation) onto the backend list, so
	// the same operation always lands on the same healthy backend —
	// keeps per-operation caches warm on a heterogeneous farm.
	OpAffinity
)

// String names the policy for flags and stats.
func (p Policy) String() string {
	switch p {
	case LeastLoaded:
		return "least-loaded"
	case OpAffinity:
		return "op-affinity"
	default:
		return "round-robin"
	}
}

// ParsePolicy maps a flag value to a Policy; unknown values fall back to
// round-robin. "weighted", the name of the policy LeastLoaded absorbed, still
// parses, to LeastLoaded.
func ParsePolicy(s string) Policy {
	switch s {
	case "least-loaded", "weighted":
		return LeastLoaded
	case "op-affinity":
		return OpAffinity
	default:
		return RoundRobin
	}
}

// shard is one backend's share of a scattered request.
type shard struct {
	b       *backend
	entries []*core.ScatterEntry
	doc     []byte // the sub-batch, once built (buildSubBatches)
}

// routableCandidates filters the membership set down to the backends
// new work may be handed: circuit closed (or half-open) and not draining.
// When nothing qualifies the policy fails open to the non-draining set, or
// the full set as a last resort — failing open gives re-probes a
// chance instead of failing every entry.
func routableCandidates(backends []*backend, now time.Time) []*backend {
	candidates := make([]*backend, 0, len(backends))
	for _, b := range backends {
		if !b.draining() && b.available(now) {
			candidates = append(candidates, b)
		}
	}
	if len(candidates) > 0 {
		return candidates
	}
	for _, b := range backends {
		if !b.draining() {
			candidates = append(candidates, b)
		}
	}
	if len(candidates) > 0 {
		return candidates
	}
	return backends
}

// assign shards the live (non-faulted) entries across the routable
// backends.
func (g *Gateway) assign(entries []*core.ScatterEntry) []shard {
	candidates := routableCandidates(g.backends, time.Now())
	shards := make(map[*backend]*shard, len(candidates))
	place := func(e *core.ScatterEntry, b *backend) {
		sh := shards[b]
		if sh == nil {
			sh = &shard{b: b}
			shards[b] = sh
		}
		sh.entries = append(sh.entries, e)
	}
	switch g.cfg.Policy {
	case LeastLoaded:
		// Snapshot in-flight ENTRY counts once and add this batch's own
		// assignments on top, so one request doesn't dog-pile the backend
		// that merely happened to be idle at the first entry. Entries, not
		// sub-batches: a 1-entry shard and a 5-entry shard are one exchange
		// each but very different amounts of outstanding work.
		//
		// Lowest load-per-effective-weight wins, scanning first-min:
		// compare (load+1)/eff by cross-multiplication, keeping the
		// assignment loop in exact integer arithmetic. The +1 counts the
		// entry being placed. With every effective weight equal the
		// comparison reduces to load[i] < load[min] (TestAssignTable).
		fastest := fastestSample(candidates)
		load := make([]int64, len(candidates))
		eff := make([]int64, len(candidates))
		for i, b := range candidates {
			load[i] = b.entriesInflight.Load()
			eff[i] = b.effectiveWeight(fastest)
		}
		for _, e := range entries {
			if e.Fault != nil {
				continue
			}
			min := 0
			for i := 1; i < len(candidates); i++ {
				if (load[i]+1)*eff[min] < (load[min]+1)*eff[i] {
					min = i
				}
			}
			place(e, candidates[min])
			load[min]++
		}
	case OpAffinity:
		for _, e := range entries {
			if e.Fault != nil {
				continue
			}
			h := fnv.New32a()
			h.Write([]byte(e.Service))
			h.Write([]byte{'.'})
			h.Write([]byte(e.Op))
			// Reduce in uint32: int(h.Sum32()) is negative for half of all
			// hashes where int is 32 bits wide.
			place(e, candidates[h.Sum32()%uint32(len(candidates))])
		}
	default: // RoundRobin
		for _, e := range entries {
			if e.Fault != nil {
				continue
			}
			n := g.rr.Add(1) - 1
			place(e, candidates[int(n%uint64(len(candidates)))])
		}
	}
	// Reserve the placed entries on their backends immediately — sendShard
	// releases them when the shard resolves. Counting from assignment, not
	// dispatch, keeps concurrent assigns from all seeing a backend as idle
	// in the window before its shards reach the wire.
	for _, sh := range shards {
		sh.b.entriesInflight.Add(int64(len(sh.entries)))
	}
	// Emit shards in candidate order so fan-out order is deterministic.
	out := make([]shard, 0, len(shards))
	for _, b := range candidates {
		if sh := shards[b]; sh != nil {
			out = append(out, *sh)
		}
	}
	return out
}

// pickBackend chooses one routable backend for whole-request proxying and
// sub-batch failover. exclude skips a backend that just failed, unless it
// is the only one left.
func (g *Gateway) pickBackend(exclude *backend) *backend {
	backends := g.backends
	if len(backends) == 0 {
		return nil
	}
	now := time.Now()
	var fallback *backend
	n := len(backends)
	start := int((g.rr.Add(1) - 1) % uint64(n))
	for i := 0; i < n; i++ {
		b := backends[(start+i)%n]
		if b == exclude {
			if fallback == nil {
				fallback = b
			}
			continue
		}
		if b.draining() {
			continue
		}
		if b.available(now) {
			return b
		}
		if fallback == nil || fallback == exclude {
			fallback = b
		}
	}
	return fallback
}
