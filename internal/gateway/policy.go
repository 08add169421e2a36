package gateway

import (
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
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

// effWeightScale is the fixed-point scale of an effective weight: it carries
// three decimal places so the speed factor keeps resolution without floating
// point in the assignment loop.
const effWeightScale = 1000

// maxWeight bounds a backend's weight, so that load × weight × effWeightScale
// stays far inside int64 in the assignment loop.
const maxWeight = 1 << 20

// minSpeedDiv floors a backend's speed factor at 1/minSpeedDiv: a backend ten
// or more times slower than the fleet's fastest keeps a tenth of its weight,
// so real traffic still samples it and it recovers without operator action.
const minSpeedDiv = 10

// fastestSample is the smallest execution time any of the backends at
// indices has stated, 0 when none has stated one.
func (g *Gateway) fastestSample(indices []int) int64 {
	var fastest int64
	for _, i := range indices {
		if s := g.backends[i].svcUs.Load(); s > 0 && (fastest == 0 || s < fastest) {
			fastest = s
		}
	}
	return fastest
}

// effectiveWeight is the backend's weight × its speed relative to the
// fleet's fastest sample, fastest/own, in effWeightScale fixed point and
// floored at 1/minSpeedDiv of the weight. A backend with no sample, or a
// fleet with none (fastest 0), keeps speed 1 — so an old build that never
// states its load routes exactly as before.
func (b *backend) effectiveWeight(fastest int64) int64 {
	w := b.weight.Load() * effWeightScale
	own := b.svcUs.Load()
	if fastest <= 0 || own <= fastest {
		return w
	}
	return max(int64(float64(w)*float64(fastest)/float64(own)), w/minSpeedDiv)
}

// noteLoad adopts the execution time a sub-batch reply states in its
// SPI-Load header. The header is input from another process, so anything
// but one positive base-10 integer is ignored and the previous sample stays.
func (b *backend) noteLoad(h *httpx.Header) {
	n, v := 0, ""
	h.Each(func(name, value string) {
		if strings.EqualFold(name, core.HeaderLoad) {
			n, v = n+1, value
		}
	})
	if n != 1 {
		return
	}
	if us, err := strconv.ParseInt(v, 10, 64); err == nil && us > 0 {
		b.svcUs.Store(us)
	}
}

// shard is one backend's share of a scattered request.
type shard struct {
	b       *backend
	entries []*core.ScatterEntry
	doc     []byte // the sub-batch, once built (buildSubBatches)
}

// assign shards the live (non-faulted) entries across the routable backends
// and reserves them there, in one fleet event; sendShard releases them. So a
// backend is not idle to concurrent assigns, nor its drain complete, before
// a shard built but not yet sent has returned.
func (g *Gateway) assign(entries []*core.ScatterEntry) []shard {
	var out []shard
	g.fleet.reserve(time.Now(), func(cands []int, load []int64) {
		// LeastLoaded places on the reserved ENTRY counts (a 1-entry and a
		// 5-entry shard are one exchange each but not the same work) plus
		// this batch's own placements, so a batch doesn't dog-pile whichever
		// backend was idle at its first entry. Lowest load per effective
		// weight wins, first-min, comparing (load+1)/eff by
		// cross-multiplication in exact integers; with equal weights that is
		// load[j] < load[k] (TestAssignTable).
		var eff []int64
		if g.cfg.Policy == LeastLoaded {
			fastest := g.fastestSample(cands)
			for _, i := range cands {
				eff = append(eff, g.backends[i].effectiveWeight(fastest))
			}
		}
		// One shard per candidate, emitted in candidate order so fan-out
		// order is deterministic.
		shards := make([]shard, len(cands))
		for _, e := range entries {
			if e.Fault != nil {
				continue
			}
			k := 0
			switch g.cfg.Policy {
			case LeastLoaded:
				for j := 1; j < len(cands); j++ {
					if (load[j]+1)*eff[k] < (load[k]+1)*eff[j] {
						k = j
					}
				}
			case OpAffinity:
				h := fnv.New32a()
				h.Write([]byte(e.Service))
				h.Write([]byte{'.'})
				h.Write([]byte(e.Op))
				// Reduce in uint32: int(h.Sum32()) is negative for half of
				// all hashes where int is 32 bits wide.
				k = int(h.Sum32() % uint32(len(cands)))
			default: // RoundRobin
				k = int((g.rr.Add(1) - 1) % uint64(len(cands)))
			}
			shards[k].entries = append(shards[k].entries, e)
			load[k]++
		}
		out = shards[:0]
		for k, sh := range shards {
			if sh.entries != nil {
				sh.b = g.backends[cands[k]]
				out = append(out, sh)
			}
		}
	})
	return out
}
