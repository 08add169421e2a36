// Package admin implements the cluster control plane's management surface
// as an ordinary SPI service — the control plane dogfoods the data plane.
//
// Every spiserver and spigateway can self-host an "Admin" service (behind a
// config flag) exposing two operations:
//
//   - GetStats — a read-only, idempotent snapshot of the node's load state:
//     busy/idle application workers, queue depth, exchange counters and
//     per-operation latency digests. cmd/spiexporter scrapes it into
//     Prometheus-style metrics.
//   - SetState — mutates the node's advertised routing state: its weight
//     and whether it is draining. On a gateway, an optional backend
//     parameter addresses one of its backends instead: that backend's
//     routing weight, and a drain that stops new shards while in-flight
//     work finishes. A server's own state only informs exporters.
//
// Because Admin is a plain registry service, both operations are
// packed-friendly: a monitoring client can pack GetStats entries for a
// whole fleet into one Parallel_Method envelope, exactly like any
// application operation. The wire format is pinned byte-for-byte by the
// golden suite in internal/core (testdata/admin_*.xml).
//
// See docs/CONTROL_PLANE.md for the full lifecycle.
package admin

import (
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/soapenc"
)

const (
	// ServiceName is the control-plane service's deployed name.
	ServiceName = "Admin"
	// Namespace is the XML namespace of its request/response elements.
	Namespace = "urn:spi:Admin"
	// OpGetStats is the read-only stats snapshot operation.
	OpGetStats = "GetStats"
	// OpSetState is the routing-state mutation operation.
	OpSetState = "SetState"
)

// OpStat is one operation's latency digest inside a Stats snapshot —
// metrics.SummaryExport keyed by its dotted "Service.operation" name.
type OpStat struct {
	Op     string `json:"op" soap:"op"`
	Count  int64  `json:"count" soap:"count"`
	MeanUs int64  `json:"mean_us" soap:"mean_us"`
	P50Us  int64  `json:"p50_us" soap:"p50_us"`
	P90Us  int64  `json:"p90_us" soap:"p90_us"`
	P99Us  int64  `json:"p99_us" soap:"p99_us"`
}

// Stats is the control-plane snapshot one node advertises through
// Admin.GetStats. All counters are monotonic since process start; the
// worker/queue fields are instantaneous.
//
// The soap tags are the GetStatsResponse parameters, and the field order is
// their wire order, pinned by the admin goldens in internal/core/testdata:
// a new field goes before Ops, never between two existing ones.
type Stats struct {
	// Role is "server" or "gateway".
	Role string `json:"role" soap:"role"`
	// Weight is the node's advertised routing weight (>= 1); Draining
	// reports whether it is draining (no new work should be routed).
	Weight   int64 `json:"weight" soap:"weight"`
	Draining bool  `json:"draining" soap:"draining"`

	// Workers is the application-stage pool width; Busy and Idle split it
	// by instantaneous occupancy. Zero on nodes without an app stage
	// (coupled servers, gateways without an exchange bound).
	Workers int64 `json:"workers" soap:"workers"`
	Busy    int64 `json:"busy" soap:"busy"`
	Idle    int64 `json:"idle" soap:"idle"`
	// QueueDepth and QueueCap describe the application-stage queue.
	QueueDepth int64 `json:"queue_depth" soap:"queue_depth"`
	QueueCap   int64 `json:"queue_cap" soap:"queue_cap"`
	// Inflight is the node's in-flight unit count: dispatched app tasks on
	// a server, outstanding backend sub-batches on a gateway.
	Inflight int64 `json:"inflight" soap:"inflight"`

	Envelopes  int64 `json:"envelopes" soap:"envelopes"`
	Requests   int64 `json:"requests" soap:"requests"`
	Packed     int64 `json:"packed" soap:"packed"`
	Faults     int64 `json:"faults" soap:"faults"`
	ItemFaults int64 `json:"item_faults" soap:"item_faults"`

	// FaultCodes breaks Faults+ItemFaults down by emitted wire fault code
	// (Server.Timeout, Server.Busy, ...). Omitted from the wire when every
	// tally is zero, so nodes with no faults advertise the same bytes they
	// did before the taxonomy existed.
	FaultCodes []FaultCode `json:"fault_codes,omitempty" soap:"fault_codes,omitempty"`

	// Ops holds per-operation latency digests, sorted by name. It is an
	// array on the wire even when empty.
	Ops []OpStat `json:"ops,omitempty" soap:"ops"`
}

// FaultCode is one per-wire-code fault tally inside a Stats snapshot.
type FaultCode struct {
	Code  string `json:"code" soap:"code"`
	Count int64  `json:"count" soap:"count"`
}

// FaultCodes converts the error core's counter snapshot into the admin
// wire type.
func FaultCodes(cc []fault.CodeCount) []FaultCode {
	if len(cc) == 0 {
		return nil
	}
	out := make([]FaultCode, len(cc))
	for i, c := range cc {
		out[i] = FaultCode{Code: c.Code, Count: c.Count}
	}
	return out
}

// Source supplies the live snapshot behind GetStats. Both core.Server and
// gateway.Gateway implement it.
type Source interface {
	AdminStats() Stats
}

// Target is the routing state one SetState call changes: a node's own State,
// or one backend of a gateway.
type Target interface {
	Snapshot() (weight int64, draining bool)
	// SetWeight is called with w >= 1 only.
	SetWeight(w int64) error
	SetDraining(d bool)
}

// Fronts is implemented by a Source that fronts named backends (the
// gateway): SetState's backend parameter addresses one of them.
type Fronts interface {
	Backend(name string) (Target, bool)
}

// State is the mutable routing state SetState controls: the advertised
// weight and drain flag. The zero value is invalid; use NewState. Safe for
// concurrent use.
type State struct {
	mu       sync.Mutex
	weight   int64
	draining bool
}

// NewState returns a state with weight 1 and draining off; SetState changes
// both.
func NewState() *State {
	return &State{weight: 1}
}

// Snapshot returns the current weight and drain flag.
func (st *State) Snapshot() (weight int64, draining bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.weight, st.draining
}

// SetWeight updates the advertised weight; values < 1 are rejected.
func (st *State) SetWeight(w int64) error {
	if w < 1 {
		return fmt.Errorf("admin: weight must be a positive integer, got %d", w)
	}
	st.mu.Lock()
	st.weight = w
	st.mu.Unlock()
	return nil
}

// SetDraining flips the drain flag.
func (st *State) SetDraining(d bool) {
	st.mu.Lock()
	st.draining = d
	st.mu.Unlock()
}

// Deploy registers the Admin service on a container: GetStats (marked
// idempotent — it is a pure read, so gateways may freely retry or fail it
// over) and SetState, which mutates st — or, given a backend parameter, the
// named backend of a src that implements Fronts. The source supplies the
// snapshot; its Weight/Draining fields are expected to come from the same st.
func Deploy(c *registry.Container, src Source, st *State) error {
	svc, err := c.AddService(ServiceName, Namespace,
		"cluster control plane: load stats and routing state (docs/CONTROL_PLANE.md)")
	if err != nil {
		return err
	}
	if err := svc.Register(OpGetStats, func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		return StatsFields(src.AdminStats()), nil
	}, "read-only snapshot of load state and counters"); err != nil {
		return err
	}
	if err := svc.Register(OpSetState, func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		var t Target = st
		for _, p := range params {
			if p.Name != "backend" {
				continue
			}
			name, ok := fmt.Sprint(p.Value), false
			if f, fronts := src.(Fronts); fronts {
				t, ok = f.Backend(name)
			}
			if !ok {
				return nil, soap.ClientFault("SetState: no backend named %q", name)
			}
		}
		for _, p := range params {
			switch p.Name {
			case "weight":
				w, ok := p.Value.(int64)
				if !ok {
					return nil, soap.ClientFault("SetState: weight must be an integer")
				}
				if w < 1 {
					return nil, soap.ClientFault("SetState: weight must be a positive integer, got %d", w)
				}
				if err := t.SetWeight(w); err != nil {
					return nil, soap.ClientFault("SetState: %v", err)
				}
			case "drain":
				d, ok := p.Value.(bool)
				if !ok {
					return nil, soap.ClientFault("SetState: drain must be a boolean")
				}
				t.SetDraining(d)
			}
		}
		w, d := t.Snapshot()
		return []soapenc.Field{soapenc.F("weight", w), soapenc.F("draining", d)}, nil
	}, "set the advertised routing weight and drain flag"); err != nil {
		return err
	}
	svc.MarkIdempotent(OpGetStats)
	return nil
}
