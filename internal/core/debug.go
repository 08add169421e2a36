package core

import (
	"bytes"
	"encoding/json"
	"runtime/pprof"
	"strings"

	"repro/internal/httpx"
	"repro/internal/trace"
)

// debugPathPrefix is the URL prefix the operator endpoints live under when
// ServerConfig.DebugEndpoints is set. It is deliberately outside PathPrefix
// so it can never shadow a deployed service.
const debugPathPrefix = "/spi/"

// statsSnapshot is the JSON document GET /spi/stats returns: the server
// counters plus, when a tracer is attached, the per-stage latency summaries
// and gauges the trace sink has aggregated.
type statsSnapshot struct {
	Server ServerStats `json:"server"`

	// AppOccupancy is the application-stage worker occupancy in [0, 1]
	// at snapshot time.
	AppOccupancy float64 `json:"app_occupancy"`
	// AppQueueLen is the instantaneous application-stage queue length.
	AppQueueLen int `json:"app_queue_len"`

	// Stages is present only when a tracer is attached.
	Stages []trace.StageSummary `json:"stages,omitempty"`
	// Gauges is present only when a tracer is attached.
	Gauges []trace.GaugeValue `json:"gauges,omitempty"`
	// SpansDropped counts ring-buffer overwrites since the last Reset.
	SpansDropped int64 `json:"spans_dropped,omitempty"`
}

// handleDebug serves the operator endpoints:
//
//	GET /spi/stats          — JSON snapshot of ServerStats + trace summaries
//	GET /spi/pprof/<name>   — a runtime profile (goroutine, heap, allocs,
//	                          block, mutex, threadcreate) in pprof format
func (s *Server) handleDebug(req *httpx.Request) *httpx.Response {
	target := req.Target
	if i := strings.IndexByte(target, '?'); i >= 0 {
		target = target[:i]
	}
	switch {
	case target == debugPathPrefix+"stats":
		return s.handleStats()
	case strings.HasPrefix(target, debugPathPrefix+"pprof/"):
		return s.handlePprof(strings.TrimPrefix(target, debugPathPrefix+"pprof/"))
	}
	resp := httpx.NewResponse(404, []byte("unknown debug endpoint; try /spi/stats or /spi/pprof/goroutine\n"))
	resp.Header.Set("Content-Type", "text/plain")
	return resp
}

func (s *Server) handleStats() *httpx.Response {
	snap := statsSnapshot{Server: s.Stats()}
	if s.staged() {
		snap.AppOccupancy = snap.Server.AppStage.Occupancy()
		snap.AppQueueLen = s.appPool.QueueLen()
	}
	if tr := s.cfg.Tracer; tr.Enabled() {
		snap.Stages = tr.Stages()
		snap.Gauges = tr.Gauges()
		snap.SpansDropped = tr.Dropped()
	}
	body, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		resp := httpx.NewResponse(500, []byte("stats encoding failed\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	body = append(body, '\n')
	resp := httpx.NewResponse(200, body)
	resp.Header.Set("Content-Type", "application/json")
	return resp
}

func (s *Server) handlePprof(name string) *httpx.Response {
	p := pprof.Lookup(name)
	if p == nil {
		resp := httpx.NewResponse(404, []byte("unknown profile "+name+"\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	var buf bytes.Buffer
	// debug=1 renders the legible text form; these endpoints exist for a
	// human with curl, not for the pprof binary protocol.
	if err := p.WriteTo(&buf, 1); err != nil {
		resp := httpx.NewResponse(500, []byte("profile write failed\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	resp := httpx.NewResponse(200, buf.Bytes())
	resp.Header.Set("Content-Type", "text/plain; charset=utf-8")
	return resp
}
