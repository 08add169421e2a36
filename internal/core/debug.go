package core

import (
	"bytes"
	"encoding/json"
	"runtime/pprof"
	"strings"

	"repro/internal/httpx"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// debugPathPrefix is the URL prefix the operator endpoints live under when
// ServerConfig.DebugEndpoints is set. It is deliberately outside PathPrefix
// so it can never shadow a deployed service.
const debugPathPrefix = "/spi/"

// statsDoc is the JSON document GET /spi/stats returns on either node: its
// counters under its role, "server" or "gateway", the process's garbage
// collector, and on a server what its stages add (serverDoc).
type statsDoc struct {
	Server  *ServerStats `json:"server,omitempty"`
	Gateway any          `json:"gateway,omitempty"`

	// Runtime is the process's garbage collector at snapshot time.
	Runtime metrics.RuntimeStats `json:"runtime"`

	*serverDoc
}

// serverDoc is what a server's statsDoc adds: its application stage, and,
// when a tracer is attached, the per-stage latency summaries and gauges the
// trace sink has aggregated.
type serverDoc struct {
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

// GatewayStats answers GET /spi/stats on a gateway whose counters are stats.
func GatewayStats(stats any) *httpx.Response {
	return statsResponse(statsDoc{Gateway: stats})
}

// statsResponse writes doc, with the garbage collector read now: the one
// writer of /spi/stats.
func statsResponse(doc statsDoc) *httpx.Response {
	doc.Runtime = metrics.ReadRuntime()
	body, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		resp := httpx.NewResponse(500, []byte("stats encoding failed\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	resp := httpx.NewResponse(200, append(body, '\n'))
	resp.Header.Set("Content-Type", "application/json")
	return resp
}

// handleDebug serves the operator endpoints:
//
//	GET /spi/stats          — JSON snapshot of ServerStats, the process's GC
//	                          and trace summaries
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
	st := s.Stats()
	doc := statsDoc{Server: &st, serverDoc: &serverDoc{}}
	if s.staged() {
		doc.AppOccupancy = st.AppStage.Occupancy()
		doc.AppQueueLen = s.appPool.QueueLen()
	}
	if tr := s.cfg.Tracer; tr.Enabled() {
		doc.Stages = tr.Stages()
		doc.Gauges = tr.Gauges()
		doc.SpansDropped = tr.Dropped()
	}
	return statsResponse(doc)
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
