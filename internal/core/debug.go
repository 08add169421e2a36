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

// statsResponse writes doc, with the garbage collector read now: the one
// writer of /spi/stats.
func statsResponse(doc statsDoc) *httpx.Response {
	doc.Runtime = metrics.ReadRuntime()
	body, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return plainText(500, "stats encoding failed\n")
	}
	resp := httpx.NewResponse(200, append(body, '\n'))
	resp.Header.Set("Content-Type", "application/json")
	return resp
}

// serveDebug is both nodes' answer to a GET under the operator mount:
//
//	GET /spi/stats          — doc's JSON snapshot, with the process's GC
//	GET /spi/pprof/<name>   — a runtime profile (goroutine, heap, allocs,
//	                          block, mutex, threadcreate) in pprof format
func serveDebug(r Route, doc func() statsDoc) *httpx.Response {
	name, pprofPath := strings.CutPrefix(r.Path, debugMount+"pprof/")
	switch {
	case r.Path == debugMount+"stats":
		return statsResponse(doc())
	case pprofPath:
		return pprofResponse(name)
	}
	return plainText(404, "unknown debug endpoint; try /spi/stats or /spi/pprof/goroutine\n")
}

// GatewayDebug answers a gateway's GET under the operator mount, its
// counters read by stats when /spi/stats is asked for.
func GatewayDebug(r Route, stats func() any) *httpx.Response {
	return serveDebug(r, func() statsDoc { return statsDoc{Gateway: stats()} })
}

// statsDoc is a server's /spi/stats document: ServerStats, with what its
// stages add.
func (s *Server) statsDoc() statsDoc {
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
	return doc
}

func pprofResponse(name string) *httpx.Response {
	p := pprof.Lookup(name)
	if p == nil {
		return plainText(404, "unknown profile "+name+"\n")
	}
	var buf bytes.Buffer
	// debug=1 renders the legible text form; these endpoints exist for a
	// human with curl, not for the pprof binary protocol.
	if err := p.WriteTo(&buf, 1); err != nil {
		return plainText(500, "profile write failed\n")
	}
	resp := httpx.NewResponse(200, buf.Bytes())
	resp.Header.Set("Content-Type", "text/plain; charset=utf-8")
	return resp
}
