package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/admin"
	"repro/internal/httpx"
	"repro/internal/soap"
)

// node is one scrape target: an SPI server or gateway whose Admin service
// answers GetStats at <prefix>Admin.
type node struct {
	name   string
	client *httpx.Client
}

// scrape is the last result for one node. Err is empty on success.
type scrape struct {
	Stats admin.Stats `json:"stats"`
	Err   string      `json:"error,omitempty"`
	At    time.Time   `json:"scraped_at"`
}

// exporter polls a fleet of Admin services and renders the latest
// snapshots as Prometheus-style text metrics and as JSON.
type exporter struct {
	prefix string
	nodes  []*node

	mu   sync.RWMutex
	last map[string]scrape
}

func newExporter(prefix string) *exporter {
	if prefix == "" {
		prefix = "/services/"
	}
	if !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	return &exporter{prefix: prefix, last: make(map[string]scrape)}
}

// addNode registers one target under a unique name.
func (e *exporter) addNode(name string, dial httpx.Dialer, dialCtx httpx.DialerCtx) error {
	for _, n := range e.nodes {
		if n.name == name {
			return fmt.Errorf("spiexporter: duplicate target %q", name)
		}
	}
	e.nodes = append(e.nodes, &node{
		name:   name,
		client: &httpx.Client{Dial: dial, DialCtx: dialCtx, KeepAlive: true},
	})
	return nil
}

// scrapeAll polls every node concurrently, each bounded by timeout, and
// replaces the stored snapshots.
func (e *exporter) scrapeAll(timeout time.Duration) {
	var wg sync.WaitGroup
	for _, n := range e.nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			s := scrape{At: time.Now()}
			stats, err := e.scrapeNode(ctx, n)
			if err != nil {
				s.Err = err.Error()
			} else {
				s.Stats = stats
			}
			e.mu.Lock()
			e.last[n.name] = s
			e.mu.Unlock()
		}(n)
	}
	wg.Wait()
}

// scrapeNode runs one GetStats exchange. The response body flows through
// admin.ParseStatsResponse — the parser FuzzParseStats hardens, since the
// exporter scrapes nodes it does not control.
func (e *exporter) scrapeNode(ctx context.Context, n *node) (admin.Stats, error) {
	resp, err := n.client.PostCtx(ctx, e.prefix+admin.ServiceName,
		soap.V11.ContentType(), admin.GetStatsRequest(soap.V11), "SOAPAction", `""`)
	if err != nil {
		return admin.Stats{}, err
	}
	body := append([]byte(nil), resp.Body...)
	resp.Release()
	return admin.ParseStatsResponse(body)
}

// snapshot copies the stored results in stable (sorted) node order.
func (e *exporter) snapshot() (names []string, scrapes map[string]scrape) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	scrapes = make(map[string]scrape, len(e.last))
	for name, s := range e.last {
		names = append(names, name)
		scrapes[name] = s
	}
	sort.Strings(names)
	return names, scrapes
}

// metricFamily accumulates one family's samples under a single HELP/TYPE
// header, keeping output order deterministic.
type metricFamily struct {
	name, help, typ string
	samples         []string
}

func (f *metricFamily) add(labels string, value int64) {
	f.samples = append(f.samples, fmt.Sprintf("%s{%s} %d", f.name, labels, value))
}

// renderMetrics emits the Prometheus text exposition of the last scrape.
func (e *exporter) renderMetrics() []byte {
	names, scrapes := e.snapshot()

	up := &metricFamily{name: "spi_up", help: "whether the last Admin scrape of the node succeeded", typ: "gauge"}
	weight := &metricFamily{name: "spi_weight", help: "advertised routing weight", typ: "gauge"}
	draining := &metricFamily{name: "spi_draining", help: "whether the node advertises a drain", typ: "gauge"}
	workers := &metricFamily{name: "spi_workers", help: "application-stage pool width", typ: "gauge"}
	busy := &metricFamily{name: "spi_busy_workers", help: "application-stage workers currently executing", typ: "gauge"}
	idle := &metricFamily{name: "spi_idle_workers", help: "application-stage workers currently idle", typ: "gauge"}
	queueDepth := &metricFamily{name: "spi_queue_depth", help: "application-stage queue occupancy", typ: "gauge"}
	queueCap := &metricFamily{name: "spi_queue_cap", help: "application-stage queue capacity", typ: "gauge"}
	inflight := &metricFamily{name: "spi_inflight", help: "requests (or backend sub-batches) in flight", typ: "gauge"}
	envelopes := &metricFamily{name: "spi_envelopes_total", help: "envelopes accepted", typ: "counter"}
	requests := &metricFamily{name: "spi_requests_total", help: "requests executed (or dispatched)", typ: "counter"}
	packed := &metricFamily{name: "spi_packed_total", help: "packed envelopes handled", typ: "counter"}
	faults := &metricFamily{name: "spi_faults_total", help: "whole-message faults produced", typ: "counter"}
	itemFaults := &metricFamily{name: "spi_item_faults_total", help: "per-item faults in packed responses", typ: "counter"}
	faultCodes := &metricFamily{name: "spi_fault_code_total", help: "emitted faults by wire fault code", typ: "counter"}
	opCount := &metricFamily{name: "spi_op_count_total", help: "operation executions", typ: "counter"}
	opLatency := &metricFamily{name: "spi_op_latency_microseconds", help: "operation execution latency quantiles", typ: "summary"}
	opMean := &metricFamily{name: "spi_op_latency_mean_microseconds", help: "mean operation execution latency", typ: "gauge"}

	for _, name := range names {
		s := scrapes[name]
		nl := label("node", name)
		if s.Err != "" {
			up.add(nl, 0)
			continue
		}
		st := s.Stats
		up.add(nl+","+label("role", st.Role), 1)
		weight.add(nl, st.Weight)
		draining.add(nl, boolToInt(st.Draining))
		workers.add(nl, st.Workers)
		busy.add(nl, st.Busy)
		idle.add(nl, st.Idle)
		queueDepth.add(nl, st.QueueDepth)
		queueCap.add(nl, st.QueueCap)
		inflight.add(nl, st.Inflight)
		envelopes.add(nl, st.Envelopes)
		requests.add(nl, st.Requests)
		packed.add(nl, st.Packed)
		faults.add(nl, st.Faults)
		itemFaults.add(nl, st.ItemFaults)
		for _, fc := range st.FaultCodes {
			faultCodes.add(nl+","+label("code", fc.Code), fc.Count)
		}
		for _, op := range st.Ops {
			ol := nl + "," + label("op", op.Op)
			opCount.add(ol, op.Count)
			opMean.add(ol, op.MeanUs)
			opLatency.add(ol+`,quantile="0.5"`, op.P50Us)
			opLatency.add(ol+`,quantile="0.9"`, op.P90Us)
			opLatency.add(ol+`,quantile="0.99"`, op.P99Us)
		}
	}

	var b strings.Builder
	for _, f := range []*metricFamily{
		up, weight, draining, workers, busy, idle, queueDepth, queueCap,
		inflight, envelopes, requests, packed, faults, itemFaults,
		faultCodes, opCount, opLatency, opMean,
	} {
		if len(f.samples) == 0 {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range f.samples {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
	return []byte(b.String())
}

// labelEscaper escapes a label value the way the Prometheus text format
// reads one back: backslash, double quote and line feed, and nothing else.
// Go's %q would also escape a tab or U+0085, which the format's parser
// refuses, failing the scrape of every node.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// label renders one name="value" label pair.
func label(name, value string) string {
	return name + `="` + labelEscaper.Replace(value) + `"`
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// renderJSON emits the last scrape of every node as one JSON document.
func (e *exporter) renderJSON() ([]byte, error) {
	_, scrapes := e.snapshot()
	return json.MarshalIndent(scrapes, "", "  ")
}

// handle serves GET /metrics (Prometheus text) and GET /snapshot (JSON).
func (e *exporter) handle(ctx context.Context, req *httpx.Request) *httpx.Response {
	target := req.Target
	if i := strings.IndexByte(target, '?'); i >= 0 {
		target = target[:i]
	}
	if req.Method != "GET" {
		resp := httpx.NewResponse(405, []byte("method not allowed\n"))
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}
	switch target {
	case "/metrics":
		resp := httpx.NewResponse(200, e.renderMetrics())
		resp.Header.Set("Content-Type", "text/plain; version=0.0.4")
		return resp
	case "/snapshot":
		body, err := e.renderJSON()
		if err != nil {
			resp := httpx.NewResponse(500, []byte("snapshot marshal failed\n"))
			resp.Header.Set("Content-Type", "text/plain")
			return resp
		}
		resp := httpx.NewResponse(200, append(body, '\n'))
		resp.Header.Set("Content-Type", "application/json")
		return resp
	}
	resp := httpx.NewResponse(404, []byte("spiexporter serves GET /metrics and GET /snapshot\n"))
	resp.Header.Set("Content-Type", "text/plain")
	return resp
}

// close releases every target's connection pool.
func (e *exporter) close() {
	for _, n := range e.nodes {
		n.client.Close()
	}
}
