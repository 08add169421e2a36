package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/httpx"
)

// node is one scrape target: an SPI server or gateway whose Admin service
// answers GetStats at <prefix>Admin.
type node struct {
	name   string
	client *core.Client
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

// newExporter scrapes the Admin service under prefix, which each node's
// client reads as core.NewEndpoints does.
func newExporter(prefix string) *exporter {
	return &exporter{prefix: prefix, last: make(map[string]scrape)}
}

// addNode registers one target under a unique name.
func (e *exporter) addNode(name string, dial httpx.Dialer) error {
	for _, n := range e.nodes {
		if n.name == name {
			return fmt.Errorf("spiexporter: duplicate target %q", name)
		}
	}
	client, err := core.NewClient(core.ClientConfig{Dial: dial, KeepAlive: true, PathPrefix: e.prefix})
	if err != nil {
		return err
	}
	e.nodes = append(e.nodes, &node{name: name, client: client})
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

// scrapeNode runs one GetStats call. The reply is read by the client's
// reader and its results by admin.StatsFromFields — the path FuzzScrape
// hardens, since the exporter scrapes nodes it does not control.
func (e *exporter) scrapeNode(ctx context.Context, n *node) (admin.Stats, error) {
	results, err := n.client.CallCtx(ctx, admin.ServiceName, admin.OpGetStats)
	if err != nil {
		return admin.Stats{}, err
	}
	return admin.StatsFromFields(results)
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
// header, keeping output order deterministic. field is the index of the
// admin.Stats field a scalar family reads.
type metricFamily struct {
	name, help, typ string
	field           int
	samples         []string
}

func (f *metricFamily) add(labels string, value int64) {
	f.samples = append(f.samples, fmt.Sprintf("%s{%s} %d", f.name, labels, value))
}

// statFamilies returns a family for each field of admin.Stats whose metric
// tag names one, "name type help", in field order: each of those fields is
// an int64, or a bool published as 0 or 1.
func statFamilies() []*metricFamily {
	t := reflect.TypeFor[admin.Stats]()
	var out []*metricFamily
	for i := range t.NumField() {
		if tag, ok := t.Field(i).Tag.Lookup("metric"); ok {
			name, rest, _ := strings.Cut(tag, " ")
			typ, help, _ := strings.Cut(rest, " ")
			out = append(out, &metricFamily{name: name, typ: typ, help: help, field: i})
		}
	}
	return out
}

// renderMetrics emits the Prometheus text exposition of the last scrape:
// spi_up, the families of admin.Stats' fields, then the labelled ones of
// its fault codes and operations.
func (e *exporter) renderMetrics() []byte {
	names, scrapes := e.snapshot()

	up := &metricFamily{name: "spi_up", help: "whether the last Admin scrape of the node succeeded", typ: "gauge"}
	stats := statFamilies()
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
		v := reflect.ValueOf(st)
		for _, f := range stats {
			var n int64
			switch fv := v.Field(f.field); {
			case fv.Kind() != reflect.Bool:
				n = fv.Int()
			case fv.Bool():
				n = 1
			}
			f.add(nl, n)
		}
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
	for _, f := range slices.Concat([]*metricFamily{up}, stats, []*metricFamily{faultCodes, opCount, opLatency, opMean}) {
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
