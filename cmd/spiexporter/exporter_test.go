package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/soapenc"
)

// startAdminServer stands up one admin-enabled SPI server on an in-memory
// link and returns its dialer.
func startAdminServer(t *testing.T) func() (net.Conn, error) {
	t.Helper()
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	c := registry.NewContainer()
	echo := c.MustAddService("Echo", "urn:spi:Echo", "test echo")
	echo.MustRegister("echo", func(ctx *registry.Context, params []soapenc.Field) ([]soapenc.Field, error) {
		return params, nil
	}, "identity")
	srv, err := core.NewServer(core.ServerConfig{
		Container: c, AppWorkers: 4, AppQueue: 16, AdminService: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close(); link.Close() })

	// Execute one call so the per-op summaries have content, and advertise
	// weight 3.
	cli, err := core.NewClient(core.ClientConfig{Dial: link.Dial, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call("Echo", "echo", soapenc.F("msg", "warm")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(admin.ServiceName, admin.OpSetState, soapenc.F("weight", int64(3))); err != nil {
		t.Fatal(err)
	}
	return link.Dial
}

func TestExporterScrapeAndRender(t *testing.T) {
	e := newExporter("/services/")
	defer e.close()
	if err := e.addNode("good:8080", startAdminServer(t)); err != nil {
		t.Fatal(err)
	}
	if err := e.addNode("dead:8080", func() (net.Conn, error) {
		return nil, errors.New("connection refused")
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.addNode("good:8080", startAdminServer(t)); err == nil {
		t.Error("duplicate target accepted")
	}

	e.scrapeAll(2 * time.Second)

	metrics := string(e.renderMetrics())
	for _, want := range []string{
		`spi_up{node="good:8080",role="server"} 1`,
		`spi_up{node="dead:8080"} 0`,
		`spi_weight{node="good:8080"} 3`,
		`spi_workers{node="good:8080"} 4`,
		`spi_op_count_total{node="good:8080",op="Echo.echo"} 1`,
		`spi_op_latency_microseconds{node="good:8080",op="Echo.echo",quantile="0.99"}`,
		"# TYPE spi_up gauge",
		"# TYPE spi_envelopes_total counter",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics output missing %q\n%s", want, metrics)
		}
	}
	if strings.Contains(metrics, `spi_weight{node="dead:8080"}`) {
		t.Error("dead node leaked gauge samples")
	}

	// The JSON snapshot carries both nodes, with the failure recorded.
	body, err := e.renderJSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]scrape
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("snapshot is not JSON: %v\n%s", err, body)
	}
	if got := snap["good:8080"]; got.Err != "" || got.Stats.Role != "server" || got.Stats.Weight != 3 {
		t.Errorf("good node snapshot = %+v", got)
	}
	if got := snap["dead:8080"]; got.Err == "" {
		t.Errorf("dead node snapshot has no error: %+v", got)
	}
}

func TestExporterHTTPEndpoints(t *testing.T) {
	e := newExporter("/services/")
	defer e.close()
	if err := e.addNode("n0", startAdminServer(t)); err != nil {
		t.Fatal(err)
	}
	e.scrapeAll(2 * time.Second)

	get := func(target string) *httpx.Response {
		t.Helper()
		return e.handle(context.Background(), httpx.NewRequest("GET", target, nil))
	}
	if resp := get("/metrics"); resp.StatusCode != 200 ||
		!strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("GET /metrics = %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if resp := get("/snapshot?pretty"); resp.StatusCode != 200 ||
		resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("GET /snapshot = %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if resp := get("/nope"); resp.StatusCode != 404 {
		t.Errorf("GET /nope = %d", resp.StatusCode)
	}
	if resp := e.handle(context.Background(), httpx.NewRequest("POST", "/metrics", nil)); resp.StatusCode != 405 {
		t.Errorf("POST /metrics = %d", resp.StatusCode)
	}
}

// TestLabelEscaping: a label value is escaped as the Prometheus text
// format allows, backslash, double quote and line feed only. A tab or a
// U+0085 goes out as itself; an escape such as \t or \u0085 would make
// the scraper refuse the whole exposition.
func TestLabelEscaping(t *testing.T) {
	e := newExporter("")
	e.last["n\\1\"\n"] = scrape{Stats: admin.Stats{
		Role: "ser\tver", Weight: 1,
		FaultCodes: []admin.FaultCode{{Code: "Server.\u0085x", Count: 2}},
		Ops:        []admin.OpStat{{Op: "Echo.\techo", Count: 3}},
	}}
	metrics := string(e.renderMetrics())
	for _, want := range []string{
		`spi_up{node="n\\1\"\n",role="ser` + "\t" + `ver"} 1`,
		`spi_fault_code_total{node="n\\1\"\n",code="Server.` + "\u0085" + `x"} 2`,
		`spi_op_count_total{node="n\\1\"\n",op="Echo.` + "\t" + `echo"} 3`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics output missing %q\n%s", want, metrics)
		}
	}
	for _, bad := range []string{`\t`, `\u`, `\x`} {
		if strings.Contains(metrics, bad) {
			t.Errorf("metrics output holds the escape %s\n%s", bad, metrics)
		}
	}
}

// answering is a node that answers every request with status and body.
func answering(t *testing.T, status int, body []byte) func() (net.Conn, error) {
	t.Helper()
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpx.Server{Handler: func(context.Context, *httpx.Request) *httpx.Response {
		resp := httpx.NewResponse(status, body)
		resp.Header.Set("Content-Type", soap.V11.ContentType())
		return resp
	}}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close(); link.Close() })
	return link.Dial
}

// faultReply is a node's whole-message fault document.
func faultReply(t *testing.T, f *soap.Fault) []byte {
	t.Helper()
	enc := soap.NewStreamEncoder()
	defer enc.Release()
	enc.Begin(soap.V11, nil)
	f.AppendElementFor(enc.Emitter(), soap.V11)
	doc, err := enc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(doc)
}

// TestExporterHostileNodes: a node whose reply to GetStats is not a snapshot
// is down in /metrics, and /snapshot says why; a fault the node answered with
// shows its text there.
func TestExporterHostileNodes(t *testing.T) {
	rows := []struct {
		name   string
		status int
		body   []byte
		err    string // what /snapshot's error holds
	}{
		{"not xml", 200, []byte("not xml at all"), "xmltext"},
		{"not an envelope", 200, []byte(`<?xml version="1.0"?><root/>`), "Envelope"},
		{"fault", 500, faultReply(t, soap.ServerFault("stats unavailable")), "stats unavailable"},
	}
	e := newExporter("/services/")
	defer e.close()
	for _, r := range rows {
		if err := e.addNode(r.name, answering(t, r.status, r.body)); err != nil {
			t.Fatal(err)
		}
	}
	e.scrapeAll(2 * time.Second)

	get := func(target string) string {
		t.Helper()
		resp := e.handle(context.Background(), httpx.NewRequest("GET", target, nil))
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d", target, resp.StatusCode)
		}
		return string(resp.Body)
	}
	metrics := get("/metrics")
	var snap map[string]scrape
	if err := json.Unmarshal([]byte(get("/snapshot")), &snap); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if want := `spi_up{node="` + r.name + `"} 0`; !strings.Contains(metrics, want) {
			t.Errorf("%s: metrics output missing %q\n%s", r.name, want, metrics)
		}
		if got := snap[r.name].Err; !strings.Contains(got, r.err) {
			t.Errorf("%s: /snapshot error %q, want it to hold %q", r.name, got, r.err)
		}
	}
}
