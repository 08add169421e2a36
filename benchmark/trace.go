package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/httpx"
	"repro/internal/msgcache"
	"repro/internal/registry"
	"repro/internal/services"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/stage"
	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

const (
	// The captured exchange is replayed traceReplays times under spans,
	// after a tenth as many unrecorded warm-ups; a row's time is its
	// median span. A workload whose messages take milliseconds per layer
	// stops at traceBudget instead, and reports how many replays it made.
	traceReplays    = 2000
	traceBudget     = 4 * time.Second
	minTraceReplays = 50
	// allocRuns is how many replays an exact allocation count averages
	// over, rounded down as testing.AllocsPerRun rounds.
	allocRuns = 100

	// Pseudo-parents of the span tree: exchange is the root, one per
	// replayed message; backend marks the codec rows on a gateway
	// workload, which cost the backend processes and so sit inside
	// gateway.backend_rtt rather than beside it.
	spanExchange = "exchange"
	spanBackend  = "backend"
)

// span is one timed call into a layer. Spans of one replayed message
// share Msg; Parent names the span that would have caused this one in a
// live exchange.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Msg    int    `json:"msg"`
	Start  int64  `json:"start_ns"` // from the start of the traced pass
	End    int64  `json:"end_ns"`
}

// layerRow replays one layer on the captured bytes.
type layerRow struct {
	name   string
	parent string
	fn     func() error
	allocs bool // the issue asks for this row's exact allocation count
}

// replay holds the captured exchange and everything the rows derive from
// it once, outside any timing.
type replay struct {
	w         workload
	reqWire   []byte // HTTP request exactly as the load generator wrote it
	respWire  []byte // HTTP response exactly as it read it
	req       *httpx.Request
	resp      *httpx.Response
	entries   []*xmldom.Element // request entries, heap DOM
	params    [][]soapenc.Field // decoded parameters per entry
	respBody  []*xmldom.Element // response body entries, heap DOM
	container *registry.Container
	closers   []func()
}

func (r *replay) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

func newReplay(w workload, reqWire, respWire []byte) (*replay, error) {
	r := &replay{w: w, reqWire: reqWire, respWire: respWire}
	var err error
	if r.req, err = httpx.ReadRequest(bufio.NewReader(bytes.NewReader(reqWire)), 0); err != nil {
		return nil, fmt.Errorf("captured request: %w", err)
	}
	if r.resp, err = httpx.ReadResponse(bufio.NewReader(bytes.NewReader(respWire)), 0); err != nil {
		return nil, fmt.Errorf("captured response: %w", err)
	}
	reqEnv, err := soap.Decode(bytes.NewReader(r.req.Body))
	if err != nil {
		return nil, fmt.Errorf("captured request: %w", err)
	}
	respEnv, err := soap.Decode(bytes.NewReader(r.resp.Body))
	if err != nil {
		return nil, fmt.Errorf("captured response: %w", err)
	}
	if len(reqEnv.Body) != 1 {
		return nil, fmt.Errorf("captured request has %d body entries", len(reqEnv.Body))
	}
	r.respBody = respEnv.Body
	r.entries = reqEnv.Body
	if isPacked(reqEnv.Body[0]) {
		r.entries = reqEnv.Body[0].ChildElements()
	}
	if len(r.entries) != w.Pack {
		return nil, fmt.Errorf("captured request carries %d calls, workload sends %d", len(r.entries), w.Pack)
	}
	for _, el := range r.entries {
		p, err := soapenc.DecodeParams(el)
		if err != nil {
			return nil, fmt.Errorf("captured request: %w", err)
		}
		r.params = append(r.params, p)
	}
	r.container = registry.NewContainer()
	if err := services.DeployEcho(r.container, services.Options{}); err != nil {
		return nil, err
	}
	return r, nil
}

func isPacked(el *xmldom.Element) bool { return el.Is(core.NSPack, core.ElemParallelMethod) }

// cannedConn answers every request written to it with the captured
// response, so Client.Call can be timed with no socket underneath.
type cannedConn struct {
	response []byte
	pending  []byte
}

func (c *cannedConn) Write(b []byte) (int, error) {
	if len(c.pending) == 0 {
		c.pending = c.response
	}
	return len(b), nil
}

func (c *cannedConn) Read(b []byte) (int, error) {
	if len(c.pending) == 0 {
		return 0, io.EOF
	}
	n := copy(b, c.pending)
	c.pending = c.pending[n:]
	return n, nil
}

func (*cannedConn) Close() error                     { return nil }
func (*cannedConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (*cannedConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (*cannedConn) SetDeadline(time.Time) error      { return nil }
func (*cannedConn) SetReadDeadline(time.Time) error  { return nil }
func (*cannedConn) SetWriteDeadline(time.Time) error { return nil }

// rows builds the layer rows for the workload. cl is the running cluster
// the gateway rows exchange with; the codec rows touch no socket.
func (r *replay) rows(ctx context.Context, cl *cluster) ([]layerRow, error) {
	reqDoc, respDoc := r.req.Body, r.resp.Body
	contentType := r.req.Header.Get("Content-Type")
	codecParent := "core.handle"
	// On a gateway workload the envelope is read and answered by the
	// gateway, and core.handle is the backends' work.
	handleParent := spanExchange
	if r.w.Gateway {
		handleParent = spanBackend
	}

	server, err := core.NewServer(core.ServerConfig{Container: r.container, AppWorkers: 32, PipelineWindow: 8})
	if err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { server.Close() })

	pool, err := stage.NewPool("bench", 32, 1024)
	if err != nil {
		return nil, err
	}
	r.closers = append(r.closers, pool.Close)

	client, err := core.NewClient(core.ClientConfig{
		Dial:          func() (net.Conn, error) { return &cannedConn{response: r.respWire}, nil },
		KeepAlive:     true,
		Timeout:       exchangeTimeout,
		TemplateCache: true,
	})
	if err != nil {
		return nil, err
	}
	r.closers = append(r.closers, client.Close)

	cache := msgcache.New()
	var sink bytes.Buffer
	wireReader := bytes.NewReader(nil)
	br := bufio.NewReader(wireReader)
	entryName := xmltext.Name{Prefix: "m", Local: "echoResponse"}
	rctx := &registry.Context{Service: "Echo", Operation: "echo", Ctx: ctx}
	var handoff sync.WaitGroup

	rows := []layerRow{
		{name: "client.call", parent: spanExchange, fn: func() error {
			if r.w.Pack == 1 {
				_, err := client.Call("Echo", "echo", r.params[0]...)
				return err
			}
			b := client.NewBatch()
			for _, p := range r.params {
				b.Add("Echo", "echo", p...)
			}
			return b.Send()
		}},
		{name: "msgcache.render", parent: "client.call", fn: func() error {
			if r.w.Pack != 1 {
				return nil // packed requests are streamed, not templated
			}
			em := xmltext.AcquireEmitter()
			defer xmltext.ReleaseEmitter(em)
			ok, err := cache.RenderTo(em, "Echo", "urn:spi:Echo", "echo", r.params[0])
			if err == nil && !ok {
				err = errors.New("msgcache: call shape is not templatable")
			}
			return err
		}},
		{name: "httpx.write_request", parent: "client.call", fn: func() error {
			sink.Reset()
			out := httpx.NewRequest("POST", r.req.Target, reqDoc)
			out.Header.Set("Content-Type", contentType)
			out.Header.Set("SOAPAction", `""`)
			return httpx.WriteRequest(&sink, out, false)
		}},
		{name: "httpx.read_response", parent: "client.call", fn: func() error {
			wireReader.Reset(r.respWire)
			br.Reset(wireReader)
			resp, err := httpx.ReadResponse(br, 0)
			if err == nil {
				resp.Release()
			}
			return err
		}},
		{name: "httpx.read_request", parent: spanExchange, allocs: true, fn: func() error {
			wireReader.Reset(r.reqWire)
			br.Reset(wireReader)
			_, release, err := httpx.ReadRequestPooled(br, 0)
			if err == nil {
				release()
			}
			return err
		}},
		{name: "core.handle", parent: handleParent, allocs: true, fn: func() error {
			resp := server.HandleHTTP(ctx, r.req)
			defer resp.Release()
			if resp.StatusCode != 200 {
				return fmt.Errorf("in-process server answered HTTP %d", resp.StatusCode)
			}
			return nil
		}},
		{name: "soap.decode", parent: codecParent, allocs: true, fn: func() error { return streamDecode(reqDoc) }},
		{name: "xmldom.parse", parent: "soap.decode", allocs: true, fn: func() error {
			arena := xmldom.AcquireArena()
			defer xmldom.ReleaseArena(arena)
			_, err := xmldom.ParseBytesInArena(reqDoc, arena)
			return err
		}},
		{name: "xmltext.tokenize", parent: "xmldom.parse", allocs: true, fn: func() error {
			tk := xmltext.AcquireTokenizer(reqDoc)
			defer xmltext.ReleaseTokenizer(tk)
			tk.SetRawText(true)
			for {
				if _, err := tk.Next(); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
			}
		}},
		{name: "soapenc.decode", parent: codecParent, fn: func() error {
			for _, el := range r.entries {
				if _, err := soapenc.DecodeParams(el); err != nil {
					return err
				}
			}
			return nil
		}},
		{name: "registry.invoke", parent: codecParent, fn: func() error {
			for _, p := range r.params {
				op, f := r.container.Lookup("Echo", "echo")
				if f != nil {
					return f
				}
				if _, f := registry.Invoke(op, rctx, p); f != nil {
					return f
				}
			}
			return nil
		}},
		{name: "stage.handoff", parent: codecParent, fn: func() error {
			handoff.Add(len(r.entries))
			for range r.entries {
				if err := pool.Submit(handoff.Done); err != nil {
					return err
				}
			}
			handoff.Wait()
			return nil
		}},
		{name: "soapenc.encode", parent: codecParent, fn: func() error {
			em := xmltext.AcquireEmitter()
			defer xmltext.ReleaseEmitter(em)
			for _, p := range r.params {
				em.Start(entryName)
				if err := soapenc.EncodeParamsTo(em, p); err != nil {
					return err
				}
				em.End()
			}
			return em.Err()
		}},
		{name: "soap.encode", parent: codecParent, allocs: true, fn: func() error {
			enc := soap.NewStreamEncoder()
			defer enc.Release()
			enc.Begin(soap.V11, nil)
			for _, el := range r.respBody {
				enc.WriteBodyElement(el)
			}
			_, err := enc.Finish()
			return err
		}},
		{name: "httpx.write_response", parent: spanExchange, allocs: true, fn: func() error {
			sink.Reset()
			out := httpx.NewResponse(200, respDoc)
			out.Header.Set("Content-Type", contentType)
			return httpx.WriteResponse(&sink, out, false)
		}},
	}
	if !r.w.Gateway {
		return rows, nil
	}
	gwRows, err := r.gatewayRows(ctx, cl)
	return append(rows, gwRows...), err
}

// streamDecode walks a request the way the server's streaming dispatch
// does: preamble, then each body entry, a packed entry child by child.
func streamDecode(doc []byte) error {
	arena := xmldom.AcquireArena()
	defer xmldom.ReleaseArena(arena)
	d := soap.AcquireStreamDecoder(doc, arena)
	defer d.Release()
	if err := d.ReadPreamble(); err != nil {
		return err
	}
	for {
		entry, err := d.NextEntryStart()
		if err != nil {
			return err
		}
		if entry == nil {
			break
		}
		if !isPacked(entry) {
			if err := d.CompleteEntry(entry); err != nil {
				return err
			}
			continue
		}
		for {
			el, err := d.NextChild(entry)
			if err != nil {
				return err
			}
			if el == nil {
				break
			}
		}
	}
	_, err := d.Finish()
	return err
}

// gatewayRows are the rows only a gateway workload has. The sub-batch
// rows time one of the two sub-batches: the gateway sends both at once,
// so one is what the reply waits for.
func (r *replay) gatewayRows(ctx context.Context, cl *cluster) ([]layerRow, error) {
	reqDoc := r.req.Body
	contentType := r.req.Header.Get("Content-Type")
	dialer := &net.Dialer{Timeout: 5 * time.Second}

	var backends []gateway.BackendConfig
	for _, s := range cl.servers {
		addr := s.addr
		backends = append(backends, gateway.BackendConfig{Name: addr, Weight: 1,
			DialCtx: func(ctx context.Context) (net.Conn, error) { return dialer.DialContext(ctx, "tcp", addr) }})
	}
	if svc, ok := r.container.Service("Echo"); ok {
		svc.MarkIdempotent("echo", "echoSize")
	}
	// The same settings cmd/spigateway starts with.
	gw, err := gateway.New(gateway.Config{
		Backends:          backends,
		Policy:            gateway.ParsePolicy("round-robin"),
		Registry:          r.container,
		FailureThreshold:  3,
		ReprobeAfter:      500 * time.Millisecond,
		ExchangeTimeout:   30 * time.Second,
		MaxIdlePerBackend: 16,
		Passthrough:       true,
	})
	if err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { gw.Close() })

	backend := &httpx.Client{DialCtx: backends[0].DialCtx, KeepAlive: true, Timeout: exchangeTimeout}
	r.closers = append(r.closers, backend.Close)
	post := func(target string, doc []byte) ([]byte, error) {
		resp, err := backend.Post(target, contentType, doc, "SOAPAction", `""`)
		if err != nil {
			return nil, err
		}
		defer resp.Release()
		if resp.StatusCode != 200 {
			return nil, fmt.Errorf("backend answered HTTP %d", resp.StatusCode)
		}
		return append([]byte(nil), resp.Body...), nil
	}

	rows := []layerRow{
		{name: "gateway.handle", parent: spanExchange, allocs: true, fn: func() error {
			resp := gw.Handle(ctx, r.req)
			defer resp.Release()
			if resp.StatusCode != 200 {
				return fmt.Errorf("in-process gateway answered HTTP %d", resp.StatusCode)
			}
			return nil
		}},
	}
	rtt := func(target string, doc []byte) layerRow {
		return layerRow{name: "gateway.backend_rtt", parent: "gateway.handle", fn: func() error {
			_, err := post(target, doc)
			return err
		}}
	}
	if r.w.Pack == 1 {
		// Passthrough: the single-call envelope goes to a backend whole.
		return append(rows, rtt(r.req.Target, reqDoc)), nil
	}

	sr, f := core.ParseScatterRequest(reqDoc, "")
	if f != nil {
		return nil, f
	}
	// Round-robin deals the entries out in turn, so each of the two
	// sub-batches holds every other entry.
	shards := make([][]*core.ScatterEntry, 2)
	ids := make([]int, len(sr.Entries))
	for i, e := range sr.Entries {
		shards[i%2] = append(shards[i%2], e)
		ids[i] = e.ID
	}
	var subResp [][]byte
	var subDoc []byte
	for _, shard := range shards {
		doc, err := core.BuildSubBatch(sr.Version, sr.Headers, shard)
		if err != nil {
			return nil, err
		}
		if subDoc == nil {
			subDoc = doc
		}
		body, err := post("/services", doc)
		if err != nil {
			return nil, err
		}
		subResp = append(subResp, body)
	}
	type gathered struct {
		segments  [][]byte
		rawHeader []byte
	}
	var parts []gathered
	for _, body := range subResp {
		segs, raw, err := core.SplitGatherResponse(body)
		if err != nil {
			return nil, err
		}
		parts = append(parts, gathered{segs, raw})
	}

	return append(rows,
		layerRow{name: "core.scatter_parse", parent: "gateway.handle", fn: func() error {
			if _, f := core.ParseScatterRequest(reqDoc, ""); f != nil {
				return f
			}
			return nil
		}},
		layerRow{name: "core.subbatch_build", parent: "gateway.handle", fn: func() error {
			_, err := core.BuildSubBatch(sr.Version, sr.Headers, shards[0])
			return err
		}},
		rtt("/services", subDoc),
		layerRow{name: "core.gather_split", parent: "gateway.handle", fn: func() error {
			_, _, err := core.SplitGatherResponse(subResp[0])
			return err
		}},
		layerRow{name: "core.gather_assemble", parent: "gateway.handle", fn: func() error {
			col := core.NewGatherCollector(ids)
			for b, part := range parts {
				col.AddHeader(b, part.rawHeader)
				for k, e := range shards[b] {
					col.Deliver(e.Slot, part.segments[k])
				}
			}
			resp, _, err := col.Assemble(ctx, sr.Version, nil)
			if err != nil {
				return err
			}
			resp.Release()
			return nil
		}},
	), nil
}

// traceResult is the outcome of the traced pass.
type traceResult struct {
	replays      int
	spans        []span
	medianNs     map[string]float64 // per row: median span
	allocs       map[string]float64 // per row: exact allocations per replay
	parents      map[string]string
	order        []string
	spanOverhead float64 // median cost of an empty span, ns
}

// runTrace replays the captured exchange through every row. One replayed
// message runs each row once, in blocking-path order, so a row meets the
// caches as the previous layer left them rather than warm from its own
// last iteration.
func runTrace(ctx context.Context, rows []layerRow) (*traceResult, error) {
	res := &traceResult{
		medianNs: map[string]float64{},
		allocs:   map[string]float64{},
		parents:  map[string]string{},
	}
	for _, row := range rows {
		res.order = append(res.order, row.name)
		res.parents[row.name] = row.parent
	}
	// The first replay is timed to size the pass: it is the slowest one
	// (cold pools, first dials), so the budget is kept with room to spare.
	begin := time.Now()
	for _, row := range rows {
		if err := row.fn(); err != nil {
			return nil, fmt.Errorf("traced pass: %s: %w", row.name, err)
		}
	}
	res.replays = min(traceReplays, max(minTraceReplays, int(traceBudget/time.Since(begin))))
	for i := 0; i < res.replays/10; i++ {
		for _, row := range rows {
			if err := row.fn(); err != nil {
				return nil, fmt.Errorf("traced pass: %s: %w", row.name, err)
			}
		}
	}
	const emptySpan = "bench.span_overhead"
	res.spans = make([]span, 0, res.replays*(len(rows)+2))
	t0 := time.Now()
	for msg := 0; msg < res.replays; msg++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		root := len(res.spans)
		res.spans = append(res.spans, span{Name: spanExchange, Msg: msg, Start: int64(time.Since(t0))})
		for _, row := range rows {
			start := time.Since(t0)
			err := row.fn()
			end := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("traced pass: %s: %w", row.name, err)
			}
			res.spans = append(res.spans, span{Name: row.name, Parent: row.parent, Msg: msg, Start: int64(start), End: int64(end)})
		}
		start := time.Since(t0)
		end := time.Since(t0)
		res.spans = append(res.spans, span{Name: emptySpan, Msg: msg, Start: int64(start), End: int64(end)})
		res.spans[root].End = int64(end)
	}
	durations := map[string][]float64{}
	for _, s := range res.spans {
		durations[s.Name] = append(durations[s.Name], float64(s.End-s.Start))
	}
	for name, d := range durations {
		res.medianNs[name] = median(d)
	}
	res.spanOverhead = res.medianNs[emptySpan]

	for _, row := range rows {
		if row.allocs {
			n, err := allocsPerRun(row.fn)
			if err != nil {
				return nil, fmt.Errorf("traced pass: %s: %w", row.name, err)
			}
			res.allocs[row.name] = n
		}
	}
	return res, nil
}

// allocsPerRun counts heap allocations per call the way
// testing.AllocsPerRun does: mallocs over allocRuns calls, divided
// rounding down, so a pool refill after a collection does not show.
func allocsPerRun(fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRuns; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / allocRuns), nil
}

// selfNs is a row's median span minus its children's: the time spent in
// the layer itself. The children are timed on the same bytes in their own
// spans, not carved out of the parent's interval, so a self time can come
// out slightly negative; it is printed as measured.
func (t *traceResult) selfNs(name string) float64 {
	self := t.medianNs[name]
	for _, child := range t.order {
		if t.parents[child] == name {
			self -= t.medianNs[child]
		}
	}
	return self
}

// budgetNs sums the rows directly under the exchange root: the blocking
// path of one exchange as far as the layers' own code accounts for it.
func (t *traceResult) budgetNs() float64 {
	sum := 0.0
	for _, name := range t.order {
		if t.parents[name] == spanExchange {
			sum += t.medianNs[name]
		}
	}
	return sum
}

// dumpSpans writes every span of the traced pass as one JSON document.
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(spans)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
