package admin_test

import (
	"bufio"
	"bytes"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/soap"
)

// fixed is a Source whose snapshot never changes.
type fixed admin.Stats

func (s fixed) AdminStats() admin.Stats { return admin.Stats(s) }

// teeConn keeps a copy of every byte read from its connection.
type teeConn struct {
	net.Conn
	mu   *sync.Mutex
	read *bytes.Buffer
}

func (c teeConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.read.Write(b[:n])
	c.mu.Unlock()
	return n, err
}

// node serves src through the Admin service of a server and returns a
// Client of it speaking v, and a func that returns the body of the first
// reply the client read.
func node(t *testing.T, v soap.Version, src admin.Source) (*core.Client, func() []byte) {
	t.Helper()
	c := registry.NewContainer()
	if err := admin.Deploy(c, src, admin.NewState()); err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(core.ServerConfig{Container: c, AppWorkers: 2, AppQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	var mu sync.Mutex
	var read bytes.Buffer
	cli, err := core.NewClient(core.ClientConfig{
		Dial: func() (net.Conn, error) {
			conn, err := link.Dial()
			return teeConn{conn, &mu, &read}, err
		},
		Timeout: 5 * time.Second, SOAP12: v == soap.V12,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close(); srv.Close(); link.Close() })
	return cli, func() []byte {
		mu.Lock()
		defer mu.Unlock()
		resp, err := httpx.ReadResponse(bufio.NewReader(bytes.NewReader(read.Bytes())), 0)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Body
	}
}

// getStats scrapes cli's node as the exporter does.
func getStats(cli *core.Client) (admin.Stats, error) {
	results, err := cli.Call(admin.ServiceName, admin.OpGetStats)
	if err != nil {
		return admin.Stats{}, err
	}
	return admin.StatsFromFields(results)
}

// TestStatsRoundTrip: a snapshot a node advertises reads back whole through a
// Client, in both SOAP versions.
func TestStatsRoundTrip(t *testing.T) {
	want := admin.SampleStats()
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		cli, _ := node(t, v, fixed(want))
		got, err := getStats(cli)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: stats = %+v, want %+v", v, got, want)
		}
	}
}

// TestGatewayStatsBytes pins the snapshot a gateway without an app stage
// advertises: no ops recorded and no faults, so ops goes out as an empty
// array and fault_codes not at all, whether the slices are nil or empty.
func TestGatewayStatsBytes(t *testing.T) {
	const want = `<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/" xmlns:SOAP-ENC="http://schemas.xmlsoap.org/soap/encoding/" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xsd="http://www.w3.org/2001/XMLSchema"><s:Body><m:GetStatsResponse xmlns:m="urn:spi:Admin"><role>gateway</role><weight xsi:type="xsd:int">1</weight><draining xsi:type="xsd:boolean">true</draining><workers xsi:type="xsd:int">0</workers><busy xsi:type="xsd:int">0</busy><idle xsi:type="xsd:int">0</idle><queue_depth xsi:type="xsd:int">0</queue_depth><queue_cap xsi:type="xsd:int">0</queue_cap><inflight xsi:type="xsd:int">2</inflight><envelopes xsi:type="xsd:int">5</envelopes><requests xsi:type="xsd:int">40</requests><packed xsi:type="xsd:int">5</packed><faults xsi:type="xsd:int">0</faults><item_faults xsi:type="xsd:int">0</item_faults><ops xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:anyType[0]"/></m:GetStatsResponse></s:Body></s:Envelope>`
	gw := admin.Stats{Role: "gateway", Weight: 1, Draining: true, Inflight: 2, Envelopes: 5, Requests: 40, Packed: 5}
	empty := gw
	empty.FaultCodes, empty.Ops = []admin.FaultCode{}, []admin.OpStat{}
	parsed := gw
	parsed.Ops = []admin.OpStat{}
	for name, s := range map[string]admin.Stats{"nil slices": gw, "empty slices": empty} {
		cli, reply := node(t, soap.V11, fixed(s))
		got, err := getStats(cli)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if doc := reply(); string(doc) != want {
			t.Errorf("%s: answered\n%s\nwant\n%s", name, doc, want)
		}
		if !reflect.DeepEqual(got, parsed) {
			t.Errorf("%s: read %#v, want %#v", name, got, parsed)
		}
	}
}
