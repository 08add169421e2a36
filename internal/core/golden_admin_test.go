package core

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/admin"
	"repro/internal/httpx"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/xmltext"
)

// recordConn is a replyConn that keeps every byte written to it: the request
// a client sent.
type recordConn struct {
	replyConn
	wrote bytes.Buffer
}

func (c *recordConn) Write(b []byte) (int, error) {
	c.wrote.Write(b)
	return c.replyConn.Write(b)
}

// adminCall makes one Admin call through a Client speaking v, to a node that
// answers it with a 200 reply whose body is reply. It returns the request
// document the client wrote, and what the call returned.
func adminCall(t *testing.T, v soap.Version, reply []byte, op string, params ...soapenc.Field) ([]byte, []soapenc.Field, error) {
	t.Helper()
	conn := &recordConn{replyConn: replyConn{response: []byte(fmt.Sprintf(
		"HTTP/1.1 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n%s", v.ContentType(), len(reply), reply))}}
	cli, err := NewClient(ClientConfig{Dial: func() (net.Conn, error) { return conn, nil }, SOAP12: v == soap.V12})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	results, err := cli.CallCtx(context.Background(), admin.ServiceName, op, params...)
	req, rerr := httpx.ReadRequest(bufio.NewReader(&conn.wrote), 0)
	if rerr != nil {
		t.Fatalf("%s request: %v", op, rerr)
	}
	return bytes.Clone(req.Body), results, err
}

// adminStats reads reply, a node's answer to GetStats in version v, as the
// exporter does: through a Client, then admin.StatsFromFields.
func adminStats(t *testing.T, v soap.Version, reply []byte) (admin.Stats, error) {
	t.Helper()
	_, results, err := adminCall(t, v, reply, admin.OpGetStats)
	if err != nil {
		return admin.Stats{}, err
	}
	return admin.StatsFromFields(results)
}

// adminGoldenDocuments pins the control-plane wire format: the Admin
// service's GetStats/SetState request and response envelopes plus its
// Client faults, in both SOAP versions. The requests are what a Client
// writes for the call, the exporter's included; the responses and faults are
// what a server answers. A byte change here is a cross-process compatibility
// break and must be reviewed deliberately.
func adminGoldenDocuments(t *testing.T) map[string][]byte {
	t.Helper()
	stats := admin.Stats{
		Role:       "server",
		Weight:     4,
		Draining:   false,
		Workers:    32,
		Busy:       7,
		Idle:       25,
		QueueDepth: 3,
		QueueCap:   1024,
		Inflight:   10,
		Envelopes:  12345,
		Requests:   23456,
		Packed:     11111,
		Faults:     17,
		ItemFaults: 42,
		Ops: []admin.OpStat{
			{Op: "Echo.echo", Count: 9000, MeanUs: 850, P50Us: 800, P90Us: 1200, P99Us: 2500},
		},
	}
	out := make(map[string][]byte)
	response := func(v soap.Version, op string, results ...soapenc.Field) []byte {
		return writtenDocument(t, v, func(em *xmltext.Emitter) error {
			return appendResponseEntry(em, &rpcResult{op: op, results: results}, admin.Namespace, "", -1)
		})
	}
	for _, v := range []struct {
		tag string
		ver soap.Version
	}{{"11", soap.V11}, {"12", soap.V12}} {
		setResp := response(v.ver, admin.OpSetState, soapenc.F("weight", int64(4)), soapenc.F("draining", true))
		request := func(op string, params ...soapenc.Field) []byte {
			doc, _, err := adminCall(t, v.ver, setResp, op, params...)
			if err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			return doc
		}
		out["admin_getstats_req"+v.tag+".xml"] = request(admin.OpGetStats)
		out["admin_getstats_resp"+v.tag+".xml"] = response(v.ver, admin.OpGetStats, admin.StatsFields(stats)...)

		out["admin_setstate_req"+v.tag+".xml"] = request(admin.OpSetState,
			soapenc.F("weight", int64(4)), soapenc.F("drain", true))
		out["admin_setstate_resp"+v.tag+".xml"] = setResp

		out["admin_fault"+v.tag+".xml"] = faultDocument(
			soap.ClientFault("SetState: weight must be a positive integer, got 0"), v.ver)

		// A gateway's SetState addressing one of its backends, and the
		// fault for a backend it does not have.
		out["admin_setstate_backend_req"+v.tag+".xml"] = request(admin.OpSetState,
			soapenc.F("backend", "b1"), soapenc.F("weight", int64(4)), soapenc.F("drain", true))
		out["admin_fault_backend"+v.tag+".xml"] = faultDocument(
			soap.ClientFault(`SetState: no backend named "b9"`), v.ver)
	}
	return out
}

// TestGoldenAdminParse goes one step beyond the byte pin: the pinned
// GetStats response must read back into the exact snapshot the way the
// exporter reads it, through a Client and admin.StatsFromFields.
func TestGoldenAdminParse(t *testing.T) {
	for v, tag := range map[soap.Version]string{soap.V11: "11", soap.V12: "12"} {
		name := "admin_getstats_resp" + tag + ".xml"
		doc, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		s, err := adminStats(t, v, doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Role != "server" || s.Weight != 4 || s.Workers != 32 || s.Busy != 7 ||
			s.QueueDepth != 3 || len(s.Ops) != 1 || s.Ops[0].Op != "Echo.echo" {
			t.Errorf("%s: parsed snapshot %+v", name, s)
		}
	}
}

// TestAdminStatsAcrossUpgrade: testdata/wire/pre30/ keeps the GetStats
// responses of nodes that still advertised the diff_hits and diff_misses
// counters. An exporter reads a node of either age, and both ages of the same
// snapshot come back as the same Stats: the reader ignores fields it does not
// know, so exporter and nodes may upgrade in either order.
func TestAdminStatsAcrossUpgrade(t *testing.T) {
	for v, tag := range map[soap.Version]string{soap.V11: "11", soap.V12: "12"} {
		name := "admin_getstats_resp" + tag + ".xml"
		old, err := os.ReadFile(filepath.Join("testdata", "wire", "pre30", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(old, []byte("<diff_hits")) || !bytes.Contains(old, []byte("<diff_misses")) {
			t.Fatalf("pre30/%s does not carry the diff counters", name)
		}
		now, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(now, []byte("<diff_")) {
			t.Fatalf("%s still carries the diff counters", name)
		}
		was, err := adminStats(t, v, old)
		if err != nil {
			t.Fatalf("pre30/%s: %v", name, err)
		}
		is, err := adminStats(t, v, now)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(was, is) {
			t.Errorf("%s: the older response reads as\n%+v\nthe current one as\n%+v", name, was, is)
		}
		if is.Envelopes != 12345 || is.ItemFaults != 42 || len(is.Ops) != 1 || is.Ops[0].P99Us != 2500 {
			t.Errorf("%s: parsed snapshot %+v", name, is)
		}
	}
}
