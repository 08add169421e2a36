package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/admin"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/xmltext"
)

// adminGoldenDocuments pins the control-plane wire format: the Admin
// service's GetStats/SetState request and response envelopes plus its
// Client faults, in both SOAP versions. cmd/spiexporter and operators parse
// exactly these shapes, so a byte change here is a
// cross-process compatibility break and must be reviewed deliberately.
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
		out["admin_getstats_req"+v.tag+".xml"] = admin.GetStatsRequest(v.ver)
		out["admin_getstats_resp"+v.tag+".xml"] = response(v.ver, admin.OpGetStats, admin.StatsFields(stats)...)

		drain := true
		setReq, err := admin.SetStateRequest(v.ver, "", 4, &drain)
		if err != nil {
			t.Fatal(err)
		}
		out["admin_setstate_req"+v.tag+".xml"] = setReq
		out["admin_setstate_resp"+v.tag+".xml"] = response(v.ver, admin.OpSetState,
			soapenc.F("weight", int64(4)), soapenc.F("draining", true))

		out["admin_fault"+v.tag+".xml"] = faultDocument(
			soap.ClientFault("SetState: weight must be a positive integer, got 0"), v.ver)

		// A gateway's SetState addressing one of its backends, and the
		// fault for a backend it does not have.
		backendReq, err := admin.SetStateRequest(v.ver, "b1", 4, &drain)
		if err != nil {
			t.Fatal(err)
		}
		out["admin_setstate_backend_req"+v.tag+".xml"] = backendReq
		out["admin_fault_backend"+v.tag+".xml"] = faultDocument(
			soap.ClientFault(`SetState: no backend named "b9"`), v.ver)
	}
	return out
}

// TestGoldenAdminParse goes one step beyond the byte pin: the pinned
// GetStats response must parse back into the exact snapshot through the
// production parser the exporter uses.
func TestGoldenAdminParse(t *testing.T) {
	for name, doc := range adminGoldenDocuments(t) {
		if name != "admin_getstats_resp11.xml" && name != "admin_getstats_resp12.xml" {
			continue
		}
		s, err := admin.ParseStatsResponse(doc)
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
// snapshot come back as the same Stats: the parser ignores fields it does not
// know, so exporter and nodes may upgrade in either order.
func TestAdminStatsAcrossUpgrade(t *testing.T) {
	for _, v := range []string{"11", "12"} {
		name := "admin_getstats_resp" + v + ".xml"
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
		was, err := admin.ParseStatsResponse(old)
		if err != nil {
			t.Fatalf("pre30/%s: %v", name, err)
		}
		is, err := admin.ParseStatsResponse(now)
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
