package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/xmltext"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenDocuments writes the deterministic documents whose bytes are pinned
// under testdata/. Any codec change that alters the bytes on the wire must
// show up as a diff here and be reviewed (and -update'd) deliberately.
func goldenDocuments(t *testing.T) map[string][]byte {
	t.Helper()
	build := func(v soap.Version, packed bool) []byte {
		if !packed {
			return writtenDocument(t, v, func(em *xmltext.Emitter) error {
				return appendRequestEntry(em, &batchEntry{ns: "urn:spi:Echo", op: "echo", params: []soapenc.Field{
					soapenc.F("message", "hello"), soapenc.F("count", int32(3))}}, &batchEntry{})
			})
		}
		return writtenDocument(t, v, (&Batch{entries: []batchEntry{
			{service: "Echo", ns: "urn:spi:Echo", op: "echo", params: []soapenc.Field{soapenc.F("message", "first")}},
			{service: "WeatherService", ns: "urn:spi:WeatherService", op: "GetWeather",
				params: []soapenc.Field{soapenc.F("CityName", "Beijing")}}}}).writeBody)
	}
	fault := func(v soap.Version) []byte {
		return faultDocument(&soap.Fault{Code: soap.FaultServer, String: "deliberate failure", Actor: "/services/Echo"}, v)
	}
	out := map[string][]byte{
		"single11.xml": build(soap.V11, false),
		"single12.xml": build(soap.V12, false),
		"packed11.xml": build(soap.V11, true),
		"packed12.xml": build(soap.V12, true),
		"fault11.xml":  fault(soap.V11),
		"fault12.xml":  fault(soap.V12),
	}
	// The control-plane documents (Admin.GetStats/SetState) are pinned by
	// the same suite — see golden_admin_test.go.
	for name, doc := range adminGoldenDocuments(t) {
		out[name] = doc
	}
	return out
}

func TestGoldenEnvelopes(t *testing.T) {
	for name, doc := range goldenDocuments(t) {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", name)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, doc, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(doc, want) {
				t.Errorf("document bytes diverged from golden %s\n got: %s\nwant: %s", name, doc, want)
			}
		})
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	// Decoding a golden document and re-encoding it must reproduce the same
	// bytes: the codec is byte-stable across a parse/serialize cycle.
	files, err := filepath.Glob(filepath.Join("testdata", "*.xml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden files found (run with -update first): %v", err)
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			env, err := soap.Decode(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("decoding golden: %v", err)
			}
			var buf bytes.Buffer
			if err := env.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("re-encode diverged\n got: %s\nwant: %s", buf.Bytes(), want)
			}
		})
	}
}
