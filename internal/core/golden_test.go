package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/soap"
	"repro/internal/soapenc"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenEnvelopes builds the deterministic envelopes whose serializations
// are pinned under testdata/. Any codec change that alters the bytes on the
// wire must show up as a diff here and be reviewed (and -update'd)
// deliberately.
func goldenEnvelopes(t *testing.T) map[string]*soap.Envelope {
	t.Helper()
	build := func(v soap.Version, packed bool) *soap.Envelope {
		env := soap.New()
		env.Version = v
		if !packed {
			env.AddBody(mustRequestElement(t, "urn:spi:Echo", "echo",
				soapenc.F("message", "hello"), soapenc.F("count", int32(3))))
			return env
		}
		env.AddBody(mustPackedRequest(t,
			batchEntry{service: "Echo", ns: "urn:spi:Echo", op: "echo", params: []soapenc.Field{soapenc.F("message", "first")}},
			batchEntry{service: "WeatherService", ns: "urn:spi:WeatherService", op: "GetWeather",
				params: []soapenc.Field{soapenc.F("CityName", "Beijing")}}))
		return env
	}
	fault := func(v soap.Version) *soap.Envelope {
		f := &soap.Fault{Code: soap.FaultServer, String: "deliberate failure", Actor: "/services/Echo"}
		return f.EnvelopeFor(v)
	}
	out := map[string]*soap.Envelope{
		"single11.xml": build(soap.V11, false),
		"single12.xml": build(soap.V12, false),
		"packed11.xml": build(soap.V11, true),
		"packed12.xml": build(soap.V12, true),
		"fault11.xml":  fault(soap.V11),
		"fault12.xml":  fault(soap.V12),
	}
	// The control-plane envelopes (Admin.GetStats/SetState) are pinned by
	// the same suite — see golden_admin_test.go.
	for name, env := range adminGoldenEnvelopes(t) {
		out[name] = env
	}
	return out
}

func TestGoldenEnvelopes(t *testing.T) {
	for name, env := range goldenEnvelopes(t) {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := env.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("envelope bytes diverged from golden %s\n got: %s\nwant: %s", name, buf.Bytes(), want)
			}
			enc := soap.NewStreamEncoder()
			defer enc.Release()
			if streamed, err := enc.EncodeEnvelope(env); err != nil || !bytes.Equal(streamed, want) {
				t.Errorf("streamed envelope (%v) diverged from golden %s\n got: %s\nwant: %s", err, name, streamed, want)
			}
			if f := env.Fault(); f != nil {
				resp := GatewayFaultResponse(f, env.Version)
				defer resp.Release()
				if !bytes.Equal(resp.Body, want) {
					t.Errorf("streamed fault diverged from golden %s\n got: %s\nwant: %s", name, resp.Body, want)
				}
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
