package fault

import (
	"bytes"
	"errors"
	"testing"
	"unicode/utf8"

	"repro/internal/soap"
)

// FuzzFaultRoundTrip drives random taxonomy values with random context
// fields through the full envelope edge — ToSOAP encode, a complete
// envelope serialization, soap.Decode, Classify — and asserts the
// properties the taxonomy promises: errors.Is identity survives the wire,
// the wire code and text are stable across a re-encode, and context fields
// stay off the wire.
func FuzzFaultRoundTrip(f *testing.F) {
	f.Add(uint8(CodeTimeout), "deadline expired before Echo.park finished", "Echo.park", "3", false)
	f.Add(uint8(CodeAdmissionShed), "application stage queue full and the request has no deadline", "", "", false)
	f.Add(uint8(CodeUpstreamUnavailable), "no backend available", "Echo.echo", "b2", true)
	f.Add(uint8(CodeProtocol), "malformed envelope", "k<&>\"'", "v]]>", true)
	f.Add(uint8(CodeApp), "deliberate failure", "tenant", "acme", false)
	f.Fuzz(func(t *testing.T, codeByte uint8, text, key, value string, v12 bool) {
		code := Code(codeByte % uint8(numCodes))
		if !utf8.ValidString(text) || !utf8.ValidString(key) || !utf8.ValidString(value) {
			t.Skip("codec contract covers UTF-8 documents")
		}
		// The XML text layer carries char data and attribute values, not
		// raw control bytes; stay inside what the tokenizer round-trips.
		for _, s := range []string{text, key, value} {
			for _, r := range s {
				if r < 0x20 && r != '\t' && r != '\n' && r != '\r' {
					t.Skip("control characters are not valid XML chars")
				}
			}
		}
		if key == "" {
			key = "k"
		}
		in := New(code, text).With(key, value).With(KeyOp, "Echo.op")
		version := soap.V11
		if v12 {
			version = soap.V12
		}

		doc := faultDocument(t, ToSOAP(in), version)
		env, err := soap.Decode(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("decode of our own bytes: %v\n%s", err, doc)
		}
		sf := env.Fault()
		if sf == nil {
			t.Fatalf("round-tripped envelope is not a fault:\n%s", doc)
		}
		out := Classify(sf)

		// Wire-code identity: whatever we emitted classifies back to a
		// value that would emit the same code again.
		if WireCode(out) != WireCode(in) {
			t.Fatalf("wire code drifted: %q -> %q", WireCode(in), WireCode(out))
		}
		// errors.Is identity for every property the policy layer keys on.
		for _, s := range []*sentinel{Timeout, Cancelled, Busy, AdmissionShed,
			UpstreamUnavailable, Protocol, App, Retryable, Failure, Defect, Interrupt} {
			// Codes that collapse on the wire (shed/upstream -> Server.Busy)
			// classify back to the wire's taxonomy value; compare against
			// the classification of the emitted code, not the input.
			want := errors.Is(Classify(ToSOAP(in)), s)
			if got := errors.Is(out, s); got != want {
				t.Fatalf("errors.Is(%v) flipped across the wire: got %v want %v (code %v)", s, got, want, code)
			}
		}
		if out.text != text {
			t.Fatalf("fault text drifted: %q -> %q", text, out.text)
		}
		if len(out.fields) != 0 {
			t.Fatalf("context fields crossed the wire: %v", out.fields)
		}
	})
}
