package soap

import (
	"bytes"
	"testing"
	"unicode/utf8"

	"repro/internal/xmldom"
)

// FuzzParseEnvelope checks Decode on arbitrary documents: it must never
// panic, and any document it accepts must survive a round trip
// (checkRoundTrip).
func FuzzParseEnvelope(f *testing.F) {
	const env11 = `<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/">`
	const env12 = `<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope">`
	for _, seed := range []string{
		``,
		`<?xml version="1.0" encoding="UTF-8"?>` + env11 + `<SOAP-ENV:Body><m:echo xmlns:m="urn:spi:Echo"><message>hi</message></m:echo></SOAP-ENV:Body></SOAP-ENV:Envelope>`,
		env12 + `<env:Body><m:echo xmlns:m="urn:spi:Echo"/></env:Body></env:Envelope>`,
		env11 + `<SOAP-ENV:Header><h:tok xmlns:h="urn:h" SOAP-ENV:mustUnderstand="1"/></SOAP-ENV:Header><SOAP-ENV:Body/></SOAP-ENV:Envelope>`,
		env11 + `<SOAP-ENV:Body><SOAP-ENV:Fault><faultcode>SOAP-ENV:Server</faultcode><faultstring>boom</faultstring></SOAP-ENV:Fault></SOAP-ENV:Body></SOAP-ENV:Envelope>`,
		env11 + `<SOAP-ENV:Body><spi:Parallel_Method xmlns:spi="http://spi.ict.ac.cn/pack"><m:a xmlns:m="urn:a" spi:id="0" spi:service="A"/><m:b xmlns:m="urn:b" spi:id="1" spi:service="B"/></spi:Parallel_Method></SOAP-ENV:Body></SOAP-ENV:Envelope>`,
		`<Envelope xmlns="urn:not-soap"><Body/></Envelope>`,
		`<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/">`,
		env11 + `<SOAP-ENV:Body>`,
		`<a/>`,
		`not xml at all`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkRoundTrip(t, data, env, func(doc []byte) (*Envelope, error) { return Decode(bytes.NewReader(doc)) })
	})
}

// checkRoundTrip holds env, which decode accepted from data, to a round trip:
// its encoding decodes back to the same shape — to equal trees when data is
// made of XML characters — and encodes to the same bytes again.
func checkRoundTrip(t *testing.T, data []byte, env *Envelope, decode func([]byte) (*Envelope, error)) {
	t.Helper()
	enc := NewStreamEncoder()
	defer enc.Release()
	got, err := enc.EncodeEnvelope(env)
	if err != nil {
		t.Fatalf("accepted envelope failed to encode: %v\nin: %q", err, data)
	}
	re, err := decode(got)
	if err != nil {
		t.Fatalf("own output does not re-decode: %v\nin:  %q\nout: %q", err, data, got)
	}
	if re.Version != env.Version || len(re.Header) != len(env.Header) || len(re.Body) != len(env.Body) {
		t.Fatalf("re-decoded envelope differs in shape:\nin:  %q\nout: %q", data, got)
	}
	// The reader passes other bytes through and the writers spell each as
	// U+FFFD, so trees holding one differ there by design.
	if xmlChars(data) {
		trees := append(append([]*xmldom.Element(nil), env.Header...), env.Body...)
		reTrees := append(append([]*xmldom.Element(nil), re.Header...), re.Body...)
		for i := range trees {
			if !xmldom.Equal(trees[i], reTrees[i]) {
				t.Fatalf("re-decoded tree differs:\nin:  %s\nout: %s", trees[i], reTrees[i])
			}
		}
	}
	var again bytes.Buffer
	if err := re.Encode(&again); err != nil || !bytes.Equal(again.Bytes(), got) {
		t.Fatalf("encoding is not stable (%v):\nfirst:  %q\nsecond: %q", err, got, again.Bytes())
	}
}

// xmlChars reports whether data is UTF-8 made only of XML characters, the
// ones a writer can spell back.
func xmlChars(data []byte) bool {
	for len(data) > 0 {
		r, n := utf8.DecodeRune(data)
		switch {
		case r == utf8.RuneError && n == 1, r < 0x20 && r != '\t' && r != '\n' && r != '\r', r == 0xFFFE, r == 0xFFFF:
			return false
		}
		data = data[n:]
	}
	return true
}
