package soap

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/xmldom"
)

const (
	streamEnv11 = `<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/">`
	streamEnv12 = `<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope">`
)

// streamDecodeAll drives a StreamDecoder the way the server does — preamble,
// then every entry child by child — and returns the finished envelope.
func streamDecodeAll(t *testing.T, doc string) (*Envelope, error) {
	t.Helper()
	d := AcquireStreamDecoder([]byte(doc), nil) // not released: the envelope outlives it
	if err := d.ReadPreamble(); err != nil {
		return nil, err
	}
	for {
		entry, err := d.NextEntryStart()
		if err != nil {
			return nil, err
		}
		if entry == nil {
			break
		}
		for {
			child, err := d.NextChild(entry)
			if err != nil {
				return nil, err
			}
			if child == nil {
				break
			}
		}
	}
	return d.Finish()
}

// TestStreamDecoderMatchesDecode is the differential guarantee: over valid
// and malformed documents alike, the streaming decoder accepts exactly what
// Decode accepts and produces equivalent envelopes.
func TestStreamDecoderMatchesDecode(t *testing.T) {
	docs := []string{
		// Valid.
		streamEnv11 + `<SOAP-ENV:Body><m:echo xmlns:m="urn:spi:Echo"><data>hi</data></m:echo></SOAP-ENV:Body></SOAP-ENV:Envelope>`,
		streamEnv11 + `<SOAP-ENV:Body/></SOAP-ENV:Envelope>`,
		streamEnv11 + `<SOAP-ENV:Header><h:a xmlns:h="urn:h">v</h:a><h:b xmlns:h="urn:h"/></SOAP-ENV:Header><SOAP-ENV:Body><m:op xmlns:m="urn:m"/></SOAP-ENV:Body></SOAP-ENV:Envelope>`,
		streamEnv12 + `<env:Body><m:echo xmlns:m="urn:spi:Echo"/></env:Body></env:Envelope>`,
		streamEnv11 + `<SOAP-ENV:Body><spi:Parallel_Method xmlns:spi="http://spi.ict.ac.cn/pack">` +
			`<m:a xmlns:m="urn:a" spi:id="0" spi:service="A"><x>1</x></m:a>` +
			`<m:b xmlns:m="urn:b" spi:id="1" spi:service="B"/>` +
			`</spi:Parallel_Method></SOAP-ENV:Body></SOAP-ENV:Envelope>`,
		`<?xml version="1.0"?>` + "\n" + streamEnv11 + "\n  " +
			`<SOAP-ENV:Body>` + "\n    " + `<m:op xmlns:m="urn:m"><p>v</p></m:op>` + "\n  " +
			`</SOAP-ENV:Body>` + "\n" + `</SOAP-ENV:Envelope>`,
		streamEnv11 + `<SOAP-ENV:Body><!-- c --><a xmlns="urn:x">t<b/>u</a><c xmlns="urn:y"/></SOAP-ENV:Body></SOAP-ENV:Envelope>`,
		// Malformed.
		``,
		`not xml`,
		`<a/>`,
		`<Envelope xmlns="urn:not-soap"><Body/></Envelope>`,
		streamEnv11 + `<SOAP-ENV:Body>`,
		streamEnv11 + `<SOAP-ENV:Body/><SOAP-ENV:Header/></SOAP-ENV:Envelope>`,
		streamEnv11 + `<SOAP-ENV:Body/><SOAP-ENV:Body/></SOAP-ENV:Envelope>`,
		streamEnv11 + `<SOAP-ENV:Body/><junk/></SOAP-ENV:Envelope>`,
		streamEnv11 + `</SOAP-ENV:Envelope>`,
		streamEnv11 + `<SOAP-ENV:Body><m:a xmlns:m="urn:a"></m:b></SOAP-ENV:Body></SOAP-ENV:Envelope>`,
		streamEnv11 + `<SOAP-ENV:Body/></SOAP-ENV:Envelope><trailing/>`,
	}
	for _, doc := range docs {
		want, wantErr := Decode(strings.NewReader(doc))
		got, gotErr := streamDecodeAll(t, doc)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("%s:\nDecode err: %v\nstream err: %v", doc, wantErr, gotErr)
			continue
		}
		if wantErr != nil {
			continue
		}
		if got.Version != want.Version {
			t.Errorf("%s: version %v vs %v", doc, got.Version, want.Version)
		}
		if len(got.Header) != len(want.Header) || len(got.Body) != len(want.Body) {
			t.Errorf("%s: structure header %d/%d body %d/%d", doc,
				len(got.Header), len(want.Header), len(got.Body), len(want.Body))
			continue
		}
		for i := range want.Header {
			if !xmldom.Equal(got.Header[i], want.Header[i]) {
				t.Errorf("%s: header %d differs:\n%s\nvs\n%s", doc, i, got.Header[i], want.Header[i])
			}
		}
		for i := range want.Body {
			if !xmldom.Equal(got.Body[i], want.Body[i]) {
				t.Errorf("%s: body %d differs:\n%s\nvs\n%s", doc, i, got.Body[i], want.Body[i])
			}
		}
	}
}

// TestStreamDecoderErrorParity pins the exact error messages shared with
// Decode for the envelope-shape violations.
func TestStreamDecoderErrorParity(t *testing.T) {
	for _, doc := range []string{
		streamEnv11 + `<SOAP-ENV:Body/><SOAP-ENV:Header/></SOAP-ENV:Envelope>`,
		streamEnv11 + `<SOAP-ENV:Body/><SOAP-ENV:Body/></SOAP-ENV:Envelope>`,
		streamEnv11 + `</SOAP-ENV:Envelope>`,
		`<Envelope xmlns="urn:not-soap"><Body/></Envelope>`,
		`<a xmlns="urn:x"/>`,
	} {
		_, wantErr := Decode(strings.NewReader(doc))
		_, gotErr := streamDecodeAll(t, doc)
		if wantErr == nil || gotErr == nil {
			t.Fatalf("%s: expected errors, got %v / %v", doc, wantErr, gotErr)
		}
		if wantErr.Error() != gotErr.Error() {
			t.Errorf("%s:\nDecode: %v\nstream: %v", doc, wantErr, gotErr)
		}
	}
	// VersionMismatchError must keep its concrete type so the server can
	// answer with the right fault code.
	_, err := streamDecodeAll(t, `<Envelope xmlns="urn:not-soap"><Body/></Envelope>`)
	if _, ok := err.(*VersionMismatchError); !ok {
		t.Errorf("version mismatch lost its type: %T %v", err, err)
	}
}

// TestStreamDecoderIncremental checks the property the fast path is built
// on: a packed entry's child is fully usable (namespaces resolved, params
// readable) before the rest of the document has been read. A decoder handed
// only the bytes up to the first entry's end decodes the first child whole,
// and only asking for the next one meets the cut; one handed the whole
// document goes on to the second child, the entry's close and Finish.
func TestStreamDecoderIncremental(t *testing.T) {
	head := streamEnv11 + `<SOAP-ENV:Body><spi:Parallel_Method xmlns:spi="http://spi.ict.ac.cn/pack">` +
		`<m:first xmlns:m="urn:svc" spi:id="0" spi:service="Svc"><p>v0</p></m:first>`
	tail := `<m:second xmlns:m="urn:svc" spi:id="1" spi:service="Svc"/>` +
		`</spi:Parallel_Method></SOAP-ENV:Body></SOAP-ENV:Envelope>`
	for _, whole := range []bool{false, true} {
		doc := head
		if whole {
			doc += tail
		}
		d := AcquireStreamDecoder([]byte(doc), nil)
		defer d.Release()
		if err := d.ReadPreamble(); err != nil {
			t.Fatal(err)
		}
		entry, err := d.NextEntryStart()
		if err != nil || entry == nil {
			t.Fatalf("entry: %v %v", entry, err)
		}
		if !entry.Is("http://spi.ict.ac.cn/pack", "Parallel_Method") {
			t.Fatalf("entry is %s", entry.Name)
		}
		child, err := d.NextChild(entry)
		if err != nil || child == nil {
			t.Fatalf("child: %v %v", child, err)
		}
		if !child.Is("urn:svc", "first") {
			t.Errorf("child namespace not resolvable mid-stream: %s", child.Name)
		}
		if got := child.Child("", "p").Text(); got != "v0" {
			t.Errorf("child param = %q", got)
		}
		c2, err := d.NextChild(entry)
		if !whole {
			if err == nil {
				t.Fatalf("second child of a cut document: %v, want an error", c2)
			}
			continue
		}
		if err != nil || c2 == nil || c2.Name.Local != "second" {
			t.Fatalf("second child: %v %v", c2, err)
		}
		if c3, err := d.NextChild(entry); err != nil || c3 != nil {
			t.Fatalf("entry close: %v %v", c3, err)
		}
		env, err := d.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if len(env.Body) != 1 {
			t.Fatalf("body entries = %d", len(env.Body))
		}
	}
}

// TestStreamDecoderArena runs the streaming path on a recycled arena and
// checks the drain-in-Finish path (caller abandons entries mid-stream).
func TestStreamDecoderArena(t *testing.T) {
	doc := streamEnv11 + `<SOAP-ENV:Body><m:a xmlns:m="urn:a"><x>1</x></m:a><m:b xmlns:m="urn:b"/></SOAP-ENV:Body></SOAP-ENV:Envelope>`
	a := xmldom.AcquireArena()
	defer xmldom.ReleaseArena(a)
	for i := 0; i < 3; i++ {
		d := AcquireStreamDecoder([]byte(doc), a)
		if err := d.ReadPreamble(); err != nil {
			t.Fatal(err)
		}
		// Don't consume any entries: Finish must drain and still validate.
		env, err := d.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if len(env.Body) != 2 {
			t.Fatalf("iteration %d: body entries = %d", i, len(env.Body))
		}
		if env.Body[0].Child("", "x").Text() != "1" {
			t.Fatalf("iteration %d: param lost", i)
		}
		a.Reset()
	}
}

// TestDecodeArenaMatchesDecode checks the buffered arena decode against the
// heap decode.
func TestDecodeArenaMatchesDecode(t *testing.T) {
	doc := streamEnv11 + `<SOAP-ENV:Header><h:t xmlns:h="urn:h">k</h:t></SOAP-ENV:Header>` +
		`<SOAP-ENV:Body><m:op xmlns:m="urn:m"><p>v</p></m:op></SOAP-ENV:Body></SOAP-ENV:Envelope>`
	want, err := Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	a := xmldom.AcquireArena()
	defer xmldom.ReleaseArena(a)
	got, err := DecodeArena(strings.NewReader(doc), a)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version || len(got.Body) != len(want.Body) || len(got.Header) != len(want.Header) {
		t.Fatalf("structure mismatch")
	}
	if !xmldom.Equal(got.Body[0], want.Body[0]) || !xmldom.Equal(got.Header[0], want.Header[0]) {
		t.Error("trees differ")
	}
}

// FuzzStreamDecoder feeds arbitrary documents to the streaming decoder,
// driven exactly as the server drives it, and cross-checks acceptance and
// structure against Decode. Seeds exercise the packed fast path:
// interleaved namespace declarations, deeply nested entry payloads and
// fault entries early in the pack.
func FuzzStreamDecoder(f *testing.F) {
	pack := `<spi:Parallel_Method xmlns:spi="http://spi.ict.ac.cn/pack">`
	for _, seed := range []string{
		``,
		`<a/>`,
		streamEnv11 + `<SOAP-ENV:Body><m:echo xmlns:m="urn:spi:Echo"><data>hi</data></m:echo></SOAP-ENV:Body></SOAP-ENV:Envelope>`,
		// Interleaved namespaces: the same prefix rebound per entry, child
		// prefixes declared on ancestors, default-namespace switches.
		streamEnv11 + `<SOAP-ENV:Body>` + pack +
			`<m:a xmlns:m="urn:one" spi:id="0" spi:service="A"><m:x>1</m:x></m:a>` +
			`<m:a xmlns:m="urn:two" spi:id="1" spi:service="A"><y xmlns="urn:deep">2</y></m:a>` +
			`<b xmlns="urn:three" spi:id="2" spi:service="B"><c xmlns=""/></b>` +
			`</spi:Parallel_Method></SOAP-ENV:Body></SOAP-ENV:Envelope>`,
		// Deeply nested entry payloads.
		streamEnv11 + `<SOAP-ENV:Body>` + pack +
			`<m:deep xmlns:m="urn:d" spi:id="0" spi:service="D">` +
			strings.Repeat(`<level>`, 24) + `bottom` + strings.Repeat(`</level>`, 24) +
			`</m:deep></spi:Parallel_Method></SOAP-ENV:Body></SOAP-ENV:Envelope>`,
		// Fault entry early in the pack, real entries after it.
		streamEnv11 + `<SOAP-ENV:Body>` + pack +
			`<SOAP-ENV:Fault spi:id="0" spi:service="A"><faultcode>SOAP-ENV:Server</faultcode><faultstring>early boom</faultstring></SOAP-ENV:Fault>` +
			`<m:ok xmlns:m="urn:ok" spi:id="1" spi:service="B"><p>fine</p></m:ok>` +
			`</spi:Parallel_Method></SOAP-ENV:Body></SOAP-ENV:Envelope>`,
		// Malformed tails after a good first entry.
		streamEnv11 + `<SOAP-ENV:Body>` + pack + `<m:a xmlns:m="urn:a" spi:id="0" spi:service="A"/><m:b`,
		streamEnv11 + `<SOAP-ENV:Body/><SOAP-ENV:Header/></SOAP-ENV:Envelope>`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := Decode(bytes.NewReader(data))

		d := AcquireStreamDecoder(data, nil)
		defer d.Release()
		var got *Envelope
		gotErr := d.ReadPreamble()
		if gotErr == nil {
		entries:
			for {
				entry, err := d.NextEntryStart()
				if err != nil {
					gotErr = err
					break
				}
				if entry == nil {
					break
				}
				for {
					child, err := d.NextChild(entry)
					if err != nil {
						gotErr = err
						break entries
					}
					if child == nil {
						break
					}
				}
			}
			if gotErr == nil {
				got, gotErr = d.Finish()
			}
		}

		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("acceptance divergence:\nDecode: %v\nstream: %v\ndoc: %q", wantErr, gotErr, data)
		}
		if wantErr != nil {
			return
		}
		if got.Version != want.Version ||
			len(got.Header) != len(want.Header) || len(got.Body) != len(want.Body) {
			t.Fatalf("structure divergence on %q", data)
		}
		for i := range want.Body {
			if !xmldom.Equal(got.Body[i], want.Body[i]) {
				t.Fatalf("body %d divergence on %q:\n%s\nvs\n%s", i, data, got.Body[i], want.Body[i])
			}
		}
	})
}

// streamDecodeAllPooled mirrors streamDecodeAll on a pooled decoder and
// returns the envelope serialized, since the envelope itself dies with the
// decoder's release.
func streamDecodeAllPooled(doc string, a *xmldom.Arena) (string, error) {
	d := AcquireStreamDecoder([]byte(doc), a)
	defer d.Release()
	if err := d.ReadPreamble(); err != nil {
		return "", err
	}
	for {
		entry, err := d.NextEntryStart()
		if err != nil {
			return "", err
		}
		if entry == nil {
			break
		}
		if err := d.CompleteEntry(entry); err != nil {
			return "", err
		}
	}
	env, err := d.Finish()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	err = env.Encode(&b)
	return b.String(), err
}

// TestStreamDecoderPoolRecycling checks pooled decoders against fresh
// Decode over distinct documents from concurrent goroutines — with -race
// this doubles as the pool's data-race check, and the serialized
// comparison catches any state leaking between recycled decoders.
func TestStreamDecoderPoolRecycling(t *testing.T) {
	const workers, rounds = 8, 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				doc := fmt.Sprintf(`<?xml version="1.0"?>`+streamEnv11+
					`<SOAP-ENV:Header><h:t xmlns:h="urn:h">w%dr%d</h:t></SOAP-ENV:Header>`+
					`<SOAP-ENV:Body><m:op%d xmlns:m="urn:w%d"><v>%d &amp; %d</v></m:op%d></SOAP-ENV:Body></SOAP-ENV:Envelope>`,
					w, r, r, w, w, r, r)
				arena := xmldom.AcquireArena()
				got, err := streamDecodeAllPooled(doc, arena)
				if err != nil {
					xmldom.ReleaseArena(arena)
					t.Errorf("worker %d round %d: pooled: %v", w, r, err)
					return
				}
				xmldom.ReleaseArena(arena)
				env, err := Decode(strings.NewReader(doc))
				if err != nil {
					t.Errorf("worker %d round %d: Decode: %v", w, r, err)
					return
				}
				var want strings.Builder
				if err := env.Encode(&want); err != nil || got != want.String() {
					t.Errorf("worker %d round %d: pooled %q, fresh %q (%v)", w, r, got, want.String(), err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestStreamDecoderPoolErrorRelease pins that Release is safe in every
// decoder state: never started, failed preamble, failed mid-body, done.
func TestStreamDecoderPoolErrorRelease(t *testing.T) {
	for _, doc := range []string{
		``,
		`<Envelope xmlns="urn:not-soap"><Body/></Envelope>`,
		streamEnv11 + `<SOAP-ENV:Body><a></b>`,
		streamEnv11 + `<SOAP-ENV:Body/></SOAP-ENV:Envelope>`,
	} {
		d := AcquireStreamDecoder([]byte(doc), nil)
		if err := d.ReadPreamble(); err == nil {
			for {
				entry, err := d.NextEntryStart()
				if err != nil || entry == nil {
					break
				}
				if err := d.CompleteEntry(entry); err != nil {
					break
				}
			}
			_, _ = d.Finish()
		}
		d.Release()
	}
	// The pool must hand back working decoders afterwards.
	doc := streamEnv11 + `<SOAP-ENV:Body><m:ok xmlns:m="urn:m"/></SOAP-ENV:Body></SOAP-ENV:Envelope>`
	got, err := streamDecodeAllPooled(doc, nil)
	if err != nil || !strings.Contains(got, "m:ok") {
		t.Fatalf("after error releases: %q, %v", got, err)
	}
}
