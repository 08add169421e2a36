package soap

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
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
func streamDecodeAll(doc []byte) (*Envelope, error) {
	d := AcquireStreamDecoder(doc, nil) // not released: the envelope outlives it
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

// decodeTable is the parity table: valid and malformed documents whose
// decode testdata/decode.golden pins, beside every XML file under the
// repository's testdata directories. Rows are appended, never reordered:
// a row's name is its index.
var decodeTable = []string{
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
	`<a xmlns="urn:x"/>`,
	// Appended with the golden.
	streamEnv11 + `<SOAP-ENV:Header><h:t xmlns:h="urn:h">k</h:t></SOAP-ENV:Header>` +
		`<SOAP-ENV:Body><m:op xmlns:m="urn:m"><p>v</p></m:op></SOAP-ENV:Body></SOAP-ENV:Envelope>`,
	streamEnv11 + `<SOAP-ENV:Body><m:a xmlns:m="urn:a" x="1" x="2"/></SOAP-ENV:Body></SOAP-ENV:Envelope>`,
	streamEnv11 + `<SOAP-ENV:Body><m:a xmlns:m="urn:a"><p>v</p></m:a></SOAP-ENV:Body></SOAP-ENV:Envelope>trailing text`,
	streamEnv11 + `<SOAP-ENV:Header><h:t xmlns:h="urn:h">k</h:t>`,
	streamEnv12 + `<env:Body><env:Fault><env:Code><env:Value>env:Sender</env:Value></env:Code>` +
		`<env:Reason><env:Text xml:lang="en">no</env:Text></env:Reason></env:Fault></env:Body></env:Envelope>`,
	streamEnv11 + `<SOAP-ENV:Body><m:a xmlns:m="urn:a"><![CDATA[<x>]]>&amp;<!-- c --></m:a></SOAP-ENV:Body>` +
		`<!-- tail --></SOAP-ENV:Envelope>`,
}

// decodeCase is one document the decode golden pins, under its golden name.
type decodeCase struct {
	name string
	doc  []byte
}

// decodeCases is the parity table, then every XML file under a testdata
// directory of the repository, named by its path from the root.
func decodeCases(t *testing.T) []decodeCase {
	t.Helper()
	var cases []decodeCase
	for i, doc := range decodeTable {
		cases = append(cases, decodeCase{fmt.Sprintf("table/%02d", i), []byte(doc)})
	}
	const root = "../.."
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || filepath.Ext(path) != ".xml" ||
			!strings.Contains(filepath.ToSlash(path), "/testdata/") {
			return err
		}
		doc, err := os.ReadFile(path)
		rel, _ := filepath.Rel(root, path)
		cases = append(cases, decodeCase{filepath.ToSlash(rel), doc})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

// decodeOutcome is what a decode made of a document, as a golden line holds
// it: the error text, or the envelope serialized.
func decodeOutcome(env *Envelope, err error) string {
	if err != nil {
		return "err " + strconv.Quote(err.Error())
	}
	var b strings.Builder
	if err := env.Encode(&b); err != nil {
		return "unencodable " + strconv.Quote(err.Error())
	}
	return "env " + strconv.Quote(b.String())
}

// decodeGolden reads testdata/decode.golden, a line per case: its name, a
// tab, its outcome. With -update it first rewrites the file from Decode.
func decodeGolden(t *testing.T, cases []decodeCase) map[string]string {
	t.Helper()
	if *updateGolden {
		lines := make([]string, len(cases))
		for i, c := range cases {
			lines[i] = c.name + "\t" + decodeOutcome(Decode(bytes.NewReader(c.doc)))
		}
		goldenLines(t, "testdata/decode.golden", lines)
	}
	file, err := os.ReadFile("testdata/decode.golden")
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(file), "\n"), "\n") {
		name, outcome, _ := strings.Cut(line, "\t")
		golden[name] = outcome
	}
	for _, c := range cases {
		if _, ok := golden[c.name]; !ok {
			t.Fatalf("testdata/decode.golden has no line for %s (run with -update)", c.name)
		}
	}
	return golden
}

// TestStreamDecoderMatchesDecode holds Decode and the StreamDecoder, driven
// entry by entry as the server drives it, to the decode golden: over valid
// and malformed documents alike, each accepts exactly what the golden
// accepts, with the same envelope, and rejects the rest with the same error
// text.
func TestStreamDecoderMatchesDecode(t *testing.T) {
	cases := decodeCases(t)
	golden := decodeGolden(t, cases)
	for _, c := range cases {
		want := golden[c.name]
		if got := decodeOutcome(Decode(bytes.NewReader(c.doc))); got != want {
			t.Errorf("%s: Decode: %s\ngolden:     %s", c.name, got, want)
		}
		if got := decodeOutcome(streamDecodeAll(c.doc)); got != want {
			t.Errorf("%s: stream: %s\ngolden:     %s", c.name, got, want)
		}
	}
}

// TestStreamDecoderErrorParity pins the envelope-shape violations to the
// golden's error text, through Decode and the StreamDecoder alike.
func TestStreamDecoderErrorParity(t *testing.T) {
	golden := decodeGolden(t, decodeCases(t))
	// Header after Body, two Bodies, no Body, a foreign Envelope, a foreign
	// root.
	for _, row := range []int{12, 13, 15, 10, 18} {
		doc := decodeTable[row]
		want := golden[fmt.Sprintf("table/%02d", row)]
		if !strings.HasPrefix(want, "err ") {
			t.Fatalf("%s: golden %s, want an error", doc, want)
		}
		_, decErr := Decode(strings.NewReader(doc))
		_, streamErr := streamDecodeAll([]byte(doc))
		if got := decodeOutcome(nil, decErr); got != want {
			t.Errorf("%s:\nDecode: %s\ngolden: %s", doc, got, want)
		}
		if got := decodeOutcome(nil, streamErr); got != want {
			t.Errorf("%s:\nstream: %s\ngolden: %s", doc, got, want)
		}
	}
	// VersionMismatchError must keep its concrete type so the server can
	// answer with the right fault code.
	for _, err := range []error{
		func() error { _, err := Decode(strings.NewReader(decodeTable[10])); return err }(),
		func() error { _, err := streamDecodeAll([]byte(decodeTable[10])); return err }(),
	} {
		if _, ok := err.(*VersionMismatchError); !ok {
			t.Errorf("version mismatch lost its type: %T %v", err, err)
		}
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

// TestDecodeArenaMatchesDecode runs a pooled arena decode on one recycled
// arena and holds it to the decode golden over every document it pins.
func TestDecodeArenaMatchesDecode(t *testing.T) {
	cases := decodeCases(t)
	golden := decodeGolden(t, cases)
	arena := xmldom.AcquireArena()
	for _, c := range cases {
		doc, err := streamDecodeAllPooled(string(c.doc), arena)
		got := "env " + strconv.Quote(doc)
		if err != nil {
			got = decodeOutcome(nil, err)
		}
		if got != golden[c.name] {
			t.Errorf("%s: arena: %s\ngolden: %s", c.name, got, golden[c.name])
		}
		arena.Reset()
	}
	xmldom.ReleaseArena(arena)
}

// TestStreamDecoderArena runs the streaming path on one recycled arena and
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

// FuzzStreamDecoder feeds arbitrary documents to the streaming decoder,
// driven exactly as the server drives it, and holds whatever it accepts to a
// round trip (checkRoundTrip). Seeds exercise the packed fast path:
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
		env, err := streamDecodeAll(data)
		if err != nil {
			return
		}
		checkRoundTrip(t, data, env, streamDecodeAll)
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

// TestSkimChildSpans: a child SkimChild steps over comes back childless with
// its bytes, quoted '>' and all, in ChildSpan and what is inside them in
// Content; the tokenizer still refuses one whose tags do not balance or whose
// end tag names another start tag.
func TestSkimChildSpans(t *testing.T) {
	skim := func(children string) (spans, contents []string, err error) {
		doc := `<s:Envelope xmlns:s="` + NSEnvelope + `"><s:Body><p>` + children + `</p></s:Body></s:Envelope>`
		d := AcquireStreamDecoder([]byte(doc), nil)
		defer d.Release()
		if err := d.ReadPreamble(); err != nil {
			return nil, nil, err
		}
		p, err := d.NextEntryStart()
		if err != nil {
			return nil, nil, err
		}
		for {
			el, err := d.SkimChild(p, func(*xmldom.Element) bool { return false })
			if err != nil || el == nil {
				return spans, contents, err
			}
			if len(el.Children) != 0 {
				t.Errorf("%s: a skimmed child has %d children", el.Name, len(el.Children))
			}
			spans = append(spans, string(d.ChildSpan()))
			contents = append(contents, string(d.Content()))
		}
	}
	spans, contents, err := skim(`<a x="a>b"><b/></a><c></c><d t='>'>text &lt; more</d><e/>`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`<a x="a>b"><b/></a>`, `<c></c>`, `<d t='>'>text &lt; more</d>`, `<e/>`}
	wantContent := []string{`<b/>`, ``, `text &lt; more`, ``}
	if fmt.Sprint(spans) != fmt.Sprint(want) || fmt.Sprint(contents) != fmt.Sprint(wantContent) {
		t.Fatalf("spans %q, contents %q; want %q, %q", spans, contents, want, wantContent)
	}
	for _, bad := range []string{"<a>", "</a>", "<a", "<a><b></a>", "<a><b></a></b>"} {
		if _, _, err := skim(bad); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}
