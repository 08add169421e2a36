package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/services"
	"repro/internal/soap"
	"repro/internal/soapenc"
)

// The differential suite pins the gateway's headline guarantee: a packed
// envelope answered through the gateway over K backends is the same answer
// the same envelope gets from one direct server — byte for byte in its
// framing and declarations, and entry for entry by spi:id (byID) — across
// SOAP versions, randomized entry mixes, randomized per-backend completion
// orders (nap entries), and injected per-entry faults. The generator is
// seeded, so failures replay.

// direct is a standalone SPI server reachable over its own link.
type direct struct {
	link *netsim.Link
}

func newDirect(tb testing.TB) *direct {
	tb.Helper()
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := core.NewServer(core.ServerConfig{
		Container: testContainer(tb), AppWorkers: 8, AppQueue: 64,
	})
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(lis)
	tb.Cleanup(func() { srv.Close(); link.Close() })
	return &direct{link: link}
}

// exchange POSTs one document and snapshots the reply: status, content
// type, and a copy of the body (the original may alias a pooled buffer).
type reply struct {
	status int
	ct     string
	body   []byte
}

func post(tb testing.TB, c *httpx.Client, target, ct string, doc []byte) reply {
	tb.Helper()
	resp, err := c.Post(target, ct, doc)
	if err != nil {
		tb.Fatalf("POST %s: %v", target, err)
	}
	defer resp.Release()
	return reply{
		status: resp.StatusCode,
		ct:     resp.Header.Get("Content-Type"),
		body:   append([]byte(nil), resp.Body...),
	}
}

func diffReplies(t *testing.T, label string, doc []byte, want, got reply) {
	t.Helper()
	if want.status != got.status {
		t.Errorf("%s: status direct=%d gateway=%d", label, want.status, got.status)
	}
	if want.ct != got.ct {
		t.Errorf("%s: content type direct=%q gateway=%q", label, want.ct, got.ct)
	}
	if !bytes.Equal(byID(want.body), byID(got.body)) {
		t.Errorf("%s: body diverged\nrequest: %s\ndirect:  %s\ngateway: %s",
			label, doc, want.body, got.body)
	}
}

// byID is a packed response as every reader takes it: its framing and
// declarations as they are, its entries sorted by spi:id. Servers and
// gateways write each entry when its work completes, so responses that differ
// only in that order are one answer. Anything else comes back as it is.
func byID(body []byte) []byte {
	segs, _, err := core.SplitGatherResponse(body)
	joined := bytes.Join(segs, nil)
	at := bytes.Index(body, joined)
	if err != nil || len(segs) == 0 || at < 0 {
		return body
	}
	sort.SliceStable(segs, func(i, j int) bool { return segmentID(segs[i]) < segmentID(segs[j]) })
	return slices.Concat(body[:at], bytes.Join(segs, nil), body[at+len(joined):])
}

var idAttr = regexp.MustCompile(`^<[^>]*? spi:id="(\d+)"`)

// segmentID is the spi:id on an entry's start tag, -1 without one.
func segmentID(seg []byte) int {
	m := idAttr.FindSubmatch(seg)
	if m == nil {
		return -1
	}
	id, _ := strconv.Atoi(string(m[1]))
	return id
}

// escapeText makes an arbitrary payload safe as XML character data.
var escapeText = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")

// randomPayload mixes plain characters with ones the emitter must escape
// and the tokenizer must decode, including the empty string.
func randomPayload(rng *rand.Rand) string {
	if rng.Intn(6) == 0 {
		return ""
	}
	const chars = "abc XYZ09&<>'\"éλ"
	n := rng.Intn(12) + 1
	var b strings.Builder
	for i := 0; i < n; i++ {
		r := []rune(chars)
		b.WriteRune(r[rng.Intn(len(r))])
	}
	return b.String()
}

// randomEntry emits one Parallel_Method child. withService controls the
// spi:service attribute (the bare pack endpoint has no default service, so
// an entry without one faults — also covered deliberately below).
func randomEntry(rng *rand.Rand, withService bool) string {
	return randomEntryIn(rng, withService, false)
}

// randomEntryIn is randomEntry for a batch whose Parallel_Method may have
// hoisted the namespace: hoisted entries mostly leave xmlns:m to it.
func randomEntryIn(rng *rand.Rand, withService, hoisted bool) string {
	var attrs strings.Builder
	if !hoisted || rng.Intn(4) == 0 {
		attrs.WriteString(` xmlns:m="urn:spi:Echo"`)
	}
	service := "Echo"
	if r := rng.Intn(10); r == 0 {
		service = "Ghost" // unknown service: per-item Client fault
	}
	if withService && rng.Intn(10) != 0 {
		fmt.Fprintf(&attrs, ` spi:service=%q`, service)
	}
	switch rng.Intn(8) {
	case 0:
		attrs.WriteString(` spi:id="x"`) // unparseable id: positional per-item fault
	case 1, 2:
		fmt.Fprintf(&attrs, ` spi:id="%d"`, rng.Intn(40)) // explicit, duplicates allowed
	}

	op := "echo"
	switch rng.Intn(12) {
	case 0:
		op = "fail"
	case 1:
		op = "empty"
	case 2:
		op = "none"
	case 3:
		op = "ghostOp" // unknown operation: per-item Client fault
	case 4, 5:
		// nap randomizes the completion order across backends and app
		// workers; the response must come back in slot order regardless.
		return fmt.Sprintf(`<m:nap%s><ms xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xsd="http://www.w3.org/2001/XMLSchema" xsi:type="xsd:int">%d</ms></m:nap>`,
			attrs.String(), rng.Intn(8))
	}
	var params strings.Builder
	for i, n := 0, rng.Intn(3); i < n; i++ {
		fmt.Fprintf(&params, "<p%d>%s</p%d>", i, escapeText.Replace(randomPayload(rng)), i)
	}
	return fmt.Sprintf("<m:%s%s>%s</m:%s>", op, attrs.String(), params.String(), op)
}

// packedDoc wraps entries in a packed envelope of the given version.
func packedDoc(v soap.Version, entries []string) []byte {
	return packedDocWith(v, "", entries)
}

// packedDocWith is packedDoc with extra Parallel_Method attributes — the
// batch-default framing: a hoisted xmlns:m and/or spi:service.
func packedDocWith(v soap.Version, pmAttrs string, entries []string) []byte {
	var b strings.Builder
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>`)
	b.WriteString(`<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + v.Namespace() + `">`)
	b.WriteString(`<SOAP-ENV:Body><spi:Parallel_Method xmlns:spi="http://spi.ict.ac.cn/pack"` + pmAttrs + `>`)
	for _, e := range entries {
		b.WriteString(e)
	}
	b.WriteString(`</spi:Parallel_Method></SOAP-ENV:Body></SOAP-ENV:Envelope>`)
	return []byte(b.String())
}

func TestDifferentialPackedRandomized(t *testing.T) {
	docsPerCase := 30
	if testing.Short() {
		docsPerCase = 8
	}
	for _, k := range []int{1, 2, 3, 4} {
		for _, v := range []soap.Version{soap.V11, soap.V12} {
			t.Run(fmt.Sprintf("backends=%d/%s", k, v), func(t *testing.T) {
				t.Parallel()
				seed := int64(1000*k + int(v))
				rng := rand.New(rand.NewSource(seed))
				d := newDirect(t)
				f := newFarm(t, k, nil)
				dc := &httpx.Client{Dial: d.link.Dial, KeepAlive: true, Timeout: 10 * time.Second}
				gc := f.raw()
				defer dc.Close()
				defer gc.Close()

				for i := 0; i < docsPerCase; i++ {
					// Alternate between the bare pack endpoint (entries must
					// name their service; unannotated ones fault) and a
					// service path that supplies the default.
					target, withService := "/services", true
					if rng.Intn(3) == 0 {
						target = "/services/Echo"
						withService = rng.Intn(2) == 0
					}
					// Half the documents use the batch-default framing: the
					// namespace hoisted onto Parallel_Method, and a default
					// service there that outranks the URL's — sometimes an
					// unknown one, so every inheriting entry faults alike.
					pmAttrs, hoisted := "", rng.Intn(2) == 0
					if hoisted {
						pmAttrs = ` xmlns:m="urn:spi:Echo"`
						switch rng.Intn(4) {
						case 0:
							pmAttrs += ` spi:service="Ghost"`
						case 1, 2:
							pmAttrs += ` spi:service="Echo"`
							withService = rng.Intn(2) == 0
						}
					}
					n := rng.Intn(9) // 0 entries: "has no requests" fault parity
					entries := make([]string, n)
					for j := range entries {
						entries[j] = randomEntryIn(rng, withService, hoisted)
					}
					doc := packedDocWith(v, pmAttrs, entries)
					label := fmt.Sprintf("seed=%d doc=%d target=%s", seed, i, target)
					diffReplies(t, label, doc,
						post(t, dc, target, v.ContentType(), doc),
						post(t, gc, target, v.ContentType(), doc))
				}
			})
		}
	}
}

// framingSpellings are one batch — five Echo calls, one of them to an
// operation nobody registered — spelled the three ways a client may: with
// the batch default on Parallel_Method (what a Batch sends), in the long
// form (everything on every entry, no default), and as a hybrid that
// declares the default and restates it on some entries.
func framingSpellings(v soap.Version, napMs int) map[string][]byte {
	ops := []struct{ name, params string }{
		{"echo", `<p0>a &amp; b</p0>`}, {"empty", ""}, {"ghostOp", ""},
		{"nap", fmt.Sprintf(`<ms xmlns:xsi="%s" xmlns:xsd="%s" xsi:type="xsd:int">%d</ms>`, soap.NSXSI, soap.NSXSD, napMs)},
		{"echo", ""},
	}
	const ns, svc = ` xmlns:m="urn:spi:Echo"`, ` spi:service="Echo"`
	spell := func(attrs func(i int) string) []string {
		entries := make([]string, len(ops))
		for i, op := range ops {
			entries[i] = fmt.Sprintf("<m:%s%s>%s</m:%s>", op.name, attrs(i), op.params, op.name)
		}
		return entries
	}
	return map[string][]byte{
		"default": packedDocWith(v, ns+svc, spell(func(int) string { return "" })),
		"long":    packedDoc(v, spell(func(i int) string { return fmt.Sprintf(`%s spi:id="%d"%s`, ns, i, svc) })),
		"hybrid": packedDocWith(v, ns+svc, spell(func(i int) string {
			return []string{"", ns, svc, ns + svc, ` spi:id="4"`}[i]
		})),
	}
}

// TestDifferentialFramingSpellings: under every spelling and any number of
// backends the gateway's reply is the direct server's — the batch default
// mirrored onto Parallel_Response when the request declared one, today's
// long-form bytes when it did not.
func TestDifferentialFramingSpellings(t *testing.T) {
	const hoisted = `<spi:Parallel_Response xmlns:spi="http://spi.ict.ac.cn/pack" xmlns:m="urn:spi:Echo"><m:echoResponse spi:id="0">`
	for _, k := range []int{1, 2, 4} {
		for _, v := range []soap.Version{soap.V11, soap.V12} {
			t.Run(fmt.Sprintf("backends=%d/%s", k, v), func(t *testing.T) {
				t.Parallel()
				d := newDirect(t)
				f := newFarm(t, k, nil)
				dc := &httpx.Client{Dial: d.link.Dial, KeepAlive: true, Timeout: 10 * time.Second}
				gc := f.raw()
				defer dc.Close()
				defer gc.Close()
				for name, doc := range framingSpellings(v, 3) {
					want := post(t, dc, "/services", v.ContentType(), doc)
					diffReplies(t, name, doc, want, post(t, gc, "/services", v.ContentType(), doc))
					if got := bytes.Contains(byID(want.body), []byte(hoisted)); got != (name != "long") {
						t.Errorf("%s: reply declares the batch default: %v\n%s", name, got, want.body)
					}
				}
			})
		}
	}
}

// travelSearchDoc is the travel agent's search step as a Batch writes it: a
// flight query to each airline and a room query to each hotel, whose replies
// carry arrays, with a scalar echo first so that with several backends some
// shard's reply has no array in it.
func travelSearchDoc(v soap.Version) []byte {
	const str = ` xmlns:xsi="` + soap.NSXSI + `" xmlns:xsd="` + soap.NSXSD + `" xsi:type="xsd:string"`
	entries := []string{`<m:echo><p0>no array here</p0></m:echo>`}
	for i := 0; i < services.NumAirlines; i++ {
		name := services.AirlineService(i)
		entries = append(entries, fmt.Sprintf(`<m:QueryFlights xmlns:m="urn:spi:%s" spi:service="%s"><from%s>Beijing</from><to%s>São Paulo</to></m:QueryFlights>`, name, name, str, str))
	}
	for i := 0; i < services.NumHotels; i++ {
		name := services.HotelService(i)
		entries = append(entries, fmt.Sprintf(`<m:QueryRooms xmlns:m="urn:spi:%s" spi:service="%s"><city%s>São Paulo</city></m:QueryRooms>`, name, name, str))
	}
	return packedDocWith(v, ` xmlns:m="urn:spi:Echo" spi:service="Echo"`, entries)
}

// stringsOnlyDoc is a batch whose replies hold nothing but strings, the empty
// one included: no reply to it uses a prefix an Envelope declares on demand.
func stringsOnlyDoc(v soap.Version) []byte {
	var entries []string
	for _, p := range []string{"one", "", " 3 ", "true", "a &amp; b"} {
		entries = append(entries, `<m:echo><p0>`+p+`</p0><p1>second</p1></m:echo>`)
	}
	return packedDocWith(v, ` xmlns:m="urn:spi:Echo" spi:service="Echo"`, entries)
}

// envelopeDecls is what a reply's Envelope start tag declares on demand.
func envelopeDecls(body []byte) soap.Decls {
	return soap.TagDecls(body[:bytes.IndexByte(body, '>')])
}

const typedDecls = soap.DeclXSI | soap.DeclXSD

// TestDifferentialArrays: a reply needs declared around it the prefixes its
// values use — SOAP-ENC, xsi and xsd for an array, xsi and xsd for an int,
// none for strings — and the gathered Envelope declares each exactly when the
// direct server's does — when some shard's reply did — whichever backends the
// entries landed on; the bytes are the direct server's.
func TestDifferentialArrays(t *testing.T) {
	// What a direct server answered the SOAP 1.1 search with before PR 16,
	// XML declaration included.
	const travelReplyPre16 = 4451
	for _, k := range []int{1, 2, 4} {
		for _, v := range []soap.Version{soap.V11, soap.V12} {
			t.Run(fmt.Sprintf("backends=%d/%s", k, v), func(t *testing.T) {
				t.Parallel()
				d := newDirect(t)
				f := newFarm(t, k, nil)
				dc := &httpx.Client{Dial: d.link.Dial, KeepAlive: true, Timeout: 10 * time.Second}
				gc := f.raw()
				defer dc.Close()
				defer gc.Close()
				for name, tc := range map[string]struct {
					doc  []byte
					want soap.Decls
				}{
					"travel search": {travelSearchDoc(v), typedDecls | soap.DeclEncoding},
					"an int":        {framingSpellings(v, 1)["default"], typedDecls},
					"strings only":  {stringsOnlyDoc(v), 0},
				} {
					want := post(t, dc, "/services", v.ContentType(), tc.doc)
					diffReplies(t, name, tc.doc, want, post(t, gc, "/services", v.ContentType(), tc.doc))
					if want.status != 200 || envelopeDecls(want.body) != tc.want || bytes.HasPrefix(want.body, []byte("<?xml")) {
						t.Errorf("%s: HTTP %d, Envelope declares %03b, want %03b (bits: SOAP-ENC, xsi, xsd)\n%s", name, want.status, envelopeDecls(want.body), tc.want, want.body)
					}
					if bytes.Contains(want.body, []byte(`"xsd:string"`)) {
						t.Errorf("%s: a string in the reply states its type:\n%s", name, want.body)
					}
					if name == "travel search" && v == soap.V11 && len(want.body) > travelReplyPre16-38 {
						t.Errorf("%s: reply is %d bytes, want at most %d (the pre-16 reply less its XML declaration)", name, len(want.body), travelReplyPre16-38)
					}
				}
				// The values survive the trip: client → gateway → backends.
				b := f.client(t, func(c *core.ClientConfig) { c.SOAP12 = v == soap.V12 }).NewBatch()
				flights := b.Add(services.AirlineService(1), "QueryFlights", soapenc.F("from", "Beijing"), soapenc.F("to", "Lima"))
				list := b.Add("Echo", "echo", soapenc.F("list", soapenc.Array{int64(1), "two"}))
				if err := b.Send(); err != nil {
					t.Fatal(err)
				}
				if got, err := flights.Wait(); err != nil || len(got) != 1 || len(got[0].Value.(soapenc.Array)) != 3 {
					t.Errorf("QueryFlights through the gateway: %v, %v", got, err)
				}
				if got, err := list.Wait(); err != nil || len(got) != 1 || !soapenc.Equal(got[0].Value, soapenc.Array{int64(1), "two"}) {
					t.Errorf("array echoed through the gateway: %v, %v", got, err)
				}
			})
		}
	}
}

var (
	untypedLeaf  = regexp.MustCompile(`<(\w+)>([^<]*)</(\w+)>`)
	envelopeOpen = regexp.MustCompile(`^<[\w-]+:Envelope xmlns:[\w-]+="[^"]*"`)
)

// respell re-spells a document written under the envelope prefix from as a
// writer that chose to would have: the tags of the envelope vocabulary, the
// Envelope's declaration and the fault codes, which are QNames.
func respell(doc, from, to string) string {
	if from == to {
		return doc
	}
	return strings.NewReplacer("<"+from+":", "<"+to+":", "</"+from+":", "</"+to+":",
		" xmlns:"+from+"=", " xmlns:"+to+"=", ">"+from+":", ">"+to+":").Replace(doc)
}

// oldBackend serves what a backend of another era wrote. Every era but
// soapenv's spells the envelope namespace SOAP-ENV, as every writer here did
// before PR 25; soapenv spells it as Axis does. Before PR 17 every string
// leaf was typed, under an Envelope that always declared xsi and xsd; before
// PR 16 the documents stood behind an XML declaration besides, and declared
// SOAP-ENC on every Envelope too.
func oldBackend(tb testing.TB, era string) *netsim.Link {
	tb.Helper()
	srv, err := core.NewServer(core.ServerConfig{Container: testContainer(tb), AppWorkers: 8, AppQueue: 64})
	if err != nil {
		tb.Fatal(err)
	}
	prefix := "SOAP-ENV"
	if era == "soapenv" {
		prefix = "soapenv"
	}
	typed := era == "pre16" || era == "pre17"
	old := &httpx.Server{Handler: func(ctx context.Context, req *httpx.Request) *httpx.Response {
		resp := srv.HandleHTTP(ctx, req)
		defer resp.Release()
		body := respell(string(resp.Body), soap.PrefixEnvelope, prefix)
		if !typed {
			out := httpx.NewResponse(resp.StatusCode, []byte(body))
			out.Header.Set("Content-Type", resp.Header.Get("Content-Type"))
			return out
		}
		body = untypedLeaf.ReplaceAllStringFunc(body, func(leaf string) string {
			if m := untypedLeaf.FindStringSubmatch(leaf); m[1] == m[3] && !strings.HasPrefix(m[1], "fault") {
				return `<` + m[1] + ` xsi:type="xsd:string">` + m[2] + `</` + m[1] + `>`
			}
			return leaf
		})
		tag := body[:strings.IndexByte(body, '>')]
		decls := soap.DeclXSI | soap.DeclXSD | envelopeDecls([]byte(body))
		prolog := ""
		if era == "pre16" {
			decls |= soap.DeclEncoding
			prolog = `<?xml version="1.0" encoding="UTF-8"?>`
		}
		var all string
		for i, d := range []string{` xmlns:SOAP-ENC="` + soap.NSEncoding + `"`, ` xmlns:xsi="` + soap.NSXSI + `"`, ` xmlns:xsd="` + soap.NSXSD + `"`} {
			if decls&(1<<i) != 0 {
				all += d
			}
		}
		out := httpx.NewResponse(resp.StatusCode, []byte(prolog+envelopeOpen.FindString(tag)+all+body[len(tag):]))
		out.Header.Set("Content-Type", resp.Header.Get("Content-Type"))
		return out
	}}
	link := netsim.NewLink(netsim.Fast())
	lis, err := link.Listen()
	if err != nil {
		tb.Fatal(err)
	}
	go old.Serve(lis)
	tb.Cleanup(func() { old.Close(); srv.Close(); link.Close() })
	return link
}

// localCodes cuts a decoded fault entry's code down to its local part: the
// code is a QName, spelled with whichever prefix its writer bound to the
// envelope namespace.
func localCodes(fields []soapenc.Field) {
	for i, f := range fields {
		if s, ok := f.Value.(string); ok && f.Name == "faultcode" {
			fields[i].Value = s[strings.IndexByte(s, ':')+1:]
		}
	}
}

// TestMixedVersionBackends: gateways upgrade before backends (PR 16's and PR
// 25's steps need it, PR 17's needs no order at all), so a new gateway fronts
// backends of every earlier era, alone and beside new ones — and backends that
// spell the envelope namespace as another toolkit does. Their replies splice
// into a valid response that declares what they declared and never less than
// the direct server's, carrying the direct server's values — its bytes, once
// the strings an old backend typed are untyped again and every prefix of the
// envelope namespace is read as one; a single call is relayed as they wrote
// it. The "an int" batch holds an entry that per-item faults (ghostOp): an
// old backend's fault entry is spliced under the gateway's own Envelope,
// which must bind the prefix it is spelled with.
func TestMixedVersionBackends(t *testing.T) {
	d := newDirect(t)
	dc := &httpx.Client{Dial: d.link.Dial, KeepAlive: true, Timeout: 10 * time.Second}
	defer dc.Close()
	// normal strips what an old backend's reply has over a new one's.
	normal := func(body []byte) []byte {
		s := string(body)
		for _, p := range []string{"SOAP-ENV", "soapenv"} {
			s = respell(s, p, soap.PrefixEnvelope)
		}
		tag := s[:strings.IndexByte(s, '>')]
		out := envelopeOpen.FindString(tag) + s[len(tag):]
		return []byte(strings.ReplaceAll(out, ` xsi:type="xsd:string"`, ""))
	}
	for _, fleet := range []string{"pre16", "pre16+new", "pre16+new, coalescing", "pre17", "pre17+new", "pre17+new, coalescing",
		"pre25", "pre25+new", "pre25+new, coalescing", "soapenv+new, coalescing"} {
		era, _, _ := strings.Cut(fleet, "+")
		f := newFarm(t, 1, func(cfg *Config) {
			cfg.Backends[0] = BackendConfig{Name: "old", Dial: oldBackend(t, era).Dial}
			if strings.Contains(fleet, "+new") {
				cfg.Backends = append(cfg.Backends, BackendConfig{Name: "new", Dial: newDirect(t).link.Dial})
			}
			if strings.HasSuffix(fleet, "coalescing") {
				cfg.Coalesce = CoalesceConfig{Enabled: true}
			}
		})
		gc := f.raw()
		for _, v := range []soap.Version{soap.V11, soap.V12} {
			for name, doc := range map[string][]byte{"travel search": travelSearchDoc(v), "an int": framingSpellings(v, 1)["default"], "strings only": stringsOnlyDoc(v)} {
				want := post(t, dc, "/services", v.ContentType(), doc)
				got := post(t, gc, "/services", v.ContentType(), doc)
				// The old backend answered at least the first entry, so the
				// reply declares what its replies always do.
				least := envelopeDecls(want.body)
				switch era {
				case "pre16":
					least |= typedDecls | soap.DeclEncoding
				case "pre17":
					least |= typedDecls
				}
				if got.status != 200 || envelopeDecls(got.body) != least {
					t.Fatalf("%s/%v/%s: HTTP %d, Envelope declares %03b, want %03b (bits: SOAP-ENC, xsi, xsd)\n%s", fleet, v, name, got.status, envelopeDecls(got.body), least, got.body)
				}
				if !bytes.Equal(byID(normal(got.body)), byID(normal(want.body))) {
					t.Errorf("%s/%v/%s: beyond declarations and typed strings the reply is not the direct server's\n got %s\nwant %s", fleet, v, name, got.body, want.body)
				}
				genv, err := soap.Decode(bytes.NewReader(byID(got.body)))
				if err != nil {
					t.Fatalf("%s/%v/%s: reply does not parse: %v", fleet, v, name, err)
				}
				wenv, _ := soap.Decode(bytes.NewReader(byID(want.body)))
				for i, el := range genv.Body[0].ChildElements() {
					g, gerr := soapenc.DecodeParams(el)
					w, werr := soapenc.DecodeParams(wenv.Body[0].ChildElements()[i])
					if el.Name.Local == "Fault" {
						if !el.Is(v.Namespace(), "Fault") {
							t.Errorf("%s/%v/%s: entry %d is a Fault in namespace %q", fleet, v, name, i, el.Namespace())
						}
						localCodes(g)
						localCodes(w)
					}
					if gerr != nil || werr != nil || !soapenc.Equal(&soapenc.Struct{Fields: g}, &soapenc.Struct{Fields: w}) {
						t.Errorf("%s/%v/%s: entry %d decodes to %v (%v), the direct server's to %v (%v)", fleet, v, name, i, g, gerr, w, werr)
					}
				}
			}
		}
		gc.Close()
		// Single calls with an array in the reply: passthrough relays the old
		// backend's bytes verbatim, the coalescer re-frames a segment cut from
		// them; either way the client decodes the array.
		cli := f.client(t, nil)
		for i := 0; i < 4; i++ {
			got, err := cli.Call(services.HotelService(0), "QueryRooms", soapenc.F("city", "Lima"))
			if err != nil || len(got) != 1 || len(got[0].Value.(soapenc.Array)) != 3 {
				t.Errorf("%s: QueryRooms call %d: %v, %v", fleet, i, got, err)
			}
		}
		// An operation nobody registered, in a batch and alone: whichever
		// backend answered, and however it spelled the fault, the client
		// reads a Client fault.
		for i := 0; i < 4; i++ {
			b := cli.NewBatch()
			echo, ghost := b.Add("Echo", "echo", soapenc.F("p0", "x")), b.Add("Echo", "ghostOp")
			if err := b.Send(); err != nil {
				t.Fatalf("%s: batch %d: %v", fleet, i, err)
			}
			if got, err := echo.Wait(); err != nil || len(got) != 1 || got[0].Value != "x" {
				t.Errorf("%s: batch %d: echo %v, %v", fleet, i, got, err)
			}
			var fl *soap.Fault
			if _, err := ghost.Wait(); !errors.As(err, &fl) || fl.Code != soap.FaultClient {
				t.Errorf("%s: batch %d: ghostOp answered %v, want a Client fault", fleet, i, err)
			}
			if _, err := cli.Call("Echo", "ghostOp"); !errors.As(err, &fl) || fl.Code != soap.FaultClient {
				t.Errorf("%s: call %d: ghostOp answered %v, want a Client fault", fleet, i, err)
			}
		}
	}
}

// TestDifferentialDeadlineDegrade: when the propagated deadline expires on an
// entry, the gateway's degraded reply is the direct server's degraded reply,
// under every spelling — whether it is the backend or the gateway itself
// that gives up on the slot.
func TestDifferentialDeadlineDegrade(t *testing.T) {
	d := newDirect(t)
	f := newFarm(t, 2, nil)
	dc := &httpx.Client{Dial: d.link.Dial, KeepAlive: true, Timeout: 10 * time.Second}
	gc := f.raw()
	defer dc.Close()
	defer gc.Close()
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for name, doc := range framingSpellings(v, 5000) {
			deadline := func(c *httpx.Client) reply {
				resp, err := c.Post("/services", v.ContentType(), doc, core.HeaderDeadline, "300")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Release()
				return reply{resp.StatusCode, resp.Header.Get("Content-Type"), append([]byte(nil), resp.Body...)}
			}
			want := deadline(dc)
			if !bytes.Contains(want.body, []byte("deadline expired before Echo.nap finished")) {
				t.Fatalf("%v/%s: direct server did not degrade: %s", v, name, want.body)
			}
			diffReplies(t, fmt.Sprintf("%v/%s", v, name), doc, want, deadline(gc))
		}
	}
}

// TestDifferentialRelayedDeadline: a single call the gateway relays whole —
// parsed, or unread on a passthrough gateway — to a live backend whose
// operation outlasts the call's deadline. The gateway sends the backend what
// is left of the budget, so the backend's watchdog answers before the
// gateway's own deadline ends the exchange: the client gets the direct
// server's fault bytes, and the backend is not counted as failing.
func TestDifferentialRelayedDeadline(t *testing.T) {
	d := newDirect(t)
	dc := &httpx.Client{Dial: d.link.Dial, KeepAlive: true, Timeout: 10 * time.Second}
	defer dc.Close()
	nap := fmt.Sprintf(`<m:nap xmlns:m="urn:spi:Echo"><ms xmlns:xsi="%s" xmlns:xsd="%s" xsi:type="xsd:int">1000</ms></m:nap>`,
		soap.NSXSI, soap.NSXSD)
	for _, passthrough := range []bool{false, true} {
		f := newFarm(t, 1, func(cfg *Config) { cfg.Passthrough = passthrough })
		gc := f.raw()
		defer gc.Close()
		for _, v := range []soap.Version{soap.V11, soap.V12} {
			label := fmt.Sprintf("passthrough=%v/%v", passthrough, v)
			doc := singleCallDoc(v, nap)
			deadline := func(c *httpx.Client) reply {
				resp, err := c.Post("/services/Echo", v.ContentType(), doc, core.HeaderDeadline, "300")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Release()
				return reply{resp.StatusCode, resp.Header.Get("Content-Type"), append([]byte(nil), resp.Body...)}
			}
			want := deadline(dc)
			if !bytes.Contains(want.body, []byte("deadline expired before Echo.nap finished")) {
				t.Fatalf("%s: direct server did not time out: %s", label, want.body)
			}
			diffReplies(t, label, doc, want, deadline(gc))
			if n := f.gw.backends[0].consecutiveFails(); n != 0 {
				t.Errorf("%s: backend counted %d consecutive failures, want 0", label, n)
			}
		}
		wantSpliced := int64(0)
		if passthrough {
			wantSpliced = 2
		}
		if st := f.gw.Stats(); st.Proxied != 2 || st.Passthrough != wantSpliced {
			t.Errorf("passthrough=%v: Proxied %d, Passthrough %d; want 2, %d", passthrough, st.Proxied, st.Passthrough, wantSpliced)
		}
	}
}

// TestAllShardsFailedMirrorsDefault: the response default comes from the
// request alone, so the gateway declares it even when no backend ever
// answered — and the client's futures all resolve, each with its own fault.
func TestAllShardsFailedMirrorsDefault(t *testing.T) {
	f := newFarm(t, 2, func(cfg *Config) { cfg.Retry = &core.RetryPolicy{MaxAttempts: 1} })
	for _, l := range f.links {
		l.FailDials(1 << 20)
	}
	gc := f.raw()
	defer gc.Close()
	for name, doc := range framingSpellings(soap.V11, 3) {
		got := post(t, gc, "/services", soap.V11.ContentType(), doc)
		open := `<spi:Parallel_Response xmlns:spi="http://spi.ict.ac.cn/pack" xmlns:m="urn:spi:Echo"><s:Fault spi:id="0">`
		if name == "long" {
			open = `<spi:Parallel_Response xmlns:spi="http://spi.ict.ac.cn/pack"><s:Fault spi:id="0">`
		}
		if got.status != 200 || !bytes.Contains(byID(got.body), []byte(open)) {
			t.Errorf("%s: %d %s", name, got.status, got.body)
		}
	}
	batch := f.client(t, nil).NewBatch()
	var calls []*core.Call
	for i := 0; i < 4; i++ {
		calls = append(calls, batch.Add("Echo", "echo"))
	}
	if err := batch.Send(); err != nil {
		t.Fatal(err)
	}
	for i, c := range calls {
		var fl *soap.Fault
		if _, err := c.Wait(); !errors.As(err, &fl) || fl.Code != core.FaultCodeBusy {
			t.Errorf("call %d: %v, want a %s fault", i, err, core.FaultCodeBusy)
		}
	}
}

func TestDifferentialPolicies(t *testing.T) {
	// The response bytes must not depend on how entries were sharded.
	for _, p := range []Policy{RoundRobin, LeastLoaded, OpAffinity} {
		t.Run(p.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			d := newDirect(t)
			f := newFarm(t, 3, func(cfg *Config) { cfg.Policy = p })
			dc := &httpx.Client{Dial: d.link.Dial, KeepAlive: true, Timeout: 10 * time.Second}
			gc := f.raw()
			defer dc.Close()
			defer gc.Close()
			for i := 0; i < 10; i++ {
				n := rng.Intn(8) + 1
				entries := make([]string, n)
				for j := range entries {
					entries[j] = randomEntry(rng, true)
				}
				doc := packedDoc(soap.V11, entries)
				label := fmt.Sprintf("policy=%s doc=%d", p, i)
				diffReplies(t, label, doc,
					post(t, dc, "/services", soap.V11.ContentType(), doc),
					post(t, gc, "/services", soap.V11.ContentType(), doc))
			}
		})
	}
}

func TestDifferentialWeighted(t *testing.T) {
	// Weights and stated execution times move entries between backends,
	// never bytes: a LeastLoaded gateway over backends of unequal weight,
	// one of them stating itself four times slower than its peers, answers
	// every seeded document exactly as a direct server does.
	for _, k := range []int{1, 2, 3, 4} {
		for _, v := range []soap.Version{soap.V11, soap.V12} {
			t.Run(fmt.Sprintf("backends=%d/%s", k, v), func(t *testing.T) {
				t.Parallel()
				seed := int64(4000*k + int(v))
				rng := rand.New(rand.NewSource(seed))
				d := newDirect(t)
				f := newFarm(t, k, func(cfg *Config) {
					cfg.Policy = LeastLoaded
					for i := range cfg.Backends {
						cfg.Backends[i].Weight = i + 1
					}
				})
				f.gw.backends[0].svcUs.Store(400)
				dc := &httpx.Client{Dial: d.link.Dial, KeepAlive: true, Timeout: 10 * time.Second}
				gc := f.raw()
				defer dc.Close()
				defer gc.Close()
				for i := 0; i < 12; i++ {
					n := rng.Intn(8) + 1
					entries := make([]string, n)
					for j := range entries {
						entries[j] = randomEntry(rng, true)
					}
					doc := packedDoc(v, entries)
					diffReplies(t, fmt.Sprintf("seed=%d doc=%d", seed, i), doc,
						post(t, dc, "/services", v.ContentType(), doc),
						post(t, gc, "/services", v.ContentType(), doc))
				}
			})
		}
	}
}

func TestDifferentialWholeMessageFaults(t *testing.T) {
	d := newDirect(t)
	f := newFarm(t, 2, nil)
	dc := &httpx.Client{Dial: d.link.Dial, KeepAlive: true, Timeout: 5 * time.Second}
	gc := f.raw()
	defer dc.Close()
	defer gc.Close()

	single := `<m:echo xmlns:m="urn:spi:Echo"><msg>hello</msg></m:echo>`
	cases := []struct {
		name string
		doc  []byte
	}{
		{"garbage", []byte("this is not xml at all")},
		{"truncated", []byte(`<?xml version="1.0"?><SOAP-ENV:Envelope xmlns:SOAP-ENV="` + soap.V11.Namespace() + `"><SOAP-ENV:Body>`)},
		{"version-mismatch", []byte(`<?xml version="1.0"?><E:Envelope xmlns:E="urn:not-soap"><E:Body></E:Body></E:Envelope>`)},
		{"duplicate-id", packedDocWith(soap.V11, ` xmlns:m="urn:spi:Echo" spi:service="Echo"`,
			[]string{`<m:echo spi:id="1"><p>claims one</p></m:echo>`, `<m:echo><p>sits at one</p></m:echo>`})},
		{"empty-pack", packedDoc(soap.V11, nil)},
		{"empty-pack-12", packedDoc(soap.V12, nil)},
		{"two-body-entries", []byte(`<?xml version="1.0"?><SOAP-ENV:Envelope xmlns:SOAP-ENV="` + soap.V11.Namespace() + `"><SOAP-ENV:Body>` + single + single + `</SOAP-ENV:Body></SOAP-ENV:Envelope>`)},
		{"no-body", []byte(`<?xml version="1.0"?><SOAP-ENV:Envelope xmlns:SOAP-ENV="` + soap.V11.Namespace() + `"></SOAP-ENV:Envelope>`)},
	}
	for _, c := range cases {
		diffReplies(t, c.name, c.doc,
			post(t, dc, "/services", soap.V11.ContentType(), c.doc),
			post(t, gc, "/services", soap.V11.ContentType(), c.doc))
	}
}

// TestOneReaderFaults: server and gateway read a packed request with one
// reader, so they fault it alike — the same whole-message fault in the
// request's own version, picked by the same precedence when a document earns
// several, and the same per-item faults. Handlers are called directly: what
// is compared is what each one answers, before any transport.
func TestOneReaderFaults(t *testing.T) {
	srv, err := core.NewServer(core.ServerConfig{Container: testContainer(t), AppWorkers: 4, AppQueue: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	f := newFarm(t, 2, nil)
	const pm = ` xmlns:m="urn:spi:Echo" spi:service="Echo"`
	echo, dup, bad := `<m:echo><p>x</p></m:echo>`, `<m:echo spi:id="1"><p>one</p></m:echo>`, `<m:echo spi:id="x"/>`
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		doc := func(entries ...string) string { return string(packedDocWith(v, pm, entries)) }
		tail := `</spi:Parallel_Method></SOAP-ENV:Body></SOAP-ENV:Envelope>`
		for _, c := range []struct{ name, doc string }{
			{"malformed tail", strings.TrimSuffix(doc(echo, echo), `</SOAP-ENV:Envelope>`)},
			{"second body", strings.Replace(doc(echo), tail, `</spi:Parallel_Method></SOAP-ENV:Body><SOAP-ENV:Body/></SOAP-ENV:Envelope>`, 1)},
			{"malformed entry", strings.Replace(doc(echo, echo), `<p>x</p></m:echo>`, `<p>x</m:echo>`, 1)},
			{"extra entry", strings.Replace(doc(echo), tail, `</spi:Parallel_Method><m:echo/></SOAP-ENV:Body></SOAP-ENV:Envelope>`, 1)},
			{"empty batch", doc()},
			{"duplicate id", doc(dup, echo)},
			{"undecodable entry", doc(echo, bad, echo)},
			// Where a document earns several, the first in precedence wins.
			{"malformed over duplicate", strings.TrimSuffix(doc(dup, echo), `</SOAP-ENV:Envelope>`)},
			{"extra entry over empty batch", strings.Replace(doc(), tail, `</spi:Parallel_Method><m:echo/></SOAP-ENV:Body></SOAP-ENV:Envelope>`, 1)},
			{"duplicate over undecodable", doc(dup, bad, echo)},
		} {
			answer := func(handle func(context.Context, *httpx.Request) *httpx.Response) reply {
				req := httpx.NewRequest("POST", "/services", []byte(c.doc))
				req.Header.Set("Content-Type", v.ContentType())
				resp := handle(context.Background(), req)
				defer resp.Release()
				return reply{resp.StatusCode, resp.Header.Get("Content-Type"), bytes.Clone(resp.Body)}
			}
			want := answer(srv.HandleHTTP)
			if c.name == "undecodable entry" != (want.status == 200) {
				t.Errorf("%v/%s: the server answered HTTP %d: %s", v, c.name, want.status, want.body)
			}
			diffReplies(t, fmt.Sprintf("%v/%s", v, c.name), []byte(c.doc), want, answer(f.gw.Handle))
		}
	}
}

func TestDifferentialProxyPaths(t *testing.T) {
	// Non-packed POSTs and GETs ride the proxy path; with identical
	// containers on backend and direct server the bytes must match too.
	d := newDirect(t)
	f := newFarm(t, 2, nil)
	dc := &httpx.Client{Dial: d.link.Dial, KeepAlive: true, Timeout: 5 * time.Second}
	gc := f.raw()
	defer dc.Close()
	defer gc.Close()

	single := []byte(`<?xml version="1.0"?><SOAP-ENV:Envelope xmlns:SOAP-ENV="` + soap.V11.Namespace() + `"><SOAP-ENV:Body><m:echo xmlns:m="urn:spi:Echo"><msg>via proxy &amp; back</msg></m:echo></SOAP-ENV:Body></SOAP-ENV:Envelope>`)
	diffReplies(t, "single-request", single,
		post(t, dc, "/services/Echo", soap.V11.ContentType(), single),
		post(t, gc, "/services/Echo", soap.V11.ContentType(), single))

	for _, target := range []string{"/services/", "/services/Echo"} {
		dresp, err := dc.DoCtx(context.Background(), httpx.NewRequest("GET", target, nil))
		if err != nil {
			t.Fatal(err)
		}
		want := reply{dresp.StatusCode, dresp.Header.Get("Content-Type"), append([]byte(nil), dresp.Body...)}
		dresp.Release()
		gresp, err := gc.DoCtx(context.Background(), httpx.NewRequest("GET", target, nil))
		if err != nil {
			t.Fatal(err)
		}
		got := reply{gresp.StatusCode, gresp.Header.Get("Content-Type"), append([]byte(nil), gresp.Body...)}
		gresp.Release()
		diffReplies(t, "GET "+target, nil, want, got)
	}
}
