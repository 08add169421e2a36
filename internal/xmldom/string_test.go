package xmldom

import (
	"strings"
	"testing"

	"repro/internal/xmltext"
)

func buildPackedTree(entries int) *Element {
	root := NewElement(xmltext.Name{Prefix: "spi", Local: "Parallel_Response"})
	root.DeclareNamespace("spi", "http://spi.ict.ac.cn/pack")
	for i := 0; i < entries; i++ {
		entry := root.AddElement(xmltext.Name{Prefix: "m", Local: "echoResponse"})
		entry.DeclareNamespace("m", "urn:spi:Echo")
		entry.SetAttr(xmltext.Name{Prefix: "spi", Local: "id"}, "1")
		data := entry.AddElement(xmltext.Name{Local: "data"})
		data.SetAttr(xmltext.Name{Prefix: "xsi", Local: "type"}, "xsd:string")
		data.SetText("payload with <specials> & \"quotes\"")
	}
	return root
}

// sectionTree holds a value that is mostly markup characters, which goes out
// as one CDATA section, beside one that stays escaped.
func sectionTree(t *testing.T) *Element {
	t.Helper()
	root := NewElement(xmltext.Name{Local: "r"})
	root.AddElement(xmltext.Name{Local: "dense"}).SetText(`</r><r a="b">&&&`)
	root.AddElement(xmltext.Name{Local: "sparse"}).SetText(`a<b`)
	if got, want := root.String(), `<r><dense><![CDATA[</r><r a="b">&&&]]></dense><sparse>a&lt;b</sparse></r>`; got != want {
		t.Fatalf("String() = %s, want %s", got, want)
	}
	return root
}

// packedTreeBytes is what buildPackedTree(entries) serializes to.
func packedTreeBytes(entries int) string {
	return `<spi:Parallel_Response xmlns:spi="http://spi.ict.ac.cn/pack">` + strings.Repeat(
		`<m:echoResponse xmlns:m="urn:spi:Echo" spi:id="1"><data xsi:type="xsd:string">`+
			`payload with &lt;specials&gt; &amp; "quotes"</data></m:echoResponse>`, entries) +
		`</spi:Parallel_Response>`
}

// TestStringMatchesSerialize pins String() and Serialize() to the same
// committed bytes.
func TestStringMatchesSerialize(t *testing.T) {
	withComment := NewElement(xmltext.Name{Local: "a"})
	withComment.AddChild(&Comment{Data: " note "})
	withComment.AddChild(&Text{Data: ""})
	mixed := NewElement(xmltext.Name{Local: "mixed"})
	mixed.AddChild(&Text{Data: "a<b&c\r"})
	mixed.AddChild(&Comment{Data: "c"})
	mixed.AddChild(&Text{Data: "\xffbad"})
	mixed.SetAttr(xmltext.Name{Local: "q"}, "v\"w\tx\ny")
	for _, tc := range []struct {
		tree *Element
		want string
	}{
		{NewElement(xmltext.Name{Local: "empty"}), `<empty/>`},
		{buildPackedTree(1), packedTreeBytes(1)},
		{buildPackedTree(16), packedTreeBytes(16)},
		{sectionTree(t), `<r><dense><![CDATA[</r><r a="b">&&&]]></dense><sparse>a&lt;b</sparse></r>`},
		{withComment, `<a><!-- note --></a>`},
		{mixed, `<mixed q="v&quot;w&#9;x&#10;y">a&lt;b&amp;c&#13;<!--c-->` + "\uFFFDbad</mixed>"},
	} {
		var b strings.Builder
		if err := tc.tree.Serialize(&b); err != nil {
			t.Fatal(err)
		}
		if got := tc.tree.String(); got != tc.want || b.String() != tc.want {
			t.Fatalf("String() wrote\n%q\nSerialize\n%q\nwant\n%q", got, b.String(), tc.want)
		}
	}
}

func TestStringErrorPreserved(t *testing.T) {
	bad := NewElement(xmltext.Name{Local: "a"})
	bad.AddChild(&Comment{Data: "a--b"})
	got := bad.String()
	if !strings.HasPrefix(got, "<!ERROR ") || !strings.Contains(got, "comment contains") {
		t.Fatalf("error rendering changed: %q", got)
	}
}

func BenchmarkElementString(b *testing.B) {
	tree := buildPackedTree(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s := tree.String(); len(s) == 0 {
			b.Fatal("empty serialization")
		}
	}
}
