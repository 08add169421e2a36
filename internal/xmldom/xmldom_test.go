package xmldom

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xmltext"
)

func mustParse(t *testing.T, s string) *Element {
	t.Helper()
	el, err := ParseString(s)
	if err != nil {
		t.Fatalf("ParseString(%q): %v", s, err)
	}
	return el
}

func TestParseSimpleTree(t *testing.T) {
	root := mustParse(t, `<a x="1"><b>hello</b><c/></a>`)
	if root.Name.Local != "a" {
		t.Fatalf("root = %v", root.Name)
	}
	if v := root.AttrValue(xmltext.Name{Local: "x"}); v != "1" {
		t.Errorf("attr x = %q", v)
	}
	kids := root.ChildElements()
	if len(kids) != 2 {
		t.Fatalf("got %d child elements", len(kids))
	}
	if kids[0].Text() != "hello" {
		t.Errorf("b text = %q", kids[0].Text())
	}
	if kids[0].Parent != root || kids[1].Parent != root {
		t.Error("parents not set")
	}
}

func TestNamespaceResolution(t *testing.T) {
	doc := `<e:Envelope xmlns:e="urn:env" xmlns="urn:default">
		<child><e:deep/></child>
		<other xmlns="urn:other"><inner/></other>
	</e:Envelope>`
	root := mustParse(t, doc)
	if ns := root.Namespace(); ns != "urn:env" {
		t.Errorf("root ns = %q", ns)
	}
	child := root.Child("", "child")
	if ns := child.Namespace(); ns != "urn:default" {
		t.Errorf("child ns = %q", ns)
	}
	deep := child.Child("", "deep")
	if ns := deep.Namespace(); ns != "urn:env" {
		t.Errorf("deep ns = %q", ns)
	}
	inner := root.Child("", "other").Child("", "inner")
	if ns := inner.Namespace(); ns != "urn:other" {
		t.Errorf("inner ns = %q", ns)
	}
	if !root.Is("urn:env", "Envelope") {
		t.Error("Is(urn:env, Envelope) = false")
	}
	if _, ok := deep.ResolvePrefix("undeclared"); ok {
		t.Error("undeclared prefix resolved")
	}
	if uri, ok := deep.ResolvePrefix("xml"); !ok || uri != NSXML {
		t.Errorf("xml prefix = %q, %v", uri, ok)
	}
}

func TestChildQueries(t *testing.T) {
	root := mustParse(t, `<r xmlns:a="urn:a"><a:x>1</a:x><x>2</x><a:x>3</a:x></r>`)
	if got := root.Child("urn:a", "x").Text(); got != "1" {
		t.Errorf("Child(urn:a, x) = %q", got)
	}
	all := root.ChildrenNamed("urn:a", "x")
	if len(all) != 2 || all[1].Text() != "3" {
		t.Errorf("ChildrenNamed = %v", all)
	}
	anyNS := root.ChildrenNamed("", "x")
	if len(anyNS) != 3 {
		t.Errorf("ChildrenNamed any ns = %d elements", len(anyNS))
	}
	if root.Child("urn:b", "x") != nil {
		t.Error("Child with wrong ns matched")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	doc := `<r xmlns:n="urn:n" a="v&amp;w"><n:c>text &lt;x&gt;</n:c><empty/><m>mixed <i>in</i> line</m></r>`
	root := mustParse(t, doc)
	out := root.String()
	root2 := mustParse(t, out)
	if !Equal(root, root2) {
		t.Errorf("round trip not equal:\n%s\n%s", doc, out)
	}
}

func TestBuildAndSerialize(t *testing.T) {
	root := NewElement(xmltext.Name{Prefix: "e", Local: "Env"})
	root.DeclareNamespace("e", "urn:env")
	body := root.AddElement(xmltext.Name{Prefix: "e", Local: "Body"})
	op := body.AddElement(xmltext.Name{Local: "GetWeather"})
	op.DeclareNamespace("", "urn:weather")
	city := op.AddElement(xmltext.Name{Local: "City"})
	city.SetText("Beijing")

	if ns := city.Namespace(); ns != "urn:weather" {
		t.Errorf("built city ns = %q", ns)
	}
	out := root.String()
	back := mustParse(t, out)
	got := back.Child("urn:env", "Body").Child("urn:weather", "GetWeather").Child("urn:weather", "City").Text()
	if got != "Beijing" {
		t.Errorf("round trip city = %q (doc %s)", got, out)
	}
}

func TestSetAttrReplaces(t *testing.T) {
	e := NewElement(xmltext.Name{Local: "a"})
	e.SetAttr(xmltext.Name{Local: "k"}, "1")
	e.SetAttr(xmltext.Name{Local: "k"}, "2")
	if len(e.Attrs) != 1 || e.Attrs[0].Value != "2" {
		t.Errorf("attrs = %v", e.Attrs)
	}
	if _, ok := e.Attr(xmltext.Name{Local: "missing"}); ok {
		t.Error("missing attr found")
	}
}

func TestSetText(t *testing.T) {
	e := mustParse(t, `<a><b/>old</a>`)
	e.SetText("new")
	if e.Text() != "new" || len(e.Children) != 1 {
		t.Errorf("after SetText: text=%q children=%d", e.Text(), len(e.Children))
	}
}

func TestCloneCarriesNamespaces(t *testing.T) {
	root := mustParse(t, `<r xmlns:n="urn:n" xmlns="urn:d"><n:c><leaf/></n:c></r>`)
	sub := root.Child("urn:n", "c")
	clone := sub.Clone()
	if clone.Parent != nil {
		t.Error("clone has a parent")
	}
	if ns := clone.Namespace(); ns != "urn:n" {
		t.Errorf("clone ns = %q", ns)
	}
	if ns := clone.Child("", "leaf").Namespace(); ns != "urn:d" {
		t.Errorf("clone leaf ns = %q", ns)
	}
	// Mutating the clone must not affect the original.
	clone.SetText("x")
	if sub.Text() == "x" {
		t.Error("clone shares children with original")
	}
}

func TestCloneAttributeList(t *testing.T) {
	root := mustParse(t, `<r xmlns:a="urn:a"><p xmlns:m="urn:m" svc="S"><m:c extra="x"><leaf/></m:c></p></r>`)
	src := root.ChildElements()[0].ChildElements()[0]
	c := src.Clone()
	// Own attributes first, then inherited declarations, nearest ancestor
	// first; non-declaration attributes of ancestors (svc on <p>) stay behind.
	if got, want := c.String(), `<m:c extra="x" xmlns:m="urn:m" xmlns:a="urn:a"><leaf/></m:c>`; got != want {
		t.Errorf("clone = %s\nwant    %s", got, want)
	}
	if c.Parent != nil || c.ChildElements()[0].Parent != c {
		t.Error("clone not detached or children not re-parented")
	}
	// One allocation for the element, one for its attribute list, and one
	// element plus one child list per subtree level — never one per
	// declaration.
	if allocs := testing.AllocsPerRun(50, func() { src.Clone() }); allocs > 4 {
		t.Errorf("Clone allocates %.0f times, want <= 4", allocs)
	}
	// A bare element stays bare.
	if c := mustParse(t, `<r><c/></r>`).ChildElements()[0].Clone(); c.Attrs != nil {
		t.Errorf("attribute-free clone carries %v", c.Attrs)
	}
}

func TestEqualSemantics(t *testing.T) {
	a := mustParse(t, `<r a="1" b="2"><c>t</c></r>`)
	b := mustParse(t, `<r b="2" a="1">
		<c>t</c><!-- note -->
	</r>`)
	if !Equal(a, b) {
		t.Error("attribute order / whitespace / comments should not matter")
	}
	c := mustParse(t, `<r a="1" b="2"><c>T</c></r>`)
	if Equal(a, c) {
		t.Error("different text compared equal")
	}
	d := mustParse(t, `<r a="1"><c>t</c></r>`)
	if Equal(a, d) {
		t.Error("different attrs compared equal")
	}
	if !Equal(nil, nil) || Equal(a, nil) {
		t.Error("nil handling wrong")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseString(`<a><b></a>`); err == nil {
		t.Error("mismatched tags accepted")
	}
	if _, err := ParseString(``); err == nil {
		t.Error("empty document accepted")
	}
}

func TestMergedTextNodes(t *testing.T) {
	root := mustParse(t, `<a>one<![CDATA[ two]]> three</a>`)
	if root.Text() != "one two three" {
		t.Errorf("merged text = %q", root.Text())
	}
	if len(root.Children) != 1 {
		t.Errorf("children = %d, want 1 merged text node", len(root.Children))
	}
	// A section between two escaped runs is three tokens and one value, and
	// the value's own spelling does not depend on how it arrived.
	root = mustParse(t, `<a>x &lt;<![CDATA[<y> & <z>]]>&gt; w</a>`)
	if root.Text() != "x <<y> & <z>> w" || len(root.Children) != 1 {
		t.Errorf("merged text = %q in %d children", root.Text(), len(root.Children))
	}
	if got, want := root.String(), `<a><![CDATA[x <<y> & <z>> w]]></a>`; got != want {
		t.Errorf("re-serialized as %s, want %s", got, want)
	}
}

func TestWriteDocument(t *testing.T) {
	root := mustParse(t, `<a/>`)
	var b strings.Builder
	if err := root.WriteDocument(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), `<?xml version="1.0"`) {
		t.Errorf("document = %q", b.String())
	}
}

func isText(n Node) bool {
	_, ok := n.(*Text)
	return ok
}

// randomTree builds a pseudo-random tree with the given rand source.
func randomTree(r *rand.Rand, depth int) *Element {
	names := []string{"alpha", "beta", "gamma", "delta"}
	e := NewElement(xmltext.Name{Local: names[r.Intn(len(names))]})
	if r.Intn(2) == 0 {
		e.SetAttr(xmltext.Name{Local: "k"}, names[r.Intn(len(names))])
	}
	n := r.Intn(4)
	for i := 0; i < n; i++ {
		if depth > 0 && r.Intn(2) == 0 {
			e.AddChild(randomTree(r, depth-1))
		} else if k := len(e.Children); k == 0 || !isText(e.Children[k-1]) {
			// Avoid adjacent text nodes: the parser merges them, which would
			// make the round-trip comparison structurally different.
			e.AddChild(&Text{Data: "txt" + names[r.Intn(len(names))]})
		}
	}
	return e
}

// Property: serialize -> parse is the identity on random trees.
func TestQuickSerializeParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := randomTree(r, 4)
		parsed, err := ParseString(tree.String())
		if err != nil {
			t.Logf("parse error: %v on %s", err, tree.String())
			return false
		}
		return Equal(tree, parsed)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
