package xmltext

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// tokenSource is what the differential reads of either tokenizer.
type tokenSource interface {
	Next() (Token, error)
	TokenBytes() []byte
	InputOffset() int64
}

// tokenTrace renders every token a caller sees — kind, name, attributes,
// text (TokenBytes too in raw mode), the offset after it — up to the error
// that ends the pass, which it returns.
func tokenTrace(tk tokenSource, raw bool) ([]string, error) {
	var steps []string
	for {
		tok, err := tk.Next()
		step := fmt.Sprintf("%v %v %q %q %q self=%v @%d", tok.Kind, tok.Name, tok.Attrs, tok.Text, tok.Target, tok.SelfClosing, tk.InputOffset())
		if raw && err == nil && (tok.Kind == KindText || tok.Kind == KindProcInst) {
			step += fmt.Sprintf(" bytes=%q", tk.TokenBytes())
		}
		steps = append(steps, step)
		if err != nil {
			return steps, err
		}
	}
}

// matchFrozen runs doc through Tokenizer and the frozen reference in both
// text modes — plain over a reader, raw with reused attributes on the pooled
// tokenizer servers run — and reports the first difference. Positions must
// match except where the reference counted a name's closing newline twice
// (frozenTokenizer.doubled): there its line is ahead by exactly that count,
// and its column reads 1 when the error stands on that newline.
func matchFrozen(doc []byte) error {
	for _, raw := range []bool{false, true} {
		var tk *Tokenizer
		if raw {
			tk = AcquireTokenizer(doc)
			tk.SetRawText(true)
			tk.SetReuseTokenAttrs(true)
		} else {
			tk = NewTokenizer(bytes.NewReader(doc))
		}
		got, gotErr := tokenTrace(tk, raw)
		if raw {
			ReleaseTokenizer(tk)
		}
		ref := newFrozenTokenizer(bytes.NewReader(doc))
		ref.SetRawText(raw)
		ref.SetReuseTokenAttrs(raw)
		want, wantErr := tokenTrace(ref, raw)
		if refusedReference(doc, got, want, gotErr, wantErr) {
			continue
		}

		for i := 0; i < len(got) || i < len(want); i++ {
			if i >= len(got) || i >= len(want) || got[i] != want[i] {
				return fmt.Errorf("raw=%v: token %d differs:\n got  %s\n want %s", raw, i, at(got, i), at(want, i))
			}
		}
		var gse, wse *SyntaxError
		if !errors.As(gotErr, &gse) || !errors.As(wantErr, &wse) {
			if gotErr.Error() != wantErr.Error() {
				return fmt.Errorf("raw=%v: error %q, frozen %q", raw, gotErr, wantErr)
			}
			continue
		}
		if gse.Msg != wse.Msg {
			return fmt.Errorf("raw=%v: error %q, frozen %q", raw, gotErr, wantErr)
		}
		if gse.Pos == wse.Pos {
			continue
		}
		if n := ref.doubled; n == 0 || gse.Pos.Line+n != wse.Pos.Line || (gse.Pos.Col != wse.Pos.Col && wse.Pos.Col != 1) {
			return fmt.Errorf("raw=%v: error at %v, frozen at %v after %d doubled newlines (%s)", raw, gse.Pos, wse.Pos, n, gse.Msg)
		}
	}
	return nil
}

// refusedReference reports the one class of input on which Tokenizer and
// the frozen reference differ on purpose: a run of character data outside
// the root element that holds a reference. XML 1.0 allows only white space
// there, spelt as itself, so Tokenizer refuses the run with "character data
// outside root element"; the reference, which decoded the reference first,
// skipped the run as white space. Every token before the run must match.
func refusedReference(doc []byte, got, want []string, gotErr, wantErr error) bool {
	var se, we *SyntaxError
	last := len(got) - 1
	if !errors.As(gotErr, &se) || se.Msg != "character data outside root element" ||
		errors.As(wantErr, &we) && *we == *se || last > len(want) || !slices.Equal(got[:last], want[:last]) {
		return false
	}
	// The error step ends with the offset of the run's end; the run starts
	// after the markup before it, or at the document's start.
	end, err := strconv.Atoi(got[last][strings.LastIndexByte(got[last], '@')+1:])
	if err != nil {
		return false
	}
	start := bytes.LastIndexByte(doc[:end], '>') + 1
	return bytes.IndexByte(doc[start:end], '&') >= 0
}

func at(steps []string, i int) string {
	if i < len(steps) {
		return steps[i]
	}
	return "(none)"
}

// frozenCorpus is every XML fixture of the module, every document in the
// soap goldens and fuzz corpus and in this package's goldens.
func frozenCorpus(t testing.TB) [][]byte {
	var docs [][]byte
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "../.." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.Contains(filepath.ToSlash(path), "/testdata/") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		switch {
		case strings.HasSuffix(path, ".xml"):
			docs = append(docs, b)
		case strings.Contains(filepath.ToSlash(path), "internal/soap/testdata/"),
			strings.Contains(filepath.ToSlash(path), "internal/xmltext/testdata/"):
			docs = append(docs, goldenDocuments(b)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) < 300 {
		t.Fatalf("corpus holds %d documents; the fixtures were not found", len(docs))
	}
	return docs
}

// goldenDocuments splits a golden or fuzz-corpus file into documents: each
// line after its name column, and each Go-quoted string on it, unquoted.
func goldenDocuments(b []byte) [][]byte {
	var docs [][]byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.IndexByte(line, '\t'); i >= 0 {
			line = line[i+1:]
		}
		docs = append(docs, []byte(line))
		if i := strings.IndexByte(line, '"'); i >= 0 {
			if q, err := strconv.QuotedPrefix(line[i:]); err == nil {
				s, _ := strconv.Unquote(q)
				docs = append(docs, []byte(s))
			}
		}
	}
	return docs
}

// mutationFragments are what a mutation splices in: the bytes every branch
// of the tokenizer turns on.
var mutationFragments = []string{
	"<", ">", "/", "/>", "</", "&", ";", "&amp;", "&#x3C;", "&#", "&bogus;", `"`, "'", "=",
	" ", "\n", "\t", "\r", ":", "a", "-", "--", "<!--", "-->", "<![CDATA[", "]]>", "]", "<?", "?>",
	"<?xml ", "<!DOCTYPE", "\xEF\xBB\xBF", "\xff", "é", "x:", "<a", "</a>", "<a/>",
}

// mutate applies one to four random edits to doc: flip, delete, duplicate a
// span, splice in a fragment, or cut the document short.
func mutate(r *rand.Rand, doc []byte) []byte {
	buf := append([]byte(nil), doc...)
	for k := 0; k < 1+r.Intn(4); k++ {
		if len(buf) == 0 {
			buf = []byte("<a/>")
		}
		i := r.Intn(len(buf))
		switch r.Intn(5) {
		case 0:
			buf[i] = byte(r.Intn(256))
		case 1:
			buf = append(buf[:i], buf[i+1:]...)
		case 2:
			j := i + r.Intn(min(len(buf)-i, 64)+1)
			buf = append(buf[:j], append(append([]byte(nil), buf[i:j]...), buf[j:]...)...)
		case 3:
			frag := mutationFragments[r.Intn(len(mutationFragments))]
			buf = append(buf[:i], append([]byte(frag), buf[i:]...)...)
		case 4:
			buf = buf[:i]
		}
	}
	return buf
}

// TestTokenizerMatchesFrozen holds Tokenizer to the frozen byte-at-a-time
// reference on every fixture and seed and on 20 000 seeded mutations of
// them.
func TestTokenizerMatchesFrozen(t *testing.T) {
	corpus := frozenCorpus(t)
	for _, seed := range frozenSeeds {
		corpus = append(corpus, []byte(seed))
	}
	for i, doc := range corpus {
		if err := matchFrozen(doc); err != nil {
			t.Errorf("corpus document %d (%q): %v", i, clip(doc), err)
		}
	}
	r := rand.New(rand.NewSource(45))
	failed := 0
	for i := 0; i < 20000 && failed < 10; i++ {
		doc := mutate(r, corpus[r.Intn(len(corpus))])
		if err := matchFrozen(doc); err != nil {
			t.Errorf("mutation %d (%q): %v", i, clip(doc), err)
			failed++
		}
	}
}

func clip(doc []byte) string {
	if len(doc) > 200 {
		return string(doc[:200]) + "…"
	}
	return string(doc)
}

// frozenSeeds are small documents that reach every kind of token and the
// double-counted positions; the fuzz target starts from them and the
// mutations draw on them beside the fixtures.
var frozenSeeds = []string{
	`<a/>`,
	`<?xml version="1.0"?><a x="1" y='&lt;'>t&amp;<![CDATA[c]]><!--c--><?pi d?></a>`,
	"<a>\n<!-- one - two --><b c='\t&#x41;\r'/>\n<?pi  ?x? ?>\n<![CDATA[]]]]>\n</a>",
	"<a\n b=\"1\" b=\"2\"/>",
	"<a>\n<b\n></c></a>",
	"<a\n\n\n>x</b>",
	"<a:\n",
	`<a><![CDATA[x]]</a>`,
	`<a>&#x00000000000000000000000000003C;</a>`,
	"\xEF\xBB\xBF <a/>",
	"\xEF\xBB\xBF&#9;<a/>",
	// References outside the root, which only the frozen reader accepts.
	"&#9;<a/>",
	"<?pi?> &#x20;\n<a/>",
	"<a/>\n<!--c-->&#10;",
}

// FuzzTokenizerMatchesFrozen is TestTokenizerMatchesFrozen's comparison on
// arbitrary input.
func FuzzTokenizerMatchesFrozen(f *testing.F) {
	for _, seed := range frozenSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		if err := matchFrozen(doc); err != nil {
			t.Fatal(err)
		}
	})
}
