package xmltext

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// buildDoc produces a SOAP-shaped document of roughly the given size.
func buildDoc(approxBytes int) string {
	var b strings.Builder
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?><Envelope xmlns="urn:bench"><Body>`)
	i := 0
	for b.Len() < approxBytes {
		fmt.Fprintf(&b, `<item id="%d" type="string">payload text %d &amp; more</item>`, i, i)
		i++
	}
	b.WriteString(`</Body></Envelope>`)
	return b.String()
}

// benchTokenize drains doc through the tokenizer open returns, once an
// iteration.
func benchTokenize(b *testing.B, doc string, open func() (*Tokenizer, func())) {
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tk, done := open()
		for {
			_, err := tk.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		done()
	}
}

// BenchmarkTokenize measures tokenizer throughput at SOAP-typical sizes:
// over a reader (NewTokenizer reads it whole first) and on the pooled
// tokenizer in raw-text mode, the path servers run — by one goroutine, and by
// as many as -cpu says at once, as a server's workers and a gateway's shards
// tokenize, sharing the interning tables.
func BenchmarkTokenize(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10, 1 << 20} {
		doc := buildDoc(size)
		docBytes := []byte(doc)
		b.Run(fmt.Sprintf("%dKB", size/1024), func(b *testing.B) {
			benchTokenize(b, doc, func() (*Tokenizer, func()) {
				return NewTokenizer(strings.NewReader(doc)), func() {}
			})
		})
		acquire := func() (*Tokenizer, func()) {
			tk := AcquireTokenizer(docBytes)
			tk.SetRawText(true)
			return tk, func() { ReleaseTokenizer(tk) }
		}
		b.Run(fmt.Sprintf("acquire-%dKB", size/1024), func(b *testing.B) {
			benchTokenize(b, doc, acquire)
		})
		b.Run(fmt.Sprintf("acquire-parallel-%dKB", size/1024), func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					tk, done := acquire()
					for {
						if _, err := tk.Next(); err == io.EOF {
							break
						} else if err != nil {
							b.Error(err)
							return
						}
					}
					done()
				}
			})
		})
	}
}

// BenchmarkEscapeText measures the escaper's fast and slow paths.
func BenchmarkEscapeText(b *testing.B) {
	clean := strings.Repeat("no special characters here ", 40)
	dirty := strings.Repeat("a<b & \"c\" > d ", 40)
	b.Run("clean", func(b *testing.B) {
		b.SetBytes(int64(len(clean)))
		for i := 0; i < b.N; i++ {
			EscapeText(clean)
		}
	})
	b.Run("dirty", func(b *testing.B) {
		b.SetBytes(int64(len(dirty)))
		for i := 0; i < b.N; i++ {
			EscapeText(dirty)
		}
	})
}

// BenchmarkWriter measures serialized output throughput.
func BenchmarkWriter(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := AcquireEmitter()
		e.Start(Name{Local: "Envelope"})
		for j := 0; j < 100; j++ {
			e.Start(Name{Local: "item"})
			e.Attr(Name{Local: "id"}, "7")
			e.Text("payload text & more")
			e.End()
		}
		e.End()
		if err := e.Finish(); err != nil {
			b.Fatal(err)
		}
		ReleaseEmitter(e)
	}
}
