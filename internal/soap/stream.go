package soap

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// StreamDecoder decodes a SOAP envelope incrementally: the preamble
// (root, headers, Body start) first, then one body entry — or one child of
// a body entry — at a time. It is the package's one envelope reader. The
// server's packed-request dispatch uses it to hand each Parallel_Method
// entry to the application stage as soon as its subtree closes, the client
// to decode each Parallel_Response entry into its call's slot, and Decode to
// read a whole document.
//
// Entries keep their parent chain up to the Envelope, so namespace
// resolution works on each as it is delivered. A document whose tail is
// malformed fails at Finish, after earlier entries have already been
// delivered. For callers that need the bytes as well as the trees, the
// decoder tees out verbatim spans — each packed child's (ChildSpan), what is
// inside an element (Content, HeaderContent), every body entry's (BodySpans)
// — so none forces a second pass over the document, and a reader that wants
// most children as bytes alone need not build their trees (SkimChild).
//
// All nodes come from the arena passed to AcquireStreamDecoder and follow
// the arena lifecycle contract; a nil arena falls back to the heap.
//
// Call sequence: ReadPreamble, then NextEntryStart until it returns nil.
// Each started entry must be finished — either CompleteEntry, or NextChild
// until it returns nil — before the next NextEntryStart. Finish validates
// the envelope tail and returns the assembled Envelope.
type StreamDecoder struct {
	tk    *xmltext.Tokenizer
	arena *xmldom.Arena

	env   *Envelope
	nsEnv string
	root  *xmldom.Element
	body  *xmldom.Element

	state streamState

	// Raw-span tracking, available only in AcquireStreamDecoder mode (src
	// non-nil). Spans alias src and share its lifetime: the gateway forwards
	// them and header processors verify signatures over them, both before the
	// request buffer is recycled.
	src        []byte
	entryStart int64    // offset of the current entry's '<'
	spans      [][]byte // raw span of each completed body entry, in order
	child      []byte   // raw span of the child NextChild or SkimChild returned last
	open, end  int64    // where the element started or completed last ends its start tag, and ends
	header     []byte   // the first Header's content
}

type streamState int

const (
	streamInit streamState = iota
	streamInBody
	streamInEntry
	streamBodyDone
	streamDone
)

// streamDecoderPool recycles StreamDecoders (and, through them, pooled
// tokenizers) across documents.
var streamDecoderPool = sync.Pool{New: func() any { return &StreamDecoder{} }}

// AcquireStreamDecoder returns a decoder over an in-memory document on
// pooled machinery: the decoder, its tokenizer and the tokenizer's read
// buffer are all reused across documents. Call Release when the exchange is
// over; after that the decoder AND the Envelope it produced are invalid
// (the nodes inside follow the arena's lifecycle as usual). Callers that
// let the envelope outlive the exchange use Decode.
func AcquireStreamDecoder(body []byte, a *xmldom.Arena) *StreamDecoder {
	d := streamDecoderPool.Get().(*StreamDecoder) // as Release left it
	if d.env == nil {
		d.env = New()
	}
	d.tk = xmltext.AcquireTokenizer(body)
	d.tk.SetRawText(true)
	d.tk.SetReuseTokenAttrs(true)
	d.arena, d.src = a, body
	return d
}

// Release returns a decoder obtained from AcquireStreamDecoder to the
// pool. Safe on any decoder state, including after errors.
func (d *StreamDecoder) Release() {
	if d.tk != nil {
		xmltext.ReleaseTokenizer(d.tk)
	}
	if d.env != nil {
		// Drop header/body references so the pool never pins request trees.
		*d.env = Envelope{}
	}
	clear(d.spans)
	*d = StreamDecoder{env: d.env, spans: d.spans[:0]} // the two kept for reuse
	streamDecoderPool.Put(d)
}

// ReadPreamble consumes tokens up to and including the Body start tag:
// the envelope root is validated, headers (if any) are fully parsed into
// Envelope().Header, and the decoder is left positioned at the first body
// entry.
func (d *StreamDecoder) ReadPreamble() error {
	if d.state != streamInit {
		return fmt.Errorf("soap: ReadPreamble called twice")
	}
	// Prolog: skip everything before the root start tag, as Parse does.
	for {
		tok, err := d.tk.Next()
		if err == io.EOF {
			return fmt.Errorf("soap: %w", errEmptyEnvelope)
		}
		if err != nil {
			return fmt.Errorf("soap: %w", err)
		}
		if tok.Kind != xmltext.KindStartElement {
			continue
		}
		d.root = xmldom.StartElementNode(d.arena, &tok, nil)
		break
	}
	switch {
	case d.root.Is(NSEnvelope, "Envelope"):
		d.env.Version = V11
	case d.root.Is(NSEnvelope12, "Envelope"):
		d.env.Version = V12
	case d.root.Name.Local == "Envelope":
		return &VersionMismatchError{Namespace: d.root.Namespace()}
	default:
		return fmt.Errorf("soap: root element is {%s}%s, not a SOAP Envelope",
			d.root.Namespace(), d.root.Name.Local)
	}
	d.nsEnv = d.env.Version.Namespace()
	// Envelope children until Body: Header blocks parse eagerly (they are
	// small and the server needs them before dispatching anything).
	for {
		tok, err := d.tk.Next()
		if err != nil {
			return d.wrapTokenErr(err)
		}
		switch tok.Kind {
		case xmltext.KindStartElement:
			child := xmldom.StartElementNode(d.arena, &tok, d.root)
			switch {
			case child.Is(d.nsEnv, "Header"):
				open := d.tk.InputOffset()
				if err := xmldom.CompleteSubtree(d.tk, d.arena, child); err != nil {
					return d.wrapTokenErr(err)
				}
				if d.header == nil {
					d.header = d.content(open, d.tk.InputOffset())
				}
				d.env.Header = append(d.env.Header, child.ChildElements()...)
			case child.Is(d.nsEnv, "Body"):
				d.body = child
				d.state = streamInBody
				return nil
			default:
				return fmt.Errorf("soap: unexpected envelope child {%s}%s",
					child.Namespace(), child.Name.Local)
			}
		case xmltext.KindEndElement:
			// Root closed without a Body.
			return fmt.Errorf("soap: envelope has no Body")
		case xmltext.KindText:
			xmldom.AppendText(d.arena, d.root, d.tk.TokenBytes())
		case xmltext.KindComment:
			d.root.AddChild(&xmldom.Comment{Data: tok.Text})
		}
	}
}

// Envelope returns the envelope under construction. After ReadPreamble the
// version and headers are populated; Body entries accumulate as they are
// decoded and the slice is completed by Finish.
func (d *StreamDecoder) Envelope() *Envelope { return d.env }

// NextEntryStart reads up to the start tag of the next body entry and
// returns the started element — attributes present, children not yet
// parsed. It returns (nil, nil) when the Body end tag is reached. The
// caller inspects the element (is it a packed request?) and then finishes
// it with CompleteEntry or NextChild.
func (d *StreamDecoder) NextEntryStart() (*xmldom.Element, error) {
	if d.state != streamInBody {
		return nil, fmt.Errorf("soap: NextEntryStart in wrong state")
	}
	for {
		pos := d.tk.InputOffset()
		tok, err := d.tk.Next()
		if err != nil {
			return nil, d.wrapTokenErr(err)
		}
		switch tok.Kind {
		case xmltext.KindStartElement:
			el := xmldom.StartElementNode(d.arena, &tok, d.body)
			d.entryStart, d.open = pos, d.tk.InputOffset()
			d.state = streamInEntry
			return el, nil
		case xmltext.KindEndElement:
			d.state = streamBodyDone
			return nil, nil
		case xmltext.KindText:
			xmldom.AppendText(d.arena, d.body, d.tk.TokenBytes())
		case xmltext.KindComment:
			d.body.AddChild(&xmldom.Comment{Data: tok.Text})
		}
	}
}

// CompleteEntry parses the rest of the entry subtree started by
// NextEntryStart (a no-op beyond the pending end token for a self-closing
// entry).
func (d *StreamDecoder) CompleteEntry(el *xmldom.Element) error {
	if d.state != streamInEntry {
		return fmt.Errorf("soap: CompleteEntry in wrong state")
	}
	if err := xmldom.CompleteSubtree(d.tk, d.arena, el); err != nil {
		return d.wrapTokenErr(err)
	}
	d.end = d.tk.InputOffset()
	d.pushEntrySpan()
	d.state = streamInBody
	return nil
}

// NextChild parses and returns the next child element of the entry started
// by NextEntryStart, subtree complete. Text and comments between children
// are attached to the entry as they are encountered. It returns (nil, nil)
// when the entry's end tag is reached, after which the next NextEntryStart
// may be issued. This is the packed-dispatch workhorse: each
// Parallel_Method child is delivered as its subtree closes.
func (d *StreamDecoder) NextChild(entry *xmldom.Element) (*xmldom.Element, error) {
	return d.SkimChild(entry, nil)
}

// SkimChild is NextChild building a child's subtree only when tree is nil or
// tree(child), asked once its start tag is read, says so. Otherwise the
// tokenizer steps over its content, still checking that it is well formed,
// and the child comes back with its attributes alone, not added to entry's
// children. ChildSpan and Content hold its bytes either way.
func (d *StreamDecoder) SkimChild(entry *xmldom.Element, tree func(*xmldom.Element) bool) (*xmldom.Element, error) {
	if d.state != streamInEntry {
		return nil, fmt.Errorf("soap: NextChild in wrong state")
	}
	for {
		pos := d.tk.InputOffset()
		tok, err := d.tk.Next()
		if err != nil {
			return nil, d.wrapTokenErr(err)
		}
		switch tok.Kind {
		case xmltext.KindStartElement:
			child := xmldom.StartElementNode(d.arena, &tok, nil)
			child.Parent = entry // its namespaces resolve either way
			open := d.tk.InputOffset()
			if tree == nil || tree(child) {
				entry.AddChild(child)
				err = xmldom.CompleteSubtree(d.tk, d.arena, child)
			} else {
				err = d.skipSubtree()
			}
			if err != nil {
				return nil, d.wrapTokenErr(err)
			}
			d.open, d.end = open, d.tk.InputOffset()
			if d.src != nil {
				d.child = d.src[pos:d.end]
			}
			return child, nil
		case xmltext.KindEndElement:
			d.pushEntrySpan()
			d.state = streamInBody
			return nil, nil
		case xmltext.KindText:
			xmldom.AppendText(d.arena, entry, d.tk.TokenBytes())
		case xmltext.KindComment:
			entry.AddChild(&xmldom.Comment{Data: tok.Text})
		}
	}
}

// skipSubtree reads up to the end tag of the element just started, building nothing.
func (d *StreamDecoder) skipSubtree() error {
	for depth := 1; depth > 0; {
		tok, err := d.tk.Next()
		if err != nil {
			return err
		}
		switch tok.Kind {
		case xmltext.KindStartElement:
			depth++
		case xmltext.KindEndElement:
			depth--
		}
	}
	return nil
}

// ChildSpan returns the verbatim bytes of the child NextChild or SkimChild
// returned last, start tag to end tag, so a caller can forward the bytes
// without writing the tree out again. The span aliases the document passed to
// AcquireStreamDecoder; nil outside Acquire mode.
func (d *StreamDecoder) ChildSpan() []byte { return d.child }

// Content returns what lies between the start and end tags of the element
// completed last — the child NextChild or SkimChild returned, else the entry
// CompleteEntry finished — nil for a self-closing one. Like ChildSpan it
// aliases the document.
func (d *StreamDecoder) Content() []byte { return d.content(d.open, d.end) }

// HeaderContent is Content for the envelope's first Header, nil without one.
func (d *StreamDecoder) HeaderContent() []byte { return d.header }

// content is what lies inside an element whose start tag ends at open and
// whose end tag ends at end: up to the end tag's '<'.
func (d *StreamDecoder) content(open, end int64) []byte {
	if d.src == nil || end == open {
		return nil // a self-closing element reads no end tag
	}
	span := d.src[open:end]
	return span[:bytes.LastIndexByte(span, '<')]
}

// pushEntrySpan records the raw span of the entry that just completed.
func (d *StreamDecoder) pushEntrySpan() {
	if d.src != nil {
		d.spans = append(d.spans, d.src[d.entryStart:d.tk.InputOffset()])
	}
}

// BodySpans returns the raw byte spans of the body entries completed so
// far, in document order. After the last entry (and Finish) this is the
// exact wire form of the Body's element content — the canonical body that
// header processors verify signatures over. The spans alias the request
// buffer passed to AcquireStreamDecoder.
func (d *StreamDecoder) BodySpans() [][]byte { return d.spans }

// Finish consumes the remainder of the document after the Body, applying
// the envelope-shape checks (Header after Body, multiple Bodies, unexpected
// children, trailing junk) and returns the assembled Envelope.
func (d *StreamDecoder) Finish() (*Envelope, error) {
	switch d.state {
	case streamBodyDone:
	case streamInBody:
		// Caller stopped between entries: drain the rest of the Body so the
		// envelope is complete and tail errors still surface.
		for {
			el, err := d.NextEntryStart()
			if err != nil {
				return nil, err
			}
			if el == nil {
				break
			}
			if err := d.CompleteEntry(el); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("soap: Finish in wrong state")
	}
	for {
		tok, err := d.tk.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, d.wrapTokenErr(err)
		}
		switch tok.Kind {
		case xmltext.KindStartElement:
			child := xmldom.StartElementNode(d.arena, &tok, d.root)
			switch {
			case child.Is(d.nsEnv, "Header"):
				return nil, fmt.Errorf("soap: Header after Body")
			case child.Is(d.nsEnv, "Body"):
				return nil, fmt.Errorf("soap: multiple Body elements")
			default:
				return nil, fmt.Errorf("soap: unexpected envelope child {%s}%s",
					child.Namespace(), child.Name.Local)
			}
		case xmltext.KindEndElement:
			// Root end; keep reading to surface trailing-junk errors,
			// exactly as a full Parse would.
		}
	}
	d.state = streamDone
	d.env.Body = append(d.env.Body, d.body.ChildElements()...)
	return d.env, nil
}

// wrapTokenErr adds the soap: prefix every decode error carries, preserving EOF
// as a truncation error rather than a clean end.
func (d *StreamDecoder) wrapTokenErr(err error) error {
	if err == io.EOF {
		return fmt.Errorf("soap: unexpected EOF inside envelope")
	}
	return fmt.Errorf("soap: %w", err)
}

var errEmptyEnvelope = fmt.Errorf("empty document")
