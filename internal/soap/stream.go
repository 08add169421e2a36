package soap

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// StreamDecoder decodes a SOAP envelope incrementally: the preamble
// (root, headers, Body start) first, then one body entry — or one child of
// a body entry — at a time. The server's packed-request dispatch uses it
// to hand each Parallel_Method entry to the application stage as soon as
// its subtree closes, instead of waiting for the whole envelope.
//
// The decoder reproduces Decode's observable behaviour: the same trees
// (entries keep their parent chain up to the Envelope, so namespace
// resolution works), the same errors for the same malformed documents.
// The one intentional difference is *when* errors surface — a document
// whose tail is malformed fails at Finish, after earlier entries have
// already been delivered. For callers that need the bytes as well as the
// trees, the Acquire mode tees out verbatim spans: each packed child's
// (ChildSpan), for forwarding it unchanged, and those of all body entries
// for signature verification (BodySpans), so neither forces a second pass
// over the document.
//
// All nodes come from the arena passed to NewStreamDecoder and follow the
// arena lifecycle contract; a nil arena falls back to the heap.
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
	child      []byte   // raw span of the child NextChild returned last
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
// tokenizers) across requests on the server's decode path.
var streamDecoderPool = sync.Pool{New: func() any { return &StreamDecoder{} }}

// AcquireStreamDecoder is NewStreamDecoder over an in-memory document on
// pooled machinery: the decoder, its tokenizer and the tokenizer's read
// buffer are all reused across requests. Call Release when the exchange is
// over; after that the decoder AND the Envelope it produced are invalid
// (the nodes inside follow the arena's lifecycle as usual). Callers that
// let the envelope outlive the exchange must use NewStreamDecoder.
func AcquireStreamDecoder(body []byte, a *xmldom.Arena) *StreamDecoder {
	d := streamDecoderPool.Get().(*StreamDecoder)
	tk := xmltext.AcquireTokenizer(body)
	tk.SetRawText(true)
	tk.SetReuseTokenAttrs(true)
	if d.env == nil {
		d.env = New()
	} else {
		*d.env = Envelope{}
	}
	d.tk = tk
	d.arena = a
	d.nsEnv = ""
	d.root, d.body = nil, nil
	d.state = streamInit
	d.src = body
	d.child = nil
	d.entryStart = 0
	clear(d.spans)
	d.spans = d.spans[:0]
	return d
}

// Release returns a decoder obtained from AcquireStreamDecoder to the
// pool. Safe on any decoder state, including after errors.
func (d *StreamDecoder) Release() {
	if d.tk != nil {
		xmltext.ReleaseTokenizer(d.tk)
		d.tk = nil
	}
	if d.env != nil {
		// Drop header/body references so the pool never pins request trees.
		*d.env = Envelope{}
	}
	d.arena = nil
	d.root, d.body = nil, nil
	d.src, d.child = nil, nil
	clear(d.spans)
	d.spans = d.spans[:0]
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
				if err := xmldom.CompleteSubtree(d.tk, d.arena, child); err != nil {
					return d.wrapTokenErr(err)
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
			d.entryStart = pos
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
			child := xmldom.StartElementNode(d.arena, &tok, entry)
			if err := xmldom.CompleteSubtree(d.tk, d.arena, child); err != nil {
				return nil, d.wrapTokenErr(err)
			}
			if d.src != nil {
				d.child = d.src[pos:d.tk.InputOffset()]
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

// ChildSpan returns the verbatim bytes of the child NextChild returned last,
// start tag to end tag, so a caller that read the tree can forward the bytes
// without writing the tree out again. The span aliases the document passed to
// AcquireStreamDecoder; nil outside Acquire mode.
func (d *StreamDecoder) ChildSpan() []byte { return d.child }

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
// the same envelope-shape checks Decode performs (Header after Body,
// multiple Bodies, unexpected children, trailing junk) and returns the
// assembled Envelope.
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

// wrapTokenErr adds the soap: prefix Decode errors carry, preserving EOF
// as a truncation error rather than a clean end.
func (d *StreamDecoder) wrapTokenErr(err error) error {
	if err == io.EOF {
		return fmt.Errorf("soap: unexpected EOF inside envelope")
	}
	return fmt.Errorf("soap: %w", err)
}

var errEmptyEnvelope = fmt.Errorf("empty document")

// DecodeArena is Decode with arena allocation: the whole tree is parsed
// into a before envelope interpretation. It is the whole-document
// counterpart of StreamDecoder, for callers that need the complete tree up
// front — clients decoding responses they fully consume before releasing
// the arena.
func DecodeArena(r io.Reader, a *xmldom.Arena) (*Envelope, error) {
	root, err := xmldom.ParseInArena(r, a)
	if err != nil {
		return nil, fmt.Errorf("soap: %w", err)
	}
	return FromElement(root)
}

// DecodeArenaBytes is DecodeArena over an in-memory document, parsed on a
// pooled tokenizer — the client's response-decode hot path.
func DecodeArenaBytes(b []byte, a *xmldom.Arena) (*Envelope, error) {
	root, err := xmldom.ParseBytesInArena(b, a)
	if err != nil {
		return nil, fmt.Errorf("soap: %w", err)
	}
	return FromElement(root)
}
