package admin

import (
	"bytes"
	"fmt"

	"repro/internal/bind"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/xmltext"
)

// StatsFields flattens a snapshot into the named RPC result parameters of
// GetStatsResponse, as Stats' soap tags and field order say.
func StatsFields(s Stats) []soapenc.Field {
	if s.Ops == nil {
		s.Ops = []OpStat{}
	}
	fields, err := bind.MarshalFields(s)
	if err != nil {
		panic(err) // every field of Stats has a type bind writes
	}
	return fields
}

// StatsFromFields rebuilds a snapshot from decoded GetStatsResponse
// parameters. Unknown fields are ignored whatever their value (newer nodes
// may advertise more). A known field must carry its type, never xsi:nil and
// never a negative integer; weight must be positive, busy at most workers,
// and every op and fault code named.
func StatsFromFields(params []soapenc.Field) (Stats, error) {
	var s Stats
	if err := bind.UnmarshalFields(markFields(params), &s); err != nil {
		return Stats{}, fmt.Errorf("admin: %w", err)
	}
	if err := s.check(); err != nil {
		return Stats{}, err
	}
	return s, nil
}

// A count that is xsi:nil was never counted, and a scraped snapshot with a
// negative count is garbage an exporter must not publish as a reading.
// bind would store the one as a zero and the other as read, so markFields
// swaps both for values of these types first. bind refuses them in any
// field it knows, and skips an unknown field without looking at its value.
type (
	xsiNil   struct{}
	negative int64
)

// markFields returns a copy of fields with every nil and every negative
// integer inside it, at any depth, replaced by an xsiNil or a negative.
func markFields(fields []soapenc.Field) []soapenc.Field {
	out := make([]soapenc.Field, len(fields))
	for i, f := range fields {
		out[i] = soapenc.Field{Name: f.Name, Value: mark(f.Value)}
	}
	return out
}

func mark(v soapenc.Value) soapenc.Value {
	switch v := v.(type) {
	case nil:
		return xsiNil{}
	case int64:
		if v < 0 {
			return negative(v)
		}
	case soapenc.Array:
		out := make(soapenc.Array, len(v))
		for i, item := range v {
			out[i] = mark(item)
		}
		return out
	case *soapenc.Struct:
		return &soapenc.Struct{Fields: markFields(v.Fields)}
	}
	return v
}

// check holds a snapshot to what its readers assume of the values.
func (s Stats) check() error {
	if s.Weight < 1 {
		return fmt.Errorf("admin: snapshot weight %d is not positive", s.Weight)
	}
	if s.Busy > s.Workers {
		return fmt.Errorf("admin: snapshot busy %d exceeds workers %d", s.Busy, s.Workers)
	}
	for i, o := range s.Ops {
		if o.Op == "" {
			return fmt.Errorf("admin: ops[%d] has no op name", i)
		}
	}
	for i, c := range s.FaultCodes {
		if c.Code == "" {
			return fmt.Errorf("admin: fault_codes[%d] has no code", i)
		}
	}
	return nil
}

// requestDocument writes an Admin RPC single-call request in version v: the
// operation's element in the service namespace, under the client stack's
// prefix convention, as the one body entry.
func requestDocument(v soap.Version, op string, params []soapenc.Field) ([]byte, error) {
	enc := soap.NewStreamEncoder()
	defer enc.Release()
	enc.Begin(v, nil)
	em := enc.Emitter()
	em.Start(xmltext.Name{Prefix: "m", Local: op})
	em.Attr(xmltext.Name{Prefix: "xmlns", Local: "m"}, Namespace)
	if err := soapenc.EncodeParamsTo(em, params); err != nil {
		return nil, err
	}
	em.End()
	doc, err := enc.Finish()
	if err != nil {
		return nil, err
	}
	return bytes.Clone(doc), nil
}

// getStatsRequests holds the GetStats request of each SOAP version. The
// request takes no parameters, so every poll of every node sends the same
// bytes: they are written once.
var getStatsRequests = func() (docs [2][]byte) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		doc, err := requestDocument(v, OpGetStats, nil)
		if err != nil {
			panic(err) // no parameters, nothing a caller could have got wrong
		}
		docs[v] = doc
	}
	return docs
}()

// GetStatsRequest returns the single-call GetStats request document in
// version v. Every caller gets the same bytes and must not modify them.
func GetStatsRequest(v soap.Version) []byte {
	if v != soap.V12 {
		v = soap.V11 // as Version's own methods read any other value
	}
	return getStatsRequests[v]
}

// SetStateRequest writes a SetState request document. An empty backend omits
// the backend parameter (the node's own state); weight <= 0 omits the weight
// parameter (leave unchanged); drain nil omits the drain parameter likewise.
func SetStateRequest(v soap.Version, backend string, weight int64, drain *bool) ([]byte, error) {
	var params []soapenc.Field
	if backend != "" {
		params = append(params, soapenc.F("backend", backend))
	}
	if weight > 0 {
		params = append(params, soapenc.F("weight", weight))
	}
	if drain != nil {
		params = append(params, soapenc.F("drain", *drain))
	}
	return requestDocument(v, OpSetState, params)
}

// ParseStatsResponse decodes the body of a GetStats exchange — the raw HTTP
// response bytes of a single-call invocation — into a snapshot. A fault
// envelope comes back as the fault itself (*soap.Fault as error), so
// callers can distinguish "the node said no" from "the bytes are garbage".
// This is the parser cmd/spiexporter uses, and the surface FuzzParseStats
// hardens: it must reject malformed input with
// an error, never a panic or a silently-wrong snapshot.
func ParseStatsResponse(body []byte) (Stats, error) {
	env, err := soap.Decode(bytes.NewReader(body))
	if err != nil {
		return Stats{}, err
	}
	if f := env.Fault(); f != nil {
		return Stats{}, f
	}
	if len(env.Body) != 1 {
		return Stats{}, fmt.Errorf("admin: response has %d body entries, want 1", len(env.Body))
	}
	el := env.Body[0]
	if el.Name.Local != OpGetStats+"Response" {
		return Stats{}, fmt.Errorf("admin: unexpected response element %q", el.Name.Local)
	}
	params, err := soapenc.DecodeParams(el)
	if err != nil {
		return Stats{}, err
	}
	return StatsFromFields(params)
}
