package admin

import (
	"bytes"
	"fmt"

	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/xmltext"
)

// StatsFields flattens a snapshot into the named RPC result parameters of
// GetStatsResponse. The field order here is the wire order and is pinned by
// the admin goldens in internal/core/testdata — append new fields at the
// end (before ops) rather than reordering.
func StatsFields(s Stats) []soapenc.Field {
	ops := make(soapenc.Array, 0, len(s.Ops))
	for _, o := range s.Ops {
		ops = append(ops, soapenc.NewStruct(
			soapenc.F("op", o.Op),
			soapenc.F("count", o.Count),
			soapenc.F("mean_us", o.MeanUs),
			soapenc.F("p50_us", o.P50Us),
			soapenc.F("p90_us", o.P90Us),
			soapenc.F("p99_us", o.P99Us),
		))
	}
	fields := []soapenc.Field{
		soapenc.F("role", s.Role),
		soapenc.F("weight", s.Weight),
		soapenc.F("draining", s.Draining),
		soapenc.F("workers", s.Workers),
		soapenc.F("busy", s.Busy),
		soapenc.F("idle", s.Idle),
		soapenc.F("queue_depth", s.QueueDepth),
		soapenc.F("queue_cap", s.QueueCap),
		soapenc.F("inflight", s.Inflight),
		soapenc.F("envelopes", s.Envelopes),
		soapenc.F("requests", s.Requests),
		soapenc.F("packed", s.Packed),
		soapenc.F("faults", s.Faults),
		soapenc.F("item_faults", s.ItemFaults),
	}
	// fault_codes is omitted when every tally is zero so fault-free nodes
	// advertise exactly the pre-taxonomy bytes (admin goldens stay pinned).
	if len(s.FaultCodes) > 0 {
		codes := make(soapenc.Array, 0, len(s.FaultCodes))
		for _, c := range s.FaultCodes {
			codes = append(codes, soapenc.NewStruct(
				soapenc.F("code", c.Code),
				soapenc.F("count", c.Count),
			))
		}
		fields = append(fields, soapenc.F("fault_codes", codes))
	}
	return append(fields, soapenc.F("ops", ops))
}

// statInt reads one integer stats field, rejecting wrong types and negative
// values — a scraped snapshot with a negative worker count is garbage, and
// an exporter must not publish it as a reading.
func statInt(name string, v soapenc.Value, dst *int64) error {
	n, ok := v.(int64)
	if !ok {
		return fmt.Errorf("admin: field %q is %T, want integer", name, v)
	}
	if n < 0 {
		return fmt.Errorf("admin: field %q is negative (%d)", name, n)
	}
	*dst = n
	return nil
}

// StatsFromFields rebuilds a snapshot from decoded GetStatsResponse
// parameters. Unknown fields are ignored (newer nodes may advertise more);
// known fields must carry the right type, counts must be non-negative, and
// weight must be positive.
func StatsFromFields(params []soapenc.Field) (Stats, error) {
	var s Stats
	for _, p := range params {
		switch p.Name {
		case "role":
			r, ok := p.Value.(string)
			if !ok {
				return Stats{}, fmt.Errorf("admin: field \"role\" is %T, want string", p.Value)
			}
			s.Role = r
		case "draining":
			d, ok := p.Value.(bool)
			if !ok {
				return Stats{}, fmt.Errorf("admin: field \"draining\" is %T, want boolean", p.Value)
			}
			s.Draining = d
		case "weight":
			if err := statInt(p.Name, p.Value, &s.Weight); err != nil {
				return Stats{}, err
			}
		case "workers":
			if err := statInt(p.Name, p.Value, &s.Workers); err != nil {
				return Stats{}, err
			}
		case "busy":
			if err := statInt(p.Name, p.Value, &s.Busy); err != nil {
				return Stats{}, err
			}
		case "idle":
			if err := statInt(p.Name, p.Value, &s.Idle); err != nil {
				return Stats{}, err
			}
		case "queue_depth":
			if err := statInt(p.Name, p.Value, &s.QueueDepth); err != nil {
				return Stats{}, err
			}
		case "queue_cap":
			if err := statInt(p.Name, p.Value, &s.QueueCap); err != nil {
				return Stats{}, err
			}
		case "inflight":
			if err := statInt(p.Name, p.Value, &s.Inflight); err != nil {
				return Stats{}, err
			}
		case "envelopes":
			if err := statInt(p.Name, p.Value, &s.Envelopes); err != nil {
				return Stats{}, err
			}
		case "requests":
			if err := statInt(p.Name, p.Value, &s.Requests); err != nil {
				return Stats{}, err
			}
		case "packed":
			if err := statInt(p.Name, p.Value, &s.Packed); err != nil {
				return Stats{}, err
			}
		case "faults":
			if err := statInt(p.Name, p.Value, &s.Faults); err != nil {
				return Stats{}, err
			}
		case "item_faults":
			if err := statInt(p.Name, p.Value, &s.ItemFaults); err != nil {
				return Stats{}, err
			}
		case "fault_codes":
			arr, ok := p.Value.(soapenc.Array)
			if !ok {
				return Stats{}, fmt.Errorf("admin: field \"fault_codes\" is %T, want array", p.Value)
			}
			s.FaultCodes = make([]FaultCode, 0, len(arr))
			for i, item := range arr {
				st, ok := item.(*soapenc.Struct)
				if !ok || st == nil {
					return Stats{}, fmt.Errorf("admin: fault_codes[%d] is %T, want struct", i, item)
				}
				fc := FaultCode{Code: st.GetString("code")}
				if fc.Code == "" {
					return Stats{}, fmt.Errorf("admin: fault_codes[%d] has no code", i)
				}
				for _, f := range st.Fields {
					if f.Name != "count" {
						continue
					}
					if err := statInt("fault_codes.count", f.Value, &fc.Count); err != nil {
						return Stats{}, err
					}
				}
				s.FaultCodes = append(s.FaultCodes, fc)
			}
		case "ops":
			arr, ok := p.Value.(soapenc.Array)
			if !ok {
				return Stats{}, fmt.Errorf("admin: field \"ops\" is %T, want array", p.Value)
			}
			s.Ops = make([]OpStat, 0, len(arr))
			for i, item := range arr {
				st, ok := item.(*soapenc.Struct)
				if !ok || st == nil {
					return Stats{}, fmt.Errorf("admin: ops[%d] is %T, want struct", i, item)
				}
				o := OpStat{Op: st.GetString("op")}
				if o.Op == "" {
					return Stats{}, fmt.Errorf("admin: ops[%d] has no op name", i)
				}
				for _, f := range st.Fields {
					var dst *int64
					switch f.Name {
					case "count":
						dst = &o.Count
					case "mean_us":
						dst = &o.MeanUs
					case "p50_us":
						dst = &o.P50Us
					case "p90_us":
						dst = &o.P90Us
					case "p99_us":
						dst = &o.P99Us
					default:
						continue
					}
					if err := statInt("ops."+f.Name, f.Value, dst); err != nil {
						return Stats{}, err
					}
				}
				s.Ops = append(s.Ops, o)
			}
		}
	}
	if s.Weight < 1 {
		return Stats{}, fmt.Errorf("admin: snapshot weight %d is not positive", s.Weight)
	}
	if s.Busy > s.Workers {
		return Stats{}, fmt.Errorf("admin: snapshot busy %d exceeds workers %d", s.Busy, s.Workers)
	}
	return s, nil
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
