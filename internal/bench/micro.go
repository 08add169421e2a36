package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/metrics"
	"repro/internal/soap"
	"repro/internal/soapenc"
	"repro/internal/xmltext"
)

// The SOAP-codec microbenchmark suite, after Head et al., "A Benchmark
// Suite for SOAP-based Communication in Grid Web Services" (SC-05, the
// paper's reference [10]): serialization and deserialization cost per
// value shape. The shapes mirror that suite's payload classes — arrays of
// ints, doubles and strings, binary blobs, nested structures — because
// those are the parameters scientific grid services actually shipped.

// MicroShape is one payload class of the suite.
type MicroShape struct {
	Name  string
	Value soapenc.Value
	// Bytes is the serialized envelope size, filled in by the run.
	Bytes int
}

// microShapes builds the suite's payload classes at the given scale
// (element count for arrays).
func microShapes(n int) []*MicroShape {
	ints := make(soapenc.Array, n)
	doubles := make(soapenc.Array, n)
	strs := make(soapenc.Array, n)
	for i := 0; i < n; i++ {
		ints[i] = int64(i)
		doubles[i] = float64(i) + 0.5
		strs[i] = fmt.Sprintf("element-%d", i)
	}
	blob := make([]byte, n*8)
	for i := range blob {
		blob[i] = byte(i)
	}
	nested := soapenc.Array{}
	for i := 0; i < n/10+1; i++ {
		nested = append(nested, soapenc.NewStruct(
			soapenc.F("id", int64(i)),
			soapenc.F("name", fmt.Sprintf("item-%d", i)),
			soapenc.F("score", float64(i)*1.5),
			soapenc.F("tags", soapenc.Array{"a", "b"}),
		))
	}
	return []*MicroShape{
		{Name: fmt.Sprintf("int[%d]", n), Value: ints},
		{Name: fmt.Sprintf("double[%d]", n), Value: doubles},
		{Name: fmt.Sprintf("string[%d]", n), Value: strs},
		{Name: fmt.Sprintf("base64[%d B]", len(blob)), Value: blob},
		{Name: fmt.Sprintf("struct[%d]", len(nested)), Value: nested},
	}
}

// MicroRow is one measured payload class.
type MicroRow struct {
	Shape       string
	Bytes       int
	SerializeUs float64 // mean microseconds per envelope encode
	ParseUs     float64 // mean microseconds per envelope decode
	DecodeUs    float64 // mean microseconds per typed-value decode
}

// MicroResult is the completed suite.
type MicroResult struct {
	Scale int
	Rows  []MicroRow
}

// RunMicro measures the SOAP codec layer in isolation for each payload
// class: envelope serialization, envelope parsing, and typed-value
// decoding, without any network.
func RunMicro(scale, reps int) (*MicroResult, error) {
	if scale <= 0 {
		scale = 100
	}
	if reps <= 0 {
		reps = 50
	}
	result := &MicroResult{Scale: scale}
	for _, shape := range microShapes(scale) {
		row := MicroRow{Shape: shape.Name}

		// Serialization: the value to envelope bytes, as a client writes a
		// single call.
		var ser metrics.Recorder
		var doc []byte
		for i := 0; i < reps; i++ {
			start := time.Now()
			enc := soap.NewStreamEncoder()
			out, err := writeMicroCall(enc, shape.Value)
			elapsed := time.Since(start)
			doc = append(doc[:0], out...)
			enc.Release()
			if err != nil {
				return nil, fmt.Errorf("micro %s: %w", shape.Name, err)
			}
			ser.Record(elapsed)
		}
		row.Bytes = len(doc)

		// Envelope parse (tokenize + DOM + envelope interpretation).
		var parse metrics.Recorder
		var parsed *soap.Envelope
		for i := 0; i < reps; i++ {
			start := time.Now()
			env, err := soap.Decode(bytes.NewReader(doc))
			if err != nil {
				return nil, fmt.Errorf("micro %s parse: %w", shape.Name, err)
			}
			parse.Record(time.Since(start))
			parsed = env
		}

		// Typed-value decode from the DOM.
		var dec metrics.Recorder
		for i := 0; i < reps; i++ {
			start := time.Now()
			v, err := soapenc.Decode(parsed.Body[0].Child("", "payload"))
			if err != nil {
				return nil, fmt.Errorf("micro %s decode: %w", shape.Name, err)
			}
			dec.Record(time.Since(start))
			if i == 0 && !soapenc.Equal(v, shape.Value) {
				return nil, fmt.Errorf("micro %s: decoded value differs from input", shape.Name)
			}
		}

		row.SerializeUs = float64(ser.Snapshot().Mean.Microseconds())
		row.ParseUs = float64(parse.Snapshot().Mean.Microseconds())
		row.DecodeUs = float64(dec.Snapshot().Mean.Microseconds())
		result.Rows = append(result.Rows, row)
	}
	return result, nil
}

// writeMicroCall streams a single call carrying v as its one parameter.
func writeMicroCall(enc *soap.StreamEncoder, v soapenc.Value) ([]byte, error) {
	enc.Begin(soap.V11, nil)
	em := enc.Emitter()
	em.Start(xmltext.Name{Prefix: "m", Local: "Op"})
	em.Attr(xmltext.Name{Prefix: "xmlns", Local: "m"}, "urn:micro")
	if err := soapenc.EncodeTo(em, "payload", v); err != nil {
		return nil, err
	}
	em.End()
	return enc.Finish()
}

// Print renders the microbenchmark table.
func (r *MicroResult) Print(w io.Writer) {
	fmt.Fprintf(w, "SOAP codec microbenchmarks (after [10]) — arrays of %d elements\n", r.Scale)
	fmt.Fprintf(w, "%-16s %10s %16s %12s %12s\n", "payload", "bytes", "serialize (µs)", "parse (µs)", "decode (µs)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %10d %16.0f %12.0f %12.0f\n",
			row.Shape, row.Bytes, row.SerializeUs, row.ParseUs, row.DecodeUs)
	}
	fmt.Fprintln(w, "(serialize = value to envelope bytes; parse = tokenize+DOM+envelope; decode = xsi:type value mapping)")
	fmt.Fprintln(w)
}
