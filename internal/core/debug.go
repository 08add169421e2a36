package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
	_ "unsafe" // for go:linkname

	"repro/internal/bind"
	"repro/internal/httpx"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// statsDoc is the JSON document GET /spi/stats returns on either node: its
// counters under its role, "server" or "gateway", the process's garbage
// collector, and on a server what its stages add (serverDoc).
type statsDoc struct {
	Server  *ServerStats `json:"server,omitempty"`
	Gateway any          `json:"gateway,omitempty"`

	// Runtime is the process's garbage collector at snapshot time.
	Runtime metrics.RuntimeStats `json:"runtime"`

	*serverDoc
}

// serverDoc is what a server's statsDoc adds: its application stage, and,
// when a tracer is attached, the per-stage latency summaries and gauges the
// trace sink has aggregated.
type serverDoc struct {
	// AppOccupancy is the application-stage worker occupancy in [0, 1]
	// at snapshot time.
	AppOccupancy float64 `json:"app_occupancy"`
	// AppQueueLen is the instantaneous application-stage queue length.
	AppQueueLen int `json:"app_queue_len"`

	// Stages is present only when a tracer is attached.
	Stages []trace.StageSummary `json:"stages,omitempty"`
	// Gauges is present only when a tracer is attached.
	Gauges []trace.GaugeValue `json:"gauges,omitempty"`
	// SpansDropped counts ring-buffer overwrites since the last Reset.
	SpansDropped int64 `json:"spans_dropped,omitempty"`
}

// statsResponse writes doc, with the garbage collector read now: the one
// writer of /spi/stats.
func statsResponse(doc statsDoc) *httpx.Response {
	doc.Runtime = metrics.ReadRuntime()
	body, err := appendJSON(nil, reflect.ValueOf(doc), 0)
	if err != nil {
		return plainText(500, "stats encoding failed\n")
	}
	resp := httpx.NewResponse(200, append(body, '\n'))
	resp.Header.Set("Content-Type", "application/json")
	return resp
}

// appendJSON appends v at nesting depth as json.MarshalIndent(v, "", "  ")
// writes it: a struct by its fields' json tags, a map by its sorted string
// keys. That is all the stats documents hold; any other kind, and a NaN or
// infinite float, is an error.
func appendJSON(b []byte, v reflect.Value, depth int) ([]byte, error) {
	switch k := v.Kind(); {
	case (k == reflect.Pointer || k == reflect.Interface || k == reflect.Slice || k == reflect.Map) && v.IsNil():
		return append(b, "null"...), nil
	case k == reflect.Pointer || k == reflect.Interface:
		return appendJSON(b, v.Elem(), depth)
	case k == reflect.String:
		return appendJSONString(b, v.String()), nil
	case k == reflect.Bool:
		return strconv.AppendBool(b, v.Bool()), nil
	case v.CanInt():
		return strconv.AppendInt(b, v.Int(), 10), nil
	case v.CanUint():
		return strconv.AppendUint(b, v.Uint(), 10), nil
	case k == reflect.Float64 && !math.IsInf(v.Float(), 0) && !math.IsNaN(v.Float()):
		// The shortest decimal, in exponent form below 1e-6 and from 1e21.
		if f := v.Float(); f != 0 && (math.Abs(f) < 1e-6 || math.Abs(f) >= 1e21) {
			b = strconv.AppendFloat(b, f, 'e', -1, 64)
			if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
				b = append(b[:n-2], b[n-1]) // e-07 is written e-7
			}
			return b, nil
		}
		return strconv.AppendFloat(b, v.Float(), 'f', -1, 64), nil
	case k == reflect.Slice && v.Type().Elem().Kind() != reflect.Uint8: // bytes go in base64
		elems := make([]jsonField, v.Len())
		for i := range elems {
			elems[i].v = v.Index(i)
		}
		return appendJSONMembers(b, '[', ']', elems, depth)
	case k == reflect.Map && v.Type().Key().Kind() == reflect.String:
		var members []jsonField
		for it := v.MapRange(); it.Next(); {
			members = append(members, jsonField{it.Key().String(), it.Value()})
		}
		sort.Slice(members, func(i, j int) bool { return members[i].name < members[j].name })
		return appendJSONMembers(b, '{', '}', members, depth)
	case k == reflect.Struct:
		return appendJSONMembers(b, '{', '}', jsonFields(v, make([]jsonField, 0, v.NumField())), depth)
	}
	return nil, fmt.Errorf("core: no JSON for %s %v", v.Type(), v)
}

// jsonField is a member of an object, or an element of an array (no name).
type jsonField struct {
	name string
	v    reflect.Value
}

// appendJSONMembers appends an array's elements or an object's members, one
// a line indented under depth; an empty one stays on its line ("[]", "{}").
func appendJSONMembers(b []byte, open, close byte, members []jsonField, depth int) ([]byte, error) {
	b = append(b, open)
	for i, m := range members {
		if i > 0 {
			b = append(b, ',')
		}
		if b = append(append(b, '\n'), strings.Repeat("  ", depth+1)...); open == '{' {
			b = append(appendJSONString(b, m.name), ": "...)
		}
		var err error
		if b, err = appendJSON(b, m.v, depth+1); err != nil {
			return nil, err
		}
	}
	if len(members) > 0 {
		b = append(append(b, '\n'), strings.Repeat("  ", depth)...)
	}
	return append(b, close), nil
}

// jsonFields lists the fields of struct v encoding/json writes, in its
// order: named by bind.FieldTag under "json", an omitempty one left out when
// bind.Empty, an untagged embedded struct's fields in its place (none for a
// nil pointer). No stats document repeats a name, so encoding/json's rules
// for names that collide are not needed.
func jsonFields(v reflect.Value, out []jsonField) []jsonField {
	for i := range v.NumField() {
		sf, fv := v.Type().Field(i), v.Field(i)
		if t := sf.Type; sf.Anonymous && sf.Tag.Get("json") == "" &&
			(t.Kind() == reflect.Struct || t.Kind() == reflect.Pointer && t.Elem().Kind() == reflect.Struct) {
			if fv = reflect.Indirect(fv); fv.IsValid() {
				out = jsonFields(fv, out)
			}
		} else if name, omitEmpty, skip := bind.FieldTag(sf, "json"); !skip && !(omitEmpty && bind.Empty(fv)) {
			out = append(out, jsonField{name, fv})
		}
	}
	return out
}

// appendJSONString quotes s as encoding/json does: <, > and & escaped for
// HTML, U+2028 and U+2029 for JavaScript, invalid UTF-8 as U+FFFD.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i, r := range s {
		switch {
		case r == utf8.RuneError && !strings.HasPrefix(s[i:], "\ufffd"):
			b = append(b, `\ufffd`...)
		case r < ' ' || strings.ContainsRune("\"\\<>&\u2028\u2029", r):
			if k := strings.IndexRune("\"\\\b\f\n\r\t", r); k >= 0 {
				b = append(b, '\\', `"\bfnrt`[k])
			} else {
				b = fmt.Appendf(b, `\u%04x`, r)
			}
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return append(b, '"')
}

// serveDebug is both nodes' answer to a GET under the operator mount:
//
//	GET /spi/stats          — doc's JSON snapshot, with the process's GC
//	GET /spi/pprof/<name>   — a runtime profile (goroutine, heap, allocs,
//	                          block, mutex, threadcreate) in pprof's text format
func serveDebug(r Route, doc func() statsDoc) *httpx.Response {
	name, pprofPath := strings.CutPrefix(r.Path, debugMount+"pprof/")
	switch {
	case r.Path == debugMount+"stats":
		return statsResponse(doc())
	case pprofPath:
		return pprofResponse(name)
	}
	return plainText(404, "unknown debug endpoint; try /spi/stats or /spi/pprof/goroutine\n")
}

// GatewayDebug answers a gateway's GET under the operator mount, its
// counters read by stats when /spi/stats is asked for.
func GatewayDebug(r Route, stats func() any) *httpx.Response {
	return serveDebug(r, func() statsDoc { return statsDoc{Gateway: stats()} })
}

// statsDoc is a server's /spi/stats document: ServerStats, with what its
// stages add.
func (s *Server) statsDoc() statsDoc {
	st := s.Stats()
	doc := statsDoc{Server: &st, serverDoc: &serverDoc{}}
	if s.staged() {
		doc.AppOccupancy = st.AppStage.Occupancy()
		doc.AppQueueLen = s.appPool.QueueLen()
	}
	if tr := s.cfg.Tracer; tr.Enabled() {
		doc.Stages = tr.Stages()
		doc.Gauges = tr.Gauges()
		doc.SpansDropped = tr.Dropped()
	}
	return doc
}

// pprofResponse writes the named runtime profile as runtime/pprof's
// WriteTo(w, 1) does, in the legacy text form `go tool pprof` reads: from
// the runtime's records, which keep a stack's innermost 32 frames,
// symbolised with runtime.CallersFrames.
func pprofResponse(name string) *httpx.Response {
	var b []byte
	var recs []profileRecord
	switch name {
	case "goroutine":
		b, recs = countRecords(name, records(runtime.GoroutineProfile))
	case "threadcreate":
		b, recs = countRecords(name, records(runtime.ThreadCreateProfile))
	case "heap", "allocs":
		b, recs = heapRecords(records(func(p []runtime.MemProfileRecord) (int, bool) { return runtime.MemProfile(p, true) }))
	case "block":
		b, recs = contentionRecords("contention", records(runtime.BlockProfile))
	case "mutex":
		b, recs = contentionRecords(name, records(runtime.MutexProfile))
	default:
		return plainText(404, "unknown profile "+name+"\n")
	}
	for _, r := range recs {
		b = appendFrames(appendPCs(append(b, r.head...), r.stk), r.stk, name == "block" || name == "mutex")
	}
	resp := httpx.NewResponse(200, b)
	resp.Header.Set("Content-Type", "text/plain; charset=utf-8")
	return resp
}

// profileRecord is a record of a text profile: its counts, and the stack
// they count.
type profileRecord struct {
	head string
	stk  []uintptr
}

// records reads one of the runtime's profiles whole, with room for records
// added between sizing it and reading it.
func records[R any](read func([]R) (int, bool)) []R {
	for n, ok := read(nil); ; {
		p := make([]R, n+10)
		if n, ok = read(p); ok {
			return p[:n]
		}
	}
}

// countRecords counts p's goroutines or threads by stack, most shared first.
func countRecords(name string, p []runtime.StackRecord) ([]byte, []profileRecord) {
	count := map[string]int{}
	var recs []profileRecord
	for i := range p {
		k := string(appendPCs(nil, p[i].Stack()))
		if count[k]++; count[k] == 1 {
			recs = append(recs, profileRecord{k, p[i].Stack()})
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		ci, cj := count[recs[i].head], count[recs[j].head]
		return ci > cj || ci == cj && recs[i].head < recs[j].head
	})
	for i := range recs {
		recs[i].head = strconv.Itoa(count[recs[i].head]) + " "
	}
	return fmt.Appendf(nil, "%s profile: total %d\n", name, len(p)), recs
}

// heapRecords lists the heap's sampled allocation sites as of the last GC,
// smallest in-use bytes first, under their totals. The header's alloc bytes
// are never its in-use bytes, which pprof would read as a two-column profile.
func heapRecords(p []runtime.MemProfileRecord) ([]byte, []profileRecord) {
	sort.Slice(p, func(i, j int) bool { return p[i].InUseBytes() < p[j].InUseBytes() })
	var t runtime.MemProfileRecord
	recs := make([]profileRecord, len(p))
	for i, r := range p {
		t.AllocBytes, t.AllocObjects = t.AllocBytes+r.AllocBytes, t.AllocObjects+r.AllocObjects
		t.FreeBytes, t.FreeObjects = t.FreeBytes+r.FreeBytes, t.FreeObjects+r.FreeObjects
		recs[i] = profileRecord{fmt.Sprintf("%d: %d [%d: %d] ", r.InUseObjects(), r.InUseBytes(), r.AllocObjects, r.AllocBytes), p[i].Stack()}
	}
	if t.AllocBytes == t.InUseBytes() {
		t.AllocBytes, t.FreeBytes = t.AllocBytes+1, t.FreeBytes+1
	}
	return fmt.Appendf(nil, "heap profile: %d: %d [%d: %d] @ heap/%d\n", t.InUseObjects(), t.InUseBytes(), t.AllocObjects, t.AllocBytes, 2*runtime.MemProfileRate), recs
}

// contentionRecords lists the block ("contention") or mutex profile's
// records, most cycles first. Neither command sets a rate, so both are
// empty unless an embedder calls runtime.SetBlockProfileRate or
// runtime.SetMutexProfileFraction.
func contentionRecords(name string, p []runtime.BlockProfileRecord) ([]byte, []profileRecord) {
	sort.Slice(p, func(i, j int) bool { return p[i].Cycles > p[j].Cycles })
	b := fmt.Appendf(nil, "--- %s:\ncycles/second=%d\n", name, cyclesPerSecond())
	if name == "mutex" {
		b = fmt.Appendf(b, "sampling period=%d\n", runtime.SetMutexProfileFraction(-1))
	}
	recs := make([]profileRecord, len(p))
	for i := range p {
		recs[i] = profileRecord{fmt.Sprintf("%d %d ", p[i].Cycles, p[i].Count), p[i].Stack()}
	}
	return b, recs
}

// cyclesPerSecond is the rate of the runtime's clock, which the block and
// mutex profiles count delays in, and which no exported API gives. The
// runtime keeps this name for profilers outside runtime/pprof.
//
//go:linkname cyclesPerSecond runtime/pprof.runtime_cyclesPerSecond
func cyclesPerSecond() int64

// appendPCs writes a record's stack addresses, 0x0 for an empty stack (a
// thread's, say), which pprof would read as malformed.
func appendPCs(b []byte, stk []uintptr) []byte {
	if len(stk) == 0 {
		return append(b, "@ 0x0\n"...)
	}
	b = append(b, '@')
	for _, pc := range stk {
		b = fmt.Appendf(b, " %#x", pc)
	}
	return append(b, '\n')
}

// appendFrames writes stk a frame a line, then a blank line. Unless all, it
// hides the runtime's frames at the top (an allocation's, in a heap record)
// but never every frame; runtime.goexit is never written.
func appendFrames(b []byte, stk []uintptr, all bool) []byte {
	start, show := len(b), all
	for frames, more := runtime.CallersFrames(stk), true; more; {
		var f runtime.Frame
		switch f, more = frames.Next(); {
		case f.Function == "":
			show = true
			b = fmt.Appendf(b, "#\t%#x\n", f.PC)
		case f.Function != "runtime.goexit" && (show || !strings.HasPrefix(f.Function, "runtime.") && !strings.HasPrefix(f.Function, "internal/runtime/")):
			show = true
			b = fmt.Appendf(b, "#\t%#x\t%s+%#x\t%s:%d\n", f.PC, f.Function, f.PC-f.Entry, f.File, f.Line)
		}
	}
	if !show {
		return appendFrames(b[:start], stk, true)
	}
	return append(b, '\n')
}
