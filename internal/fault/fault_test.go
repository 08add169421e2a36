package fault

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/soap"
)

func TestSentinelIdentity(t *testing.T) {
	for _, tc := range []struct {
		f    *F
		yes  []error
		no   []error
		wire string
	}{
		{Timeoutf("t"), []error{Timeout, Interrupt}, []error{Retryable, Busy, Failure}, WireTimeout},
		{Cancelledf("c"), []error{Cancelled, Interrupt}, []error{Retryable, Timeout}, WireCancelled},
		{Busyf("b"), []error{Busy, Retryable, Failure}, []error{Timeout, AdmissionShed}, WireBusy},
		{Shedf("s"), []error{AdmissionShed, Retryable, Failure}, []error{Busy, Interrupt}, WireBusy},
		{Upstreamf("u"), []error{UpstreamUnavailable, Retryable, Failure}, []error{Busy, Defect}, WireBusy},
		{Protocolf(soap.FaultClient, "p"), []error{Protocol, Defect}, []error{Retryable, App}, soap.FaultClient},
		{Appf(soap.FaultServer, "a"), []error{App, Failure}, []error{Retryable, Protocol}, soap.FaultServer},
	} {
		for _, target := range tc.yes {
			if !errors.Is(tc.f, target) {
				t.Errorf("%s: errors.Is(%v) = false, want true", tc.f.Code(), target)
			}
		}
		for _, target := range tc.no {
			if errors.Is(tc.f, target) {
				t.Errorf("%s: errors.Is(%v) = true, want false", tc.f.Code(), target)
			}
		}
		if got := WireCode(tc.f); got != tc.wire {
			t.Errorf("%s: WireCode = %q, want %q", tc.f.Code(), got, tc.wire)
		}
	}
}

func TestFieldsAppendOnly(t *testing.T) {
	f := Timeoutf("deadline expired").With(KeyOp, "Echo.park").With(KeyID, "3")
	f.With(KeyOp, "Echo.repark") // later layers append, never rewrite
	fields := f.Fields()
	if len(fields) != 3 {
		t.Fatalf("fields = %v, want 3 entries", fields)
	}
	if fields[0] != (Field{KeyOp, "Echo.park"}) || fields[2] != (Field{KeyOp, "Echo.repark"}) {
		t.Errorf("append order violated: %v", fields)
	}
	// Field reads the most recent value for a key.
	if v, ok := f.Field(KeyOp); !ok || v != "Echo.repark" {
		t.Errorf("Field(op) = %q, %v", v, ok)
	}
	if _, ok := f.Field(KeyBackend); ok {
		t.Error("Field(backend) found a value that was never appended")
	}
}

func TestClassifyWire(t *testing.T) {
	for _, tc := range []struct {
		code string
		want Code
	}{
		{WireTimeout, CodeTimeout},
		{WireBusy, CodeBusy},
		{WireCancelled, CodeCancelled},
		{soap.FaultClient, CodeProtocol},
		{soap.FaultVersionMismatch, CodeProtocol},
		{soap.FaultMustUnderstand, CodeProtocol},
		{soap.FaultServer, CodeApp},
		{"urn:custom", CodeApp},
	} {
		sf := &soap.Fault{Code: tc.code, String: "text"}
		f := Classify(sf)
		if f.Code() != tc.want {
			t.Errorf("Classify(%q).Code = %v, want %v", tc.code, f.Code(), tc.want)
		}
		// The wrapper is transparent: same error text, *soap.Fault still
		// reachable, and re-encoding reproduces the same wire code.
		if f.Error() != sf.Error() {
			t.Errorf("Classify(%q).Error changed: %q != %q", tc.code, f.Error(), sf.Error())
		}
		var out *soap.Fault
		if !errors.As(f, &out) || out != sf {
			t.Errorf("Classify(%q) hides the soap fault from errors.As", tc.code)
		}
		if got := WireCode(f); got != tc.code {
			t.Errorf("WireCode(Classify(%q)) = %q (classification must not rewrite the wire)", tc.code, got)
		}
	}
}

func TestClassifyError(t *testing.T) {
	sf := &soap.Fault{Code: WireBusy, String: "queue full"}
	wrapped := fmt.Errorf("exchange: %w", sf)
	f := ClassifyError(wrapped)
	if f == nil || f.Code() != CodeBusy {
		t.Fatalf("ClassifyError(wrapped soap fault) = %v", f)
	}
	if !errors.Is(f, Retryable) {
		t.Error("busy fault not retryable")
	}
	direct := Shedf("shed")
	if got := ClassifyError(fmt.Errorf("outer: %w", direct)); got != direct {
		t.Errorf("ClassifyError did not return the chain's own *F")
	}
	if ClassifyError(errors.New("connection reset")) != nil {
		t.Error("transport error classified as a fault")
	}
	if ClassifyError(nil) != nil {
		t.Error("nil error classified as a fault")
	}
}

func TestToSOAPDropsFields(t *testing.T) {
	// Production encoding must not leak context fields onto the wire: the
	// corpus goldens pin the bare faultcode/faultstring layout.
	f := Timeoutf("deadline expired before Echo.park finished").With(KeyOp, "Echo.park")
	sf := ToSOAP(f)
	if sf.Detail != nil {
		t.Fatal("ToSOAP carried fields into the detail element")
	}
	if doc := faultDocument(t, sf, soap.V11); bytes.Contains(doc, []byte("spi-fault-field")) {
		t.Errorf("wire bytes leak context fields: %s", doc)
	}
}

// faultDocument is sf as the one body entry of an envelope in version v, the
// way a server answers with it.
func faultDocument(t testing.TB, sf *soap.Fault, v soap.Version) []byte {
	t.Helper()
	enc := soap.NewStreamEncoder()
	defer enc.Release()
	enc.Begin(v, nil)
	sf.AppendElementFor(enc.Emitter(), v)
	doc, err := enc.Finish()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return bytes.Clone(doc)
}

func TestStackCaptureOptIn(t *testing.T) {
	if f := Timeoutf("no stacks by default"); f.Stack() != "" {
		t.Error("stack captured with capture off")
	}
	prev := SetStackCapture(true)
	defer SetStackCapture(prev)
	f := Busyf("with stacks")
	if !strings.Contains(f.Stack(), "TestStackCaptureOptIn") {
		t.Errorf("stack misses the construction frame:\n%s", f.Stack())
	}
}

func TestCounters(t *testing.T) {
	var c Counters
	c.Note(Timeoutf("t"))
	c.Note(Shedf("s"))     // collapses onto Server.Busy
	c.Note(Upstreamf("u")) // likewise
	c.NoteSOAP(&soap.Fault{Code: WireBusy})
	c.NoteSOAP(&soap.Fault{Code: soap.FaultClient})
	c.NoteSOAP(&soap.Fault{Code: "Weird.Code"})
	c.NoteSOAP(nil)
	got := c.Snapshot()
	want := []CodeCount{
		{WireTimeout, 1}, {WireBusy, 3}, {soap.FaultClient, 1}, {"other", 1},
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("snapshot[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
