package core

import (
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/soap"
	"repro/internal/soapenc"
)

// replyConn swallows a request and answers it with one canned response.
type replyConn struct{ response, pending []byte }

func (c *replyConn) Write(b []byte) (int, error) {
	if len(c.pending) == 0 {
		c.pending = c.response
	}
	return len(b), nil
}

func (c *replyConn) Read(b []byte) (int, error) {
	if len(c.pending) == 0 {
		return 0, io.EOF
	}
	n := copy(b, c.pending)
	c.pending = c.pending[n:]
	return n, nil
}

func (*replyConn) Close() error                     { return nil }
func (*replyConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (*replyConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (*replyConn) SetDeadline(time.Time) error      { return nil }
func (*replyConn) SetReadDeadline(time.Time) error  { return nil }
func (*replyConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzClientReply answers a four-call batch with arbitrary reply bytes. The
// client must never panic, and Send must return with every call resolved
// exactly once (a second resolve would close a closed channel).
func FuzzClientReply(f *testing.F) {
	entries := []string{echoEntry("0"), echoEntry("1"), echoEntry("2"), echoEntry("3")}
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for _, body := range []string{
			packedReply(entries...),
			packedReply(entries[3], entries[1], entries[0], entries[2]),
			packedReply(entries[:3]...),
			packedReply(append(entries, echoEntry("9"))...),
			packedReply(entries[0], entries[0], entries[2], entries[3]),
			packedReply(undecodableEntry("x"), entries[1]),
			packedReply(`<m:echoResponse><data>a</data></m:echoResponse>`, `<m:echoResponse/>`),
			packedReply(entries[0], `<s:Fault spi:id="1"><faultcode>s:Server</faultcode><faultstring>no</faultstring></s:Fault>`),
			packedReply(entries...) + `<m:extra xmlns:m="urn:x"/>`,
			`<s:Fault><faultcode>s:Server</faultcode><faultstring>down</faultstring></s:Fault>`,
		} {
			f.Add(replyBody(v, body))
		}
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		response := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: text/xml; charset=utf-8\r\nContent-Length: %d\r\n\r\n%s", len(doc), doc))
		cli, err := NewClient(ClientConfig{Dial: func() (net.Conn, error) { return &replyConn{response: response}, nil }})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		b := cli.NewBatch()
		calls := make([]*Call, 4)
		for i := range calls {
			calls[i] = b.Add("Echo", "echo", soapenc.F("data", strings.Repeat("a", i)))
		}
		sendErr := b.Send()
		for i, c := range calls {
			select {
			case <-c.Done():
			default:
				t.Fatalf("call %d unresolved after Send (%v)", i, sendErr)
			}
			if _, err := c.Wait(); sendErr != nil && err != sendErr {
				t.Fatalf("Send failed with %v, call %d resolved with %v", sendErr, i, err)
			}
		}
	})
}
