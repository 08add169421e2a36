package netsim

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// pair establishes a connected client/server pair over a fresh link.
func pair(t *testing.T, cfg Config) (client, server net.Conn, link *Link) {
	t.Helper()
	link = NewLink(cfg)
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { link.Close() })

	done := make(chan net.Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			done <- nil
			return
		}
		done <- c
	}()
	client, err = link.Dial()
	if err != nil {
		t.Fatal(err)
	}
	server = <-done
	if server == nil {
		t.Fatal("no server conn")
	}
	return client, server, link
}

func TestConnBasicExchange(t *testing.T) {
	client, server, _ := pair(t, Fast())
	go func() {
		client.Write([]byte("hello"))
	}()
	buf := make([]byte, 5)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Errorf("server read %q", buf)
	}
	go server.Write([]byte("world"))
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Errorf("client read %q", buf)
	}
}

func TestConnLargeTransfer(t *testing.T) {
	client, server, _ := pair(t, Fast())
	payload := bytes.Repeat([]byte("0123456789abcdef"), 64<<10/16*3) // 192 KiB
	go func() {
		client.Write(payload)
		client.Close()
	}()
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("large transfer corrupted: got %d bytes, want %d", len(got), len(payload))
	}
}

func TestCloseGivesEOF(t *testing.T) {
	client, server, _ := pair(t, Fast())
	go func() {
		client.Write([]byte("bye"))
		client.Close()
	}()
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "bye" {
		t.Errorf("read %q", got)
	}
	if _, err := client.Write([]byte("after close")); err == nil {
		t.Error("write after close succeeded")
	}
}

func TestDialWithoutListener(t *testing.T) {
	link := NewLink(Fast())
	if _, err := link.Dial(); err == nil {
		t.Error("dial with no listener succeeded")
	}
	link.Close()
	if _, err := link.Dial(); err == nil {
		t.Error("dial on closed link succeeded")
	}
}

func TestSecondListenerRejected(t *testing.T) {
	link := NewLink(Fast())
	defer link.Close()
	if _, err := link.Listen(); err != nil {
		t.Fatal(err)
	}
	if _, err := link.Listen(); err == nil {
		t.Error("second listener accepted")
	}
}

func TestPropagationDelay(t *testing.T) {
	cfg := Fast()
	cfg.PropagationDelay = 20 * time.Millisecond
	client, server, _ := pair(t, cfg)

	start := time.Now()
	go client.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 15*time.Millisecond {
		t.Errorf("one byte arrived in %v, want >= ~20ms propagation", elapsed)
	}
}

func TestDialCostsRoundTrip(t *testing.T) {
	cfg := Fast()
	cfg.PropagationDelay = 10 * time.Millisecond
	cfg.AcceptOverhead = 5 * time.Millisecond
	link := NewLink(cfg)
	defer link.Close()
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			_ = c
		}
	}()
	start := time.Now()
	if _, err := link.Dial(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 20*time.Millisecond {
		t.Errorf("dial took %v, want >= 2*prop + accept = 25ms", elapsed)
	}
}

func TestBandwidthPacing(t *testing.T) {
	cfg := Config{Bandwidth: 1_000_000, FrameOverhead: 1} // ~1 MB/s, negligible framing
	client, server, _ := pair(t, cfg)

	payload := make([]byte, 200_000) // should take ~200 ms at 1 MB/s
	done := make(chan struct{})
	go func() {
		io.ReadAll(server)
		close(done)
	}()
	start := time.Now()
	if _, err := client.Write(payload); err != nil {
		t.Fatal(err)
	}
	client.Close()
	<-done
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Errorf("200 KB at 1 MB/s took %v, want >= ~200ms", elapsed)
	}
	if elapsed > 600*time.Millisecond {
		t.Errorf("200 KB at 1 MB/s took %v, far too slow", elapsed)
	}
}

func TestBandwidthSharedAcrossConnections(t *testing.T) {
	cfg := Config{Bandwidth: 1_000_000, FrameOverhead: 1}
	link := NewLink(cfg)
	defer link.Close()
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()

	// Two connections each sending 100 KB must share the 1 MB/s line:
	// total ~200 ms, not ~100 ms.
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := link.Dial()
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.Write(make([]byte, 100_000))
			c.Close()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Errorf("two writers finished in %v, want >= ~200ms (shared line)", elapsed)
	}
}

func TestFullDuplex(t *testing.T) {
	cfg := Config{Bandwidth: 1_000_000, FrameOverhead: 1}
	client, server, _ := pair(t, cfg)

	// 100 KB in each direction simultaneously should take ~100 ms total,
	// not ~200 ms, because directions are independent.
	var wg sync.WaitGroup
	wg.Add(2)
	start := time.Now()
	go func() {
		defer wg.Done()
		client.Write(make([]byte, 100_000))
	}()
	go func() {
		defer wg.Done()
		server.Write(make([]byte, 100_000))
	}()
	go io.Copy(io.Discard, client)
	go io.Copy(io.Discard, server)
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed > 180*time.Millisecond {
		t.Errorf("full-duplex transfer took %v, want ~100ms", elapsed)
	}
}

func TestReadDeadline(t *testing.T) {
	client, _, _ := pair(t, Fast())
	client.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	buf := make([]byte, 1)
	start := time.Now()
	_, err := client.Read(buf)
	if err != os.ErrDeadlineExceeded {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Error("deadline massively overshot")
	}
	// Clearing the deadline makes reads work again.
	client.SetReadDeadline(time.Time{})
}

// TestReadDeadlineSetDuringRead: a deadline set while a read is blocked
// ends that read, as on TCP — the way a client gives up on a response.
func TestReadDeadlineSetDuringRead(t *testing.T) {
	client, _, _ := pair(t, Fast())
	errCh := make(chan error, 1)
	go func() {
		_, err := client.Read(make([]byte, 1))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the read block with no deadline
	client.SetReadDeadline(time.Unix(1, 0))
	select {
	case err := <-errCh:
		if err != os.ErrDeadlineExceeded {
			t.Errorf("err = %v, want deadline exceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a deadline set during a blocked read did not end it")
	}
}

func TestStatsAccounting(t *testing.T) {
	client, server, link := pair(t, Fast())
	go client.Write(make([]byte, 1000))
	buf := make([]byte, 1000)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	st := link.Stats()
	if st.Dials != 1 {
		t.Errorf("dials = %d", st.Dials)
	}
	if st.BytesUp != 1000 {
		t.Errorf("bytesUp = %d", st.BytesUp)
	}
	if st.WireBytesUp <= st.BytesUp {
		t.Errorf("wire bytes (%d) should exceed payload bytes (%d)", st.WireBytesUp, st.BytesUp)
	}
	link.ResetStats()
	if link.Stats().Dials != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestWireSizeFraming(t *testing.T) {
	link := NewLink(LAN100())
	if got := link.wireSize(1); got != 1+58 {
		t.Errorf("wireSize(1) = %d", got)
	}
	if got := link.wireSize(1460); got != 1460+58 {
		t.Errorf("wireSize(1460) = %d", got)
	}
	if got := link.wireSize(1461); got != 1461+2*58 {
		t.Errorf("wireSize(1461) = %d", got)
	}
}

func TestManyConcurrentConnections(t *testing.T) {
	link := NewLink(Fast())
	defer link.Close()
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				buf := make([]byte, 64)
				n, _ := c.Read(buf)
				c.Write(buf[:n])
				c.Close()
			}(c)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := link.Dial()
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			defer c.Close()
			msg := fmt.Sprintf("conn-%d", i)
			c.Write([]byte(msg))
			buf := make([]byte, len(msg))
			if _, err := io.ReadFull(c, buf); err != nil {
				t.Errorf("conn %d read: %v", i, err)
				return
			}
			if string(buf) != msg {
				t.Errorf("conn %d got %q", i, buf)
			}
		}(i)
	}
	wg.Wait()
}

func TestWANConfig(t *testing.T) {
	cfg := WAN()
	if cfg.PropagationDelay != 20*time.Millisecond || cfg.Bandwidth != 1_250_000 {
		t.Errorf("WAN config = %+v", cfg)
	}
	client, server, _ := pair(t, cfg)
	start := time.Now()
	go client.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 18*time.Millisecond {
		t.Errorf("WAN byte arrived in %v, want ~20ms", elapsed)
	}
}

func TestWriteDeadline(t *testing.T) {
	cfg := Config{Bandwidth: 1000, FrameOverhead: 1} // 1 KB/s: writes take seconds
	client, _, _ := pair(t, cfg)
	client.SetWriteDeadline(time.Now().Add(-time.Second)) // already past
	if _, err := client.Write(make([]byte, 100_000)); err != os.ErrDeadlineExceeded {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	link := NewLink(Fast())
	lis, err := link.Listen()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := lis.Accept()
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	lis.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Accept returned a conn after close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept did not unblock on close")
	}
}

func TestAddrs(t *testing.T) {
	client, server, _ := pair(t, Fast())
	if client.LocalAddr().String() != "client" || client.RemoteAddr().String() != "server" {
		t.Error("client addrs wrong")
	}
	if server.LocalAddr().String() != "server" || server.RemoteAddr().String() != "client" {
		t.Error("server addrs wrong")
	}
	if client.LocalAddr().Network() != "netsim" {
		t.Error("network name wrong")
	}
}
