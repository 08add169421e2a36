// Package netsim simulates the paper's testbed network in memory.
//
// The evaluation in the paper runs a client and a server on two hosts joined
// by a 100 Mbit Ethernet link. Its central result — packing M requests into
// one SOAP message wins when payloads are small and loses when they are
// huge — is entirely a function of per-message costs (TCP connection setup,
// HTTP and SOAP headers) versus payload transfer time. This package models
// exactly those quantities:
//
//   - connection establishment costs one round trip plus a configurable
//     accept overhead (the TCP handshake);
//   - every byte written is serialized through a shared per-direction
//     token-bucket "wire", so concurrent connections contend for bandwidth
//     the way they do on a real link (full duplex: the two directions are
//     independent);
//   - framing overhead (Ethernet + IP + TCP headers per MTU-sized segment)
//     is charged on the wire, so many small messages are proportionally
//     more expensive than one large one;
//   - delivery is delayed by the one-way propagation latency.
//
// Link produces net.Listener / net.Conn values, so the whole HTTP + SOAP
// stack runs over it unmodified, and the same experiments can also run over
// real TCP by swapping the dialer.
package netsim

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes one simulated link.
type Config struct {
	// PropagationDelay is the one-way latency. Zero means instantaneous.
	PropagationDelay time.Duration
	// Bandwidth is the capacity of each direction in bytes per second.
	// Zero means unlimited.
	Bandwidth int64
	// AcceptOverhead is extra time charged to every connection
	// establishment beyond the handshake round trip, modelling kernel
	// accept-queue and socket setup costs.
	AcceptOverhead time.Duration
	// MTU is the segment size used for framing-overhead accounting.
	// Zero means 1460 (Ethernet TCP MSS).
	MTU int
	// FrameOverhead is the number of header bytes charged per segment.
	// Zero means 58 (Ethernet 14 + IP 20 + TCP 20 + checksum/preamble 4).
	FrameOverhead int

	// DialFault, if set, is consulted before every connection attempt; a
	// non-nil return refuses that dial with the given error (connect
	// failure injection for resilience tests). It runs in addition to the
	// countdown armed by Link.FailDials.
	DialFault func() error
}

// IsZero reports whether the configuration is entirely unset, i.e. the
// zero value (Config is not comparable because of the injection hooks).
func (c Config) IsZero() bool {
	return c.PropagationDelay == 0 && c.Bandwidth == 0 && c.AcceptOverhead == 0 &&
		c.MTU == 0 && c.FrameOverhead == 0 && c.DialFault == nil
}

// LAN100 returns the configuration used throughout the experiments: a
// 100 Mbit switched Ethernet with a typical ~0.3 ms round-trip time,
// matching the paper's testbed ("the server and client communicated through
// the Megabit Ethernet link").
func LAN100() Config {
	return Config{
		PropagationDelay: 150 * time.Microsecond,
		Bandwidth:        100_000_000 / 8, // 100 Mbit/s
		AcceptOverhead:   100 * time.Microsecond,
		MTU:              1460,
		FrameOverhead:    58,
	}
}

// WAN returns a wide-area configuration: 10 Mbit/s with a 20 ms one-way
// delay (a 2006-era inter-site link). Web services are motivated by
// "representing and accessing services in wide area network environment"
// (the paper's opening sentence); under WAN latency the per-message
// round-trip cost grows and packing wins even harder.
func WAN() Config {
	return Config{
		PropagationDelay: 20 * time.Millisecond,
		Bandwidth:        10_000_000 / 8, // 10 Mbit/s
		AcceptOverhead:   200 * time.Microsecond,
		MTU:              1460,
		FrameOverhead:    58,
	}
}

// Fast returns a configuration with no artificial delays, for unit tests
// that only need conn semantics.
func Fast() Config { return Config{} }

// Stats is a snapshot of link counters, used by experiments to verify
// message accounting (e.g. that the packed approach really dialed once).
type Stats struct {
	Dials         int64 // connections established
	BytesUp       int64 // payload bytes client->server
	BytesDown     int64 // payload bytes server->client
	WireBytesUp   int64 // payload+framing bytes client->server
	WireBytesDown int64 // payload+framing bytes server->client
}

// Link is one simulated point-to-point link.
type Link struct {
	cfg  Config
	up   *wire // client -> server
	down *wire // server -> client

	dials         atomic.Int64
	bytesUp       atomic.Int64
	bytesDown     atomic.Int64
	wireBytesUp   atomic.Int64
	wireBytesDown atomic.Int64

	failDials  atomic.Int64 // countdown armed by FailDials
	extraDelay atomic.Int64 // nanoseconds, set by SetExtraLatency

	mu       sync.Mutex
	accept   chan *conn
	done     chan struct{} // closed by Close
	listener *Listener
	closed   bool
}

// NewLink creates a link with the given configuration.
func NewLink(cfg Config) *Link {
	if cfg.MTU <= 0 {
		cfg.MTU = 1460
	}
	if cfg.FrameOverhead < 0 {
		cfg.FrameOverhead = 0
	} else if cfg.FrameOverhead == 0 {
		cfg.FrameOverhead = 58
	}
	return &Link{
		cfg:    cfg,
		up:     newWire(cfg.Bandwidth),
		down:   newWire(cfg.Bandwidth),
		accept: make(chan *conn, 128),
		done:   make(chan struct{}),
	}
}

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() Stats {
	return Stats{
		Dials:         l.dials.Load(),
		BytesUp:       l.bytesUp.Load(),
		BytesDown:     l.bytesDown.Load(),
		WireBytesUp:   l.wireBytesUp.Load(),
		WireBytesDown: l.wireBytesDown.Load(),
	}
}

// ResetStats zeroes the counters (between experiment runs).
func (l *Link) ResetStats() {
	l.dials.Store(0)
	l.bytesUp.Store(0)
	l.bytesDown.Store(0)
	l.wireBytesUp.Store(0)
	l.wireBytesDown.Store(0)
}

// wireSize returns the on-the-wire size of n payload bytes including
// per-segment framing.
func (l *Link) wireSize(n int) int {
	segments := (n + l.cfg.MTU - 1) / l.cfg.MTU
	return n + segments*l.cfg.FrameOverhead
}

// Listen returns the server side of the link. A link has one listener.
func (l *Link) Listen() (*Listener, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, errors.New("netsim: link closed")
	}
	if l.listener != nil {
		return nil, errors.New("netsim: link already has a listener")
	}
	l.listener = &Listener{link: l}
	return l.listener, nil
}

// ErrDialFault is the error injected dial failures wrap, so tests and
// retry policies can recognize them with errors.Is.
var ErrDialFault = errors.New("netsim: connection refused (injected fault)")

// FailDials arms the link to refuse the next n connection attempts with
// ErrDialFault — the "lossy link" injection used by the resilience tests
// and the fault-injection experiment. It is cumulative with Config.DialFault.
func (l *Link) FailDials(n int64) {
	l.failDials.Store(n)
}

// SetExtraLatency adds d of one-way delay to every subsequent write in
// both directions (slow-link injection); zero removes it.
func (l *Link) SetExtraLatency(d time.Duration) {
	l.extraDelay.Store(int64(d))
}

// injectedDelay returns the currently injected one-way write delay.
func (l *Link) injectedDelay() time.Duration {
	return time.Duration(l.extraDelay.Load())
}

// Dial establishes a connection to the link's listener, charging the
// handshake round trip (plus accept overhead) and a handshake's worth of
// wire bytes.
func (l *Link) Dial() (net.Conn, error) {
	l.mu.Lock()
	lis := l.listener
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return nil, errors.New("netsim: link closed")
	}
	if lis == nil {
		return nil, errors.New("netsim: connection refused (no listener)")
	}
	for {
		remaining := l.failDials.Load()
		if remaining <= 0 {
			break
		}
		if l.failDials.CompareAndSwap(remaining, remaining-1) {
			return nil, ErrDialFault
		}
	}
	if l.cfg.DialFault != nil {
		if err := l.cfg.DialFault(); err != nil {
			return nil, err
		}
	}

	// SYN and ACK consume wire time in each direction plus a full round
	// trip of propagation before data can flow.
	const handshakeFrame = 66 // TCP SYN segment with options
	l.up.transmit(handshakeFrame)
	l.down.transmit(handshakeFrame)
	sleep(2*l.cfg.PropagationDelay + l.cfg.AcceptOverhead)

	client, server := l.newConnPair()
	select {
	case l.accept <- server:
	case <-l.done:
		return nil, errors.New("netsim: link closed")
	default:
		// Accept backlog full: the connection is refused, as a SYN queue
		// overflow would.
		return nil, errors.New("netsim: accept backlog full")
	}
	l.dials.Add(1)
	return client, nil
}

// newConnPair wires two conn halves together through the link.
func (l *Link) newConnPair() (client, server *conn) {
	c2s := newPipeBuf()
	s2c := newPipeBuf()
	client = &conn{
		link: l, in: s2c, out: c2s, wire: l.up,
		payload: &l.bytesUp, wireBytes: &l.wireBytesUp,
		local: addr("client"), remote: addr("server"),
	}
	server = &conn{
		link: l, in: c2s, out: s2c, wire: l.down,
		payload: &l.bytesDown, wireBytes: &l.wireBytesDown,
		local: addr("server"), remote: addr("client"),
	}
	client.peer, server.peer = server, client
	return client, server
}

// Close shuts the link down; pending and future operations fail.
func (l *Link) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	close(l.done)
	return nil
}

// Listener implements net.Listener over the link.
type Listener struct {
	link   *Link
	closed atomic.Bool
}

// Accept waits for the next inbound connection.
func (ln *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-ln.link.accept:
		if ln.closed.Load() {
			return nil, errors.New("netsim: listener closed")
		}
		return c, nil
	case <-ln.link.done:
		return nil, errors.New("netsim: listener closed")
	}
}

// Close stops the listener. Established connections are unaffected.
func (ln *Listener) Close() error {
	if ln.closed.CompareAndSwap(false, true) {
		ln.link.Close()
	}
	return nil
}

// Addr implements net.Listener.
func (ln *Listener) Addr() net.Addr { return addr("server") }

// addr is a trivial net.Addr.
type addr string

func (a addr) Network() string { return "netsim" }
func (a addr) String() string  { return string(a) }

// sleep waits for d with sub-millisecond precision. Kernel timers on many
// hosts round time.Sleep up to ~1 ms, which would swamp the microsecond
// LAN delays this simulation models, so the final stretch is spin-waited.
// It is a seam for tests.
var sleep = func(d time.Duration) {
	if d <= 0 {
		return
	}
	sleepUntil(time.Now().Add(d))
}

// spinThreshold is the window within which waiting spins instead of
// sleeping. It is chosen above the observed oversleep of coarse kernel
// timers.
const spinThreshold = 2 * time.Millisecond

// sleepUntil blocks until the deadline, trading a short CPU spin for
// timer precision.
func sleepUntil(deadline time.Time) {
	for {
		d := time.Until(deadline)
		if d <= 0 {
			return
		}
		if d > 2*spinThreshold {
			time.Sleep(d - 2*spinThreshold)
			continue
		}
		runtime.Gosched()
	}
}

// writeQuantum bounds how many bytes one Write serializes through the wire
// at once, so concurrent connections interleave fairly instead of one large
// message monopolizing the link.
const writeQuantum = 64 << 10

// conn is one endpoint of a simulated connection.
type conn struct {
	link      *Link
	peer      *conn
	in        *pipeBuf // data we read
	out       *pipeBuf // data the peer reads
	wire      *wire    // the direction we transmit on
	payload   *atomic.Int64
	wireBytes *atomic.Int64
	local     addr
	remote    addr

	readDeadline  atomicTime
	writeDeadline atomicTime
	closed        atomic.Bool
}

// Read implements net.Conn.
func (c *conn) Read(p []byte) (int, error) {
	return c.in.read(p, &c.readDeadline)
}

// Write implements net.Conn: it charges wire time for the bytes (shared
// with all other connections transmitting in the same direction), then
// delivers them to the peer after the propagation delay.
func (c *conn) Write(p []byte) (int, error) {
	if c.closed.Load() {
		return 0, errors.New("netsim: write on closed connection")
	}
	total := 0
	for len(p) > 0 {
		if dl := c.writeDeadline.Load(); !dl.IsZero() && time.Now().After(dl) {
			return total, os.ErrDeadlineExceeded
		}
		n := len(p)
		if n > writeQuantum {
			n = writeQuantum
		}
		wireN := c.link.wireSize(n)
		c.wire.transmit(wireN)
		c.payload.Add(int64(n))
		c.wireBytes.Add(int64(wireN))
		deliverAt := time.Now().Add(c.link.cfg.PropagationDelay + c.link.injectedDelay())
		if err := c.out.write(p[:n], deliverAt); err != nil {
			return total, err
		}
		total += n
		p = p[n:]
	}
	return total, nil
}

// Close implements net.Conn. Both directions shut down, as with TCP's
// close-then-RST behaviour for simplicity; in-flight bytes already written
// remain readable (FIN semantics).
func (c *conn) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.out.closeWrite()
	c.in.closeRead()
	return nil
}

// LocalAddr implements net.Conn.
func (c *conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn.
func (c *conn) SetDeadline(t time.Time) error {
	c.readDeadline.Store(t)
	c.writeDeadline.Store(t)
	c.in.kick()
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *conn) SetReadDeadline(t time.Time) error {
	c.readDeadline.Store(t)
	c.in.kick()
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *conn) SetWriteDeadline(t time.Time) error {
	c.writeDeadline.Store(t)
	return nil
}

// atomicTime is an atomically updatable time.Time.
type atomicTime struct {
	mu sync.Mutex
	t  time.Time
}

func (a *atomicTime) Load() time.Time {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.t
}

func (a *atomicTime) Store(t time.Time) {
	a.mu.Lock()
	a.t = t
	a.mu.Unlock()
}

// wire serializes transmissions in one direction through a shared line:
// each transmit occupies the line for size/bandwidth seconds, FIFO. The
// caller sleeps until its transmission completes, which is how bandwidth
// contention between concurrent connections arises.
type wire struct {
	mu        sync.Mutex
	bandwidth float64 // bytes per second; 0 = infinite
	busyUntil time.Time
}

func newWire(bandwidth int64) *wire {
	return &wire{bandwidth: float64(bandwidth)}
}

func (w *wire) transmit(n int) {
	if w.bandwidth <= 0 || n <= 0 {
		return
	}
	d := time.Duration(float64(n) / w.bandwidth * float64(time.Second))
	w.mu.Lock()
	now := time.Now()
	start := w.busyUntil
	if start.Before(now) {
		start = now
	}
	finish := start.Add(d)
	w.busyUntil = finish
	w.mu.Unlock()
	sleep(finish.Sub(now))
}

// pipeBuf is a time-aware byte queue: chunks become readable only once
// their delivery time arrives.
type pipeBuf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	chunks []chunk
	wEOF   bool // writer closed: EOF after draining
	rDead  bool // reader closed: further ops fail
}

type chunk struct {
	data []byte
	at   time.Time
}

func newPipeBuf() *pipeBuf {
	b := &pipeBuf{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *pipeBuf) write(p []byte, at time.Time) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rDead || b.wEOF {
		return fmt.Errorf("netsim: connection closed")
	}
	data := make([]byte, len(p))
	copy(data, p)
	b.chunks = append(b.chunks, chunk{data: data, at: at})
	b.cond.Broadcast()
	return nil
}

// read blocks until data arrives, the peer closes or the read deadline
// passes. The deadline is loaded on every wake, so one set while a read is
// blocked (SetReadDeadline kicks the buffer) ends that read, as on TCP.
func (b *pipeBuf) read(p []byte, readDeadline *atomicTime) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		deadline := readDeadline.Load()
		if b.rDead {
			return 0, fmt.Errorf("netsim: read on closed connection")
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return 0, os.ErrDeadlineExceeded
		}
		if len(b.chunks) > 0 {
			now := time.Now()
			first := &b.chunks[0]
			if !first.at.After(now) {
				n := copy(p, first.data)
				if n == len(first.data) {
					b.chunks = b.chunks[1:]
				} else {
					first.data = first.data[n:]
				}
				return n, nil
			}
			// Data exists but is still "in flight": wait precisely for its
			// arrival (releasing the lock), bounded by the deadline.
			wake := first.at
			if !deadline.IsZero() && deadline.Before(wake) {
				wake = deadline
			}
			b.mu.Unlock()
			sleepUntil(wake)
			b.mu.Lock()
			continue
		}
		if b.wEOF {
			return 0, io.EOF
		}
		if !deadline.IsZero() {
			b.wakeAt(deadline, deadline)
			continue
		}
		b.cond.Wait()
	}
}

// wakeAt blocks (releasing the lock) until roughly time t, the deadline, or
// a broadcast, whichever comes first.
func (b *pipeBuf) wakeAt(t, deadline time.Time) {
	wake := t
	if !deadline.IsZero() && deadline.Before(wake) {
		wake = deadline
	}
	d := time.Until(wake)
	if d <= 0 {
		return
	}
	timer := time.AfterFunc(d, b.cond.Broadcast)
	b.cond.Wait()
	timer.Stop()
}

func (b *pipeBuf) closeWrite() {
	b.mu.Lock()
	b.wEOF = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *pipeBuf) closeRead() {
	b.mu.Lock()
	// Keep buffered data readable (FIN semantics) but mark EOF; a reader
	// blocked with no data wakes with EOF.
	b.wEOF = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *pipeBuf) kick() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}
