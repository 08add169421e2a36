package httpx

import "math/bits"

// turns is one connection's turn bookkeeping, at either end, as one machine.
// Each end hands one turn out first come and the other in sequence (seq)
// order, passing over a seq that was given up: the client writes requests
// first come and reads responses in seq order, and the server reads requests
// first come and writes responses in seq order. turns holds plain fields
// under its interpreter's lock (Client.mu, serverConn.mu). It does no I/O,
// reads no clock and starts nothing: each method is an event that returns an
// act for the interpreter, client.go or server.go, to carry out.
type turns struct {
	window   int    // client: exchanges it may carry; server: responses it may owe
	next     uint64 // seqs handed out first come: requests written (client) or read (server)
	done     uint64 // seqs whose ordered turn has passed: responses read (client) or written (server)
	users    int    // exchanges on the connection (client); goroutines serving it (server)
	gone     uint64 // client: bit i is set when the exchange of seq done+i gave up
	writer   uint64 // client: seq+1 of the request being written; 0 when none
	reader   uint64 // client: seq+1 of the exchange holding the read turn; 0 when none
	reading  bool   // server: the read-turn holder waits for a request
	idle     bool   // server: ... with nothing buffered when it began
	draining bool   // server: Shutdown has begun
	closed   bool   // the connection failed or closes: no turn is handed out any more
}

// act is what an event asks of its interpreter.
type act uint16

const (
	aRead      act = 1 << iota // client: read past the responses given up ahead, then its own
	aWrite                     // write the request or the response
	aSpawn                     // server: hand the read turn to a new goroutine
	aSetRead                   // set the read deadline: the exchange's, or ReadTimeout from now
	aClearRead                 // server: no read deadline: a response is owed, or the peer is watched
	aCutRead                   // client: a read deadline in the past, which ends a blocked read
	aSetWrite                  // set the write deadline: the exchange's, or WriteTimeout from now
	aCutWrite                  // client: a write deadline in the past, which ends a blocked write
	aWatch                     // server: watch the peer of a request that closes the connection
	aClose                     // close the connection (the server: after the write, when there is one)
	aWake                      // wake the waiters
	aResend                    // client: send the request again on a fresh connection
)

// maxWindow bounds a client connection's window: gone has a bit per seq.
const maxWindow = 64

// slot is one client exchange's place on its connection, held by its
// goroutine and changed only by events.
type slot struct {
	seq    uint64 // its request's place on the wire
	resend bool   // a failure sends the request again (see join)
}

// end closes the connection, with a.
func (t *turns) end(a act) act {
	t.closed = true
	return a | aClose
}

// Client events.

// load is how many exchanges the connection carries or owes a read for.
func (t *turns) load() int { return t.users + bits.OnesCount64(t.gone) }

// join: x joins a pooled connection. Only an exchange that joins an idle
// connection may be sent again, because only then can the server have closed
// the connection between requests — and only while its request is the first
// written since, and no byte of its response has come back.
func (t *turns) join(x *slot) {
	x.resend = t.users == 0
	t.users++
}

// writeBegun: x holds the write turn. It writes, with its deadline, unless
// the connection has failed.
func (t *turns) writeBegun(x *slot) act {
	if t.closed {
		return t.failed(x)
	}
	x.seq, x.resend = t.next, x.resend && t.next == t.done
	t.next++
	t.writer = x.seq + 1
	return aWrite | aSetWrite
}

// writeEnded: x's request is written, or its write failed (failed follows).
func (t *turns) writeEnded() { t.writer = 0 }

// readWanted: x, its request written, wants the read turn; ended when its
// context has ended, which gives its place up. It reads, with its deadline,
// once nobody holds the turn and every response ahead of its own was given
// up; an act of 0 is to wait.
func (t *turns) readWanted(x *slot, ended bool) act {
	ahead := uint64(1)<<(x.seq-t.done) - 1
	switch {
	case t.closed:
		return t.failed(x)
	case ended:
		return t.leave(x)
	case t.reader != 0 || t.gone&ahead != ahead:
		return 0
	}
	t.reader = x.seq + 1
	return aRead | aSetRead
}

// responseBegun: x has read past the responses given up ahead of it and has
// waited for its own: ok when its first byte came, cut when x's context ended
// first. A cut leaves the connection whole for the exchanges behind x.
func (t *turns) responseBegun(x *slot, ok, cut bool) act {
	t.gone >>= x.seq - t.done
	t.done = x.seq
	switch {
	case ok:
		x.resend = false
		return aRead
	case cut && !t.closed:
		return t.leave(x)
	}
	return t.failed(x)
}

// responseEnded: x's response was read; shut when it says Connection: close.
// keep: the connection may turn idle (see release).
func (t *turns) responseEnded(shut, keep bool) act {
	t.done, t.gone, t.reader = t.done+1, t.gone>>1, 0
	if shut {
		return t.end(aWake)
	}
	return aWake | t.release(keep)
}

// release: a client exchange leaves with its response read or before its
// write, or a server goroutine stops serving the connection. The last one
// closes the connection unless keep — it is pooled, and the pool has room for
// it idle — and no response given up is still due.
func (t *turns) release(keep bool) act {
	if t.users--; t.users > 0 || keep && !t.closed && t.gone == 0 {
		return 0
	}
	return t.end(0)
}

// leave: x gives up its place before its response began; the exchange whose
// turn comes next reads past that response. A connection left with no
// exchange on it closes.
func (t *turns) leave(x *slot) act {
	t.gone |= 1 << (x.seq - t.done)
	if t.reader == x.seq+1 {
		t.reader = 0
	}
	if t.users--; t.users == 0 {
		return t.end(aWake)
	}
	return aWake
}

// failed: x's write or read failed, or x found the connection failed. The
// connection closes and its waiters wake, and x is sent again if it may be.
func (t *turns) failed(x *slot) (a act) {
	if !t.closed {
		a = t.end(aWake)
	}
	if x.resend {
		a |= aResend
	}
	return a | aClose
}

// ctxEnded: the context of seq's exchange ended. A write it is blocked in is
// cut, and so is a read another exchange waits behind; a read nobody waits
// behind closes the connection; a wait for the read turn is woken.
func (t *turns) ctxEnded(seq uint64) act {
	switch {
	case t.writer == seq+1:
		return aCutWrite
	case t.reader == seq+1 && t.users == 1:
		return t.end(aWake)
	case t.reader == seq+1:
		return aCutRead
	}
	return aWake
}

// closeIdle: CloseIdle or Close drops the connection if no exchange is on it.
func (t *turns) closeIdle() act {
	if t.users > 0 || t.closed {
		return 0
	}
	return t.end(0)
}

// Server events.

// readBegun: the read-turn holder begins to wait for the next request;
// buffered when bytes of it are already buffered. ReadTimeout bounds the wait
// only while no response is owed. A drain closes a connection that has
// nothing owed and nothing buffered.
func (t *turns) readBegun(buffered bool) act {
	owed := t.next != t.done
	switch {
	case t.closed:
		return aClose
	case t.draining && !owed && !buffered:
		return t.end(0)
	}
	t.reading, t.idle = true, !buffered
	if owed {
		return aClearRead
	}
	return aSetRead
}

// requestRead: the reader read a request, with seq its place in the response
// order; shut when it asks to close the connection, buffered when bytes of
// the next one are already buffered. A request that closes the connection
// keeps the read turn and watches its peer. Another hands the read turn to a
// new goroutine when the next request is buffered and the window has room.
// On a connection that closed under the read, the request is dropped.
func (t *turns) requestRead(shut, buffered bool) (seq uint64, a act) {
	t.reading = false
	if t.closed {
		return 0, aClose
	}
	seq = t.next
	switch t.next++; {
	case shut:
		a = aWatch | aClearRead
	case buffered && int(t.next-t.done) < t.window:
		t.users++
		a = aSpawn
	}
	return seq, a
}

// malformed: the reader read a malformed request, whose 400 takes its place
// in the response order and closes the connection.
func (t *turns) malformed() (seq uint64) {
	t.reading = false
	t.next++
	return t.next - 1
}

// peerGone: the reader's read ended with no request — the peer closed or
// went quiet, or the connection closed — and the reader leaves (release).
func (t *turns) peerGone() { t.reading = false }

// writeWanted: seq's handler has returned, and its goroutine wants the write
// turn; shut when the response closes the connection. The response goes out
// in seq order, with its deadline, and closes the connection when it is the
// last one read during a drain; an act of 0 is to wait. On a connection that
// closes, it is dropped.
func (t *turns) writeWanted(seq uint64, shut bool) act {
	switch {
	case t.closed:
		return aClose
	case seq != t.done:
		return 0
	case shut || t.draining && seq+1 == t.next:
		return t.end(aWrite | aSetWrite)
	}
	return aWrite | aSetWrite
}

// written: the response in turn was written, ok or not. A failed write
// closes the connection; the last response owed arms ReadTimeout for a
// reader that waits.
func (t *turns) written(ok bool) (a act) {
	t.done++
	if !ok && !t.closed {
		a = t.end(0)
	}
	if t.reading && !t.closed && t.done == t.next {
		a |= aSetRead
	}
	return a | aWake
}

// shutdown: Shutdown begins. A connection whose reader waits with nothing
// owed and nothing buffered closes at once; any other closes after the last
// response owed on it.
func (t *turns) shutdown() act {
	t.draining = true
	if t.closed || !t.reading || !t.idle || t.next != t.done {
		return 0
	}
	return t.end(0)
}

// close: Close ends the connection; the goroutines waiting to write wake to
// drop their responses.
func (t *turns) close() act { return t.end(aWake) }
